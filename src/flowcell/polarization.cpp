#include "flowcell/polarization.h"

#include <algorithm>

#include "numerics/contracts.h"

namespace brightsi::flowcell {

PolarizationCurve::PolarizationCurve(std::vector<PolarizationPoint> points)
    : points_(std::move(points)) {
  ensure(points_.size() >= 2, "PolarizationCurve needs at least two points");
  for (std::size_t i = 1; i < points_.size(); ++i) {
    ensure(points_[i].cell_voltage_v < points_[i - 1].cell_voltage_v,
           "PolarizationCurve voltages must be strictly descending");
  }
}

PolarizationPoint PolarizationCurve::max_power_point() const {
  ensure(!points_.empty(), "empty polarization curve");
  return *std::max_element(points_.begin(), points_.end(),
                           [](const PolarizationPoint& a, const PolarizationPoint& b) {
                             return a.power_w < b.power_w;
                           });
}

PolarizationCurve sweep_polarization(const ChannelModel& model,
                                     const ChannelOperatingConditions& conditions,
                                     double min_voltage_v, int point_count) {
  ensure(point_count >= 2, "sweep_polarization needs at least two points");
  const double ocv = model.open_circuit_voltage(conditions);
  ensure(min_voltage_v < ocv, "sweep_polarization: min voltage must be below OCV");

  // Start marginally below OCV so the first point carries (near) zero
  // current but remains a discharge point.
  const double v_start = ocv - 1e-4;
  std::vector<PolarizationPoint> points;
  points.reserve(static_cast<std::size_t>(point_count));
  for (int k = 0; k < point_count; ++k) {
    const double v = v_start + (min_voltage_v - v_start) * static_cast<double>(k) /
                                   (point_count - 1);
    const ChannelSolution sol = model.solve_at_voltage(v, conditions);
    points.push_back({v, sol.current_a, sol.mean_current_density_a_per_m2, sol.power_w});
  }
  return PolarizationCurve(std::move(points));
}

}  // namespace brightsi::flowcell
