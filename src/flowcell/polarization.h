// Polarization curves (cell voltage vs current) and their maximum-power point
// on top of any channel model. This is the quantity the paper validates in
// Fig. 3 and reports for the array in Fig. 7.
#ifndef BRIGHTSI_FLOWCELL_POLARIZATION_H
#define BRIGHTSI_FLOWCELL_POLARIZATION_H

#include <vector>

#include "flowcell/channel_model.h"

namespace brightsi::flowcell {

/// One (V, I) sample of a polarization sweep.
struct PolarizationPoint {
  double cell_voltage_v = 0.0;
  double current_a = 0.0;
  double current_density_a_per_m2 = 0.0;  ///< per projected electrode area
  double power_w = 0.0;
};

/// A swept polarization curve, stored with descending voltage (ascending
/// current).
class PolarizationCurve {
 public:
  PolarizationCurve() = default;
  explicit PolarizationCurve(std::vector<PolarizationPoint> points);

  [[nodiscard]] const std::vector<PolarizationPoint>& points() const { return points_; }
  [[nodiscard]] bool empty() const { return points_.empty(); }

  /// The maximum-power sample of the sweep.
  [[nodiscard]] PolarizationPoint max_power_point() const;

 private:
  std::vector<PolarizationPoint> points_;
};

/// Sweeps `model` from just below OCV down to `min_voltage_v` in
/// `point_count` evenly spaced voltages.
[[nodiscard]] PolarizationCurve sweep_polarization(const ChannelModel& model,
                                                   const ChannelOperatingConditions& conditions,
                                                   double min_voltage_v, int point_count);

}  // namespace brightsi::flowcell

#endif  // BRIGHTSI_FLOWCELL_POLARIZATION_H
