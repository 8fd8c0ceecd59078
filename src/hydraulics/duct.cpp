#include "hydraulics/duct.h"

#include <algorithm>
#include <cmath>

#include "numerics/contracts.h"
#include "numerics/interpolation.h"

namespace brightsi::hydraulics {
namespace {

constexpr double kPi = 3.14159265358979323846;

/// Shah & London fully developed laminar Nusselt numbers, H1 boundary
/// condition (four walls heated), indexed by aspect ratio min/max.
const numerics::PiecewiseLinearTable& nusselt_h1_table() {
  static const numerics::PiecewiseLinearTable table(
      {0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.7, 1.0},
      {8.235, 6.785, 5.738, 4.990, 4.472, 4.123, 3.740, 3.608});
  return table;
}

}  // namespace

RectangularDuct::RectangularDuct(double width_m, double height_m, double length_m)
    : width_m_(width_m), height_m_(height_m), length_m_(length_m) {
  ensure_positive(width_m, "duct width");
  ensure_positive(height_m, "duct height");
  ensure_positive(length_m, "duct length");
}

double RectangularDuct::aspect_ratio() const {
  return std::min(width_m_, height_m_) / std::max(width_m_, height_m_);
}

double RectangularDuct::friction_factor_reynolds() const {
  const double a = aspect_ratio();
  // Shah & London (1978) polynomial fit; Fanning friction factor basis.
  return 24.0 * (1.0 - 1.3553 * a + 1.9467 * a * a - 1.7012 * a * a * a +
                 0.9564 * a * a * a * a - 0.2537 * a * a * a * a * a);
}

double RectangularDuct::pressure_drop_pa(double dynamic_viscosity_pa_s,
                                         double mean_velocity_m_per_s) const {
  return pressure_gradient_pa_per_m(dynamic_viscosity_pa_s, mean_velocity_m_per_s) * length_m_;
}

double RectangularDuct::pressure_gradient_pa_per_m(double dynamic_viscosity_pa_s,
                                                   double mean_velocity_m_per_s) const {
  ensure_positive(dynamic_viscosity_pa_s, "dynamic viscosity");
  ensure_non_negative(mean_velocity_m_per_s, "mean velocity");
  const double dh = hydraulic_diameter();
  return 2.0 * friction_factor_reynolds() * dynamic_viscosity_pa_s * mean_velocity_m_per_s /
         (dh * dh);
}

double RectangularDuct::mean_velocity(double volumetric_flow_m3_per_s) const {
  ensure_non_negative(volumetric_flow_m3_per_s, "volumetric flow");
  return volumetric_flow_m3_per_s / cross_section_area();
}

double RectangularDuct::reynolds(double density_kg_per_m3, double dynamic_viscosity_pa_s,
                                 double mean_velocity_m_per_s) const {
  ensure_positive(density_kg_per_m3, "density");
  ensure_positive(dynamic_viscosity_pa_s, "dynamic viscosity");
  return density_kg_per_m3 * mean_velocity_m_per_s * hydraulic_diameter() /
         dynamic_viscosity_pa_s;
}

double RectangularDuct::nusselt_h1() const { return nusselt_h1_table()(aspect_ratio()); }

double RectangularDuct::hydraulic_conductance(double dynamic_viscosity_pa_s) const {
  ensure_positive(dynamic_viscosity_pa_s, "dynamic viscosity");
  const double dh = hydraulic_diameter();
  return cross_section_area() * dh * dh /
         (2.0 * friction_factor_reynolds() * dynamic_viscosity_pa_s * length_m_);
}

DuctVelocityProfile::DuctVelocityProfile(const RectangularDuct& duct, int series_terms)
    : half_width_(duct.width() / 2.0), half_height_(duct.height() / 2.0),
      terms_(series_terms) {
  ensure(series_terms >= 1, "DuctVelocityProfile needs at least one series term");

  // Pre-compute the depth-averaged series coefficients:
  //   ubar(y) ~ sum_i (-1)^((i-1)/2) / i^3 * [1 - (2a/(i pi b)) tanh(i pi b / 2a)]
  //             * cos(i pi y / 2a),   i odd.
  depth_avg_coeff_.reserve(static_cast<std::size_t>(terms_));
  double mean_raw = 0.0;
  for (int t = 0; t < terms_; ++t) {
    const int i = 2 * t + 1;
    const double arg = static_cast<double>(i) * kPi * half_height_ / (2.0 * half_width_);
    const double bracket = 1.0 - (2.0 * half_width_ /
                                  (static_cast<double>(i) * kPi * half_height_)) *
                                     std::tanh(arg);
    const double sign = (t % 2 == 0) ? 1.0 : -1.0;
    const double coeff = sign * bracket / (static_cast<double>(i) * i * i);
    depth_avg_coeff_.push_back(coeff);
    // Mean over y of coeff * cos(i pi y / 2a) on [-a, a]: coeff * 2 sign /(i pi)*2 ... :
    //   (1/2a) \int cos(i pi y / 2a) dy = (2/(i pi)) * (-1)^((i-1)/2)
    mean_raw += coeff * (2.0 / (static_cast<double>(i) * kPi)) * sign;
  }
  ensure(mean_raw > 0.0, "DuctVelocityProfile: degenerate series mean");
  normalization_ = 1.0 / mean_raw;
}

double DuctVelocityProfile::raw_depth_averaged(double y_centered) const {
  double sum = 0.0;
  for (int t = 0; t < terms_; ++t) {
    const int i = 2 * t + 1;
    const double k = static_cast<double>(i) * kPi / (2.0 * half_width_);
    sum += depth_avg_coeff_[static_cast<std::size_t>(t)] * std::cos(k * y_centered);
  }
  return sum;
}

double DuctVelocityProfile::depth_averaged(double y_m) const {
  ensure(y_m >= 0.0 && y_m <= 2.0 * half_width_, "DuctVelocityProfile: y outside duct");
  return std::max(0.0, raw_depth_averaged(y_m - half_width_)) * normalization_;
}

}  // namespace brightsi::hydraulics
