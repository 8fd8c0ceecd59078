// Laminar flow in rectangular microchannels.
//
// Covers everything the paper's hydraulic statements need: hydraulic
// diameter, the Shah–London friction correlation f*Re(aspect), the
// Darcy–Weisbach pressure drop, fully developed laminar Nusselt numbers
// (H1 boundary condition) and the exact Poiseuille velocity profile series
// used by the co-laminar transport FVM.
#ifndef BRIGHTSI_HYDRAULICS_DUCT_H
#define BRIGHTSI_HYDRAULICS_DUCT_H

#include <vector>

namespace brightsi::hydraulics {

/// A straight rectangular duct. `width` is the electrode-gap direction (y)
/// in flow-cell usage; `height` is the etch depth (z); flow runs along
/// `length` (x).
class RectangularDuct {
 public:
  RectangularDuct(double width_m, double height_m, double length_m);

  [[nodiscard]] double width() const { return width_m_; }
  [[nodiscard]] double height() const { return height_m_; }
  [[nodiscard]] double length() const { return length_m_; }

  [[nodiscard]] double cross_section_area() const { return width_m_ * height_m_; }
  [[nodiscard]] double wetted_perimeter() const { return 2.0 * (width_m_ + height_m_); }
  [[nodiscard]] double hydraulic_diameter() const {
    return 4.0 * cross_section_area() / wetted_perimeter();
  }
  /// min(width, height) / max(width, height), in (0, 1].
  [[nodiscard]] double aspect_ratio() const;

  /// Fanning friction factor times Reynolds number for fully developed
  /// laminar flow (Shah & London polynomial; 14.23 for a square duct,
  /// 24 in the parallel-plate limit).
  [[nodiscard]] double friction_factor_reynolds() const;

  /// Fully developed pressure drop over `length`:
  /// dp = 2 (f Re) mu v L / Dh^2 (laminar Darcy–Weisbach).
  [[nodiscard]] double pressure_drop_pa(double dynamic_viscosity_pa_s,
                                        double mean_velocity_m_per_s) const;

  /// Pressure gradient dp/dx in Pa/m at the given viscosity and velocity.
  [[nodiscard]] double pressure_gradient_pa_per_m(double dynamic_viscosity_pa_s,
                                                  double mean_velocity_m_per_s) const;

  /// Mean velocity for a volumetric flow rate (m^3/s).
  [[nodiscard]] double mean_velocity(double volumetric_flow_m3_per_s) const;

  /// Re = rho v Dh / mu.
  [[nodiscard]] double reynolds(double density_kg_per_m3, double dynamic_viscosity_pa_s,
                                double mean_velocity_m_per_s) const;

  /// Fully developed laminar Nusselt number, four-wall H1 boundary
  /// condition, interpolated from the Shah & London table by aspect ratio.
  [[nodiscard]] double nusselt_h1() const;

  /// Laminar hydraulic conductance Q / dp = A Dh^2 / (2 fRe mu L).
  [[nodiscard]] double hydraulic_conductance(double dynamic_viscosity_pa_s) const;

 private:
  double width_m_;
  double height_m_;
  double length_m_;
};

/// Exact rectangular-duct Poiseuille profile (cosh/cos double series),
/// averaged over the duct depth and normalized so the cross-section mean
/// is 1. y is measured from one side wall: y in [0, width].
class DuctVelocityProfile {
 public:
  /// `series_terms` odd terms are used (51 is plenty for <1e-10 error at
  /// the aspect ratios of this project).
  explicit DuctVelocityProfile(const RectangularDuct& duct, int series_terms = 51);

  /// Depth-averaged profile (1/H) \int u dz / v_mean as a function of y.
  /// This is the 1-D profile the co-laminar FVM transports against.
  [[nodiscard]] double depth_averaged(double y_m) const;

 private:
  double half_width_;   // a: y in [-a, a] internally
  double half_height_;  // b: z in [-b, b] internally
  int terms_;
  double normalization_ = 1.0;          // converts raw series to mean-1 units
  std::vector<double> depth_avg_coeff_; // per odd term, for depth_averaged()

  [[nodiscard]] double raw_depth_averaged(double y_centered) const;
};

}  // namespace brightsi::hydraulics

#endif  // BRIGHTSI_HYDRAULICS_DUCT_H
