// Pumping power (paper Section III-B): P = dp * Vdot / eta_p with the 50 %
// pump efficiency the paper assumes.
#ifndef BRIGHTSI_HYDRAULICS_PUMP_H
#define BRIGHTSI_HYDRAULICS_PUMP_H

namespace brightsi::hydraulics {

/// Hydraulic pumping power in W for a pressure rise `delta_p` (Pa) at flow
/// `volumetric_flow` (m^3/s) with pump efficiency in (0, 1].
[[nodiscard]] double pumping_power_w(double delta_p_pa, double volumetric_flow_m3_per_s,
                                     double pump_efficiency);

}  // namespace brightsi::hydraulics

#endif  // BRIGHTSI_HYDRAULICS_PUMP_H
