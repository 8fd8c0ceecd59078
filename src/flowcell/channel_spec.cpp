#include "flowcell/channel_spec.h"

#include <algorithm>
#include <cmath>

#include "numerics/contracts.h"

namespace brightsi::flowcell {

void CellGeometry::validate() const {
  ensure_positive(electrode_gap_m, "electrode gap");
  ensure_positive(channel_height_m, "channel height");
  ensure_positive(channel_length_m, "channel length");
  ensure_positive(electrode_area_factor, "electrode area factor");
  ensure_non_negative(series_resistance_ohm_m2, "series resistance");
  if (electrode_mode == ElectrodeMode::kFlowThrough) {
    ensure_positive(flow_through_mass_transfer_m_per_s, "flow-through mass transfer");
  }
}

CellGeometry kjeang2007_geometry() {
  CellGeometry g;
  g.electrode_gap_m = 2.0e-3;
  g.channel_height_m = 150e-6;
  g.channel_length_m = 33e-3;
  g.electrode_mode = ElectrodeMode::kPlanarWall;
  g.electrode_area_factor = 2.5;  // graphite-rod exposed surface vs flat wall
  // Rod contact + lateral current-path resistance of the experimental cell
  // (calibrated against the Fig. 3 slopes; the paper does not tabulate it).
  g.series_resistance_ohm_m2 = 1.2e-3;  // 12 ohm.cm^2
  g.validate();
  return g;
}

CellGeometry power7_channel_geometry() {
  CellGeometry g;
  g.electrode_gap_m = 200e-6;
  g.channel_height_m = 400e-6;
  g.channel_length_m = 22e-3;
  // Porous flow-through electrodes along the channel walls: required to
  // reach the Fig. 7 current levels; planar walls are transport-limited
  // far below them.
  g.electrode_mode = ElectrodeMode::kFlowThrough;
  g.electrode_area_factor = 1.0;        // kinetics on the projected-area basis
  g.series_resistance_ohm_m2 = 3.15e-5; // collector network, calibrated to 6 A @ 1 V
  g.flow_through_mass_transfer_m_per_s = 2e-3;
  g.validate();
  return g;
}

void ChannelOperatingConditions::validate() const {
  ensure_positive(volumetric_flow_m3_per_s, "volumetric flow");
  ensure_positive(inlet_temperature_k, "inlet temperature");
  ensure_non_negative(parasitic_current_density_a_per_m2, "parasitic current density");
  for (const double t : axial_temperature_k) {
    ensure_positive(t, "axial temperature sample");
  }
}

double ChannelOperatingConditions::temperature_at(double normalized_position) const {
  if (axial_temperature_k.empty()) {
    return inlet_temperature_k;
  }
  if (axial_temperature_k.size() == 1) {
    return axial_temperature_k.front();
  }
  const double s = std::clamp(normalized_position, 0.0, 1.0);
  const double pos = s * static_cast<double>(axial_temperature_k.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, axial_temperature_k.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return axial_temperature_k[lo] + frac * (axial_temperature_k[hi] - axial_temperature_k[lo]);
}

void FvmSettings::validate() const {
  ensure(transverse_cells >= 8, "FVM needs at least 8 transverse cells");
  ensure(axial_steps >= 4, "FVM needs at least 4 axial steps");
}

}  // namespace brightsi::flowcell
