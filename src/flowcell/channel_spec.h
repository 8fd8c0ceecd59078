// Geometry and operating conditions of one co-laminar flow-cell channel.
//
// The abstraction (paper Fig. 2): fuel (anolyte) and oxidant (catholyte)
// enter side by side and flow down the channel; the anode wall is at y = 0,
// the cathode wall at y = gap; the co-laminar interface sits at y = gap/2.
// The electrode area seen by the reaction is length x height, optionally
// multiplied by `electrode_area_factor` for non-planar electrodes (the
// validation cell of Kjeang 2007 uses graphite rods whose exposed surface
// exceeds the flat side-wall area).
#ifndef BRIGHTSI_FLOWCELL_CHANNEL_SPEC_H
#define BRIGHTSI_FLOWCELL_CHANNEL_SPEC_H

#include <vector>

#include "hydraulics/duct.h"

namespace brightsi::flowcell {

/// Electrode construction of the cell.
enum class ElectrodeMode {
  /// Solid electrode walls; species reach them by transverse diffusion
  /// (Leveque-type transport limit). The validation cell of Fig. 3.
  kPlanarWall,
  /// Porous flow-through electrodes: the stream passes through the
  /// electrode volume, so transport is utilization-limited instead of
  /// boundary-layer-limited. This is the only electrode construction that
  /// reaches the paper's Fig. 7 array magnitudes (tens of amperes) and
  /// matches the high-power flow-through literature the paper cites ([15],
  /// Lee et al. 2013).
  kFlowThrough,
};

/// Channel geometry. Widths/heights/lengths in meters.
struct CellGeometry {
  double electrode_gap_m = 0.0;    ///< anode-to-cathode distance (channel width)
  double channel_height_m = 0.0;   ///< etch depth (electrode height)
  double channel_length_m = 0.0;   ///< flow length
  double electrode_area_factor = 1.0;  ///< true-to-projected electrode area ratio
  ElectrodeMode electrode_mode = ElectrodeMode::kPlanarWall;
  /// Extra series resistance per projected electrode area (ohm.m^2) on top
  /// of the plain gap/sigma term: porous-electrode ionic paths, lateral
  /// electrolyte paths, contacts.
  double series_resistance_ohm_m2 = 0.0;
  /// When true (default) the series resistance is ionic and scales with
  /// the electrolyte conductivity law sigma(T) — the dominant resistance
  /// in membrane-less flow cells is electrolytic, which is what makes the
  /// generated power rise when the coolant runs hot (paper Section III-B).
  bool series_resistance_is_ionic = true;
  /// Effective mass-transfer coefficient of flow-through electrodes
  /// (m/s); only used in kFlowThrough mode.
  double flow_through_mass_transfer_m_per_s = 2e-3;

  /// Projected electrode area (per electrode): length x height.
  [[nodiscard]] double projected_electrode_area_m2() const {
    return channel_length_m * channel_height_m;
  }
  /// Flow cross-section gap x height.
  [[nodiscard]] double cross_section_area_m2() const {
    return electrode_gap_m * channel_height_m;
  }
  /// Equivalent hydraulic duct (width = electrode gap).
  [[nodiscard]] hydraulics::RectangularDuct duct() const {
    return hydraulics::RectangularDuct(electrode_gap_m, channel_height_m, channel_length_m);
  }

  void validate() const;

  friend bool operator==(const CellGeometry&, const CellGeometry&) = default;
};

/// Paper Table I validation-cell geometry (Kjeang 2007): 33 mm x 2 mm x
/// 150 um. The area factor accounts for the cylindrical graphite-rod
/// electrodes exposing more surface than a flat 150 um side wall
/// (calibrated against the Fig. 3 reference curves).
[[nodiscard]] CellGeometry kjeang2007_geometry();

/// Paper Table II array-channel geometry: 22 mm long, 200 um electrode gap,
/// 400 um height.
[[nodiscard]] CellGeometry power7_channel_geometry();

/// Per-channel operating conditions.
struct ChannelOperatingConditions {
  /// Total volumetric flow through the channel (both streams), m^3/s.
  double volumetric_flow_m3_per_s = 0.0;
  double inlet_temperature_k = 300.0;
  /// Optional axial fluid temperature profile (uniformly sampled over the
  /// channel length, inlet to outlet). Empty means isothermal at
  /// `inlet_temperature_k`. Produced by the thermal model in co-simulation.
  std::vector<double> axial_temperature_k;
  /// Internal self-discharge (crossover/mixed-potential) current density in
  /// A/m^2 of projected electrode area; both electrode reactions run this
  /// much faster than the external current. Zero disables.
  double parasitic_current_density_a_per_m2 = 0.0;

  void validate() const;

  /// Temperature at normalized axial position s in [0, 1].
  [[nodiscard]] double temperature_at(double normalized_position) const;
};

/// Discretization controls for the marching FVM.
struct FvmSettings {
  int transverse_cells = 120;  ///< cells across the electrode gap
  int axial_steps = 200;       ///< implicit marching steps along the channel
  void validate() const;

  friend bool operator==(const FvmSettings&, const FvmSettings&) = default;
};

}  // namespace brightsi::flowcell

#endif  // BRIGHTSI_FLOWCELL_CHANNEL_SPEC_H
