// Depth-averaged finite-volume model of a co-laminar redox flow cell.
//
// This stands in for the paper's COMSOL model.
// The 3-D steady problem (Navier-Stokes + Nernst-Planck + Butler-Volmer,
// paper eqs. 6-12) reduces, at the channel Peclet numbers of the paper, to
// a parabolic transport problem marched along the flow direction:
//
//   u_bar(y) dC/dx = D(T(x)) d2C/dy2     for each redox species,
//
// with the exact rectangular-duct velocity profile depth-averaged over the
// channel height, Butler-Volmer/Nernst wall closure at both electrodes
// (wall_closure.h) and instantaneous annihilation of crossover species at
// the co-laminar interface. Each march step solves one tridiagonal system
// per species (backward Euler, unconditionally stable).
//
// Outputs: total current at a given cell voltage, axial current-density
// profile, outlet composition, crossover loss, fuel utilization and
// conservation diagnostics.
#ifndef BRIGHTSI_FLOWCELL_COLAMINAR_FVM_H
#define BRIGHTSI_FLOWCELL_COLAMINAR_FVM_H

#include <vector>

#include "electrochem/species.h"
#include "flowcell/channel_model.h"
#include "flowcell/channel_solution.h"
#include "flowcell/channel_spec.h"

namespace brightsi::flowcell {

/// Marching FVM for a single co-laminar channel with planar wall
/// electrodes. Requires geometry.electrode_mode == kPlanarWall.
class ColaminarChannelModel final : public ChannelModel {
 public:
  ColaminarChannelModel(CellGeometry geometry, electrochem::FlowCellChemistry chemistry,
                        FvmSettings settings = {});

  /// Solves the channel at a fixed cell voltage.
  [[nodiscard]] ChannelSolution solve_at_voltage(
      double cell_voltage_v, const ChannelOperatingConditions& conditions) const override;

  /// Nernst OCV at the inlet composition and temperature.
  [[nodiscard]] double open_circuit_voltage(
      const ChannelOperatingConditions& conditions) const override;

  [[nodiscard]] const CellGeometry& geometry() const override { return geometry_; }
  [[nodiscard]] const electrochem::FlowCellChemistry& chemistry() const override {
    return chemistry_;
  }
  [[nodiscard]] const FvmSettings& settings() const { return settings_; }

 private:
  CellGeometry geometry_;
  electrochem::FlowCellChemistry chemistry_;
  FvmSettings settings_;
  /// Normalized depth-averaged velocity at each transverse cell center,
  /// scaled so the discrete mean is exactly 1.
  std::vector<double> velocity_shape_;

  void build_velocity_shape();
};

}  // namespace brightsi::flowcell

#endif  // BRIGHTSI_FLOWCELL_COLAMINAR_FVM_H
