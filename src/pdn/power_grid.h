// On-chip power distribution network (PDN) model: the resistive mesh of the
// cache rail that the microfluidic supply feeds through in-package VRMs
// (paper Section III-A, Fig. 5/6/8).
//
// Nodal analysis on a uniform nx-by-ny mesh over the die: every edge
// carries the effective rail resistance (all metal layers lumped into one
// sheet), load blocks stamp current sinks at their nodes, and VRM outputs
// are Thevenin sources (set-point voltage behind an output resistance).
// The resulting SPD system G v = i is solved by ILU(0)-preconditioned CG.
#ifndef BRIGHTSI_PDN_POWER_GRID_H
#define BRIGHTSI_PDN_POWER_GRID_H

#include <functional>
#include <vector>

#include "chip/floorplan.h"
#include "numerics/grid.h"
#include "numerics/linear_solvers.h"

namespace brightsi::pdn {

/// A regulated supply injection point on the mesh.
struct VrmTap {
  double x_m = 0.0;           ///< die coordinates of the output node
  double y_m = 0.0;
  double set_point_v = 1.0;   ///< regulated output voltage
  double output_resistance_ohm = 1e-3;
};

/// Mesh + electrical parameters of one rail.
struct PowerGridSpec {
  int nodes_x = 107;  ///< ~250 um pitch over 26.55 mm
  int nodes_y = 86;
  /// Effective sheet resistance of the rail metallization (ohm/square).
  /// The cache rail of the paper is clearly a thin secondary rail: the
  /// Fig. 8 window (0.96-0.995 V at ~5 A) calibrates to ~0.1 ohm/sq with a
  /// 4x4 tap grid at 25 mohm each. (A primary core rail on a full metal
  /// stack would sit at 1-3 mohm/sq.)
  double sheet_resistance_ohm_per_sq = 0.10;
  /// Nominal rail voltage used to convert block power to current sinks.
  double nominal_voltage_v = 1.0;

  void validate() const;

  friend bool operator==(const PowerGridSpec&, const PowerGridSpec&) = default;
};

/// Result of a rail solve.
struct PowerGridSolution {
  numerics::Grid2<double> node_voltage_v;
  double min_voltage_v = 0.0;
  double max_voltage_v = 0.0;
  double mean_voltage_v = 0.0;
  double total_load_current_a = 0.0;   ///< sum of sink currents drawn
  double total_supply_current_a = 0.0; ///< sum of VRM currents delivered
  double worst_drop_v = 0.0;           ///< max set-point minus min node voltage
  double ohmic_loss_w = 0.0;           ///< dissipated in the mesh + VRM output R
  numerics::SolverReport solver_report;
};

class PowerGrid {
 public:
  /// Mesh over the floorplan's die outline. `load_filter` selects the
  /// blocks this rail feeds (default: the L2/L3 caches, as in the paper).
  PowerGrid(PowerGridSpec spec, const chip::Floorplan& floorplan,
            std::function<bool(const chip::Block&)> load_filter = {});

  /// Solves the rail with the given VRM taps. Loads are constant-current
  /// sinks I = P_block / nominal_voltage (the paper's 5 A at 1 V), split
  /// over the nodes each block covers.
  [[nodiscard]] PowerGridSolution solve(const std::vector<VrmTap>& taps) const;

  [[nodiscard]] const PowerGridSpec& spec() const { return spec_; }

 private:
  PowerGridSpec spec_;
  double die_width_m_;
  double die_height_m_;
  numerics::Grid2<double> load_current_a_;  ///< per-node sink at nominal V

  [[nodiscard]] int nearest_node_x(double x_m) const;
  [[nodiscard]] int nearest_node_y(double y_m) const;
};

/// Evenly spaced grid of `count_x` x `count_y` VRM taps over the die (the
/// in-package interposer arrangement of Fig. 5).
[[nodiscard]] std::vector<VrmTap> make_vrm_grid(int count_x, int count_y, double die_width_m,
                                                double die_height_m, double set_point_v,
                                                double output_resistance_ohm);

/// Conventional baseline: taps along the die edges only (package C4 rings),
/// emulating off-chip supply entry.
[[nodiscard]] std::vector<VrmTap> make_edge_taps(int count_per_edge, double die_width_m,
                                                 double die_height_m, double set_point_v,
                                                 double output_resistance_ohm);

}  // namespace brightsi::pdn

#endif  // BRIGHTSI_PDN_POWER_GRID_H
