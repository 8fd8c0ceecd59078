// The paper's primary contribution as an executable artifact: the joint
// electro-thermal-electrical simulation of an MPSoC powered and cooled by
// an integrated microfluidic fuel-cell array.
//
// One `run()` performs the fixed-point loop:
//   power map -> thermal solve -> per-channel coolant temperature profiles
//   -> non-isothermal array polarization -> supply operating point against
//   the VRM input demand -> convergence check.
// The loop couples in both directions: chip heat warms the electrolyte,
// which (Arrhenius kinetics + Stokes-Einstein diffusivity + conductivity)
// changes the generated power — the effect behind the paper's 4 % / 23 %
// temperature-sensitivity findings.
//
// The cache-rail IR-drop map (Fig. 8) sits outside the loop: it depends
// only on the cache loads and the VRM tap grid, never on the coolant, so
// each system holds one solved rail (solve_cache_rail) and every run()
// reports it.
#ifndef BRIGHTSI_CORE_COSIM_H
#define BRIGHTSI_CORE_COSIM_H

#include <memory>
#include <vector>

#include "core/system_config.h"
#include "thermal/solve_context.h"

namespace brightsi::core {

/// Supply-side operating point of the flow-cell bus.
struct SupplyOperatingPoint {
  bool feasible = false;        ///< array can source the VRM input demand
  double bus_voltage_v = 0.0;   ///< cell voltage of the (parallel) array
  double array_current_a = 0.0;
  double array_power_w = 0.0;   ///< = VRM input power when feasible
  double vrm_output_power_w = 0.0;
  double vrm_loss_w = 0.0;
  bool vrm_window_ok = false;   ///< bus voltage within the converter window
};

/// Flow and heat report of one microchannel layer of the stack (the pump
/// total splits across parallel layers at equal pressure drop).
struct ChannelLayerReport {
  double flow_ml_min = 0.0;
  double fraction = 1.0;         ///< share of the pump total
  double heat_absorbed_w = 0.0;
  double outlet_mean_c = 0.0;
};

/// Complete co-simulation result.
struct CoSimReport {
  int iterations = 0;
  bool converged = false;

  thermal::ThermalSolution thermal;
  double peak_temperature_c = 0.0;
  double mean_coolant_outlet_c = 0.0;

  /// Per-channel-layer flow split, bottom to top (one entry for the paper's
  /// single-die package; one per cooling layer for 3D stacks).
  std::vector<ChannelLayerReport> layer_flows;
  int die_count = 1;

  SupplyOperatingPoint supply;
  pdn::PowerGridSolution grid;

  /// Hydraulics at the configured flow.
  double mean_velocity_m_per_s = 0.0;
  double pressure_drop_bar = 0.0;
  double pressure_gradient_bar_per_cm = 0.0;
  double pumping_power_w = 0.0;

  /// Generated electrical power minus pumping power (the paper's headline
  /// energy balance: 6 W generated vs 4.4 W pumping).
  double net_power_w = 0.0;

  /// Array current at the rail-equivalent fixed potential, isothermal vs
  /// thermally-coupled — the paper's "up to 4 %" metric.
  double isothermal_current_a = 0.0;
  double coupled_current_a = 0.0;
  double thermal_current_gain = 0.0;  ///< coupled/isothermal - 1

  /// Thermal solver work spent inside this run (solve-context stats delta):
  /// the observable behind the assemble-once / warm-start speedup.
  int thermal_solves = 0;
  long long thermal_iterations = 0;          ///< BiCGSTAB iterations, summed
  double thermal_assembly_time_s = 0.0;      ///< coefficient fill + CSR refill
  double thermal_setup_time_s = 0.0;         ///< ILU(0) factorization
  double thermal_solve_time_s = 0.0;         ///< time iterating inside the Krylov solver
};

/// The solved cache rail of one configuration, with the inputs it read:
/// the mesh, the power densities whose cache blocks load it, and the VRM
/// tap grid. Shared read-only between systems whose configs match.
struct CacheRail {
  pdn::PowerGridSpec grid_spec;
  chip::Power7PowerSpec power_spec;
  int vrm_count_x = 0;
  int vrm_count_y = 0;
  double vrm_set_point_v = 0.0;
  double vrm_output_resistance_ohm = 0.0;
  pdn::PowerGridSolution solution;

  /// True when `config` would solve this exact rail: every input above
  /// compares equal. The one key check of every rail reuse.
  [[nodiscard]] bool matches(const SystemConfig& config) const;
};

/// Solves the cache-rail IR-drop map (Fig. 8) of `config`: the primary
/// die's cache loads against its calibrated VRM tap grid.
[[nodiscard]] std::shared_ptr<const CacheRail> solve_cache_rail(const SystemConfig& config);

class IntegratedMpsocSystem {
 public:
  explicit IntegratedMpsocSystem(SystemConfig config);

  /// Builds the system around an already-assembled thermal model and an
  /// already-solved cache rail (shared across systems whose scenarios
  /// differ only in operating-point parameters — the sweep structure
  /// cache). The model must match the config (thermal_model_matches) and
  /// the rail must match the config (CacheRail::matches); a null pointer
  /// builds or solves its own.
  IntegratedMpsocSystem(SystemConfig config,
                        std::shared_ptr<const thermal::ThermalModel> thermal_model,
                        std::shared_ptr<const CacheRail> cache_rail);

  /// Runs the fixed-point co-simulation at the configured operating point.
  /// One thermal solve context is carried across the fixed-point
  /// iterations (warm starts), and reset on entry so repeated runs are
  /// reproducible. Deterministic, but not reentrant: concurrent run()
  /// calls on one instance must be externally serialized (sweep workers
  /// each own their system).
  [[nodiscard]] CoSimReport run() const;

  /// Array current at `cell_voltage_v` with the thermally-coupled channel
  /// profiles (grouped evaluation).
  [[nodiscard]] double array_current_with_profiles(
      double cell_voltage_v, const std::vector<std::vector<double>>& group_profiles) const;

  [[nodiscard]] const SystemConfig& config() const { return config_; }
  /// The primary (bottom) die's floorplan.
  [[nodiscard]] const chip::Floorplan& floorplan() const { return floorplans_.front(); }
  /// All die floorplans, bottom to top (size = stack heat-source layers).
  [[nodiscard]] const std::vector<chip::Floorplan>& floorplans() const { return floorplans_; }
  [[nodiscard]] const thermal::ThermalModel& thermal_model() const { return *thermal_model_; }
  [[nodiscard]] const flowcell::FlowCellArray& array() const { return *array_; }

  /// Averages the 88 per-channel profiles into config.channel_groups
  /// group profiles.
  [[nodiscard]] std::vector<std::vector<double>> group_channel_profiles(
      const std::vector<std::vector<double>>& per_channel) const;

 private:
  SystemConfig config_;
  std::vector<chip::Floorplan> floorplans_;  ///< [0] = primary die
  /// Array spec actually driving the electrochemistry: the configured spec
  /// with total flow scaled to the bottom channel layer's share. Bitwise
  /// the configured spec for single-layer stacks.
  flowcell::ArraySpec electro_array_spec_;
  std::shared_ptr<const thermal::ThermalModel> thermal_model_;
  /// Mutable solve state behind the const run(): reset per run, so the
  /// cache/warm-start machinery never leaks across runs.
  mutable std::unique_ptr<thermal::ThermalSolveContext> thermal_context_;
  std::unique_ptr<flowcell::FlowCellArray> array_;
  std::shared_ptr<const CacheRail> cache_rail_;

  [[nodiscard]] SupplyOperatingPoint solve_supply(
      double vrm_output_power_w,
      const std::vector<std::vector<double>>& group_profiles) const;
};

}  // namespace brightsi::core

#endif  // BRIGHTSI_CORE_COSIM_H
