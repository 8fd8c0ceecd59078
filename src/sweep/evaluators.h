// Evaluators turn one resolved scenario into a row of named metrics. The
// three built-ins cover the repo's ablation workloads: the full
// electro-thermal co-simulation, the isothermal array design point (bench
// ablation_geometry) and the cache-rail integrity solve (bench
// ablation_vrm_placement).
#ifndef BRIGHTSI_SWEEP_EVALUATORS_H
#define BRIGHTSI_SWEEP_EVALUATORS_H

#include <functional>
#include <string>
#include <vector>

#include "core/system_config.h"
#include "sweep/system_cache.h"

namespace brightsi::sweep {

/// A metric extractor: `fn` returns one value per entry of `metrics`, in
/// order. It receives the resolved SystemConfig, the raw scenario (for
/// evaluator-consumed parameters like edge_taps_per_side) and the calling
/// worker's mutable state — the structure cache that lets consecutive
/// scenarios differing only in operating-point parameters reuse the
/// assembled thermal model and the solved cache rail.
struct SweepEvaluator {
  std::string name;
  std::vector<std::string> metrics;
  std::function<std::vector<double>(const core::SystemConfig&, const ScenarioSpec&,
                                    WorkerState&)>
      fn;
};

/// Full fixed-point co-simulation (IntegratedMpsocSystem::run). Metrics:
/// convergence, peak/coolant temperatures, supply operating point,
/// hydraulics, net power and the thermal current gain.
[[nodiscard]] SweepEvaluator cosim_evaluator();

/// Isothermal array design point at 1 V: current, deliverable power density
/// per electrode area, pressure drop, pumping power and net power — the
/// ablation_geometry bench columns.
[[nodiscard]] SweepEvaluator array_power_evaluator();

/// The array design point plus a steady conjugate thermal solve at the
/// scenario's operating point (worker's cached thermal model): the array
/// metrics extended with peak die and mean coolant-outlet temperature.
/// This is the oracle of the channel-geometry optimization study — net
/// power comparable to the array evaluator, temperatures available for
/// hard caps like T_peak <= 360 K.
[[nodiscard]] SweepEvaluator array_thermal_evaluator();

/// Cache-rail integrity for a VRM population: solves the PDN with either a
/// distributed tap grid (vrm_count_x x vrm_count_y) or, when the scenario
/// sets edge_taps_per_side, the conventional edge-fed baseline.
[[nodiscard]] SweepEvaluator rail_integrity_evaluator();

/// Full transient mission (core/run_mission) through the shared transient
/// engine: tank endurance, delivered energy, peak temperature and supply
/// feasibility. Mission knobs ride on evaluator-consumed scenario
/// parameters (tank_ml, mission_dt_s, initial_soc, workload_kind,
/// workload_repeats); the worker's thermal-model cache is reused across
/// scenarios that share thermal structure.
[[nodiscard]] SweepEvaluator mission_evaluator();

/// Full co-simulation of a (possibly multi-die) 3D stack with the
/// stack-level observables: die/channel-layer counts, peak and coolant
/// temperatures, net power, and the equal-pressure-drop flow split across
/// the cooling layers (bottom-layer and extreme fractions, so the column
/// set stays fixed while the layer count varies across scenarios).
[[nodiscard]] SweepEvaluator stack_evaluator();

/// Steady solve of a fleet rack (fleet/rack.h) built from the scenario's
/// evaluator-consumed rack knobs (rack_chips, rack_loops, rack_segments,
/// rack_hetero, rack_blocked, rack_flow_ml_min, rack_inlet_c,
/// coolant_temp_dep): fleet peak/outlet temperatures, the serial inlet
/// rise and its monotonicity, pump power, flow-fraction extremes across
/// the live chip branches, and the loop energy-balance residual.
[[nodiscard]] SweepEvaluator fleet_evaluator();

/// Staggered workload-trace replay across the rack (workload_kind /
/// workload_repeats / rack_stagger_s / rack_dt_s / rack_steps): transient
/// fleet peaks, mean pump power and integrated coolant heat pickup.
[[nodiscard]] SweepEvaluator fleet_replay_evaluator();

/// A built-in evaluator: its name, a one-line summary and its factory.
struct EvaluatorDescription {
  std::string name;
  std::string summary;
  SweepEvaluator (*make)();
};

/// Every built-in evaluator, in presentation order.
[[nodiscard]] const std::vector<EvaluatorDescription>& registered_evaluators();

/// Built-in evaluator by name; throws std::invalid_argument listing the
/// registered names on anything else.
[[nodiscard]] SweepEvaluator make_evaluator(const std::string& name);

}  // namespace brightsi::sweep

#endif  // BRIGHTSI_SWEEP_EVALUATORS_H
