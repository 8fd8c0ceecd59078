// Per-worker reuse of expensively-assembled model structure across the
// scenarios of a sweep. Scenarios that differ only in operating-point
// parameters (flow, inlet temperature, power density, VRM electrical
// settings) share one assembled ThermalModel — grid build plus operator
// sparsity pattern — keyed by the model's own inputs
// (core::thermal_model_matches).
//
// The solved cache rail is reused the same way, keyed by the rail's own
// inputs (core::CacheRail::matches): scenarios that vary only the coolant
// share one rail solve.
//
// Result rows are byte-identical to those of a fresh worker (sweep_test
// proves it): a shared model or rail is bitwise the one the scenario would
// have built itself, and IntegratedMpsocSystem::run() carries no state
// across runs.
#ifndef BRIGHTSI_SWEEP_SYSTEM_CACHE_H
#define BRIGHTSI_SWEEP_SYSTEM_CACHE_H

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "core/cosim.h"
#include "core/mission.h"
#include "core/system_config.h"
#include "sweep/scenario.h"

namespace brightsi::sweep {

/// Caches the most recently built thermal model. Single-threaded — one
/// instance per worker thread — and intentionally depth-1: plans emit
/// scenarios with equal structure adjacently (grids vary the last axis
/// fastest), so one slot already captures nearly all reuse.
class ThermalModelCache {
 public:
  /// The assembled thermal model for `config`: the cached one when it
  /// matches (core::thermal_model_matches), otherwise a fresh build (which
  /// replaces the cache slot). The scenario is not read: the resolved
  /// config holds every model input.
  [[nodiscard]] std::shared_ptr<const thermal::ThermalModel> model_for(
      const core::SystemConfig& config, const ScenarioSpec& /*scenario*/);

  /// Models built so far — lets tests assert reuse actually happened.
  [[nodiscard]] int build_count() const { return build_count_; }

 private:
  std::shared_ptr<const thermal::ThermalModel> model_;
  int build_count_ = 0;
};

/// Caches the most recently solved cache rail. Single-threaded — one
/// instance per worker thread — and depth-1 like ThermalModelCache: plans
/// keep the rail's inputs fixed over whole runs of adjacent scenarios.
class RailCache {
 public:
  /// The solved rail for `config`: the cached one when it matches
  /// (core::CacheRail::matches), otherwise a fresh solve (which replaces
  /// the cache slot).
  [[nodiscard]] std::shared_ptr<const core::CacheRail> rail_for(const core::SystemConfig& config);

  /// Rails solved so far — lets tests assert reuse actually happened.
  [[nodiscard]] int solve_count() const { return solve_count_; }

 private:
  std::shared_ptr<const core::CacheRail> rail_;
  int solve_count_ = 0;
};

/// Caches recorded mission thermal trajectories keyed by the scenario's
/// mission-thermal-relevant overrides (sweep/scenario_hash.h's
/// mission_trajectory_key). Scenarios that differ only in electrochemical
/// knobs (tank size, initial SOC — ParameterInfo::mission_thermal_invariant)
/// replay one recorded trajectory instead of re-running the transient
/// thermal solve, which dominates mission cost.
///
/// Single-threaded, one instance per worker. A full map rather than a
/// depth-1 slot: mission plans put the electrochemical axis outermost, so
/// scenarios sharing a trajectory are far apart in plan order. The key
/// holds overrides only, so the entries are valid for one base config:
/// WorkerState::serve clears them when the worker's base changes.
class MissionTrajectoryCache {
 public:
  /// The recorded trajectory for `key`, or nullptr when absent. A hit is
  /// counted — lets tests assert replays actually happened.
  [[nodiscard]] const core::MissionThermalTrajectory* find(const std::string& key);

  /// Stores a recorded trajectory.
  void insert(const std::string& key, core::MissionThermalTrajectory trajectory);

  /// Drops every recorded trajectory; the hit count stays.
  void clear() { trajectories_.clear(); }

  [[nodiscard]] int hit_count() const { return hit_count_; }
  [[nodiscard]] std::size_t size() const { return trajectories_.size(); }

 private:
  std::map<std::string, core::MissionThermalTrajectory> trajectories_;
  int hit_count_ = 0;
};

/// Mutable per-worker state handed to every evaluator invocation. Owned by
/// an execution backend, which may keep it across runs and bases; never
/// shared between threads.
struct WorkerState {
  ThermalModelCache thermal_models;
  RailCache rails;
  MissionTrajectoryCache mission_trajectories;

  /// Points the worker at the base config of its next scenario
  /// (evaluate_scenario calls it per row). A base unequal to the last one
  /// clears the recorded trajectories; the model and rail caches key on
  /// the resolved config and need nothing.
  void serve(const core::SystemConfig& base);

 private:
  std::optional<core::SystemConfig> base_;
};

}  // namespace brightsi::sweep

#endif  // BRIGHTSI_SWEEP_SYSTEM_CACHE_H
