// Executes every scenario of a SweepPlan through an execution backend
// (sweep/execution.h). Scenarios are independent (each builds its own
// system from the resolved config), so the result values are identical
// for any thread count — and, through the shard backend's result store,
// for any shard count — with results stored in plan order regardless of
// completion order. Per-scenario wall time is recorded separately from
// the result rows so CSV output stays byte-identical across runs.
//
// Each worker carries a WorkerState (sweep/system_cache.h) across its
// scenarios: consecutive scenarios that differ only in operating-point
// parameters reuse the assembled thermal model and the solved cache rail,
// and mission scenarios that differ only in electrochemical knobs replay
// one recorded thermal trajectory. Reuse never changes result bytes —
// sweep_test cross-checks rows against fresh workers at 1 and N threads.
#ifndef BRIGHTSI_SWEEP_RUNNER_H
#define BRIGHTSI_SWEEP_RUNNER_H

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "sweep/plan.h"
#include "sweep/system_cache.h"

namespace brightsi::sweep {

class ExecutionBackend;  // sweep/execution.h

struct ScenarioResult {
  std::string name;
  std::vector<std::pair<std::string, double>> overrides;
  std::vector<double> metrics;  ///< aligned with the evaluator's metric names
  bool failed = false;
  std::string error;          ///< exception message when failed
  double elapsed_s = 0.0;     ///< timing only; excluded from result rows
};

/// Work accounting of one execution backend, accumulated across calls.
struct ExecutionStats {
  long long scheduled = 0;      ///< rows handed to the backend
  long long evaluated = 0;      ///< fresh evaluator invocations
  long long store_hits = 0;     ///< rows filled from the result store
  long long leases_stolen = 0;  ///< orphaned leases reclaimed
  long long pending = 0;        ///< rows left for other shards / cut by row limit
  int model_builds = 0;         ///< thermal structure builds across workers
  int rail_solves = 0;          ///< cache-rail (Fig. 8) solves across workers
  int trajectory_hits = 0;      ///< mission trajectory-cache replays
};

struct SweepResult {
  std::string plan_name;
  std::string evaluator_name;
  std::vector<std::string> metric_names;
  std::vector<std::string> override_names;  ///< ordered union across scenarios
  std::vector<ScenarioResult> rows;         ///< in plan order
  int thread_count = 1;
  double wall_time_s = 0.0;
  std::string backend = "local";  ///< executing backend ("local", "shard", "merge")
  ExecutionStats exec;            ///< backend work accounting (timing-like; not emitted)

  [[nodiscard]] int failure_count() const;
  [[nodiscard]] double scenarios_per_second() const;
};

struct SweepOptions {
  /// Worker threads; 0 = hardware concurrency.
  int thread_count = 0;
};

/// The options' thread count with 0 resolved to hardware concurrency
/// (never less than 1). Shared by SweepRunner and the execution backends.
[[nodiscard]] int resolve_thread_count(const SweepOptions& options);

/// Ordered union of override names across the plan's scenarios (first
/// appearance wins) — the override column set of the result table.
[[nodiscard]] std::vector<std::string> collect_override_names(const SweepPlan& plan);

class SweepRunner {
 public:
  /// In-process execution (the local backend), one fresh worker pool per
  /// run() call.
  explicit SweepRunner(SweepOptions options = {});

  /// Execution through an injected backend (e.g. make_shard_backend);
  /// worker state persists in the backend across run() calls.
  explicit SweepRunner(std::shared_ptr<ExecutionBackend> backend);

  /// Runs every scenario of the plan. Per-scenario exceptions become failed
  /// rows (error message captured) rather than aborting the sweep.
  [[nodiscard]] SweepResult run(const SweepPlan& plan) const;

 private:
  SweepOptions options_;
  std::shared_ptr<ExecutionBackend> backend_;  ///< null = fresh local per run
};

/// Shortest decimal representation that parses back to exactly `value` —
/// the cell formatting of the sweep CSV/JSON emitters.
[[nodiscard]] std::string format_sweep_value(double value);

/// Header cells of the result table: scenario, override columns, metric
/// columns, error.
[[nodiscard]] std::vector<std::string> sweep_row_headers(const SweepResult& result);

/// Formatted cells of one result row, aligned with sweep_row_headers():
/// name, overrides (blank where unset), metrics (blank on failure), error.
[[nodiscard]] std::vector<std::string> format_sweep_row(const SweepResult& result,
                                                        const ScenarioResult& row);

/// Deterministic result rows: scenario name, override columns (blank where
/// a scenario does not set the parameter), metric columns, and an error
/// column. Byte-identical for any thread count.
void write_sweep_csv(std::ostream& os, const SweepResult& result);

/// Same rows as JSON records, wrapped with plan/evaluator metadata (which
/// excludes timing, keeping the emission deterministic).
void write_sweep_json(std::ostream& os, const SweepResult& result);

/// Per-scenario wall time plus the sweep totals (non-deterministic by
/// nature; kept separate from the result rows).
void write_sweep_timing_csv(std::ostream& os, const SweepResult& result);

}  // namespace brightsi::sweep

#endif  // BRIGHTSI_SWEEP_RUNNER_H
