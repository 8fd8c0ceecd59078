// The execution seam under SweepRunner::run and the optimizers' evaluation
// archive (opt/archive.h): a backend turns (base config, evaluator,
// scenario list) into result rows in scenario order.
//
//   local  — the in-process worker pool (the historical behaviour): one
//            persistent WorkerState per thread, rows byte-identical at any
//            thread count.
//   shard  — the local pool wrapped in a content-addressed on-disk result
//            store (sweep/result_store.h): rows already stored are filled
//            without evaluation; fresh rows owned by this shard
//            (hash mod shard_count) are claimed via the lease protocol,
//            evaluated and appended (per-row checkpoint); orphaned leases
//            of other shards are stolen; everything else is left pending
//            for its owner. Separate processes/hosts pointed at one store
//            directory cooperate and resume interrupted sweeps.
//
// The determinism contract is the repo's standing invariant extended one
// level up: because evaluation is a pure function of (base, scenario), the
// union of stored rows — and therefore the merged CSV/JSON — is
// byte-identical at any shard count x thread count, including after a
// kill-and-resume cycle.
#ifndef BRIGHTSI_SWEEP_EXECUTION_H
#define BRIGHTSI_SWEEP_EXECUTION_H

#include <memory>
#include <string>
#include <vector>

#include "sweep/plan.h"
#include "sweep/runner.h"

namespace brightsi::sweep {

// ExecutionStats lives in sweep/runner.h (SweepResult embeds it).

class ExecutionBackend {
 public:
  virtual ~ExecutionBackend() = default;

  [[nodiscard]] virtual const char* name() const = 0;
  [[nodiscard]] virtual int thread_count() const = 0;

  /// Evaluates (or resolves from the store) every scenario, writing
  /// `rows` in scenario order. Per-scenario exceptions become failed rows.
  /// Worker state persists across calls, so successive optimizer
  /// generations keep their structure caches warm.
  virtual void execute(const core::SystemConfig& base, const SweepEvaluator& evaluator,
                       const std::vector<ScenarioSpec>& scenarios,
                       std::vector<ScenarioResult>& rows) = 0;

  [[nodiscard]] virtual ExecutionStats stats() const = 0;
};

/// The in-process thread pool (thread count from `options`).
[[nodiscard]] std::unique_ptr<ExecutionBackend> make_local_backend(SweepOptions options = {});

struct ShardOptions {
  std::string store_dir;        ///< result-store directory (required)
  std::string scope;            ///< plan/study name the store is keyed to
  int shard_index = 0;          ///< this instance's shard, in [0, shard_count)
  int shard_count = 1;
  /// A lease older than this is considered orphaned (holder crashed) and
  /// may be stolen by any shard.
  double lease_timeout_s = 60.0;
  /// Stop after this many fresh evaluations (< 0 = unlimited). Row-limit
  /// injection: simulates a killed sweep for resume tests without
  /// touching signal handling.
  long long row_limit = -1;
  SweepOptions local;           ///< the worker pool under the shard logic
};

/// The shard backend. Throws on invalid shard bounds or an empty
/// store_dir; store scope validation happens on first execute() (when the
/// evaluator is known).
[[nodiscard]] std::unique_ptr<ExecutionBackend> make_shard_backend(ShardOptions options);

/// Merges a store back into canonical plan order: every scenario of
/// `plan` resolved against the store at `store_dir` (which must exist and
/// match the plan's scope). Missing rows throw unless `allow_missing`,
/// in which case they become pending rows. The returned result feeds the
/// standard CSV/JSON writers, byte-identical to an uninterrupted
/// single-process run — this is tools/brightsi_merge.
[[nodiscard]] SweepResult assemble_from_store(const SweepPlan& plan,
                                              const std::string& store_dir,
                                              bool allow_missing = false);

/// Evaluates one scenario against `base` — the shared per-row body of
/// every backend (exceptions become a failed row; timing recorded). Points
/// `worker` at `base` first (WorkerState::serve).
[[nodiscard]] ScenarioResult evaluate_scenario(const core::SystemConfig& base,
                                               const SweepEvaluator& evaluator,
                                               const ScenarioSpec& scenario,
                                               WorkerState& worker);

}  // namespace brightsi::sweep

#endif  // BRIGHTSI_SWEEP_EXECUTION_H
