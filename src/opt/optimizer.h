// Deterministic derivative-free design-space optimizer on top of the sweep
// engine. A Study names the search space (registered sweep parameters with
// bounds) and the ObjectiveSpec; optimize() spends its budget through the
// evaluation archive (opt/archive.h), a batch-parallel objective oracle
// shared with optimize_nsga2: successive axis-grid refinement around the
// incumbent (each axis pass is one batched generation), followed by an
// optional Nelder–Mead polish of the continuous parameters with whatever
// budget remains.
//
// Everything is seed-free deterministic: candidate generation depends only
// on bounds and previously observed metric values, candidates are archived
// in submission order, ties break toward the earlier evaluation — so the
// emitted CSV/JSON is byte-identical for any thread count, mirroring the
// sweep engine's contract.
#ifndef BRIGHTSI_OPT_OPTIMIZER_H
#define BRIGHTSI_OPT_OPTIMIZER_H

#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "opt/objective.h"
#include "sweep/runner.h"

namespace brightsi::opt {

/// One search dimension: a registered sweep parameter with inclusive
/// bounds. `integer` snaps every candidate to the nearest whole value
/// (tap counts, channel counts).
struct StudyParameter {
  std::string param;
  double lower = 0.0;
  double upper = 0.0;
  bool integer = false;
};

/// A named optimization problem over the sweep machinery.
struct Study {
  std::string name;
  core::SystemConfig base;
  sweep::SweepEvaluator evaluator;
  ObjectiveSpec objective;
  std::vector<StudyParameter> parameters;
  /// Overrides stamped onto every candidate before its searched parameters
  /// (a searched parameter with the same name wins), e.g. rack_topology's
  /// temperature-dependent coolant. Candidate names are derived from the
  /// searched parameters only.
  std::vector<std::pair<std::string, double>> fixed;

  /// Throws std::invalid_argument on an empty parameter set, an
  /// unregistered parameter, unordered bounds, or an objective that does
  /// not resolve against the evaluator's metrics.
  void validate() const;
};

/// What both search policies (optimize, optimize_nsga2) share: the
/// evaluation budget and where candidates run.
struct SearchOptions {
  int budget = 64;           ///< max evaluator invocations (hard cap)
  int thread_count = 0;      ///< batch workers; 0 = hardware concurrency
  /// Execution backend (sweep/execution.h). Null = the in-process local
  /// backend from thread_count; a shard backend gives the study a
  /// persistent on-disk result store, so a re-run (or a widened budget)
  /// skips already-evaluated candidates.
  std::shared_ptr<sweep::ExecutionBackend> backend;
};

struct OptimizerOptions : SearchOptions {
  int axis_points = 3;       ///< samples per axis per refinement pass (>= 2)
  bool nelder_mead = true;   ///< polish continuous parameters with leftover budget
};

/// The archive of one optimization run. `archive` holds every evaluated
/// candidate in evaluation order, in the sweep result-row format (so the
/// sweep CSV/JSON writers apply to it directly).
struct OptResult {
  std::string study_name;
  std::string objective_description;
  sweep::SweepResult archive;
  std::vector<double> scores;       ///< per row; -inf when failed or infeasible
  std::vector<bool> feasible;       ///< per row (false when the evaluation failed)
  int best_index = -1;              ///< archive row of the incumbent; -1 = none feasible
  std::vector<int> pareto_indices;  ///< non-dominated rows, ascending in the
                                    ///< maximized metric; empty when no pair configured
  int passes = 0;                   ///< refinement passes executed
  int polish_steps = 0;             ///< Nelder–Mead iterations executed
  std::string algo = "grid";        ///< producing algorithm ("grid", "nsga2")
  int generations = 0;              ///< evolutionary generations (nsga2 only)
  long long surrogate_candidates = 0;  ///< offspring proposed to the pre-screen
  long long surrogate_screened = 0;    ///< offspring the pre-screen rejected

  [[nodiscard]] const sweep::ScenarioResult* best() const;
  [[nodiscard]] long long evaluations() const {
    return static_cast<long long>(archive.rows.size());
  }
};

/// Runs the optimizer. Throws std::invalid_argument on an invalid study or
/// a non-positive budget.
[[nodiscard]] OptResult optimize(const Study& study, const OptimizerOptions& options = {});

/// Clamps `point` to the study's bounds, snaps integer parameters and
/// canonicalizes -0.0 to +0.0 — the coordinate normal form shared by both
/// optimizers, so exact-coordinate dedup, candidate names and the store's
/// content hash all agree on one representation per design.
[[nodiscard]] std::vector<double> snap_study_point(const Study& study,
                                                   std::vector<double> point);

/// The ScenarioSpec of one candidate: the study's fixed overrides, then
/// the searched parameters (which win on collision). The name derives from
/// the searched parameters only, so rows stay byte-comparable across runs
/// that differ in fixed overrides.
[[nodiscard]] sweep::ScenarioSpec make_candidate_spec(const Study& study,
                                                      const std::vector<double>& point);

/// 2-objective non-dominated filter over (maximize metrics[max_index],
/// minimize metrics[min_index]) of the given rows; returns the surviving
/// indices of `row_indices`, sorted ascending by the maximized metric
/// (ties by archive order). Exposed for tests.
[[nodiscard]] std::vector<int> pareto_front(const sweep::SweepResult& archive,
                                            const std::vector<int>& row_indices,
                                            int max_index, int min_index);

/// Archive rows in the sweep CSV format, extended with score / feasible /
/// incumbent / Pareto-membership columns. Byte-identical for any thread
/// count.
void write_opt_csv(std::ostream& os, const OptResult& result);

/// The Pareto-front rows only, in exactly the sweep CSV row format.
void write_pareto_csv(std::ostream& os, const OptResult& result);

/// Study metadata, the best design, the Pareto front and the full archive
/// as one JSON document (timing excluded; deterministic).
void write_opt_json(std::ostream& os, const OptResult& result);

}  // namespace brightsi::opt

#endif  // BRIGHTSI_OPT_OPTIMIZER_H
