// The evaluation archive both search policies spend their budget through:
// optimize (opt/optimizer.h) and optimize_nsga2 (opt/nsga2.h) only propose
// candidate points. The archive dedups them on exact coordinates, enforces
// the hard budget cap, evaluates each batch in one ExecutionBackend::execute
// call and appends the rows in submission order, replacing the incumbent
// only on strict improvement. Nothing depends on completion order, so the
// archive is byte-identical for any thread count, and through a shard
// backend a search resumes from its result store like a sweep.
#ifndef BRIGHTSI_OPT_ARCHIVE_H
#define BRIGHTSI_OPT_ARCHIVE_H

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "opt/optimizer.h"

namespace brightsi::opt {

class EvaluationArchive {
 public:
  /// Throws std::invalid_argument on an invalid study or a budget < 1. A
  /// null options.backend selects a local pool from thread_count; `algo`
  /// names the search policy in the result.
  EvaluationArchive(const Study& study, const SearchOptions& options, std::string algo);

  /// Evaluates the not-yet-archived prefix of `candidates` that fits the
  /// remaining budget.
  void evaluate(const std::vector<std::vector<double>>& candidates);

  [[nodiscard]] const Study& study() const { return study_; }
  [[nodiscard]] const ResolvedObjective& objective() const { return objective_; }
  [[nodiscard]] int size() const { return static_cast<int>(points_.size()); }
  [[nodiscard]] bool budget_exhausted() const { return size() >= budget_; }
  /// Archive row of `point`; -1 when it has not been evaluated.
  [[nodiscard]] int row_of(const std::vector<double>& point) const;
  [[nodiscard]] const std::vector<double>& point(int row) const {
    return points_[static_cast<std::size_t>(row)];
  }
  [[nodiscard]] double best_score() const { return best_score_; }
  /// The result so far. Rows, scores and the incumbent are the archive's;
  /// a policy writes only its own counters (passes, generations, ...).
  [[nodiscard]] OptResult& result() { return result_; }
  [[nodiscard]] const OptResult& result() const { return result_; }

  /// Adds the feasible Pareto front (when the objective has a pair) and the
  /// backend's work accounting, and moves the result out. Call it last.
  [[nodiscard]] OptResult finish();

 private:
  const Study& study_;
  ResolvedObjective objective_;
  int budget_;
  std::shared_ptr<sweep::ExecutionBackend> backend_;
  OptResult result_;
  std::vector<std::vector<double>> points_;  ///< coordinates per archive row
  std::map<std::vector<double>, int> rows_;  ///< exact coordinates -> archive row
  double best_score_;
};

}  // namespace brightsi::opt

#endif  // BRIGHTSI_OPT_ARCHIVE_H
