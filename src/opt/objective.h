// Objective specifications for design-space optimization: a weighted
// combination of sweep-evaluator metrics to maximize, hard per-metric
// feasibility windows (e.g. peak_t_c <= 86.85 C, i.e. T_max <= 360 K), and
// an optional 2-objective Pareto pair (net power vs peak temperature).
//
// An ObjectiveSpec is plain data naming metrics by their evaluator column
// names; binding it to a concrete evaluator (ResolvedObjective) validates
// the names and resolves indices once, so scoring a candidate is a tight
// loop over term indices.
#ifndef BRIGHTSI_OPT_OBJECTIVE_H
#define BRIGHTSI_OPT_OBJECTIVE_H

#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace brightsi::opt {

/// One weighted term of the scalar objective. A positive weight maximizes
/// the metric, a negative weight minimizes it; the optimizer maximizes the
/// weighted sum.
struct ObjectiveTerm {
  std::string metric;
  double weight = 1.0;
};

/// Hard feasibility window on one metric. Candidates outside the window
/// are excluded from incumbency and the Pareto front (they stay in the
/// archive, marked infeasible).
struct MetricConstraint {
  std::string metric;
  double min = -std::numeric_limits<double>::infinity();
  double max = std::numeric_limits<double>::infinity();
};

struct ObjectiveSpec {
  std::vector<ObjectiveTerm> terms;
  std::vector<MetricConstraint> constraints;
  /// Optional 2-objective Pareto pair: trade maximizing `pareto_maximize`
  /// against minimizing `pareto_minimize`. Both empty disables front
  /// extraction; setting exactly one is invalid.
  std::string pareto_maximize;
  std::string pareto_minimize;

  /// Human-readable summary, e.g.
  /// "maximize net_w subject to peak_t_c <= 86.85".
  [[nodiscard]] std::string describe() const;
};

/// Single-term convenience.
[[nodiscard]] ObjectiveSpec maximize_metric(std::string metric);

/// Parses "metric" or "metric*weight" into a term (weight defaults to 1;
/// `sign` scales it, -1 for --minimize). Throws std::invalid_argument with
/// a readable message on malformed input.
[[nodiscard]] ObjectiveTerm parse_objective_term(const std::string& text, double sign = 1.0);

/// Parses "metric=value" into a one-sided constraint: an upper bound when
/// `upper` is true (--cap), a lower bound otherwise (--floor). Throws
/// std::invalid_argument on malformed input.
[[nodiscard]] MetricConstraint parse_metric_bound(const std::string& text, bool upper);

/// The objective bound to an evaluator's metric layout: names resolved to
/// indices, spec validated. The constructor throws std::invalid_argument
/// on an unknown metric name, an empty term list, a constraint window with
/// min > max, or a half-specified Pareto pair.
class ResolvedObjective {
 public:
  ResolvedObjective(const ObjectiveSpec& spec, const std::vector<std::string>& metric_names);

  /// Weighted objective value of one metric row (higher is better).
  [[nodiscard]] double score(const std::vector<double>& metrics) const;
  /// True when every constraint window contains its metric. A NaN value
  /// under any constraint is explicitly infeasible, regardless of which
  /// side of the window it would be compared against.
  [[nodiscard]] bool feasible(const std::vector<double>& metrics) const;
  /// Total distance outside the constraint windows (0 when feasible;
  /// +inf when a constrained metric is NaN). The constraint-domination
  /// measure of the evolutionary optimizer: among infeasible candidates,
  /// smaller violation wins.
  [[nodiscard]] double constraint_violation(const std::vector<double>& metrics) const;

  [[nodiscard]] bool has_pareto_pair() const { return pareto_maximize_index_ >= 0; }
  [[nodiscard]] int pareto_maximize_index() const { return pareto_maximize_index_; }
  [[nodiscard]] int pareto_minimize_index() const { return pareto_minimize_index_; }

 private:
  std::vector<std::pair<int, double>> terms_;                   ///< (metric index, weight)
  std::vector<std::pair<int, MetricConstraint>> constraints_;  ///< (metric index, window)
  int pareto_maximize_index_ = -1;
  int pareto_minimize_index_ = -1;
};

}  // namespace brightsi::opt

#endif  // BRIGHTSI_OPT_OBJECTIVE_H
