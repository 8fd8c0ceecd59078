#include "opt/archive.h"

#include <limits>
#include <stdexcept>
#include <utility>

#include "sweep/execution.h"

namespace brightsi::opt {

namespace {

constexpr double kNegativeInfinity = -std::numeric_limits<double>::infinity();

}  // namespace

EvaluationArchive::EvaluationArchive(const Study& study, const SearchOptions& options,
                                     std::string algo)
    : study_(study),
      objective_(study.objective, study.evaluator.metrics),
      budget_(options.budget),
      backend_(options.backend),
      best_score_(kNegativeInfinity) {
  study.validate();
  if (budget_ < 1) {
    throw std::invalid_argument("optimizer budget must be at least 1");
  }
  if (backend_ == nullptr) {
    backend_ = sweep::make_local_backend({options.thread_count});
  }
  result_.algo = std::move(algo);
  result_.study_name = study.name;
  result_.objective_description = study.objective.describe();
  result_.archive.plan_name = study.name;
  result_.archive.evaluator_name = study.evaluator.name;
  result_.archive.metric_names = study.evaluator.metrics;
  result_.archive.thread_count = backend_->thread_count();
  for (const StudyParameter& parameter : study.parameters) {
    result_.archive.override_names.push_back(parameter.param);
  }
}

void EvaluationArchive::evaluate(const std::vector<std::vector<double>>& candidates) {
  std::vector<sweep::ScenarioSpec> specs;
  for (const std::vector<double>& point : candidates) {
    if (rows_.contains(point)) {
      continue;
    }
    if (budget_exhausted()) {
      break;
    }
    rows_.emplace(point, size());
    points_.push_back(point);
    specs.push_back(make_candidate_spec(study_, point));
  }
  if (specs.empty()) {
    return;
  }

  std::vector<sweep::ScenarioResult> rows;
  backend_->execute(study_.base, study_.evaluator, specs, rows);
  for (sweep::ScenarioResult& row : rows) {
    const bool ok = !row.failed && objective_.feasible(row.metrics);
    const double score = ok ? objective_.score(row.metrics) : kNegativeInfinity;
    result_.archive.rows.push_back(std::move(row));
    result_.feasible.push_back(ok);
    result_.scores.push_back(score);
    if (score > best_score_) {
      best_score_ = score;
      result_.best_index = static_cast<int>(result_.archive.rows.size()) - 1;
    }
  }
}

int EvaluationArchive::row_of(const std::vector<double>& point) const {
  const auto it = rows_.find(point);
  return it == rows_.end() ? -1 : it->second;
}

OptResult EvaluationArchive::finish() {
  if (objective_.has_pareto_pair()) {
    std::vector<int> feasible_rows;
    for (int row = 0; row < size(); ++row) {
      if (result_.feasible[static_cast<std::size_t>(row)]) {
        feasible_rows.push_back(row);
      }
    }
    result_.pareto_indices =
        pareto_front(result_.archive, feasible_rows, objective_.pareto_maximize_index(),
                     objective_.pareto_minimize_index());
  }
  result_.archive.exec = backend_->stats();
  return std::move(result_);
}

}  // namespace brightsi::opt
