#include "opt/optimizer.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "core/report.h"
#include "opt/archive.h"
#include "sweep/scenario.h"

namespace brightsi::opt {

std::vector<double> snap_study_point(const Study& study, std::vector<double> point) {
  for (std::size_t a = 0; a < study.parameters.size(); ++a) {
    const StudyParameter& parameter = study.parameters[a];
    double value = std::clamp(point[a], parameter.lower, parameter.upper);
    if (parameter.integer) {
      value = std::clamp(std::round(value), std::ceil(parameter.lower),
                         std::floor(parameter.upper));
    }
    if (value == 0.0) {
      // Canonicalize -0.0: the exact-coordinate dedup, the candidate name
      // and the store's content hash must all see one zero.
      value = 0.0;
    }
    point[a] = value;
  }
  return point;
}

sweep::ScenarioSpec make_candidate_spec(const Study& study, const std::vector<double>& point) {
  sweep::ScenarioSpec spec;
  for (const auto& [param, value] : study.fixed) {
    spec.set(param, value);
  }
  for (std::size_t a = 0; a < study.parameters.size(); ++a) {
    spec.set(study.parameters[a].param, point[a]);
    if (!spec.name.empty()) {
      spec.name += " ";
    }
    spec.name += study.parameters[a].param + "=" + sweep::format_sweep_value(point[a]);
  }
  return spec;
}

namespace {

constexpr double kShrink = 0.5;  ///< per-pass contraction of the axis half-range
constexpr int kMaxPasses = 16;   ///< refinement passes before polish

/// Score of one point, evaluating it if unseen; nullopt when the budget is
/// exhausted before it could be evaluated.
std::optional<double> evaluate_point(EvaluationArchive& archive,
                                     const std::vector<double>& point) {
  archive.evaluate({point});
  const int row = archive.row_of(point);
  if (row < 0) {
    return std::nullopt;
  }
  return archive.result().scores[static_cast<std::size_t>(row)];
}

/// The point refinement continues from: the incumbent, or the first
/// evaluated point while nothing is feasible yet.
const std::vector<double>& anchor_point(const EvaluationArchive& archive) {
  return archive.point(std::max(archive.result().best_index, 0));
}

/// Successive grid refinement: per pass, sweep each axis with
/// `axis_points` samples spanning the current half-range around the
/// incumbent (each axis a batched generation), then contract the ranges.
void refine(EvaluationArchive& archive, const OptimizerOptions& options) {
  const Study& study = archive.study();
  const std::vector<StudyParameter>& parameters = study.parameters;
  std::vector<double> half(parameters.size());
  for (std::size_t a = 0; a < parameters.size(); ++a) {
    half[a] = (parameters[a].upper - parameters[a].lower) / 2.0;
  }

  for (int pass = 0; pass < kMaxPasses && !archive.budget_exhausted(); ++pass) {
    for (std::size_t a = 0; a < parameters.size() && !archive.budget_exhausted(); ++a) {
      const std::vector<double> anchor = anchor_point(archive);
      const double lo = std::max(parameters[a].lower, anchor[a] - half[a]);
      const double hi = std::min(parameters[a].upper, anchor[a] + half[a]);
      std::vector<std::vector<double>> candidates;
      const int k = std::max(2, options.axis_points);
      for (int i = 0; i < k; ++i) {
        std::vector<double> point = anchor;
        point[a] = lo + (hi - lo) * static_cast<double>(i) / static_cast<double>(k - 1);
        candidates.push_back(snap_study_point(study, std::move(point)));
      }
      archive.evaluate(candidates);
    }
    ++archive.result().passes;

    bool any_resolvable = false;
    for (std::size_t a = 0; a < parameters.size(); ++a) {
      half[a] *= kShrink;
      const double resolution =
          parameters[a].integer ? 0.5 : (parameters[a].upper - parameters[a].lower) * 1e-9;
      any_resolvable = any_resolvable || half[a] >= resolution;
    }
    if (!any_resolvable) {
      break;
    }
  }
}

/// Nelder–Mead polish over the continuous parameters (integer coordinates
/// pinned at the incumbent), spending whatever budget remains. Candidates
/// are clamped to bounds; repeats hit the archive cache and cost nothing.
void polish(EvaluationArchive& archive, const OptimizerOptions& options) {
  const Study& study = archive.study();
  if (archive.result().best_index < 0 || archive.budget_exhausted()) {
    return;
  }
  std::vector<std::size_t> axes;
  for (std::size_t a = 0; a < study.parameters.size(); ++a) {
    if (!study.parameters[a].integer) {
      axes.push_back(a);
    }
  }
  if (axes.empty()) {
    return;
  }

  struct Vertex {
    std::vector<double> point;
    double score = 0.0;
  };
  std::vector<Vertex> simplex;
  const std::vector<double> origin = anchor_point(archive);
  simplex.push_back({origin, archive.best_score()});
  for (const std::size_t a : axes) {
    const StudyParameter& parameter = study.parameters[a];
    const double step = (parameter.upper - parameter.lower) * 0.05;
    std::vector<double> point = origin;
    point[a] += point[a] + step <= parameter.upper ? step : -step;
    point = snap_study_point(study, std::move(point));
    const std::optional<double> score = evaluate_point(archive, point);
    if (!score.has_value()) {
      return;
    }
    simplex.push_back({std::move(point), *score});
  }

  const auto order = [&]() {
    std::stable_sort(simplex.begin(), simplex.end(),
                     [](const Vertex& x, const Vertex& y) { return x.score > y.score; });
  };
  const int step_cap = std::max(32, options.budget);
  for (int step = 0; step < step_cap && !archive.budget_exhausted(); ++step) {
    order();
    Vertex& worst = simplex.back();
    if (simplex.front().score - worst.score <=
        1e-12 * (1.0 + std::abs(simplex.front().score))) {
      break;
    }
    std::vector<double> centroid(origin.size(), 0.0);
    for (std::size_t v = 0; v + 1 < simplex.size(); ++v) {
      for (const std::size_t a : axes) {
        centroid[a] += simplex[v].point[a];
      }
    }
    for (const std::size_t a : axes) {
      centroid[a] /= static_cast<double>(simplex.size() - 1);
    }
    const auto blend = [&](double towards) {
      std::vector<double> point = worst.point;
      for (const std::size_t a : axes) {
        point[a] = centroid[a] + towards * (centroid[a] - worst.point[a]);
      }
      return snap_study_point(study, std::move(point));
    };

    const std::vector<double> reflected = blend(1.0);
    const std::optional<double> reflected_score = evaluate_point(archive, reflected);
    if (!reflected_score.has_value()) {
      break;
    }
    ++archive.result().polish_steps;
    if (*reflected_score > simplex.front().score) {
      const std::vector<double> expanded = blend(2.0);
      const std::optional<double> expanded_score = evaluate_point(archive, expanded);
      if (expanded_score.has_value() && *expanded_score > *reflected_score) {
        worst = {expanded, *expanded_score};
      } else {
        worst = {reflected, *reflected_score};
      }
      continue;
    }
    if (*reflected_score > simplex[simplex.size() - 2].score) {
      worst = {reflected, *reflected_score};
      continue;
    }
    const std::vector<double> contracted = blend(-0.5);
    const std::optional<double> contracted_score = evaluate_point(archive, contracted);
    if (contracted_score.has_value() && *contracted_score > worst.score) {
      worst = {contracted, *contracted_score};
      continue;
    }
    // Shrink toward the best vertex.
    for (std::size_t v = 1; v < simplex.size(); ++v) {
      std::vector<double> point = simplex[v].point;
      for (const std::size_t a : axes) {
        point[a] = simplex.front().point[a] + 0.5 * (point[a] - simplex.front().point[a]);
      }
      point = snap_study_point(study, std::move(point));
      const std::optional<double> score = evaluate_point(archive, point);
      if (!score.has_value()) {
        return;
      }
      simplex[v] = {std::move(point), *score};
    }
  }
}

std::vector<std::vector<std::string>> formatted_archive_rows(const OptResult& result) {
  std::vector<std::vector<std::string>> rows;
  rows.reserve(result.archive.rows.size());
  for (std::size_t i = 0; i < result.archive.rows.size(); ++i) {
    std::vector<std::string> cells = format_sweep_row(result.archive, result.archive.rows[i]);
    cells.push_back(result.feasible[i] ? sweep::format_sweep_value(result.scores[i])
                                       : std::string());
    cells.push_back(result.feasible[i] ? "1" : "0");
    cells.push_back(static_cast<int>(i) == result.best_index ? "1" : "0");
    const bool on_front = std::find(result.pareto_indices.begin(),
                                    result.pareto_indices.end(),
                                    static_cast<int>(i)) != result.pareto_indices.end();
    cells.push_back(on_front ? "1" : "0");
    rows.push_back(std::move(cells));
  }
  return rows;
}

std::vector<std::string> opt_headers(const OptResult& result) {
  std::vector<std::string> headers = sweep_row_headers(result.archive);
  headers.insert(headers.end(), {"score", "feasible", "incumbent", "pareto"});
  return headers;
}

}  // namespace

void Study::validate() const {
  if (name.empty()) {
    throw std::invalid_argument("study has no name");
  }
  if (!evaluator.fn) {
    throw std::invalid_argument("study '" + name + "' has no evaluator");
  }
  if (parameters.empty()) {
    throw std::invalid_argument("study '" + name + "' has an empty parameter set");
  }
  for (std::size_t a = 0; a < parameters.size(); ++a) {
    const StudyParameter& parameter = parameters[a];
    if (sweep::find_parameter(parameter.param) == nullptr) {
      throw std::invalid_argument("study '" + name + "': unknown sweep parameter '" +
                                  parameter.param + "'");
    }
    for (std::size_t b = 0; b < a; ++b) {
      if (parameters[b].param == parameter.param) {
        throw std::invalid_argument("study '" + name + "': duplicate parameter '" +
                                    parameter.param + "'");
      }
    }
    if (!std::isfinite(parameter.lower) || !std::isfinite(parameter.upper) ||
        !(parameter.lower <= parameter.upper)) {
      throw std::invalid_argument("study '" + name + "': parameter '" + parameter.param +
                                  "' has unordered or non-finite bounds");
    }
    if (parameter.integer && std::ceil(parameter.lower) > std::floor(parameter.upper)) {
      throw std::invalid_argument("study '" + name + "': parameter '" + parameter.param +
                                  "' has no integer inside its bounds");
    }
  }
  for (const auto& [param, value] : fixed) {
    (void)value;
    if (sweep::find_parameter(param) == nullptr) {
      throw std::invalid_argument("study '" + name + "': unknown fixed parameter '" +
                                  param + "'");
    }
  }
  (void)ResolvedObjective(objective, evaluator.metrics);  // throws on a bad objective
}

const sweep::ScenarioResult* OptResult::best() const {
  return best_index >= 0 ? &archive.rows[static_cast<std::size_t>(best_index)] : nullptr;
}

OptResult optimize(const Study& study, const OptimizerOptions& options) {
  EvaluationArchive archive(study, options, "grid");

  // Generation 0: the center of the box.
  std::vector<double> center(study.parameters.size());
  for (std::size_t a = 0; a < study.parameters.size(); ++a) {
    center[a] = (study.parameters[a].lower + study.parameters[a].upper) / 2.0;
  }
  archive.evaluate({snap_study_point(study, std::move(center))});

  refine(archive, options);
  if (options.nelder_mead) {
    polish(archive, options);
  }
  return archive.finish();
}

std::vector<int> pareto_front(const sweep::SweepResult& archive,
                              const std::vector<int>& row_indices, int max_index,
                              int min_index) {
  const auto value = [&](int row, int metric) {
    return archive.rows[static_cast<std::size_t>(row)].metrics[static_cast<std::size_t>(metric)];
  };
  std::vector<int> front;
  for (const int candidate : row_indices) {
    bool dominated = false;
    for (const int other : row_indices) {
      if (other == candidate) {
        continue;
      }
      const bool no_worse = value(other, max_index) >= value(candidate, max_index) &&
                            value(other, min_index) <= value(candidate, min_index);
      const bool strictly_better = value(other, max_index) > value(candidate, max_index) ||
                                   value(other, min_index) < value(candidate, min_index);
      if (no_worse && strictly_better) {
        dominated = true;
        break;
      }
    }
    if (!dominated) {
      front.push_back(candidate);
    }
  }
  std::stable_sort(front.begin(), front.end(), [&](int x, int y) {
    return value(x, max_index) < value(y, max_index);
  });
  return front;
}

void write_opt_csv(std::ostream& os, const OptResult& result) {
  core::write_table_csv(os, opt_headers(result), formatted_archive_rows(result));
}

void write_pareto_csv(std::ostream& os, const OptResult& result) {
  sweep::SweepResult front;
  front.plan_name = result.archive.plan_name;
  front.evaluator_name = result.archive.evaluator_name;
  front.metric_names = result.archive.metric_names;
  front.override_names = result.archive.override_names;
  for (const int index : result.pareto_indices) {
    front.rows.push_back(result.archive.rows[static_cast<std::size_t>(index)]);
  }
  write_sweep_csv(os, front);
}

void write_opt_json(std::ostream& os, const OptResult& result) {
  const std::vector<std::string> headers = opt_headers(result);
  std::vector<bool> numeric(headers.size(), true);
  numeric.front() = false;  // scenario name
  // The error column sits at the end of the embedded sweep-row header set,
  // before the appended opt columns.
  numeric[sweep_row_headers(result.archive).size() - 1] = false;

  const std::vector<std::vector<std::string>> rows = formatted_archive_rows(result);
  os << "{\n"
     << "  \"study\": \"" << core::json_escape(result.study_name) << "\",\n"
     << "  \"algo\": \"" << core::json_escape(result.algo) << "\",\n"
     << "  \"objective\": \"" << core::json_escape(result.objective_description) << "\",\n"
     << "  \"evaluator\": \"" << core::json_escape(result.archive.evaluator_name) << "\",\n"
     << "  \"evaluations\": " << result.evaluations() << ",\n"
     << "  \"passes\": " << result.passes << ",\n"
     << "  \"polish_steps\": " << result.polish_steps << ",\n"
     << "  \"generations\": " << result.generations << ",\n"
     << "  \"surrogate_candidates\": " << result.surrogate_candidates << ",\n"
     << "  \"surrogate_screened\": " << result.surrogate_screened << ",\n"
     << "  \"best_index\": " << result.best_index << ",\n"
     << "  \"best\": ";
  if (result.best_index >= 0) {
    const std::vector<std::string>& best =
        rows[static_cast<std::size_t>(result.best_index)];
    os << "{";
    for (std::size_t c = 0; c < headers.size(); ++c) {
      os << (c == 0 ? "" : ", ") << '"' << core::json_escape(headers[c]) << "\": ";
      if (numeric[c]) {
        os << (best[c].empty() ? "null" : best[c]);
      } else {
        os << '"' << core::json_escape(best[c]) << '"';
      }
    }
    os << "},\n";
  } else {
    os << "null,\n";
  }
  os << "  \"pareto_indices\": [";
  for (std::size_t i = 0; i < result.pareto_indices.size(); ++i) {
    os << (i == 0 ? "" : ", ") << result.pareto_indices[i];
  }
  os << "],\n"
     << "  \"rows\": ";
  core::write_records_json(os, headers, numeric, rows);
  os << "}\n";
}

}  // namespace brightsi::opt
