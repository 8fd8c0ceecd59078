#include "opt/objective.h"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace brightsi::opt {

namespace {

std::string format_bound(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%g", value);
  return buffer;
}

int metric_index(const std::string& metric, const std::vector<std::string>& metric_names,
                 const char* what) {
  for (std::size_t i = 0; i < metric_names.size(); ++i) {
    if (metric_names[i] == metric) {
      return static_cast<int>(i);
    }
  }
  std::string known;
  for (const std::string& name : metric_names) {
    known += known.empty() ? name : ", " + name;
  }
  throw std::invalid_argument(std::string(what) + " names unknown metric '" + metric +
                              "' (evaluator metrics: " + known + ")");
}

double parse_number(const std::string& text, const std::string& context) {
  try {
    std::size_t consumed = 0;
    const double value = std::stod(text, &consumed);
    if (consumed != text.size() || !std::isfinite(value)) {
      throw std::invalid_argument(text);
    }
    return value;
  } catch (const std::exception&) {
    throw std::invalid_argument(context + ": not a finite number: '" + text + "'");
  }
}

}  // namespace

std::string ObjectiveSpec::describe() const {
  std::string text;
  for (const ObjectiveTerm& term : terms) {
    if (!text.empty()) {
      text += " + ";
    }
    if (term.weight == 1.0) {
      text += "maximize " + term.metric;
    } else if (term.weight == -1.0) {
      text += "minimize " + term.metric;
    } else {
      text += format_bound(term.weight) + "*" + term.metric;
    }
  }
  if (text.empty()) {
    text = "(no objective terms)";
  }
  for (const MetricConstraint& constraint : constraints) {
    const bool has_min = std::isfinite(constraint.min);
    const bool has_max = std::isfinite(constraint.max);
    if (!has_min && !has_max) {
      continue;
    }
    text += text.find(" subject to ") == std::string::npos ? " subject to " : ", ";
    if (has_min && has_max) {
      text += format_bound(constraint.min) + " <= " + constraint.metric +
              " <= " + format_bound(constraint.max);
    } else if (has_max) {
      text += constraint.metric + " <= " + format_bound(constraint.max);
    } else {
      text += constraint.metric + " >= " + format_bound(constraint.min);
    }
  }
  return text;
}

ObjectiveSpec maximize_metric(std::string metric) {
  ObjectiveSpec spec;
  spec.terms.push_back({std::move(metric), 1.0});
  return spec;
}

ObjectiveTerm parse_objective_term(const std::string& text, double sign) {
  ObjectiveTerm term;
  const auto star = text.find('*');
  term.metric = text.substr(0, star);
  if (term.metric.empty()) {
    throw std::invalid_argument("objective term: expected metric[*weight], got: '" + text +
                                "'");
  }
  double weight = 1.0;
  if (star != std::string::npos) {
    weight = parse_number(text.substr(star + 1), "objective term '" + text + "'");
    if (weight <= 0.0) {
      throw std::invalid_argument("objective term '" + text +
                                  "': weight must be positive (use --minimize to negate)");
    }
  }
  term.weight = sign * weight;
  return term;
}

MetricConstraint parse_metric_bound(const std::string& text, bool upper) {
  const auto eq = text.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 >= text.size()) {
    throw std::invalid_argument("constraint: expected metric=value, got: '" + text + "'");
  }
  MetricConstraint constraint;
  constraint.metric = text.substr(0, eq);
  const double value = parse_number(text.substr(eq + 1), "constraint '" + text + "'");
  (upper ? constraint.max : constraint.min) = value;
  return constraint;
}

ResolvedObjective::ResolvedObjective(const ObjectiveSpec& spec,
                                     const std::vector<std::string>& metric_names) {
  if (spec.terms.empty()) {
    throw std::invalid_argument("objective has no terms: nothing to optimize");
  }
  for (const ObjectiveTerm& term : spec.terms) {
    if (term.weight == 0.0 || !std::isfinite(term.weight)) {
      throw std::invalid_argument("objective term '" + term.metric +
                                  "' has a zero or non-finite weight");
    }
    terms_.emplace_back(metric_index(term.metric, metric_names, "objective term"), term.weight);
  }
  for (const MetricConstraint& constraint : spec.constraints) {
    if (!(constraint.min <= constraint.max)) {
      throw std::invalid_argument(
          "constraint on '" + constraint.metric + "' is infeasible: min " +
          format_bound(constraint.min) + " > max " + format_bound(constraint.max));
    }
    constraints_.emplace_back(metric_index(constraint.metric, metric_names, "constraint"),
                              constraint);
  }
  if (spec.pareto_maximize.empty() != spec.pareto_minimize.empty()) {
    throw std::invalid_argument(
        "Pareto pair must name both metrics (maximize + minimize) or neither");
  }
  if (!spec.pareto_maximize.empty()) {
    pareto_maximize_index_ = metric_index(spec.pareto_maximize, metric_names, "Pareto pair");
    pareto_minimize_index_ = metric_index(spec.pareto_minimize, metric_names, "Pareto pair");
  }
}

double ResolvedObjective::score(const std::vector<double>& metrics) const {
  double total = 0.0;
  for (const auto& [index, weight] : terms_) {
    total += weight * metrics[static_cast<std::size_t>(index)];
  }
  return total;
}

bool ResolvedObjective::feasible(const std::vector<double>& metrics) const {
  for (const auto& [index, constraint] : constraints_) {
    const double value = metrics[static_cast<std::size_t>(index)];
    // A NaN metric is explicitly infeasible: it must not depend on which
    // side of the window is checked (NaN fails every ordered comparison,
    // so a hand-reordered `value > max` style test would silently pass it).
    if (std::isnan(value) || !(value >= constraint.min && value <= constraint.max)) {
      return false;
    }
  }
  return true;
}

double ResolvedObjective::constraint_violation(const std::vector<double>& metrics) const {
  double total = 0.0;
  for (const auto& [index, constraint] : constraints_) {
    const double value = metrics[static_cast<std::size_t>(index)];
    if (std::isnan(value)) {
      return std::numeric_limits<double>::infinity();
    }
    if (value < constraint.min) {
      total += constraint.min - value;
    }
    if (value > constraint.max) {
      total += value - constraint.max;
    }
  }
  return total;
}

}  // namespace brightsi::opt
