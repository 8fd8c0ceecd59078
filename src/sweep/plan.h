// A SweepPlan expands grids and lists of parameter values into the flat
// scenario vector a SweepRunner executes: base configuration + evaluator +
// scenarios.
#ifndef BRIGHTSI_SWEEP_PLAN_H
#define BRIGHTSI_SWEEP_PLAN_H

#include <string>
#include <utility>
#include <vector>

#include "sweep/evaluators.h"
#include "sweep/scenario.h"

namespace brightsi::sweep {

/// One axis of a cartesian grid expansion.
struct GridAxis {
  std::string param;
  std::vector<double> values;
};

struct SweepPlan {
  std::string name;
  core::SystemConfig base;  ///< scenarios override from here
  SweepEvaluator evaluator;
  std::vector<ScenarioSpec> scenarios;

  /// Appends one fully-specified scenario.
  void add(ScenarioSpec scenario);

  /// Appends the full cartesian product of the axes (row-major: the last
  /// axis varies fastest), auto-naming each scenario from its coordinates.
  /// `common` overrides are prepended to every expanded scenario.
  void add_grid(const std::vector<GridAxis>& axes,
                const std::vector<std::pair<std::string, double>>& common = {});

  /// Validates every scenario against the parameter registry (and applies
  /// it to `base` to surface config-level errors early). Throws on the
  /// first invalid scenario.
  void validate() const;
};

}  // namespace brightsi::sweep

#endif  // BRIGHTSI_SWEEP_PLAN_H
