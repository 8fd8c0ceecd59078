#include "sweep/plan.h"

#include <stdexcept>

namespace brightsi::sweep {

void SweepPlan::add(ScenarioSpec scenario) {
  scenarios.push_back(std::move(scenario));
}

void SweepPlan::add_grid(const std::vector<GridAxis>& axes,
                         const std::vector<std::pair<std::string, double>>& common) {
  if (axes.empty()) {
    return;
  }
  for (const GridAxis& axis : axes) {
    if (axis.values.empty()) {
      return;  // empty axis -> empty product
    }
  }
  std::vector<std::size_t> index(axes.size(), 0);
  while (true) {
    ScenarioSpec scenario;
    for (const auto& [param, value] : common) {
      scenario.set(param, value);
    }
    std::string name;
    for (std::size_t a = 0; a < axes.size(); ++a) {
      const double value = axes[a].values[index[a]];
      scenario.set(axes[a].param, value);
      if (!name.empty()) {
        name += " ";
      }
      name += axes[a].param + "=" + format_value(value);
    }
    scenario.name = name;
    scenarios.push_back(std::move(scenario));

    // Row-major increment: last axis varies fastest.
    std::size_t a = axes.size();
    while (a > 0) {
      --a;
      if (++index[a] < axes[a].values.size()) {
        break;
      }
      index[a] = 0;
      if (a == 0) {
        return;
      }
    }
  }
}

void SweepPlan::validate() const {
  if (!evaluator.fn) {
    throw std::invalid_argument("sweep plan '" + name + "' has no evaluator");
  }
  if (evaluator.metrics.empty()) {
    throw std::invalid_argument("sweep plan '" + name + "' evaluator declares no metrics");
  }
  for (const ScenarioSpec& scenario : scenarios) {
    const core::SystemConfig config = apply_scenario(base, scenario);
    config.validate();
  }
}

}  // namespace brightsi::sweep
