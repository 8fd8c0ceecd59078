// Named parameter overrides on a SystemConfig: the unit of work of a
// design-space sweep. A ScenarioSpec is a list of (parameter, value)
// overrides applied on top of a base configuration; the legal parameter
// names live in a registry so plans stay typo-safe and the CLI can list
// them.
#ifndef BRIGHTSI_SWEEP_SCENARIO_H
#define BRIGHTSI_SWEEP_SCENARIO_H

#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/system_config.h"

namespace brightsi::sweep {

/// One point of a design-space sweep: a human-readable name plus ordered
/// (parameter, value) overrides on the plan's base SystemConfig.
struct ScenarioSpec {
  std::string name;
  std::vector<std::pair<std::string, double>> overrides;

  /// Appends the override, or replaces the value if `param` is already set.
  void set(const std::string& param, double value);
  [[nodiscard]] std::optional<double> get(const std::string& param) const;
  /// The override of a count parameter through whole_number_param, or
  /// `fallback` when `param` is not set.
  [[nodiscard]] int get_int(const std::string& param, int fallback) const;
  /// The override of a 0/1 parameter through flag_param, or `fallback`
  /// when `param` is not set.
  [[nodiscard]] bool get_flag(const std::string& param, bool fallback) const;
};

/// Formats a value the way auto-generated scenario names do (shortest
/// round-trip, e.g. "676", "0.5").
[[nodiscard]] std::string format_value(double value);

/// `value` of the count parameter `param` as an int. Throws
/// std::invalid_argument naming `param` when the value is not finite, not a
/// whole number, or outside int range.
[[nodiscard]] int whole_number_param(const std::string& param, double value);

/// `value` of the 0/1 parameter `param` as a bool. Throws
/// std::invalid_argument naming `param` for anything but 0 or 1.
[[nodiscard]] bool flag_param(const std::string& param, double value);

/// A sweepable parameter. `apply` rewrites the SystemConfig; it is null for
/// parameters consumed directly by an evaluator (e.g. the edge-fed VRM
/// baseline, which has no SystemConfig field).
struct ParameterInfo {
  std::string name;
  std::string description;
  std::function<void(core::SystemConfig&, double)> apply;
  /// For parameters whose effect depends on sibling overrides (the 3D
  /// stack knobs: a rebuilt stack must honor every stack override of the
  /// scenario, not just the one being applied): receives the full
  /// scenario and takes precedence over `apply`.
  std::function<void(core::SystemConfig&, double, const ScenarioSpec&)> apply_with_scenario =
      nullptr;
  /// True when the parameter provably cannot change the mission's thermal
  /// trajectory (it feeds the electrochemical/bus side only: tank sizing,
  /// starting SOC). The per-worker mission trajectory cache
  /// (sweep/system_cache.h) keys on every override *except* these, so
  /// scenarios differing only here replay one recorded trajectory instead
  /// of re-stepping the transient engine. Default false = conservative.
  bool mission_thermal_invariant = false;
};

/// All legal scenario parameters, in presentation order.
[[nodiscard]] const std::vector<ParameterInfo>& parameter_registry();

/// Looks up a parameter; nullptr when `name` is not registered.
[[nodiscard]] const ParameterInfo* find_parameter(const std::string& name);

/// Applies the scenario's overrides to a copy of `base`. Throws
/// std::invalid_argument on an unregistered parameter name.
[[nodiscard]] core::SystemConfig apply_scenario(const core::SystemConfig& base,
                                                const ScenarioSpec& scenario);

}  // namespace brightsi::sweep

#endif  // BRIGHTSI_SWEEP_SCENARIO_H
