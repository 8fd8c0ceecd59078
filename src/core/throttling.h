// Bright-silicon governor: how much of the compute can run, given thermal
// and supply-integrity constraints?
//
// The paper's motivation (Section I) is that conventional power delivery
// and cooling force cores dark. This module quantifies it: a bisection on
// the core activity factor finds the largest sustained activity that keeps
// (a) the die below a temperature limit and (b) the supervised rail above
// its droop limit. Comparing the integrated microfluidic package against a
// conventional air-cooled, edge-fed package yields the bright-vs-dark
// ablation (bench/ablation_bright_dark.cpp, E10).
#ifndef BRIGHTSI_CORE_THROTTLING_H
#define BRIGHTSI_CORE_THROTTLING_H

#include <functional>

#include "chip/power7.h"
#include "pdn/power_grid.h"
#include "thermal/model.h"

namespace brightsi::core {

/// Operating constraints of the governor.
struct ThrottleConstraints {
  double max_junction_c = 85.0;   ///< thermal throttle point
  double min_rail_voltage_v = 0.95;  ///< droop limit on the supervised rail
};

/// Environment handed to the governor.
struct ThrottleEnvironment {
  const thermal::ThermalModel* thermal_model = nullptr;
  thermal::OperatingPoint thermal_op;
  const pdn::PowerGridSpec* grid_spec = nullptr;      ///< supervised rail
  std::vector<pdn::VrmTap> taps;
  chip::Power7PowerSpec power_spec;                   ///< at activity 1.0
  /// Which blocks the supervised rail feeds (default: every block — the
  /// conventional core rail; the integrated scenario supervises caches).
  std::function<bool(const chip::Block&)> rail_filter;
};

/// Result of the activity search.
struct ThrottleResult {
  double max_activity = 0.0;         ///< largest feasible core activity in [0, 1]
  double peak_temperature_c = 0.0;   ///< at that activity
  double min_rail_voltage_v = 0.0;
  bool thermally_limited = false;    ///< binding constraint
  bool voltage_limited = false;
  double bright_power_w = 0.0;       ///< total chip power at max_activity
};

/// Bisects core activity in [0, 1] to the feasibility boundary (tolerance
/// `activity_tolerance`). Activity scales the core power density only
/// (caches/logic stay at spec), mirroring DVFS on the compute clusters.
[[nodiscard]] ThrottleResult find_max_core_activity(const ThrottleEnvironment& env,
                                                    const ThrottleConstraints& constraints,
                                                    double activity_tolerance = 0.01);

}  // namespace brightsi::core

#endif  // BRIGHTSI_CORE_THROTTLING_H
