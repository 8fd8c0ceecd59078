// Constant-power operating point of the flow-cell bus.
//
// The array feeds the VRMs through one bus, and the stable operating point
// is the highest bus voltage at which the array sources the VRM input
// power: P(V) = V * I_array(V) rises from 0 at OCV as V decreases, and the
// search finds its first crossing with the demand. The co-simulation
// (`IntegratedMpsocSystem::solve_supply`) and the mission loop share this
// search. Each I_array(V) is a full array solve, so every distinct voltage
// is solved once: Brent's two bracket ends and the current at the root are
// lookups of voltages the bracket scan already solved.
#ifndef BRIGHTSI_CORE_BUS_SOLVE_H
#define BRIGHTSI_CORE_BUS_SOLVE_H

#include <utility>
#include <vector>

#include "numerics/root_finding.h"

namespace brightsi::core {

/// Result of solve_constant_power_bus.
struct BusSolution {
  bool found = false;  ///< the demand is met at some voltage in [v_floor, v_hi]
  double voltage_v = 0.0;
  double current_a = 0.0;
};

/// Highest bus voltage at which `v * current_at(v)` meets `input_power_w`.
/// Returns `v_hi` when the demand is met there; otherwise scans down in
/// 50 mV steps to `v_floor` for a bracket and refines it with Brent to
/// 10 uV or `power_tolerance_w`. Not found when no scanned voltage meets
/// the demand. `current_at` is called once per distinct voltage.
template <typename CurrentAt>
[[nodiscard]] BusSolution solve_constant_power_bus(CurrentAt&& current_at, double v_hi,
                                                   double v_floor, double input_power_w,
                                                   double power_tolerance_w) {
  std::vector<std::pair<double, double>> solved;  // (voltage, current), in solve order
  auto current = [&](double v) {
    for (const auto& [voltage, amps] : solved) {
      if (voltage == v) {
        return amps;
      }
    }
    const double amps = current_at(v);
    solved.emplace_back(v, amps);
    return amps;
  };
  auto surplus = [&](double v) { return v * current(v) - input_power_w; };

  BusSolution bus;
  if (surplus(v_hi) >= 0.0) {
    bus.voltage_v = v_hi;  // demand met at (essentially) open circuit
  } else {
    // Scan downward for a bracketing voltage (the maximum-power point of
    // the array bounds the search).
    double v_lo = v_hi;
    bool bracketed = false;
    for (double v = v_hi - 0.05; v >= v_floor; v -= 0.05) {
      if (surplus(v) >= 0.0) {
        v_lo = v;
        bracketed = true;
        break;
      }
    }
    if (!bracketed) {
      return bus;  // the array cannot deliver this power at any sane voltage
    }
    bus.voltage_v =
        numerics::find_root_brent(surplus, v_lo, v_hi, 1e-5, power_tolerance_w, 64).root;
  }
  bus.current_a = current(bus.voltage_v);
  bus.found = true;
  return bus;
}

}  // namespace brightsi::core

#endif  // BRIGHTSI_CORE_BUS_SOLVE_H
