// E10 — Bright-vs-dark ablation (the paper's Section I motivation): how
// much core activity can each platform sustain under thermal and rail-
// integrity constraints?
//   * integrated: microchannel flow-cell cooling + distributed in-package
//     VRMs on the cache rail;
//   * conventional: air-cooled package + edge-fed rails.
#include <cstdio>
#include <iostream>

#include "chip/power7.h"
#include "core/report.h"
#include "core/system_config.h"
#include "core/throttling.h"
#include "pdn/power_grid.h"
#include "thermal/model.h"

namespace co = brightsi::core;
namespace ch = brightsi::chip;
namespace th = brightsi::thermal;
namespace pd = brightsi::pdn;
using brightsi::core::TextTable;

namespace {

/// Prints the reproduction; true when every paper verdict reads YES.
bool print_reproduction() {
  const auto config = co::power7_system_config();
  co::ThrottleConstraints constraints;  // 85 C, 0.95 V

  // Integrated microfluidic platform.
  th::ThermalModel::GridSettings grid;
  grid.axial_cells = 16;
  th::ThermalModel liquid(config.stack, ch::kPower7DieWidthM, ch::kPower7DieHeightM, grid);
  co::ThrottleEnvironment integrated;
  integrated.thermal_model = &liquid;
  integrated.thermal_op.total_flow_m3_per_s = config.array_spec.total_flow_m3_per_s;
  integrated.thermal_op.inlet_temperature_k = config.array_spec.inlet_temperature_k;
  integrated.grid_spec = &config.grid_spec;
  integrated.taps = pd::make_vrm_grid(4, 4, ch::kPower7DieWidthM, ch::kPower7DieHeightM,
                                      1.0, 25e-3);
  integrated.power_spec = config.power_spec;
  integrated.rail_filter = [](const ch::Block& b) { return ch::is_cache(b.type); };
  const auto bright = co::find_max_core_activity(integrated, constraints);

  // Conventional air-cooled platform, edge-fed primary rail over all blocks.
  pd::PowerGridSpec core_rail;
  core_rail.sheet_resistance_ohm_per_sq = 5e-3;
  th::ThermalModel air(th::power7_conventional_stack(1200.0, 318.15), ch::kPower7DieWidthM,
                       ch::kPower7DieHeightM, grid);
  co::ThrottleEnvironment conventional;
  conventional.thermal_model = &air;
  conventional.grid_spec = &core_rail;
  conventional.taps =
      pd::make_edge_taps(20, ch::kPower7DieWidthM, ch::kPower7DieHeightM, 1.0, 2e-3);
  conventional.power_spec = config.power_spec;
  const auto dark = co::find_max_core_activity(conventional, constraints);

  std::printf("== E10: bright vs dark silicon ==\n");
  TextTable table({"platform", "max core activity", "peak T (C)", "min rail (V)",
                   "binding constraint", "chip power (W)"});
  auto constraint_name = [](const co::ThrottleResult& r) {
    if (r.thermally_limited && r.voltage_limited) {
      return "thermal+voltage";
    }
    if (r.thermally_limited) {
      return "thermal";
    }
    if (r.voltage_limited) {
      return "voltage";
    }
    return "none";
  };
  table.add_row({"integrated microfluidic", TextTable::num(bright.max_activity, 2),
                 TextTable::num(bright.peak_temperature_c, 1),
                 TextTable::num(bright.min_rail_voltage_v, 3), constraint_name(bright),
                 TextTable::num(bright.bright_power_w, 1)});
  table.add_row({"conventional air-cooled", TextTable::num(dark.max_activity, 2),
                 TextTable::num(dark.peak_temperature_c, 1),
                 TextTable::num(dark.min_rail_voltage_v, 3), constraint_name(dark),
                 TextTable::num(dark.bright_power_w, 1)});
  table.print(std::cout);

  std::printf("\nbright fraction gain: %.1fx more sustained core activity\n",
              bright.max_activity / std::max(dark.max_activity, 1e-3));
  const bool reproduced = bright.max_activity >= 0.99 && dark.max_activity < 0.9;
  std::printf("reproduced (integrated runs all cores, conventional throttles): %s\n\n",
              reproduced ? "YES" : "NO");
  return reproduced;
}

}  // namespace

int main() { return print_reproduction() ? 0 : 1; }
