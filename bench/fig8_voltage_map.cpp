// E5 — Reproduction of Fig. 8: voltage distribution in the power grid that
// feeds the L2/L3 cache rail of the POWER7+ from the microfluidic supply
// through distributed in-package VRMs. Paper window: ~0.96 to ~0.995 V at
// the ~5 A cache load.
#include <cstdio>
#include <iostream>

#include "chip/power7.h"
#include "core/report.h"
#include "pdn/power_grid.h"
#include "repro/figures.h"

namespace pd = brightsi::pdn;
namespace ch = brightsi::chip;
namespace re = brightsi::repro;
using brightsi::core::TextTable;
using brightsi::core::print_ascii_map;

namespace {

/// Prints the reproduction; true when every paper verdict reads YES.
bool print_reproduction() {
  const auto floorplan = ch::make_power7_floorplan();
  const pd::PowerGridSpec spec;
  // The solution the golden regression suite pins (tests/golden/fig8.csv).
  const pd::PowerGridSolution sol = re::fig8_voltage_solution();

  std::printf("== E5: Fig. 8 cache-rail voltage map ==\n");
  std::printf("mesh %d x %d nodes, sheet %.0f mohm/sq, 4x4 VRM taps @ %0.0f mohm\n",
              spec.nodes_x, spec.nodes_y, spec.sheet_resistance_ohm_per_sq * 1e3, 25.0);
  TextTable table({"quantity", "model", "paper", "unit"});
  table.add_row({"cache rail load", TextTable::num(sol.total_load_current_a, 2), "5.0", "A"});
  table.add_row({"min node voltage", TextTable::num(sol.min_voltage_v, 4), "~0.960", "V"});
  table.add_row({"max node voltage", TextTable::num(sol.max_voltage_v, 4), "~0.995", "V"});
  table.add_row({"mean node voltage", TextTable::num(sol.mean_voltage_v, 4), "-", "V"});
  table.add_row({"worst IR drop", TextTable::num(sol.worst_drop_v * 1e3, 1), "~40", "mV"});
  table.add_row({"grid + VRM ohmic loss", TextTable::num(sol.ohmic_loss_w, 3), "-", "W"});
  table.print(std::cout);

  std::printf("\n");
  print_ascii_map(std::cout, sol.node_voltage_v, "rail voltage map (die coordinates)", "V");

  const bool window_ok = sol.min_voltage_v > 0.955 && sol.min_voltage_v < 0.972 &&
                         sol.max_voltage_v > 0.99 && sol.max_voltage_v < 1.0;
  std::printf("\nreproduced (0.96-0.995 V window at ~5 A): %s\n", window_ok ? "YES" : "NO");

  const std::string path = brightsi::core::write_results_file(
      "fig8_voltage_map.csv", [&](std::ostream& os) {
        brightsi::core::write_field_csv(os, sol.node_voltage_v, floorplan.die_width(),
                                        floorplan.die_height());
      });
  if (!path.empty()) {
    std::printf("field written to %s\n", path.c_str());
  }
  std::printf("\n");
  return window_ok;
}

}  // namespace

int main() { return print_reproduction() ? 0 : 1; }
