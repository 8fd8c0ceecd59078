// E6 — Reproduction of Fig. 9: thermal map of the POWER7+ at full load
// cooled by the electrolyte flow at 676 ml/min, 27 C inlet. Paper: 41 C
// peak; our reconstruction lands in the upper 30s, because the exact
// POWER7+ power map is not public (chip/power7.h).
#include <cstdio>
#include <iostream>

#include "chip/power7.h"
#include "core/report.h"
#include "repro/figures.h"
#include "thermal/model.h"

namespace th = brightsi::thermal;
namespace ch = brightsi::chip;
namespace re = brightsi::repro;
using brightsi::core::TextTable;
using brightsi::core::print_ascii_map;

namespace {

/// Prints the reproduction; true when every paper verdict reads YES.
bool print_reproduction() {
  const auto floorplan = ch::make_power7_floorplan();
  // The solution the golden regression suite pins (tests/golden/fig9_*.csv).
  const th::ThermalSolution sol = re::fig9_thermal_solution();
  const re::FigureTable summary = re::fig9_thermal_summary(sol);

  std::printf("== E6: Fig. 9 full-load thermal map ==\n");
  std::printf("grid %d x %d x %d cells, total power %.1f W, coolant 676 ml/min @ 27 C\n",
              sol.temperature_k.nx(), sol.temperature_k.ny(), sol.temperature_k.nz(),
              floorplan.total_power());

  const std::vector<double>& stats = summary.rows.front();
  TextTable table({"quantity", "model", "paper", "unit"});
  table.add_row({"peak temperature", TextTable::num(stats[1], 1), "41", "C"});
  table.add_row({"fluid heat absorbed", TextTable::num(stats[2], 1), "(all)", "W"});
  table.add_row({"energy balance error", TextTable::num(stats[3], 4), "-", "%"});
  table.add_row({"mean outlet temperature", TextTable::num(stats[4], 2), "-", "C"});
  table.print(std::cout);

  std::printf("\nper-block temperatures (C):\n");
  const re::FigureTable block_table = re::fig9_block_table(sol);
  TextTable blocks({"block", "mean", "max"});
  for (std::size_t b = 0; b < block_table.rows.size(); ++b) {
    blocks.add_row({block_table.labels[b], TextTable::num(block_table.rows[b][0], 1),
                    TextTable::num(block_table.rows[b][1], 1)});
  }
  blocks.print(std::cout);

  // Celsius map for display.
  auto map_c = sol.source_layer_map_k();
  for (double& v : map_c.data()) {
    v -= 273.15;
  }
  std::printf("\n");
  print_ascii_map(std::cout, map_c, "die temperature map (active layer)", "C");

  const double peak_c = sol.peak_temperature_k - 273.15;
  const bool reproduced = peak_c > 34.0 && peak_c < 43.0 && sol.peak_iz == 0;
  std::printf("\nreproduced (peak in the 34-43 C liquid-cooled band, cores hottest near"
              " outlet): %s\n", reproduced ? "YES" : "NO");

  const std::string path = brightsi::core::write_results_file(
      "fig9_thermal_map.csv", [&](std::ostream& os) {
        brightsi::core::write_field_csv(os, map_c, ch::kPower7DieWidthM,
                                        ch::kPower7DieHeightM);
      });
  if (!path.empty()) {
    std::printf("field written to %s\n", path.c_str());
  }
  std::printf("\n");
  return reproduced;
}

}  // namespace

int main() { return print_reproduction() ? 0 : 1; }
