// E3/E4 — Reproduction of Fig. 7 (+ Table II echo): voltage-current
// characteristic of the 88-channel microfluidic flow-cell array on the
// POWER7+. Headline: the array sources 6 A at a 1 V bus, adequate for the
// 5 A cache rail.
#include <cstdio>
#include <iostream>

#include "core/report.h"
#include "electrochem/vanadium.h"
#include "flowcell/cell_array.h"
#include "repro/figures.h"

namespace fc = brightsi::flowcell;
namespace ec = brightsi::electrochem;
namespace re = brightsi::repro;
using brightsi::core::TextTable;

namespace {

/// Prints the reproduction; true when every paper verdict reads YES.
bool print_reproduction() {
  const auto spec = fc::power7_array_spec();
  const auto chemistry = ec::power7_array_chemistry();
  const fc::FlowCellArray array(spec, chemistry);

  std::printf("== E4: Table II echo (POWER7+ array) ==\n");
  TextTable params({"parameter", "value", "unit"});
  params.add_row({"channels", std::to_string(spec.channel_count), "-"});
  params.add_row({"channel width", TextTable::num(spec.geometry.electrode_gap_m * 1e6, 0), "um"});
  params.add_row({"channel height", TextTable::num(spec.geometry.channel_height_m * 1e6, 0), "um"});
  params.add_row({"channel length", TextTable::num(spec.geometry.channel_length_m * 1e3, 0), "mm"});
  params.add_row({"total flow", TextTable::num(spec.total_flow_m3_per_s * 60e6, 0), "ml/min"});
  params.add_row({"inlet temperature", TextTable::num(spec.inlet_temperature_k, 0), "K"});
  const auto h = array.hydraulics_at_spec_flow();
  params.add_row({"mean velocity", TextTable::num(h.mean_velocity_m_per_s, 2), "m/s"});
  params.add_row({"Reynolds", TextTable::num(h.reynolds, 0), "-"});
  params.add_row({"array OCV", TextTable::num(array.open_circuit_voltage(), 3), "V"});
  params.print(std::cout);

  std::printf("\n== E3: Fig. 7 array V-I characteristic ==\n");
  // The rows the golden regression suite pins (tests/golden/fig7.csv).
  TextTable table({"V (V)", "I (A)", "P (W)", "i (A/cm2)"});
  const double area_cm2 =
      spec.geometry.projected_electrode_area_m2() * spec.channel_count * 1e4;
  for (const auto& row : re::fig7_array_vi_table().rows) {
    table.add_row({TextTable::num(row[0], 2), TextTable::num(row[1], 2),
                   TextTable::num(row[2], 2), TextTable::num(row[3], 3)});
  }
  table.print(std::cout);

  const double i_at_1v = array.current_at_voltage(1.0);
  std::printf("\ncurrent at 1.0 V: %.2f A  [paper: 6 A; cache rail demand: 5 A]\n", i_at_1v);
  std::printf("power density at 1.0 V: %.3f W/cm2  [paper cites 0.7 W/cm2 state of the art]\n",
              i_at_1v * 1.0 / area_cm2);
  const bool reproduced = std::abs(i_at_1v - 6.0) < 0.6 && i_at_1v >= 5.0;
  std::printf("reproduced (6 A +/- 10%%, >= 5 A rail): %s\n", reproduced ? "YES" : "NO");

  const std::string path = brightsi::core::write_results_file(
      "fig7_array_vi.csv", [&](std::ostream& os) {
        os << "cell_voltage_v,current_a,power_w\n";
        for (double v = 1.64; v >= 0.1; v -= 0.02) {
          const double current = array.current_at_voltage(v);
          os << v << "," << current << "," << current * v << "\n";
        }
      });
  if (!path.empty()) {
    std::printf("series written to %s\n", path.c_str());
  }
  std::printf("\n");
  return reproduced;
}

}  // namespace

int main() { return print_reproduction() ? 0 : 1; }
