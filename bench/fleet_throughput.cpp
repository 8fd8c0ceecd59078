// Fleet-level steady rack throughput: repeated solves of an 8-chip
// heterogeneous rack on two shared coolant loops (fleet/rack.h) — the unit
// of work of every fleet_rack sweep scenario and rack_topology optimizer
// candidate. The staggered trace replay of the same rack is measured by
// perfbench's fleet_replay workload (perfbench/README.md).
//
// Prints a human-readable summary and writes BENCH_fleet.json (schema in
// docs/BENCHMARKS.md): rack shape, per-chip segment inlet temperatures
// (rising along every serial loop segment) and steady racks/s. An optional
// argument overrides the JSON path.
#include <cstdio>
#include <optional>
#include <string>
#include <utility>

#include "core/system_config.h"
#include "fleet/rack.h"
#include "harness.h"

namespace bh = brightsi::bench;
namespace co = brightsi::core;
namespace fl = brightsi::fleet;

namespace {

constexpr int kChips = 8;
constexpr int kLoops = 2;
constexpr int kSegmentsPerLoop = 2;

/// The benched rack: 8 chips on 2 loops x 2 serial segments, mixed one- and
/// two-die stacks, temperature-dependent coolant.
fl::RackSpec bench_rack() {
  co::SystemConfig base = co::power7_system_config();
  base.thermal_grid.axial_cells = 8;  // the fleet plans' resolution
  fl::RackSpec rack = fl::make_demo_rack(base, kChips, kLoops, kSegmentsPerLoop,
                                         /*heterogeneous=*/true);
  rack.coolant_laws.temperature_dependent = true;
  rack.coolant_laws.reference_temperature_k = rack.loop_inlet_temperature_k;
  return rack;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<std::string> json_path =
      bh::json_path_argument(argc, argv, "BENCH_fleet.json");
  if (!json_path) {
    return 2;
  }
  const fl::RackSpec rack = bench_rack();

  std::printf("== fleet throughput: %d chips, %d loops x %d serial segments,"
              " heterogeneous, temp-dependent coolant ==\n",
              kChips, kLoops, kSegmentsPerLoop);
  fl::RackSolveResult last;
  const bh::Repeats steady =
      bh::repeat_until_stable([&] { return fl::solve_rack_steady(rack); },
                              [&](fl::RackSolveResult result) { last = std::move(result); });
  std::printf("steady: %d rack solves in %.3f s -> %.3f racks/s\n", steady.runs,
              steady.wall_s, steady.runs_per_s());
  std::printf("peak %.2f C, pump %.3f W, heat %.1f W, energy balance %.1e\n",
              last.peak_temperature_k - 273.15, last.pump_power_w, last.heat_absorbed_w,
              last.energy_balance_rel_error);
  for (const fl::RackChipResult& c : last.chips) {
    std::printf("  %-6s loop %d seg %d  inlet %.3f K  flow %.3f  peak %.2f C\n",
                c.name.c_str(), c.loop, c.segment, c.inlet_temperature_k, c.flow_fraction,
                c.peak_temperature_k - 273.15);
  }
  std::printf("inlet rise along loops: %.3f K, monotonic: %s\n\n", last.max_inlet_rise_k,
              last.inlet_monotonic ? "yes" : "NO");

  bh::FlatJson json("fleet_throughput");
  json.set("chips", kChips);
  json.set("loops", kLoops);
  json.set("segments_per_loop", kSegmentsPerLoop);
  json.set("max_inlet_rise_k", last.max_inlet_rise_k);
  json.set("energy_balance_rel_error", last.energy_balance_rel_error);
  for (const fl::RackChipResult& c : last.chips) {
    json.set("chip_inlets_k." + c.name, c.inlet_temperature_k);
  }
  json.set("steady.runs", steady.runs);
  json.set("steady.wall_s", steady.wall_s);
  json.set("steady.racks_per_s", steady.runs_per_s());
  json.set("steady.peak_t_c", last.peak_temperature_k - 273.15);
  json.set("steady.pump_w", last.pump_power_w);
  json.set("steady.fluid_heat_w", last.heat_absorbed_w);
  return json.write(*json_path) ? 0 : 1;
}
