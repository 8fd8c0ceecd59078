// Transient stepping, full-grid vs certified reduced-order backend: the
// same endurance-shaped workload (the burst trace repeated long enough to
// amortize the reduced basis build) stepped once through the full-grid
// TransientEngine and once through the reduced backend, reporting both
// arms plus the steps-per-second speedup and the reduced arm's certificate
// trail. Whole missions (core::run_mission) are measured by perfbench's
// mission_store workload (perfbench/README.md).
//
// Prints a human-readable summary and writes BENCH_mission.json (schema in
// docs/BENCHMARKS.md). An optional argument overrides the JSON path.
#include <cstdio>
#include <optional>
#include <string>

#include "chip/power7.h"
#include "core/system_config.h"
#include "harness.h"
#include "thermal/transient.h"

namespace bh = brightsi::bench;
namespace ch = brightsi::chip;
namespace co = brightsi::core;
namespace th = brightsi::thermal;

namespace {

/// One arm of the comparison: the TransientEngine stepped directly on the
/// burst trace repeated `repeats` times, so the reduced basis build
/// amortizes the way a long mission amortizes it. Wall time includes engine
/// construction and, for the reduced arm, every basis build and fallback
/// solve.
struct EngineMeasurement {
  int repeats = 0;
  long long steps = 0;
  double wall_s = 0.0;
  th::RomStats rom;  ///< zero-initialized on the full arm

  [[nodiscard]] double steps_per_s() const { return wall_s > 0.0 ? steps / wall_s : 0.0; }
};

EngineMeasurement measure_endurance_engine(th::TransientBackend backend, int repeats) {
  co::SystemConfig sys = co::power7_system_config();
  sys.thermal_grid.axial_cells = 8;
  const ch::Floorplan floorplan = ch::make_power7_floorplan(sys.power_spec);
  const th::ThermalModel model(sys.stack, floorplan.die_width(), floorplan.die_height(),
                               sys.thermal_grid);
  const ch::WorkloadTrace trace(ch::burst_trace(1).phases(), repeats);

  EngineMeasurement m;
  m.repeats = repeats;
  const bh::Clock::time_point start = bh::Clock::now();
  th::TransientEngineOptions options;
  options.schedule.dt_s = 0.07;
  options.backend = backend;
  th::TransientEngine engine(model, sys.thermal_operating_point(), options);
  engine.run(trace, sys.power_spec, [](const th::TransientEngine::StepView&) {});
  m.wall_s = bh::seconds_since(start);
  m.steps = engine.steps_taken();
  if (engine.rom() != nullptr) {
    m.rom = engine.rom()->stats();
  }
  return m;
}

void print_engine_measurement(th::TransientBackend backend, const EngineMeasurement& m) {
  std::printf("-- %s --\n", th::transient_backend_name(backend));
  std::printf("%lld steps (burst trace x%d) in %.3f s -> %.1f steps/s (mean %.3f ms/step)\n",
              m.steps, m.repeats, m.wall_s, m.steps_per_s(), 1e3 * m.wall_s / m.steps);
  if (m.rom.rom_steps + m.rom.full_steps > 0) {
    std::printf("reduced: %lld rom steps (%.4f ms each), %lld fallbacks, basis %d,"
                " build %.3f s, max bound %.4f K, cumulative %.4f K\n",
                m.rom.rom_steps, 1e3 * m.rom.step_time_s / m.rom.rom_steps,
                m.rom.full_steps, m.rom.basis_size, m.rom.build_time_s,
                m.rom.max_accepted_bound_k, m.rom.cumulative_bound_k);
  }
}

void add_engine_fields(bh::FlatJson& json, const std::string& prefix,
                       const EngineMeasurement& m) {
  json.set(prefix + "repeats", m.repeats);
  json.set(prefix + "steps", m.steps);
  json.set(prefix + "wall_s", m.wall_s);
  json.set(prefix + "steps_per_s", m.steps_per_s());
  json.set(prefix + "rom_steps", m.rom.rom_steps);
  json.set(prefix + "rom_fallbacks", m.rom.full_steps);
  json.set(prefix + "rom_basis_size", m.rom.basis_size);
  json.set(prefix + "rom_build_time_s", m.rom.build_time_s);
  json.set(prefix + "rom_max_bound_k", m.rom.max_accepted_bound_k);
  json.set(prefix + "rom_cumulative_bound_k", m.rom.cumulative_bound_k);
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<std::string> json_path =
      bh::json_path_argument(argc, argv, "BENCH_mission.json");
  if (!json_path) {
    return 2;
  }

  // The reduced arm runs the trace long enough to amortize its basis build,
  // the full arm long enough for a stable per-step time.
  std::printf("== endurance engine stepping: full vs rom ==\n");
  const EngineMeasurement full =
      measure_endurance_engine(th::TransientBackend::kFull, /*repeats=*/2);
  print_engine_measurement(th::TransientBackend::kFull, full);
  const EngineMeasurement rom =
      measure_endurance_engine(th::TransientBackend::kRom, /*repeats=*/96);
  print_engine_measurement(th::TransientBackend::kRom, rom);
  const double speedup = rom.steps_per_s() / full.steps_per_s();
  std::printf("steps/s rom/full: %.2fx\n\n", speedup);

  bh::FlatJson json("mission_throughput");
  add_engine_fields(json, "endurance_engine.full.", full);
  add_engine_fields(json, "endurance_engine.rom.", rom);
  json.set("endurance_engine.speedup_rom_over_full", speedup);
  return json.write(*json_path) ? 0 : 1;
}
