// Tall-stack thermal solver comparison: repeated
// IntegratedMpsocSystem::run() on an 8-die interlayer-cooled stack with
// roughly 8x the two-die system's z-cell count (the regime multigrid
// targets), measured once with the ilu0 and once with the mg
// preconditioner on identical work, so the reported iteration and
// thermal-time ratios are paired. Stacks of one to three dies on the
// default solver are measured by perfbench's opt_stack_pareto workload
// (perfbench/README.md).
//
// Prints a human-readable summary and writes BENCH_stack3d.json (schema in
// docs/BENCHMARKS.md). An optional argument overrides the JSON path.
#include <cstdio>
#include <optional>
#include <string>

#include "chip/power7.h"
#include "core/cosim.h"
#include "harness.h"

namespace bh = brightsi::bench;
namespace co = brightsi::core;
namespace th = brightsi::thermal;

namespace {

/// Work counters summed over the measured runs of one solver arm.
struct Measurement {
  bh::Repeats repeats;
  long long thermal_solves = 0;
  long long thermal_iterations = 0;
  double thermal_assembly_s = 0.0;
  double thermal_setup_s = 0.0;
  double thermal_solve_s = 0.0;
  int dies = 0;
  int channel_layers = 0;

  [[nodiscard]] double per_run(double total) const { return total / repeats.runs; }
  /// Preconditioner setup + Krylov iteration time per run — the solver
  /// cost the ilu0-vs-mg comparison is about.
  [[nodiscard]] double thermal_time_per_run_s() const {
    return per_run(thermal_setup_s + thermal_solve_s);
  }
};

/// The multigrid target regime: an 8-die interlayer-cooled stack whose
/// operator has ~8x the z-cells of the default two-die system. Here
/// ILU(0)'s iteration count has grown ~3x over the two-die system while
/// the multigrid count stays flat, so mg wins both metrics.
co::SystemConfig tall_stack_config(th::SolverKind kind) {
  co::SystemConfig config = co::two_die_system_config();
  config.thermal_grid.axial_cells = 16;
  config.stack = th::multi_die_stack(/*die_count=*/8, /*interlayer_cooling=*/true,
                                     /*bulk_z_cells=*/16);
  config.upper_die_power.assign(7, brightsi::chip::memory_die_power_spec());
  config.thermal_grid.solver_config.kind = kind;
  config.validate();
  return config;
}

Measurement measure_tall_stack(th::SolverKind kind) {
  const co::IntegratedMpsocSystem system(tall_stack_config(kind));
  Measurement m;
  m.repeats = bh::repeat_until_stable([&] { return system.run(); },
                                      [&](const co::CoSimReport& report) {
                                        m.thermal_solves += report.thermal_solves;
                                        m.thermal_iterations += report.thermal_iterations;
                                        m.thermal_assembly_s += report.thermal_assembly_time_s;
                                        m.thermal_setup_s += report.thermal_setup_time_s;
                                        m.thermal_solve_s += report.thermal_solve_time_s;
                                        m.dies = report.die_count;
                                        m.channel_layers =
                                            static_cast<int>(report.layer_flows.size());
                                      });
  return m;
}

void print_measurement(th::SolverKind kind, const Measurement& m) {
  const bh::Repeats& r = m.repeats;
  std::printf("-- %s --\n", th::solver_kind_name(kind));
  std::printf("%d runs in %.3f s -> %.3f runs/s (mean %.3f s/run)\n", r.runs, r.wall_s,
              r.runs_per_s(), m.per_run(r.wall_s));
  std::printf("thermal: %.1f solves/run, %.1f BiCGSTAB iterations/run\n",
              m.per_run(m.thermal_solves), m.per_run(m.thermal_iterations));
  std::printf("time split per run: assembly %.1f ms, setup %.1f ms, krylov %.1f ms,"
              " other %.1f ms\n",
              1e3 * m.per_run(m.thermal_assembly_s), 1e3 * m.per_run(m.thermal_setup_s),
              1e3 * m.per_run(m.thermal_solve_s),
              1e3 * m.per_run(r.wall_s - m.thermal_assembly_s - m.thermal_setup_s -
                              m.thermal_solve_s));
}

void add_measurement_fields(bh::FlatJson& json, const std::string& prefix,
                            const Measurement& m) {
  json.set(prefix + "runs", m.repeats.runs);
  json.set(prefix + "wall_s", m.repeats.wall_s);
  json.set(prefix + "runs_per_s", m.repeats.runs_per_s());
  json.set(prefix + "mean_run_s", m.per_run(m.repeats.wall_s));
  json.set(prefix + "mean_thermal_solves_per_run", m.per_run(m.thermal_solves));
  json.set(prefix + "mean_bicgstab_iterations_per_run", m.per_run(m.thermal_iterations));
  json.set(prefix + "thermal_assembly_s_per_run", m.per_run(m.thermal_assembly_s));
  json.set(prefix + "thermal_setup_s_per_run", m.per_run(m.thermal_setup_s));
  json.set(prefix + "thermal_solve_s_per_run", m.per_run(m.thermal_solve_s));
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<std::string> json_path =
      bh::json_path_argument(argc, argv, "BENCH_stack3d.json");
  if (!json_path) {
    return 2;
  }

  std::printf("== tall stack (8 dies, 16-cell bulk): ilu0 vs mg ==\n");
  const Measurement ilu0 = measure_tall_stack(th::SolverKind::kIlu0);
  print_measurement(th::SolverKind::kIlu0, ilu0);
  const Measurement mg = measure_tall_stack(th::SolverKind::kMultigrid);
  print_measurement(th::SolverKind::kMultigrid, mg);
  const double iteration_ratio =
      ilu0.per_run(ilu0.thermal_iterations) / mg.per_run(mg.thermal_iterations);
  const double thermal_time_speedup = ilu0.thermal_time_per_run_s() / mg.thermal_time_per_run_s();
  std::printf("iterations ilu0/mg: %.2fx, thermal time ilu0/mg: %.2fx\n\n", iteration_ratio,
              thermal_time_speedup);

  bh::FlatJson json("stack3d_throughput");
  json.set("tall_stack.dies", ilu0.dies);
  json.set("tall_stack.channel_layers", ilu0.channel_layers);
  add_measurement_fields(json, "tall_stack.ilu0.", ilu0);
  add_measurement_fields(json, "tall_stack.mg.", mg);
  json.set("tall_stack.iteration_ratio_ilu0_over_mg", iteration_ratio);
  json.set("tall_stack.thermal_time_speedup_ilu0_over_mg", thermal_time_speedup);
  return json.write(*json_path) ? 0 : 1;
}
