// Benchmark workloads of the brightsi library. Builds one workload's inputs
// from a seed, drives the library as a single-process closed-loop batch job
// (the next pass starts when the previous one finishes) for a fixed wall
// time, checks the outputs, and prints one JSON object on stdout.
//
//   perfbench_workloads --workload NAME --seed N --seconds S --trace 0|1 --work-dir DIR
//   perfbench_workloads --workload NAME --seed N --describe
//
// --trace 0 times the real program and reports the end-to-end metrics.
// --trace 1 runs each pass twice on one worker, once through the real
// program and once through the traced replicas (replay.h), requires the
// two to agree bit for bit, and reports the per-layer metrics.
// --describe prints the generated (and validated) inputs and exits.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "chip/power7.h"
#include "chip/workload.h"
#include "core/system_config.h"
#include "fleet/rack.h"
#include "opt/nsga2.h"
#include "opt/studies.h"
#include "replay.h"
#include "sweep/evaluators.h"
#include "sweep/execution.h"
#include "sweep/result_store.h"
#include "sweep/runner.h"
#include "thermal/model.h"
#include "trace.h"

namespace co = brightsi::core;
namespace fl = brightsi::fleet;
namespace op = brightsi::opt;
namespace sw = brightsi::sweep;
namespace th = brightsi::thermal;
namespace fs = std::filesystem;

namespace perfbench {
namespace {

constexpr int kSetupRepeats = 3;  // before the measured loop; then one per pass
constexpr int kTimedWorkers = 2;  // mission_store and opt_stack_pareto

// Fleet replay shape: the BENCH_fleet rack, replayed for kFleetSteps steps.
constexpr int kFleetChips = 8;
constexpr int kFleetLoops = 2;
constexpr int kFleetSegments = 2;
constexpr int kFleetSteps = 12;
constexpr int kFleetAnchorSteps = 4;
constexpr double kFleetDt = 0.05;

// NSGA-II on stack_pareto: kOptRuns seeded searches per pass, each at a
// fixed budget.
constexpr int kOptRuns = 8;
constexpr int kOptBudget = 48;
constexpr int kOptPopulation = 8;
// Hypervolume reference corner: net power (W) below every front of
// interest, peak temperature at the study's 360 K cap (C).
constexpr double kHvRefNetW = -10.0;
constexpr double kHvRefPeakC = 86.85;

/// SplitMix64: the benchmark's only source of input variation.
class SeededRng {
 public:
  explicit SeededRng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  /// Uniform in [lo, hi], rounded to a multiple of `step`.
  double uniform(double lo, double hi, double step) {
    const double u = static_cast<double>(next() >> 11) * 0x1.0p-53;
    return std::round((lo + (hi - lo) * u) / step) * step;
  }

 private:
  std::uint64_t state_;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool describe = false;
  fs::path work_dir = ".";
};

/// Everything one invocation reports.
struct Report {
  std::map<std::string, double> metrics;
  std::map<std::string, double> anchors;  ///< compared against reference.json
  std::string inputs;                      ///< JSON of the generated inputs
  long long attempted = 0;                 ///< rows evaluated + checks made
  std::vector<std::string> failures;

  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      failures.push_back(what);
    }
  }

  void count_rows(const std::vector<sw::ScenarioResult>& rows) {
    for (const sw::ScenarioResult& row : rows) {
      ++attempted;
      if (row.failed) {
        failures.push_back("row '" + row.name + "' failed: " + row.error);
      }
    }
  }
};

const std::vector<std::string>& layer_metric_names() {
  static const std::vector<std::string> names = {
      "flowcell.array_evals",   "flowcell.solve_s",
      "thermal.steady_solves",  "thermal.steady_s",
      "thermal.krylov_iterations", "thermal.assembly_s",
      "thermal.precond_setup_s", "thermal.krylov_s",
      "thermal.transient_steps", "thermal.transient_s",
      "thermal.model_builds",   "thermal.model_build_s",
      "pdn.solves",             "pdn.solve_s",
      "pdn.cg_iterations",      "hydraulics.splits",
      "hydraulics.split_s",     "core.cosim_iterations",
      "core.mission_bus_s",     "fleet.chip_steps_per_s",
      "sweep.structure_cache_hit_fraction",
      "sweep.trajectory_hits",  "sweep.backend_overhead_s",
      "sweep.store_hits",       "sweep.store_bytes",
      "sweep.resume_rows_per_s", "opt.evaluations",
      "opt.generations",        "opt.surrogate_screen_rate",
      "opt.front_hypervolume",
      "unattributed_fraction",  "tracing_overhead_fraction",
  };
  return names;
}

/// The layers spans are booked to; each reports `<layer>.self_s`.
const std::vector<std::string>& layers() {
  static const std::vector<std::string> names = {
      "thermal", "flowcell", "pdn", "hydraulics", "core", "fleet", "sweep", "opt"};
  return names;
}

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

/// Percentile with linear interpolation between closest ranks.
double percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string csv_of(const sw::SweepResult& result) {
  std::ostringstream os;
  sw::write_sweep_csv(os, result);
  return os.str();
}

double metric_of(const sw::SweepEvaluator& evaluator, const sw::ScenarioResult& row,
                 const std::string& name) {
  const auto it = std::find(evaluator.metrics.begin(), evaluator.metrics.end(), name);
  if (it == evaluator.metrics.end() || row.metrics.size() != evaluator.metrics.size()) {
    throw std::logic_error("no metric '" + name + "' in evaluator " + evaluator.name);
  }
  return row.metrics[static_cast<std::size_t>(it - evaluator.metrics.begin())];
}

/// Bitwise row-by-row agreement of two runs of one plan; names the first
/// disagreeing metric.
void expect_same_rows(const std::vector<sw::ScenarioResult>& expected,
                      const std::vector<sw::ScenarioResult>& actual,
                      const sw::SweepEvaluator& evaluator, const std::string& what,
                      Report& report) {
  if (expected.size() != actual.size()) {
    report.expect(false, what + ": row counts differ");
    return;
  }
  for (std::size_t r = 0; r < expected.size(); ++r) {
    for (std::size_t m = 0; m < evaluator.metrics.size(); ++m) {
      const bool same = expected[r].metrics.size() == actual[r].metrics.size() &&
                        expected[r].metrics[m] == actual[r].metrics[m];
      if (!same) {
        report.expect(false, what + ": '" + evaluator.metrics[m] + "' differs on row '" +
                                 expected[r].name + "'");
        return;
      }
    }
  }
  report.expect(true, what);
}

std::shared_ptr<const th::ThermalModel> build_model(const co::SystemConfig& config) {
  const brightsi::chip::Floorplan primary = brightsi::chip::make_power7_floorplan(config.power_spec);
  return std::make_shared<const th::ThermalModel>(config.stack, primary.die_width(),
                                                  primary.die_height(), config.thermal_grid);
}

sw::SweepOptions workers(int count) {
  sw::SweepOptions options;
  options.thread_count = count;
  return options;
}

std::shared_ptr<sw::ExecutionBackend> shard_backend(const fs::path& dir, const std::string& scope,
                                                    int worker_count) {
  sw::ShardOptions options;
  options.store_dir = dir.string();
  options.scope = scope;
  options.local = workers(worker_count);
  return sw::make_shard_backend(options);
}

std::uintmax_t directory_bytes(const fs::path& dir) {
  std::uintmax_t bytes = 0;
  for (const fs::directory_entry& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) {
      bytes += entry.file_size();
    }
  }
  return bytes;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
      out += buffer;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string scenario_names_json(const sw::SweepPlan& plan) {
  std::string out = "[";
  for (std::size_t i = 0; i < plan.scenarios.size(); ++i) {
    out += (i > 0 ? ", " : "") + json_string(plan.scenarios[i].name);
  }
  return out + "]";
}

/// A workload's one-time preparation, timed. The program runs on the
/// inputs of the first, timed, preparation. The preparation is then
/// repeated kSetupRepeats times before the measured loop and once after
/// every pass, each copy discarded, and setup_s is the median of all the
/// samples: a preparation takes a few milliseconds, so one sample, or a
/// few taken together, can fall inside one burst of machine load.
template <typename Inputs>
class TimedSetup {
 public:
  explicit TimedSetup(std::function<Inputs()> prepare)
      : prepare_(std::move(prepare)), inputs_(timed_prepare()) {
    for (int i = 0; i < kSetupRepeats; ++i) {
      repeat();
    }
  }

  void repeat() { (void)timed_prepare(); }

  [[nodiscard]] const Inputs& inputs() const { return inputs_; }

  void report_to(Report& report) const { report.metrics["setup_s"] = median(samples_); }

 private:
  Inputs timed_prepare() {
    const auto start = Clock::now();
    Inputs inputs = prepare_();
    samples_.push_back(seconds_since(start));
    return inputs;
  }

  std::function<Inputs()> prepare_;
  std::vector<double> samples_;  // before inputs_: its initializer appends here
  Inputs inputs_;
};

/// Closed-loop pass accounting of the timed runs. Row latency is kept per
/// scenario: a scenario's latency is the median over the passes that ran
/// it, and row_p50_ms / row_p90_ms are percentiles across scenarios. A
/// burst of machine load that slows some rows of some passes then moves
/// neither, while a scenario that is slower in every pass moves both.
struct Passes {
  std::vector<double> rows_per_s;           ///< one sample per pass
  std::vector<std::vector<double>> row_ms;  ///< per scenario, one sample per pass
  std::vector<double> extra;                ///< workload-specific, one per pass

  void add_row(std::size_t scenario, double ms) {
    if (row_ms.size() <= scenario) {
      row_ms.resize(scenario + 1);
    }
    row_ms[scenario].push_back(ms);
  }

  void report_to(Report& report) const {
    std::vector<double> latencies;
    for (const std::vector<double>& samples : row_ms) {
      latencies.push_back(median(samples));
    }
    report.metrics["rows_per_s"] = median(rows_per_s);
    report.metrics["row_p50_ms"] = percentile(latencies, 50.0);
    report.metrics["row_p90_ms"] = percentile(latencies, 90.0);
    report.metrics["row_samples"] = static_cast<double>(latencies.size());
    report.metrics["passes"] = static_cast<double>(rows_per_s.size());
  }
};

/// Runs `pass` until `seconds` of wall time are used (at least once).
void closed_loop(double seconds, const std::function<void()>& pass) {
  const auto start = Clock::now();
  do {
    pass();
  } while (seconds_since(start) < seconds);
}

/// Per-layer metrics of one traced pass: the tracer's counters, layer self
/// times, and the attribution gauge over the pass's wall time.
std::map<std::string, double> layer_metrics(const Tracer& tracer, double traced_wall_s,
                                            double untraced_wall_s) {
  std::map<std::string, double> metrics;
  for (const std::string& name : layer_metric_names()) {
    metrics[name] = 0.0;
  }
  for (const std::string& layer : layers()) {
    metrics[layer + ".self_s"] = 0.0;
  }
  for (const auto& [name, value] : tracer.metrics()) {
    if (metrics.count(name) == 0) {
      throw std::logic_error("tracer counter '" + name + "' is not a declared layer metric");
    }
    metrics[name] = value;
  }
  double attributed_s = 0.0;
  double reference_s = 0.0;
  for (const auto& [layer, self_s] : tracer.self_s()) {
    if (layer == Tracer::kReference) {
      reference_s += self_s;
      continue;
    }
    if (metrics.count(layer + ".self_s") == 0) {
      throw std::logic_error("span layer '" + layer + "' is not a declared layer");
    }
    metrics[layer + ".self_s"] = self_s;
    attributed_s += self_s;
  }
  const double program_s = traced_wall_s - reference_s;
  metrics["unattributed_fraction"] =
      std::clamp((program_s - attributed_s) / program_s, 0.0, 1.0);
  metrics["tracing_overhead_fraction"] = program_s / untraced_wall_s - 1.0;
  return metrics;
}

/// Runs traced iterations until `seconds` are used and reports each
/// metric's median across iterations.
void traced_loop(double seconds, const std::function<std::map<std::string, double>()>& pass,
                 Report& report) {
  std::map<std::string, std::vector<double>> samples;
  closed_loop(seconds, [&] {
    for (const auto& [name, value] : pass()) {
      samples[name].push_back(value);
    }
  });
  for (const auto& [name, values] : samples) {
    report.metrics[name] = median(values);
  }
}

// ------------------------------------------------------------- cosim_grid

/// The operating_grid shape at 16 axial cells: the paper's spec point
/// (676 ml/min, 27 C) plus three seeded flows x three seeded inlets.
sw::SweepPlan cosim_grid_plan(std::uint64_t seed) {
  SeededRng rng(seed);
  std::vector<double> flows = {676.0};
  std::vector<double> inlets = {27.0};
  // Redraw on a repeat, so every scenario of the grid is distinct.
  auto draw_distinct = [&](std::vector<double>& axis, double lo, double hi, double step) {
    while (axis.size() < 4) {
      const double value = rng.uniform(lo, hi, step);
      if (std::find(axis.begin(), axis.end(), value) == axis.end()) {
        axis.push_back(value);
      }
    }
  };
  draw_distinct(flows, 48.0, 1500.0, 1.0);
  draw_distinct(inlets, 27.5, 50.0, 0.1);
  sw::SweepPlan plan;
  plan.name = "perfbench_cosim_grid";
  plan.base = co::power7_system_config();
  plan.base.thermal_grid.axial_cells = 16;
  plan.evaluator = sw::cosim_evaluator();
  plan.add_grid({{"flow_ml_min", flows}, {"inlet_c", inlets}});
  plan.validate();
  return plan;
}

/// The spec-point row (the plan's first), evaluated on its own.
void cosim_grid_anchor(const sw::SweepPlan& plan, Report& report) {
  sw::WorkerState worker;
  const sw::ScenarioResult row =
      sw::evaluate_scenario(plan.base, plan.evaluator, plan.scenarios.front(), worker);
  report.count_rows({row});
  for (const char* name :
       {"peak_t_c", "bus_v", "array_current_a", "rail_min_v", "coupled_current_a", "net_w"}) {
    report.anchors[name] = metric_of(plan.evaluator, row, name);
  }
}

void run_cosim_grid(const Options& options, Report& report) {
  TimedSetup<sw::SweepPlan> setup([&] {
    sw::SweepPlan built = cosim_grid_plan(options.seed);
    (void)build_model(built.base);
    return built;
  });
  const sw::SweepPlan& plan = setup.inputs();
  const double rows = static_cast<double>(plan.scenarios.size());

  if (!options.trace) {
    Passes passes;
    std::string first_csv;
    closed_loop(options.seconds, [&] {
      const auto start = Clock::now();
      const sw::SweepResult result = sw::SweepRunner(workers(1)).run(plan);
      passes.rows_per_s.push_back(rows / seconds_since(start));
      report.count_rows(result.rows);
      for (std::size_t r = 0; r < result.rows.size(); ++r) {
        const sw::ScenarioResult& row = result.rows[r];
        passes.add_row(r, row.elapsed_s * 1e3);
        report.expect(row.failed || metric_of(plan.evaluator, row, "converged") == 1.0,
                      "cosim row '" + row.name + "' did not converge");
      }
      const std::string csv = csv_of(result);
      if (first_csv.empty()) {
        first_csv = csv;
      }
      report.expect(csv == first_csv, "cosim_grid rows differ between passes");
      setup.repeat();
    });
    passes.report_to(report);
  } else {
    traced_loop(options.seconds, [&] {
      auto start = Clock::now();
      const sw::SweepResult real = sw::SweepRunner(workers(1)).run(plan);
      const double untraced_s = seconds_since(start);

      Tracer tracer;
      auto backend = std::make_shared<TracingBackend>(sw::make_local_backend(workers(1)), tracer,
                                                      traced_cosim_evaluator(tracer));
      start = Clock::now();
      Span sweep_span(tracer, "sweep");
      const sw::SweepResult traced = sw::SweepRunner(backend).run(plan);
      sweep_span.close();
      const double traced_s = seconds_since(start);

      report.count_rows(traced.rows);
      expect_same_rows(real.rows, traced.rows, plan.evaluator,
                       "cosim replica vs IntegratedMpsocSystem::run", report);
      std::map<std::string, double> metrics = layer_metrics(tracer, traced_s, untraced_s);
      metrics["sweep.structure_cache_hit_fraction"] =
          1.0 - backend->stats().model_builds / rows;
      return metrics;
    }, report);
  }
  setup.report_to(report);
  cosim_grid_anchor(plan, report);
}

// ----------------------------------------------------------- fleet_replay

/// The BENCH_fleet rack: 8 mixed one- and two-die chips on 2 loops x 2
/// serial segments with temperature-dependent coolant. Staggers are seeded
/// unless given.
fl::RackSpec fleet_rack(std::uint64_t seed, const std::vector<double>* staggers = nullptr) {
  co::SystemConfig base = co::power7_system_config();
  base.thermal_grid.axial_cells = 8;
  fl::RackSpec rack =
      fl::make_demo_rack(base, kFleetChips, kFleetLoops, kFleetSegments, /*heterogeneous=*/true);
  rack.coolant_laws.temperature_dependent = true;
  rack.coolant_laws.reference_temperature_k = rack.loop_inlet_temperature_k;
  SeededRng rng(seed);
  for (std::size_t i = 0; i < rack.chips.size(); ++i) {
    rack.chips[i].workload_offset_s =
        staggers != nullptr ? (*staggers)[i] : rng.uniform(0.0, 2.0, 0.01);
  }
  rack.validate();
  return rack;
}

fl::FleetReplayOptions fleet_options(int steps) {
  fl::FleetReplayOptions options;
  options.trace = brightsi::chip::burst_trace(1);
  options.dt_s = kFleetDt;
  options.steps = steps;
  return options;
}

void fleet_anchor(Report& report) {
  std::vector<double> staggers;
  for (int i = 0; i < kFleetChips; ++i) {
    staggers.push_back(0.5 * i);
  }
  const fl::FleetReplayResult result =
      fl::replay_fleet_trace(fleet_rack(0, &staggers), fleet_options(kFleetAnchorSteps));
  report.anchors["max_peak_c"] = result.max_peak_temperature_k - 273.15;
  report.anchors["heat_j"] = result.heat_absorbed_j;
  report.anchors["mean_pump_w"] = result.mean_pump_power_w;
}

void run_fleet_replay(const Options& options, Report& report) {
  TimedSetup<fl::RackSpec> setup([&] {
    fl::RackSpec built = fleet_rack(options.seed);
    // One model per structurally distinct chip (one- and two-die).
    (void)build_model(built.chips.front().system);
    for (const fl::RackChip& chip : built.chips) {
      if (!(chip.system.stack == built.chips.front().system.stack)) {
        (void)build_model(chip.system);
        break;
      }
    }
    return built;
  });
  const fl::RackSpec& rack = setup.inputs();
  const fl::FleetReplayOptions replay = fleet_options(kFleetSteps);
  const double chip_steps = static_cast<double>(rack.chips.size()) * kFleetSteps;

  auto check_replay = [&](const fl::FleetReplayResult& result,
                          const fl::FleetReplayResult& expected, const std::string& what) {
    report.expect(result.inlet_monotonic, what + ": inlet temperatures not monotonic");
    report.expect(result.max_peak_temperature_k == expected.max_peak_temperature_k,
                  what + ": max_peak_temperature_k differs");
    report.expect(result.heat_absorbed_j == expected.heat_absorbed_j,
                  what + ": heat_absorbed_j differs");
    report.expect(result.mean_pump_power_w == expected.mean_pump_power_w,
                  what + ": mean_pump_power_w differs");
    report.expect(result.max_inlet_rise_k == expected.max_inlet_rise_k,
                  what + ": max_inlet_rise_k differs");
  };

  if (!options.trace) {
    Passes passes;
    std::unique_ptr<fl::FleetReplayResult> first;
    closed_loop(options.seconds, [&] {
      const auto start = Clock::now();
      const fl::FleetReplayResult result = fl::replay_fleet_trace(rack, replay);
      const double wall_s = seconds_since(start);
      ++report.attempted;
      // One scenario, replayed once per pass: its percentiles are over the
      // replays.
      passes.add_row(passes.rows_per_s.size(), wall_s * 1e3);
      passes.rows_per_s.push_back(1.0 / wall_s);
      passes.extra.push_back(chip_steps / wall_s);
      if (first == nullptr) {
        first = std::make_unique<fl::FleetReplayResult>(result);
      }
      check_replay(result, *first, "fleet replay pass");
      setup.repeat();
    });
    passes.report_to(report);
    report.metrics["chip_steps_per_s"] = median(passes.extra);
  } else {
    traced_loop(options.seconds, [&] {
      auto start = Clock::now();
      const fl::FleetReplayResult real = fl::replay_fleet_trace(rack, replay);
      const double untraced_s = seconds_since(start);
      Tracer tracer;
      start = Clock::now();
      const fl::FleetReplayResult traced = traced_fleet_replay(rack, replay, tracer);
      const double traced_s = seconds_since(start);
      ++report.attempted;
      check_replay(traced, real, "fleet replica vs replay_fleet_trace");
      std::map<std::string, double> metrics = layer_metrics(tracer, traced_s, untraced_s);
      metrics["fleet.chip_steps_per_s"] = chip_steps / untraced_s;
      return metrics;
    }, report);
  }
  setup.report_to(report);
  fleet_anchor(report);
}

// ---------------------------------------------------------- mission_store

/// The mission_endurance axes (workload x flow x dt x tank, 48 missions).
/// Workload and step size keep the registered values; flow and tank keep
/// the registered first value and seed the others (a seeded step size
/// would set the step count, and with it the latency, per seed). Tank size, the one axis that leaves the thermal trajectory
/// unchanged, varies fastest over six values: each trajectory is then
/// recorded once per worker (two misses) and replayed four times on any
/// schedule, so the hit count does not depend on thread timing.
sw::SweepPlan mission_plan(std::uint64_t seed) {
  SeededRng rng(seed);
  std::vector<double> tanks = {2.0};
  while (tanks.size() < 6) {
    const double tank = rng.uniform(12.0, 30.0, 0.5);
    if (std::find(tanks.begin(), tanks.end(), tank) == tanks.end()) {
      tanks.push_back(tank);
    }
  }
  const double flow = rng.uniform(200.0, 600.0, 1.0);
  sw::SweepPlan plan;
  plan.name = "perfbench_mission_store";
  plan.base = co::power7_system_config();
  plan.base.thermal_grid.axial_cells = 8;
  plan.base.fvm.axial_steps = 60;
  plan.evaluator = sw::mission_evaluator();
  plan.add_grid({{"workload_kind", {0.0, 1.0}},
                 {"flow_ml_min", {676.0, flow}},
                 {"mission_dt_s", {0.1, 0.07}},
                 {"tank_ml", tanks}});
  plan.validate();
  return plan;
}

void mission_anchor(const sw::SweepPlan& plan, Report& report) {
  sw::WorkerState worker;
  const sw::ScenarioResult row =
      sw::evaluate_scenario(plan.base, plan.evaluator, plan.scenarios.front(), worker);
  report.count_rows({row});
  for (const char* name : {"final_soc", "energy_j", "max_peak_c", "min_bus_v"}) {
    report.anchors[name] = metric_of(plan.evaluator, row, name);
  }
}

void run_mission_store(const Options& options, Report& report) {
  // Each preparation creates its store in a directory of its own, so that
  // no sample times the removal of an earlier one.
  const fs::path setup_stores = options.work_dir / "setup_stores";
  int setup_index = 0;
  TimedSetup<sw::SweepPlan> setup([&] {
    sw::SweepPlan built = mission_plan(options.seed);
    (void)build_model(built.base);
    const sw::ResultStore store(
        (setup_stores / std::to_string(setup_index++)).string(),
        sw::StoreScope{built.name, built.evaluator.name, built.evaluator.metrics});
    return built;
  });
  const sw::SweepPlan& plan = setup.inputs();
  const double rows = static_cast<double>(plan.scenarios.size());
  int store_index = 0;

  // Cold pass into a fresh store, then a warm pass resuming from it.
  struct ColdWarm {
    sw::SweepResult cold;
    sw::SweepResult warm;
    double cold_s = 0.0;
    double warm_s = 0.0;
    std::uintmax_t store_bytes = 0;
  };
  auto cold_warm = [&](const std::function<std::shared_ptr<sw::ExecutionBackend>(
                           const fs::path&)>& make_backend) {
    const fs::path dir = options.work_dir / ("store_" + std::to_string(store_index++));
    fs::remove_all(dir);
    ColdWarm out;
    auto start = Clock::now();
    out.cold = sw::SweepRunner(make_backend(dir)).run(plan);
    out.cold_s = seconds_since(start);
    out.store_bytes = directory_bytes(dir);
    start = Clock::now();
    out.warm = sw::SweepRunner(make_backend(dir)).run(plan);
    out.warm_s = seconds_since(start);
    const std::string merged_csv = csv_of(sw::assemble_from_store(plan, dir.string()));
    fs::remove_all(dir);
    report.count_rows(out.cold.rows);
    report.expect(out.warm.exec.evaluated == 0, "warm mission pass evaluated rows");
    report.expect(out.warm.exec.store_hits == static_cast<long long>(plan.scenarios.size()),
                  "warm mission pass missed the store");
    report.expect(csv_of(out.warm) == csv_of(out.cold),
                  "warm mission CSV differs from the cold CSV");
    report.expect(merged_csv == csv_of(out.cold),
                  "merged store CSV differs from the cold CSV");
    return out;
  };

  if (!options.trace) {
    Passes passes;
    std::string first_csv;
    closed_loop(options.seconds, [&] {
      const ColdWarm pass = cold_warm(
          [&](const fs::path& dir) { return shard_backend(dir, plan.name, kTimedWorkers); });
      passes.rows_per_s.push_back(rows / pass.cold_s);
      passes.extra.push_back(rows / pass.warm_s);
      for (std::size_t r = 0; r < pass.cold.rows.size(); ++r) {
        passes.add_row(r, pass.cold.rows[r].elapsed_s * 1e3);
      }
      const std::string csv = csv_of(pass.cold);
      if (first_csv.empty()) {
        first_csv = csv;
      }
      report.expect(csv == first_csv, "mission_store rows differ between passes");
      setup.repeat();
    });
    passes.report_to(report);
    report.metrics["resume_rows_per_s"] = median(passes.extra);
  } else {
    traced_loop(options.seconds, [&] {
      const ColdWarm real =
          cold_warm([&](const fs::path& dir) { return shard_backend(dir, plan.name, 1); });
      Tracer tracer;
      std::vector<std::string> failures;
      const ColdWarm traced = cold_warm([&](const fs::path& dir) {
        return std::make_shared<TracingBackend>(shard_backend(dir, plan.name, 1), tracer,
                                                traced_mission_evaluator(tracer, failures));
      });
      for (const std::string& failure : failures) {
        report.expect(false, failure);
      }
      report.expect(true, "mission record vs replay");
      expect_same_rows(real.cold.rows, traced.cold.rows, plan.evaluator,
                       "mission replica vs mission evaluator", report);
      std::map<std::string, double> metrics = layer_metrics(
          tracer, traced.cold_s + traced.warm_s, real.cold_s + real.warm_s);
      metrics["sweep.structure_cache_hit_fraction"] =
          1.0 - traced.cold.exec.model_builds / rows;
      metrics["sweep.trajectory_hits"] = traced.cold.exec.trajectory_hits;
      metrics["sweep.store_hits"] = static_cast<double>(traced.warm.exec.store_hits);
      metrics["sweep.store_bytes"] = static_cast<double>(traced.store_bytes);
      metrics["sweep.resume_rows_per_s"] = rows / real.warm_s;
      return metrics;
    }, report);
  }
  fs::remove_all(setup_stores);
  setup.report_to(report);
  mission_anchor(plan, report);
}

// ------------------------------------------------------- opt_stack_pareto

/// The kOptRuns optimizations of one pass, their NSGA-II seeds drawn from
/// the run's seed. Several independent searches per pass average out how
/// far one search drifts towards the costly three-die designs.
std::vector<op::Nsga2Options> nsga2_runs(std::uint64_t seed, int worker_count) {
  SeededRng rng(seed);
  std::vector<op::Nsga2Options> runs(kOptRuns);
  for (op::Nsga2Options& options : runs) {
    options.budget = kOptBudget;
    options.population = kOptPopulation;
    options.thread_count = worker_count;
    options.seed = rng.next();
  }
  return runs;
}

std::string nsga2_seeds_json(std::uint64_t seed) {
  std::string out = "[";
  for (const op::Nsga2Options& options : nsga2_runs(seed, 1)) {
    out += (out.size() > 1 ? ", " : "") + std::to_string(options.seed);
  }
  return out + "]";
}

double front_hypervolume(const op::OptResult& result) {
  const auto& names = result.archive.metric_names;
  const auto max_index = static_cast<std::size_t>(
      std::find(names.begin(), names.end(), "net_w") - names.begin());
  const auto min_index = static_cast<std::size_t>(
      std::find(names.begin(), names.end(), "peak_t_c") - names.begin());
  std::vector<std::pair<double, double>> front;
  for (const int index : result.pareto_indices) {
    const auto& metrics = result.archive.rows[static_cast<std::size_t>(index)].metrics;
    front.emplace_back(metrics[max_index], metrics[min_index]);
  }
  return op::hypervolume_2d(front, kHvRefNetW, kHvRefPeakC);
}

void opt_anchor(const op::Study& study, Report& report) {
  // A two-die interlayer-cooled design at the paper's flow and inlet.
  const std::vector<double> point = {2.0, 1.0, 676.0, 400.0, 200.0, 27.0};
  sw::WorkerState worker;
  const sw::ScenarioResult row = sw::evaluate_scenario(
      study.base, study.evaluator, op::make_candidate_spec(study, point), worker);
  report.count_rows({row});
  for (const char* name : {"peak_t_c", "net_w", "bus_v"}) {
    report.anchors[name] = metric_of(study.evaluator, row, name);
  }
}

void check_opt_run(const op::OptResult& result, Report& report) {
  report.count_rows(result.archive.rows);
  report.expect(result.evaluations() == kOptBudget, "nsga2 did not spend its budget");
  report.expect(!result.pareto_indices.empty(), "nsga2 found no feasible front");
  report.expect(front_hypervolume(result) > 0.0, "nsga2 front hypervolume is zero");
}

void run_opt_stack_pareto(const Options& options, Report& report) {
  TimedSetup<op::Study> setup([&] {
    op::Study built = op::make_registered_study("stack_pareto");
    built.validate();
    (void)build_model(built.base);
    return built;
  });
  const op::Study& study = setup.inputs();

  if (!options.trace) {
    Passes passes;
    std::vector<std::string> first_csvs;
    std::vector<double> hypervolumes;
    closed_loop(options.seconds, [&] {
      double pass_s = 0.0;
      double evaluations = 0.0;
      hypervolumes.clear();
      const std::vector<op::Nsga2Options> runs = nsga2_runs(options.seed, kTimedWorkers);
      for (std::size_t k = 0; k < runs.size(); ++k) {
        const auto start = Clock::now();
        const op::OptResult result = op::optimize_nsga2(study, runs[k]);
        pass_s += seconds_since(start);
        evaluations += static_cast<double>(result.evaluations());
        // A search's archive is the same every pass: row i of search k is
        // one scenario.
        for (std::size_t i = 0; i < result.archive.rows.size(); ++i) {
          passes.add_row(k * kOptBudget + i, result.archive.rows[i].elapsed_s * 1e3);
        }
        check_opt_run(result, report);
        hypervolumes.push_back(front_hypervolume(result));
        const std::string csv = csv_of(result.archive);
        if (first_csvs.size() <= k) {
          first_csvs.push_back(csv);
        }
        report.expect(csv == first_csvs[k], "nsga2 archives differ between passes");
        setup.repeat();  // once per search: a pass holds kOptRuns of them
      }
      passes.rows_per_s.push_back(evaluations / pass_s);
    });
    passes.report_to(report);
    report.metrics["front_hypervolume"] = median(hypervolumes);
  } else {
    traced_loop(options.seconds, [&] {
      Tracer tracer;
      double untraced_s = 0.0;
      double traced_s = 0.0;
      double evaluations = 0.0;
      double generations = 0.0;
      double model_builds = 0.0;
      long long candidates = 0;
      long long screened = 0;
      std::vector<double> hypervolumes;
      for (op::Nsga2Options run : nsga2_runs(options.seed, 1)) {
        auto start = Clock::now();
        const op::OptResult real = op::optimize_nsga2(study, run);
        untraced_s += seconds_since(start);

        auto backend = std::make_shared<TracingBackend>(sw::make_local_backend(workers(1)),
                                                        tracer, traced_stack_evaluator(tracer));
        run.backend = backend;
        start = Clock::now();
        Span opt_span(tracer, "opt");
        const op::OptResult traced = op::optimize_nsga2(study, run);
        opt_span.close();
        traced_s += seconds_since(start);

        check_opt_run(traced, report);
        expect_same_rows(real.archive.rows, traced.archive.rows, study.evaluator,
                         "stack replica vs IntegratedMpsocSystem::run under nsga2", report);
        evaluations += static_cast<double>(traced.evaluations());
        generations += traced.generations;
        model_builds += backend->stats().model_builds;
        candidates += traced.surrogate_candidates;
        screened += traced.surrogate_screened;
        hypervolumes.push_back(front_hypervolume(traced));
      }
      std::map<std::string, double> metrics = layer_metrics(tracer, traced_s, untraced_s);
      metrics["sweep.structure_cache_hit_fraction"] = 1.0 - model_builds / evaluations;
      metrics["opt.evaluations"] = evaluations;
      metrics["opt.generations"] = generations;
      metrics["opt.surrogate_screen_rate"] =
          candidates > 0 ? static_cast<double>(screened) / static_cast<double>(candidates) : 0.0;
      metrics["opt.front_hypervolume"] = median(hypervolumes);
      return metrics;
    }, report);
  }
  setup.report_to(report);
  opt_anchor(study, report);
}

// ------------------------------------------------------------------- main

using WorkloadFn = void (*)(const Options&, Report&);

const std::map<std::string, WorkloadFn>& workloads() {
  static const std::map<std::string, WorkloadFn> table = {
      {"cosim_grid", run_cosim_grid},
      {"fleet_replay", run_fleet_replay},
      {"mission_store", run_mission_store},
      {"opt_stack_pareto", run_opt_stack_pareto},
  };
  return table;
}

/// The generated inputs of a workload as JSON (scenario names, staggers or
/// NSGA-II seeds), validated, without running it.
std::string describe(const Options& options) {
  if (options.workload == "cosim_grid") {
    return scenario_names_json(cosim_grid_plan(options.seed));
  }
  if (options.workload == "mission_store") {
    return scenario_names_json(mission_plan(options.seed));
  }
  if (options.workload == "fleet_replay") {
    const fl::RackSpec rack = fleet_rack(options.seed);
    std::string staggers = "[";
    for (std::size_t i = 0; i < rack.chips.size(); ++i) {
      staggers += (i > 0 ? ", " : "") + json_number(rack.chips[i].workload_offset_s);
    }
    return staggers + "]";
  }
  op::make_registered_study("stack_pareto").validate();
  return nsga2_seeds_json(options.seed);
}

Options parse_options(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        throw std::invalid_argument(arg + " needs a value");
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      options.seconds = std::stod(value());
    } else if (arg == "--trace") {
      options.trace = value() != "0";
    } else if (arg == "--work-dir") {
      options.work_dir = value();
    } else if (arg == "--describe") {
      options.describe = true;
    } else {
      throw std::invalid_argument("unknown option " + arg);
    }
  }
  if (workloads().count(options.workload) == 0) {
    throw std::invalid_argument("unknown workload '" + options.workload + "'");
  }
  return options;
}

void print_report(const Options& options, const Report& report) {
  std::printf("{\"workload\": %s, \"seed\": %llu, \"trace\": %d,\n",
              json_string(options.workload).c_str(),
              static_cast<unsigned long long>(options.seed), options.trace ? 1 : 0);
  std::printf(" \"inputs\": %s,\n", report.inputs.c_str());
  auto print_map = [](const char* key, const std::map<std::string, double>& values) {
    std::printf(" %s: {", json_string(key).c_str());
    const char* separator = "";
    for (const auto& [name, value] : values) {
      std::printf("%s%s: %s", separator, json_string(name).c_str(), json_number(value).c_str());
      separator = ", ";
    }
    std::printf("},\n");
  };
  print_map("metrics", report.metrics);
  print_map("anchors", report.anchors);
  std::printf(" \"attempted\": %lld, \"failures\": [", report.attempted);
  for (std::size_t i = 0; i < report.failures.size(); ++i) {
    std::printf("%s%s", i > 0 ? ", " : "", json_string(report.failures[i]).c_str());
  }
  std::printf("]}\n");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Options options = parse_options(argc, argv);
    if (options.describe) {
      std::printf("%s\n", describe(options).c_str());
      return 0;
    }
    fs::create_directories(options.work_dir);
    Report report;
    report.inputs = describe(options);
    workloads().at(options.workload)(options, report);
    if (!options.trace) {
      report.metrics["peak_rss_mb"] = peak_rss_mb();
    }
    print_report(options, report);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_workloads: error: %s\n", e.what());
    return 1;
  }
}
