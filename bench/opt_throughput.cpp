// Grid-optimizer throughput: the channel_geometry study driven through a
// persistent local execution backend — the unit of work of every
// optimization generation. Measures candidate evaluations per second and the
// structure-cache hit split (candidates that reused a worker's assembled
// thermal model vs fresh builds). The NSGA-II optimizer is measured by
// perfbench's opt_stack_pareto workload (perfbench/README.md).
//
// Prints a human-readable summary and writes BENCH_opt.json (schema in
// docs/BENCHMARKS.md). An optional first argument overrides the JSON path;
// the rest go to Google Benchmark.
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "harness.h"
#include "opt/studies.h"
#include "sweep/execution.h"

namespace bh = brightsi::bench;
namespace op = brightsi::opt;
namespace sw = brightsi::sweep;

namespace {

constexpr int kBudget = 48;

void bm_batch_generation(benchmark::State& state) {
  const op::Study study = op::make_registered_study("channel_geometry");
  const auto backend = sw::make_local_backend({static_cast<int>(state.range(0)), true});
  // One axis generation: 8 flow candidates around the center point.
  std::vector<sw::ScenarioSpec> candidates;
  for (int i = 0; i < 8; ++i) {
    sw::ScenarioSpec spec;
    spec.name = "candidate " + std::to_string(i);
    spec.set("channel_gap_um", 250.0);
    spec.set("channel_height_um", 500.0);
    spec.set("flow_ml_min", 100.0 + 200.0 * i);
    spec.set("inlet_c", 40.0);
    candidates.push_back(std::move(spec));
  }
  std::vector<sw::ScenarioResult> rows;
  for (auto _ : state) {
    backend->execute(study.base, study.evaluator, candidates, rows);
    benchmark::DoNotOptimize(rows.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long long>(candidates.size()));
}
BENCHMARK(bm_batch_generation)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bh::take_json_path(argc, argv, "BENCH_opt.json");
  const op::Study study = op::make_registered_study("channel_geometry");
  op::OptimizerOptions options;
  options.budget = kBudget;

  const bh::Clock::time_point start = bh::Clock::now();
  const op::OptResult result = op::optimize(study, options);
  const double wall_s = bh::seconds_since(start);
  const long long evaluations = result.evaluations();
  const int model_builds = result.archive.exec.model_builds;
  const long long cache_hits = evaluations - model_builds;
  const double evaluations_per_s = wall_s > 0.0 ? evaluations / wall_s : 0.0;
  const double cache_hit_fraction =
      evaluations > 0 ? static_cast<double>(cache_hits) / static_cast<double>(evaluations)
                      : 0.0;
  double best_net_w = 0.0;
  double best_peak_t_c = 0.0;
  if (const sw::ScenarioResult* best = result.best()) {
    best_net_w = best->metrics[4];     // net_w
    best_peak_t_c = best->metrics[5];  // peak_t_c
  }

  std::printf("== opt throughput: channel_geometry study, budget %d ==\n", kBudget);
  std::printf("%lld evaluations in %.3f s -> %.2f evaluations/s (%d refinement passes)\n",
              evaluations, wall_s, evaluations_per_s, result.passes);
  std::printf("structure cache: %d builds, %lld hits (%.0f%% hit rate)\n", model_builds,
              cache_hits, 100.0 * cache_hit_fraction);
  std::printf("best design: net %.3f W at peak %.2f C\n\n", best_net_w, best_peak_t_c);

  bh::FlatJson json("opt_throughput");
  json.set("evaluations", evaluations);
  json.set("wall_s", wall_s);
  json.set("evaluations_per_s", evaluations_per_s);
  json.set("model_builds", model_builds);
  json.set("cache_hits", cache_hits);
  json.set("cache_hit_fraction", cache_hit_fraction);
  json.set("refinement_passes", result.passes);
  json.set("best_net_w", best_net_w);
  json.set("best_peak_t_c", best_peak_t_c);
  const bool wrote = json.write(json_path);

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return wrote ? 0 : 1;
}
