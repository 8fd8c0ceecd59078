// Grid-optimizer throughput: the channel_geometry study driven through a
// persistent local execution backend — the unit of work of every
// optimization generation. Measures candidate evaluations per second and the
// structure-cache hit split (candidates that reused a worker's assembled
// thermal model vs fresh builds). The NSGA-II optimizer is measured by
// perfbench's opt_stack_pareto workload (perfbench/README.md).
//
// Prints a human-readable summary and writes BENCH_opt.json (schema in
// docs/BENCHMARKS.md). An optional argument overrides the JSON path.
#include <cstdio>
#include <optional>
#include <string>

#include "harness.h"
#include "opt/studies.h"

namespace bh = brightsi::bench;
namespace op = brightsi::opt;
namespace sw = brightsi::sweep;

constexpr int kBudget = 48;

int main(int argc, char** argv) {
  const std::optional<std::string> json_path =
      bh::json_path_argument(argc, argv, "BENCH_opt.json");
  if (!json_path) {
    return 2;
  }
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
  return json.write(*json_path) ? 0 : 1;
}
