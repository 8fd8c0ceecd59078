// NSGA-II-style multi-objective evolutionary optimizer over the sweep
// machinery, with an RBF surrogate pre-screen (opt/surrogate.h).
//
// Where the grid optimizer (opt/optimizer.h) refines one incumbent along
// ≤3 axes, optimize_nsga2 evolves a population across the full mixed
// real/integer search box of a Study: non-dominated sorting with
// constraint domination (feasible beats infeasible; among infeasible the
// smaller total violation wins), crowding-distance diversity, simulated
// binary crossover + polynomial mutation. The two objectives are the
// study's Pareto pair (maximize one metric, minimize the other); the
// scalar ObjectiveSpec score is still computed per row, so the archive,
// incumbent and emitters are shared with the grid optimizer byte for byte.
//
// Each generation is one batched, cache-warm call through
// sweep::BatchEvaluationSession on the ExecutionBackend seam — so a
// population shards and resumes through --store exactly like a sweep, and
// rows stay byte-identical at any thread count. Everything random draws
// from one fixed-seed deterministic generator consumed on the serial
// driver thread: re-running (with a widened budget, against a warm store,
// or after a mid-generation kill) replays the identical candidate
// sequence, with already-stored rows resolved from disk.
#ifndef BRIGHTSI_OPT_NSGA2_H
#define BRIGHTSI_OPT_NSGA2_H

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "opt/optimizer.h"

namespace brightsi::opt {

struct Nsga2Options {
  int budget = 64;           ///< max real evaluator invocations (hard cap)
  int population = 16;       ///< individuals per generation (>= 4)
  int thread_count = 0;      ///< batch workers; 0 = hardware concurrency
  bool reuse_structures = true;
  /// Fixed by default: determinism — not statistical variety — is the
  /// contract. Change it only to study seed sensitivity.
  std::uint64_t seed = 0x5EEDB10C0DE5EEDULL;
  double crossover_probability = 0.9;  ///< per parent pair
  double crossover_eta = 15.0;         ///< SBX distribution index
  double mutation_eta = 20.0;          ///< polynomial-mutation index (rate = 1/dim)
  /// Surrogate pre-screen: each generation proposes screen_factor x
  /// population offspring, ranks them on RBF-predicted objectives and
  /// really evaluates only the best `population`. screen_factor 1 or
  /// surrogate=false disables the screen (every proposal is evaluated).
  bool surrogate = true;
  int screen_factor = 3;
  int surrogate_max_points = 192;  ///< newest archive rows used for training
  /// Execution backend (sweep/execution.h). Null = in-process local pool;
  /// a shard backend persists every evaluated row in an on-disk store, so
  /// a re-run resumes — mid-generation kills included.
  std::shared_ptr<sweep::ExecutionBackend> backend;
};

/// Runs the evolutionary optimizer on a study whose objective carries a
/// Pareto pair (the two objectives). Throws std::invalid_argument on an
/// invalid study, a missing Pareto pair, a budget < 1 or population < 4.
/// The result's pareto_indices are the feasible non-dominated rows of the
/// full archive, ascending in the maximized metric — the same contract as
/// the grid optimizer, so every emitter applies unchanged.
[[nodiscard]] OptResult optimize_nsga2(const Study& study, const Nsga2Options& options = {});

/// 2-D hypervolume of `front` — points as (maximized value, minimized
/// value) — relative to the reference (ref_maximize, ref_minimize): the
/// area dominated between each point and the reference corner. Points not
/// strictly better than the reference in both coordinates contribute
/// nothing. The front-quality metric of nsga2_test and perfbench.
[[nodiscard]] double hypervolume_2d(std::vector<std::pair<double, double>> front,
                                    double ref_maximize, double ref_minimize);

}  // namespace brightsi::opt

#endif  // BRIGHTSI_OPT_NSGA2_H
