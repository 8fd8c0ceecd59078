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
// Each generation is one batched, cache-warm call of the evaluation
// archive the grid optimizer uses too (opt/archive.h) — so a population
// shards and resumes through --store exactly like a sweep, and rows stay
// byte-identical at any thread count. Everything random draws
// from one fixed-seed deterministic generator consumed on the serial
// driver thread: re-running (with a widened budget, against a warm store,
// or after a mid-generation kill) replays the identical candidate
// sequence, with already-stored rows resolved from disk.
#ifndef BRIGHTSI_OPT_NSGA2_H
#define BRIGHTSI_OPT_NSGA2_H

#include <cstdint>
#include <utility>
#include <vector>

#include "opt/optimizer.h"

namespace brightsi::opt {

struct Nsga2Options : SearchOptions {
  int population = 16;       ///< individuals per generation (>= 4)
  /// Fixed by default: determinism — not statistical variety — is the
  /// contract. Change it only to study seed sensitivity.
  std::uint64_t seed = 0x5EEDB10C0DE5EEDULL;
  /// Surrogate pre-screen: each generation proposes screen_factor x
  /// population offspring, ranks them on RBF-predicted objectives and
  /// really evaluates only the best `population`. screen_factor 1
  /// disables the screen (every proposal is evaluated).
  int screen_factor = 3;
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
