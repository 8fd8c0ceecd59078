#include "opt/nsga2.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <stdexcept>

#include "opt/archive.h"
#include "opt/surrogate.h"

namespace brightsi::opt {

namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();

constexpr double kCrossoverProbability = 0.9;  ///< per parent pair
constexpr double kCrossoverEta = 15.0;         ///< SBX distribution index
constexpr double kMutationEta = 20.0;          ///< polynomial-mutation index (rate = 1/dim)
constexpr std::size_t kSurrogateMaxPoints = 192;  ///< newest archive rows used for training

/// SplitMix64: tiny, seed-stable and platform-independent. Every random
/// draw of a run comes from one instance consumed on the serial driver
/// thread, so the candidate sequence is a pure function of the seed.
struct Rng {
  std::uint64_t state;

  std::uint64_t next_u64() {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  /// Uniform in [0, 1): the top 53 bits, exactly representable.
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, n).
  std::size_t next_index(std::size_t n) { return static_cast<std::size_t>(next_u64() % n); }
};

/// The two Pareto objectives and the constraint violation of one archive
/// row, with failed evaluations pushed past every infeasible success.
struct RowObjectives {
  double maximize = 0.0;
  double minimize = 0.0;
  double violation = kInfinity;  ///< 0 = feasible; +inf = failed / NaN
};

/// Mutable state of one optimize_nsga2() run: the evaluation archive
/// shared with the grid optimizer, plus the Pareto objectives of each of
/// its rows.
struct EvoState {
  EvaluationArchive archive;
  std::vector<RowObjectives> row_objectives;  ///< per archive row
};

RowObjectives classify_row(const ResolvedObjective& objective, const sweep::ScenarioResult& row) {
  RowObjectives objectives;
  if (row.failed) {
    return objectives;  // violation stays +inf; metrics may be empty
  }
  const double f = row.metrics[static_cast<std::size_t>(objective.pareto_maximize_index())];
  const double g = row.metrics[static_cast<std::size_t>(objective.pareto_minimize_index())];
  if (std::isnan(f) || std::isnan(g)) {
    return objectives;  // a NaN objective cannot be ranked: treat as failed
  }
  objectives.maximize = f;
  objectives.minimize = g;
  objectives.violation = objective.constraint_violation(row.metrics);
  return objectives;
}

/// Constraint domination (Deb 2002): a feasible point dominates any
/// infeasible one; among infeasible points the smaller violation wins;
/// among feasible points standard Pareto domination applies.
bool dominates(const RowObjectives& a, const RowObjectives& b) {
  const bool a_feasible = a.violation == 0.0;
  const bool b_feasible = b.violation == 0.0;
  if (a_feasible != b_feasible) {
    return a_feasible;
  }
  if (!a_feasible) {
    return a.violation < b.violation;
  }
  const bool no_worse = a.maximize >= b.maximize && a.minimize <= b.minimize;
  const bool strictly_better = a.maximize > b.maximize || a.minimize < b.minimize;
  return no_worse && strictly_better;
}

/// Non-dominated sort of `rows` (archive indices): rank per row, fronts
/// in rank order. O(n^2) comparisons — populations are tens of rows.
std::vector<std::vector<int>> sort_fronts(const EvoState& state, const std::vector<int>& rows,
                                          std::map<int, int>& rank_of) {
  const std::size_t n = rows.size();
  std::vector<std::vector<int>> dominated_by(n);
  std::vector<int> domination_count(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const RowObjectives& a = state.row_objectives[static_cast<std::size_t>(rows[i])];
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) {
        continue;
      }
      const RowObjectives& b = state.row_objectives[static_cast<std::size_t>(rows[j])];
      if (dominates(a, b)) {
        dominated_by[i].push_back(static_cast<int>(j));
      } else if (dominates(b, a)) {
        ++domination_count[i];
      }
    }
  }

  std::vector<std::vector<int>> fronts;
  std::vector<int> current;
  for (std::size_t i = 0; i < n; ++i) {
    if (domination_count[i] == 0) {
      current.push_back(static_cast<int>(i));
    }
  }
  int rank = 0;
  while (!current.empty()) {
    std::vector<int> next;
    std::vector<int> front_rows;
    for (const int i : current) {
      rank_of[rows[static_cast<std::size_t>(i)]] = rank;
      front_rows.push_back(rows[static_cast<std::size_t>(i)]);
      for (const int j : dominated_by[static_cast<std::size_t>(i)]) {
        if (--domination_count[static_cast<std::size_t>(j)] == 0) {
          next.push_back(j);
        }
      }
    }
    fronts.push_back(std::move(front_rows));
    current = std::move(next);
    std::sort(current.begin(), current.end());  // deterministic intra-front order
    ++rank;
  }
  return fronts;
}

/// Crowding distance within one front: per-objective span-normalized gap
/// to the sorted neighbors, boundaries infinite. Sort ties break on the
/// archive index, so the measure is deterministic.
std::map<int, double> crowding_distances(const EvoState& state, const std::vector<int>& front) {
  std::map<int, double> distance;
  for (const int row : front) {
    distance[row] = 0.0;
  }
  if (front.size() <= 2) {
    for (const int row : front) {
      distance[row] = kInfinity;
    }
    return distance;
  }
  const auto accumulate = [&](auto value_of) {
    std::vector<int> order = front;
    std::sort(order.begin(), order.end(), [&](int x, int y) {
      const double vx = value_of(x);
      const double vy = value_of(y);
      return vx != vy ? vx < vy : x < y;
    });
    const double span = value_of(order.back()) - value_of(order.front());
    distance[order.front()] = kInfinity;
    distance[order.back()] = kInfinity;
    if (span <= 0.0) {
      return;
    }
    for (std::size_t i = 1; i + 1 < order.size(); ++i) {
      if (distance[order[i]] != kInfinity) {
        distance[order[i]] += (value_of(order[i + 1]) - value_of(order[i - 1])) / span;
      }
    }
  };
  accumulate([&](int row) { return state.row_objectives[static_cast<std::size_t>(row)].maximize; });
  accumulate([&](int row) { return state.row_objectives[static_cast<std::size_t>(row)].minimize; });
  accumulate([&](int row) { return state.row_objectives[static_cast<std::size_t>(row)].violation; });
  return distance;
}

/// Binary tournament on (rank asc, crowding desc, archive index asc).
int tournament(Rng& rng, const std::vector<int>& population, const std::map<int, int>& rank_of,
               const std::map<int, double>& crowding) {
  const int a = population[rng.next_index(population.size())];
  const int b = population[rng.next_index(population.size())];
  const int rank_a = rank_of.at(a);
  const int rank_b = rank_of.at(b);
  if (rank_a != rank_b) {
    return rank_a < rank_b ? a : b;
  }
  const double crowd_a = crowding.at(a);
  const double crowd_b = crowding.at(b);
  if (crowd_a != crowd_b) {
    return crowd_a > crowd_b ? a : b;
  }
  return std::min(a, b);
}

/// Box-normalized coordinates in [0, 1] per axis (degenerate axes map
/// to 0): the shared coordinate frame of SBX, mutation and the surrogate.
std::vector<double> normalize(const Study& study, const std::vector<double>& point) {
  std::vector<double> u(point.size());
  for (std::size_t a = 0; a < point.size(); ++a) {
    const double span = study.parameters[a].upper - study.parameters[a].lower;
    u[a] = span > 0.0 ? (point[a] - study.parameters[a].lower) / span : 0.0;
  }
  return u;
}

std::vector<double> denormalize(const Study& study, const std::vector<double>& u) {
  std::vector<double> point(u.size());
  for (std::size_t a = 0; a < u.size(); ++a) {
    const StudyParameter& parameter = study.parameters[a];
    point[a] = parameter.lower + u[a] * (parameter.upper - parameter.lower);
  }
  return point;
}

/// One SBX child in normalized coordinates (Deb & Agrawal 1995). Draws a
/// fixed number of RNG values per axis regardless of branch, keeping the
/// stream position independent of the parents' values.
std::vector<double> sbx_child(Rng& rng, const std::vector<double>& p1,
                              const std::vector<double>& p2) {
  std::vector<double> child(p1.size());
  const bool crossover = rng.next_double() < kCrossoverProbability;
  for (std::size_t a = 0; a < p1.size(); ++a) {
    const double u = rng.next_double();
    const double pick = rng.next_double();
    if (!crossover) {
      child[a] = p1[a];
      continue;
    }
    const double beta = u <= 0.5 ? std::pow(2.0 * u, 1.0 / (kCrossoverEta + 1.0))
                                 : std::pow(1.0 / (2.0 * (1.0 - u)), 1.0 / (kCrossoverEta + 1.0));
    const double c1 = 0.5 * ((1.0 + beta) * p1[a] + (1.0 - beta) * p2[a]);
    const double c2 = 0.5 * ((1.0 - beta) * p1[a] + (1.0 + beta) * p2[a]);
    child[a] = std::clamp(pick < 0.5 ? c1 : c2, 0.0, 1.0);
  }
  return child;
}

/// Boundary-aware polynomial mutation in place (rate 1/dim). Like
/// sbx_child, consumes a fixed two draws per axis.
void mutate(Rng& rng, std::vector<double>& u) {
  const double rate = 1.0 / static_cast<double>(u.size());
  for (double& value : u) {
    const double hit = rng.next_double();
    const double r = rng.next_double();
    if (hit >= rate) {
      continue;
    }
    const double lo = value;        // distance to the lower boundary
    const double hi = 1.0 - value;  // distance to the upper boundary
    double delta = 0.0;
    if (r < 0.5) {
      const double b = 2.0 * r + (1.0 - 2.0 * r) * std::pow(hi, kMutationEta + 1.0);
      delta = std::pow(b, 1.0 / (kMutationEta + 1.0)) - 1.0;
    } else {
      const double b = 2.0 * (1.0 - r) + 2.0 * (r - 0.5) * std::pow(lo, kMutationEta + 1.0);
      delta = 1.0 - std::pow(b, 1.0 / (kMutationEta + 1.0));
    }
    value = std::clamp(value + delta, 0.0, 1.0);
  }
}

/// Latin-hypercube initial population: one random axis permutation per
/// dimension, jittered within each stratum — broad coverage from the very
/// first generation, still a pure function of the seed.
std::vector<std::vector<double>> latin_hypercube(Rng& rng, const Study& study, int count) {
  const std::size_t dim = study.parameters.size();
  std::vector<std::vector<std::size_t>> perms(dim);
  for (std::size_t a = 0; a < dim; ++a) {
    perms[a].resize(static_cast<std::size_t>(count));
    for (std::size_t i = 0; i < perms[a].size(); ++i) {
      perms[a][i] = i;
    }
    for (std::size_t i = perms[a].size(); i > 1; --i) {
      std::swap(perms[a][i - 1], perms[a][rng.next_index(i)]);
    }
  }
  std::vector<std::vector<double>> points;
  points.reserve(static_cast<std::size_t>(count));
  for (std::size_t i = 0; i < static_cast<std::size_t>(count); ++i) {
    std::vector<double> u(dim);
    for (std::size_t a = 0; a < dim; ++a) {
      u[a] = (static_cast<double>(perms[a][i]) + rng.next_double()) /
             static_cast<double>(count);
    }
    points.push_back(snap_study_point(study, denormalize(study, u)));
  }
  return points;
}

/// Evaluates `candidates` through the archive and classifies the rows it
/// appended.
void evaluate_candidates(EvoState& state, const std::vector<std::vector<double>>& candidates) {
  state.archive.evaluate(candidates);
  const std::vector<sweep::ScenarioResult>& rows = state.archive.result().archive.rows;
  for (std::size_t i = state.row_objectives.size(); i < rows.size(); ++i) {
    state.row_objectives.push_back(classify_row(state.archive.objective(), rows[i]));
  }
}

/// Environmental selection: the best `count` of `rows` by (front rank,
/// crowding distance). The last front that fits is truncated by crowding,
/// ties on the archive index.
std::vector<int> select_survivors(const EvoState& state, const std::vector<int>& rows,
                                  int count) {
  std::map<int, int> rank_of;
  const std::vector<std::vector<int>> fronts = sort_fronts(state, rows, rank_of);
  std::vector<int> survivors;
  for (const std::vector<int>& front : fronts) {
    if (static_cast<int>(survivors.size() + front.size()) <= count) {
      survivors.insert(survivors.end(), front.begin(), front.end());
      continue;
    }
    const std::map<int, double> crowding = crowding_distances(state, front);
    std::vector<int> order = front;
    std::stable_sort(order.begin(), order.end(), [&](int x, int y) {
      const double cx = crowding.at(x);
      const double cy = crowding.at(y);
      return cx != cy ? cx > cy : x < y;
    });
    for (const int row : order) {
      if (static_cast<int>(survivors.size()) >= count) {
        break;
      }
      survivors.push_back(row);
    }
    break;
  }
  std::sort(survivors.begin(), survivors.end());
  return survivors;
}

/// Trains the surrogate on the newest non-failed archive rows (normalized
/// coordinates against the raw Pareto objectives). False when the archive
/// is too small or degenerate — the caller then skips the screen.
bool train_surrogate(const EvoState& state, RbfSurrogate& surrogate) {
  std::vector<std::vector<double>> inputs;
  std::vector<std::vector<double>> targets;
  const std::size_t total = state.row_objectives.size();
  const std::size_t start = total > kSurrogateMaxPoints ? total - kSurrogateMaxPoints : 0;
  for (std::size_t i = start; i < total; ++i) {
    const RowObjectives& objectives = state.row_objectives[i];
    if (objectives.violation == kInfinity) {
      continue;  // failed / NaN rows carry no objective signal
    }
    inputs.push_back(normalize(state.archive.study(), state.archive.point(static_cast<int>(i))));
    targets.push_back({objectives.maximize, objectives.minimize});
  }
  return surrogate.train(inputs, targets);
}

/// Ranks `pool` on surrogate-predicted objectives and keeps the best
/// `count`: non-dominated sort plus crowding on the predictions, exactly
/// the selection pressure the real evaluation would apply.
std::vector<std::vector<double>> screen_pool(const EvoState& state,
                                             const RbfSurrogate& surrogate,
                                             const std::vector<std::vector<double>>& pool,
                                             int count) {
  struct Predicted {
    std::size_t pool_index;
    RowObjectives objectives;
  };
  std::vector<Predicted> predicted;
  predicted.reserve(pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const std::vector<double> y = surrogate.predict(normalize(state.archive.study(), pool[i]));
    predicted.push_back({i, {y[0], y[1], 0.0}});
  }
  // Reuse the domination machinery on a synthetic index space: a simple
  // O(n^2) rank (count of dominators) plus a per-objective crowding proxy
  // keeps this self-contained and deterministic.
  const std::size_t n = predicted.size();
  std::vector<int> dominators(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j && dominates(predicted[j].objectives, predicted[i].objectives)) {
        ++dominators[i];
      }
    }
  }
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) {
    order[i] = i;
  }
  std::stable_sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    if (dominators[x] != dominators[y]) {
      return dominators[x] < dominators[y];
    }
    return x < y;  // proposal order: earlier offspring win ties
  });
  std::vector<std::vector<double>> kept;
  kept.reserve(static_cast<std::size_t>(count));
  for (std::size_t i = 0; i < n && static_cast<int>(kept.size()) < count; ++i) {
    kept.push_back(pool[order[i]]);
  }
  return kept;
}

}  // namespace

OptResult optimize_nsga2(const Study& study, const Nsga2Options& options) {
  if (options.population < 4) {
    throw std::invalid_argument("nsga2 population must be at least 4");
  }
  EvoState state{EvaluationArchive(study, options, "nsga2"), {}};
  if (!state.archive.objective().has_pareto_pair()) {
    throw std::invalid_argument("study '" + study.name +
                                "' has no Pareto pair; nsga2 needs two objectives");
  }

  Rng rng{options.seed};
  const int population_size = std::min(options.population, options.budget);

  // Generation 0: Latin-hypercube coverage of the box. Snapping and exact
  // dedup may collapse strata (integer axes); top up with uniform draws.
  std::vector<std::vector<double>> initial = latin_hypercube(rng, study, population_size);
  {
    std::map<std::vector<double>, int> unique;
    std::vector<std::vector<double>> deduped;
    for (std::vector<double>& point : initial) {
      if (unique.emplace(point, 0).second) {
        deduped.push_back(std::move(point));
      }
    }
    int attempts = 0;
    const int attempt_cap = 64 * population_size;
    while (static_cast<int>(deduped.size()) < population_size && attempts++ < attempt_cap) {
      std::vector<double> u(study.parameters.size());
      for (double& value : u) {
        value = rng.next_double();
      }
      std::vector<double> point = snap_study_point(study, denormalize(study, u));
      if (unique.emplace(point, 0).second) {
        deduped.push_back(std::move(point));
      }
    }
    initial = std::move(deduped);
  }
  evaluate_candidates(state, initial);

  // Population = archive indices of the current survivors.
  std::vector<int> population(state.row_objectives.size());
  for (std::size_t i = 0; i < population.size(); ++i) {
    population[i] = static_cast<int>(i);
  }

  RbfSurrogate surrogate;
  while (!state.archive.budget_exhausted() && !population.empty()) {
    std::map<int, int> rank_of;
    const std::vector<std::vector<int>> fronts = sort_fronts(state, population, rank_of);
    std::map<int, double> crowding;
    for (const std::vector<int>& front : fronts) {
      for (const auto& [row, distance] : crowding_distances(state, front)) {
        crowding[row] = distance;
      }
    }

    const bool screening = options.screen_factor > 1 && train_surrogate(state, surrogate);
    const int want = screening ? population_size * options.screen_factor : population_size;

    // Propose offspring, deduping against everything already evaluated
    // and against this generation's own pool.
    std::vector<std::vector<double>> pool;
    std::map<std::vector<double>, int> in_pool;
    int attempts = 0;
    const int attempt_cap = 30 * want;
    while (static_cast<int>(pool.size()) < want && attempts++ < attempt_cap) {
      const int parent1 = tournament(rng, population, rank_of, crowding);
      const int parent2 = tournament(rng, population, rank_of, crowding);
      std::vector<double> u = sbx_child(rng, normalize(study, state.archive.point(parent1)),
                                        normalize(study, state.archive.point(parent2)));
      mutate(rng, u);
      std::vector<double> point = snap_study_point(study, denormalize(study, u));
      if (state.archive.row_of(point) >= 0 || in_pool.contains(point)) {
        continue;
      }
      in_pool.emplace(point, 0);
      pool.push_back(std::move(point));
    }
    if (pool.empty()) {
      break;  // the reachable design space is exhausted
    }

    std::vector<std::vector<double>> offspring;
    if (screening) {
      state.archive.result().surrogate_candidates += static_cast<long long>(pool.size());
      offspring = screen_pool(state, surrogate, pool, population_size);
      state.archive.result().surrogate_screened +=
          static_cast<long long>(pool.size()) - static_cast<long long>(offspring.size());
    } else {
      offspring = std::move(pool);
      if (static_cast<int>(offspring.size()) > population_size) {
        offspring.resize(static_cast<std::size_t>(population_size));
      }
    }

    const int before = state.archive.size();
    evaluate_candidates(state, offspring);
    const int after = state.archive.size();
    if (after == before) {
      break;  // budget exhausted before any offspring could run
    }
    ++state.archive.result().generations;

    std::vector<int> merged = population;
    for (int row = before; row < after; ++row) {
      merged.push_back(row);
    }
    population = select_survivors(state, merged, population_size);
  }

  return state.archive.finish();
}

double hypervolume_2d(std::vector<std::pair<double, double>> front, double ref_maximize,
                      double ref_minimize) {
  // Keep only points strictly better than the reference in both
  // coordinates, sweep them in descending maximized value and accumulate
  // the dominated staircase area.
  std::erase_if(front, [&](const std::pair<double, double>& p) {
    return !(p.first > ref_maximize) || !(p.second < ref_minimize);
  });
  std::sort(front.begin(), front.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  double hypervolume = 0.0;
  double previous_min = ref_minimize;
  for (const auto& [f, g] : front) {
    if (g >= previous_min) {
      continue;  // dominated by an earlier (larger-f) point
    }
    hypervolume += (f - ref_maximize) * (previous_min - g);
    previous_min = g;
  }
  return hypervolume;
}

}  // namespace brightsi::opt
