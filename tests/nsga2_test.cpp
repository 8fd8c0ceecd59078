// Tests of the evolutionary multi-objective optimizer (opt/nsga2.h) and
// its RBF surrogate pre-screen: the determinism contract (byte-identical
// CSV/JSON across thread counts), kill-and-resume through a --store
// directory, surrogate-on vs surrogate-off agreement on a small
// exhaustively-searchable problem, the 2-D hypervolume measure, and the
// surrogate's training guards.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "opt/nsga2.h"
#include "opt/studies.h"
#include "opt/surrogate.h"
#include "sweep/execution.h"

namespace fs = std::filesystem;
namespace op = brightsi::opt;
namespace sw = brightsi::sweep;

namespace {

std::string opt_csv(const op::OptResult& result) {
  std::stringstream stream;
  op::write_opt_csv(stream, result);
  return stream.str();
}

std::string pareto_csv(const op::OptResult& result) {
  std::stringstream stream;
  op::write_pareto_csv(stream, result);
  return stream.str();
}

std::string opt_json(const op::OptResult& result) {
  std::stringstream stream;
  op::write_opt_json(stream, result);
  return stream.str();
}

/// A fresh, empty directory path under the test temp dir.
std::string temp_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("brightsi_nsga2_" + name);
  fs::remove_all(dir);
  return dir.string();
}

/// The cheap study (rail integrity — no thermal solve) with a Pareto pair:
/// maximize rail_min_v against minimize tap_count.
op::Study rail_study() { return op::make_registered_study("vrm_placement"); }

/// rail_study() coarsened to a 4 x 4 all-integer grid: 16 reachable
/// designs, so a modest budget exhausts the space and the true Pareto
/// front is independent of the search path.
op::Study tiny_integer_study() {
  op::Study study = rail_study();
  study.parameters = {
      {"vrm_grid_n", 1.0, 4.0, true},
      {"vrm_r_mohm", 5.0, 8.0, true},
  };
  return study;
}

std::shared_ptr<sw::ExecutionBackend> store_backend(const op::Study& study,
                                                    const std::string& dir,
                                                    int threads) {
  sw::ShardOptions shard;
  shard.store_dir = dir;
  shard.scope = study.name;
  shard.local = {threads};
  return sw::make_shard_backend(std::move(shard));
}

// ------------------------------------------------------------ hypervolume

TEST(Hypervolume, SingleAndStaircase) {
  // One point: the dominated rectangle.
  EXPECT_DOUBLE_EQ(op::hypervolume_2d({{3.0, 1.0}}, 0.0, 4.0), 3.0 * 3.0);
  // A 2-point staircase: rectangles stack without double counting.
  EXPECT_DOUBLE_EQ(op::hypervolume_2d({{3.0, 2.0}, {1.0, 1.0}}, 0.0, 4.0),
                   3.0 * 2.0 + 1.0 * 1.0);
  // Input order must not matter.
  EXPECT_DOUBLE_EQ(op::hypervolume_2d({{1.0, 1.0}, {3.0, 2.0}}, 0.0, 4.0),
                   op::hypervolume_2d({{3.0, 2.0}, {1.0, 1.0}}, 0.0, 4.0));
}

TEST(Hypervolume, DominatedAndOutOfReferencePointsContributeNothing) {
  const double base = op::hypervolume_2d({{3.0, 1.0}}, 0.0, 4.0);
  // (2, 2) is dominated by (3, 1); (-1, 3) and (2, 5) are not strictly
  // inside the reference corner.
  EXPECT_DOUBLE_EQ(
      op::hypervolume_2d({{3.0, 1.0}, {2.0, 2.0}, {-1.0, 3.0}, {2.0, 5.0}}, 0.0, 4.0),
      base);
  EXPECT_DOUBLE_EQ(op::hypervolume_2d({}, 0.0, 4.0), 0.0);
  // A strictly better front has strictly larger hypervolume.
  EXPECT_GT(op::hypervolume_2d({{3.5, 1.0}}, 0.0, 4.0), base);
}

// -------------------------------------------------------------- surrogate

TEST(Surrogate, InterpolatesAndGuardsDegenerateInputs) {
  op::RbfSurrogate surrogate;
  // Too few points for 2-D (needs dim + 2 = 4).
  EXPECT_FALSE(surrogate.train({{0.0, 0.0}, {1.0, 1.0}, {0.5, 0.5}},
                               {{0.0}, {2.0}, {1.0}}));
  EXPECT_FALSE(surrogate.trained());
  // Coincident points: no usable shape parameter.
  EXPECT_FALSE(surrogate.train({{0.5, 0.5}, {0.5, 0.5}, {0.5, 0.5}, {0.5, 0.5}},
                               {{1.0}, {1.0}, {1.0}, {1.0}}));

  // f(x, y) = x + 2y sampled on the unit square's corners + center: the
  // interpolant must reproduce the training targets closely and rank an
  // unseen point sensibly between its neighbors.
  const std::vector<std::vector<double>> points = {
      {0.0, 0.0}, {1.0, 0.0}, {0.0, 1.0}, {1.0, 1.0}, {0.5, 0.5}};
  std::vector<std::vector<double>> targets;
  for (const std::vector<double>& p : points) {
    targets.push_back({p[0] + 2.0 * p[1], -p[0]});
  }
  ASSERT_TRUE(surrogate.train(points, targets));
  EXPECT_TRUE(surrogate.trained());
  EXPECT_EQ(surrogate.target_count(), 2);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const std::vector<double> y = surrogate.predict(points[i]);
    EXPECT_NEAR(y[0], targets[i][0], 1e-6) << i;
    EXPECT_NEAR(y[1], targets[i][1], 1e-6) << i;
  }
  const std::vector<double> mid = surrogate.predict({0.25, 0.25});
  EXPECT_GT(mid[0], 0.0);
  EXPECT_LT(mid[0], 1.5);
}

// ------------------------------------------------------------- optimizer

TEST(Nsga2, RejectsInvalidOptionsAndStudies) {
  op::Nsga2Options options;
  options.budget = 0;
  EXPECT_THROW((void)op::optimize_nsga2(rail_study(), options), std::invalid_argument);
  options.budget = 8;
  options.population = 3;
  EXPECT_THROW((void)op::optimize_nsga2(rail_study(), options), std::invalid_argument);
  op::Study no_pair = rail_study();
  no_pair.objective.pareto_maximize.clear();
  no_pair.objective.pareto_minimize.clear();
  EXPECT_THROW((void)op::optimize_nsga2(no_pair), std::invalid_argument);
}

TEST(Nsga2, OutputIsByteIdenticalAcrossThreadCounts) {
  op::Nsga2Options serial;
  serial.budget = 24;
  serial.population = 6;
  serial.thread_count = 1;
  op::Nsga2Options parallel = serial;
  parallel.thread_count = 4;

  const op::OptResult a = op::optimize_nsga2(rail_study(), serial);
  const op::OptResult b = op::optimize_nsga2(rail_study(), parallel);
  EXPECT_EQ(a.evaluations(), 24);
  EXPECT_GT(a.generations, 0);
  EXPECT_EQ(a.algo, "nsga2");
  EXPECT_EQ(opt_csv(a), opt_csv(b));
  EXPECT_EQ(pareto_csv(a), pareto_csv(b));
  // The JSON embeds thread-independent fields only — byte-identical too,
  // except the recorded thread count, which we normalize away.
  op::OptResult b_normalized = op::optimize_nsga2(rail_study(), parallel);
  b_normalized.archive.thread_count = a.archive.thread_count;
  EXPECT_EQ(opt_json(a), opt_json(b_normalized));
}

TEST(Nsga2, SeedChangesTheSearchPath) {
  op::Nsga2Options options;
  options.budget = 16;
  options.population = 4;
  options.thread_count = 2;
  const op::OptResult a = op::optimize_nsga2(rail_study(), options);
  options.seed ^= 0x1234;
  const op::OptResult c = op::optimize_nsga2(rail_study(), options);
  EXPECT_NE(opt_csv(a), opt_csv(c));
}

TEST(Nsga2, KillAndResumeThroughStoreReplaysByteIdentically) {
  const op::Study study = rail_study();
  const std::string dir = temp_dir("resume");

  // The reference: one uninterrupted run, no store.
  op::Nsga2Options options;
  options.budget = 24;
  options.population = 6;
  options.thread_count = 2;
  const op::OptResult direct = op::optimize_nsga2(study, options);

  // The "killed" run: same search, budget cut mid-generation (10 is not a
  // population multiple), every evaluated row persisted in the store.
  op::Nsga2Options first = options;
  first.budget = 10;
  first.backend = store_backend(study, dir, 2);
  const op::OptResult partial = op::optimize_nsga2(study, first);
  EXPECT_EQ(partial.evaluations(), 10);

  // The resumed run replays the identical candidate sequence; the first 10
  // evaluations come back as store hits, the rest run fresh.
  op::Nsga2Options second = options;
  second.backend = store_backend(study, dir, 2);
  const op::OptResult resumed = op::optimize_nsga2(study, second);
  EXPECT_EQ(opt_csv(direct), opt_csv(resumed));
  EXPECT_EQ(pareto_csv(direct), pareto_csv(resumed));
  EXPECT_GE(resumed.archive.exec.store_hits, 10);

  // The partial run's archive is a strict prefix of the full one: the same
  // candidates in the same order, with bitwise-equal metrics.
  ASSERT_EQ(partial.archive.rows.size(), 10u);
  for (std::size_t i = 0; i < partial.archive.rows.size(); ++i) {
    EXPECT_EQ(partial.archive.rows[i].name, direct.archive.rows[i].name) << i;
    EXPECT_EQ(partial.archive.rows[i].metrics, direct.archive.rows[i].metrics) << i;
  }
}

TEST(Nsga2, SurrogateScreenAgreesWithExhaustiveSearchOnTinySpace) {
  // 16 reachable integer designs, budget 40: with or without the screen
  // the search exhausts the space, so the true Pareto front — a property
  // of the problem, not the path — must come out identical.
  const op::Study study = tiny_integer_study();
  op::Nsga2Options with;
  with.budget = 40;
  with.population = 4;
  with.thread_count = 2;
  op::Nsga2Options without = with;
  without.screen_factor = 1;

  const op::OptResult screened = op::optimize_nsga2(study, with);
  const op::OptResult plain = op::optimize_nsga2(study, without);
  EXPECT_GT(screened.surrogate_candidates, 0);
  EXPECT_GT(screened.surrogate_screened, 0);
  EXPECT_EQ(plain.surrogate_candidates, 0);
  EXPECT_EQ(pareto_csv(screened), pareto_csv(plain));
  // Both terminate early once the 16-point space is exhausted.
  EXPECT_LE(screened.evaluations(), 16);
  EXPECT_LE(plain.evaluations(), 16);
}

TEST(Nsga2, FrontDominatesOrMatchesTheGridOptimizerAtEqualBudget) {
  // The acceptance bar: at an equal real-evaluation budget the
  // evolutionary front's hypervolume must be at least the grid optimizer's
  // (its archive also carries a front; nsga2 is built to spread across it
  // rather than converge to one incumbent).
  struct Case {
    op::Study study;
    int budget;
    int population;
    double ref_maximize;  ///< hypervolume reference corner
    double ref_minimize;
  };
  const Case cases[] = {
      // The cheap study: worst rail voltage 0, tap count above the 8x8 max.
      {rail_study(), 32, 8, 0.0, 65.0},
      // The 6-axis 3D-stack study: net power -10 W, peak temperature 86.85 C.
      {op::make_registered_study("stack_pareto"), 24, 6, -10.0, 86.85},
  };
  for (const Case& c : cases) {
    op::Nsga2Options evo;
    evo.budget = c.budget;
    evo.population = c.population;
    evo.thread_count = 2;
    const op::OptResult moo = op::optimize_nsga2(c.study, evo);
    op::OptimizerOptions grid_options;
    grid_options.budget = c.budget;
    grid_options.thread_count = 2;
    const op::OptResult grid = op::optimize(c.study, grid_options);

    // The feasible front as (maximized, minimized) points of the study's pair.
    const auto front_points = [&](const op::OptResult& result) {
      const std::vector<std::string>& names = result.archive.metric_names;
      const auto index = [&](const std::string& name) {
        return static_cast<std::size_t>(std::find(names.begin(), names.end(), name) -
                                        names.begin());
      };
      const std::size_t maximized = index(c.study.objective.pareto_maximize);
      const std::size_t minimized = index(c.study.objective.pareto_minimize);
      std::vector<std::pair<double, double>> points;
      for (const int row : result.pareto_indices) {
        const auto& metrics = result.archive.rows[static_cast<std::size_t>(row)].metrics;
        points.emplace_back(metrics.at(maximized), metrics.at(minimized));
      }
      return points;
    };
    const double hv_moo = op::hypervolume_2d(front_points(moo), c.ref_maximize, c.ref_minimize);
    const double hv_grid =
        op::hypervolume_2d(front_points(grid), c.ref_maximize, c.ref_minimize);
    EXPECT_GE(hv_moo, hv_grid) << c.study.name;
    EXPECT_GT(hv_moo, 0.0) << c.study.name;
  }
}

}  // namespace
