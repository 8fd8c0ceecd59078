// Tests of the design-space optimization layer: objective resolution and
// negative paths, Pareto extraction, worker-cache reuse across generations,
// determinism of the optimizer output across thread counts, resume through
// a result store, and the acceptance bar — the optimizer strictly beating
// the best row of the corresponding registered sweep plan at an equal
// evaluation budget.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <sstream>

#include <gtest/gtest.h>

#include "core/report.h"
#include "opt/studies.h"
#include "sweep/execution.h"
#include "sweep/registry.h"
#include "sweep/runner.h"

namespace co = brightsi::core;
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

/// A cheap study for structural tests: rail integrity over the VRM grid.
op::Study small_rail_study() {
  op::Study study = op::make_registered_study("vrm_placement");
  return study;
}

// -------------------------------------------------------------- objective
TEST(Objective, ResolvesAndScores) {
  const std::vector<std::string> metrics = {"net_w", "peak_t_c"};
  op::ObjectiveSpec spec = op::maximize_metric("net_w");
  spec.terms.push_back({"peak_t_c", -0.1});
  op::MetricConstraint cap;
  cap.metric = "peak_t_c";
  cap.max = 80.0;
  spec.constraints.push_back(cap);

  const op::ResolvedObjective objective(spec, metrics);
  EXPECT_DOUBLE_EQ(objective.score({10.0, 50.0}), 10.0 - 5.0);
  EXPECT_TRUE(objective.feasible({10.0, 50.0}));
  EXPECT_FALSE(objective.feasible({10.0, 80.5}));
  EXPECT_FALSE(objective.has_pareto_pair());
}

TEST(Objective, NanMetricsAreExplicitlyInfeasible) {
  // NaN fails every ordered comparison, so a naive `min <= v && v <= max`
  // would already reject it — but a naive `!(v < min) && !(v > max)` would
  // accept it. Pin the semantics in both bound directions, and pin the
  // violation measure the evolutionary optimizer ranks infeasibles by.
  const double nan = std::nan("");
  const std::vector<std::string> metrics = {"net_w", "peak_t_c"};
  op::ObjectiveSpec spec = op::maximize_metric("net_w");
  op::MetricConstraint floor;  // net_w >= 1 (lower bound)
  floor.metric = "net_w";
  floor.min = 1.0;
  spec.constraints.push_back(floor);
  op::MetricConstraint cap;  // peak_t_c <= 80 (upper bound)
  cap.metric = "peak_t_c";
  cap.max = 80.0;
  spec.constraints.push_back(cap);

  const op::ResolvedObjective objective(spec, metrics);
  EXPECT_TRUE(objective.feasible({10.0, 50.0}));
  EXPECT_FALSE(objective.feasible({nan, 50.0}));  // NaN under the floor
  EXPECT_FALSE(objective.feasible({10.0, nan}));  // NaN under the cap

  EXPECT_DOUBLE_EQ(objective.constraint_violation({10.0, 50.0}), 0.0);
  EXPECT_DOUBLE_EQ(objective.constraint_violation({0.25, 90.0}), 0.75 + 10.0);
  EXPECT_TRUE(std::isinf(objective.constraint_violation({nan, 50.0})));
  EXPECT_TRUE(std::isinf(objective.constraint_violation({10.0, nan})));
  // An unconstrained NaN metric does not poison feasibility of the rest.
  op::ObjectiveSpec only_cap = op::maximize_metric("net_w");
  only_cap.constraints.push_back(cap);
  const op::ResolvedObjective partial(only_cap, metrics);
  EXPECT_TRUE(partial.feasible({nan, 50.0}));
}

TEST(Objective, DescribeReadsNaturally) {
  op::ObjectiveSpec spec = op::maximize_metric("net_w");
  op::MetricConstraint cap;
  cap.metric = "peak_t_c";
  cap.max = 86.85;
  spec.constraints.push_back(cap);
  EXPECT_EQ(spec.describe(), "maximize net_w subject to peak_t_c <= 86.85");
  op::ObjectiveSpec minimize;
  minimize.terms.push_back(op::parse_objective_term("peak_t_c", -1.0));
  EXPECT_EQ(minimize.describe(), "minimize peak_t_c");
}

TEST(Objective, InvalidSpecsAreRejected) {
  const std::vector<std::string> metrics = {"net_w", "peak_t_c"};
  // Unknown metric.
  EXPECT_THROW(op::ResolvedObjective(op::maximize_metric("no_such_metric"), metrics),
               std::invalid_argument);
  // Empty term list.
  EXPECT_THROW(op::ResolvedObjective(op::ObjectiveSpec{}, metrics), std::invalid_argument);
  // Infeasible constraint window (min > max).
  op::ObjectiveSpec infeasible = op::maximize_metric("net_w");
  op::MetricConstraint window;
  window.metric = "peak_t_c";
  window.min = 90.0;
  window.max = 80.0;
  infeasible.constraints.push_back(window);
  EXPECT_THROW(op::ResolvedObjective(infeasible, metrics), std::invalid_argument);
  // Half-specified Pareto pair.
  op::ObjectiveSpec half = op::maximize_metric("net_w");
  half.pareto_maximize = "net_w";
  EXPECT_THROW(op::ResolvedObjective(half, metrics), std::invalid_argument);
  // Zero-weight term.
  op::ObjectiveSpec zero;
  zero.terms.push_back({"net_w", 0.0});
  EXPECT_THROW(op::ResolvedObjective(zero, metrics), std::invalid_argument);
}

TEST(Objective, CliTermAndBoundParsing) {
  const op::ObjectiveTerm plain = op::parse_objective_term("net_w", 1.0);
  EXPECT_EQ(plain.metric, "net_w");
  EXPECT_DOUBLE_EQ(plain.weight, 1.0);
  const op::ObjectiveTerm weighted = op::parse_objective_term("peak_t_c*0.25", -1.0);
  EXPECT_EQ(weighted.metric, "peak_t_c");
  EXPECT_DOUBLE_EQ(weighted.weight, -0.25);
  EXPECT_THROW((void)op::parse_objective_term("", 1.0), std::invalid_argument);
  EXPECT_THROW((void)op::parse_objective_term("net_w*zero", 1.0), std::invalid_argument);
  EXPECT_THROW((void)op::parse_objective_term("net_w*-2", 1.0), std::invalid_argument);

  const op::MetricConstraint cap = op::parse_metric_bound("peak_t_c=86.85", true);
  EXPECT_EQ(cap.metric, "peak_t_c");
  EXPECT_DOUBLE_EQ(cap.max, 86.85);
  EXPECT_FALSE(std::isfinite(cap.min));
  const op::MetricConstraint floor = op::parse_metric_bound("net_w=5", false);
  EXPECT_DOUBLE_EQ(floor.min, 5.0);
  EXPECT_THROW((void)op::parse_metric_bound("peak_t_c", true), std::invalid_argument);
  EXPECT_THROW((void)op::parse_metric_bound("=5", true), std::invalid_argument);
  EXPECT_THROW((void)op::parse_metric_bound("peak_t_c=hot", true), std::invalid_argument);
}

// ------------------------------------------------------------------ study
TEST(Study, RegisteredStudiesValidate) {
  for (const op::StudyDescription& description : op::registered_studies()) {
    const op::Study study = op::make_registered_study(description.name);
    EXPECT_EQ(study.name, description.name);
    EXPECT_NO_THROW(study.validate()) << description.name;
  }
  EXPECT_THROW((void)op::make_registered_study("nope"), std::invalid_argument);
}

TEST(Study, InvalidStudiesAreRejected) {
  op::Study study = small_rail_study();
  study.parameters.clear();  // empty parameter set
  EXPECT_THROW(study.validate(), std::invalid_argument);

  study = small_rail_study();
  study.parameters.push_back({"not_a_parameter", 0.0, 1.0, false});
  EXPECT_THROW(study.validate(), std::invalid_argument);

  study = small_rail_study();
  study.parameters[0].lower = 9.0;  // above upper
  EXPECT_THROW(study.validate(), std::invalid_argument);

  study = small_rail_study();
  study.parameters.push_back(study.parameters.front());  // duplicate
  EXPECT_THROW(study.validate(), std::invalid_argument);

  study = small_rail_study();
  study.objective = op::maximize_metric("no_such_metric");
  EXPECT_THROW(study.validate(), std::invalid_argument);

  op::OptimizerOptions no_budget;
  no_budget.budget = 0;
  EXPECT_THROW((void)op::optimize(small_rail_study(), no_budget), std::invalid_argument);
}

// ----------------------------------------------------------------- pareto
TEST(Pareto, ExtractsTheNonDominatedSet) {
  sw::SweepResult archive;
  archive.metric_names = {"gain", "cost"};
  const auto add = [&](double gain, double cost) {
    sw::ScenarioResult row;
    row.name = "p";
    row.metrics = {gain, cost};
    archive.rows.push_back(row);
  };
  add(1.0, 1.0);   // on the front
  add(2.0, 2.0);   // on the front
  add(1.5, 3.0);   // dominated by (2, 2)
  add(3.0, 5.0);   // on the front
  add(1.0, 1.0);   // duplicate of row 0: mutually non-dominating, kept
  add(0.5, 0.5);   // on the front (cheapest)

  const std::vector<int> front = op::pareto_front(archive, {0, 1, 2, 3, 4, 5}, 0, 1);
  // Ascending in the maximized metric, ties by archive order.
  EXPECT_EQ(front, (std::vector<int>{5, 0, 4, 1, 3}));
}

// --------------------------------------------------------- local backend
TEST(LocalBackend, PersistsWorkerCachesAcrossGenerations) {
  const op::Study study = op::make_registered_study("channel_geometry");
  const auto backend = sw::make_local_backend({1});

  std::vector<sw::ScenarioSpec> generation;
  for (const double flow : {100.0, 400.0, 900.0}) {
    sw::ScenarioSpec spec;
    spec.name = "flow_ml_min=" + sw::format_sweep_value(flow);
    spec.set("flow_ml_min", flow);
    generation.push_back(std::move(spec));
  }
  std::vector<sw::ScenarioResult> first;
  std::vector<sw::ScenarioResult> second;  // the next optimizer generation
  backend->execute(study.base, study.evaluator, generation, first);
  backend->execute(study.base, study.evaluator, generation, second);
  ASSERT_EQ(first.size(), 3u);
  for (std::size_t i = 0; i < first.size(); ++i) {
    ASSERT_FALSE(first[i].failed) << first[i].error;
    EXPECT_EQ(first[i].metrics, second[i].metrics);  // bitwise repeatable
  }
  EXPECT_EQ(backend->stats().evaluated, 6);
  // One thermal structure serves all six evaluations across both calls.
  EXPECT_EQ(backend->stats().model_builds, 1);

  // Invalid candidates become failed rows, not aborts — same as the
  // sweep runner's contract.
  sw::ScenarioSpec bad;
  bad.name = "bad";
  bad.set("channel_groups", 7.0);  // 88 % 7 != 0 -> validate() throws
  std::vector<sw::ScenarioResult> rows;
  backend->execute(study.base, study.evaluator, {bad}, rows);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_TRUE(rows[0].failed);
  EXPECT_FALSE(rows[0].error.empty());
}

// -------------------------------------------------------------- optimizer
TEST(Optimizer, DeterministicAcrossThreadCounts) {
  // The acceptance bar: the same study at 1 and 4 threads must produce
  // byte-identical archive CSV, Pareto CSV and JSON output (the optimizer
  // mirrors the sweep engine's determinism contract) — for the cheap rail
  // study and for stacked co-simulations with an integer die-count axis.
  const std::pair<const char*, int> cases[] = {{"vrm_placement", 40}, {"stack_depth", 10}};
  for (const auto& [name, budget] : cases) {
    const op::Study study = op::make_registered_study(name);
    op::OptimizerOptions serial;
    serial.budget = budget;
    serial.thread_count = 1;
    op::OptimizerOptions parallel = serial;
    parallel.thread_count = 4;

    const op::OptResult result_1 = op::optimize(study, serial);
    const op::OptResult result_4 = op::optimize(study, parallel);
    EXPECT_EQ(result_1.evaluations(), budget) << name;
    EXPECT_EQ(result_1.best_index, result_4.best_index) << name;
    EXPECT_EQ(result_1.pareto_indices, result_4.pareto_indices) << name;
    EXPECT_EQ(opt_csv(result_1), opt_csv(result_4)) << name;
    EXPECT_EQ(pareto_csv(result_1), pareto_csv(result_4)) << name;
    EXPECT_EQ(opt_json(result_1), opt_json(result_4)) << name;
  }
}

TEST(Optimizer, WidenedBudgetResumesThroughTheStore) {
  // A budget-10 run fills a fresh store; the budget-24 re-run against it
  // replays the same search with the first 10 candidates resolved from
  // disk, and emits exactly what an uninterrupted budget-24 run does.
  const op::Study study = small_rail_study();
  const fs::path dir = fs::path(::testing::TempDir()) / "brightsi_opt_resume";
  fs::remove_all(dir);
  const auto store_backend = [&] {
    sw::ShardOptions shard;
    shard.store_dir = dir.string();
    shard.scope = study.name;
    shard.local = {2};
    return std::shared_ptr<sw::ExecutionBackend>(sw::make_shard_backend(std::move(shard)));
  };

  op::OptimizerOptions options;
  options.budget = 24;
  options.thread_count = 2;
  const op::OptResult direct = op::optimize(study, options);

  op::OptimizerOptions first = options;
  first.budget = 10;
  first.backend = store_backend();
  EXPECT_EQ(op::optimize(study, first).evaluations(), 10);

  op::OptimizerOptions second = options;
  second.backend = store_backend();
  const op::OptResult resumed = op::optimize(study, second);
  EXPECT_EQ(opt_csv(resumed), opt_csv(direct));
  EXPECT_EQ(opt_json(resumed), opt_json(direct));
  EXPECT_EQ(resumed.archive.exec.store_hits, 10);
  EXPECT_EQ(resumed.archive.exec.evaluated, 14);
  fs::remove_all(dir);
}

TEST(Optimizer, BudgetIsAHardCapAndDedupNeverReevaluates) {
  const op::Study study = small_rail_study();
  op::OptimizerOptions options;
  options.budget = 17;  // awkward: forces a truncated generation
  options.thread_count = 2;
  const op::OptResult result = op::optimize(study, options);
  EXPECT_EQ(result.evaluations(), 17);
  ASSERT_GE(result.best_index, 0);
  // Every archived candidate is unique (deduplication works).
  for (std::size_t i = 0; i < result.archive.rows.size(); ++i) {
    for (std::size_t j = i + 1; j < result.archive.rows.size(); ++j) {
      EXPECT_NE(result.archive.rows[i].name, result.archive.rows[j].name);
    }
  }
  // Scores and feasibility line up with the archive.
  EXPECT_EQ(result.scores.size(), result.archive.rows.size());
  EXPECT_EQ(result.feasible.size(), result.archive.rows.size());
}

TEST(Optimizer, InfeasibleConstraintYieldsNoBestButKeepsTheArchive) {
  op::Study study = small_rail_study();
  op::MetricConstraint impossible;
  impossible.metric = "rail_min_v";
  impossible.min = 2.0;  // rails never exceed the 1 V set point
  study.objective.constraints.push_back(impossible);
  op::OptimizerOptions options;
  options.budget = 6;
  options.thread_count = 2;
  const op::OptResult result = op::optimize(study, options);
  EXPECT_EQ(result.best_index, -1);
  EXPECT_EQ(result.best(), nullptr);
  EXPECT_EQ(result.evaluations(), 6);
  EXPECT_TRUE(result.pareto_indices.empty());
  for (const bool feasible : result.feasible) {
    EXPECT_FALSE(feasible);
  }
}

TEST(Optimizer, BeatsTheRegisteredSweepPlanAtEqualBudget) {
  // The PR acceptance criterion: at the *same evaluation budget* as the
  // registered ablation_geometry plan (14 design points), the optimizer
  // must find a channel-geometry/flow design whose net power strictly
  // improves on the plan's best row, with peak temperature within the
  // study's configured cap (T_max <= 360 K).
  const sw::SweepPlan plan = sw::make_registered_plan("ablation_geometry");
  const sw::SweepResult sweep = sw::SweepRunner({4}).run(plan);
  ASSERT_EQ(sweep.failure_count(), 0);
  const std::size_t net_index = 4;  // net_w column of the array evaluator
  ASSERT_EQ(sweep.metric_names[net_index], "net_w");
  double plan_best_net_w = 0.0;
  for (const sw::ScenarioResult& row : sweep.rows) {
    plan_best_net_w = std::max(plan_best_net_w, row.metrics[net_index]);
  }

  op::Study study = op::make_registered_study("channel_geometry");
  study.base.thermal_grid.axial_cells = 8;  // keep the suite quick
  op::OptimizerOptions options;
  options.budget = static_cast<int>(plan.scenarios.size());  // equal budget
  const op::OptResult result = op::optimize(study, options);

  ASSERT_NE(result.best(), nullptr);
  ASSERT_EQ(study.evaluator.metrics[net_index], "net_w");
  const double opt_net_w = result.best()->metrics[net_index];
  EXPECT_GT(opt_net_w, plan_best_net_w);  // strict improvement
  const double peak_t_c = result.best()->metrics[5];
  ASSERT_EQ(study.evaluator.metrics[5], "peak_t_c");
  EXPECT_LE(peak_t_c, 360.0 - 273.15);  // within the configured cap
  // And the cap is active, not vacuous: the archive contains candidates.
  EXPECT_EQ(result.evaluations(), static_cast<long long>(plan.scenarios.size()));
}

TEST(Optimizer, ParetoFrontTradesNetPowerAgainstPeakTemperature) {
  op::Study study = op::make_registered_study("channel_geometry");
  study.base.thermal_grid.axial_cells = 8;
  op::OptimizerOptions options;
  options.budget = 24;
  const op::OptResult result = op::optimize(study, options);
  ASSERT_GE(result.pareto_indices.size(), 2u);  // a real trade-off surface
  // Ascending net power implies ascending peak temperature along the
  // front (otherwise a point would dominate its neighbour).
  for (std::size_t i = 1; i < result.pareto_indices.size(); ++i) {
    const auto& previous =
        result.archive.rows[static_cast<std::size_t>(result.pareto_indices[i - 1])];
    const auto& current =
        result.archive.rows[static_cast<std::size_t>(result.pareto_indices[i])];
    EXPECT_GE(current.metrics[4], previous.metrics[4]);  // net_w ascending
    EXPECT_GE(current.metrics[5], previous.metrics[5]);  // peak_t_c ascending
  }
  // The incumbent is on the front.
  EXPECT_NE(std::find(result.pareto_indices.begin(), result.pareto_indices.end(),
                      result.best_index),
            result.pareto_indices.end());
}

// ---------------------------------------------------------- JSON escaping
TEST(JsonEscaping, SweepAndOptWritersEscapeHostileStrings) {
  // Scenario names and error messages are the only free-form strings in
  // the emitters; cover quotes, backslashes, newlines and control bytes.
  const std::string hostile = "a\"b\\c\nd\te\x01" "f";
  EXPECT_EQ(co::json_escape(hostile), "a\\\"b\\\\c\\nd\\te\\u0001f");

  sw::SweepPlan plan;
  plan.name = "hostile \"plan\"";
  plan.base = co::power7_system_config();
  plan.evaluator = sw::rail_integrity_evaluator();
  sw::ScenarioSpec scenario;
  scenario.name = hostile;
  scenario.set("vrm_grid_n", 4.0);
  plan.add(scenario);
  const sw::SweepResult sweep = sw::SweepRunner({1}).run(plan);
  std::stringstream sweep_json;
  sw::write_sweep_json(sweep_json, sweep);
  const std::string sweep_text = sweep_json.str();
  EXPECT_NE(sweep_text.find("a\\\"b\\\\c\\nd\\te\\u0001f"), std::string::npos);
  EXPECT_NE(sweep_text.find("hostile \\\"plan\\\""), std::string::npos);
  // No raw control bytes survive into the document.
  for (const char c : sweep_text) {
    EXPECT_TRUE(static_cast<unsigned char>(c) >= 0x20 || c == '\n');
  }

  // The opt JSON writer inherits the same escaping for study names and
  // scenario rows.
  op::Study study = small_rail_study();
  study.name = "study \"quoted\"\n";
  op::OptimizerOptions options;
  options.budget = 3;
  options.thread_count = 1;
  const op::OptResult result = op::optimize(study, options);
  const std::string opt_text = opt_json(result);
  EXPECT_NE(opt_text.find("study \\\"quoted\\\"\\n"), std::string::npos);
  for (const char c : opt_text) {
    EXPECT_TRUE(static_cast<unsigned char>(c) >= 0x20 || c == '\n');
  }
}

}  // namespace
