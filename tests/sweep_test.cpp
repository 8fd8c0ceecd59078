// Tests of the scenario-sweep engine: plan expansion, scenario overrides,
// runner determinism across thread counts, and cross-checks of the sweep
// rows against direct evaluations of the underlying models.
#include <cmath>
#include <sstream>
#include <utility>
#include <variant>

#include <gtest/gtest.h>

#include "core/cosim.h"
#include "flowcell/cell_array.h"
#include "hydraulics/pump.h"
#include "sweep/evaluators.h"
#include "sweep/execution.h"
#include "sweep/registry.h"
#include "sweep/runner.h"
#include "sweep/system_cache.h"

namespace co = brightsi::core;
namespace fc = brightsi::flowcell;
namespace hy = brightsi::hydraulics;
namespace sw = brightsi::sweep;

namespace {

std::string csv_of(const sw::SweepResult& result) {
  std::stringstream stream;
  sw::write_sweep_csv(stream, result);
  return stream.str();
}

std::string json_of(const sw::SweepResult& result) {
  std::stringstream stream;
  sw::write_sweep_json(stream, result);
  return stream.str();
}

/// The uncached reference of a plan: every scenario on a fresh worker, so
/// no model, rail or trajectory is shared between rows.
sw::SweepResult fresh_worker_run(const sw::SweepPlan& plan) {
  sw::SweepResult result;
  result.plan_name = plan.name;
  result.evaluator_name = plan.evaluator.name;
  result.metric_names = plan.evaluator.metrics;
  result.override_names = sw::collect_override_names(plan);
  for (const sw::ScenarioSpec& scenario : plan.scenarios) {
    sw::WorkerState fresh;
    result.rows.push_back(sw::evaluate_scenario(plan.base, plan.evaluator, scenario, fresh));
  }
  return result;
}

/// A fast 2x2 co-simulation grid (coarse thermal axis keeps it quick).
sw::SweepPlan small_cosim_grid() {
  sw::SweepPlan plan;
  plan.name = "test_grid";
  plan.base = co::power7_system_config();
  plan.base.thermal_grid.axial_cells = 8;
  plan.evaluator = sw::cosim_evaluator();
  plan.add_grid({{"channel_gap_um", {150.0, 250.0}},
                 {"channel_height_um", {300.0, 500.0}}});
  return plan;
}

TEST(ScenarioSpec, SetAppendsAndReplaces) {
  sw::ScenarioSpec scenario;
  scenario.set("flow_ml_min", 676.0);
  scenario.set("inlet_c", 27.0);
  scenario.set("flow_ml_min", 48.0);
  ASSERT_EQ(scenario.overrides.size(), 2u);
  EXPECT_DOUBLE_EQ(*scenario.get("flow_ml_min"), 48.0);
  EXPECT_DOUBLE_EQ(*scenario.get("inlet_c"), 27.0);
  EXPECT_FALSE(scenario.get("channel_gap_um").has_value());
}

TEST(ScenarioSpec, ApplyRewritesTheConfig) {
  const co::SystemConfig base = co::power7_system_config();
  sw::ScenarioSpec scenario;
  scenario.set("flow_ml_min", 48.0);
  scenario.set("inlet_c", 37.0);
  scenario.set("vrm_grid_n", 6.0);
  const co::SystemConfig config = sw::apply_scenario(base, scenario);
  EXPECT_NEAR(config.array_spec.total_flow_m3_per_s, 48.0 * 1e-6 / 60.0, 1e-15);
  EXPECT_NEAR(config.array_spec.inlet_temperature_k, 310.15, 1e-12);
  EXPECT_EQ(config.vrm_spec.count_x, 6);
  EXPECT_EQ(config.vrm_spec.count_y, 6);
  // The base is untouched.
  EXPECT_EQ(base.vrm_spec.count_x, 4);
}

TEST(ScenarioSpec, UnknownParameterThrows) {
  const co::SystemConfig base = co::power7_system_config();
  sw::ScenarioSpec scenario;
  scenario.set("not_a_parameter", 1.0);
  EXPECT_THROW((void)sw::apply_scenario(base, scenario), std::invalid_argument);
}

TEST(ScenarioSpec, EveryRegistryEntryIsNamedAndDescribed) {
  for (const sw::ParameterInfo& info : sw::parameter_registry()) {
    EXPECT_FALSE(info.name.empty());
    EXPECT_FALSE(info.description.empty());
    EXPECT_EQ(sw::find_parameter(info.name), &info);
  }
  EXPECT_EQ(sw::find_parameter("nope"), nullptr);
}

TEST(SweepPlan, GridExpandsRowMajor) {
  sw::SweepPlan plan;
  plan.add_grid({{"channel_gap_um", {100.0, 200.0}},
                 {"flow_ml_min", {48.0, 676.0}}},
                {{"inlet_c", 27.0}});
  ASSERT_EQ(plan.scenarios.size(), 4u);
  // Last axis varies fastest.
  EXPECT_DOUBLE_EQ(*plan.scenarios[0].get("channel_gap_um"), 100.0);
  EXPECT_DOUBLE_EQ(*plan.scenarios[0].get("flow_ml_min"), 48.0);
  EXPECT_DOUBLE_EQ(*plan.scenarios[1].get("flow_ml_min"), 676.0);
  EXPECT_DOUBLE_EQ(*plan.scenarios[2].get("channel_gap_um"), 200.0);
  // The common override lands on every scenario.
  for (const sw::ScenarioSpec& scenario : plan.scenarios) {
    EXPECT_DOUBLE_EQ(*scenario.get("inlet_c"), 27.0);
  }
  EXPECT_EQ(plan.scenarios[0].name, "channel_gap_um=100 flow_ml_min=48");
}

TEST(SweepPlan, EmptyAxisExpandsToNothing) {
  sw::SweepPlan plan;
  plan.add_grid({{"channel_gap_um", {100.0, 200.0}}, {"flow_ml_min", {}}});
  EXPECT_TRUE(plan.scenarios.empty());
}

TEST(SweepScenario, CountsAndFlagsRejectNonIntegerValues) {
  EXPECT_EQ(sw::whole_number_param("axial_cells", 16.0), 16);
  EXPECT_EQ(sw::whole_number_param("rack_blocked", -0.0), 0);
  EXPECT_TRUE(sw::flag_param("interlayer", 1.0));
  EXPECT_FALSE(sw::flag_param("interlayer", -0.0));
  for (const double bad : {2.9, 1e10, -3e9, std::nan(""), HUGE_VAL}) {
    try {
      (void)sw::whole_number_param("vrm_grid_n", bad);
      ADD_FAILURE() << "accepted " << bad;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("vrm_grid_n"), std::string::npos) << e.what();
    }
  }
  for (const double bad : {0.5, 2.0, -1.0, std::nan("")}) {
    EXPECT_THROW((void)sw::flag_param("interlayer", bad), std::invalid_argument) << bad;
  }
  // The appliers go through the same checks.
  sw::ScenarioSpec scenario;
  scenario.set("vrm_grid_n", 2.9);
  EXPECT_THROW((void)sw::apply_scenario(co::power7_system_config(), scenario),
               std::invalid_argument);
}

TEST(SweepScenario, FractionalRackChipsFailTheRowByName) {
  sw::SweepPlan plan;
  plan.name = "fractional_rack";
  plan.base = co::power7_system_config();
  plan.evaluator = sw::fleet_evaluator();
  sw::ScenarioSpec scenario;
  scenario.name = "rack_chips=2.5";
  scenario.set("rack_chips", 2.5);
  plan.add(scenario);
  const sw::SweepResult result = sw::SweepRunner({1}).run(plan);
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_TRUE(result.rows[0].failed);
  EXPECT_NE(result.rows[0].error.find("rack_chips"), std::string::npos)
      << result.rows[0].error;
}

TEST(SweepRunner, EmptyPlanYieldsEmptyResult) {
  sw::SweepPlan plan;
  plan.name = "empty";
  plan.base = co::power7_system_config();
  plan.evaluator = sw::array_power_evaluator();
  const sw::SweepRunner runner({4});
  const sw::SweepResult result = runner.run(plan);
  EXPECT_TRUE(result.rows.empty());
  EXPECT_EQ(result.failure_count(), 0);
  // Header-only CSV, empty JSON records.
  EXPECT_EQ(csv_of(result),
            "scenario,current_1v_a,power_density_w_cm2,dp_bar,pump_w,net_w,error\n");
}

TEST(SweepRunner, PlanWithoutEvaluatorThrows) {
  sw::SweepPlan plan;
  plan.base = co::power7_system_config();
  const sw::SweepRunner runner;
  EXPECT_THROW((void)runner.run(plan), std::invalid_argument);
}

TEST(SweepRunner, SingleScenarioMatchesDirectArrayEvaluation) {
  sw::SweepPlan plan;
  plan.name = "single";
  plan.base = co::power7_system_config();
  plan.evaluator = sw::array_power_evaluator();
  sw::ScenarioSpec scenario;
  scenario.name = "nominal";
  scenario.set("flow_ml_min", 200.0);
  plan.add(scenario);

  const sw::SweepResult result = sw::SweepRunner({1}).run(plan);
  ASSERT_EQ(result.rows.size(), 1u);
  ASSERT_FALSE(result.rows[0].failed);

  // Direct evaluation: the array current at 1 V and its pumping cost.
  auto spec = plan.base.array_spec;
  spec.total_flow_m3_per_s = 200.0 * 1e-6 / 60.0;
  const fc::FlowCellArray array(spec, plan.base.chemistry, plan.base.fvm);
  const double current = array.current_at_voltage(1.0, {spec.inlet_temperature_k});
  const auto h = array.hydraulics_at_spec_flow();
  const double pump =
      hy::pumping_power_w(h.pressure_drop_pa, spec.total_flow_m3_per_s, 0.5);

  EXPECT_DOUBLE_EQ(result.rows[0].metrics[0], current);
  EXPECT_DOUBLE_EQ(result.rows[0].metrics[2], h.pressure_drop_pa / 1e5);
  EXPECT_DOUBLE_EQ(result.rows[0].metrics[3], pump);
  EXPECT_DOUBLE_EQ(result.rows[0].metrics[4], current - pump);
}

TEST(SweepRunner, GeometryGridMatchesDirectCosim) {
  const sw::SweepPlan plan = small_cosim_grid();
  const sw::SweepResult result = sw::SweepRunner({2}).run(plan);
  ASSERT_EQ(result.rows.size(), 4u);

  for (const sw::ScenarioResult& row : result.rows) {
    ASSERT_FALSE(row.failed) << row.error;
    co::SystemConfig config = plan.base;
    ASSERT_EQ(row.overrides[0].first, "channel_gap_um");
    ASSERT_EQ(row.overrides[1].first, "channel_height_um");
    config.array_spec.geometry.electrode_gap_m = row.overrides[0].second * 1e-6;
    config.array_spec.geometry.channel_height_m = row.overrides[1].second * 1e-6;
    const co::IntegratedMpsocSystem system(config);
    const co::CoSimReport report = system.run();
    EXPECT_DOUBLE_EQ(row.metrics[2], report.peak_temperature_c) << row.name;
    EXPECT_DOUBLE_EQ(row.metrics[10], report.net_power_w) << row.name;
    EXPECT_DOUBLE_EQ(row.metrics[12], report.coupled_current_a) << row.name;
  }
}

TEST(SweepRunner, ByteIdenticalAcrossThreadCounts) {
  // The acceptance bar: >= 4 threads must produce byte-identical result
  // rows to a 1-thread run of the same plan.
  sw::SweepPlan plan = sw::make_registered_plan("ablation_geometry");
  const sw::SweepResult serial = sw::SweepRunner({1}).run(plan);
  const sw::SweepResult parallel4 = sw::SweepRunner({4}).run(plan);
  const sw::SweepResult parallel8 = sw::SweepRunner({8}).run(plan);
  EXPECT_EQ(csv_of(serial), csv_of(parallel4));
  EXPECT_EQ(csv_of(serial), csv_of(parallel8));
  EXPECT_EQ(json_of(serial), json_of(parallel4));
  ASSERT_EQ(serial.rows.size(), 14u);
  for (std::size_t i = 0; i < serial.rows.size(); ++i) {
    EXPECT_EQ(parallel4.rows[i].name, serial.rows[i].name);
  }
}

TEST(SweepRunner, FailedScenarioBecomesARowNotAnAbort) {
  sw::SweepPlan plan;
  plan.name = "failing";
  plan.base = co::power7_system_config();
  plan.evaluator = sw::array_power_evaluator();
  sw::ScenarioSpec bad;
  bad.name = "bad groups";
  bad.set("channel_groups", 7.0);  // 88 % 7 != 0 -> validate() throws
  plan.add(bad);
  sw::ScenarioSpec good;
  good.name = "nominal";
  plan.add(good);

  const sw::SweepResult result = sw::SweepRunner({2}).run(plan);
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_TRUE(result.rows[0].failed);
  EXPECT_FALSE(result.rows[0].error.empty());
  EXPECT_FALSE(result.rows[1].failed);
  EXPECT_EQ(result.failure_count(), 1);
}

TEST(SweepRegistry, PlansValidateAndCarryTheirDesignPoints) {
  for (const sw::PlanDescription& description : sw::registered_plans()) {
    const sw::SweepPlan plan = sw::make_registered_plan(description.name);
    EXPECT_EQ(plan.name, description.name);
    EXPECT_NO_THROW(plan.validate()) << description.name;
    EXPECT_FALSE(plan.scenarios.empty()) << description.name;
  }
  EXPECT_THROW((void)sw::make_registered_plan("nope"), std::invalid_argument);
  // The E9 geometry plan carries 14 design points, the E12 VRM plan 12.
  EXPECT_EQ(sw::make_registered_plan("ablation_geometry").scenarios.size(), 14u);
  EXPECT_EQ(sw::make_registered_plan("ablation_vrm_placement").scenarios.size(), 12u);
  EXPECT_EQ(sw::make_registered_plan("temp_sensitivity").scenarios.size(), 3u);
  // The 3D-stack plan: 3x2x2 grid + the interlayer-vs-top-only pair.
  EXPECT_EQ(sw::make_registered_plan("stack_3d").scenarios.size(), 14u);
}

TEST(ScenarioSpec, StackParametersRebuildTheMultiDieStack) {
  const co::SystemConfig base = co::power7_system_config();

  sw::ScenarioSpec two_dies;
  two_dies.set("die_count", 2.0);
  const co::SystemConfig stacked = sw::apply_scenario(base, two_dies);
  EXPECT_EQ(stacked.stack.source_layer_count(), 2);
  EXPECT_EQ(stacked.stack.channel_layer_count(), 2);  // interlayer by default
  ASSERT_EQ(stacked.upper_die_power.size(), 1u);       // per-die workload sized
  EXPECT_NO_THROW(stacked.validate());

  sw::ScenarioSpec top_only;
  top_only.set("die_count", 3.0);
  top_only.set("interlayer", 0.0);
  const co::SystemConfig capped = sw::apply_scenario(base, top_only);
  EXPECT_EQ(capped.stack.source_layer_count(), 3);
  EXPECT_EQ(capped.stack.channel_layer_count(), 1);
  EXPECT_EQ(capped.upper_die_power.size(), 2u);

  sw::ScenarioSpec resolved;
  resolved.set("die_count", 2.0);
  resolved.set("stack_layers", 5.0);
  resolved.set("stack_channel_height_um", 800.0);
  const co::SystemConfig fine = sw::apply_scenario(base, resolved);
  for (const brightsi::thermal::MicrochannelLayerSpec* channel :
       fine.stack.channel_layers()) {
    EXPECT_DOUBLE_EQ(channel->layer_height_m, 800e-6);
  }
  // Each of the four stack parameters alone changes the two-die model: the
  // worker's structure cache builds a second one.
  const co::SystemConfig two_die = co::two_die_system_config();
  for (const auto& [name, value] :
       {std::pair{"die_count", 3.0}, std::pair{"interlayer", 0.0},
        std::pair{"stack_layers", 5.0}, std::pair{"stack_channel_height_um", 800.0}}) {
    sw::ThermalModelCache cache;
    const auto primed = cache.model_for(two_die, sw::ScenarioSpec{});
    sw::ScenarioSpec changed;
    changed.set(name, value);
    EXPECT_NE(cache.model_for(sw::apply_scenario(two_die, changed), changed).get(), primed.get())
        << name;
    EXPECT_EQ(cache.build_count(), 2) << name;
  }
}

TEST(ScenarioSpec, StackParametersComposeInAnyOverrideOrder) {
  const co::SystemConfig base = co::power7_system_config();

  // height-then-dies must equal dies-then-height (a rebuild carries the
  // current channel height forward instead of resetting it).
  sw::ScenarioSpec height_first;
  height_first.set("stack_channel_height_um", 800.0);
  height_first.set("die_count", 2.0);
  sw::ScenarioSpec dies_first;
  dies_first.set("die_count", 2.0);
  dies_first.set("stack_channel_height_um", 800.0);
  const co::SystemConfig a = sw::apply_scenario(base, height_first);
  const co::SystemConfig b = sw::apply_scenario(base, dies_first);
  EXPECT_TRUE(a.stack == b.stack);
  for (const brightsi::thermal::MicrochannelLayerSpec* channel : a.stack.channel_layers()) {
    EXPECT_DOUBLE_EQ(channel->layer_height_m, 800e-6);
  }
  // The bottom cooling layer is the flow cell: the etch depth drives the
  // electrochemical channel model too.
  EXPECT_DOUBLE_EQ(a.array_spec.geometry.channel_height_m, 800e-6);
  EXPECT_DOUBLE_EQ(b.array_spec.geometry.channel_height_m, 800e-6);

  // stack_layers=1 must survive a later rebuild (bulk layers are matched
  // positionally, not by z_cells > 1).
  sw::ScenarioSpec coarse;
  coarse.set("die_count", 2.0);
  coarse.set("stack_layers", 1.0);
  coarse.set("interlayer", 0.0);
  const co::SystemConfig c = sw::apply_scenario(base, coarse);
  EXPECT_EQ(c.stack.channel_layer_count(), 1);  // interlayer=0 honored
  int bulk_layers = 0;
  for (const auto& layer : c.stack.layers) {
    if (const auto* solid = std::get_if<brightsi::thermal::SolidLayerSpec>(&layer)) {
      if (!solid->has_heat_source && solid->name != "cap_si") {
        EXPECT_EQ(solid->z_cells, 1) << solid->name;
        ++bulk_layers;
      }
    }
  }
  EXPECT_EQ(bulk_layers, 2);

  // interlayer=0 set BEFORE die_count (the README's `--set interlayer=0
  // --grid die_count=...` shape: common overrides precede grid axes) must
  // not be lost to the unrepresentable single-die intermediate state.
  sw::ScenarioSpec interlayer_first;
  interlayer_first.set("interlayer", 0.0);
  interlayer_first.set("die_count", 3.0);
  const co::SystemConfig d = sw::apply_scenario(base, interlayer_first);
  EXPECT_EQ(d.stack.source_layer_count(), 3);
  EXPECT_EQ(d.stack.channel_layer_count(), 1);
}

TEST(ScenarioSpec, PowerScaleCoversStackedDiesInEitherOrder) {
  const co::SystemConfig base = co::power7_system_config();
  const brightsi::chip::Power7PowerSpec preset = brightsi::chip::memory_die_power_spec();
  for (const bool scale_first : {false, true}) {
    sw::ScenarioSpec scenario;
    if (scale_first) {
      // The custom CLI's shape: --set power_scale=2 lands before the
      // --grid die_count axis.
      scenario.set("power_scale", 2.0);
      scenario.set("die_count", 2.0);
    } else {
      scenario.set("die_count", 2.0);
      scenario.set("power_scale", 2.0);
    }
    const co::SystemConfig scaled = sw::apply_scenario(base, scenario);
    ASSERT_EQ(scaled.upper_die_power.size(), 1u) << "scale_first=" << scale_first;
    EXPECT_DOUBLE_EQ(scaled.upper_die_power[0].core_w_per_cm2, 2.0 * preset.core_w_per_cm2)
        << "scale_first=" << scale_first;
    EXPECT_DOUBLE_EQ(scaled.power_spec.core_w_per_cm2,
                     2.0 * base.power_spec.core_w_per_cm2);
  }
}

TEST(SweepRegistry, VrmPlanReproducesTheEdgeVsDistributedShape) {
  const sw::SweepPlan plan = sw::make_registered_plan("ablation_vrm_placement");
  const sw::SweepResult result = sw::SweepRunner({4}).run(plan);
  ASSERT_EQ(result.failure_count(), 0);
  // distributed 4x4 (row 3) vs edge-fed 8/side (row 7): equal tap count,
  // distributed wins on min rail voltage — the paper's argument.
  const double distributed_min = result.rows[3].metrics[1];
  const double edge_min = result.rows[7].metrics[1];
  EXPECT_DOUBLE_EQ(result.rows[3].metrics[0], 16.0);
  EXPECT_DOUBLE_EQ(result.rows[7].metrics[0], 16.0);
  EXPECT_GT(distributed_min, edge_min);
}

TEST(SweepCache, ThermalModelReusedAcrossOperatingPoints) {
  const co::SystemConfig base = co::power7_system_config();
  sw::ThermalModelCache cache;

  sw::ScenarioSpec fast_flow;
  fast_flow.set("flow_ml_min", 676.0);
  sw::ScenarioSpec slow_flow;
  slow_flow.set("flow_ml_min", 48.0);
  sw::ScenarioSpec finer_grid;
  finer_grid.set("axial_cells", 6.0);

  const auto first = cache.model_for(sw::apply_scenario(base, fast_flow), fast_flow);
  const auto second = cache.model_for(sw::apply_scenario(base, slow_flow), slow_flow);
  EXPECT_EQ(first.get(), second.get());  // operating-point change: cache hit
  EXPECT_EQ(cache.build_count(), 1);

  const auto third = cache.model_for(sw::apply_scenario(base, finer_grid), finer_grid);
  EXPECT_NE(first.get(), third.get());  // structural change: rebuild
  EXPECT_EQ(third->ny(), 6);
  EXPECT_EQ(cache.build_count(), 2);
}

TEST(SweepCache, ThermalModelKeyedOnItsInputsNotTheOverrides) {
  // Overrides that leave the model's inputs as they are hit the cached
  // model: restating the base's axial cells, and the transient backend
  // switch, which no model reads.
  const co::SystemConfig base = co::power7_system_config();
  sw::ThermalModelCache cache;
  sw::ScenarioSpec plain;
  sw::ScenarioSpec restated;
  restated.set("axial_cells", static_cast<double>(base.thermal_grid.axial_cells));
  sw::ScenarioSpec rom;
  rom.set("transient", 1.0);

  const auto first = cache.model_for(sw::apply_scenario(base, plain), plain);
  EXPECT_EQ(cache.model_for(sw::apply_scenario(base, restated), restated).get(), first.get());
  EXPECT_EQ(cache.model_for(sw::apply_scenario(base, rom), rom).get(), first.get());
  EXPECT_EQ(cache.build_count(), 1);
}

TEST(SweepCache, RailReusedAcrossOperatingPoints) {
  const co::SystemConfig base = co::power7_system_config();
  sw::RailCache cache;
  auto rail_for = [&](sw::RailCache& c, const char* param, double value) {
    sw::ScenarioSpec scenario;
    scenario.set(param, value);
    return c.rail_for(sw::apply_scenario(base, scenario));
  };

  const auto first = rail_for(cache, "flow_ml_min", 676.0);
  EXPECT_EQ(cache.solve_count(), 1);
  // The coolant and the converter efficiency never reach the rail: hits.
  EXPECT_EQ(rail_for(cache, "flow_ml_min", 48.0).get(), first.get());
  EXPECT_EQ(rail_for(cache, "inlet_c", 37.0).get(), first.get());
  EXPECT_EQ(rail_for(cache, "vrm_efficiency", 0.9).get(), first.get());
  EXPECT_EQ(cache.solve_count(), 1);

  // The tap grid, the tap resistance and the cache loads are rail inputs:
  // each change alone misses the cached base rail and solves its own.
  for (const auto& [param, value] :
       {std::pair{"vrm_grid_n", 3.0}, std::pair{"vrm_r_mohm", 50.0},
        std::pair{"power_scale", 1.2}}) {
    sw::RailCache primed;
    const auto base_rail = rail_for(primed, "flow_ml_min", 676.0);
    const auto changed = rail_for(primed, param, value);
    EXPECT_NE(changed.get(), base_rail.get()) << param;
    EXPECT_EQ(primed.solve_count(), 2) << param;
    EXPECT_FALSE(changed->matches(base)) << param;
  }
}

TEST(SweepCache, OperatingGridSolvesTheRailOncePerWorker) {
  // operating_grid varies only the coolant, which never reaches the rail:
  // one worker solves it once for all nine rows.
  const sw::SweepPlan plan = sw::make_registered_plan("operating_grid");
  ASSERT_EQ(plan.scenarios.size(), 9u);
  const sw::SweepResult reused = sw::SweepRunner({1}).run(plan);
  ASSERT_EQ(reused.failure_count(), 0);
  EXPECT_EQ(reused.exec.rail_solves, 1);
}

TEST(SweepCache, CachedAndUncachedRowsByteIdenticalAtAnyThreadCount) {
  // The acceptance bar of the structure cache: rows must be byte-identical
  // to fresh-worker rows, serial and parallel. The plan mixes structural
  // (axial_cells), rail (vrm_grid_n) and operating-point (flow, inlet)
  // axes so cache hits, rebuilds and rail re-solves occur mid-sweep.
  sw::SweepPlan plan;
  plan.name = "cache_crosscheck";
  plan.base = co::power7_system_config();
  plan.base.thermal_grid.axial_cells = 8;
  plan.evaluator = sw::cosim_evaluator();
  plan.add_grid({{"axial_cells", {6.0, 8.0}},
                 {"vrm_grid_n", {3.0, 4.0}},
                 {"flow_ml_min", {200.0, 676.0}},
                 {"inlet_c", {27.0, 37.0}}});
  ASSERT_EQ(plan.scenarios.size(), 16u);

  const sw::SweepResult uncached = fresh_worker_run(plan);
  const sw::SweepResult cached = sw::SweepRunner({1}).run(plan);
  EXPECT_EQ(cached.failure_count(), 0);
  EXPECT_EQ(csv_of(cached), csv_of(uncached));
  EXPECT_EQ(json_of(cached), json_of(uncached));
  EXPECT_EQ(csv_of(sw::SweepRunner({4}).run(plan)), csv_of(uncached));
}

TEST(SweepCache, PersistentBackendServesADifferentStackOnTheNextBase) {
  // A backend keeps its workers across run() calls. A two-die base after a
  // single-die one, with the same overrides, must build the two-die model.
  auto stack_plan = [](const co::SystemConfig& base) {
    sw::SweepPlan plan;
    plan.name = "stack_probe";
    plan.base = base;
    plan.base.thermal_grid.axial_cells = 4;
    plan.evaluator = sw::stack_evaluator();
    plan.add_grid({{"flow_ml_min", {200.0, 676.0}}});
    return plan;
  };
  const sw::SweepRunner persistent(sw::make_local_backend({1}));
  ASSERT_EQ(persistent.run(stack_plan(co::power7_system_config())).failure_count(), 0);
  const sw::SweepPlan two_die = stack_plan(co::two_die_system_config());
  const sw::SweepResult second = persistent.run(two_die);
  EXPECT_EQ(second.failure_count(), 0);
  EXPECT_EQ(csv_of(second), csv_of(fresh_worker_run(two_die)));
  EXPECT_EQ(second.exec.model_builds, 2);
}

TEST(SweepMission, EnduranceRowsByteIdenticalAcrossThreadCounts) {
  // The mission/endurance acceptance bar: transient missions through the
  // sweep engine stay byte-identical at 1 and 4 threads. Trimmed to the
  // first 6 scenarios (both workload kinds, both dt values, including the
  // non-divisible 0.07 s step) to keep the suite quick.
  sw::SweepPlan plan = sw::make_registered_plan("mission_endurance");
  ASSERT_EQ(plan.scenarios.size(), 16u);
  plan.scenarios.resize(6);
  const sw::SweepResult serial = sw::SweepRunner({1}).run(plan);
  const sw::SweepResult parallel = sw::SweepRunner({4}).run(plan);
  ASSERT_EQ(serial.failure_count(), 0);
  EXPECT_EQ(csv_of(serial), csv_of(parallel));
  EXPECT_EQ(json_of(serial), json_of(parallel));

  // Sanity on the rows themselves: steps > 0, the tanks drained, the
  // supply held on the nominal platform.
  ASSERT_EQ(serial.metric_names.front(), "steps");
  for (const sw::ScenarioResult& row : serial.rows) {
    EXPECT_GT(row.metrics[0], 0.0) << row.name;       // steps
    EXPECT_LT(row.metrics[1], 0.95) << row.name;      // final_soc below initial
    EXPECT_GT(row.metrics[3], 0.0) << row.name;       // energy delivered
    EXPECT_DOUBLE_EQ(row.metrics[5], 1.0) << row.name;  // supply_ok
  }
}

TEST(SweepMission, RomRowsByteIdenticalAcrossThreadCounts) {
  // The reduced-order backend through the sweep engine: stamping
  // transient=1 onto endurance scenarios (what `brightsi_sweep --transient
  // rom` does) must keep rows byte-identical at 1 and 4 threads — each
  // ReducedThermalModel is private to its engine, never shared across
  // workers, so thread count cannot leak into the certificate trail.
  sw::SweepPlan plan = sw::make_registered_plan("mission_endurance");
  plan.scenarios.resize(3);
  for (sw::ScenarioSpec& scenario : plan.scenarios) {
    scenario.set("transient", 1.0);
  }
  const sw::SweepResult serial = sw::SweepRunner({1}).run(plan);
  const sw::SweepResult parallel = sw::SweepRunner({4}).run(plan);
  ASSERT_EQ(serial.failure_count(), 0);
  EXPECT_EQ(csv_of(serial), csv_of(parallel));
  EXPECT_EQ(json_of(serial), json_of(parallel));
  for (const sw::ScenarioResult& row : serial.rows) {
    EXPECT_GT(row.metrics[0], 0.0) << row.name;   // steps
    EXPECT_LT(row.metrics[1], 0.95) << row.name;  // final_soc below initial
  }
}

TEST(SweepMission, EvaluatorReusesTheWorkerThermalModel) {
  sw::SweepPlan plan = sw::make_registered_plan("mission_endurance");
  plan.scenarios.resize(2);  // same thermal structure, different tanks
  sw::WorkerState worker;
  const sw::SweepEvaluator evaluator = sw::mission_evaluator();
  for (const sw::ScenarioSpec& scenario : plan.scenarios) {
    const co::SystemConfig config = sw::apply_scenario(plan.base, scenario);
    (void)evaluator.fn(config, scenario, worker);
  }
  EXPECT_EQ(worker.thermal_models.build_count(), 1);
}

TEST(SweepCache, MissionTrajectoryCacheBasics) {
  sw::MissionTrajectoryCache cache;
  EXPECT_EQ(cache.find("k"), nullptr);
  EXPECT_EQ(cache.hit_count(), 0);

  brightsi::core::MissionThermalTrajectory trajectory;
  trajectory.work.steps = 42;
  cache.insert("k", trajectory);
  ASSERT_NE(cache.find("k"), nullptr);
  EXPECT_EQ(cache.find("k")->work.steps, 42);
  EXPECT_EQ(cache.hit_count(), 2);  // only successful lookups count
  EXPECT_EQ(cache.find("other"), nullptr);
  EXPECT_EQ(cache.size(), 1u);

  cache.clear();  // what a new base does: the entries go, the hits stay
  EXPECT_EQ(cache.find("k"), nullptr);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hit_count(), 2);
}

TEST(SweepMission, PersistentBackendRecordsTrajectoriesPerBase) {
  // The trajectory key holds overrides only, and a backend keeps its
  // workers across run() calls: the same mission on a hotter base must not
  // replay the cooler base's trajectory.
  auto mission_at = [](double inlet_k) {
    sw::SweepPlan plan;
    plan.name = "mission_probe";
    plan.base = co::power7_system_config();
    plan.base.thermal_grid.axial_cells = 4;
    plan.base.array_spec.inlet_temperature_k = inlet_k;
    plan.evaluator = sw::mission_evaluator();
    sw::ScenarioSpec scenario;
    scenario.name = "probe";
    scenario.set("tank_ml", 2.0);
    scenario.set("workload_kind", 0.0);
    scenario.set("mission_dt_s", 0.5);
    plan.add(scenario);
    return plan;
  };
  const sw::SweepRunner persistent(sw::make_local_backend({1}));
  const sw::SweepResult cool = persistent.run(mission_at(300.0));
  const sw::SweepPlan hot_plan = mission_at(320.0);
  const sw::SweepResult hot = persistent.run(hot_plan);
  ASSERT_EQ(hot.failure_count(), 0);
  EXPECT_EQ(hot.exec.trajectory_hits, 0);
  EXPECT_EQ(csv_of(hot), csv_of(fresh_worker_run(hot_plan)));
  // metrics: {steps, final_soc, soc_drop, energy_j, max_peak_c, ...}
  EXPECT_GT(hot.rows[0].metrics[4], cool.rows[0].metrics[4] + 10.0);
}

TEST(SweepMission, TrajectorySharedAcrossTankSizes) {
  // mission_endurance expands tank_ml as the outermost axis, so rows 0 and
  // 8 are the same mission under different tank volumes: the thermal
  // trajectory recorded for row 0 must replay for row 8 (no second
  // transient solve), with bitwise-equal thermal metrics and different
  // electrochemical ones.
  sw::SweepPlan plan = sw::make_registered_plan("mission_endurance");
  ASSERT_EQ(plan.scenarios[0].get("tank_ml"), 2.0);
  ASSERT_EQ(plan.scenarios[8].get("tank_ml"), 20.0);

  sw::WorkerState worker;
  const sw::SweepEvaluator evaluator = sw::mission_evaluator();
  std::vector<std::vector<double>> metrics;
  for (const std::size_t index : {std::size_t{0}, std::size_t{8}}) {
    const sw::ScenarioSpec& scenario = plan.scenarios[index];
    const co::SystemConfig config = sw::apply_scenario(plan.base, scenario);
    metrics.push_back(evaluator.fn(config, scenario, worker));
  }
  EXPECT_EQ(worker.mission_trajectories.hit_count(), 1);
  EXPECT_EQ(worker.thermal_models.build_count(), 1);
  // metrics: {steps, final_soc, soc_drop, energy_j, max_peak_c, ...}
  EXPECT_EQ(metrics[0][0], metrics[1][0]);  // identical step count
  EXPECT_EQ(metrics[0][4], metrics[1][4]);  // bitwise-equal peak temperature
  EXPECT_NE(metrics[0][1], metrics[1][1]);  // a 10x tank drains differently
}

TEST(SweepMission, TrajectoryReplayedRowsByteIdenticalWithAndWithoutReuse) {
  // The trajectory cache's acceptance bar: a replayed mission row must be
  // byte-identical to a freshly solved one, serial and parallel. The four
  // scenarios form two (dt, operating-point) pairs that differ only in
  // tank size, so the cached run replays half its rows.
  sw::SweepPlan plan = sw::make_registered_plan("mission_endurance");
  sw::SweepPlan trimmed = plan;
  trimmed.scenarios = {plan.scenarios[0], plan.scenarios[1], plan.scenarios[8],
                       plan.scenarios[9]};

  const std::string reference = csv_of(fresh_worker_run(trimmed));
  EXPECT_EQ(csv_of(sw::SweepRunner({1}).run(trimmed)), reference);
  EXPECT_EQ(csv_of(sw::SweepRunner({4}).run(trimmed)), reference);
}

TEST(SweepCsv, QuotesCellsWithCommas) {
  sw::SweepPlan plan;
  plan.name = "quoting";
  plan.base = co::power7_system_config();
  plan.evaluator = sw::array_power_evaluator();
  sw::ScenarioSpec scenario;
  scenario.name = "a, \"quoted\" name";
  plan.add(scenario);
  const sw::SweepResult result = sw::SweepRunner({1}).run(plan);
  const std::string csv = csv_of(result);
  EXPECT_NE(csv.find("\"a, \"\"quoted\"\" name\""), std::string::npos) << csv;
}

}  // namespace
