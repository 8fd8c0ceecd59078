// Tests of the fleet layer (fleet/rack.h): rack validation, the shared-loop
// steady solve (serial inlet rise, energy balance, blocked-branch
// rerouting, temperature-dependent coolant), staggered trace replay, and
// the fleet sweep plans' determinism contract — rows byte-identical across
// thread counts, shard counts and kill-and-resume cycles.
#include <cmath>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "chip/power7.h"
#include "chip/workload.h"
#include "core/system_config.h"
#include "fleet/rack.h"
#include "sweep/execution.h"
#include "sweep/registry.h"
#include "sweep/runner.h"
#include "thermal/materials.h"
#include "thermal/model.h"

namespace ch = brightsi::chip;
namespace co = brightsi::core;
namespace fl = brightsi::fleet;
namespace sw = brightsi::sweep;
namespace th = brightsi::thermal;
namespace fs = std::filesystem;

namespace {

std::string csv_of(const sw::SweepResult& result) {
  std::stringstream stream;
  sw::write_sweep_csv(stream, result);
  return stream.str();
}

/// A fresh, empty directory path under the test temp dir.
std::string temp_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("brightsi_fleet_" + name);
  fs::remove_all(dir);
  return dir.string();
}

/// The fleet plans' base: coarse thermal axis, N chips solve per scenario.
co::SystemConfig fast_base() {
  co::SystemConfig base = co::power7_system_config();
  base.thermal_grid.axial_cells = 8;
  return base;
}

/// A small fleet grid over the steady rack evaluator (6 rows).
sw::SweepPlan small_fleet_grid() {
  sw::SweepPlan plan;
  plan.name = "fleet_grid";
  plan.base = fast_base();
  plan.evaluator = sw::fleet_evaluator();
  plan.add_grid({{"rack_chips", {2.0, 4.0}},
                 {"rack_segments", {1.0, 2.0}},
                 {"coolant_temp_dep", {0.0}}});
  sw::ScenarioSpec blocked;
  blocked.name = "blocked branch";
  blocked.set("rack_chips", 4.0);
  blocked.set("rack_segments", 2.0);
  blocked.set("rack_blocked", 1.0);
  plan.add(std::move(blocked));
  sw::ScenarioSpec laws;
  laws.name = "temp-dependent coolant";
  laws.set("rack_chips", 4.0);
  laws.set("rack_segments", 2.0);
  laws.set("coolant_temp_dep", 1.0);
  plan.add(std::move(laws));
  return plan;
}

// -------------------------------------------------------------- validation
TEST(RackSpec, EmptyRackThrows) {
  fl::RackSpec rack;
  EXPECT_THROW(rack.validate(), std::invalid_argument);
}

TEST(RackSpec, DuplicateChipNamesThrow) {
  fl::RackSpec rack = fl::make_demo_rack(fast_base(), 2, 1, 1);
  rack.chips[1].name = rack.chips[0].name;
  EXPECT_THROW(rack.validate(), std::invalid_argument);
}

TEST(RackSpec, SegmentGapThrows) {
  fl::RackSpec rack = fl::make_demo_rack(fast_base(), 2, 1, 2);
  rack.chips[1].segment = 3;  // loop 0 then has segments {0, 3}: gap
  EXPECT_THROW(rack.validate(), std::invalid_argument);
}

TEST(RackSpec, NegativeLoopIndexThrows) {
  fl::RackSpec rack = fl::make_demo_rack(fast_base(), 2, 1, 1);
  rack.chips[0].loop = -1;
  EXPECT_THROW(rack.validate(), std::invalid_argument);
}

TEST(RackSpec, DemoRackShapes) {
  const fl::RackSpec rack = fl::make_demo_rack(fast_base(), 8, 2, 2);
  EXPECT_EQ(rack.chips.size(), 8u);
  EXPECT_EQ(rack.loop_count(), 2);
  EXPECT_EQ(rack.segment_count(0), 2);
  EXPECT_EQ(rack.segment_count(1), 2);
  try {
    (void)rack.segment_count(2);
    ADD_FAILURE() << "segment_count(2) did not throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "rack has no loop 2");
  }
}

// ------------------------------------------------------------ steady solve
TEST(RackSteady, SingleChipMatchesTheDirectThermalSolve) {
  // A one-chip rack is exactly the single-chip model at the loop operating
  // point: same flow, same inlet, constant-property coolant.
  const co::SystemConfig base = fast_base();
  const fl::RackSpec rack = fl::make_demo_rack(base, 1, 1, 1);
  const fl::RackSolveResult result = fl::solve_rack_steady(rack);

  const ch::Floorplan floorplan = ch::make_power7_floorplan(base.power_spec);
  const th::ThermalModel model(base.stack, floorplan.die_width(), floorplan.die_height(),
                               base.thermal_grid);
  th::OperatingPoint op = base.thermal_operating_point();
  op.total_flow_m3_per_s = rack.loop_flow_m3_per_s;
  op.inlet_temperature_k = rack.loop_inlet_temperature_k;
  const th::ThermalSolution direct = model.solve_steady(floorplan, op);

  ASSERT_EQ(result.chips.size(), 1u);
  EXPECT_EQ(result.chips[0].peak_temperature_k, direct.peak_temperature_k);
  EXPECT_EQ(result.chips[0].heat_absorbed_w, direct.fluid_heat_absorbed_w);
  EXPECT_DOUBLE_EQ(result.chips[0].flow_fraction, 1.0);
}

TEST(RackSteady, EveryChipMatchesItsOneShotThermalSolve) {
  // Chips that share a model share one solve context in the rack solve;
  // each chip's answer must still be bitwise the one-shot solve on a fresh
  // context at that chip's operating point.
  fl::RackSpec rack = fl::make_demo_rack(fast_base(), 8, 2, 2, /*heterogeneous=*/true);
  rack.coolant_laws.temperature_dependent = true;
  rack.coolant_laws.reference_temperature_k = rack.loop_inlet_temperature_k;
  const fl::RackSolveResult result = fl::solve_rack_steady(rack);
  ASSERT_EQ(result.chips.size(), rack.chips.size());
  for (std::size_t i = 0; i < rack.chips.size(); ++i) {
    const co::SystemConfig& system = rack.chips[i].system;
    const fl::RackChipResult& chip = result.chips[i];
    std::vector<ch::Floorplan> floorplans{ch::make_power7_floorplan(system.power_spec)};
    for (const ch::Power7PowerSpec& upper : system.upper_die_power) {
      floorplans.push_back(ch::make_power7_floorplan(upper));
    }
    std::vector<const ch::Floorplan*> pointers;
    for (const ch::Floorplan& floorplan : floorplans) {
      pointers.push_back(&floorplan);
    }
    const th::ThermalModel model(system.stack, floorplans.front().die_width(),
                                 floorplans.front().die_height(), system.thermal_grid);
    const th::ThermalSolution direct = model.solve_steady(
        pointers, system.loop_operating_point(chip.flow_m3_per_s, chip.inlet_temperature_k,
                                              rack.coolant_laws));
    EXPECT_EQ(chip.peak_temperature_k, direct.peak_temperature_k) << chip.name;
    EXPECT_EQ(chip.heat_absorbed_w, direct.fluid_heat_absorbed_w) << chip.name;
  }
}

TEST(RackSteady, SerialInletsRiseMonotonically) {
  // One loop of 4 serial segments, and the bench rack: 8 mixed one- and
  // two-die chips on 2 loops x 2 segments with temperature-dependent coolant.
  fl::RackSpec bench_rack = fl::make_demo_rack(fast_base(), 8, 2, 2, /*heterogeneous=*/true);
  bench_rack.coolant_laws.temperature_dependent = true;
  bench_rack.coolant_laws.reference_temperature_k = bench_rack.loop_inlet_temperature_k;
  for (const fl::RackSpec& rack : {fl::make_demo_rack(fast_base(), 4, 1, 4), bench_rack}) {
    const fl::RackSolveResult result = fl::solve_rack_steady(rack);
    ASSERT_EQ(result.loops.size(), static_cast<std::size_t>(rack.loop_count()));
    for (std::size_t l = 0; l < result.loops.size(); ++l) {
      const std::vector<double>& inlets = result.loops[l].segment_inlet_k;
      ASSERT_EQ(inlets.size(), static_cast<std::size_t>(rack.segment_count(static_cast<int>(l))));
      for (std::size_t s = 1; s < inlets.size(); ++s) {
        EXPECT_GT(inlets[s], inlets[s - 1]) << "loop " << l << " segment " << s;
      }
    }
    EXPECT_TRUE(result.inlet_monotonic);
    EXPECT_GT(result.max_inlet_rise_k, 0.0);
    // Chips report the plenum inlet of their segment.
    for (const fl::RackChipResult& c : result.chips) {
      EXPECT_EQ(c.inlet_temperature_k,
                result.loops[static_cast<std::size_t>(c.loop)]
                    .segment_inlet_k[static_cast<std::size_t>(c.segment)]);
      EXPECT_GT(c.outlet_temperature_k, c.inlet_temperature_k);
    }
  }
}

TEST(RackSteady, EnergyBalanceClosesToRounding) {
  // The acceptance property: per-loop, the sum of the chips' coolant heat
  // pickups equals the loop's enthalpy rise to 1e-6 relative (by
  // construction it telescopes to rounding).
  for (const bool hetero : {false, true}) {
    const fl::RackSpec rack = fl::make_demo_rack(fast_base(), 8, 2, 2, hetero);
    const fl::RackSolveResult result = fl::solve_rack_steady(rack);
    EXPECT_LE(result.energy_balance_rel_error, 1e-6);
    const double cvol = rack.coolant_reference().volumetric_heat_capacity_j_per_m3_k;
    for (std::size_t l = 0; l < result.loops.size(); ++l) {
      double chip_heat_w = 0.0;
      for (const fl::RackChipResult& c : result.chips) {
        if (c.loop == static_cast<int>(l)) {
          chip_heat_w += c.heat_absorbed_w;
        }
      }
      const double enthalpy_rise_w =
          cvol * rack.loop_flow_m3_per_s *
          (result.loops[l].outlet_temperature_k - result.loops[l].inlet_temperature_k);
      EXPECT_NEAR(enthalpy_rise_w, chip_heat_w, 1e-6 * chip_heat_w)
          << "loop " << l << " hetero " << hetero;
    }
  }
}

TEST(RackSteady, BlockedChipGetsNoFlowAndSurvivorsInheritIt) {
  const fl::RackSpec rack =
      fl::make_demo_rack(fast_base(), 4, 1, 2, /*heterogeneous=*/false,
                         /*blocked_count=*/1);
  const fl::RackSolveResult result = fl::solve_rack_steady(rack);
  const fl::RackChipResult& blocked = result.chips[0];
  EXPECT_TRUE(blocked.blocked);
  EXPECT_DOUBLE_EQ(blocked.flow_m3_per_s, 0.0);
  EXPECT_DOUBLE_EQ(blocked.heat_absorbed_w, 0.0);
  // Chip 0 and chip 2 share segment 0; the survivor takes the whole
  // segment flow.
  const fl::RackChipResult& survivor = result.chips[2];
  EXPECT_EQ(survivor.segment, blocked.segment);
  EXPECT_DOUBLE_EQ(survivor.flow_fraction, 1.0);
  EXPECT_DOUBLE_EQ(survivor.flow_m3_per_s, rack.loop_flow_m3_per_s);
  // Powered-off chip: less total heat than the unblocked rack.
  const fl::RackSolveResult unblocked =
      fl::solve_rack_steady(fl::make_demo_rack(fast_base(), 4, 1, 2));
  EXPECT_LT(result.heat_absorbed_w, unblocked.heat_absorbed_w);
}

TEST(RackSteady, AllBlockedSegmentThrowsTheNamedManifoldError) {
  fl::RackSpec rack = fl::make_demo_rack(fast_base(), 2, 1, 2);
  rack.chips[0].blocked = true;  // the only chip of segment 0
  try {
    (void)fl::solve_rack_steady(rack);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("chip0"), std::string::npos) << e.what();
  }
}

TEST(RackSteady, HeterogeneousSegmentsSplitByConductance) {
  // Mixed one-/two-die segments: the two-die chip has twice the branch
  // conductance, so it takes 2/3 of the segment flow.
  const fl::RackSpec rack = fl::make_demo_rack(fast_base(), 8, 2, 2, /*heterogeneous=*/true);
  const fl::RackSolveResult result = fl::solve_rack_steady(rack);
  for (const fl::RackChipResult& c : result.chips) {
    const bool two_die = c.flow_fraction > 0.5;
    EXPECT_NEAR(c.flow_fraction, two_die ? 2.0 / 3.0 : 1.0 / 3.0, 1e-9) << c.name;
  }
}

TEST(RackSteady, DisabledLawsAreBitIdenticalRegardlessOfCoefficients) {
  const fl::RackSpec reference = fl::make_demo_rack(fast_base(), 4, 1, 2);
  fl::RackSpec tweaked = reference;
  tweaked.coolant_laws.viscosity_activation_j_per_mol = 99999.0;
  tweaked.coolant_laws.conductivity_coeff_per_k = 0.5;
  tweaked.coolant_laws.reference_temperature_k = 250.0;
  // temperature_dependent stays false: at() must return the reference
  // coolant bit for bit, so the solves match exactly.
  const fl::RackSolveResult a = fl::solve_rack_steady(reference);
  const fl::RackSolveResult b = fl::solve_rack_steady(tweaked);
  EXPECT_EQ(a.peak_temperature_k, b.peak_temperature_k);
  EXPECT_EQ(a.pump_power_w, b.pump_power_w);
  EXPECT_EQ(a.heat_absorbed_w, b.heat_absorbed_w);
  for (std::size_t i = 0; i < a.chips.size(); ++i) {
    EXPECT_EQ(a.chips[i].outlet_temperature_k, b.chips[i].outlet_temperature_k);
  }
}

TEST(RackSteady, TemperatureDependentLawsCutPumpPowerAndChangeTheSolve) {
  fl::RackSpec rack = fl::make_demo_rack(fast_base(), 4, 1, 4);
  const fl::RackSolveResult constant = fl::solve_rack_steady(rack);
  rack.coolant_laws.temperature_dependent = true;
  rack.coolant_laws.reference_temperature_k = rack.loop_inlet_temperature_k;
  const fl::RackSolveResult priced = fl::solve_rack_steady(rack);
  // Downstream segments run warmer than the reference, so their viscosity
  // — and hence the loop pressure drop and pump power — drops.
  EXPECT_LT(priced.pump_power_w, constant.pump_power_w);
  // The film coefficients change too: the thermal answer must move.
  EXPECT_NE(priced.peak_temperature_k, constant.peak_temperature_k);
  // First segment sits at the reference temperature: its inlet coolant is
  // exactly the reference, so the rise starts from the same base.
  EXPECT_EQ(priced.loops[0].segment_inlet_k[0], constant.loops[0].segment_inlet_k[0]);
}

// ---------------------------------------------------------- coolant laws
TEST(CoolantLaws, DisabledReturnsReferenceBitwise) {
  const th::CoolantProperties reference;
  th::CoolantPropertyLaws laws;
  laws.viscosity_activation_j_per_mol = 123456.0;
  EXPECT_EQ(laws.at(reference, 350.0), reference);
}

TEST(CoolantLaws, AtTheReferenceTemperatureEnabledLawsChangeNothing) {
  const th::CoolantProperties reference;
  th::CoolantPropertyLaws laws;
  laws.temperature_dependent = true;
  EXPECT_EQ(laws.at(reference, laws.reference_temperature_k), reference);
}

TEST(CoolantLaws, AndradeViscosityFallsAndConductivityRisesWithTemperature) {
  const th::CoolantProperties reference;
  th::CoolantPropertyLaws laws;
  laws.temperature_dependent = true;
  const th::CoolantProperties warm = laws.at(reference, 330.0);
  EXPECT_LT(warm.dynamic_viscosity_pa_s, reference.dynamic_viscosity_pa_s);
  EXPECT_GT(warm.thermal_conductivity_w_per_m_k, reference.thermal_conductivity_w_per_m_k);
  // Density and heat capacity stay at the reference values.
  EXPECT_EQ(warm.density_kg_per_m3, reference.density_kg_per_m3);
  EXPECT_EQ(warm.volumetric_heat_capacity_j_per_m3_k,
            reference.volumetric_heat_capacity_j_per_m3_k);
  const th::CoolantProperties cold = laws.at(reference, 280.0);
  EXPECT_GT(cold.dynamic_viscosity_pa_s, reference.dynamic_viscosity_pa_s);
}

// ----------------------------------------------------------------- replay
TEST(FleetReplay, DeterministicAcrossRuns) {
  fl::RackSpec rack = fl::make_demo_rack(fast_base(), 2, 1, 2);
  rack.chips[1].workload_offset_s = 0.5;
  fl::FleetReplayOptions options;
  options.trace = ch::burst_trace(1);
  options.steps = 6;
  const fl::FleetReplayResult a = fl::replay_fleet_trace(rack, options);
  const fl::FleetReplayResult b = fl::replay_fleet_trace(rack, options);
  EXPECT_EQ(a.max_peak_temperature_k, b.max_peak_temperature_k);
  EXPECT_EQ(a.heat_absorbed_j, b.heat_absorbed_j);
  EXPECT_EQ(a.mean_pump_power_w, b.mean_pump_power_w);
  ASSERT_EQ(a.final_chips.size(), b.final_chips.size());
  for (std::size_t i = 0; i < a.final_chips.size(); ++i) {
    EXPECT_EQ(a.final_chips[i].peak_temperature_k, b.final_chips[i].peak_temperature_k);
  }
}

TEST(FleetReplay, StaggerChangesTheBurstReplay) {
  const fl::RackSpec aligned = fl::make_demo_rack(fast_base(), 2, 1, 2);
  fl::RackSpec staggered = aligned;
  staggered.chips[1].workload_offset_s = 1.0;  // opposite phase of the burst
  fl::FleetReplayOptions options;
  options.trace = ch::burst_trace(1);
  options.steps = 8;
  const fl::FleetReplayResult a = fl::replay_fleet_trace(aligned, options);
  const fl::FleetReplayResult b = fl::replay_fleet_trace(staggered, options);
  EXPECT_NE(a.heat_absorbed_j, b.heat_absorbed_j);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_TRUE(a.inlet_monotonic);
  EXPECT_TRUE(b.inlet_monotonic);
}

TEST(FleetReplay, RejectsBadStepControls) {
  const fl::RackSpec rack = fl::make_demo_rack(fast_base(), 2, 1, 1);
  fl::FleetReplayOptions options;
  options.trace = ch::burst_trace(1);
  options.steps = 0;
  EXPECT_THROW((void)fl::replay_fleet_trace(rack, options), std::invalid_argument);
  options.steps = 4;
  options.dt_s = 0.0;
  EXPECT_THROW((void)fl::replay_fleet_trace(rack, options), std::invalid_argument);
}

// ------------------------------------------------------------ fleet sweeps
TEST(FleetSweep, RegisteredPlansValidateAndExpand) {
  const sw::SweepPlan rack_plan = sw::make_registered_plan("fleet_rack");
  EXPECT_EQ(rack_plan.evaluator.name, "fleet");
  EXPECT_EQ(rack_plan.scenarios.size(), 10u);  // 2x2x2 grid + 2 named
  const sw::SweepPlan mission_plan = sw::make_registered_plan("fleet_mission");
  EXPECT_EQ(mission_plan.evaluator.name, "fleet_replay");
  EXPECT_EQ(mission_plan.scenarios.size(), 8u);  // 2x2x2 grid
}

TEST(FleetSweep, RowsByteIdenticalAcrossThreadCounts) {
  const sw::SweepPlan plan = small_fleet_grid();
  const sw::SweepResult serial = sw::SweepRunner({1}).run(plan);
  const sw::SweepResult parallel = sw::SweepRunner({4}).run(plan);
  EXPECT_EQ(csv_of(serial), csv_of(parallel));
  EXPECT_EQ(serial.rows.size(), 6u);
  for (const sw::ScenarioResult& row : serial.rows) {
    EXPECT_TRUE(row.error.empty()) << row.name << ": " << row.error;
  }
}

TEST(FleetSweep, ShardedRunsMergeByteIdenticalAtShardCounts123) {
  const sw::SweepPlan plan = small_fleet_grid();
  const std::string reference = csv_of(sw::SweepRunner({1}).run(plan));
  for (const int shard_count : {1, 2, 3}) {
    const std::string dir = temp_dir("shards_" + std::to_string(shard_count));
    int evaluated = 0;
    for (int index = 0; index < shard_count; ++index) {
      sw::ShardOptions options;
      options.store_dir = dir;
      options.scope = plan.name;
      options.shard_index = index;
      options.shard_count = shard_count;
      options.local = {2};
      const sw::SweepResult partial = sw::SweepRunner(sw::make_shard_backend(options)).run(plan);
      evaluated += partial.exec.evaluated;
    }
    EXPECT_EQ(evaluated, 6) << shard_count << " shards";
    EXPECT_EQ(csv_of(sw::assemble_from_store(plan, dir)), reference)
        << shard_count << " shards";
  }
}

TEST(FleetSweep, KillAndResumeReproducesTheUninterruptedRun) {
  const sw::SweepPlan plan = small_fleet_grid();
  const std::string reference = csv_of(sw::SweepRunner({1}).run(plan));
  const std::string dir = temp_dir("resume");

  // "Kill" after 2 fresh evaluations (row-limit injection).
  sw::ShardOptions limited;
  limited.store_dir = dir;
  limited.scope = plan.name;
  limited.row_limit = 2;
  limited.local = {2};
  const sw::SweepResult killed = sw::SweepRunner(sw::make_shard_backend(limited)).run(plan);
  EXPECT_EQ(killed.exec.evaluated, 2);
  EXPECT_EQ(killed.exec.pending, 4);

  // Resume against the same store: only the missing rows are evaluated.
  sw::ShardOptions resume = limited;
  resume.row_limit = -1;
  const sw::SweepResult resumed = sw::SweepRunner(sw::make_shard_backend(resume)).run(plan);
  EXPECT_EQ(resumed.exec.store_hits, 2);
  EXPECT_EQ(resumed.exec.evaluated, 4);
  EXPECT_EQ(csv_of(resumed), reference);
  EXPECT_EQ(csv_of(sw::assemble_from_store(plan, dir)), reference);
}

}  // namespace
