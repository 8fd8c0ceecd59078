// Tests of the mission simulator: SOC integration, supply feasibility
// tracking, thermal/workload coupling and failure reporting.
#include <cmath>

#include <gtest/gtest.h>

#include "core/mission.h"

namespace co = brightsi::core;
namespace ch = brightsi::chip;
namespace ec = brightsi::electrochem;

namespace {

co::MissionConfig fast_mission(double duration_s = 1.0, double tank_liters = 1.0) {
  co::MissionConfig config;
  config.system = co::power7_system_config();
  config.system.thermal_grid.axial_cells = 8;
  config.system.fvm.axial_steps = 60;
  config.workload = ch::full_load_trace(duration_s);
  config.reservoir.tank_volume_m3 = tank_liters * 1e-3;
  config.reservoir.total_vanadium_mol_per_m3 = 2001.0;
  config.reservoir.chemistry = config.system.chemistry;
  config.dt_s = 0.1;
  return config;
}

TEST(Mission, RecordsOneSamplePerStep) {
  const auto result = co::run_mission(fast_mission(0.5));
  EXPECT_EQ(result.samples.size(), 5u);
  EXPECT_EQ(result.samples.front().phase, "full-load");
}

TEST(Mission, SocDecreasesMonotonically) {
  const auto result = co::run_mission(fast_mission(1.0));
  double previous = 1.0;
  for (const auto& s : result.samples) {
    EXPECT_LT(s.state_of_charge, previous);
    previous = s.state_of_charge;
  }
  EXPECT_DOUBLE_EQ(result.final_soc, result.samples.back().state_of_charge);
}

TEST(Mission, NominalPlatformSustainsSupply) {
  const auto result = co::run_mission(fast_mission(1.0));
  EXPECT_TRUE(result.supply_always_ok);
  for (const auto& s : result.samples) {
    EXPECT_TRUE(s.supply_ok);
    EXPECT_GT(s.bus_current_a, 4.0);  // ~5.8 A at the cache-rail demand
    EXPECT_LT(s.bus_current_a, 8.0);
  }
}

TEST(Mission, EnergyBookkeepingConsistent) {
  const auto config = fast_mission(1.0);
  const auto result = co::run_mission(config);
  // Charge drawn equals the SOC drop times capacity.
  const double charge_drawn =
      (config.initial_soc - result.final_soc) * config.reservoir.capacity_coulomb();
  double charge_integrated = 0.0;
  for (const auto& s : result.samples) {
    charge_integrated += s.bus_current_a * config.dt_s;
  }
  EXPECT_NEAR(charge_drawn, charge_integrated, charge_integrated * 1e-9);
  EXPECT_GT(result.energy_delivered_j, 0.0);
  // Energy ~ V * I * t with V in [1.0, 1.3]: sanity bounds.
  EXPECT_LT(result.energy_delivered_j, 1.4 * charge_integrated);
  EXPECT_GT(result.energy_delivered_j, 0.8 * charge_integrated);
}

TEST(Mission, TinyTankDrainsVisiblyFaster) {
  const auto big = co::run_mission(fast_mission(1.0, 1.0));
  const auto small = co::run_mission(fast_mission(1.0, 0.001));  // 1 mL per side
  EXPECT_LT(small.final_soc, big.final_soc);
}

TEST(Mission, OverloadedRailReportedNotThrown) {
  auto config = fast_mission(0.5);
  config.system.power_spec.cache_w_per_cm2 = 40.0;  // ~100 W rail
  const auto result = co::run_mission(config);
  EXPECT_FALSE(result.supply_always_ok);
  for (const auto& s : result.samples) {
    EXPECT_FALSE(s.supply_ok);
  }
  // Nothing was drawn from the tanks.
  EXPECT_NEAR(result.final_soc, config.initial_soc, 1e-12);
}

TEST(Mission, WorkloadPhasesShowUpThermally) {
  auto config = fast_mission();
  config.workload = ch::burst_trace(1);
  const auto result = co::run_mission(config);
  double idle_peak = 0.0, burst_peak = 0.0;
  for (const auto& s : result.samples) {
    if (s.phase == "idle") {
      idle_peak = std::max(idle_peak, s.peak_temperature_c);
    }
    if (s.phase == "burst") {
      burst_peak = std::max(burst_peak, s.peak_temperature_c);
    }
  }
  EXPECT_GT(burst_peak, idle_peak + 0.5);
  EXPECT_EQ(result.max_peak_temperature_c,
            std::max({idle_peak, burst_peak, result.max_peak_temperature_c}));
}

TEST(Mission, ValidatesConfiguration) {
  auto config = fast_mission();
  config.dt_s = 0.0;
  EXPECT_THROW((void)co::run_mission(config), std::invalid_argument);
  config = fast_mission();
  config.initial_soc = 1.5;
  EXPECT_THROW((void)co::run_mission(config), std::invalid_argument);
}

TEST(Mission, RejectsStepExceedingWorkloadDuration) {
  // A dt longer than the trace used to truncate to zero steps and return a
  // "successful" empty mission; it must be a configuration error.
  auto config = fast_mission(1.0);
  config.dt_s = 2.0;
  EXPECT_THROW((void)co::run_mission(config), std::invalid_argument);
}

TEST(Mission, SamplesCoverTheFullTraceDuration) {
  // Awkward dt: 1.0 / 0.3 leaves a residual step. The last sample must land
  // exactly on the trace end instead of dropping the tail.
  auto config = fast_mission(1.0);
  config.dt_s = 0.3;
  const auto result = co::run_mission(config);
  ASSERT_EQ(result.samples.size(), 4u);
  EXPECT_NEAR(result.samples.back().time_s, config.workload.total_duration_s(), 1e-9);
  EXPECT_NEAR(result.samples.back().dt_s, 0.1, 1e-12);

  // Divisible-but-inexact dt: 10 steps, tail kept.
  config = fast_mission(1.0);
  config.dt_s = 0.1;
  const auto divisible = co::run_mission(config);
  ASSERT_EQ(divisible.samples.size(), 10u);
  EXPECT_NEAR(divisible.samples.back().time_s, 1.0, 1e-9);
}

TEST(Mission, EnergyConservedAcrossScheduleModes) {
  // Phase-aligned vs plain-dt stepping integrate the same mission: the
  // delivered energy and drained charge agree within the discretization
  // tolerance even though the step sequences differ.
  auto config = fast_mission();
  config.workload = ch::burst_trace(1);  // phases 0.6 | 1.2 | 1.2
  config.dt_s = 0.25;                    // divides none of them
  config.reservoir.tank_volume_m3 = 1e-5;  // 10 mL: visible SOC motion
  const auto aligned = co::run_mission(config);
  config.align_phase_boundaries = false;
  const auto plain = co::run_mission(config);

  ASSERT_GT(aligned.energy_delivered_j, 0.0);
  EXPECT_NEAR(aligned.energy_delivered_j, plain.energy_delivered_j,
              0.05 * aligned.energy_delivered_j);
  EXPECT_NEAR(aligned.final_soc, plain.final_soc, 5e-4);
  // Both schedules cover the full duration.
  EXPECT_NEAR(aligned.samples.back().time_s, 3.0, 1e-9);
  EXPECT_NEAR(plain.samples.back().time_s, 3.0, 1e-9);
}

TEST(Mission, CheckpointResumesSeamlessly) {
  const auto whole = co::run_mission(fast_mission(1.0));

  auto leg = fast_mission(0.5);
  const auto first = co::run_mission(leg);
  auto leg2 = leg;
  leg2.initial_soc = first.final_soc;
  const auto second = co::run_mission(leg2, nullptr, &first.final_state);

  // The stitched mission walks the same step sequence as the whole one.
  EXPECT_NEAR(second.final_soc, whole.final_soc, 1e-6);
  EXPECT_NEAR(second.samples.back().peak_temperature_c,
              whole.samples.back().peak_temperature_c, 1e-3);
  EXPECT_NEAR(first.energy_delivered_j + second.energy_delivered_j,
              whole.energy_delivered_j, 1e-3 * whole.energy_delivered_j);
}

TEST(Mission, SampleDecimationPreservesTheIntegration) {
  auto config = fast_mission(1.0);
  const auto all = co::run_mission(config);
  config.sample_stride = 4;
  const auto thinned = co::run_mission(config);
  // Recording every 4th step changes the sample count only — the
  // reservoir/energy integration still runs every step.
  ASSERT_EQ(all.samples.size(), 10u);
  ASSERT_EQ(thinned.samples.size(), 3u);  // steps 4, 8 and the final 10th
  EXPECT_NEAR(thinned.samples.back().time_s, 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(thinned.final_soc, all.final_soc);
  EXPECT_DOUBLE_EQ(thinned.energy_delivered_j, all.energy_delivered_j);
  EXPECT_DOUBLE_EQ(thinned.max_peak_temperature_c, all.max_peak_temperature_c);
}

TEST(Mission, ReportsThermalWorkCounters) {
  const auto result = co::run_mission(fast_mission(0.5));
  EXPECT_EQ(result.steps, 5);
  EXPECT_GT(result.thermal_iterations, 0);
  EXPECT_GE(result.thermal_solve_time_s, 0.0);
  EXPECT_GT(result.final_state.size(), 0u);  // non-empty checkpoint
}

TEST(Mission, ReplayReportsTheRecordingRunsWorkCounters) {
  // A replay skips the thermal solve, so it reports the work counters of
  // the run that recorded its trajectory — every one of them, on the rom
  // backend where the rom counters are non-zero too.
  auto config = fast_mission(0.5);
  config.transient_backend = brightsi::thermal::TransientBackend::kRom;
  co::MissionThermalTrajectory trajectory;
  const auto recorded = co::run_mission(config, nullptr, nullptr, &trajectory);
  const auto replayed = co::run_mission(config, nullptr, nullptr, nullptr, &trajectory);
  ASSERT_GT(recorded.rom_steps, 0);
  EXPECT_EQ(replayed.steps, recorded.steps);
  EXPECT_EQ(replayed.thermal_iterations, recorded.thermal_iterations);
  EXPECT_EQ(replayed.thermal_assembly_time_s, recorded.thermal_assembly_time_s);
  EXPECT_EQ(replayed.thermal_setup_time_s, recorded.thermal_setup_time_s);
  EXPECT_EQ(replayed.thermal_solve_time_s, recorded.thermal_solve_time_s);
  EXPECT_EQ(replayed.rom_steps, recorded.rom_steps);
  EXPECT_EQ(replayed.rom_fallbacks, recorded.rom_fallbacks);
  EXPECT_EQ(replayed.rom_basis_size, recorded.rom_basis_size);
  EXPECT_EQ(replayed.rom_build_time_s, recorded.rom_build_time_s);
  EXPECT_EQ(replayed.rom_max_bound_k, recorded.rom_max_bound_k);
  EXPECT_EQ(replayed.rom_cumulative_bound_k, recorded.rom_cumulative_bound_k);
  EXPECT_EQ(replayed.final_soc, recorded.final_soc);
}

TEST(Mission, SharedModelMustMatchTheConfig) {
  const auto config = fast_mission(0.5);
  const auto floorplan = ch::make_power7_floorplan(config.system.power_spec);
  brightsi::thermal::ThermalGridSettings grid = config.system.thermal_grid;
  grid.axial_cells = 4;  // differs from the config's 8
  auto mismatched = std::make_shared<const brightsi::thermal::ThermalModel>(
      config.system.stack, floorplan.die_width(), floorplan.die_height(), grid);
  EXPECT_THROW((void)co::run_mission(config, mismatched), std::invalid_argument);
}

}  // namespace
