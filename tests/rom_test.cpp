// Tests of the reduced-order transient backend (thermal/rom.h): the
// backend names, the certified error bound against the exact full solve,
// full-vs-rom trajectory agreement within the cumulative certificate on
// single-die / stacked / throttled workloads, the non-vacuity of the bound
// (a workload perturbation must trip a fallback), and the block
// temperatures of reduced steps against a full scan of their die maps.
#include <cmath>
#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "chip/power7.h"
#include "chip/workload.h"
#include "core/mission.h"
#include "core/system_config.h"
#include "thermal/rom.h"
#include "thermal/stack.h"
#include "thermal/transient.h"

#include "block_scan.h"

namespace th = brightsi::thermal;
namespace ch = brightsi::chip;
namespace co = brightsi::core;

namespace {

th::ThermalModel make_model(int axial_cells = 4) {
  th::ThermalModel::GridSettings grid;
  grid.axial_cells = axial_cells;
  return th::ThermalModel(th::power7_microchannel_stack(), ch::kPower7DieWidthM,
                          ch::kPower7DieHeightM, grid);
}

th::OperatingPoint nominal_op() {
  th::OperatingPoint op;
  op.total_flow_m3_per_s = 676e-6 / 60.0;
  op.inlet_temperature_k = 300.15;
  return op;
}

/// Per-step observables both backends report; the certificate bounds every
/// one of them (peaks, block means and outlet temperatures are all maxima
/// or averages of the bounded temperature field).
struct StepRecord {
  double peak_k = 0.0;
  double outlet_k = 0.0;
  double max_block_mean_k = 0.0;
};

struct EngineRun {
  std::vector<StepRecord> steps;
  th::RomStats rom;  // zero-initialized for the full backend
};

EngineRun run_engine(const th::ThermalModel& model, const ch::WorkloadTrace& trace,
                     th::TransientEngineOptions options, double dt_s) {
  options.schedule.dt_s = dt_s;
  th::TransientEngine engine(model, nominal_op(), options);
  EngineRun run;
  engine.run(trace, ch::Power7PowerSpec{}, [&](const th::TransientEngine::StepView& view) {
    StepRecord record;
    record.peak_k = view.solution.peak_temperature_k;
    record.outlet_k = view.mean_outlet_k;
    for (const th::BlockTemperature& block : view.solution.block_temperatures) {
      record.max_block_mean_k = std::max(record.max_block_mean_k, block.mean_k);
    }
    run.steps.push_back(record);
  });
  if (engine.rom() != nullptr) {
    run.rom = engine.rom()->stats();
  }
  return run;
}

/// Asserts the rom trajectory tracks the full trajectory within the rom
/// run's final cumulative certificate (plus iterative-solver slack: the
/// full reference trajectory carries its own Krylov tolerance).
void expect_within_bound(const EngineRun& full, const EngineRun& rom) {
  ASSERT_EQ(full.steps.size(), rom.steps.size());
  ASSERT_GT(rom.rom.rom_steps, 0);
  const double bound = rom.rom.cumulative_bound_k + 1e-5;
  for (std::size_t i = 0; i < full.steps.size(); ++i) {
    EXPECT_LE(std::abs(full.steps[i].peak_k - rom.steps[i].peak_k), bound) << "step " << i;
    EXPECT_LE(std::abs(full.steps[i].outlet_k - rom.steps[i].outlet_k), bound)
        << "step " << i;
    EXPECT_LE(std::abs(full.steps[i].max_block_mean_k - rom.steps[i].max_block_mean_k),
              bound)
        << "step " << i;
  }
  // The certificate is in force: no accepted step exceeded the tolerance.
  EXPECT_LE(rom.rom.max_accepted_bound_k, rom.rom.cumulative_bound_k);
  EXPECT_LE(rom.rom.last_bound_k, rom.rom.cumulative_bound_k);
}

// ------------------------------------------------------------- vocabulary

TEST(RomBackend, BackendNamesAreTheCliVocabulary) {
  EXPECT_STREQ(th::transient_backend_name(th::TransientBackend::kFull), "full");
  EXPECT_STREQ(th::transient_backend_name(th::TransientBackend::kRom), "rom");
}

// ------------------------------------------------------------ certificate

TEST(RomCertificate, BoundsTheTrueErrorAgainstTheExactFullSolve) {
  const auto model = make_model();
  const auto op = nominal_op();
  const ch::Floorplan floorplan = ch::make_power7_floorplan();
  const ch::Floorplan* plans[] = {&floorplan};
  const std::span<const ch::Floorplan* const> floorplans(plans, 1);
  const double dt_s = 0.1;

  th::ReducedThermalModel rom(model, op);
  const auto state = model.uniform_state(op.inlet_temperature_k);

  // No basis for this step length yet: the first attempt must decline.
  EXPECT_FALSE(rom.try_step(state, floorplans, dt_s).has_value());

  // Enrich from one full snapshot, then re-attempt the same step: the
  // lifted field must match the full solve within the certified bound.
  th::ThermalSolveContext context(model);
  const th::ThermalSolution full = context.step_transient(state, floorplans, op, dt_s);
  rom.enrich(dt_s, floorplans, full, state);
  const std::optional<th::ThermalSolution> reduced = rom.try_step(state, floorplans, dt_s);
  ASSERT_TRUE(reduced.has_value());

  ASSERT_EQ(reduced->temperature_k.size(), full.temperature_k.size());
  double true_error = 0.0;
  for (std::size_t i = 0; i < full.temperature_k.size(); ++i) {
    true_error = std::max(
        true_error, std::abs(reduced->temperature_k.data()[i] - full.temperature_k.data()[i]));
  }
  const th::RomStats& stats = rom.stats();
  EXPECT_GT(stats.last_bound_k, 0.0);
  EXPECT_LE(stats.last_bound_k, th::kRomToleranceK);
  // The full solve itself is iterative; its residual-level error is the
  // only slack the certificate does not cover.
  EXPECT_LE(true_error, stats.last_bound_k + 1e-6);
  EXPECT_EQ(stats.rom_steps, 1);
  EXPECT_EQ(stats.full_steps, 1);
  EXPECT_GT(stats.basis_size, 0);
}

// ------------------------------------------------- full-vs-rom trajectories

TEST(RomTrajectory, SingleDieStaysWithinTheCumulativeBound) {
  const auto model = make_model();
  const auto trace = ch::burst_trace(1);  // idle | burst | sustain, 3.0 s

  th::TransientEngineOptions full_options;
  const EngineRun full = run_engine(model, trace, full_options, 0.1);

  th::TransientEngineOptions rom_options;
  rom_options.backend = th::TransientBackend::kRom;
  const EngineRun rom = run_engine(model, trace, rom_options, 0.1);

  expect_within_bound(full, rom);
  // The reduced path actually carried the run: fallbacks are the rare case.
  EXPECT_GT(rom.rom.rom_steps, rom.rom.full_steps);
  EXPECT_GT(rom.rom.basis_size, 0);
  EXPECT_EQ(rom.rom.dt_models, 1);
}

TEST(RomTrajectory, ThreeDieStackStaysWithinTheCumulativeBound) {
  th::ThermalModel::GridSettings grid;
  grid.axial_cells = 4;
  const th::ThermalModel model(th::multi_die_stack(3), ch::kPower7DieWidthM,
                               ch::kPower7DieHeightM, grid);
  const auto trace = ch::burst_trace(1);

  th::TransientEngineOptions options;
  options.upper_die_floorplans = {ch::make_power7_floorplan(ch::memory_die_power_spec()),
                                  ch::make_power7_floorplan(ch::memory_die_power_spec())};
  const EngineRun full = run_engine(model, trace, options, 0.1);

  options.backend = th::TransientBackend::kRom;
  const EngineRun rom = run_engine(model, trace, options, 0.1);

  expect_within_bound(full, rom);
}

TEST(RomTrajectory, ThrottledReplayStaysWithinTheCumulativeBound) {
  // A governor's floorplans depend on the temperatures it observes, so a
  // live governor would feed the two backends different inputs. Record the
  // granted floorplans from the full run, then replay them into the rom
  // run: identical inputs, so the certificate applies step for step.
  const auto model = make_model();
  const auto trace = ch::burst_trace(1);
  const ch::Power7PowerSpec spec;
  const double kThrottleAboveK = 310.0;

  std::vector<ch::Floorplan> granted;
  std::vector<StepRecord> full_steps;
  double throttle = 1.0;
  int throttled_steps = 0;
  {
    th::TransientEngineOptions options;
    options.schedule.dt_s = 0.1;
    th::TransientEngine engine(model, nominal_op(), options);
    engine.run(
        trace,
        [&](const ch::WorkloadPhase& phase, const th::TransientStep&) {
          ch::WorkloadPhase granted_phase = phase;
          granted_phase.core_activity *= throttle;
          granted.push_back(ch::apply_phase(spec, granted_phase));
          return granted.back();
        },
        [&](const th::TransientEngine::StepView& view) {
          full_steps.push_back({view.solution.peak_temperature_k, view.mean_outlet_k, 0.0});
          if (view.solution.peak_temperature_k > kThrottleAboveK) {
            throttle = std::max(0.1, throttle * 0.9);
            ++throttled_steps;
          }
        });
  }
  ASSERT_GT(throttled_steps, 0);  // the governor actually engaged

  th::TransientEngineOptions rom_options;
  rom_options.schedule.dt_s = 0.1;
  rom_options.backend = th::TransientBackend::kRom;
  th::TransientEngine engine(model, nominal_op(), rom_options);
  std::vector<StepRecord> rom_steps;
  engine.run(
      trace,
      [&](const ch::WorkloadPhase&, const th::TransientStep& step) {
        return granted.at(static_cast<std::size_t>(step.index));
      },
      [&](const th::TransientEngine::StepView& view) {
        rom_steps.push_back({view.solution.peak_temperature_k, view.mean_outlet_k, 0.0});
      });

  ASSERT_NE(engine.rom(), nullptr);
  const th::RomStats& stats = engine.rom()->stats();
  ASSERT_GT(stats.rom_steps, 0);
  ASSERT_EQ(full_steps.size(), rom_steps.size());
  const double bound = stats.cumulative_bound_k + 1e-5;
  for (std::size_t i = 0; i < full_steps.size(); ++i) {
    EXPECT_LE(std::abs(full_steps[i].peak_k - rom_steps[i].peak_k), bound) << "step " << i;
    EXPECT_LE(std::abs(full_steps[i].outlet_k - rom_steps[i].outlet_k), bound)
        << "step " << i;
  }
}

// ------------------------------------------------------------- non-vacuity

TEST(RomFallback, WorkloadPerturbationTripsTheBound) {
  // The bound is only worth certifying if it can say no. A lull long
  // enough to adapt the basis, then a spatially different slam (caches and
  // I/O at 8x, cores off): the reduced step's residual must blow past the
  // tolerance and force a full-solve fallback mid-run.
  const auto model = make_model();
  std::vector<ch::WorkloadPhase> phases(2);
  phases[0] = {"lull", 1.0, 0.05, 0.05, 0.05, 0.05};
  phases[1] = {"slam", 0.5, 0.0, 8.0, 8.0, 8.0};
  const ch::WorkloadTrace trace(phases);

  th::TransientEngineOptions options;
  options.backend = th::TransientBackend::kRom;
  const EngineRun rom = run_engine(model, trace, options, 0.1);

  // At least one fallback beyond the cold-start enrichment, and the
  // rejection was a real bound trip, not a missing basis.
  EXPECT_GT(rom.rom.full_steps, 1);
  EXPECT_GT(rom.rom.max_rejected_bound_k, rom.rom.max_accepted_bound_k);
  EXPECT_GT(rom.rom.max_rejected_bound_k, th::kRomToleranceK);
}

// -------------------------------------------------------------- packaging

/// Runs the rom backend over a burst trace and checks every step's block
/// temperatures, reduced or full, against a full scan of its die maps;
/// returns the number of reduced steps checked.
long long check_blocks_of_rom_steps(const th::ThermalModel& model,
                                    th::TransientEngineOptions options) {
  options.backend = th::TransientBackend::kRom;
  options.schedule.dt_s = 0.1;
  const ch::Power7PowerSpec spec;
  std::vector<ch::Floorplan> dies = options.upper_die_floorplans;
  dies.insert(dies.begin(), ch::make_power7_floorplan(spec));  // the workload's die
  th::TransientEngine engine(model, nominal_op(), options);
  engine.run(
      ch::burst_trace(1),
      [&](const ch::WorkloadPhase& phase, const th::TransientStep&) {
        dies.front() = ch::apply_phase(spec, phase);
        return dies.front();
      },
      [&](const th::TransientEngine::StepView& view) {
        std::vector<const ch::Floorplan*> floorplans;
        for (const ch::Floorplan& die : dies) {
          floorplans.push_back(&die);
        }
        brightsi::test_support::expect_blocks_match_full_scan(model, view.solution,
                                                              floorplans);
      });
  return engine.rom()->stats().rom_steps;
}

TEST(RomPackaging, SingleDieReducedStepsMatchAFullScanBitwise) {
  EXPECT_GT(check_blocks_of_rom_steps(make_model(8), {}), 0);
}

TEST(RomPackaging, ThreeDieReducedStepsMatchAFullScanBitwise) {
  th::ThermalModel::GridSettings grid;
  grid.axial_cells = 8;
  const th::ThermalModel model(th::multi_die_stack(3), ch::kPower7DieWidthM,
                               ch::kPower7DieHeightM, grid);
  th::TransientEngineOptions options;
  options.upper_die_floorplans = {ch::make_power7_floorplan(ch::memory_die_power_spec()),
                                  ch::make_power7_floorplan(ch::memory_die_power_spec())};
  EXPECT_GT(check_blocks_of_rom_steps(model, options), 0);
}

// ---------------------------------------------------------------- mission

TEST(RomMission, SurfacesTheCertificateAndTracksTheFullBackend) {
  co::MissionConfig config;
  config.system = co::power7_system_config();
  config.system.thermal_grid.axial_cells = 8;
  config.system.fvm.axial_steps = 60;
  config.workload = ch::burst_trace(1);
  config.reservoir.tank_volume_m3 = 1e-3;
  config.reservoir.total_vanadium_mol_per_m3 = 2001.0;
  config.reservoir.chemistry = config.system.chemistry;
  config.dt_s = 0.1;

  const co::MissionResult full = co::run_mission(config);
  config.transient_backend = th::TransientBackend::kRom;
  const co::MissionResult rom = co::run_mission(config);

  // The counters land in the result; the full backend reports all-zero
  // rom fields.
  EXPECT_EQ(full.rom_steps, 0);
  EXPECT_EQ(full.rom_fallbacks, 0);
  EXPECT_GT(rom.rom_steps, 0);
  EXPECT_GT(rom.rom_fallbacks, 0);  // at least the cold-start enrichment
  EXPECT_GT(rom.rom_basis_size, 0);
  EXPECT_GT(rom.rom_build_time_s, 0.0);
  EXPECT_GT(rom.rom_max_bound_k, 0.0);
  EXPECT_LE(rom.rom_max_bound_k, th::kRomToleranceK);
  EXPECT_GE(rom.rom_cumulative_bound_k, rom.rom_max_bound_k);
  EXPECT_EQ(rom.steps, full.steps);

  // System-level observables agree: temperatures within the certificate,
  // the electrochemical state (driven by the outlet temperature) closely.
  EXPECT_LE(std::abs(rom.max_peak_temperature_c - full.max_peak_temperature_c),
            rom.rom_cumulative_bound_k + 1e-5);
  EXPECT_NEAR(rom.final_soc, full.final_soc, 1e-4);
  EXPECT_EQ(rom.supply_always_ok, full.supply_always_ok);
}

}  // namespace
