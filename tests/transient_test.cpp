// Tests of the shared transient engine: phase-boundary-aligned step
// scheduling (full trace coverage — no truncated tails), sample
// decimation, outlet fallbacks, workload-trace replay, in-place state
// hand-off equivalence and resumable checkpoints.
#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "chip/power7.h"
#include "thermal/stack.h"
#include "thermal/transient.h"

namespace th = brightsi::thermal;
namespace ch = brightsi::chip;

namespace {

th::ThermalModel make_model(int axial_cells = 8) {
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

/// What a trace run records per sampled step, and over the whole run.
struct TraceRun {
  struct Sample {
    double time_s = 0.0;
    double dt_s = 0.0;
    std::string phase;
    double peak_k = 0.0;
    double outlet_k = 0.0;
    double power_w = 0.0;
  };
  std::vector<Sample> samples;
  double max_peak_k = 0.0;  ///< over every step, sampled or not
  brightsi::numerics::Grid3<double> final_state;
};

/// Steps `trace` through a fresh TransientEngine on the POWER7+ floorplans.
TraceRun run_trace(const th::ThermalModel& model, const th::OperatingPoint& op,
                   const ch::WorkloadTrace& trace, double dt_s,
                   const brightsi::numerics::Grid3<double>* initial_state = nullptr,
                   int sample_stride = 1) {
  th::TransientEngineOptions options;
  options.schedule.dt_s = dt_s;
  options.sample_stride = sample_stride;
  options.initial_state = initial_state;
  th::TransientEngine engine(model, op, options);
  TraceRun run;
  engine.run(trace, ch::Power7PowerSpec{}, [&](const th::TransientEngine::StepView& view) {
    run.max_peak_k = std::max(run.max_peak_k, view.solution.peak_temperature_k);
    if (view.sampled) {
      run.samples.push_back({view.step.t_end_s, view.step.dt_s(), view.phase.name,
                             view.solution.peak_temperature_k, view.mean_outlet_k,
                             view.solution.total_power_w});
    }
  });
  run.final_state = engine.take_state();
  return run;
}

// ------------------------------------------------------------- scheduling

TEST(TransientSchedule, DivisibleDtCoversTraceExactly) {
  // 10.0 / 0.1 is 99.999... in floating point; truncation used to drop the
  // final step. Round-to-nearest must yield exactly 100 steps ending at
  // exactly 10 s.
  const auto trace = ch::full_load_trace(10.0);
  const auto schedule = th::make_transient_schedule(trace, {0.1, true});
  ASSERT_EQ(schedule.size(), 100u);
  EXPECT_DOUBLE_EQ(schedule.back().t_end_s, 10.0);
  for (const th::TransientStep& step : schedule) {
    EXPECT_NEAR(step.dt_s(), 0.1, 1e-12);
  }
}

TEST(TransientSchedule, NonDivisibleDtGetsResidualStep) {
  const auto trace = ch::full_load_trace(1.0);
  const auto schedule = th::make_transient_schedule(trace, {0.3, true});
  ASSERT_EQ(schedule.size(), 4u);  // 0.3, 0.3, 0.3, residual 0.1
  EXPECT_DOUBLE_EQ(schedule.back().t_end_s, 1.0);
  EXPECT_NEAR(schedule.back().dt_s(), 0.1, 1e-12);
  // The steps tile the duration gaplessly.
  for (std::size_t i = 1; i < schedule.size(); ++i) {
    EXPECT_DOUBLE_EQ(schedule[i].t_begin_s, schedule[i - 1].t_end_s);
  }
}

TEST(TransientSchedule, OversizedDtShrinksToTheTrace) {
  const auto trace = ch::full_load_trace(0.2);
  const auto schedule = th::make_transient_schedule(trace, {1.0, true});
  ASSERT_EQ(schedule.size(), 1u);
  EXPECT_DOUBLE_EQ(schedule.front().t_begin_s, 0.0);
  EXPECT_DOUBLE_EQ(schedule.front().t_end_s, 0.2);
}

TEST(TransientSchedule, AlignedStepsNeverStraddlePhaseEdges) {
  // burst_trace phases: 0.6 | 1.2 | 1.2 with dt 0.25 — none divisible.
  const auto trace = ch::burst_trace(2);
  const auto schedule = th::make_transient_schedule(trace, {0.25, true});
  EXPECT_DOUBLE_EQ(schedule.back().t_end_s, trace.total_duration_s());
  for (const th::TransientStep& step : schedule) {
    ASSERT_NE(step.phase, nullptr);
    // The phase at both endpoints' interior matches the step's phase: the
    // step lies inside exactly one phase.
    const double eps = 1e-9;
    EXPECT_EQ(&trace.phase_at(step.t_begin_s + eps), step.phase);
    EXPECT_EQ(trace.phase_at(step.t_end_s - eps).name, step.phase->name);
  }
}

TEST(TransientSchedule, UnalignedScheduleStillCoversTheTrace) {
  const auto trace = ch::burst_trace(1);  // 3.0 s total
  const auto schedule = th::make_transient_schedule(trace, {0.25, false});
  ASSERT_EQ(schedule.size(), 12u);
  EXPECT_DOUBLE_EQ(schedule.back().t_end_s, 3.0);
  for (const th::TransientStep& step : schedule) {
    ASSERT_NE(step.phase, nullptr);
  }
}

TEST(TransientSchedule, UnalignedSchedulePinsStepCountAndMidpointPhases) {
  // align_phase_boundaries = false: plain dt steps run straight through
  // phase edges; a straddling step belongs to the phase at its midpoint.
  // Phases A (0.5 s) + B (0.7 s) at dt 0.08: 1.2 / 0.08 divides, so 15
  // equal steps; step 6 spans [0.48, 0.56] and its midpoint 0.52 lies in B.
  std::vector<ch::WorkloadPhase> phases(2);
  phases[0] = {"A", 0.5, 1.0, 1.0, 1.0, 1.0};
  phases[1] = {"B", 0.7, 0.2, 0.2, 0.2, 0.2};
  const ch::WorkloadTrace trace(phases);
  const auto schedule = th::make_transient_schedule(trace, {0.08, false});
  ASSERT_EQ(schedule.size(), 15u);
  EXPECT_DOUBLE_EQ(schedule.back().t_end_s, 1.2);
  EXPECT_NEAR(schedule[6].t_begin_s, 0.48, 1e-12);
  EXPECT_NEAR(schedule[6].t_end_s, 0.56, 1e-12);
  EXPECT_EQ(schedule[6].phase->name, "B");  // midpoint 0.52 is past the edge
  EXPECT_EQ(schedule[5].phase->name, "A");  // midpoint 0.44 is before it
  // Every step's phase is exactly the trace's phase at the step midpoint.
  for (const th::TransientStep& step : schedule) {
    EXPECT_EQ(step.phase, &trace.phase_at(0.5 * (step.t_begin_s + step.t_end_s)));
  }
}

TEST(TransientSchedule, UnalignedResidualStepStillCoversTheTraceEnd) {
  // dt 0.07 over 1.2 s does not divide: 17 full steps plus one short
  // residual closer that ends exactly on the trace end.
  std::vector<ch::WorkloadPhase> phases(2);
  phases[0] = {"A", 0.5, 1.0, 1.0, 1.0, 1.0};
  phases[1] = {"B", 0.7, 0.2, 0.2, 0.2, 0.2};
  const ch::WorkloadTrace trace(phases);
  const auto schedule = th::make_transient_schedule(trace, {0.07, false});
  ASSERT_EQ(schedule.size(), 18u);
  EXPECT_DOUBLE_EQ(schedule.back().t_end_s, 1.2);
  EXPECT_NEAR(schedule.back().dt_s(), 0.01, 1e-9);
  for (std::size_t i = 0; i + 1 < schedule.size(); ++i) {
    EXPECT_NEAR(schedule[i].dt_s(), 0.07, 1e-12);
    EXPECT_DOUBLE_EQ(schedule[i].t_end_s, schedule[i + 1].t_begin_s);
  }
  EXPECT_EQ(schedule.back().phase->name, "B");
}

TEST(TransientSchedule, RejectsBadInputs) {
  const auto trace = ch::full_load_trace(1.0);
  EXPECT_THROW((void)th::make_transient_schedule(trace, {0.0, true}),
               std::invalid_argument);
  EXPECT_THROW((void)th::make_transient_schedule(trace, {-0.1, true}),
               std::invalid_argument);
}

// ------------------------------------------------------------ trace replay
TEST(TraceReplay, FullCoverageWithAwkwardDt) {
  const auto model = make_model();
  // 1.0 s at dt 0.3: the old truncating loop recorded 3 samples ending at
  // 0.9 s; the engine records 4 ending at exactly 1.0 s.
  const auto run = run_trace(model, nominal_op(), ch::full_load_trace(1.0), 0.3);
  ASSERT_EQ(run.samples.size(), 4u);
  EXPECT_NEAR(run.samples.back().time_s, 1.0, 1e-9);
  EXPECT_NEAR(run.samples.back().dt_s, 0.1, 1e-12);
}

TEST(TraceReplay, LongDivisibleTraceKeepsItsTail) {
  const auto trace = ch::full_load_trace(10.0);
  const auto schedule = th::make_transient_schedule(trace, {0.1, true});
  EXPECT_EQ(schedule.size(), 100u);
  EXPECT_NEAR(schedule.back().t_end_s, trace.total_duration_s(), 1e-9);
}

TEST(TraceReplay, SolidStackFallsBackToInletOutlet) {
  // A channel-less (conventional air-cooled) stack has no outlet
  // temperatures; the sample must fall back to the inlet temperature, not
  // report 0 K.
  const th::ThermalModel model(th::power7_conventional_stack(), ch::kPower7DieWidthM,
                               ch::kPower7DieHeightM);
  th::OperatingPoint op;
  op.inlet_temperature_k = 318.15;
  const auto run = run_trace(model, op, ch::full_load_trace(0.2), 0.1);
  ASSERT_FALSE(run.samples.empty());
  for (const TraceRun::Sample& sample : run.samples) {
    EXPECT_DOUBLE_EQ(sample.outlet_k, 318.15);
  }
}

TEST(TraceReplay, SampleDecimationKeepsTheTail) {
  const auto model = make_model();
  const auto all = run_trace(model, nominal_op(), ch::full_load_trace(1.0), 0.1);
  const auto thinned =
      run_trace(model, nominal_op(), ch::full_load_trace(1.0), 0.1, nullptr, 3);
  ASSERT_EQ(all.samples.size(), 10u);
  ASSERT_EQ(thinned.samples.size(), 4u);  // steps 3, 6, 9, plus the final 10th
  EXPECT_NEAR(thinned.samples.back().time_s, 1.0, 1e-9);
  // Decimation only drops records: the stepping (and final state) match.
  EXPECT_DOUBLE_EQ(thinned.max_peak_k, all.max_peak_k);
  ASSERT_EQ(thinned.final_state.size(), all.final_state.size());
  EXPECT_EQ(thinned.final_state.data(), all.final_state.data());
}

TEST(TraceReplay, RecordsOneSamplePerStep) {
  const auto run = run_trace(make_model(), nominal_op(), ch::full_load_trace(0.5), 0.1);
  EXPECT_EQ(run.samples.size(), 5u);
  EXPECT_EQ(run.samples.front().phase, "full-load");
  EXPECT_GT(run.max_peak_k, 300.15);
}

TEST(TraceReplay, TemperatureRisesDuringBurst) {
  const auto run = run_trace(make_model(), nominal_op(), ch::burst_trace(1), 0.1);
  // Find the last idle sample and a late burst sample.
  double idle_peak = 0.0, burst_peak = 0.0;
  for (const TraceRun::Sample& s : run.samples) {
    if (s.phase == "idle") {
      idle_peak = s.peak_k;
    }
    if (s.phase == "burst") {
      burst_peak = s.peak_k;
    }
  }
  EXPECT_GT(burst_peak, idle_peak + 1.0);
}

TEST(TraceReplay, FinalStateSeedsFollowUpRun) {
  const auto model = make_model();
  const auto warmup = run_trace(model, nominal_op(), ch::full_load_trace(0.5), 0.1);
  const auto cont =
      run_trace(model, nominal_op(), ch::full_load_trace(0.2), 0.1, &warmup.final_state);
  // Continuation starts hot: its first sample exceeds a cold first sample.
  const auto cold = run_trace(model, nominal_op(), ch::full_load_trace(0.2), 0.1);
  EXPECT_GT(cont.samples.front().peak_k, cold.samples.front().peak_k + 1.0);
}

TEST(TraceReplay, PowerFollowsPhases) {
  const auto run = run_trace(make_model(), nominal_op(), ch::memory_bound_trace(0.3), 0.1);
  const double full_power_w = ch::make_power7_floorplan().total_power();
  for (const TraceRun::Sample& s : run.samples) {
    EXPECT_LT(s.power_w, full_power_w);
  }
}

// --------------------------------------------------------------- engine

TEST(TransientEngine, ResumedRunMatchesSingleRun) {
  const auto model = make_model();
  const auto op = nominal_op();

  const auto whole = run_trace(model, op, ch::full_load_trace(1.0), 0.1);
  const auto first = run_trace(model, op, ch::full_load_trace(0.5), 0.1);
  const auto second = run_trace(model, op, ch::full_load_trace(0.5), 0.1, &first.final_state);
  // The split run walks the identical step sequence, so fields agree to
  // solver tolerance.
  ASSERT_EQ(whole.final_state.size(), second.final_state.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < whole.final_state.size(); ++i) {
    worst = std::max(worst,
                     std::abs(whole.final_state.data()[i] - second.final_state.data()[i]));
  }
  EXPECT_LT(worst, 1e-3);
  EXPECT_NEAR(whole.samples.back().peak_k, second.samples.back().peak_k, 1e-3);
}

TEST(TransientEngine, StatsAccumulateAcrossRuns) {
  const auto model = make_model();
  th::TransientEngineOptions options;
  options.schedule.dt_s = 0.1;
  th::TransientEngine engine(model, nominal_op(), options);
  const ch::Power7PowerSpec spec;
  engine.run(ch::full_load_trace(0.3), spec, nullptr);
  EXPECT_EQ(engine.steps_taken(), 3);
  engine.run(ch::full_load_trace(0.2), spec, nullptr);
  EXPECT_EQ(engine.steps_taken(), 5);
  EXPECT_EQ(engine.thermal_stats().solves, 5);
}

}  // namespace
