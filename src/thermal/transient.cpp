#include "thermal/transient.h"

#include <cmath>
#include <optional>
#include <utility>

#include "numerics/contracts.h"

namespace brightsi::thermal {

const char* transient_backend_name(TransientBackend backend) {
  return backend == TransientBackend::kRom ? "rom" : "full";
}

namespace {

/// Steps covering one segment [a, b] of a single phase. When dt divides
/// the segment length (to within rounding), the segment gets round(L/dt)
/// equal steps; otherwise floor(L/dt) full steps plus one residual short
/// step. The last step always ends at exactly `b`.
void schedule_segment(double a, double b, double dt_s, const chip::WorkloadPhase* phase,
                      std::vector<TransientStep>* schedule) {
  const double length = b - a;
  if (length <= 0.0) {
    return;
  }
  const double exact = length / dt_s;
  const double rounded = std::round(exact);
  int count = 0;
  bool equal_steps = false;
  if (rounded >= 1.0 && std::abs(exact - rounded) <= 1e-9 * std::max(1.0, exact)) {
    count = static_cast<int>(rounded);
    equal_steps = true;  // dt divides the segment: count equal steps
  } else {
    const int full = static_cast<int>(exact);  // floor for positive values
    count = full + 1;                          // full steps + residual closer
  }
  double t_begin = a;
  for (int k = 1; k <= count; ++k) {
    TransientStep step;
    step.t_begin_s = t_begin;
    step.t_end_s = (k == count) ? b
                   : equal_steps ? a + length * (static_cast<double>(k) / count)
                                 : a + k * dt_s;
    step.phase = phase;
    t_begin = step.t_end_s;
    schedule->push_back(step);
  }
}

}  // namespace

std::vector<TransientStep> make_transient_schedule(const chip::WorkloadTrace& trace,
                                                   const TransientScheduleOptions& options) {
  ensure_positive(options.dt_s, "transient step");
  const double total = trace.total_duration_s();
  ensure_positive(total, "trace duration");

  std::vector<TransientStep> schedule;
  schedule.reserve(static_cast<std::size_t>(total / options.dt_s) + trace.phases().size() *
                                                                        trace.repeats() +
                   1);
  if (options.align_phase_boundaries) {
    double t = 0.0;
    const int segments = trace.repeats() * static_cast<int>(trace.phases().size());
    int segment = 0;
    for (int repeat = 0; repeat < trace.repeats(); ++repeat) {
      for (const chip::WorkloadPhase& phase : trace.phases()) {
        ++segment;
        // Close the final segment on the exact total so the schedule end
        // never drifts from total_duration_s() by accumulated rounding.
        const double end = (segment == segments) ? total : t + phase.duration_s;
        schedule_segment(t, end, options.dt_s, &phase, &schedule);
        t = end;
      }
    }
  } else {
    schedule_segment(0.0, total, options.dt_s, nullptr, &schedule);
    for (TransientStep& step : schedule) {
      step.phase = &trace.phase_at(0.5 * (step.t_begin_s + step.t_end_s));
    }
  }
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    schedule[i].index = static_cast<int>(i);
  }
  ensure(!schedule.empty() && schedule.back().t_end_s == total,
         "transient schedule must cover the trace exactly");
  return schedule;
}

TransientEngine::TransientEngine(const ThermalModel& model,
                                 const OperatingPoint& operating_point,
                                 const TransientEngineOptions& options)
    : model_(&model), operating_point_(operating_point), options_(options), context_(model) {
  ensure(options_.sample_stride >= 1, "sample stride must be >= 1");
  ensure(static_cast<int>(options_.upper_die_floorplans.size()) == model.die_count() - 1,
         "transient engine needs one upper-die floorplan per heat-source layer above "
         "the primary die");
  state_ = options_.initial_state != nullptr
               ? *options_.initial_state
               : model.uniform_state(operating_point.inlet_temperature_k);
  options_.initial_state = nullptr;  // consumed; the engine owns state_ now
  if (options_.backend == TransientBackend::kRom) {
    rom_ = std::make_unique<ReducedThermalModel>(model, operating_point_);
  }
}

void TransientEngine::run(const chip::WorkloadTrace& trace,
                          const chip::Power7PowerSpec& power_spec, const StepFn& on_step) {
  run(trace,
      [&power_spec](const chip::WorkloadPhase& phase, const TransientStep&) {
        return chip::apply_phase(power_spec, phase);
      },
      on_step);
}

void TransientEngine::run(const chip::WorkloadTrace& trace, const FloorplanFn& floorplan_for,
                          const StepFn& on_step) {
  ensure(static_cast<bool>(floorplan_for), "transient engine needs a floorplan function");
  const std::vector<TransientStep> schedule =
      make_transient_schedule(trace, options_.schedule);
  const int last = schedule.back().index;
  // The workload drives the bottom die; upper dies keep their static maps.
  std::vector<const chip::Floorplan*> floorplans(options_.upper_die_floorplans.size() + 1,
                                                 nullptr);
  for (std::size_t die = 0; die < options_.upper_die_floorplans.size(); ++die) {
    floorplans[die + 1] = &options_.upper_die_floorplans[die];
  }
  for (const TransientStep& step : schedule) {
    const chip::WorkloadPhase& phase = *step.phase;
    const chip::Floorplan floorplan = floorplan_for(phase, step);
    floorplans.front() = &floorplan;
    ThermalSolution solution;
    bool reduced = false;
    if (rom_ != nullptr) {
      if (std::optional<ThermalSolution> attempt =
              rom_->try_step(state_, floorplans, step.dt_s())) {
        solution = std::move(*attempt);
        reduced = true;
      }
    }
    if (!reduced) {
      solution = context_.step_transient(state_, floorplans, operating_point_, step.dt_s());
      if (rom_ != nullptr) {
        // Certified fallback: the full snapshot (taken from the state the
        // engine still holds) enriches the basis for this step length.
        rom_->enrich(step.dt_s(), floorplans, solution, state_);
      }
    }
    ++steps_taken_;

    const double mean_outlet_k =
        solution.mean_outlet_k(operating_point_.inlet_temperature_k);

    if (on_step) {
      StepView view{step, phase, solution, mean_outlet_k,
                    ((step.index + 1) % options_.sample_stride == 0) || step.index == last};
      on_step(view);
    }
    // In-place hand-off: the solution is about to die, so its field becomes
    // the next step's state without a full-grid copy.
    state_ = std::move(solution.temperature_k);
  }
}

}  // namespace brightsi::thermal
