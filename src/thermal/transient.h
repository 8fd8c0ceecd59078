// Shared transient time-stepping engine: one loop that owns step
// scheduling, phase lookup, the per-loop ThermalSolveContext, in-place
// state hand-off and sample decimation for the mission simulator
// (core/mission) and the throttling example.
//
// The scheduler is phase-boundary aligned: steps land exactly on workload
// phase edges and on the trace end, so the whole trace duration is always
// covered — the `static_cast<int>(total / dt)` truncation bug class (a
// 10 s trace at dt = 0.1 losing its final step to floating point) is
// structurally impossible. Within a segment the nominal dt is kept when it
// divides the segment (round to nearest); otherwise full steps are
// followed by one residual short step that closes the segment exactly.
//
// The engine owns the evolving temperature field and moves each solve's
// field back into it (no per-step full-grid copy), carries one
// ThermalSolveContext across all steps (assemble-once, ILU(0) refactor,
// warm starts), and hands a checkpointable `state()` back for resumable
// runs (see docs/ARCHITECTURE.md, "Transient engine").
#ifndef BRIGHTSI_THERMAL_TRANSIENT_H
#define BRIGHTSI_THERMAL_TRANSIENT_H

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "chip/workload.h"
#include "thermal/model.h"
#include "thermal/rom.h"
#include "thermal/solve_context.h"

namespace brightsi::thermal {

/// Which backend steps the trace (docs/SOLVERS.md).
enum class TransientBackend {
  kFull,  ///< full-grid backward-Euler solve every step — the default, bit-stable path
  kRom,   ///< reduced-order projection with certified fallback (thermal/rom.h)
};

/// Name of a transient backend ("full" / "rom"), for CLIs and bench JSON.
[[nodiscard]] const char* transient_backend_name(TransientBackend backend);

/// One scheduled backward-Euler step: the interval (t_begin, t_end].
/// `phase` borrows from the WorkloadTrace the schedule was built from,
/// which must outlive the schedule.
struct TransientStep {
  int index = 0;
  double t_begin_s = 0.0;
  double t_end_s = 0.0;
  const chip::WorkloadPhase* phase = nullptr;

  [[nodiscard]] double dt_s() const { return t_end_s - t_begin_s; }
};

struct TransientScheduleOptions {
  double dt_s = 0.1;  ///< nominal step length
  /// Snap steps to workload phase edges (every step then lies inside
  /// exactly one phase). When false, steps of dt_s run straight through
  /// phase boundaries — a step straddling an edge is attributed to the
  /// phase at its midpoint — but the trace end is still covered exactly.
  bool align_phase_boundaries = true;
};

/// Builds the step schedule for `trace`. Guarantees: the schedule is
/// non-empty, steps tile [0, total_duration_s] gaplessly, and the final
/// step's t_end_s equals trace.total_duration_s() exactly.
[[nodiscard]] std::vector<TransientStep> make_transient_schedule(
    const chip::WorkloadTrace& trace, const TransientScheduleOptions& options);

struct TransientEngineOptions {
  TransientScheduleOptions schedule;
  /// Record every Nth step (the final step is always sampled so the series
  /// tail is never dropped). 1 = every step.
  int sample_stride = 1;
  /// Starting temperature field; nullptr = uniform at the operating
  /// point's inlet temperature. Copied at construction (borrowed only for
  /// the constructor call).
  const numerics::Grid3<double>* initial_state = nullptr;
  /// Power maps of the dies stacked above the workload-driven primary die
  /// (static across the trace), bottom to top. Size must equal the model's
  /// die_count() - 1; leave empty for single-die stacks.
  std::vector<chip::Floorplan> upper_die_floorplans;
  /// Stepping backend. kFull reproduces the seed path bit-for-bit; kRom
  /// serves steps from the reduced model whenever its certified error
  /// bound stays within kRomToleranceK, falling back (and enriching the
  /// basis) on the steps where it does not.
  TransientBackend backend = TransientBackend::kFull;
};

/// Drives a WorkloadTrace through a ThermalModel with backward-Euler
/// steps. The engine is resumable: after run() returns, `state()` holds
/// the final temperature field and a further run() continues from it (the
/// solve context, with its assembled operator and warm-start field, is
/// carried along as well).
class TransientEngine {
 public:
  /// What a step callback sees: the scheduled step, its workload phase,
  /// the fresh thermal solution, the channel-averaged outlet temperature
  /// (falling back to the inlet temperature for channel-less stacks) and
  /// whether this step passes the sample decimation stride.
  struct StepView {
    const TransientStep& step;
    const chip::WorkloadPhase& phase;
    const ThermalSolution& solution;
    double mean_outlet_k = 0.0;
    bool sampled = true;
  };

  /// Maps a phase to the floorplan driving the step's power map — the hook
  /// for governors that modulate activity on top of the workload.
  using FloorplanFn =
      std::function<chip::Floorplan(const chip::WorkloadPhase&, const TransientStep&)>;
  using StepFn = std::function<void(const StepView&)>;

  TransientEngine(const ThermalModel& model, const OperatingPoint& operating_point,
                  const TransientEngineOptions& options = {});

  /// Steps the whole trace, invoking `on_step` after every solve.
  void run(const chip::WorkloadTrace& trace, const FloorplanFn& floorplan_for,
           const StepFn& on_step);

  /// Convenience: floorplans are chip::apply_phase(power_spec, phase).
  void run(const chip::WorkloadTrace& trace, const chip::Power7PowerSpec& power_spec,
           const StepFn& on_step);

  /// The evolving temperature field — after run(), the checkpoint that
  /// seeds a resumed run.
  [[nodiscard]] const numerics::Grid3<double>& state() const { return state_; }
  /// Moves the field out (the engine is done after this).
  [[nodiscard]] numerics::Grid3<double> take_state() { return std::move(state_); }

  [[nodiscard]] const ThermalModel& model() const { return *model_; }
  [[nodiscard]] const ThermalSolveContext::Stats& thermal_stats() const {
    return context_.stats();
  }
  /// The reduced backend's work counters and certificate trail; nullptr
  /// when the engine runs the full backend.
  [[nodiscard]] const ReducedThermalModel* rom() const { return rom_.get(); }
  /// Steps taken across every run() of this engine's lifetime.
  [[nodiscard]] long long steps_taken() const { return steps_taken_; }

 private:
  const ThermalModel* model_;
  OperatingPoint operating_point_;
  TransientEngineOptions options_;
  ThermalSolveContext context_;
  std::unique_ptr<ReducedThermalModel> rom_;  // live only for kRom
  numerics::Grid3<double> state_;
  long long steps_taken_ = 0;
};

}  // namespace brightsi::thermal

#endif  // BRIGHTSI_THERMAL_TRANSIENT_H
