// Traced replicas: the library's composite calls replayed by the benchmark
// through each layer's public entry points, with a span around every
// layer call. Each replica must reproduce the real call's outputs bit for
// bit; the traced run checks that and fails otherwise.
#ifndef PERFBENCH_REPLAY_H
#define PERFBENCH_REPLAY_H

#include <memory>
#include <string>
#include <vector>

#include "core/cosim.h"
#include "fleet/rack.h"
#include "sweep/execution.h"
#include "trace.h"

namespace perfbench {

/// IntegratedMpsocSystem(config, model).run(), replayed layer by layer.
[[nodiscard]] brightsi::core::CoSimReport traced_cosim(
    const brightsi::core::SystemConfig& config,
    std::shared_ptr<const brightsi::thermal::ThermalModel> model, Tracer& tracer);

/// fleet::replay_fleet_trace, replayed segment by segment.
[[nodiscard]] brightsi::fleet::FleetReplayResult traced_fleet_replay(
    const brightsi::fleet::RackSpec& rack, const brightsi::fleet::FleetReplayOptions& options,
    Tracer& tracer);

/// Evaluators with the names and metrics of the built-in cosim, stack and
/// mission evaluators whose rows come from the traced replicas. A mission
/// row that records a trajectory is replayed from it at once (booked to
/// the reference layer) and the two runs must agree on final SOC and
/// delivered energy; disagreements are appended to `failures`.
[[nodiscard]] brightsi::sweep::SweepEvaluator traced_cosim_evaluator(Tracer& tracer);
[[nodiscard]] brightsi::sweep::SweepEvaluator traced_stack_evaluator(Tracer& tracer);
[[nodiscard]] brightsi::sweep::SweepEvaluator traced_mission_evaluator(
    Tracer& tracer, std::vector<std::string>& failures);

/// Wraps a backend: execute() runs under a sweep span, books its wall time
/// minus the rows' own time as sweep.backend_overhead_s, and hands the
/// inner backend the traced evaluator in place of the caller's.
class TracingBackend final : public brightsi::sweep::ExecutionBackend {
 public:
  TracingBackend(std::shared_ptr<brightsi::sweep::ExecutionBackend> inner, Tracer& tracer,
                 brightsi::sweep::SweepEvaluator traced);

  [[nodiscard]] const char* name() const override { return inner_->name(); }
  [[nodiscard]] int thread_count() const override { return inner_->thread_count(); }
  void execute(const brightsi::core::SystemConfig& base,
               const brightsi::sweep::SweepEvaluator& evaluator,
               const std::vector<brightsi::sweep::ScenarioSpec>& scenarios,
               std::vector<brightsi::sweep::ScenarioResult>& rows) override;
  [[nodiscard]] brightsi::sweep::ExecutionStats stats() const override {
    return inner_->stats();
  }

 private:
  std::shared_ptr<brightsi::sweep::ExecutionBackend> inner_;
  Tracer& tracer_;
  brightsi::sweep::SweepEvaluator traced_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H
