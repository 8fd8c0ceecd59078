// Named, ready-to-run sweep plans, runnable on every core through the
// SweepRunner. The first three are the paper's ablations as data:
// ablation_geometry (E9) and ablation_vrm_placement (E12) are those
// studies' only reproductions, and temp_sensitivity runs the coupled cases
// of bench/temp_sensitivity (E8).
#ifndef BRIGHTSI_SWEEP_REGISTRY_H
#define BRIGHTSI_SWEEP_REGISTRY_H

#include <string>
#include <vector>

#include "sweep/plan.h"

namespace brightsi::sweep {

/// A registry entry: the plan name, a one-line summary for --list and the
/// factory that builds the plan.
struct PlanDescription {
  std::string name;
  std::string summary;
  SweepPlan (*make)();
};

/// All registered plan names with summaries, in presentation order.
[[nodiscard]] const std::vector<PlanDescription>& registered_plans();

/// Builds the named plan (scenarios fully expanded). Throws
/// std::invalid_argument listing the registered names on an unknown name.
[[nodiscard]] SweepPlan make_registered_plan(const std::string& name);

/// `--transient rom`: stamps transient=1 on every scenario that does not
/// set `transient` itself (an explicit per-scenario value wins). The sweep
/// and merge CLIs both call it, so a merge expands the scenarios to the
/// store keys the sweep wrote.
void stamp_rom_transient(SweepPlan& plan);

}  // namespace brightsi::sweep

#endif  // BRIGHTSI_SWEEP_REGISTRY_H
