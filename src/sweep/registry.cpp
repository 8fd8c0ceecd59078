#include "sweep/registry.h"

#include <stdexcept>

namespace brightsi::sweep {

namespace {

/// E9, the Section IV outlook: "assessment of the power density as function
/// of channel dimensions, flow rate and temperature", evaluated at the
/// isothermal 1 V design point with the pumping cost of each design.
SweepPlan geometry_plan() {
  SweepPlan plan;
  plan.name = "ablation_geometry";
  plan.base = core::power7_system_config();
  plan.evaluator = array_power_evaluator();
  // Explicit design points: every scenario pins all four knobs so rows are
  // self-describing.
  auto point = [&](double gap_um, double height_um, double flow_ml_min, double inlet_c) {
    ScenarioSpec scenario;
    scenario.name = "gap=" + format_value(gap_um) + " h=" + format_value(height_um) +
                    " q=" + format_value(flow_ml_min) + " t=" + format_value(inlet_c);
    scenario.set("channel_gap_um", gap_um);
    scenario.set("channel_height_um", height_um);
    scenario.set("flow_ml_min", flow_ml_min);
    scenario.set("inlet_c", inlet_c);
    plan.add(std::move(scenario));
  };
  for (const double gap : {100.0, 200.0, 400.0}) {
    point(gap, 400.0, 676.0, 27.0);
  }
  for (const double height : {200.0, 400.0, 800.0}) {
    point(200.0, height, 676.0, 27.0);
  }
  for (const double flow : {48.0, 200.0, 676.0, 2000.0}) {
    point(200.0, 400.0, flow, 27.0);
  }
  for (const double t : {27.0, 37.0, 47.0, 60.0}) {
    point(200.0, 400.0, 676.0, t);
  }
  return plan;
}

/// bench/temp_sensitivity as data: the Section III-B coupled cases (nominal
/// flow, starved flow, warm inlet) through the full co-simulation.
SweepPlan temperature_plan() {
  SweepPlan plan;
  plan.name = "temp_sensitivity";
  plan.base = core::power7_system_config();
  plan.base.thermal_grid.axial_cells = 16;  // the bench's resolution
  plan.evaluator = cosim_evaluator();
  auto coupled = [&](const std::string& name, double flow_ml_min, double inlet_c) {
    ScenarioSpec scenario;
    scenario.name = name;
    scenario.set("flow_ml_min", flow_ml_min);
    scenario.set("inlet_c", inlet_c);
    plan.add(std::move(scenario));
  };
  coupled("coupled 676 ml/min, 27 C inlet", 676.0, 27.0);
  coupled("coupled 48 ml/min, 27 C inlet", 48.0, 27.0);
  coupled("coupled 676 ml/min, 37 C inlet", 676.0, 37.0);
  return plan;
}

/// E12, the Section III-A VRM design space: distributed tap grids vs the
/// edge-fed baseline vs output resistance, on the cache rail.
SweepPlan vrm_placement_plan() {
  SweepPlan plan;
  plan.name = "ablation_vrm_placement";
  plan.base = core::power7_system_config();
  plan.evaluator = rail_integrity_evaluator();
  for (const double n : {1.0, 2.0, 3.0, 4.0, 6.0, 8.0}) {
    ScenarioSpec scenario;
    scenario.name = "distributed " + format_value(n) + "x" + format_value(n);
    scenario.set("vrm_grid_n", n);
    scenario.set("vrm_r_mohm", 25.0);
    plan.add(std::move(scenario));
  }
  for (const double per_edge : {4.0, 8.0, 16.0}) {
    ScenarioSpec scenario;
    scenario.name = "edge-fed " + format_value(per_edge) + "/side";
    scenario.set("edge_taps_per_side", per_edge);
    scenario.set("vrm_r_mohm", 25.0);
    plan.add(std::move(scenario));
  }
  for (const double r_mohm : {5.0, 25.0, 100.0}) {
    ScenarioSpec scenario;
    scenario.name = "distributed 4x4, R=" + format_value(r_mohm) + " mohm";
    scenario.set("vrm_grid_n", 4.0);
    scenario.set("vrm_r_mohm", r_mohm);
    plan.add(std::move(scenario));
  }
  return plan;
}

/// A full co-simulated flow x inlet-temperature grid — the design-space
/// product the one-off benches only sample.
SweepPlan operating_grid_plan() {
  SweepPlan plan;
  plan.name = "operating_grid";
  plan.base = core::power7_system_config();
  plan.base.thermal_grid.axial_cells = 16;
  plan.evaluator = cosim_evaluator();
  plan.add_grid({{"flow_ml_min", {48.0, 200.0, 676.0}},
                 {"inlet_c", {27.0, 37.0, 47.0}}});
  return plan;
}

/// Mission-level endurance map: tank volume x workload trace x flow rate x
/// step size, each scenario a full transient mission through the shared
/// transient engine. The non-divisible 0.07 s step exercises the
/// phase-aligned scheduler's residual steps on every run.
SweepPlan mission_endurance_plan() {
  SweepPlan plan;
  plan.name = "mission_endurance";
  plan.base = core::power7_system_config();
  plan.base.thermal_grid.axial_cells = 8;  // mission steps solve many operators
  plan.base.fvm.axial_steps = 60;
  plan.evaluator = mission_evaluator();
  plan.add_grid({{"tank_ml", {2.0, 20.0}},
                 {"workload_kind", {0.0, 1.0}},
                 {"flow_ml_min", {676.0, 200.0}},
                 {"mission_dt_s", {0.1, 0.07}}});
  return plan;
}

/// Multi-die 3D-stack design space: die count x pump flow x cooling-layer
/// height, every scenario a full co-simulation with the equal-pressure-drop
/// flow split across the interlayer cooling layers. Two extra scenarios pin
/// the two-die top-only-cooling baseline against its interlayer twin.
SweepPlan stack_3d_plan() {
  SweepPlan plan;
  plan.name = "stack_3d";
  plan.base = core::power7_system_config();
  plan.base.thermal_grid.axial_cells = 8;  // stacked solves are much larger
  plan.base.fvm.axial_steps = 60;
  plan.evaluator = stack_evaluator();
  plan.add_grid({{"die_count", {1.0, 2.0, 3.0}},
                 {"flow_ml_min", {676.0, 1352.0}},
                 {"stack_channel_height_um", {400.0, 800.0}}});
  for (const double interlayer : {1.0, 0.0}) {
    ScenarioSpec scenario;
    scenario.name = interlayer != 0.0 ? "2 dies, interlayer cooling"
                                      : "2 dies, top-only cooling";
    scenario.set("die_count", 2.0);
    scenario.set("interlayer", interlayer);
    scenario.set("flow_ml_min", 676.0);
    plan.add(std::move(scenario));
  }
  return plan;
}

/// Fleet-level rack design space: rack size x serial segmentation x
/// temperature-dependent coolant, every scenario a steady solve of the
/// whole rack's coupled loops. Named extras pin the heterogeneous
/// (mixed one-/two-die) rack and a blocked-branch failure injection whose
/// live plenum neighbors inherit the flow.
SweepPlan fleet_rack_plan() {
  SweepPlan plan;
  plan.name = "fleet_rack";
  plan.base = core::power7_system_config();
  plan.base.thermal_grid.axial_cells = 8;  // N chips solve per scenario
  plan.evaluator = fleet_evaluator();
  plan.add_grid({{"rack_chips", {4.0, 8.0}},
                 {"rack_segments", {2.0, 4.0}},
                 {"coolant_temp_dep", {0.0, 1.0}}});
  {
    ScenarioSpec scenario;
    scenario.name = "8 chips, 2 loops, heterogeneous";
    scenario.set("rack_chips", 8.0);
    scenario.set("rack_loops", 2.0);
    scenario.set("rack_segments", 2.0);
    scenario.set("rack_hetero", 1.0);
    scenario.set("coolant_temp_dep", 1.0);
    plan.add(std::move(scenario));
  }
  {
    ScenarioSpec scenario;
    scenario.name = "8 chips, 1 blocked branch";
    scenario.set("rack_chips", 8.0);
    scenario.set("rack_segments", 4.0);
    scenario.set("rack_blocked", 1.0);
    plan.add(std::move(scenario));
  }
  return plan;
}

/// Staggered fleet workload replay: rack size x per-chip stagger x
/// workload trace, every scenario a transient replay re-walking the
/// shared-loop coupling each step.
SweepPlan fleet_mission_plan() {
  SweepPlan plan;
  plan.name = "fleet_mission";
  plan.base = core::power7_system_config();
  plan.base.thermal_grid.axial_cells = 8;  // chips x steps transient solves
  plan.evaluator = fleet_replay_evaluator();
  plan.add_grid({{"rack_chips", {2.0, 4.0}},
                 {"rack_stagger_s", {0.0, 0.5}},
                 {"workload_kind", {0.0, 1.0}}});
  return plan;
}

}  // namespace

const std::vector<PlanDescription>& registered_plans() {
  static const std::vector<PlanDescription> plans = {
      {"ablation_geometry",
       "channel gap/height, flow and inlet-T vs deliverable power density (E9)",
       geometry_plan},
      {"temp_sensitivity",
       "co-simulated thermal feedback on the generated power (bench E8)", temperature_plan},
      {"ablation_vrm_placement",
       "VRM count/placement/resistance vs cache-rail integrity (E12)", vrm_placement_plan},
      {"operating_grid", "co-simulated flow x inlet-temperature operating grid (3x3)",
       operating_grid_plan},
      {"mission_endurance", "transient mission endurance map: tank x workload x flow x dt",
       mission_endurance_plan},
      {"stack_3d",
       "multi-die 3D stacks: dies x flow x channel height, interlayer flow split",
       stack_3d_plan},
      {"fleet_rack",
       "rack-level shared coolant loops: chips x segments x coolant laws, steady",
       fleet_rack_plan},
      {"fleet_mission", "staggered fleet workload replay: chips x stagger x trace, transient",
       fleet_mission_plan},
  };
  return plans;
}

SweepPlan make_registered_plan(const std::string& name) {
  std::string names;
  for (const PlanDescription& plan : registered_plans()) {
    if (plan.name == name) {
      return plan.make();
    }
    names += (names.empty() ? "" : ", ") + plan.name;
  }
  throw std::invalid_argument("unknown sweep plan: " + name + " (expected one of: " + names +
                              ")");
}

void stamp_rom_transient(SweepPlan& plan) {
  for (ScenarioSpec& scenario : plan.scenarios) {
    if (!scenario.get("transient")) {
      scenario.set("transient", 1.0);
    }
  }
}

}  // namespace brightsi::sweep
