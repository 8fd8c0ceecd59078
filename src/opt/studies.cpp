#include "opt/studies.h"

#include <stdexcept>

#include "sweep/evaluators.h"

namespace brightsi::opt {

namespace {

/// The paper's T_max <= 360 K junction cap, in the evaluators' Celsius
/// metric.
constexpr double kPeakCapC = 360.0 - 273.15;

MetricConstraint peak_temperature_cap() {
  MetricConstraint cap;
  cap.metric = "peak_t_c";
  cap.max = kPeakCapC;
  return cap;
}

/// Channel sizing + operating point against deliverable net power, under
/// the junction-temperature cap: the searchable counterpart of the
/// ablation_geometry sweep plan (same array design-point metrics, plus the
/// steady thermal solve that prices each candidate's peak temperature).
Study channel_geometry_study() {
  Study study;
  study.name = "channel_geometry";
  study.base = core::power7_system_config();
  study.base.thermal_grid.axial_cells = 16;
  study.evaluator = sweep::array_thermal_evaluator();
  study.objective = maximize_metric("net_w");
  study.objective.constraints.push_back(peak_temperature_cap());
  study.objective.pareto_maximize = "net_w";
  study.objective.pareto_minimize = "peak_t_c";
  study.parameters = {
      {"channel_gap_um", 100.0, 400.0, false},
      {"channel_height_um", 200.0, 800.0, false},
      {"flow_ml_min", 48.0, 2000.0, false},
      {"inlet_c", 27.0, 60.0, false},
  };
  return study;
}

/// Flow rate and inlet temperature through the full co-simulation: net
/// power after pumping and VRM losses, peak temperature capped — the
/// searchable operating_grid.
Study flow_rate_study() {
  Study study;
  study.name = "flow_rate";
  study.base = core::power7_system_config();
  study.base.thermal_grid.axial_cells = 16;
  study.evaluator = sweep::cosim_evaluator();
  study.objective = maximize_metric("net_w");
  study.objective.constraints.push_back(peak_temperature_cap());
  study.objective.pareto_maximize = "net_w";
  study.objective.pareto_minimize = "peak_t_c";
  study.parameters = {
      {"flow_ml_min", 48.0, 2000.0, false},
      {"inlet_c", 27.0, 60.0, false},
  };
  return study;
}

/// VRM population sizing on the cache rail: worst-case rail voltage vs tap
/// count and per-tap output resistance (integer tap grid).
Study vrm_placement_study() {
  Study study;
  study.name = "vrm_placement";
  study.base = core::power7_system_config();
  study.evaluator = sweep::rail_integrity_evaluator();
  study.objective = maximize_metric("rail_min_v");
  study.objective.pareto_maximize = "rail_min_v";
  study.objective.pareto_minimize = "tap_count";
  study.parameters = {
      {"vrm_grid_n", 1.0, 8.0, true},
      {"vrm_r_mohm", 5.0, 100.0, false},
  };
  return study;
}

/// How deep can the stack go? Die count, pump flow and cooling-layer
/// height against net power under the same junction cap — the searchable
/// counterpart of the stack_3d sweep plan. Every candidate is a full
/// co-simulation with the interlayer flow split.
Study stack_depth_study() {
  Study study;
  study.name = "stack_depth";
  study.base = core::power7_system_config();
  study.base.thermal_grid.axial_cells = 8;  // stacked solves are much larger
  study.base.fvm.axial_steps = 60;
  study.evaluator = sweep::stack_evaluator();
  study.objective = maximize_metric("net_w");
  study.objective.constraints.push_back(peak_temperature_cap());
  study.objective.pareto_maximize = "net_w";
  study.objective.pareto_minimize = "peak_t_c";
  study.parameters = {
      {"die_count", 1.0, 3.0, true},
      {"flow_ml_min", 200.0, 2000.0, false},
      {"stack_channel_height_um", 200.0, 800.0, false},
  };
  return study;
}

/// The full stacked-cooling trade space for the evolutionary optimizer:
/// stack depth, interlayer split, channel sizing and operating point in
/// one mixed real/integer box. Too many axes for per-axis grid refinement
/// to cover — the motivating study of --algo nsga2.
Study stack_pareto_study() {
  Study study;
  study.name = "stack_pareto";
  study.base = core::power7_system_config();
  study.base.thermal_grid.axial_cells = 8;  // stacked solves are much larger
  study.base.fvm.axial_steps = 60;
  study.evaluator = sweep::stack_evaluator();
  study.objective = maximize_metric("net_w");
  study.objective.constraints.push_back(peak_temperature_cap());
  study.objective.pareto_maximize = "net_w";
  study.objective.pareto_minimize = "peak_t_c";
  study.parameters = {
      {"die_count", 1.0, 3.0, true},
      {"interlayer", 0.0, 1.0, true},
      {"flow_ml_min", 200.0, 2000.0, false},
      {"stack_channel_height_um", 200.0, 800.0, false},
      {"channel_gap_um", 100.0, 400.0, false},
      {"inlet_c", 27.0, 60.0, false},
  };
  return study;
}

/// Rack-level delivery + cooling geometry through the full co-simulation:
/// VRM tap grid and output resistance against coolant channel height and
/// flow — the conversion/pumping-loss trade at one operating point.
Study rack_geometry_study() {
  Study study;
  study.name = "rack_geometry";
  study.base = core::power7_system_config();
  study.base.thermal_grid.axial_cells = 16;
  study.evaluator = sweep::cosim_evaluator();
  study.objective = maximize_metric("net_w");
  study.objective.constraints.push_back(peak_temperature_cap());
  study.objective.pareto_maximize = "net_w";
  study.objective.pareto_minimize = "peak_t_c";
  study.parameters = {
      {"vrm_grid_n", 1.0, 8.0, true},
      {"vrm_r_mohm", 5.0, 100.0, false},
      {"channel_height_um", 200.0, 800.0, false},
      {"flow_ml_min", 48.0, 2000.0, false},
  };
  return study;
}

/// Fleet rack topology: how many chips fit on how many shared loops, cut
/// into how many serial segments, at what loop flow — maximizing rack
/// capacity against pumping cost under the per-chip junction cap, with
/// temperature-dependent coolant pricing the serial inlet rise. A mixed
/// integer/real box made for --algo nsga2 (chips vs peak-T front).
Study rack_topology_study() {
  Study study;
  study.name = "rack_topology";
  study.base = core::power7_system_config();
  study.base.thermal_grid.axial_cells = 8;  // N chip solves per candidate
  study.evaluator = sweep::fleet_evaluator();
  study.objective.terms = {{"chips", 1.0}, {"pump_w", -0.01}};
  study.objective.constraints.push_back(peak_temperature_cap());
  study.objective.pareto_maximize = "chips";
  study.objective.pareto_minimize = "peak_t_c";
  study.parameters = {
      {"rack_chips", 2.0, 12.0, true},
      {"rack_loops", 1.0, 2.0, true},
      {"rack_segments", 1.0, 4.0, true},
      {"rack_flow_ml_min", 200.0, 2000.0, false},
  };
  study.fixed = {{"coolant_temp_dep", 1.0}};
  return study;
}

}  // namespace

const std::vector<StudyDescription>& registered_studies() {
  static const std::vector<StudyDescription> studies = {
      {"channel_geometry",
       "channel gap/height, flow and inlet-T vs net power under the 360 K cap",
       channel_geometry_study},
      {"flow_rate",
       "co-simulated flow x inlet-T operating point; net power vs peak-T Pareto front",
       flow_rate_study},
      {"vrm_placement", "VRM tap grid and output resistance vs cache-rail integrity",
       vrm_placement_study},
      {"stack_depth",
       "3D-stack depth: dies x flow x cooling-layer height vs net power under the cap",
       stack_depth_study},
      {"stack_pareto",
       "full 3D-stack trade space (6 mixed axes); the evolutionary optimizer's home study",
       stack_pareto_study},
      {"rack_geometry",
       "VRM grid/resistance x channel height x flow through the full co-simulation",
       rack_geometry_study},
      {"rack_topology",
       "fleet rack: chips x loops x segments x loop flow, capacity vs pump power",
       rack_topology_study},
  };
  return studies;
}

Study make_registered_study(const std::string& name) {
  std::string names;
  for (const StudyDescription& study : registered_studies()) {
    if (study.name == name) {
      return study.make();
    }
    names += (names.empty() ? "" : ", ") + study.name;
  }
  throw std::invalid_argument("unknown optimization study: " + name +
                              " (expected one of: " + names + ")");
}

}  // namespace brightsi::opt
