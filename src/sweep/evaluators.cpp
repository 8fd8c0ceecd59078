#include "sweep/evaluators.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "chip/power7.h"
#include "core/cosim.h"
#include "core/mission.h"
#include "fleet/rack.h"
#include "flowcell/cell_array.h"
#include "hydraulics/pump.h"
#include "pdn/power_grid.h"
#include "sweep/scenario.h"
#include "sweep/scenario_hash.h"
#include "thermal/model.h"

namespace brightsi::sweep {

namespace {

/// The mission workload presets selectable from a numeric scenario
/// parameter (sweep values are doubles).
chip::WorkloadTrace mission_workload(int kind, int repeats) {
  chip::WorkloadTrace base;
  switch (kind) {
    case 0:
      base = chip::full_load_trace();
      break;
    case 1:
      base = chip::burst_trace(1);
      break;
    case 2:
      base = chip::memory_bound_trace();
      break;
    default:
      throw std::invalid_argument("workload_kind must be 0, 1 or 2, got " +
                                  std::to_string(kind));
  }
  return chip::WorkloadTrace(base.phases(), repeats);
}

/// The demo rack implied by a scenario's evaluator-consumed fleet knobs
/// (all registered with a null `apply` in parameter_registry()).
fleet::RackSpec rack_from_scenario(const core::SystemConfig& config,
                                   const ScenarioSpec& scenario) {
  fleet::RackSpec rack = fleet::make_demo_rack(
      config, scenario.get_int("rack_chips", 4), scenario.get_int("rack_loops", 1),
      scenario.get_int("rack_segments", 2), scenario.get_flag("rack_hetero", false),
      scenario.get_int("rack_blocked", 0));
  rack.loop_flow_m3_per_s = scenario.get("rack_flow_ml_min").value_or(676.0) * 1e-6 / 60.0;
  rack.loop_inlet_temperature_k = scenario.get("rack_inlet_c").value_or(26.85) + 273.15;
  rack.coolant_laws.temperature_dependent = scenario.get_flag("coolant_temp_dep", false);
  // Re-price relative to the loop inlet, so the first segment of every loop
  // sees exactly the reference coolant even with the laws enabled.
  rack.coolant_laws.reference_temperature_k = rack.loop_inlet_temperature_k;
  const double stagger_s = scenario.get("rack_stagger_s").value_or(0.0);
  for (std::size_t i = 0; i < rack.chips.size(); ++i) {
    rack.chips[i].workload_offset_s = static_cast<double>(i) * stagger_s;
  }
  return rack;
}

}  // namespace

SweepEvaluator cosim_evaluator() {
  SweepEvaluator evaluator;
  evaluator.name = "cosim";
  evaluator.metrics = {
      "iterations",     "converged",        "peak_t_c",      "coolant_out_c",
      "bus_v",          "array_current_a",  "array_power_w", "vrm_loss_w",
      "dp_bar",         "pump_w",           "net_w",         "iso_current_a",
      "coupled_current_a", "thermal_gain_pct", "rail_min_v", "rail_worst_drop_v",
  };
  evaluator.fn = [](const core::SystemConfig& config, const ScenarioSpec& scenario,
                    WorkerState& worker) {
    const core::IntegratedMpsocSystem system(config,
                                             worker.thermal_models.model_for(config, scenario),
                                             worker.rails.rail_for(config));
    const core::CoSimReport report = system.run();
    return std::vector<double>{
        static_cast<double>(report.iterations),
        report.converged ? 1.0 : 0.0,
        report.peak_temperature_c,
        report.mean_coolant_outlet_c,
        report.supply.bus_voltage_v,
        report.supply.array_current_a,
        report.supply.array_power_w,
        report.supply.vrm_loss_w,
        report.pressure_drop_bar,
        report.pumping_power_w,
        report.net_power_w,
        report.isothermal_current_a,
        report.coupled_current_a,
        report.thermal_current_gain * 100.0,
        report.grid.min_voltage_v,
        report.grid.worst_drop_v,
    };
  };
  return evaluator;
}

SweepEvaluator array_power_evaluator() {
  SweepEvaluator evaluator;
  evaluator.name = "array";
  evaluator.metrics = {"current_1v_a", "power_density_w_cm2", "dp_bar", "pump_w", "net_w"};
  evaluator.fn = [](const core::SystemConfig& config, const ScenarioSpec&, WorkerState&) {
    const flowcell::FlowCellArray array(config.array_spec, config.chemistry, config.fvm);
    const flowcell::ArraySpec& spec = config.array_spec;
    const double area_cm2 =
        spec.geometry.projected_electrode_area_m2() * spec.channel_count * 1e4;
    const double current = array.current_at_voltage(1.0, {spec.inlet_temperature_k});
    const auto hydraulics = array.hydraulics_at_spec_flow();
    const double pump = hydraulics::pumping_power_w(
        hydraulics.pressure_drop_pa, spec.total_flow_m3_per_s, config.pump_efficiency);
    return std::vector<double>{
        current,
        current / area_cm2,
        hydraulics.pressure_drop_pa / 1e5,
        pump,
        current - pump,
    };
  };
  return evaluator;
}

SweepEvaluator array_thermal_evaluator() {
  SweepEvaluator evaluator;
  evaluator.name = "array_thermal";
  evaluator.metrics = {"current_1v_a", "power_density_w_cm2", "dp_bar", "pump_w",
                       "net_w",        "peak_t_c",            "coolant_out_c"};
  evaluator.fn = [array = array_power_evaluator()](const core::SystemConfig& config,
                                                   const ScenarioSpec& scenario,
                                                   WorkerState& worker) {
    std::vector<double> metrics = array.fn(config, scenario, worker);

    const auto model = worker.thermal_models.model_for(config, scenario);
    thermal::OperatingPoint op;
    op.total_flow_m3_per_s = config.array_spec.total_flow_m3_per_s;
    op.inlet_temperature_k = config.array_spec.inlet_temperature_k;
    const thermal::ThermalSolution sol =
        model->solve_steady(chip::make_power7_floorplan(config.power_spec), op);
    metrics.push_back(sol.peak_temperature_k - 273.15);
    metrics.push_back(sol.mean_outlet_k(op.inlet_temperature_k) - 273.15);
    return metrics;
  };
  return evaluator;
}

SweepEvaluator rail_integrity_evaluator() {
  SweepEvaluator evaluator;
  evaluator.name = "rail";
  evaluator.metrics = {"tap_count",    "rail_min_v",   "rail_max_v",      "rail_mean_v",
                       "worst_drop_v", "ohmic_loss_w", "supply_current_a"};
  evaluator.fn = [](const core::SystemConfig& config, const ScenarioSpec& scenario,
                    WorkerState&) {
    const chip::Floorplan floorplan = chip::make_power7_floorplan(config.power_spec);
    const pdn::PowerGrid grid(config.grid_spec, floorplan);
    std::vector<pdn::VrmTap> taps;
    if (const auto per_edge = scenario.get("edge_taps_per_side")) {
      taps = pdn::make_edge_taps(whole_number_param("edge_taps_per_side", *per_edge),
                                 floorplan.die_width(), floorplan.die_height(),
                                 config.vrm_spec.set_point_v,
                                 config.vrm_spec.output_resistance_ohm);
    } else {
      taps = pdn::make_vrm_grid(config.vrm_spec.count_x, config.vrm_spec.count_y,
                                floorplan.die_width(), floorplan.die_height(),
                                config.vrm_spec.set_point_v,
                                config.vrm_spec.output_resistance_ohm);
    }
    const pdn::PowerGridSolution solution = grid.solve(taps);
    return std::vector<double>{
        static_cast<double>(taps.size()),
        solution.min_voltage_v,
        solution.max_voltage_v,
        solution.mean_voltage_v,
        solution.worst_drop_v,
        solution.ohmic_loss_w,
        solution.total_supply_current_a,
    };
  };
  return evaluator;
}

SweepEvaluator mission_evaluator() {
  SweepEvaluator evaluator;
  evaluator.name = "mission";
  evaluator.metrics = {"steps",          "final_soc", "soc_drop",       "energy_j",
                       "max_peak_c",     "supply_ok", "supply_ok_frac", "min_bus_v"};
  evaluator.fn = [](const core::SystemConfig& config, const ScenarioSpec& scenario,
                    WorkerState& worker) {
    core::MissionConfig mission;
    mission.system = config;
    mission.workload = mission_workload(scenario.get_int("workload_kind", 1),
                                        scenario.get_int("workload_repeats", 1));
    mission.reservoir.tank_volume_m3 = scenario.get("tank_ml").value_or(5.0) * 1e-6;
    mission.reservoir.total_vanadium_mol_per_m3 = 2001.0;
    mission.reservoir.chemistry = config.chemistry;
    mission.initial_soc = scenario.get("initial_soc").value_or(0.95);
    mission.dt_s = scenario.get("mission_dt_s").value_or(0.1);
    mission.transient_backend = scenario.get_flag("transient", false)
                                    ? thermal::TransientBackend::kRom
                                    : thermal::TransientBackend::kFull;

    // The mission's thermal trajectory ignores the electrochemical knobs
    // (tank_ml, initial_soc), so scenarios that differ only in those replay
    // one recorded trajectory (bit-identical to a full run) instead of
    // re-running the transient solve.
    const std::string trajectory_key = mission_trajectory_key(scenario);
    core::MissionResult result;
    if (const core::MissionThermalTrajectory* recorded =
            worker.mission_trajectories.find(trajectory_key)) {
      result = core::run_mission(mission, nullptr, nullptr, nullptr, recorded);
    } else {
      core::MissionThermalTrajectory trajectory;
      result = core::run_mission(mission, worker.thermal_models.model_for(config, scenario),
                                 nullptr, &trajectory, nullptr);
      worker.mission_trajectories.insert(trajectory_key, std::move(trajectory));
    }
    int supply_ok_count = 0;
    double min_bus_v = result.samples.empty() ? 0.0 : result.samples.front().bus_voltage_v;
    for (const core::MissionSample& sample : result.samples) {
      supply_ok_count += sample.supply_ok ? 1 : 0;
      min_bus_v = std::min(min_bus_v, sample.bus_voltage_v);
    }
    return std::vector<double>{
        static_cast<double>(result.steps),
        result.final_soc,
        mission.initial_soc - result.final_soc,
        result.energy_delivered_j,
        result.max_peak_temperature_c,
        result.supply_always_ok ? 1.0 : 0.0,
        static_cast<double>(supply_ok_count) /
            static_cast<double>(result.samples.size()),
        min_bus_v,
    };
  };
  return evaluator;
}

SweepEvaluator stack_evaluator() {
  SweepEvaluator evaluator;
  evaluator.name = "stack";
  evaluator.metrics = {"dies",          "channel_layers", "converged",
                       "peak_t_c",      "coolant_out_c",  "net_w",
                       "pump_w",        "bus_v",          "bottom_flow_frac",
                       "flow_frac_min", "flow_frac_max",  "fluid_heat_w"};
  evaluator.fn = [](const core::SystemConfig& config, const ScenarioSpec& scenario,
                    WorkerState& worker) {
    const core::IntegratedMpsocSystem system(config,
                                             worker.thermal_models.model_for(config, scenario),
                                             worker.rails.rail_for(config));
    const core::CoSimReport report = system.run();
    double frac_min = 1.0;
    double frac_max = 0.0;
    for (const core::ChannelLayerReport& layer : report.layer_flows) {
      frac_min = std::min(frac_min, layer.fraction);
      frac_max = std::max(frac_max, layer.fraction);
    }
    return std::vector<double>{
        static_cast<double>(report.die_count),
        static_cast<double>(report.layer_flows.size()),
        report.converged ? 1.0 : 0.0,
        report.peak_temperature_c,
        report.mean_coolant_outlet_c,
        report.net_power_w,
        report.pumping_power_w,
        report.supply.bus_voltage_v,
        report.layer_flows.empty() ? 0.0 : report.layer_flows.front().fraction,
        frac_min,
        frac_max,
        report.thermal.fluid_heat_absorbed_w,
    };
  };
  return evaluator;
}

SweepEvaluator fleet_evaluator() {
  SweepEvaluator evaluator;
  evaluator.name = "fleet";
  evaluator.metrics = {"chips",           "loops",           "blocked",
                       "peak_t_c",        "loop_out_c",      "max_inlet_rise_c",
                       "inlet_monotonic", "pump_w",          "fluid_heat_w",
                       "flow_frac_min",   "flow_frac_max",   "energy_err"};
  evaluator.fn = [](const core::SystemConfig& config, const ScenarioSpec& scenario,
                    WorkerState&) {
    const fleet::RackSpec rack = rack_from_scenario(config, scenario);
    const fleet::RackSolveResult result = fleet::solve_rack_steady(rack);
    int blocked = 0;
    double frac_min = 1.0;
    double frac_max = 0.0;
    for (const fleet::RackChipResult& c : result.chips) {
      if (c.blocked) {
        ++blocked;
        continue;
      }
      frac_min = std::min(frac_min, c.flow_fraction);
      frac_max = std::max(frac_max, c.flow_fraction);
    }
    double loop_out_k = 0.0;
    for (const fleet::RackLoopResult& loop : result.loops) {
      loop_out_k = std::max(loop_out_k, loop.outlet_temperature_k);
    }
    return std::vector<double>{
        static_cast<double>(result.chips.size()),
        static_cast<double>(result.loops.size()),
        static_cast<double>(blocked),
        result.peak_temperature_k - 273.15,
        loop_out_k - 273.15,
        result.max_inlet_rise_k,
        result.inlet_monotonic ? 1.0 : 0.0,
        result.pump_power_w,
        result.heat_absorbed_w,
        frac_min,
        frac_max,
        result.energy_balance_rel_error,
    };
  };
  return evaluator;
}

SweepEvaluator fleet_replay_evaluator() {
  SweepEvaluator evaluator;
  evaluator.name = "fleet_replay";
  evaluator.metrics = {"chips",   "steps",      "sim_s",
                       "max_peak_c", "mean_pump_w", "heat_kj",
                       "max_inlet_rise_c", "inlet_monotonic"};
  evaluator.fn = [](const core::SystemConfig& config, const ScenarioSpec& scenario,
                    WorkerState&) {
    const fleet::RackSpec rack = rack_from_scenario(config, scenario);
    fleet::FleetReplayOptions options;
    options.trace = mission_workload(scenario.get_int("workload_kind", 1),
                                     scenario.get_int("workload_repeats", 1));
    options.dt_s = scenario.get("rack_dt_s").value_or(0.05);
    options.steps = scenario.get_int("rack_steps", 20);
    const fleet::FleetReplayResult result = fleet::replay_fleet_trace(rack, options);
    return std::vector<double>{
        static_cast<double>(rack.chips.size()),
        static_cast<double>(result.steps),
        result.sim_time_s,
        result.max_peak_temperature_k - 273.15,
        result.mean_pump_power_w,
        result.heat_absorbed_j / 1e3,
        result.max_inlet_rise_k,
        result.inlet_monotonic ? 1.0 : 0.0,
    };
  };
  return evaluator;
}

const std::vector<EvaluatorDescription>& registered_evaluators() {
  static const std::vector<EvaluatorDescription> evaluators = {
      {"cosim", "full fixed-point co-simulation", cosim_evaluator},
      {"array", "isothermal array design point at 1 V", array_power_evaluator},
      {"array_thermal", "array design point plus a steady thermal solve",
       array_thermal_evaluator},
      {"rail", "cache-rail integrity of a VRM tap population", rail_integrity_evaluator},
      {"mission", "transient mission: tank endurance and supply feasibility",
       mission_evaluator},
      {"stack", "3D-stack co-simulation with the interlayer flow split", stack_evaluator},
      {"fleet", "steady rack on shared coolant loops", fleet_evaluator},
      {"fleet_replay", "staggered workload replay across a rack", fleet_replay_evaluator},
  };
  return evaluators;
}

SweepEvaluator make_evaluator(const std::string& name) {
  std::string names;
  for (const EvaluatorDescription& evaluator : registered_evaluators()) {
    if (evaluator.name == name) {
      return evaluator.make();
    }
    names += (names.empty() ? "" : ", ") + evaluator.name;
  }
  throw std::invalid_argument("unknown evaluator: " + name + " (expected one of: " + names +
                              ")");
}

}  // namespace brightsi::sweep
