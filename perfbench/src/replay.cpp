#include "replay.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "chip/power7.h"
#include "chip/workload.h"
#include "core/mission.h"
#include "electrochem/constants.h"
#include "flowcell/cell_array.h"
#include "hydraulics/manifold.h"
#include "hydraulics/pump.h"
#include "numerics/root_finding.h"
#include "pdn/power_grid.h"
#include "sweep/evaluators.h"
#include "sweep/scenario_hash.h"
#include "thermal/solve_context.h"

namespace perfbench {

namespace co = brightsi::core;
namespace ch = brightsi::chip;
namespace fc = brightsi::flowcell;
namespace fl = brightsi::fleet;
namespace hy = brightsi::hydraulics;
namespace sw = brightsi::sweep;
namespace th = brightsi::thermal;

namespace {

using Profiles = std::vector<std::vector<double>>;

/// Books a ThermalSolveContext's cumulative work counters.
void add_context_stats(const th::ThermalSolveContext::Stats& stats, Tracer& tracer) {
  tracer.add("thermal.krylov_iterations", static_cast<double>(stats.iterations));
  tracer.add("thermal.assembly_s", stats.assembly_time_s);
  tracer.add("thermal.precond_setup_s", stats.precond_setup_time_s);
  tracer.add("thermal.krylov_s", stats.solve_time_s);
}

/// The worker's cached thermal model; the lookup is booked to the thermal
/// layer when it built a model and to the sweep layer (the cache) when not.
std::shared_ptr<const th::ThermalModel> traced_model_for(const co::SystemConfig& config,
                                                         const sw::ScenarioSpec& scenario,
                                                         sw::WorkerState& worker,
                                                         Tracer& tracer) {
  const int builds_before = worker.thermal_models.build_count();
  Span span(tracer, "sweep");
  std::shared_ptr<const th::ThermalModel> model =
      worker.thermal_models.model_for(config, scenario);
  if (worker.thermal_models.build_count() == builds_before) {
    span.close();
    return model;
  }
  tracer.add("thermal.model_builds", 1.0);
  tracer.add("thermal.model_build_s", span.close("thermal"));
  return model;
}

/// Flow-cell array current at `cell_voltage_v` under grouped axial
/// temperature profiles (IntegratedMpsocSystem::array_current_with_profiles).
double array_current(const co::SystemConfig& config, const fc::ArraySpec& electro_spec,
                     const fc::FlowCellArray& array, double cell_voltage_v,
                     const Profiles& group_profiles, Tracer& tracer) {
  Span span(tracer, "flowcell");
  const int per_group = config.array_spec.channel_count / config.channel_groups;
  const fc::ChannelModel& model = array.channel_model();
  double total = 0.0;
  for (const auto& profile : group_profiles) {
    fc::ChannelOperatingConditions conditions;
    conditions.volumetric_flow_m3_per_s = electro_spec.per_channel_flow();
    conditions.inlet_temperature_k = electro_spec.inlet_temperature_k;
    conditions.axial_temperature_k = profile;
    conditions.parasitic_current_density_a_per_m2 =
        config.array_spec.parasitic_current_density_a_per_m2;
    total += model.solve_at_voltage(cell_voltage_v, conditions).current_a * per_group;
  }
  tracer.add("flowcell.array_evals", 1.0);
  tracer.add("flowcell.solve_s", span.close());
  return total;
}

/// Channel profiles averaged into config.channel_groups group profiles.
Profiles group_profiles(const co::SystemConfig& config, const Profiles& per_channel) {
  const int groups = config.channel_groups;
  const int per_group = config.array_spec.channel_count / groups;
  Profiles grouped(static_cast<std::size_t>(groups));
  for (int g = 0; g < groups; ++g) {
    const std::size_t samples = per_channel[static_cast<std::size_t>(g * per_group)].size();
    std::vector<double> mean(samples, 0.0);
    for (int c = g * per_group; c < (g + 1) * per_group; ++c) {
      const auto& profile = per_channel[static_cast<std::size_t>(c)];
      for (std::size_t i = 0; i < samples; ++i) {
        mean[i] += profile[i];
      }
    }
    for (double& v : mean) {
      v /= per_group;
    }
    grouped[static_cast<std::size_t>(g)] = std::move(mean);
  }
  return grouped;
}

/// The bus operating point where the array sources the VRM input power.
co::SupplyOperatingPoint solve_supply(const co::SystemConfig& config,
                                      const fc::ArraySpec& electro_spec,
                                      const fc::FlowCellArray& array, double vrm_output_power_w,
                                      const Profiles& profiles, Tracer& tracer) {
  co::SupplyOperatingPoint op;
  op.vrm_output_power_w = vrm_output_power_w;
  const double input_power = vrm_output_power_w / config.vrm_spec.efficiency;
  op.vrm_loss_w = input_power - vrm_output_power_w;

  Span ocv_span(tracer, "flowcell");
  const double ocv = array.open_circuit_voltage();
  tracer.add("flowcell.solve_s", ocv_span.close());

  auto surplus = [&](double v) {
    return v * array_current(config, electro_spec, array, v, profiles, tracer) - input_power;
  };
  const double v_hi = ocv - 1e-3;
  if (surplus(v_hi) >= 0.0) {
    op.bus_voltage_v = v_hi;
  } else {
    double v_lo = v_hi;
    bool bracketed = false;
    for (double v = v_hi - 0.05; v >= 0.2; v -= 0.05) {
      if (surplus(v) >= 0.0) {
        v_lo = v;
        bracketed = true;
        break;
      }
    }
    if (!bracketed) {
      op.feasible = false;
      return op;
    }
    op.bus_voltage_v = brightsi::numerics::find_root_brent(
                           surplus, v_lo, v_hi, 1e-5, 1e-3 * std::max(input_power, 1.0), 64)
                           .root;
  }
  op.array_current_a = array_current(config, electro_spec, array, op.bus_voltage_v, profiles,
                                     tracer);
  op.array_power_w = op.bus_voltage_v * op.array_current_a;
  op.feasible = true;
  op.vrm_window_ok = op.bus_voltage_v >= config.vrm_spec.min_input_voltage_v &&
                     op.bus_voltage_v <= config.vrm_spec.max_input_voltage_v;
  return op;
}

/// The mission evaluator's workload presets (workload_kind 0, 1, 2).
ch::WorkloadTrace mission_workload(int kind, int repeats) {
  ch::WorkloadTrace base;
  switch (kind) {
    case 0:
      base = ch::full_load_trace();
      break;
    case 1:
      base = ch::burst_trace(1);
      break;
    case 2:
      base = ch::memory_bound_trace();
      break;
    default:
      throw std::invalid_argument("workload_kind must be 0, 1 or 2");
  }
  return ch::WorkloadTrace(base.phases(), repeats);
}

co::MissionConfig mission_config(const co::SystemConfig& config,
                                 const sw::ScenarioSpec& scenario) {
  co::MissionConfig mission;
  mission.system = config;
  mission.workload =
      mission_workload(static_cast<int>(scenario.get("workload_kind").value_or(1.0)),
                       static_cast<int>(scenario.get("workload_repeats").value_or(1.0)));
  mission.reservoir.tank_volume_m3 = scenario.get("tank_ml").value_or(5.0) * 1e-6;
  mission.reservoir.total_vanadium_mol_per_m3 = 2001.0;
  mission.reservoir.chemistry = config.chemistry;
  mission.initial_soc = scenario.get("initial_soc").value_or(0.95);
  mission.dt_s = scenario.get("mission_dt_s").value_or(0.1);
  mission.transient_backend = scenario.get("transient").value_or(0.0) != 0.0
                                  ? th::TransientBackend::kRom
                                  : th::TransientBackend::kFull;
  return mission;
}

std::vector<double> mission_metrics(const co::MissionConfig& mission,
                                    const co::MissionResult& result) {
  int supply_ok_count = 0;
  double min_bus_v = result.samples.empty() ? 0.0 : result.samples.front().bus_voltage_v;
  for (const co::MissionSample& sample : result.samples) {
    supply_ok_count += sample.supply_ok ? 1 : 0;
    min_bus_v = std::min(min_bus_v, sample.bus_voltage_v);
  }
  return {
      static_cast<double>(result.steps),
      result.final_soc,
      mission.initial_soc - result.final_soc,
      result.energy_delivered_j,
      result.max_peak_temperature_c,
      result.supply_always_ok ? 1.0 : 0.0,
      static_cast<double>(supply_ok_count) / static_cast<double>(result.samples.size()),
      min_bus_v,
  };
}

}  // namespace

co::CoSimReport traced_cosim(const co::SystemConfig& config,
                             std::shared_ptr<const th::ThermalModel> model, Tracer& tracer) {
  namespace ec = brightsi::electrochem::constants;
  Span core_span(tracer, "core");

  // What the IntegratedMpsocSystem constructor builds.
  config.validate();
  std::vector<ch::Floorplan> floorplans;
  floorplans.push_back(ch::make_power7_floorplan(config.power_spec));
  for (const ch::Power7PowerSpec& upper : config.upper_die_power) {
    floorplans.push_back(ch::make_power7_floorplan(upper));
  }
  const ch::Floorplan& primary = floorplans.front();
  Span setup_span(tracer, "thermal");
  th::ThermalSolveContext context(*model);
  fc::ArraySpec electro_spec = config.array_spec;
  if (model->channel_layer_count() > 1) {
    electro_spec.total_flow_m3_per_s =
        model->layer_flow_split(config.thermal_operating_point()).front();
  }
  setup_span.close();
  Span array_span(tracer, "flowcell");
  const fc::FlowCellArray array(electro_spec, config.chemistry, config.fvm);
  array_span.close();
  Span grid_span(tracer, "pdn");
  const brightsi::pdn::PowerGrid grid(config.grid_spec, primary);
  grid_span.close();

  // What run() does.
  co::CoSimReport report;
  const th::OperatingPoint thermal_op = config.thermal_operating_point();
  std::vector<const ch::Floorplan*> die_floorplans;
  for (const ch::Floorplan& floorplan : floorplans) {
    die_floorplans.push_back(&floorplan);
  }
  report.die_count = static_cast<int>(floorplans.size());
  const double rail_power = floorplans.front().cache_power();

  Profiles profiles;
  Profiles supplied_profiles;
  double previous_peak = 0.0;
  for (int it = 1; it <= config.max_cosim_iterations; ++it) {
    report.iterations = it;
    tracer.add("core.cosim_iterations", 1.0);
    Span solve_span(tracer, "thermal");
    report.thermal = context.solve_steady(die_floorplans, thermal_op);
    tracer.add("thermal.steady_solves", 1.0);
    tracer.add("thermal.steady_s", solve_span.close());
    profiles = group_profiles(config, report.thermal.channel_fluid_axial_k());
    if (it == 1 || profiles != supplied_profiles) {
      report.supply = solve_supply(config, electro_spec, array, rail_power, profiles, tracer);
      supplied_profiles = profiles;
    }
    if (std::abs(report.thermal.peak_temperature_k - previous_peak) <
        config.temperature_tolerance_k) {
      report.converged = true;
      break;
    }
    previous_peak = report.thermal.peak_temperature_k;
  }

  report.peak_temperature_c = ec::kelvin_to_celsius(report.thermal.peak_temperature_k);
  report.mean_coolant_outlet_c = ec::kelvin_to_celsius(
      report.thermal.mean_outlet_k(config.array_spec.inlet_temperature_k));
  for (const th::ChannelLayerSolution& layer : report.thermal.channel_layers) {
    co::ChannelLayerReport row;
    row.flow_ml_min = layer.flow_m3_per_s * 60.0 * 1e6;
    row.fraction = layer.flow_fraction;
    row.heat_absorbed_w = layer.heat_absorbed_w;
    row.outlet_mean_c =
        ec::kelvin_to_celsius(layer.mean_outlet_k(config.array_spec.inlet_temperature_k));
    report.layer_flows.push_back(row);
  }

  const auto taps = brightsi::pdn::make_vrm_grid(
      config.vrm_spec.count_x, config.vrm_spec.count_y, primary.die_width(),
      primary.die_height(), config.vrm_spec.set_point_v, config.vrm_spec.output_resistance_ohm);
  Span pdn_span(tracer, "pdn");
  report.grid = grid.solve(taps);
  tracer.add("pdn.solves", 1.0);
  tracer.add("pdn.solve_s", pdn_span.close());
  tracer.add("pdn.cg_iterations", report.grid.solver_report.iterations);

  Span hydraulics_span(tracer, "hydraulics");
  const auto hydraulics = array.hydraulics_at_spec_flow();
  report.mean_velocity_m_per_s = hydraulics.mean_velocity_m_per_s;
  report.pressure_drop_bar = hydraulics.pressure_drop_pa / 1e5;
  report.pressure_gradient_bar_per_cm = hydraulics.pressure_gradient_pa_per_m / 1e7;
  report.pumping_power_w = hy::pumping_power_w(
      hydraulics.pressure_drop_pa, config.array_spec.total_flow_m3_per_s, config.pump_efficiency);
  hydraulics_span.close();
  report.net_power_w = report.supply.array_power_w - report.pumping_power_w;

  const double probe_voltage = config.vrm_spec.set_point_v;
  Span isothermal_span(tracer, "flowcell");
  report.isothermal_current_a = array.current_at_voltage(probe_voltage);
  tracer.add("flowcell.array_evals", 1.0);
  tracer.add("flowcell.solve_s", isothermal_span.close());
  report.coupled_current_a =
      array_current(config, electro_spec, array, probe_voltage, profiles, tracer);
  report.thermal_current_gain =
      (report.isothermal_current_a > 0.0)
          ? report.coupled_current_a / report.isothermal_current_a - 1.0
          : 0.0;

  const th::ThermalSolveContext::Stats& stats = context.stats();
  report.thermal_solves = stats.solves;
  report.thermal_iterations = stats.iterations;
  report.thermal_assembly_time_s = stats.assembly_time_s;
  report.thermal_setup_time_s = stats.precond_setup_time_s;
  report.thermal_solve_time_s = stats.solve_time_s;
  add_context_stats(stats, tracer);
  return report;
}

fl::FleetReplayResult traced_fleet_replay(const fl::RackSpec& rack,
                                          const fl::FleetReplayOptions& options,
                                          Tracer& tracer) {
  Span fleet_span(tracer, "fleet");
  rack.validate();
  const double trace_duration_s = options.trace.total_duration_s();

  struct Engine {
    const fl::RackChip* chip = nullptr;
    std::shared_ptr<const th::ThermalModel> model;
    std::vector<ch::Floorplan> floorplans;
    std::vector<const ch::Floorplan*> pointers;
    hy::ParallelBranch branch;
    std::unique_ptr<th::ThermalSolveContext> context;
    brightsi::numerics::Grid3<double> state;
  };
  std::vector<Engine> engines;
  engines.reserve(rack.chips.size());
  for (const fl::RackChip& c : rack.chips) {
    Engine staged;
    staged.chip = &c;
    staged.floorplans.push_back(ch::make_power7_floorplan(c.system.power_spec));
    for (const ch::Power7PowerSpec& upper : c.system.upper_die_power) {
      staged.floorplans.push_back(ch::make_power7_floorplan(upper));
    }
    engines.push_back(std::move(staged));
    Engine& engine = engines.back();
    for (const ch::Floorplan& floorplan : engine.floorplans) {
      engine.pointers.push_back(&floorplan);
    }
    const ch::Floorplan& primary = engine.floorplans.front();
    for (std::size_t prior = 0; prior + 1 < engines.size(); ++prior) {
      const Engine& other = engines[prior];
      if (other.chip->system.stack == c.system.stack &&
          other.chip->system.thermal_grid == c.system.thermal_grid &&
          other.model->die_width_m() == primary.die_width() &&
          other.model->die_height_m() == primary.die_height()) {
        engine.model = other.model;
        break;
      }
    }
    Span thermal_span(tracer, "thermal");
    if (engine.model == nullptr) {
      engine.model = std::make_shared<const th::ThermalModel>(
          c.system.stack, primary.die_width(), primary.die_height(), c.system.thermal_grid);
      tracer.add("thermal.model_builds", 1.0);
      tracer.add("thermal.model_build_s", thermal_span.close());
    } else {
      thermal_span.close();
    }
    engine.branch.name = c.name;
    if (!c.blocked) {
      for (const th::MicrochannelLayerSpec* layer : c.system.stack.channel_layers()) {
        engine.branch.groups.push_back(
            {hy::RectangularDuct(layer->channel_width_m, layer->layer_height_m,
                                 primary.die_height()),
             layer->channel_count, layer->name});
      }
    }
  }
  Span context_span(tracer, "thermal");
  for (Engine& engine : engines) {
    engine.context = std::make_unique<th::ThermalSolveContext>(*engine.model);
    engine.state = engine.model->uniform_state(rack.loop_inlet_temperature_k);
  }
  context_span.close();

  const th::CoolantProperties reference = rack.coolant_reference();
  fl::FleetReplayResult result;
  result.steps = options.steps;
  result.sim_time_s = options.steps * options.dt_s;
  for (int step = 0; step < options.steps; ++step) {
    const double t_s = step * options.dt_s;
    for (Engine& engine : engines) {
      if (engine.chip->blocked) {
        continue;
      }
      const double phase_time_s =
          std::fmod(t_s + engine.chip->workload_offset_s, trace_duration_s);
      const ch::WorkloadPhase& phase = options.trace.phase_at(phase_time_s);
      engine.floorplans.front() = ch::apply_phase(engine.chip->system.power_spec, phase);
      for (std::size_t upper = 0; upper < engine.chip->system.upper_die_power.size();
           ++upper) {
        engine.floorplans[upper + 1] =
            ch::apply_phase(engine.chip->system.upper_die_power[upper], phase);
      }
    }

    // One walk over every loop's serial segments (fleet/rack.cpp walk_rack).
    double step_peak_k = 0.0;
    double step_pump_w = 0.0;
    double step_heat_w = 0.0;
    double step_inlet_rise_k = 0.0;
    bool step_monotonic = true;
    for (int l = 0; l < rack.loop_count(); ++l) {
      double t_in = rack.loop_inlet_temperature_k;
      std::vector<double> segment_inlet_k;
      double loop_pressure_pa = 0.0;
      double loop_heat_w = 0.0;
      const int segments = rack.segment_count(l);
      for (int s = 0; s < segments; ++s) {
        segment_inlet_k.push_back(t_in);
        std::vector<hy::ParallelBranch> branches;
        std::vector<std::size_t> members;
        for (std::size_t i = 0; i < engines.size(); ++i) {
          if (engines[i].chip->loop == l && engines[i].chip->segment == s) {
            members.push_back(i);
            branches.push_back(engines[i].branch);
          }
        }
        const th::CoolantProperties coolant = rack.coolant_laws.at(reference, t_in);
        Span split_span(tracer, "hydraulics");
        const hy::GroupSplit split = hy::split_equal_pressure(
            rack.loop_flow_m3_per_s, branches, coolant.dynamic_viscosity_pa_s);
        tracer.add("hydraulics.splits", 1.0);
        tracer.add("hydraulics.split_s", split_span.close());
        loop_pressure_pa += split.common_pressure_drop_pa;

        double segment_heat_w = 0.0;
        for (std::size_t m = 0; m < members.size(); ++m) {
          Engine& engine = engines[members[m]];
          if (engine.chip->blocked) {
            continue;
          }
          const th::OperatingPoint op = engine.chip->system.loop_operating_point(
              split.per_group_flow_m3_per_s[m], t_in, rack.coolant_laws);
          Span step_span(tracer, "thermal");
          th::ThermalSolution sol =
              engine.context->step_transient(engine.state, engine.pointers, op, options.dt_s);
          tracer.add("thermal.transient_steps", 1.0);
          tracer.add("thermal.transient_s", step_span.close());
          segment_heat_w += sol.fluid_heat_absorbed_w;
          step_peak_k = std::max(step_peak_k, sol.peak_temperature_k);
          engine.state = std::move(sol.temperature_k);
        }
        loop_heat_w += segment_heat_w;
        t_in += segment_heat_w /
                (coolant.volumetric_heat_capacity_j_per_m3_k * rack.loop_flow_m3_per_s);
      }
      step_pump_w +=
          hy::pumping_power_w(loop_pressure_pa, rack.loop_flow_m3_per_s, rack.pump_efficiency);
      step_heat_w += loop_heat_w;
      for (std::size_t s = 1; s < segment_inlet_k.size(); ++s) {
        if (segment_inlet_k[s] < segment_inlet_k[s - 1]) {
          step_monotonic = false;
        }
      }
      step_inlet_rise_k =
          std::max(step_inlet_rise_k, segment_inlet_k.back() - rack.loop_inlet_temperature_k);
    }
    result.max_peak_temperature_k = std::max(result.max_peak_temperature_k, step_peak_k);
    result.mean_pump_power_w += step_pump_w;
    result.heat_absorbed_j += step_heat_w * options.dt_s;
    result.max_inlet_rise_k = step_inlet_rise_k;
    result.inlet_monotonic = step_monotonic;
  }
  result.mean_pump_power_w /= options.steps;
  for (const Engine& engine : engines) {
    add_context_stats(engine.context->stats(), tracer);
  }
  return result;
}

sw::SweepEvaluator traced_cosim_evaluator(Tracer& tracer) {
  sw::SweepEvaluator evaluator = sw::cosim_evaluator();
  evaluator.fn = [&tracer](const co::SystemConfig& config, const sw::ScenarioSpec& scenario,
                           sw::WorkerState& worker) {
    const co::CoSimReport report =
        traced_cosim(config, traced_model_for(config, scenario, worker, tracer), tracer);
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

sw::SweepEvaluator traced_stack_evaluator(Tracer& tracer) {
  sw::SweepEvaluator evaluator = sw::stack_evaluator();
  evaluator.fn = [&tracer](const co::SystemConfig& config, const sw::ScenarioSpec& scenario,
                           sw::WorkerState& worker) {
    const co::CoSimReport report =
        traced_cosim(config, traced_model_for(config, scenario, worker, tracer), tracer);
    double frac_min = 1.0;
    double frac_max = 0.0;
    for (const co::ChannelLayerReport& layer : report.layer_flows) {
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

sw::SweepEvaluator traced_mission_evaluator(Tracer& tracer, std::vector<std::string>& failures) {
  sw::SweepEvaluator evaluator = sw::mission_evaluator();
  evaluator.fn = [&tracer, &failures](const co::SystemConfig& config,
                                      const sw::ScenarioSpec& scenario,
                                      sw::WorkerState& worker) {
    const co::MissionConfig mission = mission_config(config, scenario);
    const std::string key = sw::mission_trajectory_key(scenario);
    if (const co::MissionThermalTrajectory* recorded = worker.mission_trajectories.find(key)) {
      Span bus_span(tracer, "core");
      const co::MissionResult result = co::run_mission(mission, nullptr, nullptr, nullptr, recorded);
      tracer.add("core.mission_bus_s", bus_span.close());
      return mission_metrics(mission, result);
    }
    const auto model = traced_model_for(config, scenario, worker, tracer);
    co::MissionThermalTrajectory trajectory;
    Span record_span(tracer, "thermal");
    const co::MissionResult result = co::run_mission(mission, model, nullptr, &trajectory, nullptr);
    const double record_s = record_span.close();

    // The replay is the bit-agreement guard and the estimate of the
    // electrochemical share of the recording run.
    Span replay_span(tracer, Tracer::kReference);
    const co::MissionResult replayed =
        co::run_mission(mission, nullptr, nullptr, nullptr, &trajectory);
    const double bus_s = std::min(replay_span.close(), record_s);
    if (replayed.final_soc != result.final_soc ||
        replayed.energy_delivered_j != result.energy_delivered_j) {
      failures.push_back("mission record vs replay disagree on " + scenario.name);
    }
    tracer.move_self("thermal", "core", bus_s);
    tracer.add("core.mission_bus_s", bus_s);
    tracer.add("thermal.transient_s", record_s - bus_s);
    tracer.add("thermal.transient_steps", static_cast<double>(result.steps));
    tracer.add("thermal.krylov_iterations", static_cast<double>(result.thermal_iterations));
    tracer.add("thermal.assembly_s", result.thermal_assembly_time_s);
    tracer.add("thermal.precond_setup_s", result.thermal_setup_time_s);
    tracer.add("thermal.krylov_s", result.thermal_solve_time_s);
    worker.mission_trajectories.insert(key, std::move(trajectory));
    return mission_metrics(mission, result);
  };
  return evaluator;
}

TracingBackend::TracingBackend(std::shared_ptr<sw::ExecutionBackend> inner, Tracer& tracer,
                               sw::SweepEvaluator traced)
    : inner_(std::move(inner)), tracer_(tracer), traced_(std::move(traced)) {}

void TracingBackend::execute(const co::SystemConfig& base, const sw::SweepEvaluator& evaluator,
                             const std::vector<sw::ScenarioSpec>& scenarios,
                             std::vector<sw::ScenarioResult>& rows) {
  if (evaluator.name != traced_.name || evaluator.metrics != traced_.metrics) {
    throw std::logic_error("traced evaluator '" + traced_.name + "' cannot stand in for '" +
                           evaluator.name + "'");
  }
  Span span(tracer_, "sweep");
  inner_->execute(base, traced_, scenarios, rows);
  const double wall_s = span.close();
  double row_s = 0.0;
  for (const sw::ScenarioResult& row : rows) {
    row_s += row.elapsed_s;
  }
  tracer_.add("sweep.backend_overhead_s", wall_s - row_s);
}

}  // namespace perfbench
