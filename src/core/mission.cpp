#include "core/mission.h"

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "core/binfile.h"
#include "core/bus_solve.h"
#include "electrochem/constants.h"
#include "flowcell/cell_array.h"
#include "numerics/contracts.h"
#include "pdn/vrm.h"
#include "thermal/transient.h"

namespace brightsi::core {

namespace ec = brightsi::electrochem;
namespace fc = brightsi::flowcell;
namespace th = brightsi::thermal;

void MissionConfig::validate() const {
  system.validate();
  reservoir.validate();
  ensure(initial_soc > 0.0 && initial_soc < 1.0, "initial SOC in (0, 1)");
  ensure_positive(dt_s, "mission step");
  ensure(sample_stride >= 1, "mission sample stride must be >= 1");
  ensure(workload.total_duration_s() > 0.0, "mission needs a workload");
  ensure(dt_s <= workload.total_duration_s(),
         "mission step exceeds the workload duration (the mission would record nothing)");
}

namespace {

/// SOC resolution for rebuilding the electrochemical model: the array is
/// re-instantiated when the SOC moved by more than this.
constexpr double kSocRebuildThreshold = 0.02;

/// Operating point of the array against a constant-power rail demand, with
/// a simple 3-point axial temperature profile. Returns {V, I, ok}.
struct BusPoint {
  double voltage_v = 0.0;
  double current_a = 0.0;
  bool ok = false;
};

BusPoint solve_bus(const fc::FlowCellArray& array, const pdn::VrmSpec& vrm,
                   double rail_power_w, double inlet_k, double outlet_k) {
  const std::vector<double> profile = {inlet_k, (inlet_k + outlet_k) / 2.0, outlet_k};
  const double input_power = rail_power_w / vrm.efficiency;
  const double ocv = array.open_circuit_voltage();

  BusPoint point;
  const double v_hi = ocv - 1e-3;
  if (v_hi <= 0.3) {
    return point;  // reservoir effectively dead
  }
  const BusSolution bus = solve_constant_power_bus(
      [&](double v) { return array.current_at_voltage(v, profile); }, v_hi, 0.3, input_power,
      1e-3 * input_power);
  if (!bus.found) {
    return point;  // demand exceeds capability
  }
  point.voltage_v = bus.voltage_v;
  point.current_a = bus.current_a;
  point.ok = point.voltage_v >= vrm.min_input_voltage_v &&
             point.voltage_v <= vrm.max_input_voltage_v;
  return point;
}

}  // namespace

MissionResult run_mission(const MissionConfig& config) {
  return run_mission(config, nullptr, nullptr);
}

MissionResult run_mission(const MissionConfig& config,
                          std::shared_ptr<const thermal::ThermalModel> thermal_model,
                          const numerics::Grid3<double>* initial_thermal_state,
                          MissionThermalTrajectory* record,
                          const MissionThermalTrajectory* replay) {
  config.validate();
  ensure(record == nullptr || replay == nullptr,
         "run_mission: record and replay are mutually exclusive");
  const SystemConfig& sys = config.system;
  const th::OperatingPoint op = sys.thermal_operating_point();

  // Reservoir seeded with the system chemistry as the template.
  ec::ReservoirSpec tank_spec = config.reservoir;
  tank_spec.chemistry = sys.chemistry;
  ec::ElectrolyteReservoir reservoir(tank_spec, config.initial_soc);

  // The electrochemistry sees only the bottom channel layer's share of the
  // pump total when interlayer cooling splits the flow (bitwise the
  // configured spec for single-layer stacks). On replay the recorded split
  // is used, so no thermal model is needed at all.
  fc::ArraySpec electro_spec = sys.array_spec;
  double electro_flow_override = replay != nullptr ? replay->electro_flow_m3_per_s : 0.0;

  MissionResult result;

  // The electrochemical half of one mission step — shared verbatim between
  // the live engine callback and the trajectory replay loop, which is what
  // makes replayed results bit-identical to a full run.
  std::unique_ptr<fc::FlowCellArray> array;
  double array_soc = reservoir.state_of_charge();
  auto process_step = [&](const MissionThermalStep& step) {
    // Refresh the electrochemical model when the tanks drifted enough.
    if (std::abs(reservoir.state_of_charge() - array_soc) > kSocRebuildThreshold) {
      array_soc = reservoir.state_of_charge();
      array = std::make_unique<fc::FlowCellArray>(electro_spec,
                                                  reservoir.chemistry_at(array_soc), sys.fvm);
    }

    const BusPoint bus = solve_bus(*array, sys.vrm_spec, step.rail_power_w,
                                   op.inlet_temperature_k, step.mean_outlet_k);
    if (bus.ok) {
      reservoir.discharge(bus.current_a, step.dt_s);
      result.energy_delivered_j += bus.voltage_v * bus.current_a * step.dt_s;
    } else {
      result.supply_always_ok = false;
    }

    const double peak_c = ec::constants::kelvin_to_celsius(step.peak_temperature_k);
    result.max_peak_temperature_c = std::max(result.max_peak_temperature_c, peak_c);
    result.final_soc = reservoir.state_of_charge();

    if (!step.sampled) {
      return;
    }
    MissionSample sample;
    sample.time_s = step.t_end_s;
    sample.dt_s = step.dt_s;
    sample.phase = step.phase;
    sample.peak_temperature_c = peak_c;
    sample.mean_outlet_c = ec::constants::kelvin_to_celsius(step.mean_outlet_k);
    sample.state_of_charge = reservoir.state_of_charge();
    sample.bus_voltage_v = bus.voltage_v;
    sample.bus_current_a = bus.current_a;
    sample.supply_ok = bus.ok;
    result.samples.push_back(std::move(sample));
  };

  if (replay != nullptr) {
    if (electro_flow_override > 0.0) {
      electro_spec.total_flow_m3_per_s = electro_flow_override;
    }
    array = std::make_unique<fc::FlowCellArray>(electro_spec, reservoir.chemistry_at_soc(),
                                                sys.fvm);
    result.samples.reserve(replay->steps.size());
    for (const MissionThermalStep& step : replay->steps) {
      process_step(step);
    }
    result.final_state = replay->final_state;
    static_cast<MissionWork&>(result) = replay->work;
    return result;
  }

  // Thermal model shared across the mission (built here unless the caller
  // hands one in, e.g. the sweep's per-worker cache); the transient engine
  // carries one solve context across every step.
  if (thermal_model == nullptr) {
    thermal_model = build_thermal_model(sys);
  } else {
    ensure(thermal_model_matches(*thermal_model, sys),
           "run_mission: shared thermal model does not match the system config");
  }
  if (thermal_model->channel_layer_count() > 1) {
    electro_flow_override = thermal_model->layer_flow_split(op).front();
    electro_spec.total_flow_m3_per_s = electro_flow_override;
  }
  array = std::make_unique<fc::FlowCellArray>(electro_spec, reservoir.chemistry_at_soc(),
                                              sys.fvm);

  th::TransientEngineOptions engine_options;
  engine_options.schedule.dt_s = config.dt_s;
  engine_options.schedule.align_phase_boundaries = config.align_phase_boundaries;
  engine_options.sample_stride = config.sample_stride;
  engine_options.initial_state = initial_thermal_state;
  engine_options.backend = config.transient_backend;
  for (const chip::Power7PowerSpec& upper : sys.upper_die_power) {
    engine_options.upper_die_floorplans.push_back(chip::make_power7_floorplan(upper));
  }
  th::TransientEngine engine(*thermal_model, op, engine_options);

  result.samples.reserve(
      static_cast<std::size_t>(config.workload.total_duration_s() / config.dt_s) /
          static_cast<std::size_t>(config.sample_stride) +
      2);

  // The floorplan hook runs right before each solve; stash the rail demand
  // so the step callback does not rebuild the floorplan.
  double rail_power_w = 0.0;
  auto floorplan_for = [&](const chip::WorkloadPhase& phase, const th::TransientStep&) {
    chip::Floorplan floorplan = chip::apply_phase(sys.power_spec, phase);
    rail_power_w = floorplan.cache_power();
    return floorplan;
  };

  engine.run(config.workload, floorplan_for, [&](const th::TransientEngine::StepView& view) {
    MissionThermalStep step;
    step.t_end_s = view.step.t_end_s;
    step.dt_s = view.step.dt_s();
    step.phase = view.phase.name;
    step.rail_power_w = rail_power_w;
    step.peak_temperature_k = view.solution.peak_temperature_k;
    step.mean_outlet_k = view.mean_outlet_k;
    step.sampled = view.sampled;
    process_step(step);
    if (record != nullptr) {
      record->steps.push_back(std::move(step));
    }
  });

  result.final_state = engine.take_state();
  result.steps = engine.steps_taken();
  const th::ThermalSolveContext::Stats& stats = engine.thermal_stats();
  result.thermal_iterations = stats.iterations;
  result.thermal_assembly_time_s = stats.assembly_time_s;
  result.thermal_setup_time_s = stats.precond_setup_time_s;
  result.thermal_solve_time_s = stats.solve_time_s;
  if (engine.rom() != nullptr) {
    const th::RomStats& rom = engine.rom()->stats();
    result.rom_steps = rom.rom_steps;
    result.rom_fallbacks = rom.full_steps;
    result.rom_basis_size = rom.basis_size;
    result.rom_build_time_s = rom.build_time_s;
    result.rom_max_bound_k = rom.max_accepted_bound_k;
    result.rom_cumulative_bound_k = rom.cumulative_bound_k;
  }
  if (record != nullptr) {
    record->final_state = result.final_state;
    record->electro_flow_m3_per_s = electro_flow_override;
    record->work = result;
  }
  return result;
}

namespace {

constexpr char kCheckpointMagic[] = "BSICKPT1";
constexpr std::uint32_t kCheckpointFormatVersion = 1;

}  // namespace

void save_mission_checkpoint(const std::string& path, const numerics::Grid3<double>& state,
                             double soc) {
  ensure(state.size() > 0, "mission checkpoint needs a non-empty thermal field");
  std::string out = make_binfile_header(kCheckpointMagic, kCheckpointFormatVersion,
                                        /*salt=*/0);
  std::string payload;
  put_u32(payload, static_cast<std::uint32_t>(state.nx()));
  put_u32(payload, static_cast<std::uint32_t>(state.ny()));
  put_u32(payload, static_cast<std::uint32_t>(state.nz()));
  put_f64(payload, soc);
  for (const double value : state.data()) {
    put_f64(payload, value);
  }
  put_record(out, payload);
  write_file_bytes(path, out);
}

MissionCheckpoint load_mission_checkpoint(const std::string& path) {
  const std::string bytes = read_file_bytes(path);
  ByteReader reader(bytes, "mission checkpoint " + path);
  (void)read_binfile_header(reader, kCheckpointMagic, kCheckpointFormatVersion);
  std::string_view payload;
  if (read_record(reader, payload) != RecordStatus::kOk) {
    throw std::runtime_error("mission checkpoint " + path + ": truncated record");
  }
  ByteReader body(payload, "mission checkpoint " + path);
  const std::uint32_t nx = body.u32();
  const std::uint32_t ny = body.u32();
  const std::uint32_t nz = body.u32();
  MissionCheckpoint checkpoint;
  checkpoint.soc = body.f64();
  ensure(nx > 0 && ny > 0 && nz > 0 && static_cast<std::uint64_t>(nx) * ny * nz <= (1u << 28),
         "mission checkpoint " + path + ": implausible grid dimensions");
  checkpoint.state = numerics::Grid3<double>(static_cast<int>(nx), static_cast<int>(ny),
                                             static_cast<int>(nz));
  body.require(checkpoint.state.size() * sizeof(double), "thermal field");
  for (double& value : checkpoint.state.data()) {
    value = body.f64();
  }
  return checkpoint;
}

}  // namespace brightsi::core
