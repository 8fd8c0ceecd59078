#include "core/system_config.h"

#include "electrochem/vanadium.h"
#include "numerics/contracts.h"

namespace brightsi::core {

void SystemConfig::validate() const {
  array_spec.validate();
  chemistry.validate();
  fvm.validate();
  stack.validate();
  ensure(stack.source_layer_count() == 1 + static_cast<int>(upper_die_power.size()),
         "stack has " + std::to_string(stack.source_layer_count()) +
             " heat-source layers but the config describes " +
             std::to_string(1 + upper_die_power.size()) +
             " dies (primary + upper_die_power)");
  grid_spec.validate();
  vrm_spec.validate();
  ensure(pump_efficiency > 0.0 && pump_efficiency <= 1.0, "pump efficiency in (0, 1]");
  ensure(channel_groups > 0, "channel_groups must be positive");
  ensure(array_spec.channel_count % channel_groups == 0,
         "channel count must divide evenly into groups");
  ensure(max_cosim_iterations >= 1, "max_cosim_iterations");
  ensure_positive(temperature_tolerance_k, "temperature tolerance");
}

thermal::OperatingPoint SystemConfig::thermal_operating_point() const {
  thermal::OperatingPoint op;
  op.total_flow_m3_per_s = array_spec.total_flow_m3_per_s;
  op.inlet_temperature_k = array_spec.inlet_temperature_k;
  op.coolant.thermal_conductivity_w_per_m_k =
      chemistry.electrolyte.thermal_conductivity_w_per_m_k;
  op.coolant.volumetric_heat_capacity_j_per_m3_k =
      chemistry.electrolyte.volumetric_heat_capacity_j_per_m3_k;
  op.coolant.density_kg_per_m3 =
      chemistry.electrolyte.density_kg_per_m3.at(array_spec.inlet_temperature_k);
  op.coolant.dynamic_viscosity_pa_s =
      chemistry.electrolyte.dynamic_viscosity_pa_s.at(array_spec.inlet_temperature_k);
  return op;
}

thermal::OperatingPoint SystemConfig::loop_operating_point(
    double flow_m3_per_s, double inlet_temperature_k,
    const thermal::CoolantPropertyLaws& laws) const {
  thermal::OperatingPoint op = thermal_operating_point();
  op.total_flow_m3_per_s = flow_m3_per_s;
  op.inlet_temperature_k = inlet_temperature_k;
  op.coolant = laws.at(op.coolant, inlet_temperature_k);
  return op;
}

std::shared_ptr<const thermal::ThermalModel> build_thermal_model(const SystemConfig& config) {
  return std::make_shared<const thermal::ThermalModel>(
      config.stack, chip::kPower7DieWidthM, chip::kPower7DieHeightM, config.thermal_grid);
}

bool thermal_model_matches(const thermal::ThermalModel& model, const SystemConfig& config) {
  return model.stack() == config.stack && model.die_width_m() == chip::kPower7DieWidthM &&
         model.die_height_m() == chip::kPower7DieHeightM &&
         model.settings() == config.thermal_grid;
}

SystemConfig power7_system_config() {
  SystemConfig config;
  config.power_spec = chip::Power7PowerSpec{};
  config.array_spec = flowcell::power7_array_spec();
  config.chemistry = electrochem::power7_array_chemistry();
  config.stack = thermal::power7_microchannel_stack();
  config.grid_spec = pdn::PowerGridSpec{};
  config.vrm_spec = pdn::VrmSpec{};
  config.validate();
  return config;
}

SystemConfig two_die_system_config() {
  SystemConfig config = power7_system_config();
  config.stack = thermal::two_die_stack();
  config.upper_die_power = {chip::memory_die_power_spec()};
  config.validate();
  return config;
}

}  // namespace brightsi::core
