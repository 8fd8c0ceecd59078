#include "flowcell/cell_array.h"


#include "electrochem/nernst.h"
#include "numerics/contracts.h"

namespace brightsi::flowcell {

void ArraySpec::validate() const {
  ensure(channel_count > 0, "array channel count must be positive");
  geometry.validate();
  ensure_positive(total_flow_m3_per_s, "array total flow");
  ensure_positive(inlet_temperature_k, "array inlet temperature");
  ensure_non_negative(parasitic_current_density_a_per_m2, "array parasitic current density");
}

ArraySpec power7_array_spec() {
  ArraySpec spec;
  spec.channel_count = 88;                    // Table II
  spec.geometry = power7_channel_geometry();  // 22 mm x 200 um x 400 um
  spec.total_flow_m3_per_s = 676e-6 / 60.0;   // 676 ml/min
  spec.inlet_temperature_k = 300.0;           // 27 C inlet
  spec.validate();
  return spec;
}

FlowCellArray::FlowCellArray(ArraySpec spec, electrochem::FlowCellChemistry chemistry,
                             FvmSettings settings)
    : spec_(spec), channel_model_(make_channel_model(spec.geometry, chemistry, settings)) {
  spec_.validate();
}

ChannelOperatingConditions FlowCellArray::make_conditions(
    const std::vector<double>& temperature_profile) const {
  ChannelOperatingConditions conditions;
  conditions.volumetric_flow_m3_per_s = spec_.per_channel_flow();
  conditions.inlet_temperature_k = spec_.inlet_temperature_k;
  conditions.axial_temperature_k = temperature_profile;
  conditions.parasitic_current_density_a_per_m2 = spec_.parasitic_current_density_a_per_m2;
  return conditions;
}

double FlowCellArray::current_at_voltage(double cell_voltage_v,
                                         const std::vector<double>& shared_profile) const {
  const ChannelSolution sol =
      channel_model_->solve_at_voltage(cell_voltage_v, make_conditions(shared_profile));
  return sol.current_a * spec_.channel_count;
}

double FlowCellArray::open_circuit_voltage() const {
  return channel_model_->open_circuit_voltage(make_conditions({}));
}

FlowCellArray::Hydraulics FlowCellArray::hydraulics_at_spec_flow() const {
  Hydraulics h;
  const hydraulics::RectangularDuct duct = spec_.geometry.duct();
  const double per_channel = spec_.per_channel_flow();
  h.mean_velocity_m_per_s = duct.mean_velocity(per_channel);
  const double mu = channel_model_->chemistry().electrolyte.dynamic_viscosity_pa_s.at(
      spec_.inlet_temperature_k);
  const double rho =
      channel_model_->chemistry().electrolyte.density_kg_per_m3.at(spec_.inlet_temperature_k);
  h.pressure_drop_pa = duct.pressure_drop_pa(mu, h.mean_velocity_m_per_s);
  h.pressure_gradient_pa_per_m = duct.pressure_gradient_pa_per_m(mu, h.mean_velocity_m_per_s);
  h.reynolds = duct.reynolds(rho, mu, h.mean_velocity_m_per_s);
  return h;
}

}  // namespace brightsi::flowcell
