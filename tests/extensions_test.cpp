// Tests of the extension modules: electrolyte reservoir / state of charge
// and workload traces. Trace replay through the thermal model is covered
// by transient_test.
#include <cmath>

#include <gtest/gtest.h>

#include "chip/power7.h"
#include "chip/workload.h"
#include "electrochem/nernst.h"
#include "electrochem/reservoir.h"
#include "electrochem/vanadium.h"
#include "flowcell/cell_array.h"

namespace ec = brightsi::electrochem;
namespace ch = brightsi::chip;
namespace fc = brightsi::flowcell;

namespace {

ec::ReservoirSpec default_reservoir_spec() {
  ec::ReservoirSpec spec;
  spec.tank_volume_m3 = 1e-3;
  spec.total_vanadium_mol_per_m3 = 2000.0;
  spec.chemistry = ec::power7_array_chemistry();
  return spec;
}

// --------------------------------------------------------------- reservoir
TEST(Reservoir, CapacityArithmetic) {
  const auto spec = default_reservoir_spec();
  // F * 2000 mol/m3 * 1e-3 m3 = 192,970 C = 53.6 Ah.
  EXPECT_NEAR(spec.capacity_coulomb(), 96485.0 * 2.0, 1.0);
  EXPECT_NEAR(spec.capacity_ah(), 53.6, 0.1);
}

TEST(Reservoir, ChemistryTracksSoc) {
  const ec::ElectrolyteReservoir reservoir(default_reservoir_spec(), 0.75);
  const auto chem = reservoir.chemistry_at_soc();
  EXPECT_NEAR(chem.anode.reduced_inlet_concentration_mol_per_m3, 1500.0, 1e-6);
  EXPECT_NEAR(chem.anode.oxidized_inlet_concentration_mol_per_m3, 500.0, 1e-6);
  EXPECT_NEAR(chem.cathode.oxidized_inlet_concentration_mol_per_m3, 1500.0, 1e-6);
  EXPECT_NEAR(chem.cathode.reduced_inlet_concentration_mol_per_m3, 500.0, 1e-6);
}

TEST(Reservoir, VanadiumConservedAcrossSoc) {
  const ec::ElectrolyteReservoir reservoir(default_reservoir_spec(), 0.5);
  for (const double soc : {0.05, 0.3, 0.7, 0.95}) {
    const auto chem = reservoir.chemistry_at(soc);
    EXPECT_NEAR(chem.anode.reduced_inlet_concentration_mol_per_m3 +
                    chem.anode.oxidized_inlet_concentration_mol_per_m3,
                2000.0, 1.0);
  }
}

TEST(Reservoir, OcvFallsWithDischarge) {
  const ec::ElectrolyteReservoir reservoir(default_reservoir_spec(), 0.9);
  const double ocv_high = ec::open_circuit_voltage(reservoir.chemistry_at(0.9), 300.0);
  const double ocv_mid = ec::open_circuit_voltage(reservoir.chemistry_at(0.5), 300.0);
  const double ocv_low = ec::open_circuit_voltage(reservoir.chemistry_at(0.1), 300.0);
  EXPECT_GT(ocv_high, ocv_mid);
  EXPECT_GT(ocv_mid, ocv_low);
  // SOC 0.5 has equal concentrations on both couples: OCV = E0_cell.
  EXPECT_NEAR(ocv_mid, reservoir.spec().chemistry.standard_cell_voltage(), 1e-6);
}

TEST(Reservoir, DischargeBookkeeping) {
  ec::ElectrolyteReservoir reservoir(default_reservoir_spec(), 0.9);
  const double cap = reservoir.spec().capacity_coulomb();
  // Draw 10 % of capacity.
  reservoir.discharge(cap * 0.1 / 100.0, 100.0);
  EXPECT_NEAR(reservoir.state_of_charge(), 0.8, 1e-9);
  // Charging reverses it.
  reservoir.discharge(-cap * 0.05 / 50.0, 50.0);
  EXPECT_NEAR(reservoir.state_of_charge(), 0.85, 1e-9);
}

TEST(Reservoir, DischargeClampsAtEmpty) {
  ec::ElectrolyteReservoir reservoir(default_reservoir_spec(), 0.1);
  reservoir.discharge(1e9, 1e6);
  EXPECT_DOUBLE_EQ(reservoir.state_of_charge(), 0.0);
}

TEST(Reservoir, RuntimeMatchesCapacity) {
  const ec::ElectrolyteReservoir reservoir(default_reservoir_spec(), 0.95);
  const double runtime = reservoir.runtime_to_floor_s(5.8, 0.1);
  EXPECT_NEAR(runtime, (0.95 - 0.1) * reservoir.spec().capacity_coulomb() / 5.8, 1e-6);
  EXPECT_THROW((void)reservoir.runtime_to_floor_s(0.0, 0.1), std::invalid_argument);
  EXPECT_THROW((void)reservoir.runtime_to_floor_s(1.0, 0.99), std::invalid_argument);
}

TEST(Reservoir, CrossoverShortensRuntime) {
  const ec::ElectrolyteReservoir reservoir(default_reservoir_spec(), 0.95);
  EXPECT_LT(reservoir.runtime_to_floor_s(5.8, 0.1, 1.0),
            reservoir.runtime_to_floor_s(5.8, 0.1, 0.0));
}

TEST(Reservoir, IdealEnergyBounds) {
  const ec::ElectrolyteReservoir reservoir(default_reservoir_spec(), 0.95);
  const double energy = reservoir.ideal_energy_to_floor_j(0.05);
  const double charge = 0.9 * reservoir.spec().capacity_coulomb();
  // Energy between charge * min OCV and charge * max OCV over the window.
  const double ocv_max = ec::open_circuit_voltage(reservoir.chemistry_at(0.95), 300.0);
  const double ocv_min = ec::open_circuit_voltage(reservoir.chemistry_at(0.05), 300.0);
  EXPECT_GT(energy, charge * ocv_min);
  EXPECT_LT(energy, charge * ocv_max);
}

TEST(Reservoir, ArrayOutputDegradesGracefullyWithSoc) {
  // The supply sags smoothly with the Nernst OCV as the tanks discharge
  // (~25 % between SOC 0.8 and 0.4) instead of collapsing — the flow-cell
  // version of the paper's "steady energy supply" claim. Near-empty tanks
  // finally do collapse.
  const ec::ElectrolyteReservoir reservoir(default_reservoir_spec(), 0.95);
  const fc::FlowCellArray high(fc::power7_array_spec(), reservoir.chemistry_at(0.8));
  const fc::FlowCellArray mid(fc::power7_array_spec(), reservoir.chemistry_at(0.4));
  const double i_high = high.current_at_voltage(1.0);
  const double i_mid = mid.current_at_voltage(1.0);
  EXPECT_GT(i_mid / i_high, 0.65);
  EXPECT_LT(i_mid / i_high, 1.0);
  const fc::FlowCellArray empty(fc::power7_array_spec(), reservoir.chemistry_at(0.01));
  EXPECT_LT(empty.current_at_voltage(1.0), 0.5 * i_mid);
}

TEST(Reservoir, RejectsBadConstruction) {
  EXPECT_THROW(ec::ElectrolyteReservoir(default_reservoir_spec(), 0.0),
               std::invalid_argument);
  auto spec = default_reservoir_spec();
  spec.tank_volume_m3 = 0.0;
  EXPECT_THROW(ec::ElectrolyteReservoir(spec, 0.5), std::invalid_argument);
}

// ---------------------------------------------------------------- workload
TEST(Workload, TraceDurationAndLookup) {
  const auto trace = ch::burst_trace(2);
  EXPECT_NEAR(trace.total_duration_s(), 2.0 * (0.6 + 1.2 + 1.2), 1e-12);
  EXPECT_EQ(trace.phase_at(0.1).name, "idle");
  EXPECT_EQ(trace.phase_at(0.7).name, "burst");
  EXPECT_EQ(trace.phase_at(2.0).name, "sustain");
  // Second repeat cycles back.
  EXPECT_EQ(trace.phase_at(3.1).name, "idle");
  EXPECT_THROW((void)trace.phase_at(100.0), std::out_of_range);
}

TEST(Workload, ApplyPhaseScalesDensities) {
  ch::WorkloadPhase phase{"half", 1.0, 0.5, 1.0, 1.0, 1.0};
  const auto fp = ch::apply_phase(ch::Power7PowerSpec{}, phase);
  const auto nominal = ch::make_power7_floorplan();
  EXPECT_NEAR(fp.power_of_type(ch::BlockType::kCore),
              0.5 * nominal.power_of_type(ch::BlockType::kCore), 1e-9);
  EXPECT_NEAR(fp.cache_power(), nominal.cache_power(), 1e-9);
}

TEST(Workload, MemoryBoundPresetShape) {
  const auto trace = ch::memory_bound_trace();
  const auto& phase = trace.phases().front();
  EXPECT_LT(phase.core_activity, 0.5);
  EXPECT_DOUBLE_EQ(phase.cache_activity, 1.0);
}

TEST(Workload, RejectsBadPhases) {
  EXPECT_THROW(ch::WorkloadTrace(std::vector<ch::WorkloadPhase>{}), std::invalid_argument);
  ch::WorkloadPhase bad{"", 1.0, 1.0, 1.0, 1.0, 1.0};
  EXPECT_THROW(ch::WorkloadTrace({bad}), std::invalid_argument);
  ch::WorkloadPhase negative{"x", 1.0, -0.1, 1.0, 1.0, 1.0};
  EXPECT_THROW(ch::WorkloadTrace({negative}), std::invalid_argument);
}

}  // namespace
