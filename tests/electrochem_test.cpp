// Tests of the electrochemistry module: Nernst equilibria, Butler-Volmer
// kinetics (and its asymptotics/inversion), temperature laws and the
// vanadium parameter sets of paper Tables I and II.
#include <cmath>

#include <gtest/gtest.h>

#include "electrochem/butler_volmer.h"
#include "electrochem/constants.h"
#include "electrochem/nernst.h"
#include "electrochem/species.h"
#include "electrochem/temperature_laws.h"
#include "electrochem/vanadium.h"

namespace ec = brightsi::electrochem;

namespace {

constexpr double kT = 300.0;

ec::HalfCellSpec test_half_cell(double k0 = 1e-5, double alpha = 0.5) {
  ec::HalfCellSpec h;
  h.couple = {"test", 0.5, 1, alpha};
  h.oxidized_inlet_concentration_mol_per_m3 = 100.0;
  h.reduced_inlet_concentration_mol_per_m3 = 900.0;
  h.kinetic_rate_m_per_s = {k0, 0.0, kT};
  h.diffusivity_m2_per_s = {1e-10, 0.0, kT};
  return h;
}

// ---------------------------------------------------------------- constants
TEST(Constants, ThermalVoltageAt25C) {
  EXPECT_NEAR(ec::constants::rt_over_f(298.15), 0.025693, 1e-5);
}

TEST(Constants, KelvinToCelsius) {
  EXPECT_DOUBLE_EQ(ec::constants::kelvin_to_celsius(300.15), 27.0);
}

// ------------------------------------------------------------------- Nernst
TEST(Nernst, StandardPotentialAtEqualConcentrations) {
  const ec::RedoxCouple couple{"x", 0.7, 1, 0.5};
  EXPECT_DOUBLE_EQ(ec::nernst_potential(couple, 50.0, 50.0, kT), 0.7);
}

TEST(Nernst, ShiftsWithConcentrationRatio) {
  const ec::RedoxCouple couple{"x", 0.0, 1, 0.5};
  const double e10 = ec::nernst_potential(couple, 100.0, 10.0, kT);
  EXPECT_NEAR(e10, ec::constants::rt_over_f(kT) * std::log(10.0), 1e-12);
}

TEST(Nernst, MultiElectronDividesSlope) {
  const ec::RedoxCouple one{"x", 0.0, 1, 0.5};
  const ec::RedoxCouple two{"y", 0.0, 2, 0.5};
  EXPECT_NEAR(ec::nernst_potential(two, 100.0, 10.0, kT),
              ec::nernst_potential(one, 100.0, 10.0, kT) / 2.0, 1e-12);
}

TEST(Nernst, PaperTableIValidationPotentials) {
  // Table I anolyte: 80 V3+ / 920 V2+ at E0 = -0.255: E = -0.255 + RT/F ln(80/920).
  const ec::RedoxCouple anode{"V2/V3", -0.255, 1, 0.5};
  const double e_neg = ec::nernst_potential(anode, 80.0, 920.0, kT);
  EXPECT_NEAR(e_neg, -0.255 + 0.02585 * std::log(80.0 / 920.0), 1e-3);
  EXPECT_NEAR(e_neg, -0.318, 2e-3);

  const ec::RedoxCouple cathode{"V4/V5", 0.991, 1, 0.5};
  const double e_pos = ec::nernst_potential(cathode, 992.0, 8.0, kT);
  EXPECT_NEAR(e_pos, 1.116, 2e-3);
}

TEST(Nernst, ZeroConcentrationIsFloored) {
  const ec::RedoxCouple couple{"x", 0.0, 1, 0.5};
  EXPECT_TRUE(std::isfinite(ec::nernst_potential(couple, 0.0, 100.0, kT)));
  EXPECT_TRUE(std::isfinite(ec::nernst_potential(couple, 100.0, 0.0, kT)));
}

TEST(Nernst, ValidationChemistryOcv) {
  const auto chem = ec::kjeang2007_validation_chemistry();
  EXPECT_NEAR(chem.standard_cell_voltage(), 1.246, 1e-3);
  EXPECT_NEAR(ec::open_circuit_voltage(chem, kT), 1.434, 2e-3);
}

TEST(Nernst, ArrayChemistryOcv) {
  const auto chem = ec::power7_array_chemistry();
  EXPECT_NEAR(chem.standard_cell_voltage(), 1.255, 1e-3);
  // 2000:1 concentration ratios push the OCV well above the standard value.
  EXPECT_NEAR(ec::open_circuit_voltage(chem, kT), 1.648, 2e-3);
}

// ---------------------------------------------------------- exchange current
TEST(ExchangeCurrent, MatchesDefinition) {
  const auto h = test_half_cell(2e-5);
  const double i0 = ec::exchange_current_density(h, 80.0, 920.0, kT);
  const double expected = ec::constants::faraday_c_per_mol * 2e-5 *
                          std::pow(80.0, 0.5) * std::pow(920.0, 0.5);
  EXPECT_NEAR(i0, expected, 1e-9);
}

TEST(ExchangeCurrent, ZeroWhenSpeciesAbsent) {
  const auto h = test_half_cell();
  EXPECT_DOUBLE_EQ(ec::exchange_current_density(h, 0.0, 900.0, kT), 0.0);
}

TEST(ExchangeCurrent, AsymmetricAlphaWeighting) {
  auto h = test_half_cell(1e-5, 0.3);
  const double i0 = ec::exchange_current_density(h, 100.0, 400.0, kT);
  const double expected = ec::constants::faraday_c_per_mol * 1e-5 *
                          std::pow(100.0, 0.3) * std::pow(400.0, 0.7);
  EXPECT_NEAR(i0, expected, 1e-9);
}

// -------------------------------------------------------------Butler-Volmer
TEST(ButlerVolmer, ZeroCurrentAtZeroOverpotential) {
  ec::ButlerVolmerState s;
  s.exchange_current_density_a_per_m2 = 100.0;
  s.temperature_k = kT;
  EXPECT_DOUBLE_EQ(ec::butler_volmer_current(s, 0.0), 0.0);
}

TEST(ButlerVolmer, LinearRegimeSlope) {
  // For small eta: i ~ i0 * F eta / RT (alpha-sum = 1 for one electron).
  ec::ButlerVolmerState s;
  s.exchange_current_density_a_per_m2 = 50.0;
  s.temperature_k = kT;
  const double eta = 1e-4;
  const double i = ec::butler_volmer_current(s, eta);
  EXPECT_NEAR(i, 50.0 * ec::constants::f_over_rt(kT) * eta, 1e-3);
}

TEST(ButlerVolmer, TafelAsymptote) {
  // At large anodic eta the cathodic branch vanishes:
  // i -> i0 exp(alpha f eta).
  ec::ButlerVolmerState s;
  s.exchange_current_density_a_per_m2 = 10.0;
  s.temperature_k = kT;
  const double eta = 0.3;
  const double i = ec::butler_volmer_current(s, eta);
  const double tafel = 10.0 * std::exp(0.5 * ec::constants::f_over_rt(kT) * eta);
  EXPECT_NEAR(i / tafel, 1.0, 1e-2);
}

TEST(ButlerVolmer, AntisymmetricForSymmetricAlpha) {
  ec::ButlerVolmerState s;
  s.exchange_current_density_a_per_m2 = 42.0;
  s.temperature_k = kT;
  EXPECT_NEAR(ec::butler_volmer_current(s, 0.1), -ec::butler_volmer_current(s, -0.1), 1e-9);
}

TEST(ButlerVolmer, SurfaceRatiosScaleBranches) {
  ec::ButlerVolmerState s;
  s.exchange_current_density_a_per_m2 = 10.0;
  s.temperature_k = kT;
  s.reduced_surface_ratio = 0.5;  // halve the anodic branch
  s.oxidized_surface_ratio = 1.0;
  const double eta = 0.2;
  const double full = 10.0 * std::exp(0.5 * ec::constants::f_over_rt(kT) * eta);
  EXPECT_NEAR(ec::butler_volmer_current(s, eta) / full, 0.5, 1e-2);
}

TEST(ButlerVolmer, SlopeMatchesFiniteDifference) {
  ec::ButlerVolmerState s;
  s.exchange_current_density_a_per_m2 = 25.0;
  s.temperature_k = kT;
  s.reduced_surface_ratio = 0.8;
  s.oxidized_surface_ratio = 0.9;
  const double eta = 0.05;
  const double h = 1e-7;
  const double fd = (ec::butler_volmer_current(s, eta + h) -
                     ec::butler_volmer_current(s, eta - h)) /
                    (2.0 * h);
  EXPECT_NEAR(ec::butler_volmer_slope(s, eta), fd, std::abs(fd) * 1e-6);
}

class BvInversion : public ::testing::TestWithParam<double> {};

TEST_P(BvInversion, OverpotentialRoundTrip) {
  ec::ButlerVolmerState s;
  s.exchange_current_density_a_per_m2 = 30.0;
  s.temperature_k = kT;
  s.reduced_surface_ratio = 0.7;
  s.oxidized_surface_ratio = 1.2;
  const double i_target = GetParam();
  const double eta = ec::overpotential_for_current(s, i_target);
  EXPECT_NEAR(ec::butler_volmer_current(s, eta), i_target,
              1e-8 * std::max(1.0, std::abs(i_target)));
}

INSTANTIATE_TEST_SUITE_P(Currents, BvInversion,
                         ::testing::Values(-500.0, -30.0, -0.001, 0.001, 5.0, 300.0, 5000.0));

TEST(BvInversionAsymmetric, RoundTripWithNonHalfAlpha) {
  ec::ButlerVolmerState s;
  s.exchange_current_density_a_per_m2 = 12.0;
  s.anodic_transfer_coefficient = 0.35;
  s.temperature_k = kT;
  for (const double i_target : {-80.0, -1.0, 2.0, 90.0}) {
    const double eta = ec::overpotential_for_current(s, i_target);
    EXPECT_NEAR(ec::butler_volmer_current(s, eta), i_target, 1e-6 * std::abs(i_target));
  }
}

TEST(BvInversion, ThrowsOnImpossibleDirection) {
  ec::ButlerVolmerState s;
  s.exchange_current_density_a_per_m2 = 10.0;
  s.temperature_k = kT;
  s.reduced_surface_ratio = 0.0;  // no reductant at the surface
  EXPECT_THROW((void)ec::overpotential_for_current(s, 10.0), std::invalid_argument);
}

// ---------------------------------------------------------- temperature laws
TEST(TemperatureLaws, ArrheniusIdentityAtReference) {
  const ec::ArrheniusLaw law{1e-5, 30000.0, 300.0};
  EXPECT_DOUBLE_EQ(law.at(300.0), 1e-5);
}

TEST(TemperatureLaws, ArrheniusIncreasesWithT) {
  const ec::ArrheniusLaw law{1.0, 26000.0, 300.0};
  EXPECT_GT(law.at(310.0), 1.0);
  // dln/dT = Ea / (R T^2) ~ 3.5 %/K at 300 K for 26 kJ/mol.
  EXPECT_NEAR(law.at(301.0) / law.at(300.0) - 1.0, 26000.0 / (8.314 * 300.0 * 300.0), 1e-3);
}

TEST(TemperatureLaws, ViscosityDecreasesWithT) {
  const ec::ViscosityLaw law{2.53e-3, 16000.0, 300.0};
  EXPECT_LT(law.at(310.0), 2.53e-3);
  EXPECT_DOUBLE_EQ(law.at(300.0), 2.53e-3);
}

TEST(TemperatureLaws, LinearLawSlope) {
  const ec::LinearLaw law{60.0, 0.016, 300.0};
  EXPECT_NEAR(law.at(310.0), 60.0 * 1.16, 1e-9);
  EXPECT_DOUBLE_EQ(law.at(300.0), 60.0);
}

TEST(TemperatureLaws, RejectNonPositiveTemperature) {
  const ec::ArrheniusLaw law{1.0, 1000.0, 300.0};
  EXPECT_THROW((void)law.at(0.0), std::invalid_argument);
  EXPECT_THROW((void)law.at(-5.0), std::invalid_argument);
}

// ------------------------------------------------------------- presets
TEST(VanadiumPresets, TableIParameters) {
  const auto chem = ec::kjeang2007_validation_chemistry();
  EXPECT_DOUBLE_EQ(chem.anode.couple.standard_potential_v, -0.255);
  EXPECT_DOUBLE_EQ(chem.cathode.couple.standard_potential_v, 0.991);
  EXPECT_DOUBLE_EQ(chem.anode.oxidized_inlet_concentration_mol_per_m3, 80.0);
  EXPECT_DOUBLE_EQ(chem.anode.reduced_inlet_concentration_mol_per_m3, 920.0);
  EXPECT_DOUBLE_EQ(chem.cathode.oxidized_inlet_concentration_mol_per_m3, 992.0);
  EXPECT_DOUBLE_EQ(chem.cathode.reduced_inlet_concentration_mol_per_m3, 8.0);
  EXPECT_DOUBLE_EQ(chem.anode.diffusivity_m2_per_s.reference_value, 1.7e-10);
  EXPECT_DOUBLE_EQ(chem.cathode.diffusivity_m2_per_s.reference_value, 1.3e-10);
  EXPECT_DOUBLE_EQ(chem.anode.kinetic_rate_m_per_s.reference_value, 2.0e-5);
  EXPECT_DOUBLE_EQ(chem.cathode.kinetic_rate_m_per_s.reference_value, 1.0e-5);
  EXPECT_DOUBLE_EQ(chem.electrolyte.density_kg_per_m3.reference_value, 1260.0);
  EXPECT_DOUBLE_EQ(chem.electrolyte.dynamic_viscosity_pa_s.reference_value_pa_s, 2.53e-3);
}

TEST(VanadiumPresets, TableIIParameters) {
  const auto chem = ec::power7_array_chemistry();
  EXPECT_DOUBLE_EQ(chem.cathode.couple.standard_potential_v, 1.0);
  EXPECT_DOUBLE_EQ(chem.anode.reduced_inlet_concentration_mol_per_m3, 2000.0);
  EXPECT_DOUBLE_EQ(chem.cathode.oxidized_inlet_concentration_mol_per_m3, 2000.0);
  EXPECT_DOUBLE_EQ(chem.anode.diffusivity_m2_per_s.reference_value, 4.13e-10);
  EXPECT_DOUBLE_EQ(chem.cathode.diffusivity_m2_per_s.reference_value, 1.26e-10);
  EXPECT_DOUBLE_EQ(chem.anode.kinetic_rate_m_per_s.reference_value, 5.33e-5);
  EXPECT_DOUBLE_EQ(chem.cathode.kinetic_rate_m_per_s.reference_value, 4.67e-5);
  EXPECT_DOUBLE_EQ(chem.electrolyte.thermal_conductivity_w_per_m_k, 0.67);
  EXPECT_DOUBLE_EQ(chem.electrolyte.volumetric_heat_capacity_j_per_m3_k, 4.187e6);
}

TEST(VanadiumPresets, ValidationPassesForBoth) {
  EXPECT_NO_THROW(ec::kjeang2007_validation_chemistry().validate());
  EXPECT_NO_THROW(ec::power7_array_chemistry().validate());
}

TEST(SpeciesValidation, RejectsBadTransferCoefficient) {
  auto h = test_half_cell();
  h.couple.anodic_transfer_coefficient = 1.5;
  EXPECT_THROW(h.validate(), std::invalid_argument);
}

TEST(SpeciesValidation, RejectsEmptyInlet) {
  auto h = test_half_cell();
  h.oxidized_inlet_concentration_mol_per_m3 = 0.0;
  h.reduced_inlet_concentration_mol_per_m3 = 0.0;
  EXPECT_THROW(h.validate(), std::invalid_argument);
}

TEST(SpeciesValidation, RejectsInvertedCell) {
  auto chem = ec::power7_array_chemistry();
  std::swap(chem.anode, chem.cathode);
  EXPECT_THROW(chem.validate(), std::invalid_argument);
}

}  // namespace
