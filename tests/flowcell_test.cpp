// Tests of the flow-cell transport models: wall closure, the co-laminar
// marching FVM (conservation, convergence, limiting behaviour), the film
// model, polarization utilities, the channel array and the Fig. 3
// reference validation (the paper's "within 10 %" claim).
#include <cmath>

#include <gtest/gtest.h>

#include "electrochem/nernst.h"
#include "electrochem/vanadium.h"
#include "flowcell/cell_array.h"
#include "flowcell/channel_model.h"
#include "flowcell/colaminar_fvm.h"
#include "flowcell/film_model.h"
#include "flowcell/polarization.h"
#include "flowcell/reference_data.h"
#include "flowcell/wall_closure.h"

namespace fc = brightsi::flowcell;
namespace ec = brightsi::electrochem;

namespace {

fc::FvmSettings fast_settings() {
  fc::FvmSettings s;
  s.transverse_cells = 60;
  s.axial_steps = 80;
  return s;
}

fc::ChannelOperatingConditions validation_conditions(double ul_per_min) {
  fc::ChannelOperatingConditions c;
  c.volumetric_flow_m3_per_s = ul_per_min * 1e-9 / 60.0;
  c.inlet_temperature_k = 300.0;
  return c;
}

const fc::ColaminarChannelModel& validation_model_fast() {
  static const fc::ColaminarChannelModel model(fc::kjeang2007_geometry(),
                                               ec::kjeang2007_validation_chemistry(),
                                               fast_settings());
  return model;
}

// ------------------------------------------------------------- wall closure
fc::ClosureParameters basic_closure() {
  fc::ClosureParameters p;
  p.temperature_k = 300.0;
  p.anode_exchange_current_a_per_m2 = 500.0;
  p.cathode_exchange_current_a_per_m2 = 100.0;
  p.anode_standard_potential_v = -0.255;
  p.cathode_standard_potential_v = 0.991;
  p.anode_wall_mass_transfer_m_per_s = 1e-4;
  p.cathode_wall_mass_transfer_m_per_s = 1e-4;
  p.area_specific_resistance_ohm_m2 = 5e-5;
  return p;
}

fc::WallConcentrations healthy_wall() { return {920.0, 80.0, 992.0, 8.0}; }

TEST(WallClosure, ZeroCurrentAtLocalOcv) {
  const auto p = basic_closure();
  const auto w = healthy_wall();
  const ec::RedoxCouple an{"", p.anode_standard_potential_v, 1, 0.5};
  const ec::RedoxCouple cat{"", p.cathode_standard_potential_v, 1, 0.5};
  const double ocv = ec::nernst_potential(cat, w.cathode_oxidized, w.cathode_reduced, 300.0) -
                     ec::nernst_potential(an, w.anode_oxidized, w.anode_reduced, 300.0);
  const auto r = fc::solve_wall_current(p, w, ocv);
  EXPECT_NEAR(r.total_current_density, 0.0, 1e-3);
  EXPECT_NEAR(r.local_open_circuit_v, ocv, 1e-9);
}

TEST(WallClosure, CurrentIncreasesAsVoltageDrops) {
  const auto p = basic_closure();
  const auto w = healthy_wall();
  double last = 0.0;
  for (const double v : {1.3, 1.1, 0.9, 0.7}) {
    const auto r = fc::solve_wall_current(p, w, v);
    EXPECT_GT(r.total_current_density, last);
    last = r.total_current_density;
  }
}

TEST(WallClosure, ClampsAtTransportLimit) {
  auto p = basic_closure();
  p.anode_wall_mass_transfer_m_per_s = 1e-6;  // starve the anode
  const auto w = healthy_wall();
  const auto r = fc::solve_wall_current(p, w, 0.1);
  EXPECT_TRUE(r.clamped);
  const double i_lim = 0.999 * 96485.0 * 1e-6 * w.anode_reduced;
  EXPECT_NEAR(r.total_current_density, i_lim, i_lim * 0.01);
}

TEST(WallClosure, MassCapBindsWhenTighterThanTransport) {
  auto p = basic_closure();
  p.anodic_mass_cap_a_per_m2 = 50.0;
  const auto r = fc::solve_wall_current(p, healthy_wall(), 0.1);
  EXPECT_TRUE(r.clamped);
  EXPECT_NEAR(r.total_current_density, 50.0, 1e-9);
}

TEST(WallClosure, NegativeCurrentWhenVoltageAboveOcv) {
  const auto p = basic_closure();
  const auto w = healthy_wall();
  const auto r = fc::solve_wall_current(p, w, 1.6);  // above local OCV ~1.43
  EXPECT_LT(r.total_current_density, 0.0);
}

TEST(WallClosure, ParasiticCurrentReducesExternal) {
  auto p = basic_closure();
  p.parasitic_current_density_a_per_m2 = 25.0;
  const auto w = healthy_wall();
  const auto r = fc::solve_wall_current(p, w, 1.0);
  EXPECT_NEAR(r.total_current_density - r.external_current_density, 25.0, 1e-9);
}

TEST(WallClosure, DepletedStationCarriesNoCurrent) {
  const auto p = basic_closure();
  const fc::WallConcentrations dead{0.0, 0.0, 0.0, 0.0};
  const auto r = fc::solve_wall_current(p, dead, 0.5);
  EXPECT_DOUBLE_EQ(r.total_current_density, 0.0);
}

TEST(WallClosure, OhmicResistanceLowersCurrent) {
  auto lo = basic_closure();
  auto hi = basic_closure();
  hi.area_specific_resistance_ohm_m2 = 20.0 * lo.area_specific_resistance_ohm_m2;
  const auto w = healthy_wall();
  EXPECT_GT(fc::solve_wall_current(lo, w, 0.9).total_current_density,
            fc::solve_wall_current(hi, w, 0.9).total_current_density);
}

// ---------------------------------------------------------------- geometry
TEST(ChannelSpec, PresetsValidate) {
  EXPECT_NO_THROW(fc::kjeang2007_geometry().validate());
  EXPECT_NO_THROW(fc::power7_channel_geometry().validate());
}

TEST(ChannelSpec, Power7ChannelIsFlowThrough) {
  EXPECT_EQ(fc::power7_channel_geometry().electrode_mode, fc::ElectrodeMode::kFlowThrough);
  EXPECT_EQ(fc::kjeang2007_geometry().electrode_mode, fc::ElectrodeMode::kPlanarWall);
}

TEST(ChannelSpec, ProjectedAreaMatchesPaper) {
  const auto g = fc::power7_channel_geometry();
  EXPECT_NEAR(g.projected_electrode_area_m2(), 22e-3 * 400e-6, 1e-12);
  EXPECT_NEAR(g.cross_section_area_m2(), 8e-8, 1e-15);
}

TEST(ChannelSpec, TemperatureProfileInterpolation) {
  fc::ChannelOperatingConditions c;
  c.volumetric_flow_m3_per_s = 1e-9;
  c.inlet_temperature_k = 300.0;
  c.axial_temperature_k = {300.0, 310.0, 320.0};
  EXPECT_DOUBLE_EQ(c.temperature_at(0.0), 300.0);
  EXPECT_DOUBLE_EQ(c.temperature_at(0.5), 310.0);
  EXPECT_DOUBLE_EQ(c.temperature_at(1.0), 320.0);
  EXPECT_DOUBLE_EQ(c.temperature_at(0.25), 305.0);
  c.axial_temperature_k.clear();
  EXPECT_DOUBLE_EQ(c.temperature_at(0.7), 300.0);
}

TEST(ChannelSpec, FvmSettingsValidation) {
  fc::FvmSettings s;
  s.transverse_cells = 4;
  EXPECT_THROW(s.validate(), std::invalid_argument);
}

// --------------------------------------------------------------------- FVM
TEST(ColaminarFvm, RejectsFlowThroughGeometry) {
  EXPECT_THROW(fc::ColaminarChannelModel(fc::power7_channel_geometry(),
                                         ec::power7_array_chemistry()),
               std::invalid_argument);
}

TEST(ColaminarFvm, OcvMatchesNernst) {
  const auto& model = validation_model_fast();
  const auto cond = validation_conditions(60.0);
  EXPECT_NEAR(model.open_circuit_voltage(cond), 1.434, 2e-3);
}

class FvmConservation : public ::testing::TestWithParam<double> {};

TEST_P(FvmConservation, VanadiumIsConservedAtEveryVoltage) {
  // Property: electrode reactions and crossover annihilation preserve
  // total vanadium molar flow.
  const auto& model = validation_model_fast();
  const auto sol = model.solve_at_voltage(GetParam(), validation_conditions(60.0));
  EXPECT_LT(sol.vanadium_balance_error, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Voltages, FvmConservation,
                         ::testing::Values(1.35, 1.2, 1.0, 0.8, 0.5, 0.2));

TEST(ColaminarFvm, PolarizationIsMonotone) {
  const auto& model = validation_model_fast();
  const auto cond = validation_conditions(60.0);
  double last = -1.0;
  for (const double v : {1.35, 1.25, 1.15, 1.05, 0.95, 0.85, 0.75}) {
    const double i = model.solve_at_voltage(v, cond).current_a;
    EXPECT_GT(i, last);
    last = i;
  }
}

TEST(ColaminarFvm, LimitingCurrentOrderedByFlow) {
  const auto& model = validation_model_fast();
  double last = 0.0;
  for (const double flow : {2.5, 10.0, 60.0, 300.0}) {
    const double i = model.solve_at_voltage(0.2, validation_conditions(flow)).current_a;
    EXPECT_GT(i, last);
    last = i;
  }
}

TEST(ColaminarFvm, LimitingCurrentScalesRoughlySqrtFlow) {
  const auto& model = validation_model_fast();
  const double i1 = model.solve_at_voltage(0.2, validation_conditions(10.0)).current_a;
  const double i4 = model.solve_at_voltage(0.2, validation_conditions(40.0)).current_a;
  EXPECT_NEAR(i4 / i1, 2.0, 0.35);  // boundary-layer scaling window
}

TEST(ColaminarFvm, CurrentNearZeroJustBelowOcv) {
  const auto& model = validation_model_fast();
  const auto cond = validation_conditions(60.0);
  const double ocv = model.open_circuit_voltage(cond);
  const auto sol = model.solve_at_voltage(ocv - 1e-5, cond);
  EXPECT_LT(std::abs(sol.mean_current_density_a_per_m2), 1.0);
}

TEST(ColaminarFvm, GridConvergence) {
  // The marching scheme converges first-order in the transverse spacing;
  // the default grid sits within ~5 % of a 2x refinement away from the
  // limiting cliff and ~10 % at it (quantified in bench/ablation_convergence).
  const fc::ColaminarChannelModel md(fc::kjeang2007_geometry(),
                                     ec::kjeang2007_validation_chemistry());  // default
  fc::FvmSettings fine;
  fine.transverse_cells = 240;
  fine.axial_steps = 400;
  const fc::ColaminarChannelModel mf(fc::kjeang2007_geometry(),
                                     ec::kjeang2007_validation_chemistry(), fine);
  const auto cond = validation_conditions(60.0);
  for (const double v : {1.2, 0.9}) {
    const double id = md.solve_at_voltage(v, cond).current_a;
    const double iq = mf.solve_at_voltage(v, cond).current_a;
    EXPECT_NEAR(id / iq, 1.0, 0.05) << "at V = " << v;
  }
  const double id = md.solve_at_voltage(0.5, cond).current_a;
  const double iq = mf.solve_at_voltage(0.5, cond).current_a;
  EXPECT_NEAR(id / iq, 1.0, 0.12);  // limiting region converges slowest
}

TEST(ColaminarFvm, TemperatureRaisesCurrentAtFixedVoltage) {
  const auto& model = validation_model_fast();
  auto cold = validation_conditions(60.0);
  auto hot = validation_conditions(60.0);
  hot.axial_temperature_k = {320.0};
  const double i_cold = model.solve_at_voltage(1.0, cold).current_a;
  const double i_hot = model.solve_at_voltage(1.0, hot).current_a;
  EXPECT_GT(i_hot, i_cold);
}

TEST(ColaminarFvm, FuelUtilizationBounded) {
  const auto& model = validation_model_fast();
  const auto sol = model.solve_at_voltage(0.2, validation_conditions(2.5));
  EXPECT_GT(sol.fuel_utilization, 0.1);  // slow flow converts a lot
  EXPECT_LE(sol.fuel_utilization, 1.0);
}

TEST(ColaminarFvm, AxialCurrentDecaysDownstream) {
  // Depleting boundary layers make the local current fall along the channel.
  const auto& model = validation_model_fast();
  const auto sol = model.solve_at_voltage(0.5, validation_conditions(60.0));
  ASSERT_GT(sol.axial_current_density_a_per_m2.size(), 10u);
  EXPECT_GT(sol.axial_current_density_a_per_m2[2],
            sol.axial_current_density_a_per_m2.back());
}

TEST(ColaminarFvm, OutletProfilesHaveExpectedShape) {
  const auto& model = validation_model_fast();
  const auto sol = model.solve_at_voltage(0.9, validation_conditions(60.0));
  const auto& v2 = sol.outlet_concentration_mol_per_m3[fc::kAnodeReduced];
  ASSERT_EQ(static_cast<int>(v2.size()), 60);
  // Fuel still rich mid-anolyte, depleted near the anode wall.
  EXPECT_GT(v2[15], v2[0]);
  // Oxidant side carries no fuel beyond the interdiffusion zone.
  EXPECT_LT(v2.back(), 1.0);
}

TEST(ColaminarFvm, CrossoverLossPositiveAndBounded) {
  // At low flow the interdiffusion zone is wide, so crossover can rival
  // the delivered current; it can never exceed the fuel the stream carries.
  const auto& model = validation_model_fast();
  const auto cond = validation_conditions(10.0);
  const auto sol = model.solve_at_voltage(0.9, cond);
  EXPECT_GT(sol.crossover_current_a, 0.0);
  const double faradaic_limit =
      96485.0 * 920.0 * cond.volumetric_flow_m3_per_s / 2.0;  // anolyte V2+ content
  EXPECT_LT(sol.crossover_current_a, faradaic_limit);
  // The interdiffusion zone scales as sqrt(D L / v): in absolute terms the
  // crossover grows ~sqrt(flow), but as a fraction of the fuel carried it
  // shrinks with flow.
  const auto fast_cond = validation_conditions(300.0);
  const auto fast = model.solve_at_voltage(0.9, fast_cond);
  EXPECT_GT(fast.crossover_current_a, sol.crossover_current_a);
  const double fast_faradaic = 96485.0 * 920.0 * fast_cond.volumetric_flow_m3_per_s / 2.0;
  EXPECT_LT(fast.crossover_current_a / fast_faradaic,
            sol.crossover_current_a / faradaic_limit);
}

TEST(ColaminarFvm, ParasiticCurrentDepressesDeliveredCurrent) {
  const auto& model = validation_model_fast();
  auto clean = validation_conditions(60.0);
  auto leaky = validation_conditions(60.0);
  leaky.parasitic_current_density_a_per_m2 = 5.0;
  const double i_clean = model.solve_at_voltage(1.2, clean).current_a;
  const double i_leaky = model.solve_at_voltage(1.2, leaky).current_a;
  EXPECT_LT(i_leaky, i_clean);
}

// ------------------------------------------------------------- film model
TEST(FilmModel, AgreesWithFvmWithinModelSpread) {
  // The plug-flow film model is a coarser physical reduction; require
  // same-order agreement in the ohmic-to-transport transition region.
  const fc::FilmChannelModel film(fc::kjeang2007_geometry(),
                                  ec::kjeang2007_validation_chemistry(), 120);
  const auto& fvm = validation_model_fast();
  const auto cond = validation_conditions(60.0);
  for (const double v : {1.2, 0.9}) {
    const double i_film = film.solve_at_voltage(v, cond).current_a;
    const double i_fvm = fvm.solve_at_voltage(v, cond).current_a;
    EXPECT_GT(i_film / i_fvm, 0.5) << "V = " << v;
    EXPECT_LT(i_film / i_fvm, 2.2) << "V = " << v;
  }
}

TEST(FilmModel, FlowThroughModeRemovesTransportPlateau) {
  // Same geometry, planar vs flow-through electrodes: the planar cell
  // pins a growing share of stations at the boundary-layer limit while
  // the flow-through cell stays kinetics/ohmic limited and carries more
  // current everywhere.
  auto planar = fc::power7_channel_geometry();
  planar.electrode_mode = fc::ElectrodeMode::kPlanarWall;
  const fc::FilmChannelModel planar_model(planar, ec::power7_array_chemistry(), 120);
  const fc::FilmChannelModel ft_model(fc::power7_channel_geometry(),
                                      ec::power7_array_chemistry(), 120);
  fc::ChannelOperatingConditions cond;
  cond.volumetric_flow_m3_per_s = 676e-6 / 60.0 / 88.0;
  cond.inlet_temperature_k = 300.0;
  const auto sol_planar = planar_model.solve_at_voltage(0.4, cond);
  const auto sol_ft = ft_model.solve_at_voltage(0.4, cond);
  EXPECT_GT(sol_ft.current_a, 1.3 * sol_planar.current_a);
  EXPECT_GT(sol_planar.clamped_station_fraction, 0.1);  // transport-pinned tail
  EXPECT_DOUBLE_EQ(sol_ft.clamped_station_fraction, 0.0);
}

TEST(FilmModel, FlowThroughUtilizationBound) {
  // Current can never exceed the Faradaic content of the streams.
  const fc::FilmChannelModel model(fc::power7_channel_geometry(),
                                   ec::power7_array_chemistry(), 120);
  fc::ChannelOperatingConditions cond;
  cond.volumetric_flow_m3_per_s = 676e-6 / 60.0 / 88.0;
  cond.inlet_temperature_k = 300.0;
  const double faradaic_limit = 96485.0 * 2000.0 * cond.volumetric_flow_m3_per_s / 2.0;
  const auto sol = model.solve_at_voltage(0.05, cond);
  EXPECT_LT(sol.current_a, faradaic_limit);
  EXPECT_LE(sol.fuel_utilization, 1.0);
}

TEST(FilmModel, HotterElectrolyteMakesMorePower) {
  const fc::FilmChannelModel model(fc::power7_channel_geometry(),
                                   ec::power7_array_chemistry(), 120);
  fc::ChannelOperatingConditions cold;
  cold.volumetric_flow_m3_per_s = 676e-6 / 60.0 / 88.0;
  cold.inlet_temperature_k = 300.0;
  auto hot = cold;
  hot.axial_temperature_k = {310.15};
  EXPECT_GT(model.solve_at_voltage(1.0, hot).power_w,
            model.solve_at_voltage(1.0, cold).power_w);
}

// ------------------------------------------------------------ polarization
TEST(Polarization, SweepIsWellFormed) {
  const auto& model = validation_model_fast();
  const auto curve = fc::sweep_polarization(model, validation_conditions(60.0), 0.3, 12);
  ASSERT_EQ(curve.points().size(), 12u);
  for (std::size_t i = 1; i < curve.points().size(); ++i) {
    EXPECT_LT(curve.points()[i].cell_voltage_v, curve.points()[i - 1].cell_voltage_v);
    EXPECT_GE(curve.points()[i].current_a, curve.points()[i - 1].current_a - 1e-9);
  }
}

TEST(Polarization, MaxPowerPointIsInterior) {
  const auto& model = validation_model_fast();
  const auto curve = fc::sweep_polarization(model, validation_conditions(60.0), 0.2, 20);
  const auto mpp = curve.max_power_point();
  EXPECT_GT(mpp.power_w, curve.points().front().power_w);
  EXPECT_GT(mpp.power_w, curve.points().back().power_w);
}

TEST(Polarization, RejectsUnsortedCurves) {
  std::vector<fc::PolarizationPoint> pts = {{1.0, 0.0, 0.0, 0.0}, {1.2, 1.0, 0.0, 1.2}};
  EXPECT_THROW(fc::PolarizationCurve{pts}, std::invalid_argument);
}

// ------------------------------------------------------------------- array
TEST(CellArray, SpecMatchesTableII) {
  const auto spec = fc::power7_array_spec();
  EXPECT_EQ(spec.channel_count, 88);
  EXPECT_NEAR(spec.total_flow_m3_per_s, 676e-6 / 60.0, 1e-12);
  EXPECT_DOUBLE_EQ(spec.inlet_temperature_k, 300.0);
  EXPECT_NEAR(spec.per_channel_flow(), 676e-6 / 60.0 / 88.0, 1e-15);
}

TEST(CellArray, CurrentScalesWithChannelCount) {
  auto spec1 = fc::power7_array_spec();
  spec1.channel_count = 44;
  spec1.total_flow_m3_per_s /= 2.0;  // same per-channel flow
  const fc::FlowCellArray half(spec1, ec::power7_array_chemistry());
  const fc::FlowCellArray full(fc::power7_array_spec(), ec::power7_array_chemistry());
  EXPECT_NEAR(full.current_at_voltage(1.0), 2.0 * half.current_at_voltage(1.0), 1e-6);
}

TEST(CellArray, PaperHeadlineSixAmpsAtOneVolt) {
  // Fig. 7: the 88-channel array sources ~6 A at 1 V.
  const fc::FlowCellArray array(fc::power7_array_spec(), ec::power7_array_chemistry());
  EXPECT_NEAR(array.current_at_voltage(1.0), 6.0, 0.25);
}

TEST(CellArray, HydraulicsMatchPaperVelocity) {
  const fc::FlowCellArray array(fc::power7_array_spec(), ec::power7_array_chemistry());
  const auto h = array.hydraulics_at_spec_flow();
  // Paper quotes ~1.4 m/s average velocity; exact per-channel arithmetic
  // with Table II values gives 1.6 m/s.
  EXPECT_NEAR(h.mean_velocity_m_per_s, 1.6, 0.02);
  EXPECT_GT(h.reynolds, 100.0);
  EXPECT_LT(h.reynolds, 2000.0);  // laminar, as the membrane-less cell needs
}

// -------------------------------------------------- Fig. 3 validation data
TEST(ReferenceData, FourFlowRatesPresent) {
  const auto& curves = fc::fig3_reference_curves();
  ASSERT_EQ(curves.size(), 4u);
  EXPECT_DOUBLE_EQ(curves[0].flow_rate_ul_per_min, 2.5);
  EXPECT_DOUBLE_EQ(curves[3].flow_rate_ul_per_min, 300.0);
}

TEST(ReferenceData, CurvesMonotoneInCurrentAndVoltage) {
  for (const auto& curve : fc::fig3_reference_curves()) {
    for (std::size_t i = 1; i < curve.points.size(); ++i) {
      EXPECT_GT(curve.points[i].current_density_ma_per_cm2,
                curve.points[i - 1].current_density_ma_per_cm2);
      EXPECT_LT(curve.points[i].cell_voltage_v, curve.points[i - 1].cell_voltage_v);
    }
  }
}

TEST(ReferenceData, LimitingCurrentsOrderedByFlow) {
  const auto& curves = fc::fig3_reference_curves();
  for (std::size_t i = 1; i < curves.size(); ++i) {
    EXPECT_GT(curves[i].points.back().current_density_ma_per_cm2,
              curves[i - 1].points.back().current_density_ma_per_cm2);
  }
}

TEST(Fig3Validation, ModelMatchesReferenceWithinTenPercent) {
  // The paper's validation claim (Section II-B): the transport model
  // reproduces the reference polarization data within 10 % at all four
  // flow rates. Default-resolution model, exactly like the bench.
  const fc::ColaminarChannelModel model(fc::kjeang2007_geometry(),
                                        ec::kjeang2007_validation_chemistry());
  for (const auto& curve : fc::fig3_reference_curves()) {
    const auto cond = validation_conditions(curve.flow_rate_ul_per_min);
    for (const auto& point : curve.points) {
      const auto sol = model.solve_at_voltage(point.cell_voltage_v, cond);
      const double i_model = sol.mean_current_density_a_per_m2 / 10.0;  // mA/cm^2
      const double err = std::abs(i_model - point.current_density_ma_per_cm2) /
                         point.current_density_ma_per_cm2;
      EXPECT_LT(err, 0.10) << "flow " << curve.flow_rate_ul_per_min << " uL/min at "
                           << point.cell_voltage_v << " V: model " << i_model
                           << " vs reference " << point.current_density_ma_per_cm2;
    }
  }
}

// ------------------------------------------------------------ channel model
TEST(ChannelModelFactory, PicksImplementationByMode) {
  const auto planar = fc::make_channel_model(fc::kjeang2007_geometry(),
                                             ec::kjeang2007_validation_chemistry());
  EXPECT_NE(dynamic_cast<const fc::ColaminarChannelModel*>(planar.get()), nullptr);
  const auto ft = fc::make_channel_model(fc::power7_channel_geometry(),
                                         ec::power7_array_chemistry());
  EXPECT_NE(dynamic_cast<const fc::FilmChannelModel*>(ft.get()), nullptr);
}

}  // namespace
