// Cross-module integration scenarios: end-to-end consistency between the
// flow-cell supply, the thermal package and the PDN, plus failure
// injection (blocked channels, starved flow, broken VRM populations).
#include <cmath>

#include <gtest/gtest.h>

#include "core/cosim.h"
#include "core/system_config.h"
#include "electrochem/vanadium.h"
#include "flowcell/cell_array.h"
#include "hydraulics/manifold.h"
#include "hydraulics/pump.h"
#include "pdn/vrm.h"
#include "thermal/model.h"

namespace co = brightsi::core;
namespace fc = brightsi::flowcell;
namespace ec = brightsi::electrochem;
namespace hy = brightsi::hydraulics;
namespace th = brightsi::thermal;
namespace ch = brightsi::chip;

namespace {

co::SystemConfig fast_config() {
  co::SystemConfig config = co::power7_system_config();
  config.thermal_grid.axial_cells = 8;
  config.fvm.axial_steps = 80;
  config.channel_groups = 4;
  return config;
}

// --------------------------------------------------- paper headline numbers
TEST(Integration, PaperHeadlineChain) {
  // One pass over every headline claim, end to end, from a single config.
  co::IntegratedMpsocSystem system(fast_config());
  const auto r = system.run();

  // (1) Array sources ~6 A at 1 V (Fig. 7).
  EXPECT_NEAR(system.array().current_at_voltage(1.0), 6.0, 0.25);
  // (2) Cache rail: 5 W at 1 V (Section III-A) is deliverable.
  EXPECT_TRUE(r.supply.feasible);
  // (3) Whole die cooled to a low-40s peak (Fig. 9).
  EXPECT_LT(r.peak_temperature_c, 43.0);
  // (4) Generation beats pumping (Section III-B energy argument).
  EXPECT_GT(r.net_power_w, 0.0);
  // (5) Rail integrity window (Fig. 8).
  EXPECT_GT(r.grid.min_voltage_v, 0.95);
}

TEST(Integration, SupplyAndDemandBookkeepingConsistent) {
  co::IntegratedMpsocSystem system(fast_config());
  const auto r = system.run();
  // Array power = rail power / VRM efficiency (when feasible); the
  // operating-point solve tolerates ~0.1 % on the power match.
  EXPECT_NEAR(r.supply.array_power_w,
              r.supply.vrm_output_power_w + r.supply.vrm_loss_w, 0.02);
  EXPECT_NEAR(r.supply.array_power_w * 0.86, r.supply.vrm_output_power_w, 0.05);
  // Net power = array power - pumping power.
  EXPECT_NEAR(r.net_power_w, r.supply.array_power_w - r.pumping_power_w, 1e-9);
}

TEST(Integration, ThermalProfilesFeedElectrochemistry) {
  co::IntegratedMpsocSystem system(fast_config());
  const auto r = system.run();
  // Channel profiles exist, warm downstream, and the coupled current
  // exceeds the isothermal one (warmer electrolyte helps).
  ASSERT_EQ(r.thermal.channel_fluid_axial_k().size(), 88u);
  EXPECT_GT(r.coupled_current_a, r.isothermal_current_a);
}

// -------------------------------------------------------- failure injection
TEST(FailureInjection, ReducedFlowHeatsAndStillConverges) {
  // The paper's 48 ml/min "hot coolant" case: order-of-magnitude less flow
  // heats the die markedly but the co-simulation still converges, and the
  // generated power rises (Section III-B).
  auto config = fast_config();
  config.array_spec.total_flow_m3_per_s = 48e-6 / 60.0;
  co::IntegratedMpsocSystem starved(config);
  const auto hot = starved.run();
  EXPECT_TRUE(hot.converged);

  co::IntegratedMpsocSystem nominal(fast_config());
  const auto base = nominal.run();
  EXPECT_GT(hot.peak_temperature_c, base.peak_temperature_c + 5.0);
  EXPECT_GT(hot.thermal_current_gain, base.thermal_current_gain);
}

TEST(FailureInjection, BlockedChannelsShiftFlowToSurvivors) {
  // A blocked channel's flow redistributes: survivors each carry more and
  // the plenum pressure rises.
  const std::vector<hy::ParallelChannelGroup> healthy(
      8, {hy::RectangularDuct(200e-6, 400e-6, 22e-3), 1, ""});
  const double total = 8e-6;
  const auto base = hy::split_equal_pressure(total, healthy, 2.53e-3);

  std::vector<hy::ParallelChannelGroup> degraded = healthy;
  degraded[0].duct = hy::RectangularDuct(20e-6, 400e-6, 22e-3);  // 90 % blocked
  const auto after = hy::split_equal_pressure(total, degraded, 2.53e-3);
  EXPECT_LT(after.per_group_flow_m3_per_s[0], base.per_group_flow_m3_per_s[0] / 10.0);
  EXPECT_GT(after.per_group_flow_m3_per_s[1], base.per_group_flow_m3_per_s[1]);
  EXPECT_GT(after.common_pressure_drop_pa, base.common_pressure_drop_pa);
  double sum = 0.0;
  for (const double q : after.per_group_flow_m3_per_s) {
    sum += q;
  }
  EXPECT_NEAR(sum, total, total * 1e-12);
}

TEST(FailureInjection, LostChannelsDegradeArrayGracefully) {
  // Electrically losing channels scales the array current down
  // proportionally (channels are parallel).
  auto spec = fc::power7_array_spec();
  const fc::FlowCellArray full(spec, ec::power7_array_chemistry());
  spec.channel_count = 66;  // 25 % of channels lost
  spec.total_flow_m3_per_s *= 66.0 / 88.0;
  const fc::FlowCellArray degraded(spec, ec::power7_array_chemistry());
  EXPECT_NEAR(degraded.current_at_voltage(1.0) / full.current_at_voltage(1.0), 0.75, 1e-3);
}

TEST(FailureInjection, VrmWindowViolationDetected) {
  // If the bus had to sag below the converter window the report flags it.
  auto config = fast_config();
  config.vrm_spec.min_input_voltage_v = 1.4;  // unrealistic window
  co::IntegratedMpsocSystem system(config);
  const auto r = system.run();
  EXPECT_TRUE(r.supply.feasible);
  EXPECT_FALSE(r.supply.vrm_window_ok);
}

TEST(FailureInjection, PumpDegradationErodesNetGain) {
  co::IntegratedMpsocSystem system(fast_config());
  const auto r = system.run();
  const double degraded_pump = hy::pumping_power_w(
      r.pressure_drop_bar * 1e5, fast_config().array_spec.total_flow_m3_per_s, 0.1);
  EXPECT_GT(degraded_pump, r.pumping_power_w);
  // Even a 10 %-efficient pump keeps the balance positive at this flow.
  EXPECT_GT(r.supply.array_power_w, degraded_pump);
}

// ----------------------------------------------------------- cross checks
TEST(Integration, ThermalModelAndArrayAgreeOnGeometry) {
  const auto config = fast_config();
  th::ThermalModel model(config.stack, ch::kPower7DieWidthM, ch::kPower7DieHeightM,
                         config.thermal_grid);
  EXPECT_EQ(model.channel_count(), config.array_spec.channel_count);
  const th::MicrochannelLayerSpec* channel_layer = config.stack.bottom_channel_layer();
  ASSERT_NE(channel_layer, nullptr);
  EXPECT_DOUBLE_EQ(channel_layer->channel_width_m,
                   config.array_spec.geometry.electrode_gap_m);
  EXPECT_DOUBLE_EQ(channel_layer->layer_height_m,
                   config.array_spec.geometry.channel_height_m);
}

TEST(Integration, CoolantPropertiesFlowFromChemistryToThermal) {
  const auto config = fast_config();
  EXPECT_DOUBLE_EQ(config.chemistry.electrolyte.thermal_conductivity_w_per_m_k, 0.67);
  EXPECT_DOUBLE_EQ(config.chemistry.electrolyte.volumetric_heat_capacity_j_per_m3_k,
                   4.187e6);
}

TEST(Integration, IsothermalCosimMatchesStandaloneArray) {
  // With a cold chip (zero power), the co-simulated array current at the
  // probe voltage equals the isothermal standalone value.
  auto config = fast_config();
  config.power_spec.core_w_per_cm2 = 0.0;
  config.power_spec.cache_w_per_cm2 = 1e-6;  // keep a nonzero rail demand
  config.power_spec.logic_w_per_cm2 = 0.0;
  config.power_spec.io_w_per_cm2 = 0.0;
  config.power_spec.background_w_per_cm2 = 0.0;
  co::IntegratedMpsocSystem system(config);
  const auto r = system.run();
  EXPECT_NEAR(r.coupled_current_a, r.isothermal_current_a,
              std::abs(r.isothermal_current_a) * 5e-3);
}

}  // namespace
