// Tests of the PDN module: analytic single-resistor cases, KCL
// conservation, monotonicity in taps/sheet resistance, the Fig. 8
// calibration window and the VRM conversion model.
#include <cmath>

#include <gtest/gtest.h>

#include "chip/power7.h"
#include "pdn/power_grid.h"
#include "pdn/vrm.h"

namespace pd = brightsi::pdn;
namespace ch = brightsi::chip;

namespace {

ch::Floorplan single_load_floorplan(double power_w) {
  ch::Floorplan fp(10e-3, 10e-3);
  fp.add_block({"load", ch::BlockType::kL2Cache, ch::rect_mm(4, 4, 2, 2), power_w / 4e-6});
  return fp;
}

// ------------------------------------------------------------- grid basics
TEST(PowerGrid, SpecValidation) {
  pd::PowerGridSpec spec;
  spec.nodes_x = 1;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = pd::PowerGridSpec{};
  spec.sheet_resistance_ohm_per_sq = 0.0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(PowerGrid, NominalLoadCurrentMatchesBlockPower) {
  pd::PowerGridSpec spec;
  spec.nodes_x = 20;
  spec.nodes_y = 20;
  const auto fp = single_load_floorplan(3.0);
  const pd::PowerGrid grid(spec, fp);
  const auto taps = pd::make_vrm_grid(2, 2, fp.die_width(), fp.die_height(), 1.0, 25e-3);
  EXPECT_NEAR(grid.solve(taps).total_load_current_a, 3.0, 1e-9);  // 3 W at 1 V
}

TEST(PowerGrid, DefaultFilterSelectsCaches) {
  pd::PowerGridSpec spec;
  spec.nodes_x = 10;
  spec.nodes_y = 10;
  ch::Floorplan fp(10e-3, 10e-3);
  fp.add_block({"core", ch::BlockType::kCore, ch::rect_mm(0, 0, 5, 10), 1e5});
  fp.add_block({"l3", ch::BlockType::kL3Cache, ch::rect_mm(5, 0, 5, 10), 2e4});
  const pd::PowerGrid grid(spec, fp);
  const auto taps = pd::make_vrm_grid(2, 2, fp.die_width(), fp.die_height(), 1.0, 25e-3);
  EXPECT_NEAR(grid.solve(taps).total_load_current_a, fp.cache_power(), 1e-9);
}

TEST(PowerGrid, SolveRequiresTaps) {
  const auto fp = single_load_floorplan(1.0);
  const pd::PowerGrid grid(pd::PowerGridSpec{}, fp);
  EXPECT_THROW(grid.solve({}), std::invalid_argument);
}

// --------------------------------------------------------------- KCL checks
TEST(PowerGrid, SupplyCurrentEqualsLoadCurrent) {
  // Property: in steady state, the VRM taps source exactly the sink total.
  const auto fp = single_load_floorplan(2.5);
  const pd::PowerGrid grid(pd::PowerGridSpec{}, fp);
  const auto taps =
      pd::make_vrm_grid(3, 3, fp.die_width(), fp.die_height(), 1.0, 10e-3);
  const auto sol = grid.solve(taps);
  EXPECT_NEAR(sol.total_supply_current_a, sol.total_load_current_a, 1e-6);
}

TEST(PowerGrid, NoLoadMeansFlatRailAtSetPoint) {
  ch::Floorplan fp(10e-3, 10e-3);
  fp.add_block({"core", ch::BlockType::kCore, ch::rect_mm(0, 0, 10, 10), 1e5});
  const pd::PowerGrid grid(pd::PowerGridSpec{}, fp);  // cache filter: no loads
  const auto taps = pd::make_vrm_grid(2, 2, fp.die_width(), fp.die_height(), 1.0, 10e-3);
  const auto sol = grid.solve(taps);
  EXPECT_NEAR(sol.min_voltage_v, 1.0, 1e-9);
  EXPECT_NEAR(sol.max_voltage_v, 1.0, 1e-9);
  EXPECT_NEAR(sol.ohmic_loss_w, 0.0, 1e-12);
}

TEST(PowerGrid, SingleTapAnalyticDrop) {
  // One tap with output resistance R sourcing a total current I: the tap
  // node sits at set_point - I*R regardless of the mesh.
  const auto fp = single_load_floorplan(2.0);  // 2 A at 1 V
  const pd::PowerGrid grid(pd::PowerGridSpec{}, fp);
  const double r_out = 20e-3;
  const std::vector<pd::VrmTap> taps = {{5e-3, 5e-3, 1.0, r_out}};
  const auto sol = grid.solve(taps);
  EXPECT_NEAR(sol.max_voltage_v, 1.0 - 2.0 * r_out, 2e-3);
}

// ------------------------------------------------------------ monotonicity
TEST(PowerGrid, MoreTapsReduceDroop) {
  const auto fp = ch::make_power7_floorplan();
  const pd::PowerGrid grid(pd::PowerGridSpec{}, fp);
  const auto few = pd::make_vrm_grid(2, 2, fp.die_width(), fp.die_height(), 1.0, 25e-3);
  const auto many = pd::make_vrm_grid(6, 6, fp.die_width(), fp.die_height(), 1.0, 25e-3);
  EXPECT_GT(grid.solve(many).min_voltage_v, grid.solve(few).min_voltage_v);
}

TEST(PowerGrid, HigherSheetResistanceMoreDroop) {
  const auto fp = ch::make_power7_floorplan();
  pd::PowerGridSpec lo;
  lo.sheet_resistance_ohm_per_sq = 0.02;
  pd::PowerGridSpec hi;
  hi.sheet_resistance_ohm_per_sq = 0.2;
  const auto taps = pd::make_vrm_grid(4, 4, fp.die_width(), fp.die_height(), 1.0, 25e-3);
  EXPECT_GT(pd::PowerGrid(lo, fp).solve(taps).min_voltage_v,
            pd::PowerGrid(hi, fp).solve(taps).min_voltage_v);
}

TEST(PowerGrid, EdgeFeedingWorseThanDistributed) {
  // The paper's architectural point: in-package distributed VRMs beat
  // peripheral feeding for the same tap count and output resistance.
  const auto fp = ch::make_power7_floorplan();
  const pd::PowerGrid grid(pd::PowerGridSpec{}, fp);
  const auto distributed =
      pd::make_vrm_grid(4, 4, fp.die_width(), fp.die_height(), 1.0, 25e-3);
  const auto edge = pd::make_edge_taps(8, fp.die_width(), fp.die_height(), 1.0, 25e-3);
  ASSERT_EQ(distributed.size(), edge.size());
  EXPECT_GT(grid.solve(distributed).min_voltage_v, grid.solve(edge).min_voltage_v);
}

// ----------------------------------------------------------- Fig. 8 window
TEST(PowerGrid, Fig8CalibrationWindow) {
  // Paper Fig. 8: cache-rail voltages between ~0.96 and ~0.995 V at the
  // 5 A load with distributed in-package VRMs.
  const auto fp = ch::make_power7_floorplan();
  const pd::PowerGrid grid(pd::PowerGridSpec{}, fp);
  const auto taps = pd::make_vrm_grid(4, 4, fp.die_width(), fp.die_height(), 1.0, 25e-3);
  const auto sol = grid.solve(taps);
  EXPECT_NEAR(sol.min_voltage_v, 0.962, 0.008);
  EXPECT_NEAR(sol.max_voltage_v, 0.995, 0.004);
  EXPECT_NEAR(sol.total_load_current_a, 5.0, 0.05);
}

TEST(PowerGrid, OhmicLossIsSmallFraction) {
  const auto fp = ch::make_power7_floorplan();
  const pd::PowerGrid grid(pd::PowerGridSpec{}, fp);
  const auto taps = pd::make_vrm_grid(4, 4, fp.die_width(), fp.die_height(), 1.0, 25e-3);
  const auto sol = grid.solve(taps);
  EXPECT_GT(sol.ohmic_loss_w, 0.0);
  EXPECT_LT(sol.ohmic_loss_w, 0.25);  // a few % of the 5 W rail
}

// -------------------------------------------------------------------- taps
TEST(Taps, GridPlacementCoversDie) {
  const auto taps = pd::make_vrm_grid(3, 2, 26.55e-3, 21.34e-3, 1.0, 1e-3);
  ASSERT_EQ(taps.size(), 6u);
  for (const auto& tap : taps) {
    EXPECT_GT(tap.x_m, 0.0);
    EXPECT_LT(tap.x_m, 26.55e-3);
    EXPECT_GT(tap.y_m, 0.0);
    EXPECT_LT(tap.y_m, 21.34e-3);
  }
}

TEST(Taps, EdgePlacementOnPerimeter) {
  const auto taps = pd::make_edge_taps(5, 26.55e-3, 21.34e-3, 1.0, 1e-3);
  ASSERT_EQ(taps.size(), 10u);
  for (const auto& tap : taps) {
    EXPECT_TRUE(tap.x_m < 1e-4 || tap.x_m > 26.55e-3 - 1e-4);
  }
}

// --------------------------------------------------------------------- VRM
TEST(Vrm, SpecValidation) {
  pd::VrmSpec spec;
  EXPECT_NO_THROW(spec.validate());
  spec.efficiency = 1.2;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = pd::VrmSpec{};
  spec.max_input_voltage_v = spec.min_input_voltage_v;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

}  // namespace
