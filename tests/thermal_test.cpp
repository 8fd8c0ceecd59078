// Tests of the compact thermal model: analytic limits, conservation
// properties, monotonicity in flow/power, transient convergence to steady
// state and the POWER7+ microchannel stack.
#include <algorithm>
#include <cmath>
#include <functional>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "chip/power7.h"
#include "thermal/model.h"
#include "thermal/solve_context.h"
#include "thermal/stack.h"

namespace th = brightsi::thermal;
namespace ch = brightsi::chip;

namespace {

constexpr double kFlow = 676e-6 / 60.0;
constexpr double kInlet = 300.15;

th::ThermalModel::GridSettings coarse_grid() {
  th::ThermalModel::GridSettings g;
  g.axial_cells = 8;
  g.solid_stack_x_cells = 24;
  return g;
}

/// Uniform-power floorplan helper.
ch::Floorplan uniform_floorplan(double total_power_w) {
  ch::Floorplan fp(ch::kPower7DieWidthM, ch::kPower7DieHeightM);
  fp.add_block({"blanket", ch::BlockType::kLogic,
                {0.0, 0.0, ch::kPower7DieWidthM, ch::kPower7DieHeightM},
                total_power_w / (ch::kPower7DieWidthM * ch::kPower7DieHeightM)});
  return fp;
}

th::OperatingPoint nominal_op() {
  th::OperatingPoint op;
  op.total_flow_m3_per_s = kFlow;
  op.inlet_temperature_k = kInlet;
  return op;
}

/// One backward-Euler step of a single-die stack on `context`.
th::ThermalSolution context_step(th::ThermalSolveContext& context,
                                 const brightsi::numerics::Grid3<double>& state,
                                 const ch::Floorplan& fp, const th::OperatingPoint& op,
                                 double dt_s) {
  const ch::Floorplan* floorplans[] = {&fp};
  return context.step_transient(state, floorplans, op, dt_s);
}

/// One step on a fresh context: the cold one-shot step.
th::ThermalSolution step_once(const th::ThermalModel& model,
                              const brightsi::numerics::Grid3<double>& state,
                              const ch::Floorplan& fp, const th::OperatingPoint& op,
                              double dt_s) {
  th::ThermalSolveContext context(model);
  return context_step(context, state, fp, op, dt_s);
}

/// Asserts that `fn` throws std::invalid_argument whose message contains
/// `expected` — the validate() contract is that errors name the offending
/// layer.
template <typename Fn>
void expect_invalid_with(const Fn& fn, const std::string& expected) {
  try {
    fn();
    FAIL() << "expected std::invalid_argument containing '" << expected << "'";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(expected), std::string::npos)
        << "message was: " << e.what();
  }
}

// ------------------------------------------------------------------- stacks
TEST(Stack, Power7StackValidates) {
  EXPECT_NO_THROW(th::power7_microchannel_stack().validate());
  EXPECT_NO_THROW(th::power7_conventional_stack().validate());
}

TEST(Stack, Power7StackShape) {
  const auto stack = th::power7_microchannel_stack();
  ASSERT_TRUE(stack.has_channels());
  EXPECT_EQ(stack.channel_layer_count(), 1);
  EXPECT_EQ(stack.source_layer_count(), 1);
  const th::MicrochannelLayerSpec* channel = stack.bottom_channel_layer();
  ASSERT_NE(channel, nullptr);
  EXPECT_EQ(channel->channel_count, 88);
  EXPECT_DOUBLE_EQ(channel->channel_width_m, 200e-6);
  EXPECT_DOUBLE_EQ(channel->layer_height_m, 400e-6);
  EXPECT_TRUE(std::get<th::SolidLayerSpec>(stack.layers.front()).has_heat_source);
}

TEST(Stack, RejectsSourcelessStack) {
  auto stack = th::power7_microchannel_stack();
  std::get<th::SolidLayerSpec>(stack.layers.front()).has_heat_source = false;
  expect_invalid_with([&] { stack.validate(); }, "no layer carries the heat sources");
}

TEST(Stack, ConventionalStackHasTopFilm) {
  const auto stack = th::power7_conventional_stack(2500.0, 318.15);
  EXPECT_FALSE(stack.has_channels());
  EXPECT_DOUBLE_EQ(stack.top_heat_transfer_w_per_m2_k, 2500.0);
}

TEST(Stack, RejectsZeroOrNegativeThicknessNamingTheLayer) {
  auto stack = th::power7_microchannel_stack();
  std::get<th::SolidLayerSpec>(stack.layers[1]).thickness_m = 0.0;
  expect_invalid_with([&] { stack.validate(); }, "bulk_si");
  std::get<th::SolidLayerSpec>(stack.layers[1]).thickness_m = -1e-6;
  expect_invalid_with([&] { stack.validate(); }, "layer thickness (bulk_si)");
}

TEST(Stack, RejectsChannelWiderThanPitchNamingTheLayer) {
  auto stack = th::power7_microchannel_stack();
  stack.bottom_channel_layer()->interior_wall_width_m = 0.0;
  expect_invalid_with([&] { stack.validate(); },
                      "channel wider than pitch (microchannel)");
  stack.bottom_channel_layer()->interior_wall_width_m = -5e-6;
  expect_invalid_with([&] { stack.validate(); }, "channel wider than pitch");
}

TEST(Stack, RejectsZeroZCellsNamingTheLayer) {
  auto stack = th::power7_microchannel_stack();
  std::get<th::SolidLayerSpec>(stack.layers[1]).z_cells = 0;
  expect_invalid_with([&] { stack.validate(); }, "layer z_cells (bulk_si)");

  auto channel_stack = th::power7_microchannel_stack();
  channel_stack.bottom_channel_layer()->z_cells = 0;
  expect_invalid_with([&] { channel_stack.validate(); },
                      "channel layer z_cells (microchannel)");
}

TEST(Stack, RejectsAdjacentChannelLayersNamingBoth) {
  auto stack = th::power7_microchannel_stack();
  th::MicrochannelLayerSpec second = *stack.bottom_channel_layer();
  second.name = "extra_channel";
  // Insert right after the existing channel layer (before the cap).
  stack.layers.insert(stack.layers.end() - 1, second);
  expect_invalid_with(
      [&] { stack.validate(); },
      "adjacent channel layers 'microchannel' and 'extra_channel'");
}

TEST(Stack, RejectsChannelLayerAtTheBottom) {
  th::StackSpec stack;
  stack.add(th::MicrochannelLayerSpec{});
  stack.add(th::SolidLayerSpec{"die", 500e-6, 2, th::silicon(), true});
  expect_invalid_with([&] { stack.validate(); }, "cannot be the bottom layer");
}

TEST(Stack, RejectsMisalignedChannelPatternsAcrossLayers) {
  auto stack = th::two_die_stack();
  auto* channels = stack.bottom_channel_layer();
  channels->channel_count = 44;  // upper layer still has 88
  expect_invalid_with([&] { stack.validate(); }, "does not match the channel pattern");
}

TEST(Stack, MultiDieFactoryShapes) {
  const auto two = th::two_die_stack();
  EXPECT_EQ(two.source_layer_count(), 2);
  EXPECT_EQ(two.channel_layer_count(), 2);

  const auto top_only = th::multi_die_stack(3, /*interlayer_cooling=*/false);
  EXPECT_EQ(top_only.source_layer_count(), 3);
  EXPECT_EQ(top_only.channel_layer_count(), 1);

  const auto single = th::multi_die_stack(1);
  EXPECT_EQ(single.source_layer_count(), 1);
  EXPECT_EQ(single.channel_layer_count(), 1);
}

// --------------------------------------------------------------- grid build
TEST(ThermalModel, GridFollowsChannelPattern) {
  const th::ThermalModel model(th::power7_microchannel_stack(), ch::kPower7DieWidthM,
                               ch::kPower7DieHeightM, coarse_grid());
  EXPECT_EQ(model.channel_count(), 88);
  // edge wall + 88 channels + 87 interior walls + edge wall
  EXPECT_EQ(model.nx(), 177);
  EXPECT_EQ(model.ny(), 8);
  EXPECT_NEAR(model.x_edges().back(), ch::kPower7DieWidthM, 1e-12);
}

TEST(ThermalModel, RejectsChannelPatternWiderThanDie) {
  auto stack = th::power7_microchannel_stack();
  stack.bottom_channel_layer()->channel_count = 200;
  EXPECT_THROW(th::ThermalModel(stack, ch::kPower7DieWidthM, ch::kPower7DieHeightM),
               std::invalid_argument);
}

// ---------------------------------------------------------- analytic limits
TEST(ThermalModel, ZeroPowerStaysAtInlet) {
  const th::ThermalModel model(th::power7_microchannel_stack(), ch::kPower7DieWidthM,
                               ch::kPower7DieHeightM, coarse_grid());
  const auto fp = uniform_floorplan(0.0);
  const auto sol = model.solve_steady(fp, nominal_op());
  EXPECT_NEAR(sol.peak_temperature_k, kInlet, 1e-6);
}

TEST(ThermalModel, CaloricBalanceMatchesAnalyticOutletRise) {
  // Property: with adiabatic walls, T_out_mean = T_in + Q / (rho cp Vdot).
  const th::ThermalModel model(th::power7_microchannel_stack(), ch::kPower7DieWidthM,
                               ch::kPower7DieHeightM, coarse_grid());
  for (const double power : {20.0, 66.0, 120.0}) {
    const auto fp = uniform_floorplan(power);
    const auto sol = model.solve_steady(fp, nominal_op());
    const double expected_rise = power / (4.187e6 * kFlow);
    double outlet_mean = 0.0;
    for (const double t : sol.channel_outlet_k()) {
      outlet_mean += t;
    }
    outlet_mean /= static_cast<double>(sol.channel_outlet_k().size());
    // The z-averaged outlet sample slightly differs from the flow-weighted
    // mixed mean; the energy balance itself is exact.
    EXPECT_NEAR(outlet_mean - kInlet, expected_rise, 0.25 * expected_rise + 0.02);
    EXPECT_LT(sol.energy_balance_error, 1e-6) << "power " << power;
  }
}

TEST(ThermalModel, EnergyBalanceOnRealFloorplan) {
  const th::ThermalModel model(th::power7_microchannel_stack(), ch::kPower7DieWidthM,
                               ch::kPower7DieHeightM, coarse_grid());
  const auto fp = ch::make_power7_floorplan();
  const auto sol = model.solve_steady(fp, nominal_op());
  EXPECT_LT(sol.energy_balance_error, 1e-6);
  EXPECT_NEAR(sol.fluid_heat_absorbed_w, fp.total_power(), fp.total_power() * 1e-5);
}

TEST(ThermalModel, MoreFlowRunsCooler) {
  const th::ThermalModel model(th::power7_microchannel_stack(), ch::kPower7DieWidthM,
                               ch::kPower7DieHeightM, coarse_grid());
  const auto fp = ch::make_power7_floorplan();
  auto op = nominal_op();
  const auto nominal = model.solve_steady(fp, op);
  op.total_flow_m3_per_s = kFlow / 4.0;
  const auto starved = model.solve_steady(fp, op);
  EXPECT_GT(starved.peak_temperature_k, nominal.peak_temperature_k + 1.0);
}

TEST(ThermalModel, MorePowerRunsHotterProportionally) {
  const th::ThermalModel model(th::power7_microchannel_stack(), ch::kPower7DieWidthM,
                               ch::kPower7DieHeightM, coarse_grid());
  const auto sol1 = model.solve_steady(uniform_floorplan(30.0), nominal_op());
  const auto sol2 = model.solve_steady(uniform_floorplan(60.0), nominal_op());
  const double rise1 = sol1.peak_temperature_k - kInlet;
  const double rise2 = sol2.peak_temperature_k - kInlet;
  EXPECT_NEAR(rise2 / rise1, 2.0, 0.02);  // linear system
}

TEST(ThermalModel, HotterInletShiftsFieldUniformly) {
  const th::ThermalModel model(th::power7_microchannel_stack(), ch::kPower7DieWidthM,
                               ch::kPower7DieHeightM, coarse_grid());
  const auto fp = ch::make_power7_floorplan();
  auto op = nominal_op();
  const auto base = model.solve_steady(fp, op);
  op.inlet_temperature_k = kInlet + 10.0;
  const auto hot = model.solve_steady(fp, op);
  EXPECT_NEAR(hot.peak_temperature_k - base.peak_temperature_k, 10.0, 1e-3);
}

TEST(ThermalModel, PeakSitsOverACoreNearOutlet) {
  const th::ThermalModel model(th::power7_microchannel_stack(), ch::kPower7DieWidthM,
                               ch::kPower7DieHeightM, coarse_grid());
  const auto fp = ch::make_power7_floorplan();
  const auto sol = model.solve_steady(fp, nominal_op());
  EXPECT_EQ(sol.peak_iz, 0);                     // source plane
  EXPECT_GE(sol.peak_iy, model.ny() / 2);        // downstream half
  // Peak x within a core column span (cores occupy 1.5-7.0 / 16.55-22.05 mm).
  const double x = model.x_edges()[static_cast<std::size_t>(sol.peak_ix)];
  const bool in_left = x > 1.2e-3 && x < 7.2e-3;
  const bool in_right = x > 16.3e-3 && x < 22.3e-3;
  EXPECT_TRUE(in_left || in_right) << "peak at x = " << x;
}

TEST(ThermalModel, Fig9OperatingPointLandsNearPaperPeak)
{
  // Paper Fig. 9: 41 C peak at full load, 676 ml/min, 27 C inlet. Our
  // reconstruction lands in the upper-30s; assert the reproduced band.
  const th::ThermalModel model(th::power7_microchannel_stack(), ch::kPower7DieWidthM,
                               ch::kPower7DieHeightM);
  const auto fp = ch::make_power7_floorplan();
  const auto sol = model.solve_steady(fp, nominal_op());
  const double peak_c = sol.peak_temperature_k - 273.15;
  EXPECT_GT(peak_c, 33.0);
  EXPECT_LT(peak_c, 43.0);
}

TEST(ThermalModel, BlockTemperaturesOrdered) {
  const th::ThermalModel model(th::power7_microchannel_stack(), ch::kPower7DieWidthM,
                               ch::kPower7DieHeightM, coarse_grid());
  const auto fp = ch::make_power7_floorplan();
  const auto sol = model.solve_steady(fp, nominal_op());
  double core_mean = 0.0, cache_mean = 0.0;
  int cores = 0, caches = 0;
  for (const auto& bt : sol.block_temperatures) {
    if (bt.name.rfind("core", 0) == 0) {
      core_mean += bt.mean_k;
      ++cores;
    } else if (bt.name.rfind("l2", 0) == 0 || bt.name.rfind("l3", 0) == 0) {
      cache_mean += bt.mean_k;
      ++caches;
    }
    EXPECT_GE(bt.max_k, bt.mean_k - 1e-9);
  }
  EXPECT_GT(core_mean / cores, cache_mean / caches + 2.0);  // cores run hotter
}

TEST(ThermalModel, ChannelProfilesMonotoneDownstream) {
  const th::ThermalModel model(th::power7_microchannel_stack(), ch::kPower7DieWidthM,
                               ch::kPower7DieHeightM, coarse_grid());
  const auto fp = ch::make_power7_floorplan();
  const auto sol = model.solve_steady(fp, nominal_op());
  ASSERT_EQ(sol.channel_fluid_axial_k().size(), 88u);
  // Fluid warms along the channel under every core column.
  const auto& profile = sol.channel_fluid_axial_k()[10];
  EXPECT_GT(profile.back(), profile.front());
  EXPECT_GE(profile.front(), kInlet - 1e-9);
}

// ------------------------------------------------------------- conventional
TEST(ThermalModel, ConventionalStackMuchHotterAtFullLoad) {
  const th::ThermalModel liquid(th::power7_microchannel_stack(), ch::kPower7DieWidthM,
                                ch::kPower7DieHeightM, coarse_grid());
  const th::ThermalModel air(th::power7_conventional_stack(), ch::kPower7DieWidthM,
                             ch::kPower7DieHeightM, coarse_grid());
  const auto fp = ch::make_power7_floorplan();
  const auto cold = liquid.solve_steady(fp, nominal_op());
  th::OperatingPoint air_op;  // no coolant; top film handles it
  const auto hot = air.solve_steady(fp, air_op);
  EXPECT_GT(hot.peak_temperature_k, cold.peak_temperature_k + 20.0);
  EXPECT_LT(hot.energy_balance_error, 1e-6);
}

TEST(ThermalModel, SolidStackNeedsTopFilm) {
  auto stack = th::power7_conventional_stack();
  stack.top_heat_transfer_w_per_m2_k = 0.0;
  const th::ThermalModel model(stack, ch::kPower7DieWidthM, ch::kPower7DieHeightM,
                               coarse_grid());
  const auto fp = uniform_floorplan(50.0);
  th::OperatingPoint op;
  EXPECT_THROW(model.solve_steady(fp, op), std::invalid_argument);
}

// ---------------------------------------------------------------- transient
TEST(ThermalModel, TransientConvergesToSteadyState) {
  const th::ThermalModel model(th::power7_microchannel_stack(), ch::kPower7DieWidthM,
                               ch::kPower7DieHeightM, coarse_grid());
  const auto fp = ch::make_power7_floorplan();
  const auto op = nominal_op();
  const auto steady = model.solve_steady(fp, op);

  auto state = model.uniform_state(kInlet);
  double peak = 0.0;
  for (int step = 0; step < 40; ++step) {
    const auto sol = step_once(model, state, fp, op, 0.05);
    state = sol.temperature_k;
    peak = sol.peak_temperature_k;
  }
  EXPECT_NEAR(peak, steady.peak_temperature_k, 0.15);
}

TEST(ThermalModel, TransientStepMovesTowardSteady) {
  const th::ThermalModel model(th::power7_microchannel_stack(), ch::kPower7DieWidthM,
                               ch::kPower7DieHeightM, coarse_grid());
  const auto fp = ch::make_power7_floorplan();
  const auto op = nominal_op();
  auto state = model.uniform_state(kInlet);
  const auto after = step_once(model, state, fp, op, 0.01);
  EXPECT_GT(after.peak_temperature_k, kInlet);
  const auto steady = model.solve_steady(fp, op);
  EXPECT_LT(after.peak_temperature_k, steady.peak_temperature_k + 1e-6);
}

TEST(ThermalModel, TransientRejectsBadInputs) {
  const th::ThermalModel model(th::power7_microchannel_stack(), ch::kPower7DieWidthM,
                               ch::kPower7DieHeightM, coarse_grid());
  const auto fp = ch::make_power7_floorplan();
  auto state = model.uniform_state(kInlet);
  EXPECT_THROW(step_once(model, state, fp, nominal_op(), 0.0), std::invalid_argument);
  const auto wrong = brightsi::numerics::Grid3<double>(2, 2, 2, kInlet);
  EXPECT_THROW(step_once(model, wrong, fp, nominal_op(), 0.1), std::invalid_argument);
}

// ------------------------------------------------------------ solve context
TEST(SolveContext, WarmStartMatchesColdStartWithinSolverTolerance) {
  const th::ThermalModel model(th::power7_microchannel_stack(), ch::kPower7DieWidthM,
                               ch::kPower7DieHeightM, coarse_grid());
  const auto fp = ch::make_power7_floorplan();
  const auto op = nominal_op();
  const auto cold = model.solve_steady(fp, op);

  th::ThermalSolveContext context(model);
  const auto first = context.solve_steady(fp, op);
  const auto warm = context.solve_steady(fp, op);  // warm-started repeat

  // The first context solve is bitwise the one-shot solve.
  EXPECT_DOUBLE_EQ(first.peak_temperature_k, cold.peak_temperature_k);
  // The warm repeat agrees with the cold solve to (well within) the solver
  // tolerance, and needs essentially no iterations.
  double max_abs_difference = 0.0;
  for (std::size_t i = 0; i < cold.temperature_k.data().size(); ++i) {
    max_abs_difference = std::max(
        max_abs_difference, std::abs(warm.temperature_k.data()[i] -
                                     cold.temperature_k.data()[i]));
  }
  EXPECT_LT(max_abs_difference, 1e-6);
  EXPECT_LE(warm.solver_report.iterations, first.solver_report.iterations / 4);
  EXPECT_EQ(context.stats().solves, 2);
}

TEST(SolveContext, WarmStartTracksOperatingPointChanges) {
  const th::ThermalModel model(th::power7_microchannel_stack(), ch::kPower7DieWidthM,
                               ch::kPower7DieHeightM, coarse_grid());
  const auto fp = ch::make_power7_floorplan();
  th::ThermalSolveContext context(model);
  auto op = nominal_op();
  (void)context.solve_steady(fp, op);

  // A different operating point solved warm must match its own cold solve,
  // not drift toward the previous one.
  op.total_flow_m3_per_s = kFlow / 2.0;
  const auto warm = context.solve_steady(fp, op);
  const auto cold = model.solve_steady(fp, op);
  EXPECT_NEAR(warm.peak_temperature_k, cold.peak_temperature_k, 1e-6);
  EXPECT_LT(warm.energy_balance_error, 1e-6);
}

TEST(SolveContext, ResetRestoresColdStartExactly) {
  const th::ThermalModel model(th::power7_microchannel_stack(), ch::kPower7DieWidthM,
                               ch::kPower7DieHeightM, coarse_grid());
  const auto fp = ch::make_power7_floorplan();
  const auto op = nominal_op();
  th::ThermalSolveContext context(model);
  const auto first = context.solve_steady(fp, op);
  (void)context.solve_steady(fp, op);
  context.reset();
  const auto after_reset = context.solve_steady(fp, op);
  // Cold solves are deterministic, so reset reproduces the first solve
  // bit-for-bit (the sweep cache's byte-identity guarantee rests on this).
  EXPECT_EQ(after_reset.temperature_k.data(), first.temperature_k.data());
  EXPECT_EQ(after_reset.solver_report.iterations, first.solver_report.iterations);
}

TEST(SolveContext, TransientStepsMatchTheOneShotPath) {
  // The operator depends only on (op, dt): ten steps at one operating
  // point reuse the first step's factorization, and each field is bitwise
  // the one a fresh context (which factors anew) computes.
  const th::ThermalModel model(th::power7_microchannel_stack(), ch::kPower7DieWidthM,
                               ch::kPower7DieHeightM, coarse_grid());
  const auto fp = ch::make_power7_floorplan();
  const auto op = nominal_op();

  auto state_one_shot = model.uniform_state(kInlet);
  auto state_context = model.uniform_state(kInlet);
  th::ThermalSolveContext context(model);
  for (int step = 0; step < 10; ++step) {
    const auto a = step_once(model, state_one_shot, fp, op, 0.05);
    const auto b = context_step(context, state_context, fp, op, 0.05);
    state_one_shot = a.temperature_k;
    state_context = b.temperature_k;
    ASSERT_EQ(state_context.data(), state_one_shot.data()) << "step " << step;
  }
  EXPECT_EQ(context.stats().solves, 10);
  EXPECT_EQ(context.stats().factorizations, 1);
}

TEST(SolveContext, ChangedOperatorRefactors) {
  const th::ThermalModel model(th::power7_microchannel_stack(), ch::kPower7DieWidthM,
                               ch::kPower7DieHeightM, coarse_grid());
  const auto fp = ch::make_power7_floorplan();
  auto op = nominal_op();
  th::ThermalSolveContext context(model);
  auto state = model.uniform_state(kInlet);
  state = context_step(context, state, fp, op, 0.05).temperature_k;
  state = context_step(context, state, fp, op, 0.05).temperature_k;
  EXPECT_EQ(context.stats().factorizations, 1);
  op.inlet_temperature_k += 5.0;  // a new operating point
  state = context_step(context, state, fp, op, 0.05).temperature_k;
  EXPECT_EQ(context.stats().factorizations, 2);
  state = context_step(context, state, fp, op, 0.1).temperature_k;  // a new dt
  EXPECT_EQ(context.stats().factorizations, 3);
  (void)context.solve_steady(fp, op);  // no mass term
  (void)context.solve_steady(fp, op);
  EXPECT_EQ(context.stats().factorizations, 4);
  EXPECT_EQ(context.stats().solves, 6);
}

TEST(SolveContext, MixedSteadyAndTransientSolvesShareOneContext) {
  const th::ThermalModel model(th::power7_microchannel_stack(), ch::kPower7DieWidthM,
                               ch::kPower7DieHeightM, coarse_grid());
  const auto fp = ch::make_power7_floorplan();
  const auto op = nominal_op();
  th::ThermalSolveContext context(model);
  const auto steady = context.solve_steady(fp, op);
  // A transient step from the steady field stays put (it is the fixed point
  // of the backward-Euler map), even through the mode switch.
  const auto stepped = context_step(context, steady.temperature_k, fp, op, 0.05);
  EXPECT_NEAR(stepped.peak_temperature_k, steady.peak_temperature_k, 1e-6);
  const auto steady_again = context.solve_steady(fp, op);
  EXPECT_NEAR(steady_again.peak_temperature_k, steady.peak_temperature_k, 1e-6);
}

TEST(SolveContext, NonConvergenceReportsResidualAndIterations) {
  auto settings = coarse_grid();
  settings.solver.max_iterations = 1;
  settings.solver.relative_tolerance = 1e-300;
  settings.solver.absolute_tolerance = 0.0;
  const th::ThermalModel model(th::power7_microchannel_stack(), ch::kPower7DieWidthM,
                               ch::kPower7DieHeightM, settings);
  const auto fp = ch::make_power7_floorplan();
  auto state = model.uniform_state(kInlet);
  for (const auto& attempt :
       {std::function<void()>([&] { (void)model.solve_steady(fp, nominal_op()); }),
        std::function<void()>([&] { (void)step_once(model, state, fp, nominal_op(), 0.05); })}) {
    try {
      attempt();
      FAIL() << "expected non-convergence";
    } catch (const std::runtime_error& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find("residual"), std::string::npos) << message;
      EXPECT_NE(message.find("iterations"), std::string::npos) << message;
    }
  }
}

// -------------------------------------------------------------- validation
TEST(ThermalModel, OperatingPointValidation) {
  th::OperatingPoint op;
  op.total_flow_m3_per_s = 0.0;
  EXPECT_THROW(op.validate(true), std::invalid_argument);
  EXPECT_NO_THROW(op.validate(false));
}

// ------------------------------------------------------------ multi-die 3D
TEST(MultiDie, SingleFloorplanApiMatchesSpanApiBitwise) {
  const th::ThermalModel model(th::power7_microchannel_stack(), ch::kPower7DieWidthM,
                               ch::kPower7DieHeightM, coarse_grid());
  const auto fp = ch::make_power7_floorplan();
  const auto one = model.solve_steady(fp, nominal_op());
  const ch::Floorplan* floorplans[] = {&fp};
  const auto span_solution =
      model.solve_steady(std::span<const ch::Floorplan* const>(floorplans),
                         nominal_op());
  EXPECT_EQ(one.temperature_k.data(), span_solution.temperature_k.data());
  EXPECT_EQ(one.peak_temperature_k, span_solution.peak_temperature_k);
  ASSERT_EQ(span_solution.channel_layers.size(), 1u);
  EXPECT_DOUBLE_EQ(span_solution.channel_layers.front().flow_fraction, 1.0);
}

TEST(MultiDie, SingleFloorplanApiRejectsMultiDieStacks) {
  const th::ThermalModel model(th::two_die_stack(), ch::kPower7DieWidthM,
                               ch::kPower7DieHeightM, coarse_grid());
  EXPECT_EQ(model.die_count(), 2);
  EXPECT_EQ(model.channel_layer_count(), 2);
  EXPECT_THROW((void)model.solve_steady(ch::make_power7_floorplan(), nominal_op()),
               std::invalid_argument);
}

TEST(MultiDie, TwoDieSolveConservesEnergyAndSplitsFlow) {
  const th::ThermalModel model(th::two_die_stack(), ch::kPower7DieWidthM,
                               ch::kPower7DieHeightM, coarse_grid());
  const auto core_die = ch::make_power7_floorplan();
  const auto memory_die = ch::make_power7_floorplan(ch::memory_die_power_spec());
  const ch::Floorplan* floorplans[] = {&core_die, &memory_die};
  const auto sol = model.solve_steady(floorplans, nominal_op());

  EXPECT_NEAR(sol.total_power_w, core_die.total_power() + memory_die.total_power(), 1e-9);
  EXPECT_LT(sol.energy_balance_error, 1e-6);

  // Equal-geometry layers split the pump flow evenly and absorb all power.
  ASSERT_EQ(sol.channel_layers.size(), 2u);
  double split_total = 0.0;
  double heat_total = 0.0;
  for (const th::ChannelLayerSolution& layer : sol.channel_layers) {
    EXPECT_NEAR(layer.flow_fraction, 0.5, 1e-9);
    split_total += layer.flow_m3_per_s;
    heat_total += layer.heat_absorbed_w;
  }
  EXPECT_NEAR(split_total, kFlow, kFlow * 1e-9);
  EXPECT_NEAR(heat_total, sol.fluid_heat_absorbed_w, 1e-9);

  // One active-layer map per die; hot core die peaks above the memory die.
  ASSERT_EQ(sol.die_maps_k.size(), 2u);
  double peak_die0 = 0.0, peak_die1 = 0.0;
  for (int iy = 0; iy < model.ny(); ++iy) {
    for (int ix = 0; ix < model.nx(); ++ix) {
      peak_die0 = std::max(peak_die0, sol.die_maps_k[0](ix, iy));
      peak_die1 = std::max(peak_die1, sol.die_maps_k[1](ix, iy));
    }
  }
  EXPECT_GT(peak_die0, peak_die1);

  // Upper-die blocks are reported with the die prefix.
  bool found_prefixed = false;
  for (const th::BlockTemperature& block : sol.block_temperatures) {
    found_prefixed = found_prefixed || block.name.rfind("die1:", 0) == 0;
  }
  EXPECT_TRUE(found_prefixed);
}

TEST(MultiDie, TallerChannelLayerTakesMoreFlow) {
  auto stack = th::two_die_stack();
  // Make the upper cooling layer twice as tall: lower hydraulic resistance.
  auto channels = stack.channel_layers();
  ASSERT_EQ(channels.size(), 2u);
  for (th::StackLayer& layer : stack.layers) {
    if (auto* channel = std::get_if<th::MicrochannelLayerSpec>(&layer)) {
      if (channel->name == "cool1") {
        channel->layer_height_m = 800e-6;
      }
    }
  }
  const th::ThermalModel model(stack, ch::kPower7DieWidthM, ch::kPower7DieHeightM,
                               coarse_grid());
  const auto split = model.layer_flow_split(nominal_op());
  ASSERT_EQ(split.size(), 2u);
  EXPECT_GT(split[1], split[0] * 2.0);  // conductance grows superlinearly in height
  EXPECT_NEAR(split[0] + split[1], kFlow, kFlow * 1e-9);
}

TEST(MultiDie, InterlayerCoolingBeatsTopOnlyCoolingAtEqualPressureDrop) {
  // The hydraulically fair comparison: two parallel cooling layers pass
  // twice the flow at the same plenum-to-plenum pressure drop, so the
  // interlayer stack gets 2x the pump flow of the top-only baseline (each
  // layer then carries exactly the baseline's per-layer flow).
  const auto core_die = ch::make_power7_floorplan();
  const auto memory_die = ch::make_power7_floorplan(ch::memory_die_power_spec());
  const ch::Floorplan* floorplans[] = {&core_die, &memory_die};

  const th::ThermalModel interlayer(th::multi_die_stack(2, true), ch::kPower7DieWidthM,
                                    ch::kPower7DieHeightM, coarse_grid());
  const th::ThermalModel top_only(th::multi_die_stack(2, false), ch::kPower7DieWidthM,
                                  ch::kPower7DieHeightM, coarse_grid());
  auto double_flow = nominal_op();
  double_flow.total_flow_m3_per_s = 2.0 * kFlow;
  const auto cool = interlayer.solve_steady(floorplans, double_flow);
  const auto hot = top_only.solve_steady(floorplans, nominal_op());
  EXPECT_LT(cool.peak_temperature_k, hot.peak_temperature_k);
  EXPECT_LT(cool.energy_balance_error, 1e-6);
  EXPECT_LT(hot.energy_balance_error, 1e-6);
}

TEST(MultiDie, TransientConvergesToSteadyOnTwoDieStack) {
  const th::ThermalModel model(th::two_die_stack(), ch::kPower7DieWidthM,
                               ch::kPower7DieHeightM, coarse_grid());
  const auto core_die = ch::make_power7_floorplan();
  const auto memory_die = ch::make_power7_floorplan(ch::memory_die_power_spec());
  const std::vector<const ch::Floorplan*> floorplans = {&core_die, &memory_die};
  const auto op = nominal_op();
  const auto steady = model.solve_steady(floorplans, op);

  th::ThermalSolveContext context(model);
  auto state = model.uniform_state(kInlet);
  double peak = 0.0;
  for (int step = 0; step < 40; ++step) {
    const auto sol = context.step_transient(state, floorplans, op, 0.05);
    state = sol.temperature_k;
    peak = sol.peak_temperature_k;
  }
  EXPECT_NEAR(peak, steady.peak_temperature_k, 0.2);
}

}  // namespace
