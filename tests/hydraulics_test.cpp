// Tests of the hydraulics module: friction correlation limits, pressure
// drop against analytic cases, exact velocity-profile properties, Nusselt
// table, pump power and manifold splitting.
#include <cmath>

#include <gtest/gtest.h>

#include "hydraulics/dimensionless.h"
#include "hydraulics/duct.h"
#include "hydraulics/manifold.h"
#include "hydraulics/pump.h"

namespace hy = brightsi::hydraulics;

namespace {

// ------------------------------------------------------------------ ducts
TEST(Duct, HydraulicDiameterOfSquare) {
  const hy::RectangularDuct d(1e-3, 1e-3, 0.1);
  EXPECT_NEAR(d.hydraulic_diameter(), 1e-3, 1e-12);
}

TEST(Duct, HydraulicDiameterOfTableIIChannel) {
  const hy::RectangularDuct d(200e-6, 400e-6, 22e-3);
  EXPECT_NEAR(d.hydraulic_diameter(), 4.0 * 8e-8 / 1.2e-3, 1e-12);  // 266.7 um
}

TEST(Duct, FrictionFactorSquareDuct) {
  const hy::RectangularDuct d(1e-3, 1e-3, 0.1);
  EXPECT_NEAR(d.friction_factor_reynolds(), 14.23, 0.05);  // Shah-London
}

TEST(Duct, FrictionFactorParallelPlateLimit) {
  const hy::RectangularDuct d(1e-6, 1.0, 0.1);  // aspect -> 0
  EXPECT_NEAR(d.friction_factor_reynolds(), 24.0, 0.01);
}

TEST(Duct, PressureDropParallelPlatesAnalytic) {
  // dp/L = 12 mu v / h^2 for plates of gap h.
  const double h = 100e-6;
  const hy::RectangularDuct d(h, 10.0, 1.0);  // effectively parallel plates
  const double mu = 1e-3;
  const double v = 0.5;
  EXPECT_NEAR(d.pressure_gradient_pa_per_m(mu, v), 12.0 * mu * v / (h * h), 120.0);
  // (tolerance ~0.02 % of the 6e5 Pa/m value)
}

TEST(Duct, PressureDropScalesLinearlyInVelocityAndLength) {
  const hy::RectangularDuct d(200e-6, 400e-6, 22e-3);
  const double dp1 = d.pressure_drop_pa(2.53e-3, 1.0);
  EXPECT_NEAR(d.pressure_drop_pa(2.53e-3, 2.0), 2.0 * dp1, 1e-9);
  const hy::RectangularDuct d2(200e-6, 400e-6, 44e-3);
  EXPECT_NEAR(d2.pressure_drop_pa(2.53e-3, 1.0), 2.0 * dp1, 1e-9);
}

TEST(Duct, TableIIOperatingPoint) {
  // 676 ml/min over 88 channels of 200x400 um: v = 1.6 m/s, Re ~ 213,
  // laminar; dp ~ 0.39 bar over 22 mm.
  const hy::RectangularDuct d(200e-6, 400e-6, 22e-3);
  const double per_channel = 676e-6 / 60.0 / 88.0;
  const double v = d.mean_velocity(per_channel);
  EXPECT_NEAR(v, 1.60, 0.01);
  EXPECT_NEAR(d.reynolds(1260.0, 2.53e-3, v), 213.0, 2.0);
  EXPECT_NEAR(d.pressure_drop_pa(2.53e-3, v), 3.9e4, 1e3);
}

TEST(Duct, MeanVelocityFromFlow) {
  const hy::RectangularDuct d(1e-3, 2e-3, 0.1);
  EXPECT_DOUBLE_EQ(d.mean_velocity(2e-6), 1.0);
}

TEST(Duct, NusseltTableAnchors) {
  const hy::RectangularDuct square(1e-3, 1e-3, 0.1);
  EXPECT_NEAR(square.nusselt_h1(), 3.608, 1e-6);
  const hy::RectangularDuct half(1e-3, 2e-3, 0.1);
  EXPECT_NEAR(half.nusselt_h1(), 4.123, 1e-6);
  const hy::RectangularDuct plates(1e-6, 1.0, 0.1);
  EXPECT_NEAR(plates.nusselt_h1(), 8.235, 1e-2);
}

TEST(Duct, HydraulicConductanceMatchesPressureDrop) {
  const hy::RectangularDuct d(200e-6, 400e-6, 22e-3);
  const double mu = 2.53e-3;
  const double q = 1e-7;
  const double dp = d.pressure_drop_pa(mu, d.mean_velocity(q));
  EXPECT_NEAR(d.hydraulic_conductance(mu) * dp, q, q * 1e-9);
}

TEST(Duct, RejectsNonPositiveGeometry) {
  EXPECT_THROW(hy::RectangularDuct(0.0, 1e-3, 0.1), std::invalid_argument);
  EXPECT_THROW(hy::RectangularDuct(1e-3, -1e-3, 0.1), std::invalid_argument);
  EXPECT_THROW(hy::RectangularDuct(1e-3, 1e-3, 0.0), std::invalid_argument);
}

// -------------------------------------------------------- velocity profile
TEST(VelocityProfile, VanishesAtWallsAndPeaksAtCenter) {
  const hy::RectangularDuct d(2e-3, 150e-6, 33e-3);
  const hy::DuctVelocityProfile profile(d);
  EXPECT_NEAR(profile.depth_averaged(0.0), 0.0, 1e-6);
  EXPECT_NEAR(profile.depth_averaged(2e-3), 0.0, 1e-6);
  EXPECT_GT(profile.depth_averaged(1e-3), 1.0);
}

TEST(VelocityProfile, DepthAveragedMeanIsOne) {
  const hy::RectangularDuct d(200e-6, 400e-6, 22e-3);
  const hy::DuctVelocityProfile profile(d);
  const int n = 400;
  double mean = 0.0;
  for (int i = 0; i < n; ++i) {
    const double y = (i + 0.5) * 200e-6 / n;
    mean += profile.depth_averaged(y);
  }
  mean /= n;
  EXPECT_NEAR(mean, 1.0, 1e-3);
}

TEST(VelocityProfile, NearParabolicAcrossNarrowGap) {
  // For a duct much taller than wide, the depth-averaged profile across
  // the gap approaches the parabola 1.5 (1 - (2y/W - 1)^2).
  const hy::RectangularDuct d(200e-6, 4000e-6, 22e-3);
  const hy::DuctVelocityProfile profile(d);
  const double center = profile.depth_averaged(100e-6);
  EXPECT_NEAR(center, 1.5, 0.03);
  const double quarter = profile.depth_averaged(50e-6);
  EXPECT_NEAR(quarter, 1.5 * 0.75, 0.04);
}

TEST(VelocityProfile, SymmetricAboutCenterline) {
  const hy::RectangularDuct d(2e-3, 150e-6, 33e-3);
  const hy::DuctVelocityProfile profile(d);
  for (const double y : {0.2e-3, 0.5e-3, 0.9e-3}) {
    EXPECT_NEAR(profile.depth_averaged(y), profile.depth_averaged(2e-3 - y), 1e-9);
  }
}

TEST(VelocityProfile, RejectsOutOfDuctQueries) {
  const hy::RectangularDuct d(1e-3, 1e-3, 0.1);
  const hy::DuctVelocityProfile profile(d);
  EXPECT_THROW((void)profile.depth_averaged(-1e-6), std::invalid_argument);
  EXPECT_THROW((void)profile.depth_averaged(1.1e-3), std::invalid_argument);
}

// -------------------------------------------------------------------- pump
TEST(Pump, PaperPumpingEquation) {
  // P = dp * V / eta (Section III-B). With the paper's numbers
  // (dp = 1.95e5 Pa implied by their 4.4 W at 676 ml/min, eta = 0.5).
  const double flow = 676e-6 / 60.0;
  EXPECT_NEAR(hy::pumping_power_w(1.95e5, flow, 0.5), 4.4, 0.01);
}

TEST(Pump, EfficiencyScaling) {
  EXPECT_DOUBLE_EQ(hy::pumping_power_w(1e5, 1e-5, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(hy::pumping_power_w(1e5, 1e-5, 0.5), 2.0);
}

TEST(Pump, RejectsBadEfficiency) {
  EXPECT_THROW((void)hy::pumping_power_w(1.0, 1.0, 0.0), std::invalid_argument);
  EXPECT_THROW((void)hy::pumping_power_w(1.0, 1.0, 1.5), std::invalid_argument);
}

// ----------------------------------------------------------- dimensionless
TEST(Dimensionless, SchmidtAndPecletConsistency) {
  // Pe = Re Sc, with Re = rho v L / mu and Sc = mu / (rho D).
  const double rho = 1260.0, v = 1.6, length = 2.667e-4, mu = 2.53e-3, d = 1.26e-10;
  const double re = rho * v * length / mu;
  const double sc = mu / (rho * d);
  const double pe = hy::peclet_mass(v, length, d);
  EXPECT_NEAR(re * sc, pe, pe * 1e-9);
}

TEST(Dimensionless, FilmThicknessSqrtGrowth) {
  const double d1 = hy::film_boundary_layer_thickness(1e-10, 0.01, 1.0);
  const double d2 = hy::film_boundary_layer_thickness(1e-10, 0.04, 1.0);
  EXPECT_NEAR(d2 / d1, 2.0, 1e-9);
}

// ----------------------------------------------------------------- manifold
TEST(Manifold, IdenticalChannelsSplitEqually) {
  const std::vector<hy::ParallelChannelGroup> groups(
      4, {hy::RectangularDuct(200e-6, 400e-6, 22e-3), 1, ""});
  const auto split = hy::split_equal_pressure(4e-6, groups, 2.53e-3);
  for (const double q : split.per_group_flow_m3_per_s) {
    EXPECT_NEAR(q, 1e-6, 1e-15);
  }
}

TEST(Manifold, WiderChannelTakesMoreFlow) {
  const std::vector<hy::ParallelChannelGroup> groups = {
      {hy::RectangularDuct(200e-6, 400e-6, 22e-3), 1, "narrow"},
      {hy::RectangularDuct(400e-6, 400e-6, 22e-3), 1, "wide"},
  };
  const auto split = hy::split_equal_pressure(2e-6, groups, 2.53e-3);
  EXPECT_GT(split.per_group_flow_m3_per_s[1], split.per_group_flow_m3_per_s[0]);
  EXPECT_NEAR(split.per_group_flow_m3_per_s[0] + split.per_group_flow_m3_per_s[1], 2e-6,
              1e-15);
}

TEST(Manifold, CommonPressureDropIsConsistent) {
  const std::vector<hy::ParallelChannelGroup> groups = {
      {hy::RectangularDuct(200e-6, 400e-6, 22e-3), 1, "a"},
      {hy::RectangularDuct(300e-6, 400e-6, 22e-3), 1, "b"},
  };
  const double mu = 2.53e-3;
  const auto split = hy::split_equal_pressure(2e-6, groups, mu);
  for (std::size_t i = 0; i < groups.size(); ++i) {
    const double v = groups[i].duct.mean_velocity(split.per_group_flow_m3_per_s[i]);
    EXPECT_NEAR(groups[i].duct.pressure_drop_pa(mu, v), split.common_pressure_drop_pa,
                split.common_pressure_drop_pa * 1e-9);
  }
}

TEST(Manifold, EmptyChannelListThrows) {
  const std::vector<hy::ParallelChannelGroup> none;
  EXPECT_THROW((void)hy::split_equal_pressure(1e-6, none, 1e-3), std::invalid_argument);
}

// ------------------------------------------------- equal-pressure groups
TEST(SplitEqualPressure, BlockedGroupTakesExactlyZeroFlow) {
  const hy::RectangularDuct duct(200e-6, 400e-6, 22e-3);
  const std::vector<hy::ParallelChannelGroup> groups = {
      {duct, 44, "live"},
      {duct, 0, "blocked"},  // valve closed: zero channels
  };
  const auto split = hy::split_equal_pressure(88e-6, groups, 2.53e-3);
  EXPECT_DOUBLE_EQ(split.per_group_flow_m3_per_s[0], 88e-6);
  EXPECT_DOUBLE_EQ(split.per_group_flow_m3_per_s[1], 0.0);
  EXPECT_DOUBLE_EQ(split.fraction[0], 1.0);
  EXPECT_DOUBLE_EQ(split.fraction[1], 0.0);
  EXPECT_GT(split.common_pressure_drop_pa, 0.0);
}

TEST(SplitEqualPressure, BlockedGroupDoesNotPerturbLiveSplit) {
  // The survivors' split with a blocked group present must be bit-identical
  // to the same split without it — a zero conductance adds exactly +0.0 to
  // the Brent bracket arithmetic.
  const hy::RectangularDuct narrow(200e-6, 400e-6, 22e-3);
  const hy::RectangularDuct wide(400e-6, 400e-6, 22e-3);
  const std::vector<hy::ParallelChannelGroup> live = {{narrow, 44, "a"}, {wide, 44, "b"}};
  const std::vector<hy::ParallelChannelGroup> with_blocked = {
      {narrow, 44, "a"}, {wide, 44, "b"}, {narrow, 0, "stuck"}};
  const auto base = hy::split_equal_pressure(88e-6, live, 2.53e-3);
  const auto hardened = hy::split_equal_pressure(88e-6, with_blocked, 2.53e-3);
  EXPECT_EQ(base.per_group_flow_m3_per_s[0], hardened.per_group_flow_m3_per_s[0]);
  EXPECT_EQ(base.per_group_flow_m3_per_s[1], hardened.per_group_flow_m3_per_s[1]);
  EXPECT_EQ(base.common_pressure_drop_pa, hardened.common_pressure_drop_pa);
  EXPECT_DOUBLE_EQ(hardened.per_group_flow_m3_per_s[2], 0.0);
}

TEST(SplitEqualPressure, AllBlockedThrowsNamedError) {
  const hy::RectangularDuct duct(200e-6, 400e-6, 22e-3);
  const std::vector<hy::ParallelChannelGroup> groups = {{duct, 0, "north"},
                                                        {duct, 0, "south"}};
  try {
    (void)hy::split_equal_pressure(88e-6, groups, 2.53e-3);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("zero total conductance"), std::string::npos) << what;
    EXPECT_NE(what.find("north"), std::string::npos) << what;
    EXPECT_NE(what.find("south"), std::string::npos) << what;
  }
}

TEST(SplitEqualPressure, NegativeChannelCountThrows) {
  const hy::RectangularDuct duct(200e-6, 400e-6, 22e-3);
  const std::vector<hy::ParallelChannelGroup> groups = {{duct, -1, "bad"}};
  EXPECT_THROW((void)hy::split_equal_pressure(1e-6, groups, 2.53e-3),
               std::invalid_argument);
}

// ------------------------------------------------ rack parallel branches
TEST(SplitEqualPressure, BranchConductanceSumsItsGroups) {
  const hy::RectangularDuct duct(200e-6, 400e-6, 22e-3);
  hy::ParallelBranch branch;
  branch.name = "chip0";
  branch.groups = {{duct, 44, "bottom"}, {duct, 44, "top"}};
  const double mu = 2.53e-3;
  EXPECT_NEAR(branch.conductance(mu), 88.0 * duct.hydraulic_conductance(mu),
              1e-9 * branch.conductance(mu));
}

TEST(SplitEqualPressure, BlockedBranchFlowGoesToSurvivors) {
  const hy::RectangularDuct duct(200e-6, 400e-6, 22e-3);
  hy::ParallelBranch live1{"chip0", {{duct, 88, "cool"}}};
  hy::ParallelBranch live2{"chip1", {{duct, 88, "cool"}}};
  hy::ParallelBranch blocked{"chip2", {}};  // no groups at all: valve closed
  const std::vector<hy::ParallelBranch> branches = {live1, blocked, live2};
  const double total = 3e-6;
  const auto split = hy::split_equal_pressure(total, branches, 2.53e-3);
  EXPECT_NEAR(split.per_group_flow_m3_per_s[0], total / 2.0, total * 1e-12);
  EXPECT_DOUBLE_EQ(split.per_group_flow_m3_per_s[1], 0.0);
  EXPECT_NEAR(split.per_group_flow_m3_per_s[2], total / 2.0, total * 1e-12);
  EXPECT_NEAR(split.fraction[0] + split.fraction[1] + split.fraction[2], 1.0, 1e-12);
}

TEST(SplitEqualPressure, AllBlockedBranchesThrowNamedError) {
  const std::vector<hy::ParallelBranch> branches = {{"chip0", {}}, {"chip1", {}}};
  try {
    (void)hy::split_equal_pressure(1e-6, branches, 2.53e-3);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("chip0"), std::string::npos) << what;
    EXPECT_NE(what.find("chip1"), std::string::npos) << what;
  }
}

TEST(SplitEqualPressure, HeterogeneousBranchesFollowConductance) {
  // A branch with twice the channels takes twice the flow — the linear
  // laminar law makes the equal-dp split proportional to conductance.
  const hy::RectangularDuct duct(200e-6, 400e-6, 22e-3);
  hy::ParallelBranch single{"one-die", {{duct, 88, "cool"}}};
  hy::ParallelBranch stacked{"two-die", {{duct, 88, "lower"}, {duct, 88, "upper"}}};
  const std::vector<hy::ParallelBranch> branches = {single, stacked};
  const auto split = hy::split_equal_pressure(3e-6, branches, 2.53e-3);
  EXPECT_NEAR(split.fraction[0], 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(split.fraction[1], 2.0 / 3.0, 1e-9);
}

}  // namespace
