// Tests of the integrated co-simulator, the throttling governor and the
// reporting helpers.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "core/bus_solve.h"
#include "core/cosim.h"
#include "core/report.h"
#include "core/system_config.h"
#include "core/throttling.h"
#include "numerics/root_finding.h"

namespace co = brightsi::core;
namespace ch = brightsi::chip;
namespace th = brightsi::thermal;
namespace pd = brightsi::pdn;

namespace {

/// Coarse, fast configuration for the loopy tests.
co::SystemConfig fast_config() {
  co::SystemConfig config = co::power7_system_config();
  config.thermal_grid.axial_cells = 8;
  config.fvm.axial_steps = 80;
  config.channel_groups = 4;
  return config;
}

const co::CoSimReport& cached_report() {
  static const co::CoSimReport report = [] {
    co::IntegratedMpsocSystem system(fast_config());
    return system.run();
  }();
  return report;
}

// ------------------------------------------------------------------- config
TEST(SystemConfig, DefaultValidates) {
  EXPECT_NO_THROW(co::power7_system_config().validate());
}

TEST(SystemConfig, RejectsIndivisibleGroups) {
  auto config = co::power7_system_config();
  config.channel_groups = 7;  // 88 % 7 != 0
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(SystemConfig, RejectsBadPumpEfficiency) {
  auto config = co::power7_system_config();
  config.pump_efficiency = 0.0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

// -------------------------------------------------------------------- cosim
TEST(CoSim, ConvergesAtNominalOperatingPoint) {
  const auto& r = cached_report();
  EXPECT_TRUE(r.converged);
  EXPECT_LE(r.iterations, 8);
}

TEST(CoSim, PeakTemperatureInPaperBand) {
  const auto& r = cached_report();
  EXPECT_GT(r.peak_temperature_c, 33.0);
  EXPECT_LT(r.peak_temperature_c, 43.0);  // paper: 41 C
}

TEST(CoSim, SupplyFeedsCacheRail) {
  const auto& r = cached_report();
  EXPECT_TRUE(r.supply.feasible);
  EXPECT_TRUE(r.supply.vrm_window_ok);
  EXPECT_NEAR(r.supply.vrm_output_power_w, 5.0, 0.05);       // the 5 W rail
  EXPECT_NEAR(r.supply.array_power_w, 5.0 / 0.86, 0.1);      // + VRM loss
  EXPECT_GT(r.supply.bus_voltage_v, 0.9);
  EXPECT_LT(r.supply.bus_voltage_v, 1.3);
}

TEST(CoSim, GridWindowMatchesFig8) {
  const auto& r = cached_report();
  EXPECT_NEAR(r.grid.min_voltage_v, 0.962, 0.01);
  EXPECT_NEAR(r.grid.max_voltage_v, 0.995, 0.005);
}

TEST(CoSim, NetEnergyPositive) {
  // The paper's headline: generation exceeds pumping power.
  const auto& r = cached_report();
  EXPECT_GT(r.supply.array_power_w, r.pumping_power_w);
  EXPECT_GT(r.net_power_w, 0.0);
}

TEST(CoSim, HydraulicsMatchTableII) {
  const auto& r = cached_report();
  EXPECT_NEAR(r.mean_velocity_m_per_s, 1.6, 0.02);
  EXPECT_NEAR(r.pressure_drop_bar, 0.39, 0.02);
  EXPECT_NEAR(r.pumping_power_w, 0.88, 0.05);
}

TEST(CoSim, ThermalFeedbackRaisesCurrentSlightly) {
  // Paper: at nominal flow the temperature effect is at most ~4 %.
  const auto& r = cached_report();
  EXPECT_GT(r.thermal_current_gain, 0.0);
  EXPECT_LT(r.thermal_current_gain, 0.04);
}

TEST(CoSim, HotInletBoostsPowerTowardPaperNumber) {
  // Paper: 37 C inlet raises generated power by up to ~23 %.
  auto config = fast_config();
  config.array_spec.inlet_temperature_k = 310.15;
  co::IntegratedMpsocSystem hot(config);
  co::IntegratedMpsocSystem cold(fast_config());
  const double p_hot = hot.array().current_at_voltage(1.0, {310.15}) * 1.0;
  const double p_cold = cold.array().current_at_voltage(1.0) * 1.0;
  EXPECT_NEAR(p_hot / p_cold - 1.0, 0.22, 0.05);
}

TEST(CoSim, GroupedProfilesAverageCorrectly) {
  co::IntegratedMpsocSystem system(fast_config());
  std::vector<std::vector<double>> per_channel(88, std::vector<double>(4, 300.0));
  for (int c = 0; c < 88; ++c) {
    per_channel[static_cast<std::size_t>(c)].assign(4, 300.0 + c);
  }
  const auto groups = system.group_channel_profiles(per_channel);
  ASSERT_EQ(groups.size(), 4u);  // fast_config: 4 groups of 22
  EXPECT_NEAR(groups[0][0], 300.0 + 10.5, 1e-9);
  EXPECT_NEAR(groups[3][0], 300.0 + 76.5, 1e-9);
}

TEST(CoSim, SweepWithThermalFeedbackIsMonotone) {
  // Array current under a converged run's channel temperature profiles
  // rises as the cell voltage falls from open circuit to 0.6 V.
  co::IntegratedMpsocSystem system(fast_config());
  const auto profiles =
      system.group_channel_profiles(system.run().thermal.channel_fluid_axial_k());
  const double v_start = system.array().open_circuit_voltage() - 1e-4;
  double previous_a = 0.0;
  for (int k = 0; k < 8; ++k) {
    const double v = v_start + (0.6 - v_start) * static_cast<double>(k) / 7.0;
    const double current_a = system.array_current_with_profiles(v, profiles);
    EXPECT_GE(current_a, previous_a - 1e-9) << "at " << v << " V";
    previous_a = current_a;
  }
}

TEST(CoSim, InfeasibleWhenRailDemandExceedsArray) {
  auto config = fast_config();
  config.power_spec.cache_w_per_cm2 = 40.0;  // ~100 W rail, way beyond the array
  co::IntegratedMpsocSystem system(config);
  const auto r = system.run();
  EXPECT_FALSE(r.supply.feasible);
}

// ---------------------------------------------------------------- bus solve
std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

/// The constant-power bus search without memoisation, as solve_supply and
/// the mission's solve_bus each wrote it: Brent's bracket ends and the
/// current at the root re-solve voltages the scan already solved.
template <typename CurrentAt>
co::BusSolution plain_bus_solve(CurrentAt&& current_at, double v_hi, double v_floor,
                                double input_power, double power_tolerance) {
  auto surplus = [&](double v) { return v * current_at(v) - input_power; };
  co::BusSolution bus;
  if (surplus(v_hi) >= 0.0) {
    bus.voltage_v = v_hi;
  } else {
    double v_lo = v_hi;
    bool bracketed = false;
    for (double v = v_hi - 0.05; v >= v_floor; v -= 0.05) {
      if (surplus(v) >= 0.0) {
        v_lo = v;
        bracketed = true;
        break;
      }
    }
    if (!bracketed) {
      return bus;
    }
    bus.voltage_v =
        brightsi::numerics::find_root_brent(surplus, v_lo, v_hi, 1e-5, power_tolerance, 64).root;
  }
  bus.current_a = current_at(bus.voltage_v);
  bus.found = true;
  return bus;
}

TEST(BusSolve, MemoisedSolveMatchesPlainFormulationBitwise) {
  const co::IntegratedMpsocSystem system(fast_config());
  const co::CoSimReport report = system.run();
  const auto profiles = system.group_channel_profiles(report.thermal.channel_fluid_axial_k());
  const std::vector<double> mission_profile = {300.0, 305.0, 310.0};
  const double v_hi = system.array().open_circuit_voltage() - 1e-3;

  // Solves the bus both ways on one array callable; the memoised search
  // must return the same bits and solve each distinct voltage once, and
  // the plain one re-solves exactly `resolved` voltages.
  auto check = [&](const auto& current_at, double v_floor, double input_power,
                   double power_tolerance, int resolved) {
    int plain_solves = 0;
    const co::BusSolution plain = plain_bus_solve(
        [&](double v) {
          ++plain_solves;
          return current_at(v);
        },
        v_hi, v_floor, input_power, power_tolerance);
    std::map<double, int> solves;  // voltage -> array solves
    const co::BusSolution memo = co::solve_constant_power_bus(
        [&](double v) {
          ++solves[v];
          return current_at(v);
        },
        v_hi, v_floor, input_power, power_tolerance);
    EXPECT_EQ(memo.found, plain.found);
    EXPECT_EQ(bits(memo.voltage_v), bits(plain.voltage_v));
    EXPECT_EQ(bits(memo.current_a), bits(plain.current_a));
    for (const auto& [voltage, count] : solves) {
      EXPECT_EQ(count, 1) << "voltage " << voltage;
    }
    EXPECT_EQ(plain_solves - static_cast<int>(solves.size()), resolved);
    return plain;
  };

  // The co-simulation's supply: the run's operating point is the plain
  // search at the run's final profiles, field for field.
  const co::SystemConfig& config = system.config();
  const double rail_w = system.floorplan().cache_power();
  const double input_w = rail_w / config.vrm_spec.efficiency;
  const auto grouped_current = [&](double v) {
    return system.array_current_with_profiles(v, profiles);
  };
  const co::BusSolution plain =
      check(grouped_current, 0.2, input_w, 1e-3 * std::max(input_w, 1.0), 3);
  ASSERT_TRUE(plain.found);
  const co::SupplyOperatingPoint& supply = report.supply;
  EXPECT_TRUE(supply.feasible);
  EXPECT_EQ(bits(supply.bus_voltage_v), bits(plain.voltage_v));
  EXPECT_EQ(bits(supply.array_current_a), bits(plain.current_a));
  EXPECT_EQ(bits(supply.array_power_w), bits(plain.voltage_v * plain.current_a));
  EXPECT_EQ(bits(supply.vrm_output_power_w), bits(rail_w));
  EXPECT_EQ(bits(supply.vrm_loss_w), bits(input_w - rail_w));
  EXPECT_EQ(supply.vrm_window_ok, plain.voltage_v >= config.vrm_spec.min_input_voltage_v &&
                                      plain.voltage_v <= config.vrm_spec.max_input_voltage_v);

  // The mission's bus: a shared 3-point profile, a 0.3 V floor and an
  // unclamped power tolerance; then a demand no voltage meets, where
  // nothing is re-solved.
  const auto shared_current = [&](double v) {
    return system.array().current_at_voltage(v, mission_profile);
  };
  EXPECT_TRUE(check(shared_current, 0.3, input_w, 1e-3 * input_w, 3).found);
  EXPECT_FALSE(check(shared_current, 0.3, 100.0 * input_w, 0.1 * input_w, 0).found);
}

// --------------------------------------------------------------- cache rail
TEST(CacheRail, SharedRailReportsTheGridTheSystemSolvesBitwise) {
  // The rail reads the loads and the taps, never the coolant: a rail solved
  // at another inlet temperature is the rail this system needs.
  co::SystemConfig warm = fast_config();
  warm.array_spec.inlet_temperature_k = 310.15;
  const std::shared_ptr<const co::CacheRail> rail = co::solve_cache_rail(warm);
  ASSERT_TRUE(rail->matches(fast_config()));

  const pd::PowerGridSolution& own = cached_report().grid;
  const pd::PowerGridSolution shared =
      co::IntegratedMpsocSystem(fast_config(), nullptr, rail).run().grid;
  const std::vector<double>& own_v = own.node_voltage_v.data();
  const std::vector<double>& shared_v = shared.node_voltage_v.data();
  ASSERT_EQ(shared_v.size(), own_v.size());
  for (std::size_t i = 0; i < own_v.size(); ++i) {
    ASSERT_EQ(bits(shared_v[i]), bits(own_v[i])) << "node " << i;
  }
  EXPECT_EQ(bits(shared.min_voltage_v), bits(own.min_voltage_v));
  EXPECT_EQ(bits(shared.max_voltage_v), bits(own.max_voltage_v));
  EXPECT_EQ(bits(shared.mean_voltage_v), bits(own.mean_voltage_v));
  EXPECT_EQ(bits(shared.total_load_current_a), bits(own.total_load_current_a));
  EXPECT_EQ(bits(shared.total_supply_current_a), bits(own.total_supply_current_a));
  EXPECT_EQ(bits(shared.worst_drop_v), bits(own.worst_drop_v));
  EXPECT_EQ(bits(shared.ohmic_loss_w), bits(own.ohmic_loss_w));
  EXPECT_EQ(shared.solver_report.iterations, own.solver_report.iterations);
  EXPECT_GT(own.solver_report.iterations, 0);
}

TEST(CacheRail, SystemRejectsARailSolvedForAnotherConfig) {
  co::SystemConfig other = fast_config();
  other.vrm_spec.count_x = 3;
  const std::shared_ptr<const co::CacheRail> rail = co::solve_cache_rail(other);
  EXPECT_FALSE(rail->matches(fast_config()));
  try {
    const co::IntegratedMpsocSystem system(fast_config(), nullptr, rail);
    ADD_FAILURE() << "a mismatched rail was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "shared cache rail does not match the configured grid/power/VRM taps");
  }
}

// --------------------------------------------------------------- throttling
TEST(Throttling, IntegratedPackageStaysBright) {
  // With microfluidic cooling the POWER7+ runs all cores at full power.
  const auto config = fast_config();
  th::ThermalModel model(config.stack, ch::kPower7DieWidthM, ch::kPower7DieHeightM,
                         config.thermal_grid);
  co::ThrottleEnvironment env;
  env.thermal_model = &model;
  env.thermal_op.total_flow_m3_per_s = config.array_spec.total_flow_m3_per_s;
  env.thermal_op.inlet_temperature_k = config.array_spec.inlet_temperature_k;
  env.grid_spec = &config.grid_spec;
  env.taps = pd::make_vrm_grid(4, 4, ch::kPower7DieWidthM, ch::kPower7DieHeightM, 1.0, 25e-3);
  env.power_spec = config.power_spec;
  env.rail_filter = [](const ch::Block& b) { return ch::is_cache(b.type); };

  const auto result = co::find_max_core_activity(env, co::ThrottleConstraints{});
  EXPECT_DOUBLE_EQ(result.max_activity, 1.0);
  EXPECT_LT(result.peak_temperature_c, 85.0);
}

/// Conventional baseline environment: air-cooled package, edge-fed primary
/// rail supervising the whole chip (so core activity moves the rail load).
struct ConventionalBaseline {
  th::ThermalModel model;
  pd::PowerGridSpec core_rail;
  co::ThrottleEnvironment env;

  explicit ConventionalBaseline(const co::SystemConfig& config)
      : model(th::power7_conventional_stack(1200.0, 318.15), ch::kPower7DieWidthM,
              ch::kPower7DieHeightM, config.thermal_grid) {
    core_rail.sheet_resistance_ohm_per_sq = 5e-3;  // full-metal primary rail
    env.thermal_model = &model;
    env.grid_spec = &core_rail;
    env.taps = pd::make_edge_taps(20, ch::kPower7DieWidthM, ch::kPower7DieHeightM, 1.0, 2e-3);
    env.power_spec = config.power_spec;
    // default rail_filter: every block (the conventional core rail)
  }
};

TEST(Throttling, ConventionalPackageGoesDark) {
  // Air-cooled baseline with a modest sink cannot hold full activity.
  const ConventionalBaseline baseline(fast_config());
  const auto result = co::find_max_core_activity(baseline.env, co::ThrottleConstraints{});
  EXPECT_LT(result.max_activity, 0.9);
  EXPECT_GT(result.max_activity, 0.0);  // partial operation still possible
  EXPECT_TRUE(result.thermally_limited || result.voltage_limited);
  EXPECT_LE(result.peak_temperature_c, 85.5);
}

TEST(Throttling, TighterLimitDarkensMore) {
  const ConventionalBaseline baseline(fast_config());
  co::ThrottleConstraints strict;
  strict.max_junction_c = 70.0;
  co::ThrottleConstraints loose;
  loose.max_junction_c = 95.0;
  EXPECT_LT(co::find_max_core_activity(baseline.env, strict).max_activity,
            co::find_max_core_activity(baseline.env, loose).max_activity);
}

// ------------------------------------------------------------------ report
TEST(Report, TextTableFormats) {
  co::TextTable table({"a", "b"});
  table.add_row({"1", "2"});
  table.add_row({"long-cell", "x"});
  std::ostringstream os;
  table.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("long-cell"), std::string::npos);
  EXPECT_NE(out.find("a"), std::string::npos);
  EXPECT_THROW(table.add_row({"only-one"}), std::invalid_argument);
}

TEST(Report, NumFormatsPrecision) {
  EXPECT_EQ(co::TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(co::TextTable::num(41.0, 1), "41.0");
}

TEST(Report, DownsamplePreservesMean) {
  brightsi::numerics::Grid2<double> field(40, 30, 2.5);
  const auto small = co::downsample(field, 8, 6);
  EXPECT_EQ(small.nx(), 8);
  EXPECT_EQ(small.ny(), 6);
  for (const double v : small.data()) {
    EXPECT_NEAR(v, 2.5, 1e-12);
  }
}

TEST(Report, AsciiMapRendersGradient) {
  brightsi::numerics::Grid2<double> field(16, 8, 0.0);
  for (int iy = 0; iy < 8; ++iy) {
    for (int ix = 0; ix < 16; ++ix) {
      field(ix, iy) = ix;
    }
  }
  std::ostringstream os;
  co::print_ascii_map(os, field, "test", "C", 16, 8);
  const std::string out = os.str();
  EXPECT_NE(out.find('@'), std::string::npos);  // hottest shade present
  EXPECT_NE(out.find("test"), std::string::npos);
}

TEST(Report, FieldCsvHasHeaderAndRows) {
  brightsi::numerics::Grid2<double> field(2, 2, 1.0);
  std::ostringstream os;
  co::write_field_csv(os, field, 1e-3, 1e-3);
  const std::string out = os.str();
  EXPECT_EQ(out.find("x_mm,y_mm,value"), 0u);
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 5);
}

TEST(Report, ResultsFileRoundTrip) {
  const std::string path = co::write_results_file(
      "unit_test_artifact.csv", [](std::ostream& os) { os << "a,b\n1,2\n"; });
  ASSERT_FALSE(path.empty());
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::remove(path.c_str());
}

TEST(Report, ResultsFileRejectsPathEscapes) {
  EXPECT_THROW((void)co::write_results_file("../evil.csv", [](std::ostream&) {}),
               std::invalid_argument);
  EXPECT_THROW((void)co::write_results_file("", [](std::ostream&) {}),
               std::invalid_argument);
}

}  // namespace
