// Cross-module property suites: physical invariants checked over swept
// parameter grids (TEST_P), complementing the per-module unit tests.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "chip/power7.h"
#include "chip/power_map.h"
#include "electrochem/butler_volmer.h"
#include "electrochem/reservoir.h"
#include "electrochem/vanadium.h"
#include "flowcell/cell_array.h"
#include "flowcell/colaminar_fvm.h"
#include "flowcell/wall_closure.h"
#include "hydraulics/duct.h"
#include "numerics/linear_solvers.h"
#include "numerics/sparse_matrix.h"
#include "pdn/power_grid.h"
#include "thermal/model.h"

namespace ec = brightsi::electrochem;
namespace fc = brightsi::flowcell;
namespace hy = brightsi::hydraulics;
namespace th = brightsi::thermal;
namespace pd = brightsi::pdn;
namespace ch = brightsi::chip;
namespace nu = brightsi::numerics;

namespace {

// ----------------------------------------------- Butler-Volmer x temperature
class BvTemperatureSweep
    : public ::testing::TestWithParam<std::tuple<double, double>> {};  // (alpha, T)

TEST_P(BvTemperatureSweep, InversionRoundTripsAcrossKinetics) {
  const auto [alpha, temperature] = GetParam();
  ec::ButlerVolmerState state;
  state.exchange_current_density_a_per_m2 = 85.0;
  state.anodic_transfer_coefficient = alpha;
  state.temperature_k = temperature;
  state.reduced_surface_ratio = 0.8;
  state.oxidized_surface_ratio = 1.1;
  for (const double i : {-2000.0, -20.0, 0.5, 50.0, 4000.0}) {
    const double eta = ec::overpotential_for_current(state, i);
    EXPECT_NEAR(ec::butler_volmer_current(state, eta), i, 1e-6 * std::abs(i))
        << "alpha=" << alpha << " T=" << temperature << " i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, BvTemperatureSweep,
                         ::testing::Combine(::testing::Values(0.3, 0.5, 0.65),
                                            ::testing::Values(280.0, 300.0, 340.0)));

// ------------------------------------------------------- wall closure sweep
class ClosureVoltageSweep : public ::testing::TestWithParam<double> {};  // temperature

TEST_P(ClosureVoltageSweep, CurrentMonotoneAndSelfConsistent) {
  const double temperature = GetParam();
  fc::ClosureParameters p;
  p.temperature_k = temperature;
  p.anode_exchange_current_a_per_m2 = 400.0;
  p.cathode_exchange_current_a_per_m2 = 90.0;
  p.anode_standard_potential_v = -0.255;
  p.cathode_standard_potential_v = 0.991;
  p.anode_wall_mass_transfer_m_per_s = 8e-5;
  p.cathode_wall_mass_transfer_m_per_s = 8e-5;
  p.area_specific_resistance_ohm_m2 = 8e-5;
  const fc::WallConcentrations wall{900.0, 100.0, 950.0, 50.0};

  double previous = -1e9;
  for (double v = 1.4; v >= 0.2; v -= 0.1) {
    const auto r = fc::solve_wall_current(p, wall, v);
    EXPECT_GE(r.total_current_density, previous - 1e-9) << "V=" << v;
    previous = r.total_current_density;
    if (!r.clamped && r.total_current_density > 0.0) {
      // Reconstruct the voltage from the reported decomposition:
      // V = OCV(wall) + eta_cat - eta_an - i*ASR, with the Nernst surface
      // shift inside the overpotentials via the surface ratios.
      const double v_rebuilt = r.local_open_circuit_v + r.cathode_overpotential_v -
                               r.anode_overpotential_v -
                               r.total_current_density * p.area_specific_resistance_ohm_m2;
      EXPECT_NEAR(v_rebuilt, v, 1e-5) << "decomposition at V=" << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Temperatures, ClosureVoltageSweep,
                         ::testing::Values(290.0, 300.0, 320.0, 345.0));

// ------------------------------------------------------------ duct geometry
class DuctAspectSweep : public ::testing::TestWithParam<double> {};  // aspect ratio

TEST_P(DuctAspectSweep, CorrelationsBehaveAcrossAspect) {
  const double aspect = GetParam();
  const hy::RectangularDuct duct(1e-3 * aspect, 1e-3, 0.1);
  // f*Re between the square (14.23) and parallel-plate (24) limits.
  EXPECT_GE(duct.friction_factor_reynolds(), 14.2);
  EXPECT_LE(duct.friction_factor_reynolds(), 24.0);
  // Nu between the square (3.608) and plate (8.235) limits.
  EXPECT_GE(duct.nusselt_h1(), 3.6);
  EXPECT_LE(duct.nusselt_h1(), 8.235);
  // Depth-averaged profile integrates to one.
  const hy::DuctVelocityProfile profile(duct);
  const int n = 200;
  double mean = 0.0;
  for (int i = 0; i < n; ++i) {
    mean += profile.depth_averaged((i + 0.5) * duct.width() / n);
  }
  EXPECT_NEAR(mean / n, 1.0, 5e-3);
}

INSTANTIATE_TEST_SUITE_P(Aspects, DuctAspectSweep,
                         ::testing::Values(0.05, 0.125, 0.25, 0.5, 0.75, 1.0));

// ------------------------------------------------------- thermal linearity
class ThermalLinearity : public ::testing::Test {
 protected:
  static th::ThermalModel make_model() {
    th::ThermalModel::GridSettings grid;
    grid.axial_cells = 8;
    return th::ThermalModel(th::power7_microchannel_stack(), ch::kPower7DieWidthM,
                            ch::kPower7DieHeightM, grid);
  }
  static th::OperatingPoint op() {
    th::OperatingPoint o;
    o.total_flow_m3_per_s = 676e-6 / 60.0;
    o.inlet_temperature_k = 300.15;
    return o;
  }
};

TEST_F(ThermalLinearity, SuperpositionOfPowerMaps) {
  // The steady operator is linear: the rise of (cores+caches) equals the
  // sum of the separate rises.
  const auto model = make_model();
  ch::Power7PowerSpec cores_only;
  cores_only.cache_w_per_cm2 = 0.0;
  cores_only.logic_w_per_cm2 = 0.0;
  cores_only.io_w_per_cm2 = 0.0;
  cores_only.background_w_per_cm2 = 0.0;
  ch::Power7PowerSpec caches_only;
  caches_only.core_w_per_cm2 = 0.0;
  caches_only.logic_w_per_cm2 = 0.0;
  caches_only.io_w_per_cm2 = 0.0;
  caches_only.background_w_per_cm2 = 0.0;
  ch::Power7PowerSpec both = cores_only;
  both.cache_w_per_cm2 = ch::Power7PowerSpec{}.cache_w_per_cm2;

  const auto sol_cores = model.solve_steady(ch::make_power7_floorplan(cores_only), op());
  const auto sol_caches = model.solve_steady(ch::make_power7_floorplan(caches_only), op());
  const auto sol_both = model.solve_steady(ch::make_power7_floorplan(both), op());

  const double inlet = op().inlet_temperature_k;
  // Compare at a fixed probe cell (center of core0, source plane).
  const int ix = 10, iy = 5, iz = 0;
  const double rise_sum = (sol_cores.temperature_k(ix, iy, iz) - inlet) +
                          (sol_caches.temperature_k(ix, iy, iz) - inlet);
  const double rise_both = sol_both.temperature_k(ix, iy, iz) - inlet;
  EXPECT_NEAR(rise_both, rise_sum, 1e-6 + 1e-6 * std::abs(rise_sum));
}

TEST_F(ThermalLinearity, OutletRiseInverselyProportionalToFlow) {
  const auto model = make_model();
  const auto fp = ch::make_power7_floorplan();
  auto o1 = op();
  auto o2 = op();
  o2.total_flow_m3_per_s *= 2.0;
  const auto s1 = model.solve_steady(fp, o1);
  const auto s2 = model.solve_steady(fp, o2);
  const double rise1 = s1.fluid_heat_absorbed_w /
                       (4.187e6 * o1.total_flow_m3_per_s);  // caloric identity
  const double rise2 = s2.fluid_heat_absorbed_w / (4.187e6 * o2.total_flow_m3_per_s);
  EXPECT_NEAR(rise1 / rise2, 2.0, 1e-6);  // same heat, twice the flow
}

// ---------------------------------------------------------- PDN superposition
TEST(PdnProperty, DroopScalesLinearlyWithLoad) {
  ch::Power7PowerSpec half_spec;
  half_spec.cache_w_per_cm2 /= 2.0;
  const auto fp_full = ch::make_power7_floorplan();
  const auto fp_half = ch::make_power7_floorplan(half_spec);
  const pd::PowerGrid grid_full(pd::PowerGridSpec{}, fp_full);
  const pd::PowerGrid grid_half(pd::PowerGridSpec{}, fp_half);
  const auto taps =
      pd::make_vrm_grid(4, 4, fp_full.die_width(), fp_full.die_height(), 1.0, 25e-3);
  const auto sol_full = grid_full.solve(taps);
  const auto sol_half = grid_half.solve(taps);
  const double drop_full = 1.0 - sol_full.min_voltage_v;
  const double drop_half = 1.0 - sol_half.min_voltage_v;
  EXPECT_NEAR(drop_full / drop_half, 2.0, 1e-6);
}

TEST(PdnProperty, SetPointShiftsRigidly) {
  const auto fp = ch::make_power7_floorplan();
  const pd::PowerGrid grid(pd::PowerGridSpec{}, fp);
  const auto taps_1v = pd::make_vrm_grid(4, 4, fp.die_width(), fp.die_height(), 1.0, 25e-3);
  const auto taps_09 = pd::make_vrm_grid(4, 4, fp.die_width(), fp.die_height(), 0.9, 25e-3);
  const auto sol_1v = grid.solve(taps_1v);
  const auto sol_09 = grid.solve(taps_09);
  // Same constant-current loads: the whole field shifts by 0.1 V.
  EXPECT_NEAR(sol_1v.min_voltage_v - sol_09.min_voltage_v, 0.1, 1e-9);
  EXPECT_NEAR(sol_1v.max_voltage_v - sol_09.max_voltage_v, 0.1, 1e-9);
}

// --------------------------------------------------------- flow cell trends
class ArrayFlowSweep : public ::testing::TestWithParam<double> {};  // voltage

TEST_P(ArrayFlowSweep, MoreFlowNeverLosesCurrent) {
  const double v = GetParam();
  auto spec = fc::power7_array_spec();
  const ec::FlowCellChemistry chem = ec::power7_array_chemistry();
  double previous = -1.0;
  for (const double ml : {100.0, 300.0, 676.0, 1500.0}) {
    spec.total_flow_m3_per_s = ml * 1e-6 / 60.0;
    const fc::FlowCellArray array(spec, chem);
    const double current = array.current_at_voltage(v);
    EXPECT_GE(current, previous - 0.02) << "flow " << ml << " at " << v << " V";
    previous = current;
  }
}

INSTANTIATE_TEST_SUITE_P(Voltages, ArrayFlowSweep, ::testing::Values(1.2, 1.0, 0.7, 0.4));

class ArrayTemperatureSweep : public ::testing::TestWithParam<double> {};  // voltage

TEST_P(ArrayTemperatureSweep, HotterProfilesMonotonicallyHelp) {
  const double v = GetParam();
  const fc::FlowCellArray array(fc::power7_array_spec(), ec::power7_array_chemistry());
  double previous = -1.0;
  for (const double t : {300.0, 310.0, 320.0, 335.0}) {
    const double current = array.current_at_voltage(v, {t});
    EXPECT_GT(current, previous) << "T=" << t << " V=" << v;
    previous = current;
  }
}

INSTANTIATE_TEST_SUITE_P(Voltages, ArrayTemperatureSweep, ::testing::Values(1.2, 1.0, 0.6));

// ----------------------------------------------------------- reservoir math
TEST(ReservoirProperty, EnergyIsAdditiveOverSocSpans) {
  ec::ReservoirSpec spec;
  spec.chemistry = ec::power7_array_chemistry();
  const ec::ElectrolyteReservoir high(spec, 0.9);
  const ec::ElectrolyteReservoir mid(spec, 0.5);
  const double whole = high.ideal_energy_to_floor_j(0.1, 300.0, 256);
  const double upper = high.ideal_energy_to_floor_j(0.5, 300.0, 256);
  const double lower = mid.ideal_energy_to_floor_j(0.1, 300.0, 256);
  EXPECT_NEAR(whole, upper + lower, whole * 1e-6);
}

TEST(ReservoirProperty, RuntimeScalesWithTankVolume) {
  ec::ReservoirSpec small;
  small.chemistry = ec::power7_array_chemistry();
  small.tank_volume_m3 = 1e-3;
  ec::ReservoirSpec big = small;
  big.tank_volume_m3 = 4e-3;
  const ec::ElectrolyteReservoir r_small(small, 0.9);
  const ec::ElectrolyteReservoir r_big(big, 0.9);
  EXPECT_NEAR(r_big.runtime_to_floor_s(5.0, 0.1) / r_small.runtime_to_floor_s(5.0, 0.1),
              4.0, 1e-9);
}

// --------------------------------------- sparse refill / ILU(0) refactor
// The PR's assemble-once fast paths must be *bitwise* equivalent to a
// from-scratch build: refill_from_triplets against from_triplets, and
// Ilu0Preconditioner::refactor against a fresh factorization — over
// randomized sparsity patterns and values.

/// Deterministic 64-bit LCG, so the randomized patterns are identical on
/// every platform (no <random> distribution variance).
class Lcg {
 public:
  explicit Lcg(std::uint64_t seed) : state_(seed * 2862933555777941757ULL + 1ULL) {}
  std::uint64_t next() {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return state_ >> 16;
  }
  double uniform(double lo, double hi) {
    constexpr double scale = 1.0 / static_cast<double>(1 << 20);
    return lo + (hi - lo) * static_cast<double>(next() % (1 << 20)) * scale;
  }
  int uniform_int(int lo, int hi) {
    return lo + static_cast<int>(next() % static_cast<std::uint64_t>(hi - lo + 1));
  }

 private:
  std::uint64_t state_;
};

/// A random diagonally-dominant square pattern: full diagonal, up to 4
/// off-diagonals per row, and some entries stamped twice (the duplicate
/// summation path of finite-volume assembly).
nu::TripletList random_pattern(Lcg& rng, int n) {
  nu::TripletList triplets;
  for (int i = 0; i < n; ++i) {
    double off_sum = 0.0;
    std::vector<int> used;
    const int off_count = rng.uniform_int(0, 4);
    for (int k = 0; k < off_count; ++k) {
      const int j = rng.uniform_int(0, n - 1);
      // Keep off-diagonal columns distinct so no entry is stamped more
      // than twice: beyond two duplicates the summation order of a fresh
      // build is unspecified and bitwise equality would be overclaiming.
      if (j == i || std::find(used.begin(), used.end(), j) != used.end()) {
        continue;
      }
      used.push_back(j);
      const double value = rng.uniform(-1.0, 1.0);
      triplets.add(i, j, value);
      off_sum += std::abs(value);
      if (rng.uniform_int(0, 3) == 0) {  // duplicate stamp of the same entry
        const double extra = rng.uniform(-0.5, 0.5);
        triplets.add(i, j, extra);
        off_sum += std::abs(extra);
      }
    }
    triplets.add(i, i, off_sum + rng.uniform(1.0, 3.0));  // dominance: no zero pivots
  }
  return triplets;
}

/// Same (row, col) stamp sequence, fresh values (duplicates included).
nu::TripletList refreshed_values(Lcg& rng, const nu::TripletList& pattern) {
  nu::TripletList triplets;
  for (const nu::Triplet& t : pattern.entries()) {
    // Keep diagonal dominance for the ILU sweep: diagonal entries stay
    // large, off-diagonals stay small.
    const double value = t.row == t.col ? std::abs(t.value) + rng.uniform(1.0, 2.0)
                                        : rng.uniform(-1.0, 1.0);
    triplets.add(t.row, t.col, value);
  }
  return triplets;
}

class SparseReuseSweep : public ::testing::TestWithParam<int> {};  // seed

TEST_P(SparseReuseSweep, RefillMatchesFreshBuildBitwise) {
  Lcg rng(static_cast<std::uint64_t>(GetParam()));
  const int n = 10 + 5 * GetParam();
  const nu::TripletList first = random_pattern(rng, n);
  const nu::TripletList second = refreshed_values(rng, first);

  nu::CsrMatrix reused = nu::CsrMatrix::from_triplets(n, n, first);
  const nu::CsrMatrix fresh = nu::CsrMatrix::from_triplets(n, n, second);

  std::vector<int> slot_cache;
  reused.refill_from_triplets(second, &slot_cache);
  EXPECT_EQ(reused.row_offsets(), fresh.row_offsets());
  EXPECT_EQ(reused.column_indices(), fresh.column_indices());
  EXPECT_EQ(reused.values(), fresh.values());  // bitwise, not approximate
  EXPECT_EQ(slot_cache.size(), second.size());

  // The populated slot cache must reproduce the same fill exactly.
  nu::CsrMatrix cached = nu::CsrMatrix::from_triplets(n, n, first);
  cached.refill_from_triplets(second, &slot_cache);
  EXPECT_EQ(cached.values(), fresh.values());
}

TEST_P(SparseReuseSweep, IluRefactorMatchesFreshFactorizationBitwise) {
  Lcg rng(static_cast<std::uint64_t>(GetParam()) + 1000);
  const int n = 10 + 5 * GetParam();
  const nu::TripletList first = random_pattern(rng, n);
  const nu::TripletList second = refreshed_values(rng, first);
  const nu::CsrMatrix a1 = nu::CsrMatrix::from_triplets(n, n, first);
  const nu::CsrMatrix a2 = nu::CsrMatrix::from_triplets(n, n, second);

  nu::Ilu0Preconditioner refactored(a1);
  refactored.refactor(a2);
  const nu::Ilu0Preconditioner fresh(a2);

  // The factorizations are private; equality is observed through apply():
  // identical factors produce bitwise-identical solves for any rhs.
  std::vector<double> rhs(static_cast<std::size_t>(n));
  for (double& value : rhs) {
    value = rng.uniform(-10.0, 10.0);
  }
  std::vector<double> z_refactored(static_cast<std::size_t>(n));
  std::vector<double> z_fresh(static_cast<std::size_t>(n));
  refactored.apply(rhs, z_refactored);
  fresh.apply(rhs, z_fresh);
  EXPECT_EQ(z_refactored, z_fresh);
}

TEST(SparseReuse, MismatchedPatternsAreRejected) {
  nu::TripletList tridiag;
  for (int i = 0; i < 6; ++i) {
    tridiag.add(i, i, 4.0);
    if (i > 0) {
      tridiag.add(i, i - 1, -1.0);
      tridiag.add(i - 1, i, -1.0);
    }
  }
  nu::CsrMatrix a = nu::CsrMatrix::from_triplets(6, 6, tridiag);

  nu::TripletList wider = tridiag;
  wider.add(0, 5, 0.25);  // entry outside the pattern
  EXPECT_THROW(a.refill_from_triplets(wider), std::invalid_argument);

  nu::Ilu0Preconditioner ilu(a);
  const nu::CsrMatrix dense_corner = nu::CsrMatrix::from_triplets(6, 6, wider);
  EXPECT_THROW(ilu.refactor(dense_corner), std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SparseReuseSweep, ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ------------------------------------------- ILU(0) line-scheduled sweeps
// Ilu0Preconditioner::apply() runs its triangular sweeps line group by
// line group; it must give bitwise the z of plain row-by-row sweeps, on
// line-structured patterns (thermal stacks, 2-D meshes) and on patterns
// without lines (random, diagonal).

/// Textbook ILU(0): the IKJ factorization, then the forward and backward
/// sweeps one row after another. The bitwise reference for apply().
std::vector<double> row_by_row_ilu0_solve(const nu::CsrMatrix& a, std::span<const double> r) {
  const std::vector<int>& offsets = a.row_offsets();
  const std::vector<int>& columns = a.column_indices();
  std::vector<double> lu = a.values();
  const int n = a.rows();
  std::vector<int> diagonal(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    for (int k = offsets[static_cast<std::size_t>(i)]; k < offsets[static_cast<std::size_t>(i) + 1];
         ++k) {
      if (columns[static_cast<std::size_t>(k)] == i) {
        diagonal[static_cast<std::size_t>(i)] = k;
      }
    }
  }
  std::vector<int> position(static_cast<std::size_t>(n), -1);
  for (int i = 0; i < n; ++i) {
    const auto begin = static_cast<std::size_t>(offsets[static_cast<std::size_t>(i)]);
    const auto end = static_cast<std::size_t>(offsets[static_cast<std::size_t>(i) + 1]);
    for (std::size_t k = begin; k < end; ++k) {
      position[static_cast<std::size_t>(columns[k])] = static_cast<int>(k);
    }
    for (std::size_t k = begin; k < end && columns[k] < i; ++k) {
      const auto pivot_row = static_cast<std::size_t>(columns[k]);
      const double factor = lu[k] / lu[static_cast<std::size_t>(diagonal[pivot_row])];
      lu[k] = factor;
      for (int kk = diagonal[pivot_row] + 1; kk < offsets[pivot_row + 1]; ++kk) {
        const int pos = position[static_cast<std::size_t>(columns[static_cast<std::size_t>(kk)])];
        if (pos >= 0) {
          lu[static_cast<std::size_t>(pos)] -= factor * lu[static_cast<std::size_t>(kk)];
        }
      }
    }
    for (std::size_t k = begin; k < end; ++k) {
      position[static_cast<std::size_t>(columns[k])] = -1;
    }
  }

  std::vector<double> z(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    double sum = r[static_cast<std::size_t>(i)];
    for (int k = offsets[static_cast<std::size_t>(i)]; k < diagonal[static_cast<std::size_t>(i)];
         ++k) {
      sum -= lu[static_cast<std::size_t>(k)] *
             z[static_cast<std::size_t>(columns[static_cast<std::size_t>(k)])];
    }
    z[static_cast<std::size_t>(i)] = sum;
  }
  for (int i = n - 1; i >= 0; --i) {
    double sum = z[static_cast<std::size_t>(i)];
    for (int k = diagonal[static_cast<std::size_t>(i)] + 1;
         k < offsets[static_cast<std::size_t>(i) + 1]; ++k) {
      sum -= lu[static_cast<std::size_t>(k)] *
             z[static_cast<std::size_t>(columns[static_cast<std::size_t>(k)])];
    }
    z[static_cast<std::size_t>(i)] =
        sum / lu[static_cast<std::size_t>(diagonal[static_cast<std::size_t>(i)])];
  }
  return z;
}

/// Seeded diagonally dominant values on `pattern`'s sparsity pattern.
nu::CsrMatrix seeded_values(const nu::CsrMatrix& pattern, std::uint64_t seed) {
  Lcg rng(seed);
  nu::TripletList triplets;
  for (int i = 0; i < pattern.rows(); ++i) {
    double off_sum = 0.0;
    for (int k = pattern.row_offsets()[static_cast<std::size_t>(i)];
         k < pattern.row_offsets()[static_cast<std::size_t>(i) + 1]; ++k) {
      const int j = pattern.column_indices()[static_cast<std::size_t>(k)];
      if (j != i) {
        const double value = rng.uniform(-1.0, -0.05);
        triplets.add(i, j, value);
        off_sum -= value;
      }
    }
    triplets.add(i, i, off_sum + rng.uniform(0.01, 1.0));
  }
  return nu::CsrMatrix::from_triplets(pattern.rows(), pattern.cols(), triplets);
}

/// Asserts that apply() is bitwise the row-by-row reference on `a` for a
/// seeded right-hand side.
void expect_scheduled_apply_matches_row_by_row(const nu::CsrMatrix& a, std::uint64_t seed) {
  Lcg rng(seed);
  std::vector<double> rhs(static_cast<std::size_t>(a.rows()));
  for (double& value : rhs) {
    value = rng.uniform(-10.0, 10.0);
  }
  const nu::Ilu0Preconditioner ilu(a);
  std::vector<double> z(rhs.size());
  ilu.apply(rhs, z);
  const std::vector<double> reference = row_by_row_ilu0_solve(a, rhs);
  ASSERT_EQ(z.size(), reference.size());
  for (std::size_t i = 0; i < z.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(z[i]), std::bit_cast<std::uint64_t>(reference[i]))
        << "row " << i << " of " << z.size();
  }
}

TEST_P(SparseReuseSweep, ScheduledIluApplyMatchesRowByRowSweepsOnRandomPatterns) {
  Lcg rng(static_cast<std::uint64_t>(GetParam()) + 2000);
  const int n = 10 + 5 * GetParam();
  const nu::CsrMatrix a = nu::CsrMatrix::from_triplets(n, n, random_pattern(rng, n));
  expect_scheduled_apply_matches_row_by_row(a, static_cast<std::uint64_t>(GetParam()));
}

struct ThermalPatternCase {
  const char* name;
  int dies;
  int axial_cells;
};

class ThermalPatternIluSchedule : public ::testing::TestWithParam<ThermalPatternCase> {};

TEST_P(ThermalPatternIluSchedule, ScheduledApplyMatchesRowByRowSweeps) {
  const ThermalPatternCase& c = GetParam();
  th::ThermalModel::GridSettings grid;
  grid.axial_cells = c.axial_cells;
  const th::StackSpec stack = c.dies == 1   ? th::power7_microchannel_stack()
                              : c.dies == 2 ? th::two_die_stack()
                                            : th::multi_die_stack(c.dies);
  const th::ThermalModel model(stack, ch::kPower7DieWidthM, ch::kPower7DieHeightM, grid);
  expect_scheduled_apply_matches_row_by_row(seeded_values(model.operator_pattern(), 11), 5);
}

INSTANTIATE_TEST_SUITE_P(Stacks, ThermalPatternIluSchedule,
                         ::testing::Values(ThermalPatternCase{"one_die_8", 1, 8},
                                           ThermalPatternCase{"one_die_16", 1, 16},
                                           ThermalPatternCase{"two_die", 2, 8},
                                           ThermalPatternCase{"three_die", 3, 8}),
                         [](const auto& info) { return std::string(info.param.name); });

TEST(IluSchedule, TwoDimensionalMeshHasOneLinePerLevel) {
  // 5-point mesh, x fastest: each x-row is a line that reads the row
  // below, so every level holds exactly one line.
  constexpr int nx = 13, ny = 9;
  nu::TripletList triplets;
  for (int iy = 0; iy < ny; ++iy) {
    for (int ix = 0; ix < nx; ++ix) {
      const int i = iy * nx + ix;
      auto couple = [&](bool present, int j) {
        if (present) {
          triplets.add(i, j, 1.0);
        }
      };
      triplets.add(i, i, 1.0);
      couple(iy > 0, i - nx);
      couple(ix > 0, i - 1);
      couple(ix + 1 < nx, i + 1);
      couple(iy + 1 < ny, i + nx);
    }
  }
  const nu::CsrMatrix pattern = nu::CsrMatrix::from_triplets(nx * ny, nx * ny, triplets);
  expect_scheduled_apply_matches_row_by_row(seeded_values(pattern, 3), 4);
}

TEST(IluSchedule, LinesThatReadAheadOfTheirStepWaitForTheirLevel) {
  // Three equal-length lines, each reading a row of its neighbor line at a
  // different offset than its own step: line k+1's first row reads line
  // k's third row (through L), and line k's last row reads line k+1's
  // second row (through U). Advancing such lines together, step by step,
  // would read rows that are not final yet.
  constexpr int length = 4, lines = 3, n = length * lines;
  nu::TripletList triplets;
  for (int i = 0; i < n; ++i) {
    triplets.add(i, i, 1.0);
    if (i % length > 0) {
      triplets.add(i, i - 1, 1.0);
    }
    if (i % length + 1 < length) {
      triplets.add(i, i + 1, 1.0);
    }
  }
  for (int line = 0; line + 1 < lines; ++line) {
    triplets.add((line + 1) * length, line * length + 2, 1.0);
    triplets.add(line * length + length - 1, (line + 1) * length + 1, 1.0);
  }
  const nu::CsrMatrix pattern = nu::CsrMatrix::from_triplets(n, n, triplets);
  expect_scheduled_apply_matches_row_by_row(seeded_values(pattern, 6), 7);
}

TEST(IluSchedule, DiagonalMatrixMakesEveryRowALine) {
  constexpr int n = 23;  // not a multiple of four: the last group is short
  nu::TripletList triplets;
  for (int i = 0; i < n; ++i) {
    triplets.add(i, i, 1.0);
  }
  const nu::CsrMatrix pattern = nu::CsrMatrix::from_triplets(n, n, triplets);
  expect_scheduled_apply_matches_row_by_row(seeded_values(pattern, 8), 9);
}

// ------------------------------------------- multi-die stack energy balance
// For any valid N-layer stack (1-3 dies, interlayer or top-only cooling,
// randomized layer thicknesses/heights/discretization and flow), the steady
// solve must conserve energy: the sum of per-die injected power equals the
// coolant enthalpy rise plus boundary losses to 1e-6 relative.

class StackEnergyBalanceSweep : public ::testing::TestWithParam<int> {};  // seed

TEST_P(StackEnergyBalanceSweep, RandomizedStacksConserveEnergy) {
  Lcg rng(static_cast<std::uint64_t>(GetParam()) + 77);
  const int dies = rng.uniform_int(1, 3);
  const bool interlayer = rng.uniform_int(0, 1) == 1;
  const int bulk_z = rng.uniform_int(1, 3);

  th::StackSpec stack = th::multi_die_stack(dies, interlayer, bulk_z);
  for (th::StackLayer& layer : stack.layers) {
    if (auto* solid = std::get_if<th::SolidLayerSpec>(&layer)) {
      if (!solid->has_heat_source && solid->name != "cap_si") {
        solid->thickness_m = rng.uniform(300e-6, 800e-6);
      }
    } else {
      std::get<th::MicrochannelLayerSpec>(layer).layer_height_m =
          rng.uniform(200e-6, 800e-6);
    }
  }
  stack.validate();

  th::ThermalModel::GridSettings grid;
  grid.axial_cells = 6;
  const th::ThermalModel model(stack, ch::kPower7DieWidthM, ch::kPower7DieHeightM, grid);
  EXPECT_EQ(model.die_count(), dies);

  const ch::Floorplan core_die = ch::make_power7_floorplan();
  const ch::Floorplan memory_die = ch::make_power7_floorplan(ch::memory_die_power_spec());
  std::vector<const ch::Floorplan*> floorplans = {&core_die};
  for (int die = 1; die < dies; ++die) {
    floorplans.push_back(&memory_die);
  }

  th::OperatingPoint op;
  op.total_flow_m3_per_s = rng.uniform(200.0, 1352.0) * 1e-6 / 60.0;
  op.inlet_temperature_k = 300.15;
  const th::ThermalSolution sol = model.solve_steady(floorplans, op);

  // Injected power bookkeeping matches the floorplans...
  double injected = 0.0;
  for (const ch::Floorplan* floorplan : floorplans) {
    injected += floorplan->total_power();
  }
  EXPECT_NEAR(sol.total_power_w, injected, injected * 1e-12);
  // ...and leaves through the coolant to 1e-6 relative (adiabatic stack).
  EXPECT_LT(sol.energy_balance_error, 1e-6)
      << "dies=" << dies << " interlayer=" << interlayer << " bulk_z=" << bulk_z;
  // The per-layer heat breakdown sums to the total absorbed heat.
  double per_layer = 0.0;
  for (const th::ChannelLayerSolution& layer : sol.channel_layers) {
    per_layer += layer.heat_absorbed_w;
  }
  EXPECT_NEAR(per_layer, sol.fluid_heat_absorbed_w, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StackEnergyBalanceSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// ------------------------------------------------------ power-map invariants
class RasterFilterSweep : public ::testing::TestWithParam<int> {};

TEST_P(RasterFilterSweep, FilteredPlusComplementEqualsBlocks) {
  const int resolution = GetParam();
  const auto fp = ch::make_power7_floorplan();
  const auto caches = ch::rasterize_power_w(
      fp, resolution, resolution, [](const ch::Block& b) { return ch::is_cache(b.type); });
  const auto rest = ch::rasterize_power_w(
      fp, resolution, resolution, [](const ch::Block& b) { return !ch::is_cache(b.type); });
  double total = 0.0;
  for (std::size_t i = 0; i < caches.data().size(); ++i) {
    total += caches.data()[i] + rest.data()[i];
  }
  const double block_power = fp.total_power() -
                             fp.background_power_density() *
                                 (fp.die_area() - fp.covered_area());
  EXPECT_NEAR(total, block_power, block_power * 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Resolutions, RasterFilterSweep, ::testing::Values(7, 32, 101));

}  // namespace
