// Allocation guard for the steady-path hot loops: the global operator
// new is replaced with a counter, and the per-station electrochemistry,
// the wall closure, the CSR/Krylov kernels, a preconditioned BiCGSTAB solve
// and the rack queries of every fleet replay step must not allocate. A passing `ensure*` check must not
// either, whatever its message length (libstdc++ stores at most 15
// characters without allocating).
//
// Kept out of the sanitizer lane: the replacement operator new takes the
// place of the one the ASan runtime defines to check new/delete pairing.
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "core/system_config.h"
#include "electrochem/butler_volmer.h"
#include "electrochem/nernst.h"
#include "electrochem/vanadium.h"
#include "fleet/rack.h"
#include "flowcell/channel_spec.h"
#include "flowcell/film_model.h"
#include "flowcell/wall_closure.h"
#include "numerics/contracts.h"
#include "numerics/linear_solvers.h"
#include "numerics/sparse_matrix.h"

namespace {

std::atomic<long long> g_allocations{0};

/// Number of calls to the global operator new made while running `f`.
template <typename F>
long long allocations_during(F&& f) {
  const long long before = g_allocations.load(std::memory_order_relaxed);
  f();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace ec = brightsi::electrochem;
namespace fc = brightsi::flowcell;
namespace fl = brightsi::fleet;
namespace nm = brightsi::numerics;

namespace {

// Run-time inputs, so no call below folds into a constant.
volatile double g_temperature_k = 300.0;

fc::ClosureParameters closure_at(double temperature_k) {
  fc::ClosureParameters p;
  p.temperature_k = temperature_k;
  p.anode_exchange_current_a_per_m2 = 500.0;
  p.cathode_exchange_current_a_per_m2 = 100.0;
  p.anode_standard_potential_v = -0.255;
  p.cathode_standard_potential_v = 0.991;
  p.anode_wall_mass_transfer_m_per_s = 1e-4;
  p.cathode_wall_mass_transfer_m_per_s = 1e-4;
  p.area_specific_resistance_ohm_m2 = 5e-5;
  return p;
}

/// 1-D Laplacian (tridiagonal, SPD) of dimension n as triplets.
nm::TripletList laplacian_triplets(int n) {
  nm::TripletList t;
  for (int i = 0; i < n; ++i) {
    t.add(i, i, 2.0 + 0.01 * i);
    if (i > 0) {
      t.add(i, i - 1, -1.0);
    }
    if (i + 1 < n) {
      t.add(i, i + 1, -1.0);
    }
  }
  return t;
}

TEST(AllocationFree, PassingChecksWithLongMessages) {
  const double t = g_temperature_k;
  EXPECT_EQ(allocations_during([&] {
              brightsi::ensure(t > 0.0, "a message well beyond the small-string buffer");
              brightsi::ensure_positive(t, "a parameter name beyond fifteen characters");
              brightsi::ensure_non_negative(t, "a parameter name beyond fifteen characters");
              brightsi::ensure_finite(t, "a parameter name beyond fifteen characters");
            }),
            0);
}

TEST(AllocationFree, ElectrochemistryKernels) {
  const double t = g_temperature_k;
  const ec::FlowCellChemistry chemistry = ec::power7_array_chemistry();
  ec::ButlerVolmerState state;
  state.exchange_current_density_a_per_m2 = 50.0;
  state.anodic_transfer_coefficient = 0.3;  // the general (Newton) branch
  state.temperature_k = t;
  double sink = 0.0;
  EXPECT_EQ(allocations_during([&] {
              sink += ec::nernst_potential(chemistry.anode.couple, 80.0, 920.0, t);
              sink += ec::overpotential_for_current(state, 120.0);
              state.anodic_transfer_coefficient = 0.5;  // the closed-form branch
              sink += ec::overpotential_for_current(state, -120.0);
              sink += ec::exchange_current_density(chemistry.cathode, 992.0, 8.0, t);
              sink += chemistry.anode.kinetic_rate_m_per_s.at(t);
            }),
            0);
  EXPECT_TRUE(std::isfinite(sink));
}

TEST(AllocationFree, WallClosure) {
  const fc::ClosureParameters p = closure_at(g_temperature_k);
  const fc::WallConcentrations wall{920.0, 80.0, 992.0, 8.0};
  fc::ClosureResult result;
  EXPECT_EQ(allocations_during([&] { result = fc::solve_wall_current(p, wall, 0.9); }), 0);
  EXPECT_GT(result.total_current_density, 0.0);
  EXPECT_FALSE(result.clamped);  // the Brent branch ran
}

TEST(AllocationFree, RackQueriesOfTheReplayWalk) {
  const fl::RackSpec rack = fl::make_demo_rack(brightsi::core::power7_system_config(), 4, 2, 2);
  int segments = 0;
  double heat_capacity = 0.0;
  EXPECT_EQ(allocations_during([&] {
              segments += rack.segment_count(0) + rack.segment_count(1);
              heat_capacity += rack.coolant_reference().volumetric_heat_capacity_j_per_m3_k;
            }),
            0);
  EXPECT_EQ(segments, 4);
  EXPECT_GT(heat_capacity, 0.0);
}

TEST(AllocationFree, CsrRefillWithPopulatedSlotCache) {
  const nm::TripletList triplets = laplacian_triplets(64);
  nm::CsrMatrix a = nm::CsrMatrix::from_triplets(64, 64, triplets);
  std::vector<int> slots;
  a.refill_from_triplets(triplets, &slots);  // populates the cache
  ASSERT_EQ(slots.size(), triplets.size());
  EXPECT_EQ(allocations_during([&] { a.refill_from_triplets(triplets, &slots); }), 0);
}

TEST(AllocationFree, KrylovKernels) {
  const nm::CsrMatrix a = nm::CsrMatrix::from_triplets(64, 64, laplacian_triplets(64));
  const nm::Ilu0Preconditioner ilu(a);
  const double t = g_temperature_k;
  const std::vector<double> x(64, t);
  std::vector<double> y(64, 0.0);
  std::vector<double> z(64, 0.0);
  EXPECT_EQ(allocations_during([&] {
              a.multiply(x, y);
              ilu.apply(y, z);
            }),
            0);
  EXPECT_GT(z[0], 0.0);
}

TEST(AllocationFree, Ilu0PreconditionedBicgstabWithASizedWorkspace) {
  const nm::CsrMatrix a = nm::CsrMatrix::from_triplets(64, 64, laplacian_triplets(64));
  const nm::Ilu0Preconditioner ilu(a);
  const double t = g_temperature_k;
  const std::vector<double> b(64, t);
  std::vector<double> x(64, 0.0);
  nm::KrylovWorkspace workspace;
  workspace.resize(64);
  nm::SolverReport report;
  EXPECT_EQ(allocations_during([&] { report = nm::solve_bicgstab(a, b, x, &ilu, {}, &workspace); }),
            0);
  EXPECT_TRUE(report.converged);
  EXPECT_GT(report.iterations, 0);
}

TEST(AllocationFree, FilmModelAllocatesPerSolveNotPerStation) {
  fc::ChannelOperatingConditions conditions;
  conditions.volumetric_flow_m3_per_s = 676e-6 / 60.0 / 88.0;
  conditions.inlet_temperature_k = g_temperature_k;
  conditions.axial_temperature_k = {300.0, 305.0, 310.0};
  auto allocations_at = [&](int axial_steps) {
    const fc::FilmChannelModel model(fc::power7_channel_geometry(),
                                     ec::power7_array_chemistry(), axial_steps);
    double current = 0.0;
    const long long count = allocations_during(
        [&] { current = model.solve_at_voltage(0.9, conditions).current_a; });
    EXPECT_GT(current, 0.0);
    return count;
  };
  EXPECT_EQ(allocations_at(60), allocations_at(200));
}

}  // namespace
