// Unit and property tests of the numerics substrate.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>

#include <gtest/gtest.h>

#include "numerics/contracts.h"
#include "numerics/dense_matrix.h"
#include "numerics/grid.h"
#include "numerics/interpolation.h"
#include "numerics/linear_solvers.h"
#include "numerics/model_reduction.h"
#include "numerics/root_finding.h"
#include "numerics/sparse_matrix.h"
#include "numerics/tridiagonal.h"

namespace nm = brightsi::numerics;

namespace {

/// Deterministic RNG for reproducible property tests.
std::mt19937& rng() {
  static std::mt19937 gen(12345);
  return gen;
}

/// Random diagonally dominant SPD matrix of dimension n (as triplets).
nm::CsrMatrix random_spd(int n, double density = 0.2) {
  std::uniform_real_distribution<double> value(-1.0, 1.0);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  nm::TripletList t;
  std::vector<double> row_sum(static_cast<std::size_t>(n), 0.0);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (coin(rng()) < density) {
        const double v = value(rng());
        t.add(i, j, v);
        t.add(j, i, v);
        row_sum[static_cast<std::size_t>(i)] += std::abs(v);
        row_sum[static_cast<std::size_t>(j)] += std::abs(v);
      }
    }
  }
  for (int i = 0; i < n; ++i) {
    t.add(i, i, row_sum[static_cast<std::size_t>(i)] + 1.0);
  }
  return nm::CsrMatrix::from_triplets(n, n, t);
}

/// Random diagonally dominant nonsymmetric matrix.
nm::CsrMatrix random_nonsym(int n, double density = 0.2) {
  std::uniform_real_distribution<double> value(-1.0, 1.0);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  nm::TripletList t;
  std::vector<double> row_sum(static_cast<std::size_t>(n), 0.0);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (i != j && coin(rng()) < density) {
        const double v = value(rng());
        t.add(i, j, v);
        row_sum[static_cast<std::size_t>(i)] += std::abs(v);
      }
    }
  }
  for (int i = 0; i < n; ++i) {
    t.add(i, i, row_sum[static_cast<std::size_t>(i)] + 1.0);
  }
  return nm::CsrMatrix::from_triplets(n, n, t);
}

std::vector<double> random_vector(int n) {
  std::uniform_real_distribution<double> value(-2.0, 2.0);
  std::vector<double> v(static_cast<std::size_t>(n));
  for (double& x : v) {
    x = value(rng());
  }
  return v;
}

// ---------------------------------------------------------------- contracts
TEST(Contracts, EnsureThrowsWithMessage) {
  EXPECT_THROW(brightsi::ensure(false, "boom"), std::invalid_argument);
  EXPECT_NO_THROW(brightsi::ensure(true, "ok"));
}

TEST(Contracts, EnsurePositiveRejectsZeroNegativeNan) {
  EXPECT_THROW(brightsi::ensure_positive(0.0, "x"), std::invalid_argument);
  EXPECT_THROW(brightsi::ensure_positive(-1.0, "x"), std::invalid_argument);
  EXPECT_THROW(brightsi::ensure_positive(std::nan(""), "x"), std::invalid_argument);
  EXPECT_NO_THROW(brightsi::ensure_positive(1e-300, "x"));
}

TEST(Contracts, EnsureNonNegativeAcceptsZero) {
  EXPECT_NO_THROW(brightsi::ensure_non_negative(0.0, "x"));
  EXPECT_THROW(brightsi::ensure_non_negative(-1e-12, "x"), std::invalid_argument);
}

TEST(Contracts, EnsureFiniteRejectsInf) {
  EXPECT_THROW(brightsi::ensure_finite(INFINITY, "x"), std::invalid_argument);
  EXPECT_NO_THROW(brightsi::ensure_finite(-5.0, "x"));
}

TEST(Contracts, FailureTextIsExact) {
  auto message_of = [](auto&& check) -> std::string {
    try {
      check();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "(no throw)";
  };
  EXPECT_EQ(message_of([] { brightsi::ensure(false, "boom"); }), "boom");
  const std::string layer = "die";
  EXPECT_EQ(message_of([&] {
              brightsi::ensure(false, "layer z_cells (" + layer + ") must be >= 1");
            }),
            "layer z_cells (die) must be >= 1");
  EXPECT_EQ(message_of([] { brightsi::ensure_positive(0.0, "x"); }),
            "x must be positive and finite, got 0.000000");
  EXPECT_EQ(message_of([&] {
              brightsi::ensure_positive(-2.5, "layer thickness (" + layer + ")");
            }),
            "layer thickness (die) must be positive and finite, got -2.500000");
  EXPECT_EQ(message_of([] { brightsi::ensure_non_negative(-1e-12, "total flow"); }),
            "total flow must be non-negative and finite, got -0.000000");
  EXPECT_EQ(message_of([] { brightsi::ensure_finite(INFINITY, "CsrMatrix triplet value"); }),
            "CsrMatrix triplet value must be finite, got inf");
}

// ------------------------------------------------------------- sparse matrix
TEST(SparseMatrix, BuildsAndSumsDuplicates) {
  nm::TripletList t;
  t.add(0, 0, 1.0);
  t.add(0, 0, 2.0);
  t.add(1, 0, -1.0);
  t.add(0, 1, 4.0);
  const auto m = nm::CsrMatrix::from_triplets(2, 2, t);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 4.0);
  EXPECT_DOUBLE_EQ(m.at(1, 0), -1.0);
  EXPECT_DOUBLE_EQ(m.at(1, 1), 0.0);
  EXPECT_EQ(m.non_zeros(), 3u);
}

TEST(SparseMatrix, RejectsOutOfRangeIndices) {
  nm::TripletList t;
  t.add(2, 0, 1.0);
  EXPECT_THROW(nm::CsrMatrix::from_triplets(2, 2, t), std::invalid_argument);
}

TEST(SparseMatrix, RejectsNonFiniteValues) {
  nm::TripletList t;
  t.add(0, 0, std::nan(""));
  EXPECT_THROW(nm::CsrMatrix::from_triplets(1, 1, t), std::invalid_argument);
}

TEST(SparseMatrix, MultiplyMatchesDense) {
  const auto m = random_nonsym(30);
  const auto x = random_vector(30);
  std::vector<double> y(30);
  m.multiply(x, y);
  for (int i = 0; i < 30; ++i) {
    double expected = 0.0;
    for (int j = 0; j < 30; ++j) {
      expected += m.at(i, j) * x[static_cast<std::size_t>(j)];
    }
    EXPECT_NEAR(y[static_cast<std::size_t>(i)], expected, 1e-12);
  }
}

TEST(SparseMatrix, DiagonalExtraction) {
  const auto m = random_spd(20);
  const auto d = m.diagonal();
  for (int i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(d[static_cast<std::size_t>(i)], m.at(i, i));
  }
}

TEST(SparseMatrix, ResidualComputesBMinusAx) {
  const auto m = random_spd(10);
  const auto x = random_vector(10);
  std::vector<double> b(10, 0.0);
  m.multiply(x, b);
  std::vector<double> r(10);
  const double norm = m.residual(b, x, r);
  EXPECT_NEAR(norm, 0.0, 1e-12);
}

// ------------------------------------------------------------------ solvers
class CgSolverSizes : public ::testing::TestWithParam<int> {};

TEST_P(CgSolverSizes, SolvesRandomSpdSystems) {
  const int n = GetParam();
  const auto a = random_spd(n);
  const auto x_true = random_vector(n);
  std::vector<double> b(static_cast<std::size_t>(n));
  a.multiply(x_true, b);

  std::vector<double> x(static_cast<std::size_t>(n), 0.0);
  const nm::Ilu0Preconditioner precond(a);
  const auto report = nm::solve_cg(a, b, x, &precond);
  ASSERT_TRUE(report.converged);
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(x[static_cast<std::size_t>(i)], x_true[static_cast<std::size_t>(i)], 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CgSolverSizes, ::testing::Values(2, 5, 17, 64, 200));

class BicgstabSolverSizes : public ::testing::TestWithParam<int> {};

TEST_P(BicgstabSolverSizes, SolvesRandomNonsymmetricSystems) {
  const int n = GetParam();
  const auto a = random_nonsym(n);
  const auto x_true = random_vector(n);
  std::vector<double> b(static_cast<std::size_t>(n));
  a.multiply(x_true, b);

  std::vector<double> x(static_cast<std::size_t>(n), 0.0);
  const nm::Ilu0Preconditioner precond(a);
  const auto report = nm::solve_bicgstab(a, b, x, &precond);
  ASSERT_TRUE(report.converged);
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(x[static_cast<std::size_t>(i)], x_true[static_cast<std::size_t>(i)], 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, BicgstabSolverSizes, ::testing::Values(2, 5, 17, 64, 200));

TEST(Solvers, CgSolves1dLaplacianAgainstAnalytic) {
  // -u'' = 1 on (0,1), u(0)=u(1)=0 -> u(x) = x(1-x)/2.
  const int n = 101;
  const double h = 1.0 / (n + 1);
  nm::TripletList t;
  for (int i = 0; i < n; ++i) {
    t.add(i, i, 2.0 / (h * h));
    if (i > 0) {
      t.add(i, i - 1, -1.0 / (h * h));
    }
    if (i < n - 1) {
      t.add(i, i + 1, -1.0 / (h * h));
    }
  }
  const auto a = nm::CsrMatrix::from_triplets(n, n, t);
  std::vector<double> b(static_cast<std::size_t>(n), 1.0);
  std::vector<double> x(static_cast<std::size_t>(n), 0.0);
  const auto report = nm::solve_cg(a, b, x);
  ASSERT_TRUE(report.converged);
  for (int i = 0; i < n; ++i) {
    const double xi = (i + 1) * h;
    EXPECT_NEAR(x[static_cast<std::size_t>(i)], xi * (1.0 - xi) / 2.0, 1e-8);
  }
}

TEST(Solvers, ZeroRhsGivesZeroSolution) {
  const auto a = random_spd(20);
  std::vector<double> b(20, 0.0);
  std::vector<double> x(20, 1.0);  // nonzero initial guess
  const auto report = nm::solve_cg(a, b, x);
  ASSERT_TRUE(report.converged);
  for (const double v : x) {
    EXPECT_NEAR(v, 0.0, 1e-9);
  }
}

TEST(Solvers, ReportsResidualOnConvergence) {
  const auto a = random_spd(30);
  const auto b = random_vector(30);
  std::vector<double> x(30, 0.0);
  const auto report = nm::solve_cg(a, b, x);
  ASSERT_TRUE(report.converged);
  std::vector<double> r(30);
  EXPECT_NEAR(a.residual(b, x, r), report.residual_norm, 1e-9);
}

TEST(Solvers, Ilu0ExactForTriangularPattern) {
  // For a lower-triangular matrix ILU(0) is exact: one application solves.
  nm::TripletList t;
  t.add(0, 0, 2.0);
  t.add(1, 0, -1.0);
  t.add(1, 1, 3.0);
  t.add(2, 1, -1.0);
  t.add(2, 2, 4.0);
  const auto a = nm::CsrMatrix::from_triplets(3, 3, t);
  const nm::Ilu0Preconditioner precond(a);
  const std::vector<double> r = {2.0, 1.0, 3.0};
  std::vector<double> z(3);
  precond.apply(r, z);
  std::vector<double> az(3);
  a.multiply(z, az);
  for (int i = 0; i < 3; ++i) {
    EXPECT_NEAR(az[static_cast<std::size_t>(i)], r[static_cast<std::size_t>(i)], 1e-12);
  }
}

TEST(Solvers, Ilu0ThrowsOnStructurallyZeroDiagonal) {
  nm::TripletList t;
  t.add(0, 1, 1.0);
  t.add(1, 0, 1.0);
  const auto a = nm::CsrMatrix::from_triplets(2, 2, t);
  EXPECT_THROW(nm::Ilu0Preconditioner{a}, std::runtime_error);
}

// ------------------------------------------------------- solve-state reuse
TEST(SparseMatrix, RefillMatchesFreshBuildIncludingDuplicates) {
  nm::TripletList structure;
  structure.add(0, 0, 1.0);
  structure.add(0, 1, 1.0);
  structure.add(1, 1, 1.0);
  structure.add(1, 0, 1.0);
  structure.add(2, 2, 1.0);
  auto a = nm::CsrMatrix::from_triplets(3, 3, structure);

  nm::TripletList refill;
  refill.add(1, 0, 4.0);
  refill.add(0, 0, 2.0);
  refill.add(0, 1, -1.0);
  refill.add(0, 0, 0.5);  // duplicate stamp, summed on refill
  refill.add(2, 2, 7.0);
  a.refill_from_triplets(refill);

  EXPECT_DOUBLE_EQ(a.at(0, 0), 2.5);
  EXPECT_DOUBLE_EQ(a.at(0, 1), -1.0);
  EXPECT_DOUBLE_EQ(a.at(1, 0), 4.0);
  EXPECT_DOUBLE_EQ(a.at(1, 1), 0.0);  // not restamped -> zeroed
  EXPECT_DOUBLE_EQ(a.at(2, 2), 7.0);
  EXPECT_EQ(a.non_zeros(), 5u);  // pattern untouched
}

TEST(SparseMatrix, RefillRejectsEntriesOutsideThePattern) {
  nm::TripletList structure;
  structure.add(0, 0, 1.0);
  structure.add(1, 1, 1.0);
  auto a = nm::CsrMatrix::from_triplets(2, 2, structure);

  nm::TripletList off_pattern;
  off_pattern.add(0, 1, 1.0);
  EXPECT_THROW(a.refill_from_triplets(off_pattern), std::invalid_argument);
  nm::TripletList out_of_range;
  out_of_range.add(5, 0, 1.0);
  EXPECT_THROW(a.refill_from_triplets(out_of_range), std::invalid_argument);
}

TEST(SparseMatrix, RefillSlotCacheReproducesTheSearchPath) {
  const auto reference = random_nonsym(40);
  auto reused = reference;  // same pattern, values to be overwritten

  // Stamp every stored entry in a scrambled but fixed order, twice: the
  // first refill builds the slot cache, the second uses it.
  nm::TripletList stamps;
  for (int r = 0; r < reference.rows(); ++r) {
    for (int k = reference.row_offsets()[static_cast<std::size_t>(r)];
         k < reference.row_offsets()[static_cast<std::size_t>(r) + 1]; ++k) {
      stamps.add(r, reference.column_indices()[static_cast<std::size_t>(k)],
                 reference.values()[static_cast<std::size_t>(k)] * 2.0);
    }
  }
  std::vector<int> slots;
  reused.refill_from_triplets(stamps, &slots);
  EXPECT_EQ(slots.size(), stamps.size());
  const std::vector<double> first = reused.values();
  reused.refill_from_triplets(stamps, &slots);  // cached path
  EXPECT_EQ(reused.values(), first);
  for (int r = 0; r < reference.rows(); ++r) {
    for (int c = 0; c < reference.cols(); ++c) {
      EXPECT_DOUBLE_EQ(reused.at(r, c), 2.0 * reference.at(r, c));
    }
  }
  // A cache of the wrong length is rejected rather than trusted.
  nm::TripletList shorter;
  shorter.add(0, 0, 1.0);
  EXPECT_THROW(reused.refill_from_triplets(shorter, &slots), std::invalid_argument);
}

TEST(Solvers, Ilu0RefactorMatchesFreshFactorization) {
  const auto a1 = random_nonsym(50);

  // Same pattern, different coefficients: scale every value.
  nm::TripletList scaled;
  for (int r = 0; r < a1.rows(); ++r) {
    for (int k = a1.row_offsets()[static_cast<std::size_t>(r)];
         k < a1.row_offsets()[static_cast<std::size_t>(r) + 1]; ++k) {
      scaled.add(r, a1.column_indices()[static_cast<std::size_t>(k)],
                 a1.values()[static_cast<std::size_t>(k)] * (r % 2 == 0 ? 1.5 : 0.75));
    }
  }
  auto a2 = a1;
  a2.refill_from_triplets(scaled);

  nm::Ilu0Preconditioner reused(a1);
  reused.refactor(a2);
  const nm::Ilu0Preconditioner fresh(a2);

  const std::vector<double> r = random_vector(50);
  std::vector<double> z_reused(50), z_fresh(50);
  reused.apply(r, z_reused);
  fresh.apply(r, z_fresh);
  for (int i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(z_reused[static_cast<std::size_t>(i)],
                     z_fresh[static_cast<std::size_t>(i)]);
  }
}

TEST(Solvers, Ilu0RefactorRejectsADifferentPattern) {
  const auto a = random_nonsym(20);
  nm::Ilu0Preconditioner precond(a);
  nm::TripletList t;
  t.add(0, 0, 1.0);
  t.add(1, 1, 1.0);
  const auto other = nm::CsrMatrix::from_triplets(2, 2, t);
  EXPECT_THROW(precond.refactor(other), std::invalid_argument);
}

TEST(Solvers, WorkspaceReuseGivesIdenticalSolutions) {
  // The same workspace serves BiCGSTAB and CG across systems of different
  // sizes, and never changes the computed iterates.
  nm::KrylovWorkspace workspace;

  const auto a = random_nonsym(60);
  const std::vector<double> b = random_vector(60);
  std::vector<double> x_ws(60, 0.0), x_local(60, 0.0);
  const nm::Ilu0Preconditioner precond(a);
  const auto report_ws = nm::solve_bicgstab(a, b, x_ws, &precond, {}, &workspace);
  const auto report_local = nm::solve_bicgstab(a, b, x_local, &precond);
  ASSERT_TRUE(report_ws.converged);
  EXPECT_EQ(report_ws.iterations, report_local.iterations);
  EXPECT_EQ(x_ws, x_local);

  const auto spd = random_spd(25);
  const std::vector<double> b2 = random_vector(25);
  std::vector<double> y_ws(25, 0.0), y_local(25, 0.0);
  const auto cg_ws = nm::solve_cg(spd, b2, y_ws, nullptr, {}, &workspace);
  const auto cg_local = nm::solve_cg(spd, b2, y_local);
  ASSERT_TRUE(cg_ws.converged);
  EXPECT_EQ(cg_ws.iterations, cg_local.iterations);
  EXPECT_EQ(y_ws, y_local);
}

TEST(Solvers, ReportsCarrySolveWallTime) {
  const auto a = random_nonsym(80);
  const std::vector<double> b = random_vector(80);
  std::vector<double> x(80, 0.0);
  const auto report = nm::solve_bicgstab(a, b, x);
  ASSERT_TRUE(report.converged);
  EXPECT_GE(report.solve_time_s, 0.0);
  EXPECT_LT(report.solve_time_s, 60.0);  // sanity: a wall time, not garbage
}

// --------------------------------------------------------------- tridiagonal
TEST(Tridiagonal, SolvesKnownSystem) {
  // [2 -1; -1 2 -1; -1 2] x = [1 0 1] -> x = [1 1 1].
  std::vector<double> lower = {0.0, -1.0, -1.0};
  std::vector<double> diag = {2.0, 2.0, 2.0};
  std::vector<double> upper = {-1.0, -1.0, 0.0};
  std::vector<double> rhs = {1.0, 0.0, 1.0};
  nm::TridiagonalSolver().solve(lower, diag, upper, rhs);
  for (const double v : rhs) {
    EXPECT_NEAR(v, 1.0, 1e-12);
  }
}

TEST(Tridiagonal, MatchesDenseSolverOnRandomSystems) {
  std::uniform_real_distribution<double> value(0.1, 1.0);
  for (int trial = 0; trial < 10; ++trial) {
    const int n = 5 + trial * 7;
    std::vector<double> lower(static_cast<std::size_t>(n)), diag(static_cast<std::size_t>(n)),
        upper(static_cast<std::size_t>(n)), rhs(static_cast<std::size_t>(n));
    nm::DenseMatrix dense(n, n, 0.0);
    for (int i = 0; i < n; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      lower[idx] = (i > 0) ? -value(rng()) : 0.0;
      upper[idx] = (i < n - 1) ? -value(rng()) : 0.0;
      diag[idx] = 2.5;  // diagonally dominant
      rhs[idx] = value(rng());
      dense.at(i, i) = diag[idx];
      if (i > 0) {
        dense.at(i, i - 1) = lower[idx];
      }
      if (i < n - 1) {
        dense.at(i, i + 1) = upper[idx];
      }
    }
    const auto expected = nm::solve_dense(dense, rhs);
    nm::TridiagonalSolver().solve(lower, diag, upper, rhs);
    for (int i = 0; i < n; ++i) {
      EXPECT_NEAR(rhs[static_cast<std::size_t>(i)], expected[static_cast<std::size_t>(i)],
                  1e-10);
    }
  }
}

TEST(Tridiagonal, SingleElementSystem) {
  std::vector<double> lower = {0.0}, diag = {4.0}, upper = {0.0}, rhs = {8.0};
  nm::TridiagonalSolver().solve(lower, diag, upper, rhs);
  EXPECT_DOUBLE_EQ(rhs[0], 2.0);
}

TEST(Tridiagonal, ThrowsOnZeroPivot) {
  std::vector<double> lower = {0.0, 0.0}, diag = {0.0, 1.0}, upper = {0.0, 0.0},
                      rhs = {1.0, 1.0};
  EXPECT_THROW(nm::TridiagonalSolver().solve(lower, diag, upper, rhs), std::runtime_error);
}

TEST(Tridiagonal, WorkspaceReuseAcrossSizes) {
  nm::TridiagonalSolver solver(4);
  std::vector<double> lower = {0.0, -1.0}, diag = {2.0, 2.0}, upper = {-1.0, 0.0},
                      rhs = {1.0, 1.0};
  solver.solve(lower, diag, upper, rhs);
  EXPECT_NEAR(rhs[0], 1.0, 1e-12);
  // Larger than initial workspace: must resize transparently.
  const int n = 50;
  std::vector<double> l2(n, -1.0), d2(n, 3.0), u2(n, -1.0), r2(n, 1.0);
  l2[0] = 0.0;
  u2[static_cast<std::size_t>(n - 1)] = 0.0;
  EXPECT_NO_THROW(solver.solve(l2, d2, u2, r2));
}

// -------------------------------------------------------------------- dense
TEST(DenseMatrix, LuSolveRoundTrip) {
  const int n = 12;
  std::uniform_real_distribution<double> value(-1.0, 1.0);
  nm::DenseMatrix a(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      a.at(i, j) = value(rng()) + (i == j ? static_cast<double>(n) : 0.0);
    }
  }
  const auto x_true = random_vector(n);
  std::vector<double> b(static_cast<std::size_t>(n));
  a.multiply(x_true, b);
  const auto x = nm::solve_dense(a, b);
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(x[static_cast<std::size_t>(i)], x_true[static_cast<std::size_t>(i)], 1e-9);
  }
}

TEST(DenseMatrix, SingularMatrixThrows) {
  nm::DenseMatrix a(2, 2, 1.0);  // rank 1
  EXPECT_THROW(nm::LuFactorization{a}, std::runtime_error);
}

// ------------------------------------------------------------- root finding
TEST(RootFinding, BrentFindsCosRoot) {
  const auto r = nm::find_root_brent([](double x) { return std::cos(x); }, 1.0, 2.0);
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.root, M_PI / 2.0, 1e-10);
}

TEST(RootFinding, BrentHandlesRootAtBracketEnd) {
  const auto r = nm::find_root_brent([](double x) { return x; }, 0.0, 1.0);
  ASSERT_TRUE(r.converged);
  EXPECT_DOUBLE_EQ(r.root, 0.0);
}

TEST(RootFinding, BrentThrowsWithoutSignChange) {
  EXPECT_THROW(
      nm::find_root_brent([](double x) { return x * x + 1.0; }, -1.0, 1.0),
      std::invalid_argument);
}

TEST(RootFinding, BrentFromKnownEndsSkipsTheirEvaluationBitwise) {
  int calls = 0;
  auto f = [&calls](double x) {
    ++calls;
    return std::exp(x) - 3.0 * x * x;
  };
  const nm::RootResult plain = nm::find_root_brent(f, 0.0, 2.0, 1e-14, 0.0, 64);
  const int plain_calls = calls;

  const nm::BracketEnd lo{0.0, f(0.0)};
  const nm::BracketEnd hi{2.0, f(2.0)};
  calls = 0;
  const nm::RootResult known = nm::find_root_brent(f, lo, hi, 1e-14, 0.0, 64);
  ASSERT_TRUE(plain.converged);
  EXPECT_EQ(calls, plain_calls - 2);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(known.root), std::bit_cast<std::uint64_t>(plain.root));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(known.function_value),
            std::bit_cast<std::uint64_t>(plain.function_value));
  EXPECT_EQ(known.iterations, plain.iterations);
  EXPECT_EQ(known.converged, plain.converged);
}

class BrentPolynomials : public ::testing::TestWithParam<double> {};

TEST_P(BrentPolynomials, FindsCubeRoots) {
  const double target = GetParam();
  const auto r = nm::find_root_brent(
      [target](double x) { return x * x * x - target; }, -10.0, 10.0, 1e-14);
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.root, std::cbrt(target), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Targets, BrentPolynomials,
                         ::testing::Values(-8.0, -1.0, 0.001, 1.0, 27.0, 500.0));

TEST(RootFinding, NewtonConvergesOnSmoothFunction) {
  const auto r = nm::find_root_newton(
      [](double x) {
        return std::pair<double, double>(x * x - 2.0, 2.0 * x);
      },
      1.0);
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.root, std::sqrt(2.0), 1e-10);
}

TEST(RootFinding, NewtonDampsOvershoot) {
  // atan has a famous Newton divergence from large seeds; damping rescues.
  const auto r = nm::find_root_newton(
      [](double x) {
        return std::pair<double, double>(std::atan(x), 1.0 / (1.0 + x * x));
      },
      3.0, 1e-12, 200);
  EXPECT_NEAR(r.root, 0.0, 1e-6);
}

// ------------------------------------------------------------ interpolation
TEST(Interpolation, ExactAtNodesAndLinearBetween) {
  const nm::PiecewiseLinearTable table({0.0, 1.0, 3.0}, {0.0, 2.0, 4.0});
  EXPECT_DOUBLE_EQ(table(0.0), 0.0);
  EXPECT_DOUBLE_EQ(table(1.0), 2.0);
  EXPECT_DOUBLE_EQ(table(3.0), 4.0);
  EXPECT_DOUBLE_EQ(table(0.5), 1.0);
  EXPECT_DOUBLE_EQ(table(2.0), 3.0);
}

TEST(Interpolation, ClampPolicyHoldsEndpoints) {
  const nm::PiecewiseLinearTable table({0.0, 1.0}, {5.0, 7.0});
  EXPECT_DOUBLE_EQ(table(-10.0), 5.0);
  EXPECT_DOUBLE_EQ(table(10.0), 7.0);
}

TEST(Interpolation, ThrowPolicyRejectsOutOfRange) {
  const nm::PiecewiseLinearTable table({0.0, 1.0}, {5.0, 7.0},
                                       nm::ExtrapolationPolicy::kThrow);
  EXPECT_THROW((void)table(1.5), std::out_of_range);
}

TEST(Interpolation, LinearPolicyExtrapolates) {
  const nm::PiecewiseLinearTable table({0.0, 1.0}, {0.0, 2.0},
                                       nm::ExtrapolationPolicy::kLinear);
  EXPECT_DOUBLE_EQ(table(2.0), 4.0);
  EXPECT_DOUBLE_EQ(table(-1.0), -2.0);
}

TEST(Interpolation, RejectsNonMonotoneXs) {
  EXPECT_THROW(nm::PiecewiseLinearTable({0.0, 0.0}, {1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW(nm::PiecewiseLinearTable({1.0, 0.0}, {1.0, 2.0}), std::invalid_argument);
}

// -------------------------------------------------------------------- grids
TEST(Grid, Grid2IndexingRoundTrip) {
  nm::Grid2<double> g(4, 3, 0.0);
  g(2, 1) = 7.5;
  EXPECT_DOUBLE_EQ(g.at(2, 1), 7.5);
  EXPECT_EQ(g.size(), 12u);
  EXPECT_THROW((void)g.at(4, 0), std::invalid_argument);
  EXPECT_THROW((void)g.at(0, 3), std::invalid_argument);
}

TEST(Grid, Grid3IndexingRoundTrip) {
  nm::Grid3<double> g(3, 4, 5, 1.0);
  g(2, 3, 4) = -2.0;
  EXPECT_DOUBLE_EQ(g.at(2, 3, 4), -2.0);
  EXPECT_EQ(g.size(), 60u);
  EXPECT_THROW((void)g.at(3, 0, 0), std::invalid_argument);
}

TEST(Grid, FillResetsAllValues) {
  nm::Grid2<double> g(5, 5, 1.0);
  g.fill(3.0);
  for (const double v : g.data()) {
    EXPECT_DOUBLE_EQ(v, 3.0);
  }
}

TEST(Grid, RejectsNonPositiveDimensions) {
  EXPECT_THROW((nm::Grid2<double>(0, 3)), std::invalid_argument);
  EXPECT_THROW((nm::Grid3<double>(2, -1, 3)), std::invalid_argument);
}

// ------------------------------------------------------- model reduction

TEST(OrthonormalBasis, AppendOrthonormalizesAndDropsDependents) {
  nm::OrthonormalBasis basis(3);
  EXPECT_TRUE(basis.append(std::vector<double>{2.0, 0.0, 0.0}, 1e-12));
  // A scaled copy of a stored column is already in the span: rejected.
  EXPECT_FALSE(basis.append(std::vector<double>{-7.0, 0.0, 0.0}, 1e-12));
  EXPECT_TRUE(basis.append(std::vector<double>{1.0, 1.0, 0.0}, 1e-12));
  ASSERT_EQ(basis.size(), 2);
  // V'V = I: each column is unit length and orthogonal to the others.
  for (int a = 0; a < basis.size(); ++a) {
    for (int b = 0; b < basis.size(); ++b) {
      double dot = 0.0;
      for (std::size_t i = 0; i < basis.dimension(); ++i) {
        dot += basis.column(a)[i] * basis.column(b)[i];
      }
      EXPECT_NEAR(dot, a == b ? 1.0 : 0.0, 1e-14) << a << "," << b;
    }
  }
}

TEST(OrthonormalBasis, ProjectThenLiftReproducesVectorsInTheSpan) {
  nm::OrthonormalBasis basis(4);
  ASSERT_TRUE(basis.append(std::vector<double>{1.0, 2.0, 0.0, 0.0}, 1e-12));
  ASSERT_TRUE(basis.append(std::vector<double>{0.0, 1.0, 1.0, 0.0}, 1e-12));
  const std::vector<double> in_span = {2.0, 5.0, 1.0, 0.0};  // 2*v1 + 1*v2
  std::vector<double> coefficients(2), lifted(4);
  basis.project(in_span, coefficients);
  basis.lift(coefficients, lifted);
  for (std::size_t i = 0; i < lifted.size(); ++i) {
    EXPECT_NEAR(lifted[i], in_span[i], 1e-13) << i;
  }
  // A vector orthogonal to the span projects to zero.
  basis.project(std::vector<double>{0.0, 0.0, 0.0, 3.0}, coefficients);
  EXPECT_NEAR(coefficients[0], 0.0, 1e-14);
  EXPECT_NEAR(coefficients[1], 0.0, 1e-14);
}

TEST(OrthonormalBasis, PackedRowsMirrorTheColumns) {
  nm::OrthonormalBasis basis(3);
  ASSERT_TRUE(basis.append(std::vector<double>{1.0, 1.0, 0.0}, 1e-12));
  ASSERT_TRUE(basis.append(std::vector<double>{0.0, 1.0, 1.0}, 1e-12));
  for (std::size_t i = 0; i < basis.dimension(); ++i) {
    const std::span<const double> row = basis.packed_row(i);
    ASSERT_EQ(row.size(), static_cast<std::size_t>(basis.size()));
    for (int j = 0; j < basis.size(); ++j) {
      EXPECT_DOUBLE_EQ(row[j], basis.column(j)[i]) << i << "," << j;
    }
  }
}

TEST(BlockArnoldi, ExpandsUntilTheSubspaceIsInvariant) {
  // Cyclic shift: e1 -> e2 -> e3 -> e1. From seed e1 the Krylov subspace
  // is all of R^3, reached after two moments; a third moment adds nothing.
  const auto cycle = [](std::span<const double> in, std::span<double> out) {
    out[1] = in[0];
    out[2] = in[1];
    out[0] = in[2];
  };
  nm::OrthonormalBasis basis(3);
  const std::vector<std::vector<double>> seeds = {{1.0, 0.0, 0.0}};
  const int added = nm::block_arnoldi_expand(basis, seeds, 5, 10, 1e-12, cycle);
  EXPECT_EQ(added, 3);  // seed + two moments; the early-out stopped round 3
  EXPECT_EQ(basis.size(), 3);
}

TEST(BlockArnoldi, StopsAtTheBasisCap) {
  const auto cycle = [](std::span<const double> in, std::span<double> out) {
    out[1] = in[0];
    out[2] = in[1];
    out[0] = in[2];
  };
  nm::OrthonormalBasis basis(3);
  const std::vector<std::vector<double>> seeds = {{1.0, 0.0, 0.0}};
  const int added = nm::block_arnoldi_expand(basis, seeds, 5, 2, 1e-12, cycle);
  EXPECT_EQ(added, 2);
  EXPECT_EQ(basis.size(), 2);
}


// ------------------------------------------------ BiCGSTAB fused reductions
// solve_bicgstab computes ||s||^2 in the s-update loop, t't and t's in one
// pass, and ||r||^2 with the next r0'r in the x/r update. Each sum keeps
// its i = 0..n-1 order, so x, the iteration count and the residual must be
// bitwise those of the loop with every reduction in its own pass.

struct UnfusedReport {
  bool converged = false;
  int iterations = 0;
  double residual_norm = 0.0;
  bool exited_on_s = false;  ///< converged on the ||s|| check
};

double unfused_dot(const std::vector<double>& a, const std::vector<double>& b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    s += a[i] * b[i];
  }
  return s;
}

void apply_or_copy(const nm::Ilu0Preconditioner* m, const std::vector<double>& in,
                   std::vector<double>& out) {
  if (m != nullptr) {
    m->apply(in, out);
  } else {
    out = in;
  }
}

/// The BiCGSTAB recurrence with every reduction in a pass of its own.
UnfusedReport unfused_bicgstab(const nm::CsrMatrix& a, const std::vector<double>& b,
                               std::vector<double>& x, const nm::Ilu0Preconditioner* m,
                               const nm::SolverOptions& options) {
  const std::size_t n = b.size();
  std::vector<double> r(n), p(n), v(n), s(n), t(n), phat(n), shat(n);
  a.multiply(x, r);
  for (std::size_t i = 0; i < n; ++i) {
    r[i] = b[i] - r[i];
  }
  const std::vector<double> r0 = r;
  const double target = std::max(options.relative_tolerance * std::sqrt(unfused_dot(b, b)),
                                 options.absolute_tolerance);
  UnfusedReport report;
  report.residual_norm = std::sqrt(unfused_dot(r, r));
  if (report.residual_norm <= target) {
    report.converged = true;
    return report;
  }
  double rho = 1.0, alpha = 1.0, omega = 1.0;
  for (int it = 1; it <= options.max_iterations; ++it) {
    const double rho_next = unfused_dot(r0, r);
    if (rho_next == 0.0) {
      break;
    }
    if (it == 1) {
      p = r;
    } else {
      const double beta = (rho_next / rho) * (alpha / omega);
      for (std::size_t i = 0; i < n; ++i) {
        p[i] = r[i] + beta * (p[i] - omega * v[i]);
      }
    }
    rho = rho_next;
    apply_or_copy(m, p, phat);
    a.multiply(phat, v);
    const double r0_v = unfused_dot(r0, v);
    if (r0_v == 0.0) {
      break;
    }
    alpha = rho / r0_v;
    for (std::size_t i = 0; i < n; ++i) {
      s[i] = r[i] - alpha * v[i];
    }
    report.iterations = it;
    if (std::sqrt(unfused_dot(s, s)) <= target) {
      for (std::size_t i = 0; i < n; ++i) {
        x[i] += alpha * phat[i];
      }
      report.residual_norm = std::sqrt(unfused_dot(s, s));
      report.converged = true;
      report.exited_on_s = true;
      return report;
    }
    apply_or_copy(m, s, shat);
    a.multiply(shat, t);
    const double t_t = unfused_dot(t, t);
    if (t_t == 0.0) {
      break;
    }
    omega = unfused_dot(t, s) / t_t;
    for (std::size_t i = 0; i < n; ++i) {
      x[i] += alpha * phat[i] + omega * shat[i];
      r[i] = s[i] - omega * t[i];
    }
    report.residual_norm = std::sqrt(unfused_dot(r, r));
    if (report.residual_norm <= target) {
      report.converged = true;
      return report;
    }
    if (omega == 0.0) {
      break;
    }
  }
  return report;
}

std::vector<std::uint64_t> bits_of(const std::vector<double>& values) {
  std::vector<std::uint64_t> bits;
  for (const double value : values) {
    bits.push_back(std::bit_cast<std::uint64_t>(value));
  }
  return bits;
}

/// Solves with solve_bicgstab and the unfused reference from the same
/// guess; returns the reference's report after checking bitwise equality.
UnfusedReport expect_fused_matches_unfused(const nm::CsrMatrix& a, const std::vector<double>& b,
                                           const std::vector<double>& guess,
                                           const nm::Ilu0Preconditioner* m,
                                           const nm::SolverOptions& options = {}) {
  std::vector<double> x_fused = guess;
  std::vector<double> x_unfused = guess;
  const nm::SolverReport fused = nm::solve_bicgstab(a, b, x_fused, m, options);
  const UnfusedReport unfused = unfused_bicgstab(a, b, x_unfused, m, options);
  EXPECT_EQ(fused.converged, unfused.converged);
  EXPECT_EQ(fused.iterations, unfused.iterations);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(fused.residual_norm),
            std::bit_cast<std::uint64_t>(unfused.residual_norm));
  EXPECT_EQ(bits_of(x_fused), bits_of(x_unfused));
  return unfused;
}

TEST(BicgstabFusion, MatchesTheUnfusedLoopWithIlu0) {
  const auto a = random_nonsym(150, 0.05);
  const std::vector<double> b = random_vector(150);
  const nm::Ilu0Preconditioner ilu(a);
  const UnfusedReport report =
      expect_fused_matches_unfused(a, b, std::vector<double>(150, 0.0), &ilu);
  EXPECT_TRUE(report.converged);
  EXPECT_GT(report.iterations, 2);
}

TEST(BicgstabFusion, MatchesTheUnfusedLoopUnpreconditionedFromAGuess) {
  const auto a = random_nonsym(90);
  const std::vector<double> b = random_vector(90);
  const UnfusedReport report = expect_fused_matches_unfused(a, b, random_vector(90), nullptr);
  EXPECT_TRUE(report.converged);
}

TEST(BicgstabFusion, MatchesTheUnfusedLoopOnTheIterationCap) {
  const auto a = random_nonsym(120);
  const std::vector<double> b = random_vector(120);
  nm::SolverOptions options;
  options.max_iterations = 3;
  options.relative_tolerance = 0.0;
  options.absolute_tolerance = 0.0;
  const UnfusedReport report =
      expect_fused_matches_unfused(a, b, std::vector<double>(120, 0.0), nullptr, options);
  EXPECT_FALSE(report.converged);
  EXPECT_EQ(report.iterations, 3);
}

TEST(BicgstabFusion, MatchesTheUnfusedLoopOnTheSNormExit) {
  // ILU(0) is exact on a lower-triangular pattern, so the first half-step
  // solves the system and the ||s|| check ends the solve.
  nm::TripletList t;
  for (int i = 0; i < 40; ++i) {
    t.add(i, i, 3.0 + 0.1 * i);
    if (i > 0) {
      t.add(i, i - 1, -1.0);
    }
    if (i > 4) {
      t.add(i, i - 5, 0.5);
    }
  }
  const auto a = nm::CsrMatrix::from_triplets(40, 40, t);
  const nm::Ilu0Preconditioner ilu(a);
  const UnfusedReport report =
      expect_fused_matches_unfused(a, random_vector(40), std::vector<double>(40, 0.0), &ilu);
  EXPECT_TRUE(report.exited_on_s);
  EXPECT_EQ(report.iterations, 1);
}

}  // namespace
