// Preconditioned Krylov solvers for the sparse systems assembled by the
// thermal (nonsymmetric: upwind advection) and PDN (SPD nodal) models.
//
//  * solve_cg        — conjugate gradients, for symmetric positive definite A
//  * solve_bicgstab  — BiCGSTAB, for general nonsymmetric A
//
// Both accept an optional ILU(0) preconditioner; both return the iteration
// count and final residual so callers can assert convergence.
#ifndef BRIGHTSI_NUMERICS_LINEAR_SOLVERS_H
#define BRIGHTSI_NUMERICS_LINEAR_SOLVERS_H

#include <array>
#include <span>
#include <vector>

#include "numerics/sparse_matrix.h"

namespace brightsi::numerics {

/// Convergence controls shared by the Krylov solvers.
struct SolverOptions {
  double relative_tolerance = 1e-10;  ///< stop when ||r|| <= rel_tol * ||b||
  double absolute_tolerance = 1e-14;  ///< ... or ||r|| <= abs_tol
  int max_iterations = 5000;

  friend bool operator==(const SolverOptions&, const SolverOptions&) = default;
};

/// Outcome of a linear solve. `converged` is false on breakdown or when the
/// iteration budget was exhausted; `x` then holds the best iterate found.
struct SolverReport {
  bool converged = false;
  int iterations = 0;
  double residual_norm = 0.0;
  double solve_time_s = 0.0;  ///< wall time iterating inside the solver
  /// Wall time preparing the preconditioner for this solve (the ILU(0)
  /// factorization). Filled by callers that own the preconditioner
  /// lifecycle (the solve contexts); the solvers themselves leave it zero.
  double setup_time_s = 0.0;
};

/// Reusable scratch vectors for the Krylov solvers, so repeated solves on a
/// fixed-size system stop allocating their temporaries per call. One
/// workspace serves both solvers (CG maps z -> phat and Ap -> v); the
/// vectors are resized lazily, which is a no-op when the dimension repeats.
struct KrylovWorkspace {
  std::vector<double> r, r0, p, v, s, t, phat, shat;
  void resize(std::size_t n);
};

/// Incomplete LU factorization with zero fill-in on the sparsity pattern of A.
/// Well suited to the 7-point finite-volume stencils used in this project.
///
/// The triangular sweeps of apply() follow a schedule built once from the
/// pattern. A *line* is a maximal run of consecutive rows in which every
/// row's strictly-lower part holds column i-1 (on the thermal grid: one
/// x-row of cells). A line's forward level is one more than the highest
/// level of any other line its L entries read; backward levels come the
/// same way from the U entries, top down. Lines of one level never read
/// each other, so apply() advances up to four equal-length lines of a level
/// together, one row of each per step, and the CPU overlaps their
/// dependency chains. Every row keeps its subtractions in column order and
/// reads only rows that are already final, so z is bitwise what plain
/// row-by-row sweeps give. A pattern without line structure (a 2-D mesh)
/// gets one line per level, which is the row-by-row sweep.
class Ilu0Preconditioner {
 public:
  /// Throws std::runtime_error when a zero pivot is encountered.
  explicit Ilu0Preconditioner(const CsrMatrix& a);
  /// Left preconditioning: z = M^{-1} r.
  void apply(std::span<const double> r, std::span<double> z) const;

  /// Redoes the numeric factorization for new coefficients of `a`, which
  /// must have the same sparsity pattern as the matrix this preconditioner
  /// was built from (checked). Reuses all allocations — the per-solve path
  /// of a solve context. Throws std::runtime_error on a zero pivot and
  /// std::invalid_argument on a pattern mismatch.
  void refactor(const CsrMatrix& a);

 private:
  static constexpr int kMaxGroupLines = 4;

  /// Up to kMaxGroupLines equal-length lines of one sweep level, advanced
  /// together.
  struct LineGroup {
    std::array<int, kMaxGroupLines> first_row{};
    int lines = 0;
    int length = 0;
  };

  void factorize(const CsrMatrix& a);
  void build_schedule();

  int n_ = 0;
  std::vector<LineGroup> forward_groups_;   // in forward level order
  std::vector<LineGroup> backward_groups_;  // in backward level order
  std::vector<int> row_offsets_;
  std::vector<int> column_indices_;
  std::vector<double> values_;          // merged L (unit diagonal implied) and U
  std::vector<int> diagonal_position_;  // index of the diagonal entry per row
  std::vector<int> position_scratch_;   // column -> slot map reused per row
};

/// Conjugate gradient for SPD systems. `x` carries the initial guess in and
/// the solution out. `workspace` (optional) supplies the scratch vectors;
/// when null a local workspace is allocated for the call.
SolverReport solve_cg(const CsrMatrix& a, std::span<const double> b, std::span<double> x,
                      const Ilu0Preconditioner* preconditioner = nullptr,
                      const SolverOptions& options = {},
                      KrylovWorkspace* workspace = nullptr);

/// BiCGSTAB for general square systems. `x` carries the initial guess in and
/// the solution out. `workspace` as in solve_cg.
SolverReport solve_bicgstab(const CsrMatrix& a, std::span<const double> b, std::span<double> x,
                            const Ilu0Preconditioner* preconditioner = nullptr,
                            const SolverOptions& options = {},
                            KrylovWorkspace* workspace = nullptr);

}  // namespace brightsi::numerics

#endif  // BRIGHTSI_NUMERICS_LINEAR_SOLVERS_H
