// Thomas-algorithm tridiagonal solver with reusable workspace.
//
// The co-laminar channel FVM marches thousands of implicit steps, each of
// which solves one tridiagonal system per transported species; the class
// form keeps the scratch arrays alive across calls so the inner loop is
// allocation-free.
#ifndef BRIGHTSI_NUMERICS_TRIDIAGONAL_H
#define BRIGHTSI_NUMERICS_TRIDIAGONAL_H

#include <span>
#include <vector>

namespace brightsi::numerics {

/// Solves A x = d for tridiagonal A given by (lower, diag, upper) bands.
/// lower[0] and upper[n-1] are ignored. Throws on size mismatch or when a
/// pivot underflows (non-diagonally-dominant degenerate input).
class TridiagonalSolver {
 public:
  TridiagonalSolver() = default;
  /// Pre-sizes the workspace for systems of dimension `n`.
  explicit TridiagonalSolver(std::size_t n) { resize(n); }

  void resize(std::size_t n) {
    scratch_c_.resize(n);
    scratch_d_.resize(n);
  }

  /// In/out: `rhs` holds d on entry and the solution x on return.
  void solve(std::span<const double> lower, std::span<const double> diag,
             std::span<const double> upper, std::span<double> rhs);

 private:
  std::vector<double> scratch_c_;
  std::vector<double> scratch_d_;
};

}  // namespace brightsi::numerics

#endif  // BRIGHTSI_NUMERICS_TRIDIAGONAL_H
