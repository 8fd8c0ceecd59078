#include "numerics/tridiagonal.h"

#include <cmath>
#include <stdexcept>

#include "numerics/contracts.h"

namespace brightsi::numerics {

void TridiagonalSolver::solve(std::span<const double> lower, std::span<const double> diag,
                              std::span<const double> upper, std::span<double> rhs) {
  const std::size_t n = diag.size();
  ensure(n > 0, "TridiagonalSolver: empty system");
  ensure(lower.size() == n && upper.size() == n && rhs.size() == n,
         "TridiagonalSolver: band size mismatch");
  if (scratch_c_.size() < n) {
    resize(n);
  }

  double pivot = diag[0];
  if (pivot == 0.0 || !std::isfinite(pivot)) {
    throw std::runtime_error("TridiagonalSolver: zero or non-finite pivot at row 0");
  }
  scratch_c_[0] = upper[0] / pivot;
  scratch_d_[0] = rhs[0] / pivot;
  for (std::size_t i = 1; i < n; ++i) {
    pivot = diag[i] - lower[i] * scratch_c_[i - 1];
    if (pivot == 0.0 || !std::isfinite(pivot)) {
      throw std::runtime_error("TridiagonalSolver: zero or non-finite pivot at row " +
                               std::to_string(i));
    }
    scratch_c_[i] = upper[i] / pivot;
    scratch_d_[i] = (rhs[i] - lower[i] * scratch_d_[i - 1]) / pivot;
  }
  rhs[n - 1] = scratch_d_[n - 1];
  for (std::size_t i = n - 1; i-- > 0;) {
    rhs[i] = scratch_d_[i] - scratch_c_[i] * rhs[i + 1];
  }
}

}  // namespace brightsi::numerics
