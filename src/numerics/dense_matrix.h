// Small dense matrix with LU factorization (partial pivoting).
//
// Used as the reference solver in tests and for the few genuinely dense
// sub-problems in the project (VRM Thevenin reductions, polynomial fits in
// reporting). Not intended for large systems — use CsrMatrix + Krylov there.
#ifndef BRIGHTSI_NUMERICS_DENSE_MATRIX_H
#define BRIGHTSI_NUMERICS_DENSE_MATRIX_H

#include <span>
#include <vector>

namespace brightsi::numerics {

/// Row-major dense matrix of doubles.
class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(int rows, int cols, double fill = 0.0);

  [[nodiscard]] int rows() const { return rows_; }
  [[nodiscard]] int cols() const { return cols_; }

  [[nodiscard]] double& at(int r, int c);
  [[nodiscard]] double at(int r, int c) const;

  /// y = A * x (sizes checked).
  void multiply(std::span<const double> x, std::span<double> y) const;

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<double> data_;
};

/// LU factorization with partial pivoting; throws std::runtime_error on a
/// numerically singular matrix.
class LuFactorization {
 public:
  explicit LuFactorization(const DenseMatrix& a);

  /// Solves A x = b. b and x may alias.
  void solve(std::span<const double> b, std::span<double> x) const;

 private:
  int n_ = 0;
  std::vector<double> lu_;      // packed L\U, row-major
  std::vector<int> pivots_;     // row permutation
};

/// Convenience: solve a dense system in one call.
std::vector<double> solve_dense(const DenseMatrix& a, std::span<const double> b);

}  // namespace brightsi::numerics

#endif  // BRIGHTSI_NUMERICS_DENSE_MATRIX_H
