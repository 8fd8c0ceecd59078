#include "numerics/dense_matrix.h"

#include <cmath>
#include <stdexcept>

#include "numerics/contracts.h"

namespace brightsi::numerics {

DenseMatrix::DenseMatrix(int rows, int cols, double fill)
    : rows_(rows), cols_(cols),
      data_(static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols), fill) {
  ensure(rows > 0 && cols > 0, "DenseMatrix dimensions must be positive");
}

double& DenseMatrix::at(int r, int c) {
  ensure(r >= 0 && r < rows_ && c >= 0 && c < cols_, "DenseMatrix::at out of range");
  return data_[static_cast<std::size_t>(r) * static_cast<std::size_t>(cols_) +
               static_cast<std::size_t>(c)];
}

double DenseMatrix::at(int r, int c) const {
  ensure(r >= 0 && r < rows_ && c >= 0 && c < cols_, "DenseMatrix::at out of range");
  return data_[static_cast<std::size_t>(r) * static_cast<std::size_t>(cols_) +
               static_cast<std::size_t>(c)];
}

void DenseMatrix::multiply(std::span<const double> x, std::span<double> y) const {
  ensure(static_cast<int>(x.size()) == cols_ && static_cast<int>(y.size()) == rows_,
         "DenseMatrix::multiply size mismatch");
  for (int r = 0; r < rows_; ++r) {
    double sum = 0.0;
    for (int c = 0; c < cols_; ++c) {
      sum += at(r, c) * x[static_cast<std::size_t>(c)];
    }
    y[static_cast<std::size_t>(r)] = sum;
  }
}

LuFactorization::LuFactorization(const DenseMatrix& a) {
  ensure(a.rows() == a.cols(), "LuFactorization requires a square matrix");
  n_ = a.rows();
  lu_.resize(static_cast<std::size_t>(n_) * static_cast<std::size_t>(n_));
  pivots_.resize(static_cast<std::size_t>(n_));
  for (int r = 0; r < n_; ++r) {
    for (int c = 0; c < n_; ++c) {
      lu_[static_cast<std::size_t>(r) * static_cast<std::size_t>(n_) +
          static_cast<std::size_t>(c)] = a.at(r, c);
    }
  }

  auto entry = [&](int r, int c) -> double& {
    return lu_[static_cast<std::size_t>(r) * static_cast<std::size_t>(n_) +
               static_cast<std::size_t>(c)];
  };

  for (int k = 0; k < n_; ++k) {
    int pivot_row = k;
    double pivot_mag = std::abs(entry(k, k));
    for (int r = k + 1; r < n_; ++r) {
      if (std::abs(entry(r, k)) > pivot_mag) {
        pivot_mag = std::abs(entry(r, k));
        pivot_row = r;
      }
    }
    if (pivot_mag < 1e-300) {
      throw std::runtime_error("LuFactorization: matrix is numerically singular at column " +
                               std::to_string(k));
    }
    pivots_[static_cast<std::size_t>(k)] = pivot_row;
    if (pivot_row != k) {
      for (int c = 0; c < n_; ++c) {
        std::swap(entry(k, c), entry(pivot_row, c));
      }
    }
    for (int r = k + 1; r < n_; ++r) {
      entry(r, k) /= entry(k, k);
      const double factor = entry(r, k);
      for (int c = k + 1; c < n_; ++c) {
        entry(r, c) -= factor * entry(k, c);
      }
    }
  }
}

void LuFactorization::solve(std::span<const double> b, std::span<double> x) const {
  ensure(static_cast<int>(b.size()) == n_ && static_cast<int>(x.size()) == n_,
         "LuFactorization::solve size mismatch");
  if (x.data() != b.data()) {
    std::copy(b.begin(), b.end(), x.begin());
  }
  auto entry = [&](int r, int c) {
    return lu_[static_cast<std::size_t>(r) * static_cast<std::size_t>(n_) +
               static_cast<std::size_t>(c)];
  };
  for (int k = 0; k < n_; ++k) {
    std::swap(x[static_cast<std::size_t>(k)],
              x[static_cast<std::size_t>(pivots_[static_cast<std::size_t>(k)])]);
  }
  for (int r = 1; r < n_; ++r) {
    double sum = x[static_cast<std::size_t>(r)];
    for (int c = 0; c < r; ++c) {
      sum -= entry(r, c) * x[static_cast<std::size_t>(c)];
    }
    x[static_cast<std::size_t>(r)] = sum;
  }
  for (int r = n_ - 1; r >= 0; --r) {
    double sum = x[static_cast<std::size_t>(r)];
    for (int c = r + 1; c < n_; ++c) {
      sum -= entry(r, c) * x[static_cast<std::size_t>(c)];
    }
    x[static_cast<std::size_t>(r)] = sum / entry(r, r);
  }
}

std::vector<double> solve_dense(const DenseMatrix& a, std::span<const double> b) {
  LuFactorization lu(a);
  std::vector<double> x(b.size());
  lu.solve(b, x);
  return x;
}

}  // namespace brightsi::numerics
