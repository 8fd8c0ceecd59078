#include "numerics/sparse_matrix.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>

#include "numerics/contracts.h"

namespace brightsi::numerics {

CsrMatrix CsrMatrix::from_triplets(int rows, int cols, const TripletList& triplets) {
  ensure(rows > 0 && cols > 0, "CsrMatrix dimensions must be positive");
  for (const Triplet& t : triplets.entries()) {
    if (t.row < 0 || t.row >= rows || t.col < 0 || t.col >= cols) {
      throw std::invalid_argument("CsrMatrix triplet index (" + std::to_string(t.row) + "," +
                                  std::to_string(t.col) + ") outside " + std::to_string(rows) +
                                  "x" + std::to_string(cols));
    }
    ensure_finite(t.value, "CsrMatrix triplet value");
  }

  CsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;

  // Count entries per row, including duplicates for now.
  std::vector<int> counts(static_cast<std::size_t>(rows) + 1, 0);
  for (const Triplet& t : triplets.entries()) {
    ++counts[static_cast<std::size_t>(t.row) + 1];
  }
  std::partial_sum(counts.begin(), counts.end(), counts.begin());

  std::vector<int> col_tmp(triplets.size());
  std::vector<double> val_tmp(triplets.size());
  {
    std::vector<int> cursor(counts.begin(), counts.end() - 1);
    for (const Triplet& t : triplets.entries()) {
      const int slot = cursor[static_cast<std::size_t>(t.row)]++;
      col_tmp[static_cast<std::size_t>(slot)] = t.col;
      val_tmp[static_cast<std::size_t>(slot)] = t.value;
    }
  }

  // Sort each row by column and merge duplicates.
  m.row_offsets_.assign(static_cast<std::size_t>(rows) + 1, 0);
  m.column_indices_.reserve(triplets.size());
  m.values_.reserve(triplets.size());
  std::vector<int> order;
  for (int r = 0; r < rows; ++r) {
    const int begin = counts[static_cast<std::size_t>(r)];
    const int end = counts[static_cast<std::size_t>(r) + 1];
    order.resize(static_cast<std::size_t>(end - begin));
    std::iota(order.begin(), order.end(), begin);
    std::sort(order.begin(), order.end(),
              [&](int a, int b) { return col_tmp[static_cast<std::size_t>(a)] < col_tmp[static_cast<std::size_t>(b)]; });
    int last_col = -1;
    for (const int idx : order) {
      const int c = col_tmp[static_cast<std::size_t>(idx)];
      const double v = val_tmp[static_cast<std::size_t>(idx)];
      if (c == last_col) {
        m.values_.back() += v;
      } else {
        m.column_indices_.push_back(c);
        m.values_.push_back(v);
        last_col = c;
      }
    }
    m.row_offsets_[static_cast<std::size_t>(r) + 1] = static_cast<int>(m.values_.size());
  }
  return m;
}

void CsrMatrix::refill_from_triplets(const TripletList& triplets,
                                     std::vector<int>* slot_cache) {
  const std::vector<Triplet>& entries = triplets.entries();
  std::fill(values_.begin(), values_.end(), 0.0);

  if (slot_cache != nullptr && !slot_cache->empty()) {
    ensure(slot_cache->size() == entries.size(),
           "CsrMatrix::refill_from_triplets: slot cache does not match the triplet sequence");
    for (std::size_t i = 0; i < entries.size(); ++i) {
      ensure_finite(entries[i].value, "CsrMatrix triplet value");
      values_[static_cast<std::size_t>((*slot_cache)[i])] += entries[i].value;
    }
    return;
  }

  if (slot_cache != nullptr) {
    slot_cache->reserve(entries.size());
  }
  for (const Triplet& t : entries) {
    if (t.row < 0 || t.row >= rows_ || t.col < 0 || t.col >= cols_) {
      throw std::invalid_argument("CsrMatrix triplet index (" + std::to_string(t.row) + "," +
                                  std::to_string(t.col) + ") outside " + std::to_string(rows_) +
                                  "x" + std::to_string(cols_));
    }
    ensure_finite(t.value, "CsrMatrix triplet value");
    const int begin = row_offsets_[static_cast<std::size_t>(t.row)];
    const int end = row_offsets_[static_cast<std::size_t>(t.row) + 1];
    const auto first = column_indices_.begin() + begin;
    const auto last = column_indices_.begin() + end;
    const auto it = std::lower_bound(first, last, t.col);
    if (it == last || *it != t.col) {
      throw std::invalid_argument("CsrMatrix::refill_from_triplets: (" + std::to_string(t.row) +
                                  "," + std::to_string(t.col) +
                                  ") is not in the sparsity pattern");
    }
    const int slot = static_cast<int>(it - column_indices_.begin());
    values_[static_cast<std::size_t>(slot)] += t.value;
    if (slot_cache != nullptr) {
      slot_cache->push_back(slot);
    }
  }
}

void CsrMatrix::multiply(std::span<const double> x, std::span<double> y) const {
  ensure(static_cast<int>(x.size()) == cols_, "CsrMatrix::multiply: x size mismatch");
  ensure(static_cast<int>(y.size()) == rows_, "CsrMatrix::multiply: y size mismatch");
  for (int r = 0; r < rows_; ++r) {
    double sum = 0.0;
    const int begin = row_offsets_[static_cast<std::size_t>(r)];
    const int end = row_offsets_[static_cast<std::size_t>(r) + 1];
    for (int k = begin; k < end; ++k) {
      sum += values_[static_cast<std::size_t>(k)] *
             x[static_cast<std::size_t>(column_indices_[static_cast<std::size_t>(k)])];
    }
    y[static_cast<std::size_t>(r)] = sum;
  }
}

double CsrMatrix::residual(std::span<const double> b, std::span<const double> x,
                           std::span<double> r) const {
  ensure(static_cast<int>(b.size()) == rows_, "CsrMatrix::residual: b size mismatch");
  multiply(x, r);
  double norm_sq = 0.0;
  for (int i = 0; i < rows_; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    r[idx] = b[idx] - r[idx];
    norm_sq += r[idx] * r[idx];
  }
  return std::sqrt(norm_sq);
}

std::vector<double> CsrMatrix::diagonal() const {
  ensure(rows_ == cols_, "CsrMatrix::diagonal requires a square matrix");
  std::vector<double> d(static_cast<std::size_t>(rows_), 0.0);
  for (int r = 0; r < rows_; ++r) {
    const int begin = row_offsets_[static_cast<std::size_t>(r)];
    const int end = row_offsets_[static_cast<std::size_t>(r) + 1];
    for (int k = begin; k < end; ++k) {
      if (column_indices_[static_cast<std::size_t>(k)] == r) {
        d[static_cast<std::size_t>(r)] = values_[static_cast<std::size_t>(k)];
        break;
      }
    }
  }
  return d;
}

double CsrMatrix::at(int row, int col) const {
  ensure(row >= 0 && row < rows_ && col >= 0 && col < cols_, "CsrMatrix::at: index out of range");
  const int begin = row_offsets_[static_cast<std::size_t>(row)];
  const int end = row_offsets_[static_cast<std::size_t>(row) + 1];
  const auto first = column_indices_.begin() + begin;
  const auto last = column_indices_.begin() + end;
  const auto it = std::lower_bound(first, last, col);
  if (it != last && *it == col) {
    return values_[static_cast<std::size_t>(it - column_indices_.begin())];
  }
  return 0.0;
}

}  // namespace brightsi::numerics
