// Compressed sparse row matrix with a COO (triplet) assembly path.
//
// This is the workhorse container for the thermal RC network, the PDN nodal
// matrix and the reference discretizations in tests. Assembly happens via
// `TripletList` (duplicate entries are summed, as is conventional for
// finite-volume/nodal stamping), after which the CSR form supports matvec,
// row traversal and diagonal extraction. When the sparsity pattern is fixed
// across solves (the assemble-once discipline of the solve contexts),
// `refill_from_triplets` updates the coefficients in place without
// re-sorting or reallocating.
#ifndef BRIGHTSI_NUMERICS_SPARSE_MATRIX_H
#define BRIGHTSI_NUMERICS_SPARSE_MATRIX_H

#include <cstddef>
#include <span>
#include <vector>

namespace brightsi::numerics {

/// One (row, col, value) contribution to a sparse matrix under assembly.
struct Triplet {
  int row = 0;
  int col = 0;
  double value = 0.0;
};

/// Growable list of stamped contributions; duplicates are summed on build.
class TripletList {
 public:
  TripletList() = default;
  /// Pre-reserves storage for `expected_entries` stamps.
  explicit TripletList(std::size_t expected_entries) { entries_.reserve(expected_entries); }

  /// Adds `value` at (row, col). Negative indices are rejected at build time.
  void add(int row, int col, double value) { entries_.push_back({row, col, value}); }

  /// Drops every entry but keeps the allocation, so a stamping buffer can be
  /// reused across solves.
  void clear() { entries_.clear(); }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] const std::vector<Triplet>& entries() const { return entries_; }

 private:
  std::vector<Triplet> entries_;
};

/// Square-or-rectangular sparse matrix in CSR format. The pattern is fixed
/// at build time; coefficients may be refreshed in place.
class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Builds a rows x cols matrix from stamped triplets; duplicate (r,c)
  /// entries are summed. Throws std::invalid_argument on out-of-range
  /// indices or non-finite values.
  static CsrMatrix from_triplets(int rows, int cols, const TripletList& triplets);

  /// Reuse path for a fixed sparsity pattern: zeroes the stored values and
  /// scatters `triplets` into them (duplicates summed), without touching the
  /// structure. Throws std::invalid_argument when a triplet's (row, col) is
  /// not part of the pattern or its value is non-finite.
  ///
  /// `slot_cache` (optional) skips the per-entry position search on repeat
  /// fills: an empty cache is populated with the destination slot of each
  /// triplet; a populated one is trusted to come from an earlier call with
  /// the *identical* (row, col) sequence — only the length is re-checked —
  /// which holds for deterministic stampers like ThermalModel::fill_operator.
  void refill_from_triplets(const TripletList& triplets,
                            std::vector<int>* slot_cache = nullptr);

  [[nodiscard]] int rows() const { return rows_; }
  [[nodiscard]] int cols() const { return cols_; }
  [[nodiscard]] std::size_t non_zeros() const { return values_.size(); }

  /// y = A * x. Sizes must match (checked).
  void multiply(std::span<const double> x, std::span<double> y) const;

  /// r = b - A * x, returning the Euclidean norm of r.
  double residual(std::span<const double> b, std::span<const double> x,
                  std::span<double> r) const;

  /// Returns the diagonal (zero where absent). Matrix must be square.
  [[nodiscard]] std::vector<double> diagonal() const;

  /// Value at (row, col); zero when the entry is not stored.
  [[nodiscard]] double at(int row, int col) const;

  /// Raw CSR access for preconditioners and row traversal.
  [[nodiscard]] const std::vector<int>& row_offsets() const { return row_offsets_; }
  [[nodiscard]] const std::vector<int>& column_indices() const { return column_indices_; }
  [[nodiscard]] const std::vector<double>& values() const { return values_; }

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<int> row_offsets_;     // size rows_ + 1
  std::vector<int> column_indices_;  // size nnz, ascending within each row
  std::vector<double> values_;       // size nnz
};

}  // namespace brightsi::numerics

#endif  // BRIGHTSI_NUMERICS_SPARSE_MATRIX_H
