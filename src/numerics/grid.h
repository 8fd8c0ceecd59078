// Dense 2-D / 3-D field containers with (i, j[, k]) indexing.
//
// These hold temperature fields, voltage maps and power maps. Indices are
// bounds-checked in debug builds only (hot loops), while the checked `at`
// accessors validate always.
#ifndef BRIGHTSI_NUMERICS_GRID_H
#define BRIGHTSI_NUMERICS_GRID_H

#include <cassert>
#include <stdexcept>
#include <string>
#include <vector>

#include "numerics/contracts.h"

namespace brightsi::numerics {

namespace detail {
/// Validates grid dimensions before any allocation happens.
inline std::size_t checked_cell_count(long long a, long long b, long long c,
                                      const char* what) {
  if (!(a > 0 && b > 0 && c > 0)) {
    throw std::invalid_argument(std::string(what) + " dimensions must be positive");
  }
  return static_cast<std::size_t>(a) * static_cast<std::size_t>(b) *
         static_cast<std::size_t>(c);
}
}  // namespace detail

/// Row-major 2-D grid: index (ix, iy) with ix fastest (x-major rows).
template <typename T>
class Grid2 {
 public:
  Grid2() = default;
  Grid2(int nx, int ny, T fill = T{})
      : nx_(nx), ny_(ny), data_(detail::checked_cell_count(nx, ny, 1, "Grid2"), fill) {}

  [[nodiscard]] int nx() const { return nx_; }
  [[nodiscard]] int ny() const { return ny_; }
  [[nodiscard]] std::size_t size() const { return data_.size(); }

  [[nodiscard]] T& operator()(int ix, int iy) {
    assert(in_range(ix, iy));
    return data_[index(ix, iy)];
  }
  [[nodiscard]] const T& operator()(int ix, int iy) const {
    assert(in_range(ix, iy));
    return data_[index(ix, iy)];
  }

  [[nodiscard]] T& at(int ix, int iy) {
    ensure(in_range(ix, iy), "Grid2::at out of range");
    return data_[index(ix, iy)];
  }
  [[nodiscard]] const T& at(int ix, int iy) const {
    ensure(in_range(ix, iy), "Grid2::at out of range");
    return data_[index(ix, iy)];
  }

  [[nodiscard]] bool in_range(int ix, int iy) const {
    return ix >= 0 && ix < nx_ && iy >= 0 && iy < ny_;
  }
  [[nodiscard]] std::size_t index(int ix, int iy) const {
    return static_cast<std::size_t>(iy) * static_cast<std::size_t>(nx_) +
           static_cast<std::size_t>(ix);
  }

  [[nodiscard]] std::vector<T>& data() { return data_; }
  [[nodiscard]] const std::vector<T>& data() const { return data_; }

  void fill(const T& value) { data_.assign(data_.size(), value); }

 private:
  int nx_ = 0;
  int ny_ = 0;
  std::vector<T> data_;
};

/// 3-D grid: index (ix, iy, iz), ix fastest, iz slowest (layer-major).
template <typename T>
class Grid3 {
 public:
  Grid3() = default;
  Grid3(int nx, int ny, int nz, T fill = T{})
      : nx_(nx), ny_(ny), nz_(nz),
        data_(detail::checked_cell_count(nx, ny, nz, "Grid3"), fill) {}

  [[nodiscard]] int nx() const { return nx_; }
  [[nodiscard]] int ny() const { return ny_; }
  [[nodiscard]] int nz() const { return nz_; }
  [[nodiscard]] std::size_t size() const { return data_.size(); }

  [[nodiscard]] T& operator()(int ix, int iy, int iz) {
    assert(in_range(ix, iy, iz));
    return data_[index(ix, iy, iz)];
  }
  [[nodiscard]] const T& operator()(int ix, int iy, int iz) const {
    assert(in_range(ix, iy, iz));
    return data_[index(ix, iy, iz)];
  }

  [[nodiscard]] T& at(int ix, int iy, int iz) {
    ensure(in_range(ix, iy, iz), "Grid3::at out of range");
    return data_[index(ix, iy, iz)];
  }
  [[nodiscard]] const T& at(int ix, int iy, int iz) const {
    ensure(in_range(ix, iy, iz), "Grid3::at out of range");
    return data_[index(ix, iy, iz)];
  }

  [[nodiscard]] bool in_range(int ix, int iy, int iz) const {
    return ix >= 0 && ix < nx_ && iy >= 0 && iy < ny_ && iz >= 0 && iz < nz_;
  }
  [[nodiscard]] std::size_t index(int ix, int iy, int iz) const {
    return (static_cast<std::size_t>(iz) * static_cast<std::size_t>(ny_) +
            static_cast<std::size_t>(iy)) *
               static_cast<std::size_t>(nx_) +
           static_cast<std::size_t>(ix);
  }

  [[nodiscard]] std::vector<T>& data() { return data_; }
  [[nodiscard]] const std::vector<T>& data() const { return data_; }

  void fill(const T& value) { data_.assign(data_.size(), value); }

 private:
  int nx_ = 0;
  int ny_ = 0;
  int nz_ = 0;
  std::vector<T> data_;
};

}  // namespace brightsi::numerics

#endif  // BRIGHTSI_NUMERICS_GRID_H
