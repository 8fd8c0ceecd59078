#include "numerics/interpolation.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "numerics/contracts.h"

namespace brightsi::numerics {

PiecewiseLinearTable::PiecewiseLinearTable(std::vector<double> xs, std::vector<double> ys,
                                           ExtrapolationPolicy policy)
    : xs_(std::move(xs)), ys_(std::move(ys)), policy_(policy) {
  ensure(xs_.size() >= 2, "PiecewiseLinearTable needs at least two points");
  ensure(xs_.size() == ys_.size(), "PiecewiseLinearTable xs/ys size mismatch");
  for (std::size_t i = 1; i < xs_.size(); ++i) {
    ensure(xs_[i] > xs_[i - 1], "PiecewiseLinearTable xs must be strictly increasing");
  }
  for (std::size_t i = 0; i < xs_.size(); ++i) {
    ensure_finite(xs_[i], "PiecewiseLinearTable x");
    ensure_finite(ys_[i], "PiecewiseLinearTable y");
  }
}

double PiecewiseLinearTable::evaluate(double x) const {
  ensure(!xs_.empty(), "PiecewiseLinearTable is empty");
  if (x < xs_.front() || x > xs_.back()) {
    switch (policy_) {
      case ExtrapolationPolicy::kClamp:
        return (x < xs_.front()) ? ys_.front() : ys_.back();
      case ExtrapolationPolicy::kLinear:
        break;  // fall through to segment interpolation on the end segment
      case ExtrapolationPolicy::kThrow:
        throw std::out_of_range("PiecewiseLinearTable: x=" + std::to_string(x) +
                                " outside [" + std::to_string(xs_.front()) + ", " +
                                std::to_string(xs_.back()) + "]");
    }
  }
  std::size_t hi = static_cast<std::size_t>(
      std::upper_bound(xs_.begin(), xs_.end(), x) - xs_.begin());
  hi = std::clamp<std::size_t>(hi, 1, xs_.size() - 1);
  const std::size_t lo = hi - 1;
  const double t = (x - xs_[lo]) / (xs_[hi] - xs_[lo]);
  return ys_[lo] + t * (ys_[hi] - ys_[lo]);
}

}  // namespace brightsi::numerics
