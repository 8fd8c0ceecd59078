// Piecewise-linear interpolation tables.
//
// Used for Nusselt-number vs aspect-ratio data (Shah & London), digitized
// polarization reference curves, and workload traces. X values must be
// strictly increasing; out-of-range behaviour is selectable.
#ifndef BRIGHTSI_NUMERICS_INTERPOLATION_H
#define BRIGHTSI_NUMERICS_INTERPOLATION_H

#include <vector>

namespace brightsi::numerics {

/// Behaviour for queries outside the tabulated range.
enum class ExtrapolationPolicy {
  kClamp,        ///< return the boundary value
  kLinear,       ///< extend the end segments linearly
  kThrow,        ///< throw std::out_of_range
};

class PiecewiseLinearTable {
 public:
  PiecewiseLinearTable() = default;
  /// Throws std::invalid_argument unless xs is strictly increasing and
  /// matches ys in size (>= 2 points).
  PiecewiseLinearTable(std::vector<double> xs, std::vector<double> ys,
                       ExtrapolationPolicy policy = ExtrapolationPolicy::kClamp);

  [[nodiscard]] double operator()(double x) const { return evaluate(x); }
  [[nodiscard]] double evaluate(double x) const;

  [[nodiscard]] double x_min() const { return xs_.front(); }
  [[nodiscard]] double x_max() const { return xs_.back(); }
  [[nodiscard]] std::size_t size() const { return xs_.size(); }
  [[nodiscard]] const std::vector<double>& xs() const { return xs_; }
  [[nodiscard]] const std::vector<double>& ys() const { return ys_; }

 private:
  std::vector<double> xs_;
  std::vector<double> ys_;
  ExtrapolationPolicy policy_ = ExtrapolationPolicy::kClamp;
};

}  // namespace brightsi::numerics

#endif  // BRIGHTSI_NUMERICS_INTERPOLATION_H
