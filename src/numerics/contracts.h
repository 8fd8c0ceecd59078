// Lightweight contract checking used across the project.
//
// Public API entry points validate their preconditions with `ensure` /
// `ensure_positive` / `ensure_finite` (these throw std::invalid_argument so
// misuse is reported to callers), while internal invariants use plain
// assert. This follows the Core Guidelines split between interface
// contracts (I.5/I.6) and implementation assertions.
//
// The checks run inside the hot loops (per Brent evaluation, per CSR
// entry), so a passing check must not allocate: messages arrive as
// std::string_view and the std::string is built only on the failing
// branch, out of line.
#ifndef BRIGHTSI_NUMERICS_CONTRACTS_H
#define BRIGHTSI_NUMERICS_CONTRACTS_H

#include <cmath>
#include <string_view>

namespace brightsi {

namespace detail {
/// Throws std::invalid_argument(message).
[[noreturn]] void throw_invalid_argument(std::string_view message);
/// Throws std::invalid_argument(name + requirement + std::to_string(value)).
[[noreturn]] void throw_invalid_value(std::string_view name, std::string_view requirement,
                                      double value);
}  // namespace detail

/// Throws std::invalid_argument with `message` when `condition` is false.
inline void ensure(bool condition, std::string_view message) {
  if (!condition) [[unlikely]] {
    detail::throw_invalid_argument(message);
  }
}

/// Requires `value > 0` (and finite); `name` identifies the offending parameter.
inline void ensure_positive(double value, std::string_view name) {
  if (!(value > 0.0) || !std::isfinite(value)) [[unlikely]] {
    detail::throw_invalid_value(name, " must be positive and finite, got ", value);
  }
}

/// Requires `value >= 0` (and finite).
inline void ensure_non_negative(double value, std::string_view name) {
  if (value < 0.0 || !std::isfinite(value)) [[unlikely]] {
    detail::throw_invalid_value(name, " must be non-negative and finite, got ", value);
  }
}

/// Requires a finite value (rejects NaN and infinities).
inline void ensure_finite(double value, std::string_view name) {
  if (!std::isfinite(value)) [[unlikely]] {
    detail::throw_invalid_value(name, " must be finite, got ", value);
  }
}

}  // namespace brightsi

#endif  // BRIGHTSI_NUMERICS_CONTRACTS_H
