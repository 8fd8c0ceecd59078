// Scalar root finding: Brent's method (bracketing, superlinear) and damped
// Newton. Brent is the closure solver of the Butler–Volmer wall condition in
// the channel FVM, so it is templated on the callable to keep the per-cell
// cost free of std::function overhead.
#ifndef BRIGHTSI_NUMERICS_ROOT_FINDING_H
#define BRIGHTSI_NUMERICS_ROOT_FINDING_H

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>

namespace brightsi::numerics {

/// Result of a scalar root search.
struct RootResult {
  double root = 0.0;
  double function_value = 0.0;
  int iterations = 0;
  bool converged = false;
};

/// A bracket end whose function value the caller already knows.
struct BracketEnd {
  double x = 0.0;
  double f = 0.0;  ///< f(x)
};

/// Brent's method on [lo.x, hi.x] from known end values, so a caller that
/// has already evaluated the ends (to test the bracket) does not pay for
/// them twice. Same contract and iterates as the overload below.
template <typename F>
RootResult find_root_brent(F&& f, BracketEnd lo, BracketEnd hi, double x_tolerance = 1e-12,
                           double f_tolerance = 0.0, int max_iterations = 128) {
  double a = lo.x;
  double b = hi.x;
  double fa = lo.f;
  double fb = hi.f;
  if (fa == 0.0) {
    return {a, 0.0, 0, true};
  }
  if (fb == 0.0) {
    return {b, 0.0, 0, true};
  }
  if ((fa > 0.0) == (fb > 0.0)) {
    throw std::invalid_argument("find_root_brent: root not bracketed, f(a)=" +
                                std::to_string(fa) + " f(b)=" + std::to_string(fb));
  }

  double c = a;
  double fc = fa;
  double d = b - a;
  double e = d;

  RootResult result;
  for (int it = 1; it <= max_iterations; ++it) {
    result.iterations = it;
    if ((fb > 0.0) == (fc > 0.0)) {
      c = a;
      fc = fa;
      d = b - a;
      e = d;
    }
    if (std::abs(fc) < std::abs(fb)) {
      a = b;
      b = c;
      c = a;
      fa = fb;
      fb = fc;
      fc = fa;
    }
    const double tol = 2.0 * std::numeric_limits<double>::epsilon() * std::abs(b) +
                       0.5 * x_tolerance;
    const double m = 0.5 * (c - b);
    if (std::abs(m) <= tol || fb == 0.0 || std::abs(fb) <= f_tolerance) {
      result.root = b;
      result.function_value = fb;
      result.converged = true;
      return result;
    }
    if (std::abs(e) >= tol && std::abs(fa) > std::abs(fb)) {
      // Attempt inverse quadratic interpolation / secant.
      const double s = fb / fa;
      double p, q;
      if (a == c) {
        p = 2.0 * m * s;
        q = 1.0 - s;
      } else {
        const double qq = fa / fc;
        const double r = fb / fc;
        p = s * (2.0 * m * qq * (qq - r) - (b - a) * (r - 1.0));
        q = (qq - 1.0) * (r - 1.0) * (s - 1.0);
      }
      if (p > 0.0) {
        q = -q;
      } else {
        p = -p;
      }
      if (2.0 * p < std::min(3.0 * m * q - std::abs(tol * q), std::abs(e * q))) {
        e = d;
        d = p / q;
      } else {
        d = m;
        e = m;
      }
    } else {
      d = m;
      e = m;
    }
    a = b;
    fa = fb;
    b += (std::abs(d) > tol) ? d : (m > 0.0 ? tol : -tol);
    fb = f(b);
  }
  result.root = b;
  result.function_value = fb;
  result.converged = false;
  return result;
}

/// Brent's method on [a, b]. Requires f(a) and f(b) of opposite sign (or one
/// of them zero); throws std::invalid_argument otherwise. Converges to
/// |b - a| <= x_tolerance or |f| <= f_tolerance.
template <typename F>
RootResult find_root_brent(F&& f, double a, double b, double x_tolerance = 1e-12,
                           double f_tolerance = 0.0, int max_iterations = 128) {
  const double fa = f(a);
  const double fb = f(b);
  return find_root_brent(f, BracketEnd{a, fa}, BracketEnd{b, fb}, x_tolerance, f_tolerance,
                         max_iterations);
}

/// Damped Newton iteration from `x0`. `fdf` returns {f(x), f'(x)}. Falls
/// back to halving the step while the residual does not decrease.
template <typename FDF>
RootResult find_root_newton(FDF&& fdf, double x0, double x_tolerance = 1e-12,
                            int max_iterations = 64) {
  RootResult result;
  double x = x0;
  auto [fx, dfx] = fdf(x);
  for (int it = 1; it <= max_iterations; ++it) {
    result.iterations = it;
    if (dfx == 0.0 || !std::isfinite(dfx)) {
      break;
    }
    double step = fx / dfx;
    double x_next = x - step;
    auto [f_next, df_next] = fdf(x_next);
    int damping = 0;
    while (std::isfinite(f_next) && std::abs(f_next) > std::abs(fx) && damping < 20) {
      step *= 0.5;
      x_next = x - step;
      std::tie(f_next, df_next) = fdf(x_next);
      ++damping;
    }
    const double dx = std::abs(x_next - x);
    x = x_next;
    fx = f_next;
    dfx = df_next;
    if (dx <= x_tolerance * (1.0 + std::abs(x))) {
      result.converged = true;
      break;
    }
  }
  result.root = x;
  result.function_value = fx;
  return result;
}

}  // namespace brightsi::numerics

#endif  // BRIGHTSI_NUMERICS_ROOT_FINDING_H
