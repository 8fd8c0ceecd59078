#include "numerics/linear_solvers.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <type_traits>

#include "numerics/contracts.h"

namespace brightsi::numerics {
namespace {

double dot(std::span<const double> a, std::span<const double> b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    s += a[i] * b[i];
  }
  return s;
}

double norm(std::span<const double> a) { return std::sqrt(dot(a, a)); }

// y += alpha * x
void axpy(double alpha, std::span<const double> x, std::span<double> y) {
  for (std::size_t i = 0; i < x.size(); ++i) {
    y[i] += alpha * x[i];
  }
}

void identity_apply(std::span<const double> r, std::span<double> z) {
  std::copy(r.begin(), r.end(), z.begin());
}

double seconds_since(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// Calls `sweep` with the line count as a compile-time constant, so the
/// per-step loop over a group's lines unrolls (and a one-line group is a
/// plain row-by-row loop).
template <typename Sweep>
void with_line_count(int lines, Sweep&& sweep) {
  switch (lines) {
    case 4:
      sweep(std::integral_constant<int, 4>{});
      break;
    case 3:
      sweep(std::integral_constant<int, 3>{});
      break;
    case 2:
      sweep(std::integral_constant<int, 2>{});
      break;
    default:
      sweep(std::integral_constant<int, 1>{});
      break;
  }
}

}  // namespace

void KrylovWorkspace::resize(std::size_t n) {
  for (std::vector<double>* vec : {&r, &r0, &p, &v, &s, &t, &phat, &shat}) {
    vec->resize(n);
  }
}

Ilu0Preconditioner::Ilu0Preconditioner(const CsrMatrix& a) {
  ensure(a.rows() == a.cols(), "Ilu0Preconditioner requires a square matrix");
  n_ = a.rows();
  row_offsets_ = a.row_offsets();
  column_indices_ = a.column_indices();
  diagonal_position_.assign(static_cast<std::size_t>(n_), -1);

  for (int r = 0; r < n_; ++r) {
    for (int k = row_offsets_[static_cast<std::size_t>(r)];
         k < row_offsets_[static_cast<std::size_t>(r) + 1]; ++k) {
      if (column_indices_[static_cast<std::size_t>(k)] == r) {
        diagonal_position_[static_cast<std::size_t>(r)] = k;
      }
    }
    if (diagonal_position_[static_cast<std::size_t>(r)] < 0) {
      throw std::runtime_error("Ilu0Preconditioner: structurally zero diagonal at row " +
                               std::to_string(r));
    }
  }
  build_schedule();
  factorize(a);
}

void Ilu0Preconditioner::build_schedule() {
  // Lines: row i continues row i-1's line when its strictly-lower part
  // holds column i-1 (the last lower entry, as columns are sorted).
  std::vector<int> line_begin;  // first row per line, then n_ as sentinel
  std::vector<int> line_of(static_cast<std::size_t>(n_));
  for (int i = 0; i < n_; ++i) {
    const int lower_end = diagonal_position_[static_cast<std::size_t>(i)];
    const bool chained = lower_end > row_offsets_[static_cast<std::size_t>(i)] &&
                         column_indices_[static_cast<std::size_t>(lower_end) - 1] == i - 1;
    if (!chained) {
      line_begin.push_back(i);
    }
    line_of[static_cast<std::size_t>(i)] = static_cast<int>(line_begin.size()) - 1;
  }
  line_begin.push_back(n_);
  const int line_count = static_cast<int>(line_begin.size()) - 1;

  // A line's level is one more than the highest level of any other line
  // it reads: through L, lines are final in ascending order; through U,
  // in descending order.
  std::vector<int> forward_level(static_cast<std::size_t>(line_count), 0);
  std::vector<int> backward_level(static_cast<std::size_t>(line_count), 0);
  for (int line = 0; line < line_count; ++line) {
    const int begin = line_begin[static_cast<std::size_t>(line)];
    int level = 0;
    for (int i = begin; i < line_begin[static_cast<std::size_t>(line) + 1]; ++i) {
      for (int k = row_offsets_[static_cast<std::size_t>(i)];
           k < diagonal_position_[static_cast<std::size_t>(i)]; ++k) {
        const int col = column_indices_[static_cast<std::size_t>(k)];
        if (col < begin) {
          level = std::max(level,
                           forward_level[static_cast<std::size_t>(
                               line_of[static_cast<std::size_t>(col)])] + 1);
        }
      }
    }
    forward_level[static_cast<std::size_t>(line)] = level;
  }
  for (int line = line_count - 1; line >= 0; --line) {
    const int end = line_begin[static_cast<std::size_t>(line) + 1];
    int level = 0;
    for (int i = line_begin[static_cast<std::size_t>(line)]; i < end; ++i) {
      for (int k = diagonal_position_[static_cast<std::size_t>(i)] + 1;
           k < row_offsets_[static_cast<std::size_t>(i) + 1]; ++k) {
        const int col = column_indices_[static_cast<std::size_t>(k)];
        if (col >= end) {
          level = std::max(level,
                           backward_level[static_cast<std::size_t>(
                               line_of[static_cast<std::size_t>(col)])] + 1);
        }
      }
    }
    backward_level[static_cast<std::size_t>(line)] = level;
  }

  // Groups: lines of one level in ascending (length, first row) order, up
  // to kMaxGroupLines of equal length per group.
  auto group_lines = [&](const std::vector<int>& level, std::vector<LineGroup>& groups) {
    auto length_of = [&](int line) {
      return line_begin[static_cast<std::size_t>(line) + 1] -
             line_begin[static_cast<std::size_t>(line)];
    };
    std::vector<int> order(static_cast<std::size_t>(line_count));
    for (int line = 0; line < line_count; ++line) {
      order[static_cast<std::size_t>(line)] = line;
    }
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
      const int la = level[static_cast<std::size_t>(a)];
      const int lb = level[static_cast<std::size_t>(b)];
      return la != lb ? la < lb : length_of(a) < length_of(b);
    });
    groups.clear();
    int group_level = -1;
    for (const int line : order) {
      const int line_level = level[static_cast<std::size_t>(line)];
      if (groups.empty() || groups.back().lines == kMaxGroupLines ||
          groups.back().length != length_of(line) || group_level != line_level) {
        groups.push_back(LineGroup{{}, 0, length_of(line)});
        group_level = line_level;
      }
      LineGroup& group = groups.back();
      group.first_row[static_cast<std::size_t>(group.lines++)] =
          line_begin[static_cast<std::size_t>(line)];
    }
  };
  group_lines(forward_level, forward_groups_);
  group_lines(backward_level, backward_groups_);
}

void Ilu0Preconditioner::refactor(const CsrMatrix& a) {
  if (a.rows() != n_ || a.cols() != n_ || a.non_zeros() != column_indices_.size() ||
      a.row_offsets() != row_offsets_ || a.column_indices() != column_indices_) {
    throw std::invalid_argument(
        "Ilu0Preconditioner::refactor: matrix pattern differs from the factored one");
  }
  factorize(a);
}

void Ilu0Preconditioner::factorize(const CsrMatrix& a) {
  values_ = a.values();

  // IKJ-variant ILU(0): for each row i, eliminate against previous rows k
  // that appear in i's sparsity pattern.
  position_scratch_.assign(static_cast<std::size_t>(n_), -1);
  std::vector<int>& position_of_column = position_scratch_;
  for (int i = 0; i < n_; ++i) {
    const int row_begin = row_offsets_[static_cast<std::size_t>(i)];
    const int row_end = row_offsets_[static_cast<std::size_t>(i) + 1];
    for (int k = row_begin; k < row_end; ++k) {
      position_of_column[static_cast<std::size_t>(column_indices_[static_cast<std::size_t>(k)])] = k;
    }
    for (int k = row_begin; k < row_end; ++k) {
      const int col = column_indices_[static_cast<std::size_t>(k)];
      if (col >= i) {
        break;  // columns are sorted; only strictly-lower part is eliminated
      }
      const double pivot = values_[static_cast<std::size_t>(
          diagonal_position_[static_cast<std::size_t>(col)])];
      if (pivot == 0.0) {
        throw std::runtime_error("Ilu0Preconditioner: zero pivot at row " + std::to_string(col));
      }
      const double factor = values_[static_cast<std::size_t>(k)] / pivot;
      values_[static_cast<std::size_t>(k)] = factor;
      // Subtract factor * U-part of row `col` from row i (pattern-limited).
      for (int kk = diagonal_position_[static_cast<std::size_t>(col)] + 1;
           kk < row_offsets_[static_cast<std::size_t>(col) + 1]; ++kk) {
        const int target_col = column_indices_[static_cast<std::size_t>(kk)];
        const int pos = position_of_column[static_cast<std::size_t>(target_col)];
        if (pos >= 0) {
          values_[static_cast<std::size_t>(pos)] -=
              factor * values_[static_cast<std::size_t>(kk)];
        }
      }
    }
    for (int k = row_begin; k < row_end; ++k) {
      position_of_column[static_cast<std::size_t>(column_indices_[static_cast<std::size_t>(k)])] = -1;
    }
  }
}

void Ilu0Preconditioner::apply(std::span<const double> r, std::span<double> z) const {
  ensure(static_cast<int>(r.size()) == n_ && static_cast<int>(z.size()) == n_,
         "Ilu0Preconditioner::apply size mismatch");
  const int* offsets = row_offsets_.data();
  const int* columns = column_indices_.data();
  const int* diagonal = diagonal_position_.data();
  const double* values = values_.data();
  const double* in = r.data();
  double* out = z.data();
  // Forward solve L y = r (unit diagonal L), line group by line group.
  for (const LineGroup& group : forward_groups_) {
    with_line_count(group.lines, [&](auto lines) {
      for (int step = 0; step < group.length; ++step) {
        for (int line = 0; line < lines; ++line) {
          const int i = group.first_row[static_cast<std::size_t>(line)] + step;
          double sum = in[i];
          for (int k = offsets[i]; k < diagonal[i]; ++k) {
            sum -= values[k] * out[columns[k]];
          }
          out[i] = sum;
        }
      }
    });
  }
  // Backward solve U z = y, each line from its last row down.
  for (const LineGroup& group : backward_groups_) {
    with_line_count(group.lines, [&](auto lines) {
      for (int step = group.length - 1; step >= 0; --step) {
        for (int line = 0; line < lines; ++line) {
          const int i = group.first_row[static_cast<std::size_t>(line)] + step;
          double sum = out[i];
          for (int k = diagonal[i] + 1; k < offsets[i + 1]; ++k) {
            sum -= values[k] * out[columns[k]];
          }
          out[i] = sum / values[diagonal[i]];
        }
      }
    });
  }
}

namespace {

SolverReport run_cg(const CsrMatrix& a, std::span<const double> b, std::span<double> x,
                    const Ilu0Preconditioner* preconditioner, const SolverOptions& options,
                    KrylovWorkspace& ws) {
  ensure(a.rows() == a.cols(), "solve_cg requires a square matrix");
  const auto n = static_cast<std::size_t>(a.rows());
  ensure(b.size() == n && x.size() == n, "solve_cg size mismatch");

  ws.resize(n);
  std::vector<double>& r = ws.r;
  std::vector<double>& z = ws.phat;  // CG's preconditioned residual
  std::vector<double>& p = ws.p;
  std::vector<double>& ap = ws.v;  // CG's A*p
  a.multiply(x, r);
  for (std::size_t i = 0; i < n; ++i) {
    r[i] = b[i] - r[i];
  }
  const double b_norm = norm(b);
  const double target = std::max(options.relative_tolerance * b_norm, options.absolute_tolerance);

  SolverReport report;
  report.residual_norm = norm(r);
  if (report.residual_norm <= target) {
    report.converged = true;
    return report;
  }

  if (preconditioner != nullptr) {
    preconditioner->apply(r, z);
  } else {
    identity_apply(r, z);
  }
  std::copy(z.begin(), z.end(), p.begin());
  double rho = dot(r, z);

  for (int it = 1; it <= options.max_iterations; ++it) {
    a.multiply(p, ap);
    const double p_ap = dot(p, ap);
    if (p_ap == 0.0) {
      break;  // breakdown
    }
    const double alpha = rho / p_ap;
    axpy(alpha, p, x);
    axpy(-alpha, ap, r);
    report.iterations = it;
    report.residual_norm = norm(r);
    if (report.residual_norm <= target) {
      report.converged = true;
      return report;
    }
    if (preconditioner != nullptr) {
      preconditioner->apply(r, z);
    } else {
      identity_apply(r, z);
    }
    const double rho_next = dot(r, z);
    const double beta = rho_next / rho;
    rho = rho_next;
    for (std::size_t i = 0; i < n; ++i) {
      p[i] = z[i] + beta * p[i];
    }
  }
  return report;
}

SolverReport run_bicgstab(const CsrMatrix& a, std::span<const double> b, std::span<double> x,
                          const Ilu0Preconditioner* preconditioner, const SolverOptions& options,
                          KrylovWorkspace& ws) {
  ensure(a.rows() == a.cols(), "solve_bicgstab requires a square matrix");
  const auto n = static_cast<std::size_t>(a.rows());
  ensure(b.size() == n && x.size() == n, "solve_bicgstab size mismatch");

  ws.resize(n);
  std::vector<double>& r = ws.r;
  std::vector<double>& r0 = ws.r0;
  std::vector<double>& p = ws.p;
  std::vector<double>& v = ws.v;
  std::vector<double>& s = ws.s;
  std::vector<double>& t = ws.t;
  std::vector<double>& phat = ws.phat;
  std::vector<double>& shat = ws.shat;
  a.multiply(x, r);
  for (std::size_t i = 0; i < n; ++i) {
    r[i] = b[i] - r[i];
  }
  std::copy(r.begin(), r.end(), r0.begin());

  const double b_norm = norm(b);
  const double target = std::max(options.relative_tolerance * b_norm, options.absolute_tolerance);

  // Each reduction below is fused into a loop that already runs, with its
  // terms summed in i = 0..n-1 order, so every scalar is bitwise the
  // separate dot product's.
  SolverReport report;
  double r_r = dot(r, r);
  report.residual_norm = std::sqrt(r_r);
  if (report.residual_norm <= target) {
    report.converged = true;
    return report;
  }

  double rho = 1.0, alpha = 1.0, omega = 1.0;
  double r0_r = r_r;  // r0 == r before the first iteration
  for (int it = 1; it <= options.max_iterations; ++it) {
    const double rho_next = r0_r;
    if (rho_next == 0.0) {
      break;  // breakdown
    }
    if (it == 1) {
      std::copy(r.begin(), r.end(), p.begin());
    } else {
      const double beta = (rho_next / rho) * (alpha / omega);
      for (std::size_t i = 0; i < n; ++i) {
        p[i] = r[i] + beta * (p[i] - omega * v[i]);
      }
    }
    rho = rho_next;

    if (preconditioner != nullptr) {
      preconditioner->apply(p, phat);
    } else {
      identity_apply(p, phat);
    }
    a.multiply(phat, v);
    const double r0_v = dot(r0, v);
    if (r0_v == 0.0) {
      break;
    }
    alpha = rho / r0_v;
    double s_s = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      s[i] = r[i] - alpha * v[i];
      s_s += s[i] * s[i];
    }
    report.iterations = it;
    const double s_norm = std::sqrt(s_s);
    if (s_norm <= target) {
      axpy(alpha, phat, x);
      report.residual_norm = s_norm;
      report.converged = true;
      return report;
    }

    if (preconditioner != nullptr) {
      preconditioner->apply(s, shat);
    } else {
      identity_apply(s, shat);
    }
    a.multiply(shat, t);
    double t_t = 0.0, t_s = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      t_t += t[i] * t[i];
      t_s += t[i] * s[i];
    }
    if (t_t == 0.0) {
      break;
    }
    omega = t_s / t_t;
    r_r = 0.0;
    r0_r = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      x[i] += alpha * phat[i] + omega * shat[i];
      r[i] = s[i] - omega * t[i];
      r_r += r[i] * r[i];
      r0_r += r0[i] * r[i];
    }
    report.residual_norm = std::sqrt(r_r);
    if (report.residual_norm <= target) {
      report.converged = true;
      return report;
    }
    if (omega == 0.0) {
      break;
    }
  }
  return report;
}

}  // namespace

SolverReport solve_cg(const CsrMatrix& a, std::span<const double> b, std::span<double> x,
                      const Ilu0Preconditioner* preconditioner, const SolverOptions& options,
                      KrylovWorkspace* workspace) {
  const auto start = std::chrono::steady_clock::now();
  KrylovWorkspace local;
  SolverReport report =
      run_cg(a, b, x, preconditioner, options, workspace != nullptr ? *workspace : local);
  report.solve_time_s = seconds_since(start);
  return report;
}

SolverReport solve_bicgstab(const CsrMatrix& a, std::span<const double> b, std::span<double> x,
                            const Ilu0Preconditioner* preconditioner, const SolverOptions& options,
                            KrylovWorkspace* workspace) {
  const auto start = std::chrono::steady_clock::now();
  KrylovWorkspace local;
  SolverReport report =
      run_bicgstab(a, b, x, preconditioner, options, workspace != nullptr ? *workspace : local);
  report.solve_time_s = seconds_since(start);
  return report;
}

}  // namespace brightsi::numerics
