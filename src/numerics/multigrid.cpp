#include "numerics/multigrid.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "numerics/contracts.h"

namespace brightsi::numerics {

namespace {

/// Under-relaxation of the damped-Jacobi smoother.
constexpr double kJacobiDamping = 0.7;

/// r = b - A x.
void residual(const CsrMatrix& a, const std::vector<double>& x, const std::vector<double>& b,
              std::vector<double>& r) {
  const std::vector<int>& offsets = a.row_offsets();
  const std::vector<int>& columns = a.column_indices();
  const std::vector<double>& values = a.values();
  const int n = static_cast<int>(b.size());
  for (int i = 0; i < n; ++i) {
    double sum = b[static_cast<std::size_t>(i)];
    const int begin = offsets[static_cast<std::size_t>(i)];
    const int end = offsets[static_cast<std::size_t>(i) + 1];
    for (int k = begin; k < end; ++k) {
      sum -= values[static_cast<std::size_t>(k)] *
             x[static_cast<std::size_t>(columns[static_cast<std::size_t>(k)])];
    }
    r[static_cast<std::size_t>(i)] = sum;
  }
}

/// Slice centers from slice thicknesses (prefix midpoints).
std::vector<double> centers_of(const std::vector<double>& thicknesses) {
  std::vector<double> centers(thicknesses.size());
  double bottom = 0.0;
  for (std::size_t i = 0; i < thicknesses.size(); ++i) {
    centers[i] = bottom + thicknesses[i] / 2.0;
    bottom += thicknesses[i];
  }
  return centers;
}

}  // namespace

MultigridPreconditioner::MultigridPreconditioner(const CsrMatrix& a, int plane_cells,
                                                 std::vector<double> z_thicknesses,
                                                 const MultigridOptions& options)
    : options_(options), plane_(plane_cells) {
  ensure(a.rows() == a.cols(), "MultigridPreconditioner requires a square matrix");
  ensure(plane_cells > 0, "MultigridPreconditioner: plane_cells must be positive");
  ensure(!z_thicknesses.empty(), "MultigridPreconditioner: no z slices");
  for (const double dz : z_thicknesses) {
    ensure_positive(dz, "MultigridPreconditioner z thickness");
  }
  if (a.rows() != plane_cells * static_cast<int>(z_thicknesses.size())) {
    throw std::invalid_argument(
        "MultigridPreconditioner: matrix dimension " + std::to_string(a.rows()) +
        " is not plane_cells * z_count = " + std::to_string(plane_cells) + " * " +
        std::to_string(z_thicknesses.size()));
  }
  ensure(options_.pre_smooth_sweeps >= 0 && options_.post_smooth_sweeps >= 0 &&
             options_.pre_smooth_sweeps + options_.post_smooth_sweeps > 0,
         "MultigridOptions: need at least one smoothing sweep per cycle");
  ensure(options_.coarse_sweeps >= 1, "MultigridOptions: coarse_sweeps must be >= 1");
  ensure(options_.max_levels >= 1, "MultigridOptions: max_levels must be >= 1");
  build_hierarchy(a, std::move(z_thicknesses));
}

void MultigridPreconditioner::build_hierarchy(const CsrMatrix& a,
                                              std::vector<double> z_thicknesses) {
  // The finest level's Galerkin product stamps four triplets per fine
  // nonzero, the most of any level: size the buffer once, not by doubling.
  galerkin_triplets_ = TripletList(4 * a.non_zeros());
  levels_.emplace_back();
  levels_.front().a = a;
  levels_.front().z = static_cast<int>(z_thicknesses.size());

  // Aggregate z-slice pairs until a single slice remains (or the depth cap
  // trips): coarse slice j spans fine slices {2j, 2j+1}. Interpolation is
  // linear between aggregate centers, computed from the physical
  // thicknesses so non-uniform stacks coarsen by geometry, not by index.
  while (levels_.back().z > 1 && static_cast<int>(levels_.size()) < options_.max_levels) {
    Level& fine = levels_.back();
    const int zf = fine.z;
    const int zc = (zf + 1) / 2;

    std::vector<double> coarse_thicknesses(static_cast<std::size_t>(zc), 0.0);
    for (int i = 0; i < zf; ++i) {
      coarse_thicknesses[static_cast<std::size_t>(i / 2)] +=
          z_thicknesses[static_cast<std::size_t>(i)];
    }
    const std::vector<double> fine_centers = centers_of(z_thicknesses);
    const std::vector<double> coarse_centers = centers_of(coarse_thicknesses);

    fine.z_interp.resize(static_cast<std::size_t>(zf));
    for (int i = 0; i < zf; ++i) {
      ZInterpolation& interp = fine.z_interp[static_cast<std::size_t>(i)];
      const double c = fine_centers[static_cast<std::size_t>(i)];
      // Bracketing coarse centers; inject outside the first/last center.
      int lo = i / 2;
      if (c < coarse_centers[static_cast<std::size_t>(lo)]) {
        --lo;
      }
      if (lo < 0 || lo + 1 >= zc) {
        const int only = std::clamp(lo, 0, zc - 1);
        interp = {only, only, 1.0, 0.0};
        continue;
      }
      const double c_lo = coarse_centers[static_cast<std::size_t>(lo)];
      const double c_hi = coarse_centers[static_cast<std::size_t>(lo) + 1];
      const double w_hi = (c - c_lo) / (c_hi - c_lo);
      interp = {lo, lo + 1, 1.0 - w_hi, w_hi};
    }

    levels_.emplace_back();
    levels_.back().z = zc;
    const int coarse_level = static_cast<int>(levels_.size()) - 1;
    galerkin_fill(coarse_level);
    z_thicknesses = std::move(coarse_thicknesses);
  }

  for (Level& level : levels_) {
    const auto n = static_cast<std::size_t>(level.a.rows());
    level.x.assign(n, 0.0);
    level.b.assign(n, 0.0);
    level.r.assign(n, 0.0);
    refresh_level(level);
  }
  Level& coarsest = levels_.back();
  coarsest.t.assign(static_cast<std::size_t>(coarsest.a.rows()), 0.0);
  coarse_ilu_ = std::make_unique<Ilu0Preconditioner>(coarsest.a);
  // The triplet buffer only serves the pattern build; refactor() goes
  // through the slot plans. Free it (it peaks at 4x the largest level's
  // nonzero count) rather than carrying it for the hierarchy's lifetime.
  galerkin_triplets_ = TripletList();
}

void MultigridPreconditioner::galerkin_fill(int coarse_level) {
  // A_c = P^T A_f P, stamped sparsely: every fine nonzero A_f(i, j)
  // scatters through the (at most 2x2) product of the row's and column's
  // z-interpolation stencils. The fine CSR traversal order is
  // deterministic and pattern-fixed, so the triplet sequence is identical
  // on every call — which is what lets refactor() reuse the slot cache.
  Level& coarse = levels_[static_cast<std::size_t>(coarse_level)];
  const Level& fine = levels_[static_cast<std::size_t>(coarse_level) - 1];
  const CsrMatrix& af = fine.a;
  const std::vector<int>& offsets = af.row_offsets();
  const std::vector<int>& columns = af.column_indices();
  const std::vector<double>& values = af.values();

  galerkin_triplets_.clear();
  for (int i = 0; i < af.rows(); ++i) {
    const ZInterpolation& wi = fine.z_interp[static_cast<std::size_t>(i / plane_)];
    const int pi = i % plane_;
    for (int k = offsets[static_cast<std::size_t>(i)];
         k < offsets[static_cast<std::size_t>(i) + 1]; ++k) {
      const int j = columns[static_cast<std::size_t>(k)];
      const ZInterpolation& wj = fine.z_interp[static_cast<std::size_t>(j / plane_)];
      const int pj = j % plane_;
      const double v = values[static_cast<std::size_t>(k)];
      galerkin_triplets_.add(wi.coarse_a * plane_ + pi, wj.coarse_a * plane_ + pj,
                             wi.weight_a * wj.weight_a * v);
      galerkin_triplets_.add(wi.coarse_a * plane_ + pi, wj.coarse_b * plane_ + pj,
                             wi.weight_a * wj.weight_b * v);
      galerkin_triplets_.add(wi.coarse_b * plane_ + pi, wj.coarse_a * plane_ + pj,
                             wi.weight_b * wj.weight_a * v);
      galerkin_triplets_.add(wi.coarse_b * plane_ + pi, wj.coarse_b * plane_ + pj,
                             wi.weight_b * wj.weight_b * v);
    }
  }

  const int nc = coarse.z * plane_;
  coarse.a = CsrMatrix::from_triplets(nc, nc, galerkin_triplets_);
  // The populated slot cache doubles as the refactor-time gather plan: four
  // destination slots per fine nonzero, in the stamp order above.
  coarse.a.refill_from_triplets(galerkin_triplets_, &coarse.scatter_plan);
}

void MultigridPreconditioner::galerkin_refill(int coarse_level) {
  // Numerically identical to galerkin_fill + refill_from_triplets — the
  // same weight products are accumulated in the same order — but through
  // the precomputed slot plan, so the refactor hot path is one gather pass
  // over the fine nonzeros with no triplet stamping or slot searches.
  Level& coarse = levels_[static_cast<std::size_t>(coarse_level)];
  const Level& fine = levels_[static_cast<std::size_t>(coarse_level) - 1];
  const CsrMatrix& af = fine.a;
  const std::vector<int>& offsets = af.row_offsets();
  const std::vector<int>& columns = af.column_indices();
  const std::vector<double>& values = af.values();
  const std::vector<int>& plan = coarse.scatter_plan;
  std::vector<double>& coarse_values = coarse.a.mutable_values();
  std::fill(coarse_values.begin(), coarse_values.end(), 0.0);

  std::size_t slot = 0;
  for (int i = 0; i < af.rows(); ++i) {
    const ZInterpolation& wi = fine.z_interp[static_cast<std::size_t>(i / plane_)];
    for (int k = offsets[static_cast<std::size_t>(i)];
         k < offsets[static_cast<std::size_t>(i) + 1]; ++k) {
      const ZInterpolation& wj = fine.z_interp[static_cast<std::size_t>(
          columns[static_cast<std::size_t>(k)] / plane_)];
      const double v = values[static_cast<std::size_t>(k)];
      coarse_values[static_cast<std::size_t>(plan[slot])] += wi.weight_a * wj.weight_a * v;
      coarse_values[static_cast<std::size_t>(plan[slot + 1])] +=
          wi.weight_a * wj.weight_b * v;
      coarse_values[static_cast<std::size_t>(plan[slot + 2])] +=
          wi.weight_b * wj.weight_a * v;
      coarse_values[static_cast<std::size_t>(plan[slot + 3])] +=
          wi.weight_b * wj.weight_b * v;
      slot += 4;
    }
  }
}

void MultigridPreconditioner::refresh_level(Level& level) {
  level.inverse_diagonal = level.a.diagonal();
  for (double& d : level.inverse_diagonal) {
    d = (d != 0.0) ? 1.0 / d : 1.0;
  }
}

void MultigridPreconditioner::refactor(const CsrMatrix& a) {
  // copy_values_from performs the pattern check (and throws on mismatch).
  levels_.front().a.copy_values_from(a);
  refresh_level(levels_.front());
  for (int l = 1; l < level_count(); ++l) {
    galerkin_refill(l);
    refresh_level(levels_[static_cast<std::size_t>(l)]);
  }
  coarse_ilu_->refactor(levels_.back().a);
}

void MultigridPreconditioner::smooth(const Level& level, int sweeps,
                                     bool x_is_zero) const {
  // Damped Jacobi: x += w D^{-1} (b - A x), residual computed against the
  // whole old iterate (two passes), so the sweep is a stationary linear
  // operation regardless of unknown ordering.
  int sweep = 0;
  if (x_is_zero && sweeps > 0) {
    // With x == 0 the residual is b itself, so the first sweep needs no
    // matvec — same result, one pass over the matrix saved per level.
    for (std::size_t i = 0; i < level.x.size(); ++i) {
      level.x[i] = kJacobiDamping * level.inverse_diagonal[i] * level.b[i];
    }
    sweep = 1;
  }
  for (; sweep < sweeps; ++sweep) {
    residual(level.a, level.x, level.b, level.r);
    for (std::size_t i = 0; i < level.x.size(); ++i) {
      level.x[i] += kJacobiDamping * level.inverse_diagonal[i] * level.r[i];
    }
  }
}

void MultigridPreconditioner::residual_to_coarse(int fine_level) const {
  const Level& fine = levels_[static_cast<std::size_t>(fine_level)];
  const Level& coarse = levels_[static_cast<std::size_t>(fine_level) + 1];
  residual(fine.a, fine.x, fine.b, fine.r);
  std::fill(coarse.b.begin(), coarse.b.end(), 0.0);
  for (int fz = 0; fz < fine.z; ++fz) {
    const ZInterpolation& w = fine.z_interp[static_cast<std::size_t>(fz)];
    const double* r = fine.r.data() + static_cast<std::size_t>(fz) * plane_;
    double* ba = coarse.b.data() + static_cast<std::size_t>(w.coarse_a) * plane_;
    double* bb = coarse.b.data() + static_cast<std::size_t>(w.coarse_b) * plane_;
    for (int p = 0; p < plane_; ++p) {
      ba[p] += w.weight_a * r[p];
    }
    if (w.weight_b != 0.0) {
      for (int p = 0; p < plane_; ++p) {
        bb[p] += w.weight_b * r[p];
      }
    }
  }
}

void MultigridPreconditioner::correct_from_coarse(int fine_level) const {
  const Level& fine = levels_[static_cast<std::size_t>(fine_level)];
  const Level& coarse = levels_[static_cast<std::size_t>(fine_level) + 1];
  for (int fz = 0; fz < fine.z; ++fz) {
    const ZInterpolation& w = fine.z_interp[static_cast<std::size_t>(fz)];
    double* x = fine.x.data() + static_cast<std::size_t>(fz) * plane_;
    const double* xa = coarse.x.data() + static_cast<std::size_t>(w.coarse_a) * plane_;
    const double* xb = coarse.x.data() + static_cast<std::size_t>(w.coarse_b) * plane_;
    for (int p = 0; p < plane_; ++p) {
      x[p] += w.weight_a * xa[p] + w.weight_b * xb[p];
    }
  }
}

void MultigridPreconditioner::coarse_solve() const {
  // Fixed-count ILU(0) iterative refinement: x_{k+1} = x_k + M^{-1}(b - A x_k)
  // with x_0 = M^{-1} b. A fixed sweep count keeps the whole V-cycle a
  // stationary linear operator (an inner Krylov solve would not).
  const Level& level = levels_.back();
  coarse_ilu_->apply(level.b, level.x);
  for (int sweep = 1; sweep < options_.coarse_sweeps; ++sweep) {
    residual(level.a, level.x, level.b, level.r);
    coarse_ilu_->apply(level.r, level.t);
    for (std::size_t i = 0; i < level.x.size(); ++i) {
      level.x[i] += level.t[i];
    }
  }
}

void MultigridPreconditioner::apply(std::span<const double> r, std::span<double> z) const {
  const Level& finest = levels_.front();
  ensure(r.size() == finest.b.size() && z.size() == r.size(),
         "MultigridPreconditioner::apply size mismatch");
  std::copy(r.begin(), r.end(), finest.b.begin());

  const int coarsest = level_count() - 1;
  for (int l = 0; l < coarsest; ++l) {
    const Level& level = levels_[static_cast<std::size_t>(l)];
    std::fill(level.x.begin(), level.x.end(), 0.0);
    smooth(level, options_.pre_smooth_sweeps, /*x_is_zero=*/true);
    residual_to_coarse(l);
  }
  coarse_solve();
  for (int l = coarsest - 1; l >= 0; --l) {
    correct_from_coarse(l);
    smooth(levels_[static_cast<std::size_t>(l)], options_.post_smooth_sweeps);
  }
  std::copy(finest.x.begin(), finest.x.end(), z.begin());
}

const CsrMatrix& MultigridPreconditioner::matrix(int level) const {
  ensure(level >= 0 && level < level_count(), "MultigridPreconditioner: level out of range");
  return levels_[static_cast<std::size_t>(level)].a;
}

int MultigridPreconditioner::z_count(int level) const {
  ensure(level >= 0 && level < level_count(), "MultigridPreconditioner: level out of range");
  return levels_[static_cast<std::size_t>(level)].z;
}

const std::vector<MultigridPreconditioner::ZInterpolation>&
MultigridPreconditioner::interpolation(int level) const {
  ensure(level >= 0 && level + 1 < level_count(),
         "MultigridPreconditioner: no interpolation below the coarsest level");
  return levels_[static_cast<std::size_t>(level)].z_interp;
}

}  // namespace brightsi::numerics
