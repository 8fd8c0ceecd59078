// Geometric multigrid preconditioner for the z-layered tensor-product
// operators assembled by the thermal model: semicoarsening in z (the
// direction of strong coupling — thin dies and channel slices make the
// vertical conductances dominate), damped-Jacobi smoothing in the plane,
// Galerkin coarse operators (A_c = P^T A P) and an ILU(0)
// iterative-refinement solve on the coarsest level.
//
// The fine operator must be lexicographic with x fastest and z slowest:
// cell (ix, iy, iz) lives at row (iz * ny + iy) * nx + ix, i.e. the grid
// is `z_count` stacked planes of `plane_cells` cells each. Restriction and
// prolongation act on whole planes: P = P_z (x) I_plane, where P_z
// linearly interpolates between the centers of aggregated z-slice pairs —
// the z-cell thicknesses (straight from the StackSpec layer structure)
// supply the interpolation weights, so grossly non-uniform stacks (10 um
// active planes over 650 um bulk) coarsen sensibly.
//
// One apply() runs a single V-cycle with a zero initial guess. The
// hierarchy is truncated by default (MultigridOptions::max_levels): the
// coarsest level keeps a few z-slices and is solved with ILU(0) iterative
// refinement, which handles the coolant advection chains that the plane
// smoother cannot. Every ingredient (Jacobi sweeps, Galerkin correction,
// fixed refinement count) is a stationary linear operation, so the
// preconditioner is a fixed linear operator — safe for BiCGSTAB/CG — and
// fully deterministic.
//
// Like Ilu0Preconditioner, the hierarchy's sparsity structure is built
// once; `refactor(a)` redoes only the numeric work (Galerkin products,
// smoother diagonals, coarse ILU factorization) for new coefficients on
// the same pattern. apply() uses per-level scratch vectors, so a
// preconditioner is single-threaded state: one per solve context, never
// shared across threads.
#ifndef BRIGHTSI_NUMERICS_MULTIGRID_H
#define BRIGHTSI_NUMERICS_MULTIGRID_H

#include <memory>
#include <span>
#include <vector>

#include "numerics/linear_solvers.h"
#include "numerics/sparse_matrix.h"

namespace brightsi::numerics {

/// Cycle and smoothing controls of the multigrid hierarchy.
struct MultigridOptions {
  int pre_smooth_sweeps = 1;        ///< damped-Jacobi sweeps before coarsening
  int post_smooth_sweeps = 1;       ///< ... and after the coarse correction
  /// ILU(0) iterative-refinement sweeps on the coarsest level (a fixed
  /// count keeps the cycle a stationary linear operator).
  int coarse_sweeps = 4;
  /// Hierarchy depth cap (z halves per level). Coarsening stops at one
  /// z-slice or after this many levels, whichever comes first — and the
  /// cap matters: the coarsest level is solved with refined ILU(0), which
  /// is a far stronger solve than Jacobi smoothing when the coarse grid
  /// still holds a few z-slices (it resolves the fluid advection chains
  /// the plane smoother cannot). Empirically a truncated hierarchy nearly
  /// halves the Krylov iteration count versus coarsening all the way to
  /// z = 1, at a modest coarse-factorization cost, and makes the count
  /// essentially independent of stack height. Raise the cap to study
  /// textbook full coarsening.
  int max_levels = 5;

  friend bool operator==(const MultigridOptions&, const MultigridOptions&) = default;
};

/// Z-semicoarsening geometric multigrid V-cycle as a left preconditioner.
class MultigridPreconditioner final : public Preconditioner {
 public:
  /// Builds the full hierarchy for `a`, which must be square of dimension
  /// plane_cells * z_thicknesses.size() (checked). `z_thicknesses` holds
  /// the physical thickness of each z-slice, bottom to top — pass
  /// ThermalModel::z_cell_thicknesses(), or uniform values for an
  /// isotropic grid. Throws std::invalid_argument on a dimension mismatch
  /// and std::runtime_error when the coarsest ILU(0) hits a zero pivot.
  MultigridPreconditioner(const CsrMatrix& a, int plane_cells,
                          std::vector<double> z_thicknesses,
                          const MultigridOptions& options = {});

  /// z = V_cycle(r): one V(pre, post) cycle from a zero initial guess.
  void apply(std::span<const double> r, std::span<double> z) const override;

  /// Redoes the numeric work (Galerkin triple products level by level,
  /// Jacobi diagonals, coarse ILU(0) refactorization) for new coefficients
  /// of `a`, which must have the sparsity pattern the hierarchy was built
  /// from (checked). No allocation on the hot path. Throws
  /// std::invalid_argument on a pattern mismatch.
  void refactor(const CsrMatrix& a);

  /// Hierarchy introspection (tests, docs, bench reporting).
  [[nodiscard]] int level_count() const { return static_cast<int>(levels_.size()); }
  /// The level-l operator: level 0 is (a copy of) the fine matrix.
  [[nodiscard]] const CsrMatrix& matrix(int level) const;
  /// z-slice count of level `level`.
  [[nodiscard]] int z_count(int level) const;
  /// Prolongation weights from level+1 (coarse) into `level` (fine): one
  /// two-point stencil per fine z-slice of `level` (the points coincide
  /// where the transfer injects). P acts plane-wise: fine cell
  /// (p, fz) receives weight_a * coarse(p, coarse_a) + weight_b *
  /// coarse(p, coarse_b). Valid for level < level_count() - 1.
  struct ZInterpolation {
    int coarse_a = 0, coarse_b = 0;  ///< coarse z indices (equal when injecting)
    double weight_a = 1.0, weight_b = 0.0;
  };
  [[nodiscard]] const std::vector<ZInterpolation>& interpolation(int level) const;

 private:
  struct Level {
    CsrMatrix a;                        // Galerkin operator of this level
    std::vector<double> inverse_diagonal;
    std::vector<ZInterpolation> z_interp;  // this level's slices -> level+1
    int z = 0;                          // z-slices on this level
    // Scratch for the V-cycle (apply() is const, state is per-instance).
    mutable std::vector<double> x, b, r, t;
    // RAP gather plan: destination CSR slot of each of the four weight
    // products of each fine nonzero, in fine-traversal stamp order. Built
    // once from the triplet path's slot cache; refactor() then refreshes
    // the coarse coefficients as a single gather pass, no re-stamping.
    std::vector<int> scatter_plan;
  };

  void build_hierarchy(const CsrMatrix& a, std::vector<double> z_thicknesses);
  void galerkin_fill(int coarse_level);    // build: RAP via triplet stamping
  void galerkin_refill(int coarse_level);  // refactor: RAP via the slot plan
  static void refresh_level(Level& level);  // Jacobi inverse diagonal
  /// x += w D^-1 (b - A x); `x_is_zero` skips the first residual matvec
  /// (r == b when x == 0), which is bit-identical and one pass cheaper.
  void smooth(const Level& level, int sweeps, bool x_is_zero = false) const;
  void residual_to_coarse(int fine_level) const;       // b_{l+1} = P^T (b_l - A_l x_l)
  void correct_from_coarse(int fine_level) const;      // x_l += P x_{l+1}
  void coarse_solve() const;

  MultigridOptions options_;
  int plane_ = 0;
  std::vector<Level> levels_;
  std::unique_ptr<Ilu0Preconditioner> coarse_ilu_;
  TripletList galerkin_triplets_;  // build-time stamping buffer (freed after)
};

}  // namespace brightsi::numerics

#endif  // BRIGHTSI_NUMERICS_MULTIGRID_H
