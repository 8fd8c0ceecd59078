// Stateful solve context for the compact thermal model: separates the
// one-time symbolic setup (sparsity pattern, scatter plans, ILU(0)
// structure, Krylov workspace) from the per-solve numeric work (coefficient
// fill, preconditioned BiCGSTAB), and warm-starts each solve from the
// previous temperature field. The numeric refactorization runs only when
// (op, capacity_over_dt) differs from the last factorization's.
//
// Ownership and lifecycle rules (see docs/ARCHITECTURE.md):
//  * The context borrows the ThermalModel, which must outlive it.
//  * A context is single-threaded state — one per thread, never shared.
//  * Results are deterministic: a given call sequence on a fresh (or
//    reset()) context always produces the same fields. Warm starts change
//    iterates only within the solver tolerance of the cold-start result.
//  * `reset()` restores cold-start behavior without dropping allocations;
//    callers that must be reproducible across repeated runs (e.g.
//    IntegratedMpsocSystem::run) reset at the start of each run.
//  * Multi-die stacks pass one floorplan per heat-source layer (bottom to
//    top); the single-floorplan solve_steady requires a single-die stack.
#ifndef BRIGHTSI_THERMAL_SOLVE_CONTEXT_H
#define BRIGHTSI_THERMAL_SOLVE_CONTEXT_H

#include <memory>
#include <span>
#include <vector>

#include "thermal/model.h"

namespace brightsi::thermal {

class ThermalSolveContext {
 public:
  /// Cumulative work counters across the context's lifetime (reset() does
  /// not clear them), for perf reporting — perfbench's thermal.* metrics.
  struct Stats {
    int solves = 0;
    long long iterations = 0;      ///< BiCGSTAB iterations, summed
    double assembly_time_s = 0.0;  ///< coefficient fill + in-place CSR refill
    /// Preconditioner setup: the ILU(0) factorization or refactorization.
    /// Split from assembly so benches can separate stamping cost from
    /// solver setup cost (docs/BENCHMARKS.md).
    double precond_setup_time_s = 0.0;
    double solve_time_s = 0.0;     ///< time iterating inside the Krylov solver
    /// Preconditioner builds and refactorizations. A solve whose operating
    /// point and capacity_over_dt equal those of the last factorization
    /// reuses it (the operator is the same), so this can trail `solves`.
    int factorizations = 0;
  };

  /// Copies the model's operator pattern; no factorization happens until
  /// the first solve.
  explicit ThermalSolveContext(const ThermalModel& model);

  /// Steady solve; warm-starts from the previous solve's field when one
  /// exists. Same contract and diagnostics as ThermalModel::solve_steady.
  [[nodiscard]] ThermalSolution solve_steady(const chip::Floorplan& floorplan,
                                             const OperatingPoint& operating_point);

  /// Multi-die steady solve: one floorplan per heat-source layer, bottom
  /// to top, all sharing the model's die outline.
  [[nodiscard]] ThermalSolution solve_steady(
      std::span<const chip::Floorplan* const> floorplans,
      const OperatingPoint& operating_point);

  /// One backward-Euler step of length `dt_s` from `state` (a full
  /// temperature field, e.g. the previous solution), with one floorplan
  /// per heat-source layer. The step's own previous state is the warm
  /// start. Returns the new state with the same diagnostics as a steady
  /// solve.
  [[nodiscard]] ThermalSolution step_transient(
      const numerics::Grid3<double>& state,
      std::span<const chip::Floorplan* const> floorplans,
      const OperatingPoint& operating_point, double dt_s);

  /// Drops the warm-start field so the next steady solve starts cold (from
  /// a uniform inlet-temperature guess). Keeps the matrix, preconditioner,
  /// workspace and scatter plans.
  void reset();

  [[nodiscard]] const ThermalModel& model() const { return *model_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  [[nodiscard]] ThermalSolution solve(std::span<const chip::Floorplan* const> floorplans,
                                      const OperatingPoint& op, double capacity_over_dt,
                                      const numerics::Grid3<double>* previous,
                                      std::vector<int>* scatter_plan, const char* what);

  void check_floorplans(std::span<const chip::Floorplan* const> floorplans) const;

  const ThermalModel* model_;
  numerics::CsrMatrix matrix_;         // model pattern, refilled per solve
  numerics::TripletList triplets_;     // reusable stamping buffer
  std::vector<double> rhs_;
  std::vector<int> steady_scatter_;    // triplet -> CSR slot plans per mode
  std::vector<int> transient_scatter_;
  std::unique_ptr<numerics::Ilu0Preconditioner> ilu_;  // built by the first solve
  numerics::KrylovWorkspace workspace_;
  std::vector<double> temperatures_;   // last iterate = warm-start field
  bool warm_ = false;
  // The (operating point, capacity_over_dt) pair the live preconditioner
  // was factored for; fill_operator's matrix depends on nothing else.
  bool factored_ = false;
  OperatingPoint factored_op_;
  double factored_capacity_over_dt_ = 0.0;
  Stats stats_;
};

}  // namespace brightsi::thermal

#endif  // BRIGHTSI_THERMAL_SOLVE_CONTEXT_H
