// Reduced-order transient thermal backend: a Galerkin projection of the
// backward-Euler operator onto a block-Krylov subspace, with a certified
// per-step error bound.
//
// The full transient step solves A x = b with A = C/dt + K (capacity plus
// conduction/advection/film), an M-matrix that is strictly row-diagonally
// dominant by at least the capacity excess c_i/dt. The reduced model keeps
// an orthonormal basis V (numerics/model_reduction.h) per distinct step
// length and steps the k-dimensional system (V'AV) y = V'b instead —
// a dense LU solve of size k (tens) in place of a preconditioned BiCGSTAB
// solve of size n (tens of thousands). The lifted iterate x = V y is
// packaged by the model's own ThermalModel::package_solution (peak, block
// temperatures, outlet temperatures, energy bookkeeping), the one packager
// of the full and reduced paths.
//
// The certificate: with r = b - A (V y) the true error satisfies
//   ||x_exact - V y||_inf  <=  ||r||_inf / margin,
// where margin = min_i (a_ii - sum_{j != i} |a_ij|) > 0 is the Varah bound
// on ||A^{-1}||_inf for strictly diagonally dominant A. The residual is
// evaluated against the exactly assembled b, so the bound is rigorous up
// to floating-point roundoff (covered by a fixed floor). When the bound
// exceeds the tolerance (kRomToleranceK), the caller (the transient engine) falls
// back to the full solve and hands the snapshot back via enrich(), which
// grows the basis with the snapshot plus shift-invert moments
// A^{-1} (C/dt ·) of it — the propagator that maps one step's state into
// the next step's right-hand side. Because A^{-1} >= 0 and A·1 >= c/dt
// imply ||A^{-1} C/dt||_inf <= 1, per-step bounds accumulate into a valid
// bound on the whole trajectory (`cumulative_bound_k`).
//
// A ReducedThermalModel is single-threaded state owned by one
// TransientEngine — never shared across engines or sweep scenarios, which
// is what keeps rom sweep rows byte-identical at any thread count.
#ifndef BRIGHTSI_THERMAL_ROM_H
#define BRIGHTSI_THERMAL_ROM_H

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "chip/floorplan.h"
#include "numerics/grid.h"
#include "thermal/model.h"

namespace brightsi::thermal {

/// Certificate threshold of the reduced-order backend (kelvin): a reduced
/// step whose certified bound exceeds it is rejected, and the engine falls
/// back to the full solve and enriches the basis. So every accepted step is
/// within 0.5 K of the full backward-Euler solution.
inline constexpr double kRomToleranceK = 0.5;

/// Work counters and certificate trail of one ReducedThermalModel.
struct RomStats {
  long long rom_steps = 0;   ///< steps served by the reduced solve
  long long full_steps = 0;  ///< fallbacks to the full solve (enrichments)
  int basis_size = 0;        ///< largest basis across step lengths
  int dt_models = 0;         ///< distinct step lengths seen
  double build_time_s = 0.0; ///< operator assembly + basis enrichment
  double step_time_s = 0.0;  ///< time inside accepted + rejected try_step
  double last_bound_k = 0.0;          ///< certificate of the latest accepted step
  double max_accepted_bound_k = 0.0;  ///< worst certificate ever accepted
  double max_rejected_bound_k = 0.0;  ///< worst certificate that tripped a fallback
  /// Running sum of per-step bounds (full-solve steps contribute their own
  /// Krylov residual bound): a valid bound on the accumulated trajectory
  /// error versus an exact-arithmetic full run.
  double cumulative_bound_k = 0.0;
};

/// Projection-based reduced model of a ThermalModel at one operating
/// point. Borrows the model (which must outlive it); owns per-step-length
/// operators, bases and dense reduced systems.
class ReducedThermalModel {
 public:
  ReducedThermalModel(const ThermalModel& model, const OperatingPoint& operating_point);
  ~ReducedThermalModel();

  ReducedThermalModel(const ReducedThermalModel&) = delete;
  ReducedThermalModel& operator=(const ReducedThermalModel&) = delete;

  /// Attempts one backward-Euler step of length `dt_s` from `state` with
  /// the reduced system. Returns the packaged solution when the certified
  /// bound stays within kRomToleranceK; std::nullopt when no basis
  /// exists for this step length yet or the bound trips — the caller then
  /// runs the full solve and feeds it back through enrich().
  [[nodiscard]] std::optional<ThermalSolution> try_step(
      const numerics::Grid3<double>& state,
      std::span<const chip::Floorplan* const> floorplans, double dt_s);

  /// Grows the basis for `dt_s` from a full-solve snapshot: appends the
  /// solution field, the steady input response (once) and the current
  /// power-injection response, plus shift-invert moments of each. Also
  /// accounts the full step's own residual bound into the cumulative
  /// certificate. `previous_state` is the field the full step started from.
  void enrich(double dt_s, std::span<const chip::Floorplan* const> floorplans,
              const ThermalSolution& full_solution,
              const numerics::Grid3<double>& previous_state);

  [[nodiscard]] const RomStats& stats() const { return stats_; }
  [[nodiscard]] const ThermalModel& model() const { return *model_; }

 private:
  struct DtModel;

  [[nodiscard]] DtModel* find_dt_model(double dt_s);
  DtModel& dt_model_for(double dt_s);
  void apply_shift_invert(DtModel& dt_model, std::span<const double> rhs,
                          std::vector<double>& out);
  void extend_reduced_system(DtModel& dt_model, int previous_size);
  void rasterize_power(std::span<const chip::Floorplan* const> floorplans);
  void assemble_rhs(const DtModel& dt_model, std::span<const double> previous,
                    std::vector<double>& rhs) const;
  [[nodiscard]] double certified_bound_k(const DtModel& dt_model,
                                         std::span<const double> rhs,
                                         std::span<const double> solution);

  const ThermalModel* model_;
  OperatingPoint operating_point_;
  RomStats stats_;

  std::vector<double> layer_flows_;      // layer_flow_split(op), fixed per mission
  std::vector<double> steady_diagonal_;  // diag(K): isolates C/dt per step length
  std::vector<double> b_zero_;           // state/power-independent RHS (inlet + ambient)

  std::vector<std::unique_ptr<DtModel>> dt_models_;

  // Power-map rasterization cache: within a workload phase the per-step
  // floorplans repeat (apply_phase rebuilds value-identical blocks), so
  // the rasterized maps in power_ are reused until a die's block geometry,
  // a power density, or the background density changes.
  struct PowerKey {
    std::vector<chip::Rect> footprints;
    std::vector<double> densities;
    double background = 0.0;
  };
  std::vector<PowerKey> cached_power_keys_;  // one per die; empty = no cache

  // Reusable scratch (single-threaded by contract).
  numerics::TripletList triplets_;
  std::vector<double> assembly_rhs_;
  std::vector<numerics::Grid2<double>> power_;  // rasterized maps, one per die
  std::vector<double> rhs_full_;
  std::vector<double> residual_;
  std::vector<double> reduced_rhs_;
  std::vector<double> coefficients_;
  std::vector<double> lifted_;
  std::vector<double> scratch_;
};

}  // namespace brightsi::thermal

#endif  // BRIGHTSI_THERMAL_ROM_H
