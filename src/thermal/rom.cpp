#include "thermal/rom.h"

#include <chrono>
#include <cmath>
#include <utility>

#include "chip/power_map.h"
#include "numerics/contracts.h"
#include "numerics/dense_matrix.h"
#include "numerics/linear_solvers.h"
#include "numerics/model_reduction.h"
#include "numerics/sparse_matrix.h"

namespace brightsi::thermal {

namespace {

/// Relative tolerance for treating two step lengths as the same reduced
/// operator (the scheduler emits bit-jittered nominal steps plus short
/// residual closers; each distinct length gets its own basis).
constexpr double kDtMatchRel = 1e-9;

/// Basis size cap per step length. Past it enrichment stops growing the
/// basis and persistent fallbacks show up in the stats instead.
constexpr int kMaxBasis = 48;

/// Shift-invert moments A^{-1}(C/dt ·) appended per enrichment snapshot.
constexpr int kEnrichmentMoments = 1;

/// Orthogonalization drop tolerance (relative): candidates this close to
/// the current span are rejected (numerics/model_reduction.h).
constexpr double kDropTolerance = 1e-10;

/// Added to every certified bound to absorb the floating-point roundoff of
/// the residual evaluation itself (kelvin).
constexpr double kRoundoffFloorK = 1e-9;

double seconds_since(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

double dot(std::span<const double> a, std::span<const double> b) {
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    sum += a[i] * b[i];
  }
  return sum;
}

}  // namespace

/// Everything specific to one step length: the assembled operator, its
/// dominance margin, the shift-invert machinery, the basis and the dense
/// reduced system (all of which are invalid for any other dt).
struct ReducedThermalModel::DtModel {
  double dt_s = 0.0;
  numerics::CsrMatrix a;             // C/dt + K, coefficients fixed per mission
  std::vector<double> c_over_dt;     // diag(C)/dt = diag(a) - diag(K)
  double margin = 0.0;               // Varah: min_i (a_ii - sum_{j!=i} |a_ij|)
  std::unique_ptr<numerics::Ilu0Preconditioner> ilu;
  numerics::KrylovWorkspace krylov;

  numerics::OrthonormalBasis basis;
  std::vector<std::vector<double>> a_columns;  // A * V_j, cached per column
  numerics::DenseMatrix a_reduced;             // V' A V, LU-factored below
  numerics::DenseMatrix c_reduced;             // V' (C/dt) V (symmetric)
  std::vector<double> b_zero_reduced;          // V' b_zero
  std::unique_ptr<numerics::LuFactorization> lu;
  bool seeded_inputs = false;  // steady input response already appended

  // The last state this model produced (or was enriched with): when the
  // engine hands the same field back, the previous state's reduced
  // coordinates are exact and the O(nk) projection is skipped.
  std::vector<double> last_lift;
  std::vector<double> last_coefficients;
  bool have_last = false;
};

ReducedThermalModel::ReducedThermalModel(const ThermalModel& model,
                                         const OperatingPoint& operating_point)
    : model_(&model), operating_point_(operating_point) {
  operating_point_.validate(model.stack().has_channels());
  layer_flows_ = model.layer_flow_split(operating_point_);

  y_edges_.resize(static_cast<std::size_t>(model.ny()) + 1);
  for (int i = 0; i <= model.ny(); ++i) {
    y_edges_[static_cast<std::size_t>(i)] = model.die_height_m() * i / model.ny();
  }
  die_source_iz_.assign(static_cast<std::size_t>(model.die_count()), 0);
  for (int iz = 0; iz < model.nz(); ++iz) {
    const int die = model.z_slices_[static_cast<std::size_t>(iz)].die;
    if (die >= 0) {
      die_source_iz_[static_cast<std::size_t>(die)] = iz;
    }
  }

  // One zero-power steady assembly isolates (a) the state- and
  // power-independent RHS b_zero (inlet advection + ambient film) and (b)
  // the steady diagonal, which each DtModel subtracts from its own
  // diagonal to recover C/dt exactly.
  const chip::Floorplan empty(model.die_width_m(), model.die_height_m());
  std::vector<const chip::Floorplan*> zero_power(
      static_cast<std::size_t>(model.die_count()), &empty);
  model.fill_operator(zero_power, operating_point_, layer_flows_,
                      /*capacity_over_dt=*/0.0, nullptr, &triplets_, &assembly_rhs_);
  numerics::CsrMatrix steady = model.operator_pattern();
  steady.refill_from_triplets(triplets_);
  steady_diagonal_ = steady.diagonal();
  b_zero_ = assembly_rhs_;
}

ReducedThermalModel::~ReducedThermalModel() = default;

ReducedThermalModel::DtModel* ReducedThermalModel::find_dt_model(double dt_s) {
  for (const std::unique_ptr<DtModel>& candidate : dt_models_) {
    if (std::abs(candidate->dt_s - dt_s) <=
        kDtMatchRel * std::max(candidate->dt_s, dt_s)) {
      return candidate.get();
    }
  }
  return nullptr;
}

ReducedThermalModel::DtModel& ReducedThermalModel::dt_model_for(double dt_s) {
  ensure_positive(dt_s, "rom step");
  if (DtModel* existing = find_dt_model(dt_s)) {
    return *existing;
  }
  auto dt_model = std::make_unique<DtModel>();
  dt_model->dt_s = dt_s;
  dt_model->a = model_->operator_pattern();
  const chip::Floorplan empty(model_->die_width_m(), model_->die_height_m());
  std::vector<const chip::Floorplan*> zero_power(
      static_cast<std::size_t>(model_->die_count()), &empty);
  const numerics::Grid3<double> zero_state(model_->nx(), model_->ny(), model_->nz(), 0.0);
  model_->fill_operator(zero_power, operating_point_, layer_flows_, 1.0 / dt_s,
                        &zero_state, &triplets_, &assembly_rhs_);
  dt_model->a.refill_from_triplets(triplets_);

  dt_model->c_over_dt = dt_model->a.diagonal();
  for (std::size_t i = 0; i < dt_model->c_over_dt.size(); ++i) {
    dt_model->c_over_dt[i] -= steady_diagonal_[i];
  }

  // Varah margin: for strictly row-diagonally dominant A (which the
  // backward-Euler operator is, by at least c_i/dt), ||A^{-1}||_inf <=
  // 1 / margin — the certificate's only model-dependent constant.
  const std::vector<int>& offsets = dt_model->a.row_offsets();
  const std::vector<int>& columns = dt_model->a.column_indices();
  const std::vector<double>& values = dt_model->a.values();
  double margin = 0.0;
  for (int row = 0; row < dt_model->a.rows(); ++row) {
    double excess = 0.0;
    for (int slot = offsets[static_cast<std::size_t>(row)];
         slot < offsets[static_cast<std::size_t>(row) + 1]; ++slot) {
      excess += columns[static_cast<std::size_t>(slot)] == row
                    ? values[static_cast<std::size_t>(slot)]
                    : -std::abs(values[static_cast<std::size_t>(slot)]);
    }
    margin = (row == 0) ? excess : std::min(margin, excess);
  }
  ensure(margin > 0.0,
         "reduced thermal backend needs a strictly diagonally dominant operator");
  dt_model->margin = margin;

  dt_model->ilu = std::make_unique<numerics::Ilu0Preconditioner>(dt_model->a);
  dt_model->basis =
      numerics::OrthonormalBasis(static_cast<std::size_t>(dt_model->a.rows()));
  dt_model->a_reduced = numerics::DenseMatrix();
  dt_models_.push_back(std::move(dt_model));
  stats_.dt_models = static_cast<int>(dt_models_.size());
  return *dt_models_.back();
}

void ReducedThermalModel::apply_shift_invert(DtModel& dt_model,
                                             std::span<const double> rhs,
                                             std::vector<double>& out) {
  out.assign(rhs.size(), 0.0);
  // Basis directions only need to roughly span the operator's response —
  // the per-step certificate guards solution accuracy — so the shift-invert
  // applies run at a much looser tolerance than production solves, which
  // roughly halves the basis build cost.
  numerics::SolverOptions options = model_->settings().solver;
  options.relative_tolerance = std::max(options.relative_tolerance, 1e-6);
  const numerics::SolverReport report = numerics::solve_bicgstab(
      dt_model.a, rhs, out, dt_model.ilu.get(), options, &dt_model.krylov);
  ensure(report.converged, "rom shift-invert solve did not converge");
}

void ReducedThermalModel::extend_reduced_system(DtModel& dt_model, int previous_size) {
  const int k = dt_model.basis.size();
  if (k == previous_size) {
    return;
  }
  const std::size_t n = dt_model.basis.dimension();
  for (int j = previous_size; j < k; ++j) {
    std::vector<double> image(n, 0.0);
    dt_model.a.multiply(dt_model.basis.column(j), image);
    dt_model.a_columns.push_back(std::move(image));
    dt_model.b_zero_reduced.push_back(dot(dt_model.basis.column(j), b_zero_));
  }
  numerics::DenseMatrix a_reduced(k, k);
  numerics::DenseMatrix c_reduced(k, k);
  for (int r = 0; r < previous_size; ++r) {
    for (int c = 0; c < previous_size; ++c) {
      a_reduced.at(r, c) = dt_model.a_reduced.at(r, c);
      c_reduced.at(r, c) = dt_model.c_reduced.at(r, c);
    }
  }
  scratch_.resize(n);
  for (int j = previous_size; j < k; ++j) {
    const std::vector<double>& column = dt_model.basis.column(j);
    // New column of V'AV and (via A-column caching) its new row; V'CV is
    // symmetric because C is diagonal, so one weighted column fills both.
    for (std::size_t i = 0; i < n; ++i) {
      scratch_[i] = dt_model.c_over_dt[i] * column[i];
    }
    for (int r = 0; r < k; ++r) {
      a_reduced.at(r, j) = dot(dt_model.basis.column(r), dt_model.a_columns[static_cast<std::size_t>(j)]);
      const double weighted = dot(dt_model.basis.column(r), scratch_);
      c_reduced.at(r, j) = weighted;
      c_reduced.at(j, r) = weighted;
      if (r < previous_size) {
        a_reduced.at(j, r) =
            dot(column, dt_model.a_columns[static_cast<std::size_t>(r)]);
      }
    }
  }
  dt_model.a_reduced = std::move(a_reduced);
  dt_model.c_reduced = std::move(c_reduced);
  dt_model.lu = std::make_unique<numerics::LuFactorization>(dt_model.a_reduced);
}

void ReducedThermalModel::rasterize_power(
    std::span<const chip::Floorplan* const> floorplans) {
  ensure(static_cast<int>(floorplans.size()) == model_->die_count(),
         "rom step needs one floorplan per heat-source layer");
  const bool cache_primed = power_.size() == floorplans.size() &&
                            cached_power_keys_.size() == floorplans.size();
  if (!cache_primed) {
    power_.clear();
    power_.resize(floorplans.size());
    cached_power_keys_.assign(floorplans.size(), PowerKey{});
  }
  for (std::size_t die = 0; die < floorplans.size(); ++die) {
    const chip::Floorplan* floorplan = floorplans[die];
    ensure(floorplan != nullptr, "rom step: null floorplan");
    const std::vector<chip::Block>& blocks = floorplan->blocks();
    PowerKey& key = cached_power_keys_[die];
    bool same = cache_primed && key.footprints.size() == blocks.size() &&
                key.background == floorplan->background_power_density();
    for (std::size_t b = 0; same && b < blocks.size(); ++b) {
      const chip::Rect& cached = key.footprints[b];
      const chip::Rect& footprint = blocks[b].footprint;
      same = cached.x == footprint.x && cached.y == footprint.y &&
             cached.width == footprint.width && cached.height == footprint.height &&
             key.densities[b] == blocks[b].power_density_w_per_m2;
    }
    if (same) {
      continue;
    }
    power_[die] =
        chip::rasterize_power_w_on_edges(*floorplan, model_->x_edges(), y_edges_);
    key.footprints.resize(blocks.size());
    key.densities.resize(blocks.size());
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      key.footprints[b] = blocks[b].footprint;
      key.densities[b] = blocks[b].power_density_w_per_m2;
    }
    key.background = floorplan->background_power_density();
  }
}

void ReducedThermalModel::assemble_rhs(const DtModel& dt_model,
                                       std::span<const double> previous,
                                       std::vector<double>& rhs) const {
  rhs = b_zero_;
  const std::size_t plane = static_cast<std::size_t>(model_->nx()) * model_->ny();
  for (std::size_t die = 0; die < power_.size(); ++die) {
    const std::size_t base = static_cast<std::size_t>(die_source_iz_[die]) * plane;
    const std::vector<double>& p = power_[die].data();
    for (std::size_t cell = 0; cell < plane; ++cell) {
      rhs[base + cell] += p[cell];
    }
  }
  for (std::size_t i = 0; i < rhs.size(); ++i) {
    rhs[i] += dt_model.c_over_dt[i] * previous[i];
  }
}

double ReducedThermalModel::certified_bound_k(const DtModel& dt_model,
                                              std::span<const double> rhs,
                                              std::span<const double> solution) {
  residual_.resize(rhs.size());
  (void)dt_model.a.residual(rhs, solution, residual_);
  double linf = 0.0;
  for (const double r : residual_) {
    linf = std::max(linf, std::abs(r));
  }
  return linf / dt_model.margin + kRoundoffFloorK;
}

std::optional<ThermalSolution> ReducedThermalModel::try_step(
    const numerics::Grid3<double>& state,
    std::span<const chip::Floorplan* const> floorplans, double dt_s) {
  DtModel* dt_model = find_dt_model(dt_s);
  if (dt_model == nullptr || dt_model->basis.size() == 0) {
    return std::nullopt;  // nothing learned for this step length yet
  }
  const auto start = std::chrono::steady_clock::now();
  const int k = dt_model->basis.size();
  rasterize_power(floorplans);
  const std::vector<double>& previous = state.data();

  const bool matched = dt_model->have_last && previous == dt_model->last_lift;
  reduced_rhs_.assign(static_cast<std::size_t>(k), 0.0);
  assemble_rhs(*dt_model, previous, rhs_full_);
  if (matched) {
    // The previous state is exactly V * last_coefficients, so the reduced
    // RHS assembles from cached projections in O(k^2 + k * die cells)
    // instead of a full O(nk) projection.
    const std::size_t plane = static_cast<std::size_t>(model_->nx()) * model_->ny();
    for (int j = 0; j < k; ++j) {
      reduced_rhs_[static_cast<std::size_t>(j)] =
          dt_model->b_zero_reduced[static_cast<std::size_t>(j)];
    }
    for (std::size_t die = 0; die < power_.size(); ++die) {
      const std::size_t base = static_cast<std::size_t>(die_source_iz_[die]) * plane;
      const std::vector<double>& p = power_[die].data();
      for (std::size_t cell = 0; cell < plane; ++cell) {
        const double power = p[cell];
        if (power == 0.0) {
          continue;
        }
        const std::span<const double> row = dt_model->basis.packed_row(base + cell);
        for (int j = 0; j < k; ++j) {
          reduced_rhs_[static_cast<std::size_t>(j)] +=
              power * row[static_cast<std::size_t>(j)];
        }
      }
    }
    scratch_.assign(static_cast<std::size_t>(k), 0.0);
    dt_model->c_reduced.multiply(dt_model->last_coefficients, scratch_);
    for (int j = 0; j < k; ++j) {
      reduced_rhs_[static_cast<std::size_t>(j)] += scratch_[static_cast<std::size_t>(j)];
    }
  } else {
    dt_model->basis.project(rhs_full_, reduced_rhs_);
  }

  coefficients_.resize(static_cast<std::size_t>(k));
  dt_model->lu->solve(reduced_rhs_, coefficients_);
  lifted_.resize(previous.size());
  dt_model->basis.lift(coefficients_, lifted_);

  const double bound_k = certified_bound_k(*dt_model, rhs_full_, lifted_);
  if (bound_k > kRomToleranceK) {
    stats_.max_rejected_bound_k = std::max(stats_.max_rejected_bound_k, bound_k);
    stats_.step_time_s += seconds_since(start);
    return std::nullopt;  // the engine falls back to the full solve
  }

  ++stats_.rom_steps;
  stats_.last_bound_k = bound_k;
  stats_.max_accepted_bound_k = std::max(stats_.max_accepted_bound_k, bound_k);
  stats_.cumulative_bound_k += bound_k;
  dt_model->last_lift = lifted_;
  dt_model->last_coefficients = coefficients_;
  dt_model->have_last = true;

  double residual_linf = 0.0;
  for (const double r : residual_) {
    residual_linf = std::max(residual_linf, std::abs(r));
  }
  std::vector<double> temperatures = lifted_;
  ThermalSolution solution = package(std::move(temperatures), floorplans, residual_linf);
  stats_.step_time_s += seconds_since(start);
  return solution;
}

void ReducedThermalModel::enrich(double dt_s,
                                 std::span<const chip::Floorplan* const> floorplans,
                                 const ThermalSolution& full_solution,
                                 const numerics::Grid3<double>& previous_state) {
  const auto start = std::chrono::steady_clock::now();
  DtModel& dt_model = dt_model_for(dt_s);
  ++stats_.full_steps;

  // The full step still contributes its (Krylov-converged, tiny) residual
  // bound to the trajectory certificate.
  rasterize_power(floorplans);
  assemble_rhs(dt_model, previous_state.data(), rhs_full_);
  stats_.cumulative_bound_k +=
      certified_bound_k(dt_model, rhs_full_, full_solution.temperature_k.data());

  std::vector<std::vector<double>> seeds;
  seeds.push_back(full_solution.temperature_k.data());
  if (!dt_model.seeded_inputs && dt_model.basis.size() < kMaxBasis) {
    std::vector<double> response;
    apply_shift_invert(dt_model, b_zero_, response);
    seeds.push_back(std::move(response));
    dt_model.seeded_inputs = true;
  }
  std::vector<double> injection(rhs_full_.size(), 0.0);
  const std::size_t plane = static_cast<std::size_t>(model_->nx()) * model_->ny();
  bool any_power = false;
  for (std::size_t die = 0; die < power_.size(); ++die) {
    const std::size_t base = static_cast<std::size_t>(die_source_iz_[die]) * plane;
    const std::vector<double>& p = power_[die].data();
    for (std::size_t cell = 0; cell < plane; ++cell) {
      injection[base + cell] += p[cell];
      any_power = any_power || p[cell] != 0.0;
    }
  }
  if (any_power && dt_model.basis.size() < kMaxBasis) {
    std::vector<double> response;
    apply_shift_invert(dt_model, injection, response);
    seeds.push_back(std::move(response));
  }

  // Block-Arnoldi growth: the snapshot plus shift-invert moments of the
  // one-step propagator u -> A^{-1} (C/dt) u, which is what maps a state
  // into the next step's RHS contribution.
  const int previous_size = dt_model.basis.size();
  std::vector<double> weighted(rhs_full_.size(), 0.0);
  numerics::block_arnoldi_expand(
      dt_model.basis, seeds, kEnrichmentMoments, kMaxBasis, kDropTolerance,
      [&](std::span<const double> in, std::span<double> out) {
        for (std::size_t i = 0; i < weighted.size(); ++i) {
          weighted[i] = dt_model.c_over_dt[i] * in[i];
        }
        std::vector<double> solved;
        apply_shift_invert(dt_model, weighted, solved);
        for (std::size_t i = 0; i < solved.size(); ++i) {
          out[i] = solved[i];
        }
      });
  extend_reduced_system(dt_model, previous_size);

  if (dt_model.basis.size() > 0) {
    dt_model.last_lift = full_solution.temperature_k.data();
    dt_model.last_coefficients.resize(static_cast<std::size_t>(dt_model.basis.size()));
    dt_model.basis.project(dt_model.last_lift, dt_model.last_coefficients);
    dt_model.have_last = true;
  }
  stats_.basis_size = std::max(stats_.basis_size, dt_model.basis.size());
  stats_.build_time_s += seconds_since(start);
}

void ReducedThermalModel::refresh_block_weights(
    std::span<const chip::Floorplan* const> floorplans) {
  const ThermalModel& m = *model_;
  bool fresh = cached_footprints_.size() == floorplans.size();
  for (std::size_t die = 0; fresh && die < floorplans.size(); ++die) {
    const std::vector<chip::Block>& blocks = floorplans[die]->blocks();
    const std::vector<chip::Rect>& cached = cached_footprints_[die];
    fresh = cached.size() == blocks.size();
    for (std::size_t b = 0; fresh && b < blocks.size(); ++b) {
      const chip::Rect& f = blocks[b].footprint;
      fresh = cached[b].x == f.x && cached[b].y == f.y && cached[b].width == f.width &&
              cached[b].height == f.height;
    }
  }
  if (fresh) {
    return;
  }
  block_weights_.assign(floorplans.size(), {});
  cached_footprints_.assign(floorplans.size(), {});
  for (std::size_t die = 0; die < floorplans.size(); ++die) {
    const std::vector<chip::Block>& blocks = floorplans[die]->blocks();
    block_weights_[die].resize(blocks.size());
    cached_footprints_[die].reserve(blocks.size());
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      cached_footprints_[die].push_back(blocks[b].footprint);
      BlockWeights& weights = block_weights_[die][b];
      // Same traversal order as ThermalModel::package_solution, so the
      // weighted mean accumulates in the identical sequence.
      for (int iy = 0; iy < m.ny(); ++iy) {
        for (int ix = 0; ix < m.nx(); ++ix) {
          const chip::Rect cell{m.x_edges_[static_cast<std::size_t>(ix)], m.dy_ * iy,
                                m.dx_[static_cast<std::size_t>(ix)], m.dy_};
          const double overlap = cell.intersection_area(blocks[b].footprint);
          if (overlap > 0.0) {
            weights.cells.push_back(
                {static_cast<std::size_t>(iy) * static_cast<std::size_t>(m.nx()) +
                     static_cast<std::size_t>(ix),
                 overlap});
            weights.area += overlap;
          }
        }
      }
    }
  }
}

ThermalSolution ReducedThermalModel::package(
    std::vector<double> temperatures, std::span<const chip::Floorplan* const> floorplans,
    double residual_linf_k) {
  const ThermalModel& m = *model_;
  const int nx = m.nx();
  const int ny = m.ny();
  const int nz = m.nz();
  refresh_block_weights(floorplans);

  ThermalSolution out;
  out.solver_report.converged = true;
  out.solver_report.iterations = 0;
  out.solver_report.residual_norm = residual_linf_k;
  out.temperature_k = numerics::Grid3<double>(nx, ny, nz, 0.0);
  out.temperature_k.data() = std::move(temperatures);

  out.peak_temperature_k = -1.0;
  for (int iz = 0; iz < nz; ++iz) {
    for (int iy = 0; iy < ny; ++iy) {
      for (int ix = 0; ix < nx; ++ix) {
        const double t = out.temperature_k(ix, iy, iz);
        if (t > out.peak_temperature_k) {
          out.peak_temperature_k = t;
          out.peak_ix = ix;
          out.peak_iy = iy;
          out.peak_iz = iz;
        }
      }
    }
  }

  out.die_maps_k.reserve(floorplans.size());
  out.total_power_w = 0.0;
  for (std::size_t die = 0; die < floorplans.size(); ++die) {
    const int iz = die_source_iz_[die];
    numerics::Grid2<double> map(nx, ny, 0.0);
    for (int iy = 0; iy < ny; ++iy) {
      for (int ix = 0; ix < nx; ++ix) {
        map(ix, iy) = out.temperature_k(ix, iy, iz);
      }
    }
    const chip::Floorplan& floorplan = *floorplans[die];
    out.total_power_w += floorplan.total_power();
    const std::string prefix = die == 0 ? "" : "die" + std::to_string(die) + ":";
    const std::vector<double>& flat = map.data();
    for (std::size_t b = 0; b < floorplan.blocks().size(); ++b) {
      const BlockWeights& weights = block_weights_[die][b];
      BlockTemperature bt;
      bt.name = prefix + floorplan.blocks()[b].name;
      double weighted = 0.0;
      bt.max_k = 0.0;
      for (const BlockWeight& w : weights.cells) {
        weighted += flat[w.cell] * w.overlap;
        bt.max_k = std::max(bt.max_k, flat[w.cell]);
      }
      bt.mean_k = weights.area > 0.0 ? weighted / weights.area : 0.0;
      out.block_temperatures.push_back(std::move(bt));
    }
    out.die_maps_k.push_back(std::move(map));
  }

  if (m.stack().has_channels()) {
    const int n_channels = m.channel_count();
    out.channel_layers.resize(m.channel_specs_.size());
    for (std::size_t layer = 0; layer < m.channel_specs_.size(); ++layer) {
      ChannelLayerSolution& layer_out = out.channel_layers[layer];
      layer_out.flow_m3_per_s = layer_flows_[layer];
      layer_out.flow_fraction = operating_point_.total_flow_m3_per_s > 0.0
                                    ? layer_flows_[layer] / operating_point_.total_flow_m3_per_s
                                    : 0.0;
      layer_out.fluid_axial_k.assign(static_cast<std::size_t>(n_channels),
                                     std::vector<double>(static_cast<std::size_t>(ny), 0.0));
      layer_out.outlet_k.assign(static_cast<std::size_t>(n_channels), 0.0);
      const double per_channel_flow = layer_flows_[layer] / n_channels;

      std::vector<int> fluid_z;
      for (int iz = 0; iz < nz; ++iz) {
        if (m.z_slices_[static_cast<std::size_t>(iz)].channel_layer ==
            static_cast<int>(layer)) {
          fluid_z.push_back(iz);
        }
      }
      for (int ix = 0; ix < nx; ++ix) {
        const int c = m.column_channel_[static_cast<std::size_t>(ix)];
        if (c < 0) {
          continue;
        }
        for (int iy = 0; iy < ny; ++iy) {
          double sum = 0.0;
          for (const int iz : fluid_z) {
            sum += out.temperature_k(ix, iy, iz);
          }
          layer_out.fluid_axial_k[static_cast<std::size_t>(c)][static_cast<std::size_t>(iy)] =
              sum / static_cast<double>(fluid_z.size());
        }
        layer_out.outlet_k[static_cast<std::size_t>(c)] =
            layer_out.fluid_axial_k[static_cast<std::size_t>(c)].back();

        for (const int iz : fluid_z) {
          const double flow_fraction = m.z_slices_[static_cast<std::size_t>(iz)].dz /
                                       m.channel_specs_[layer].layer_height_m;
          const double c_adv = operating_point_.coolant.volumetric_heat_capacity_j_per_m3_k *
                               per_channel_flow * flow_fraction;
          layer_out.heat_absorbed_w +=
              c_adv * (out.temperature_k(ix, ny - 1, iz) -
                       operating_point_.inlet_temperature_k);
        }
      }
      out.fluid_heat_absorbed_w += layer_out.heat_absorbed_w;
    }
  }
  if (m.stack().top_heat_transfer_w_per_m2_k > 0.0) {
    const int iz = nz - 1;
    const auto& slice = m.z_slices_[static_cast<std::size_t>(iz)];
    for (int iy = 0; iy < ny; ++iy) {
      for (int ix = 0; ix < nx; ++ix) {
        if (m.is_fluid(ix, iz)) {
          continue;
        }
        const double area = m.dx_[static_cast<std::size_t>(ix)] * m.dy_;
        const double resistance =
            slice.dz / 2.0 / slice.material.thermal_conductivity_w_per_m_k +
            1.0 / m.stack().top_heat_transfer_w_per_m2_k;
        out.top_heat_rejected_w +=
            area / resistance *
            (out.temperature_k(ix, iy, iz) - m.stack().ambient_temperature_k);
      }
    }
  }
  if (out.total_power_w > 0.0) {
    out.energy_balance_error =
        std::abs(out.total_power_w - out.fluid_heat_absorbed_w - out.top_heat_rejected_w) /
        out.total_power_w;
  }
  return out;
}

}  // namespace brightsi::thermal
