#include "thermal/solve_context.h"

#include <chrono>
#include <stdexcept>
#include <string>

#include "numerics/contracts.h"

namespace brightsi::thermal {

namespace {

double seconds_since(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

}  // namespace

ThermalSolveContext::ThermalSolveContext(const ThermalModel& model)
    : model_(&model), matrix_(model.operator_pattern()) {}

void ThermalSolveContext::reset() { warm_ = false; }

void ThermalSolveContext::check_floorplans(
    std::span<const chip::Floorplan* const> floorplans) const {
  if (static_cast<int>(floorplans.size()) != model_->die_count()) {
    throw std::invalid_argument("thermal solve needs one floorplan per heat-source layer: got " +
                                std::to_string(floorplans.size()) + " for " +
                                std::to_string(model_->die_count()) + " dies");
  }
  for (const chip::Floorplan* floorplan : floorplans) {
    ensure(floorplan != nullptr, "thermal solve: null floorplan");
    ensure(floorplan->die_width() == model_->die_width_m() &&
               floorplan->die_height() == model_->die_height_m(),
           "thermal solve: floorplan outline does not match the model's die");
  }
}

ThermalSolution ThermalSolveContext::solve_steady(const chip::Floorplan& floorplan,
                                                  const OperatingPoint& op) {
  const chip::Floorplan* floorplans[] = {&floorplan};
  return solve_steady(floorplans, op);
}

ThermalSolution ThermalSolveContext::solve_steady(
    std::span<const chip::Floorplan* const> floorplans, const OperatingPoint& op) {
  const StackSpec& stack = model_->stack();
  op.validate(stack.has_channels());
  check_floorplans(floorplans);
  ensure(!stack.has_channels() || stack.top_heat_transfer_w_per_m2_k > 0.0 ||
             op.total_flow_m3_per_s > 0.0,
         "steady solve needs a heat sink (coolant flow or top film)");
  ensure(stack.has_channels() || stack.top_heat_transfer_w_per_m2_k > 0.0,
         "solid stack needs a top film coefficient for a steady solution");
  return solve(floorplans, op, 0.0, nullptr, &steady_scatter_, "ThermalModel::solve_steady");
}

ThermalSolution ThermalSolveContext::step_transient(
    const numerics::Grid3<double>& state, std::span<const chip::Floorplan* const> floorplans,
    const OperatingPoint& op, double dt_s) {
  op.validate(model_->stack().has_channels());
  check_floorplans(floorplans);
  ensure_positive(dt_s, "transient step");
  ensure(state.nx() == model_->nx() && state.ny() == model_->ny() && state.nz() == model_->nz(),
         "transient state has the wrong shape");
  // The step's own previous state is the best initial guess.
  temperatures_ = state.data();
  warm_ = true;
  return solve(floorplans, op, 1.0 / dt_s, &state, &transient_scatter_,
               "ThermalSolveContext::step_transient");
}

ThermalSolution ThermalSolveContext::solve(std::span<const chip::Floorplan* const> floorplans,
                                           const OperatingPoint& op, double capacity_over_dt,
                                           const numerics::Grid3<double>* previous,
                                           std::vector<int>* scatter_plan, const char* what) {
  const auto assembly_start = std::chrono::steady_clock::now();
  // One equal-pressure split per solve, shared by the operator fill and
  // the solution packaging.
  const std::vector<double> layer_flows = model_->layer_flow_split(op);
  model_->fill_operator(floorplans, op, layer_flows, capacity_over_dt, previous,
                        &triplets_, &rhs_);
  matrix_.refill_from_triplets(triplets_, scatter_plan);
  stats_.assembly_time_s += seconds_since(assembly_start);

  // Preconditioner setup (timed separately from assembly): numeric
  // refactorization on the fixed pattern, or a first-call build. The
  // matrix is a function of (op, capacity_over_dt) alone, so a solve on
  // the pair of the last factorization keeps that factorization.
  const auto setup_start = std::chrono::steady_clock::now();
  if (!factored_ || op != factored_op_ || capacity_over_dt != factored_capacity_over_dt_) {
    factored_ = false;  // until the new factorization succeeds
    if (ilu_ != nullptr) {
      ilu_->refactor(matrix_);
    } else {
      ilu_ = std::make_unique<numerics::Ilu0Preconditioner>(matrix_);
    }
    factored_ = true;
    factored_op_ = op;
    factored_capacity_over_dt_ = capacity_over_dt;
    stats_.factorizations += 1;
  }
  const double setup_time_s = seconds_since(setup_start);
  stats_.precond_setup_time_s += setup_time_s;

  if (!warm_) {
    temperatures_.assign(rhs_.size(), op.inlet_temperature_k);
  }
  numerics::SolverReport report = numerics::solve_bicgstab(
      matrix_, rhs_, temperatures_, ilu_.get(), model_->settings().solver, &workspace_);
  report.setup_time_s = setup_time_s;
  stats_.solves += 1;
  stats_.iterations += report.iterations;
  stats_.solve_time_s += report.solve_time_s;
  if (!report.converged) {
    warm_ = false;  // never warm-start from a diverged iterate
    throw std::runtime_error(std::string(what) + ": BiCGSTAB did not converge (residual " +
                             std::to_string(report.residual_norm) + " after " +
                             std::to_string(report.iterations) + " iterations)");
  }
  warm_ = true;
  return model_->package_solution(temperatures_, floorplans, op, layer_flows, report);
}

}  // namespace brightsi::thermal
