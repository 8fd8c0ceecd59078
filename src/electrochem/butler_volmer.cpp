#include "electrochem/butler_volmer.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "electrochem/constants.h"
#include "numerics/contracts.h"
#include "numerics/root_finding.h"

namespace brightsi::electrochem {

double exchange_current_density(const HalfCellSpec& half_cell, double oxidized_bulk_mol_per_m3,
                                double reduced_bulk_mol_per_m3, double temperature_k) {
  ensure_non_negative(oxidized_bulk_mol_per_m3, "oxidized bulk concentration");
  ensure_non_negative(reduced_bulk_mol_per_m3, "reduced bulk concentration");
  ensure_positive(temperature_k, "exchange_current_density temperature");
  const double alpha = half_cell.couple.anodic_transfer_coefficient;
  const double k0 = half_cell.kinetic_rate_m_per_s.at(temperature_k);
  const double n = static_cast<double>(half_cell.couple.electrons);
  return n * constants::faraday_c_per_mol * k0 *
         std::pow(oxidized_bulk_mol_per_m3, alpha) *
         std::pow(reduced_bulk_mol_per_m3, 1.0 - alpha);
}

double butler_volmer_current(const ButlerVolmerState& state, double overpotential_v) {
  const double f_rt = constants::f_over_rt(state.temperature_k);
  const double alpha = state.anodic_transfer_coefficient;
  const double anodic = state.reduced_surface_ratio * std::exp(alpha * f_rt * overpotential_v);
  const double cathodic =
      state.oxidized_surface_ratio * std::exp(-(1.0 - alpha) * f_rt * overpotential_v);
  return state.exchange_current_density_a_per_m2 * (anodic - cathodic);
}

double butler_volmer_slope(const ButlerVolmerState& state, double overpotential_v) {
  const double f_rt = constants::f_over_rt(state.temperature_k);
  const double alpha = state.anodic_transfer_coefficient;
  const double anodic = state.reduced_surface_ratio * alpha * f_rt *
                        std::exp(alpha * f_rt * overpotential_v);
  const double cathodic = state.oxidized_surface_ratio * (1.0 - alpha) * f_rt *
                          std::exp(-(1.0 - alpha) * f_rt * overpotential_v);
  return state.exchange_current_density_a_per_m2 * (anodic + cathodic);
}

double overpotential_for_current(const ButlerVolmerState& state,
                                 double current_density_a_per_m2) {
  ensure_positive(state.exchange_current_density_a_per_m2, "exchange current density");
  if (current_density_a_per_m2 > 0.0 && state.reduced_surface_ratio <= 0.0) {
    throw std::invalid_argument(
        "overpotential_for_current: anodic current with zero reduced surface concentration");
  }
  if (current_density_a_per_m2 < 0.0 && state.oxidized_surface_ratio <= 0.0) {
    throw std::invalid_argument(
        "overpotential_for_current: cathodic current with zero oxidized surface concentration");
  }

  const double f_rt = constants::f_over_rt(state.temperature_k);

  // Symmetric kinetics (alpha = 1/2) admit a closed form: with
  // x = exp(f eta / 2),  i/i0 = r_red x - r_ox / x  is a quadratic in x.
  if (state.anodic_transfer_coefficient == 0.5 && state.reduced_surface_ratio > 0.0 &&
      state.oxidized_surface_ratio > 0.0) {
    const double ratio = current_density_a_per_m2 / state.exchange_current_density_a_per_m2;
    const double x = (ratio + std::sqrt(ratio * ratio + 4.0 * state.reduced_surface_ratio *
                                                           state.oxidized_surface_ratio)) /
                     (2.0 * state.reduced_surface_ratio);
    if (x > 0.0 && std::isfinite(x)) {
      return 2.0 / f_rt * std::log(x);
    }
  }

  // General case: damped Newton from the symmetric-kinetics asinh seed.
  const double seed = (2.0 / f_rt) *
                      std::asinh(current_density_a_per_m2 /
                                 (2.0 * state.exchange_current_density_a_per_m2 *
                                  std::max(1e-12, std::min(state.reduced_surface_ratio,
                                                           state.oxidized_surface_ratio))));
  auto fdf = [&](double eta) {
    return std::pair<double, double>(
        butler_volmer_current(state, eta) - current_density_a_per_m2,
        butler_volmer_slope(state, eta));
  };
  const auto result = numerics::find_root_newton(fdf, seed, 1e-14, 128);
  if (!result.converged &&
      std::abs(result.function_value) >
          1e-9 * std::max(1.0, std::abs(current_density_a_per_m2))) {
    throw std::runtime_error("overpotential_for_current: Newton failed to converge");
  }
  return result.root;
}

}  // namespace brightsi::electrochem
