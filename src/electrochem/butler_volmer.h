// Butler–Volmer electrode kinetics (paper eq. 6, standard form).
//
// Note on the paper's eq. (6): the exponents are printed as exp(a R T eta/F),
// which is dimensionally inconsistent (the argument would carry units of
// V.K.J/C…). The cited references (Bard & Faulkner 2001; Hamann & Vielstich
// 2005) give the standard form exp(a F eta / (R T)), which we implement:
//
//   i = i0 * [ (C_red,s / C_red,b) * exp( +alpha_a F eta / R T )
//            - (C_ox,s  / C_ox,b ) * exp( -(1 - alpha_a) F eta / R T ) ]
//
// with i0 = n F k0 (C_ox,b)^alpha_a (C_red,b)^(1-alpha_a). Positive i is
// anodic (oxidation) current; eta = E_electrode - E_equilibrium(bulk).
// Surface-to-bulk concentration ratios fold the mass-transport overpotential
// (paper eqs. 7–8) into the same expression.
#ifndef BRIGHTSI_ELECTROCHEM_BUTLER_VOLMER_H
#define BRIGHTSI_ELECTROCHEM_BUTLER_VOLMER_H

#include "electrochem/species.h"

namespace brightsi::electrochem {

/// Exchange current density i0 = n F k0 (C_ox)^alpha (C_red)^(1-alpha), in
/// A/m^2, evaluated at the given bulk composition and temperature.
[[nodiscard]] double exchange_current_density(const HalfCellSpec& half_cell,
                                              double oxidized_bulk_mol_per_m3,
                                              double reduced_bulk_mol_per_m3,
                                              double temperature_k);

/// Inputs of a Butler–Volmer evaluation.
struct ButlerVolmerState {
  double exchange_current_density_a_per_m2 = 0.0;  ///< i0
  double anodic_transfer_coefficient = 0.5;        ///< alpha_a
  double temperature_k = 300.0;
  /// Surface/bulk concentration ratios; 1.0 when transport is not limiting.
  double reduced_surface_ratio = 1.0;  ///< C_red,s / C_red,b
  double oxidized_surface_ratio = 1.0; ///< C_ox,s / C_ox,b
};

/// Current density (A/m^2, positive anodic) at overpotential `eta` (V).
[[nodiscard]] double butler_volmer_current(const ButlerVolmerState& state, double overpotential_v);

/// d(i)/d(eta), used by Newton solvers.
[[nodiscard]] double butler_volmer_slope(const ButlerVolmerState& state, double overpotential_v);

/// Inverse relation: the overpotential that produces `current_density`
/// (positive anodic / negative cathodic). Solved by damped Newton from an
/// asinh seed; accurate to ~1e-12 V. Throws when the requested current is
/// unreachable because a surface ratio is zero in the required direction.
[[nodiscard]] double overpotential_for_current(const ButlerVolmerState& state,
                                               double current_density_a_per_m2);

}  // namespace brightsi::electrochem

#endif  // BRIGHTSI_ELECTROCHEM_BUTLER_VOLMER_H
