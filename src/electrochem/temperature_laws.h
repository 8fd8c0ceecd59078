// Temperature dependence of electrochemical and transport parameters.
//
// The paper (Section II-A, citing Al-Fetlawi 2009 and Rapp 2012) notes that
// the kinetic rate constant k0, the diffusion coefficients D, the
// electrolyte conductivity, density and viscosity are all
// temperature-dependent, and that this coupling is what produces the "up to
// 23 % more power when hot" result. We model:
//
//   * k0(T), D(T)  — Arrhenius laws (Stokes–Einstein reduces to an effective
//                    Arrhenius form over the narrow 27–70 C window),
//   * mu(T)        — Arrhenius (Andrade) law,
//   * sigma(T)     — linear temperature coefficient,
//   * rho(T)       — linear thermal-expansion coefficient.
#ifndef BRIGHTSI_ELECTROCHEM_TEMPERATURE_LAWS_H
#define BRIGHTSI_ELECTROCHEM_TEMPERATURE_LAWS_H

namespace brightsi::electrochem {

/// value(T) = reference * exp( -(Ea/R) * (1/T - 1/T_ref) ).
/// Positive Ea means the value increases with temperature (k0, D), negative
/// models viscosity-like decreases when used with the sign convention of
/// `ArrheniusLaw::at` (viscosity uses its own law below for clarity).
struct ArrheniusLaw {
  double reference_value = 0.0;
  double activation_energy_j_per_mol = 0.0;
  double reference_temperature_k = 300.0;

  /// Evaluates the law at `temperature_k` (must be > 0; checked).
  [[nodiscard]] double at(double temperature_k) const;

  friend bool operator==(const ArrheniusLaw&, const ArrheniusLaw&) = default;
};

/// mu(T) = reference * exp( +(Ea/R) * (1/T - 1/T_ref) ): decreases with T
/// for positive Ea (Andrade behaviour of aqueous electrolytes, ~2 %/K).
struct ViscosityLaw {
  double reference_value_pa_s = 0.0;
  double activation_energy_j_per_mol = 16000.0;
  double reference_temperature_k = 300.0;

  [[nodiscard]] double at(double temperature_k) const;

  friend bool operator==(const ViscosityLaw&, const ViscosityLaw&) = default;
};

/// value(T) = reference * (1 + coefficient * (T - T_ref)).
struct LinearLaw {
  double reference_value = 0.0;
  double coefficient_per_k = 0.0;
  double reference_temperature_k = 300.0;

  [[nodiscard]] double at(double temperature_k) const;

  friend bool operator==(const LinearLaw&, const LinearLaw&) = default;
};

}  // namespace brightsi::electrochem

#endif  // BRIGHTSI_ELECTROCHEM_TEMPERATURE_LAWS_H
