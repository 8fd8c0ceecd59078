// Physical constants used by the electrochemical and thermal models.
#ifndef BRIGHTSI_ELECTROCHEM_CONSTANTS_H
#define BRIGHTSI_ELECTROCHEM_CONSTANTS_H

namespace brightsi::electrochem::constants {

inline constexpr double faraday_c_per_mol = 96485.33212;      ///< Faraday constant F
inline constexpr double gas_constant_j_per_mol_k = 8.314462618;  ///< universal gas constant R
inline constexpr double celsius_offset_k = 273.15;

/// F / (R T): the exponential scale of electrode kinetics at temperature T.
[[nodiscard]] inline double f_over_rt(double temperature_k) {
  return faraday_c_per_mol / (gas_constant_j_per_mol_k * temperature_k);
}

/// R T / F: "thermal voltage" of one-electron electrochemistry (25.7 mV at 25 C).
[[nodiscard]] inline double rt_over_f(double temperature_k) {
  return gas_constant_j_per_mol_k * temperature_k / faraday_c_per_mol;
}

[[nodiscard]] inline double kelvin_to_celsius(double kelvin) {
  return kelvin - celsius_offset_k;
}

}  // namespace brightsi::electrochem::constants

#endif  // BRIGHTSI_ELECTROCHEM_CONSTANTS_H
