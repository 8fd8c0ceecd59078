// All-vanadium chemistry presets matching the paper's Table I (validation
// cell, parameters from Kjeang 2007 / Rapp 2012) and Table II (POWER7+
// microchannel array, parameters from Rapp 2012 / Al-Fetlawi 2009).
//
// Two parameters the paper does not tabulate are required to close the
// model and are calibrated here:
//   * ionic conductivity of the supporting electrolyte (ohmic overvoltage) —
//     literature values for vanadium in 2–4 M H2SO4 span 25–80 S/m;
//   * Arrhenius activation energies of k0 and D — taken from Al-Fetlawi
//     2009-range values and tuned so the temperature-sensitivity headline
//     numbers (<= 4 % at nominal flow, up to ~23 % when hot) are reproduced.
#ifndef BRIGHTSI_ELECTROCHEM_VANADIUM_H
#define BRIGHTSI_ELECTROCHEM_VANADIUM_H

#include "electrochem/species.h"

namespace brightsi::electrochem {

/// Table I chemistry: the 33 mm x 2 mm x 150 um co-laminar cell of Kjeang
/// 2007 used to validate the transport model (paper Fig. 3).
///   anode:   V2+/V3+,  E0 = -0.255 V, C*_Ox = 80,  C*_Red = 920 mol/m3,
///            D = 1.7e-10 m2/s, k0 = 2e-5 m/s
///   cathode: VO2+/VO2+, E0 = +0.991 V, C*_Ox = 992, C*_Red = 8 mol/m3,
///            D = 1.3e-10 m2/s, k0 = 1e-5 m/s
///   rho = 1260 kg/m3, mu = 2.53 mPa.s
[[nodiscard]] FlowCellChemistry kjeang2007_validation_chemistry();

/// Table II chemistry: the 88-channel array on the POWER7+.
///   anode:   E0 = -0.255 V, C*_Ox = 1,    C*_Red = 2000 mol/m3,
///            D = 4.13e-10 m2/s, k0 = 5.33e-5 m/s
///   cathode: E0 = +1.0 V,  C*_Ox = 2000, C*_Red = 1 mol/m3,
///            D = 1.26e-10 m2/s, k0 = 4.67e-5 m/s
///   rho = 1260 kg/m3, mu = 2.53 mPa.s, k_f = 0.67 W/(m.K),
///   rho*cp = 4.187e6 J/(m3.K)
[[nodiscard]] FlowCellChemistry power7_array_chemistry();

}  // namespace brightsi::electrochem

#endif  // BRIGHTSI_ELECTROCHEM_VANADIUM_H
