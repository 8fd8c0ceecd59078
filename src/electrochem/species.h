// Redox couples, half-cell specifications and electrolyte bulk properties.
//
// A membrane-less co-laminar flow cell (paper Fig. 2) has two half-cells in
// one channel: the anode stream ("fuel", V2+/V3+ for the all-vanadium
// system) and the cathode stream ("oxidant", VO2+/VO2+). Each half-cell
// carries a redox couple, inlet concentrations of its oxidized and reduced
// forms, reaction kinetics (k0) and species diffusivity, all with
// temperature laws attached.
#ifndef BRIGHTSI_ELECTROCHEM_SPECIES_H
#define BRIGHTSI_ELECTROCHEM_SPECIES_H

#include <string>

#include "electrochem/temperature_laws.h"

namespace brightsi::electrochem {

/// Which electrode a half-cell belongs to.
enum class ElectrodeSide {
  kAnode,    ///< negative electrode; oxidation during discharge (eq. 2)
  kCathode,  ///< positive electrode; reduction during discharge (eq. 3)
};

/// One redox couple Ox + n e- <-> Red at an electrode.
struct RedoxCouple {
  std::string name;
  double standard_potential_v = 0.0;  ///< E0 vs SHE
  int electrons = 1;                  ///< n in eq. (1)
  double anodic_transfer_coefficient = 0.5;  ///< alpha in paper eq. (6)

  friend bool operator==(const RedoxCouple&, const RedoxCouple&) = default;
};

/// Bulk electrolyte properties with temperature laws. Thermal values are
/// those of Table II (used by the thermal model for the coolant).
struct ElectrolyteProperties {
  LinearLaw density_kg_per_m3;            ///< rho(T)
  ViscosityLaw dynamic_viscosity_pa_s;    ///< mu(T)
  LinearLaw ionic_conductivity_s_per_m;   ///< sigma(T), the ohmic medium between electrodes
  double thermal_conductivity_w_per_m_k = 0.0;
  double volumetric_heat_capacity_j_per_m3_k = 0.0;

  /// Validates physical plausibility; throws std::invalid_argument.
  void validate() const;

  friend bool operator==(const ElectrolyteProperties&, const ElectrolyteProperties&) = default;
};

/// A half-cell: couple, inlet composition and rate/transport parameters.
struct HalfCellSpec {
  RedoxCouple couple;
  double oxidized_inlet_concentration_mol_per_m3 = 0.0;  ///< C*_Ox
  double reduced_inlet_concentration_mol_per_m3 = 0.0;   ///< C*_Red
  ArrheniusLaw kinetic_rate_m_per_s;                     ///< k0(T)
  ArrheniusLaw diffusivity_m2_per_s;                     ///< D(T), same for both forms

  /// Validates physical plausibility; throws std::invalid_argument.
  void validate() const;

  friend bool operator==(const HalfCellSpec&, const HalfCellSpec&) = default;
};

/// Complete chemistry of a co-laminar flow cell: both half-cells plus the
/// shared supporting electrolyte.
struct FlowCellChemistry {
  HalfCellSpec anode;
  HalfCellSpec cathode;
  ElectrolyteProperties electrolyte;

  /// Standard open-circuit voltage E0_pos - E0_neg (1.25 V for vanadium).
  [[nodiscard]] double standard_cell_voltage() const {
    return cathode.couple.standard_potential_v - anode.couple.standard_potential_v;
  }

  void validate() const;

  friend bool operator==(const FlowCellChemistry&, const FlowCellChemistry&) = default;
};

}  // namespace brightsi::electrochem

#endif  // BRIGHTSI_ELECTROCHEM_SPECIES_H
