#include "flowcell/wall_closure.h"

#include <algorithm>
#include <cmath>

#include "electrochem/butler_volmer.h"
#include "electrochem/constants.h"
#include "electrochem/nernst.h"
#include "numerics/contracts.h"
#include "numerics/root_finding.h"

namespace brightsi::flowcell {
namespace {

namespace ec = brightsi::electrochem;

constexpr double kFloor = ec::kConcentrationFloorMolPerM3;
constexpr double kBracketSafety = 0.999;

/// Everything needed to evaluate V_model(i_total) at one station. The
/// floored bulk concentrations and both Nernst potentials depend only on
/// the station, so they are computed once here, not at every Brent
/// evaluation.
class StationModel {
 public:
  StationModel(const ClosureParameters& p, const WallConcentrations& w, double n_f)
      : p_(p),
        w_(w),
        n_f_(n_f),
        an_red_b_(std::max(w.anode_reduced, kFloor)),
        an_ox_b_(std::max(w.anode_oxidized, kFloor)),
        cat_ox_b_(std::max(w.cathode_oxidized, kFloor)),
        cat_red_b_(std::max(w.cathode_reduced, kFloor)),
        e_an_(ec::nernst_potential({"", p.anode_standard_potential_v, 1, p.anode_alpha},
                                   an_ox_b_, an_red_b_, p.temperature_k)),
        e_cat_(ec::nernst_potential({"", p.cathode_standard_potential_v, 1, p.cathode_alpha},
                                    cat_ox_b_, cat_red_b_, p.temperature_k)) {}

  [[nodiscard]] double cell_voltage_at(double i_total) const {
    double eta_an;
    double eta_cat;
    overpotentials(i_total, &eta_an, &eta_cat);
    return (e_cat_ + eta_cat) - (e_an_ + eta_an) -
           i_total * p_.area_specific_resistance_ohm_m2;
  }

  /// Nernst open-circuit voltage at the wall concentrations.
  [[nodiscard]] double local_open_circuit_v() const { return e_cat_ - e_an_; }

  void overpotentials(double i_total, double* eta_an, double* eta_cat) const {
    // Surface concentrations from the wall flux balance.
    const double d_an = i_total / (n_f_ * p_.anode_wall_mass_transfer_m_per_s);
    const double d_cat = i_total / (n_f_ * p_.cathode_wall_mass_transfer_m_per_s);

    // Anode runs anodically at +i_total.
    ec::ButlerVolmerState an_state;
    an_state.exchange_current_density_a_per_m2 = p_.anode_exchange_current_a_per_m2;
    an_state.anodic_transfer_coefficient = p_.anode_alpha;
    an_state.temperature_k = p_.temperature_k;
    an_state.reduced_surface_ratio = std::max(w_.anode_reduced - d_an, kFloor) / an_red_b_;
    an_state.oxidized_surface_ratio = std::max(w_.anode_oxidized + d_an, kFloor) / an_ox_b_;
    *eta_an = ec::overpotential_for_current(an_state, i_total);

    // Cathode runs cathodically at -i_total.
    ec::ButlerVolmerState cat_state;
    cat_state.exchange_current_density_a_per_m2 = p_.cathode_exchange_current_a_per_m2;
    cat_state.anodic_transfer_coefficient = p_.cathode_alpha;
    cat_state.temperature_k = p_.temperature_k;
    cat_state.reduced_surface_ratio = std::max(w_.cathode_reduced + d_cat, kFloor) / cat_red_b_;
    cat_state.oxidized_surface_ratio = std::max(w_.cathode_oxidized - d_cat, kFloor) / cat_ox_b_;
    *eta_cat = ec::overpotential_for_current(cat_state, -i_total);
  }

 private:
  const ClosureParameters& p_;
  const WallConcentrations& w_;
  double n_f_;  // n F (single-electron couples here, n = 1)
  double an_red_b_;
  double an_ox_b_;
  double cat_ox_b_;
  double cat_red_b_;
  double e_an_;
  double e_cat_;
};

}  // namespace

ClosureResult solve_wall_current(const ClosureParameters& params, const WallConcentrations& wall,
                                 double cell_voltage_v) {
  ensure_positive(params.temperature_k, "closure temperature");
  ensure_positive(params.anode_wall_mass_transfer_m_per_s, "anode wall mass transfer");
  ensure_positive(params.cathode_wall_mass_transfer_m_per_s, "cathode wall mass transfer");
  ensure_non_negative(params.area_specific_resistance_ohm_m2, "area specific resistance");

  const double n_f = ec::constants::faraday_c_per_mol;  // single-electron couples

  ClosureResult result;

  // Discharge bracket: surface depletion of the consumed species on either
  // electrode, then the per-step mass caps.
  double i_hi = kBracketSafety * n_f *
                std::min(params.anode_wall_mass_transfer_m_per_s * wall.anode_reduced,
                         params.cathode_wall_mass_transfer_m_per_s * wall.cathode_oxidized);
  if (params.anodic_mass_cap_a_per_m2 > 0.0) {
    i_hi = std::min(i_hi, params.anodic_mass_cap_a_per_m2);
  }
  // Charge bracket (negative current): the other two species deplete.
  double i_lo = -kBracketSafety * n_f *
                std::min(params.anode_wall_mass_transfer_m_per_s * wall.anode_oxidized,
                         params.cathode_wall_mass_transfer_m_per_s * wall.cathode_reduced);
  if (params.cathodic_mass_cap_a_per_m2 > 0.0) {
    i_lo = std::max(i_lo, -params.cathodic_mass_cap_a_per_m2);
  }

  if (!(i_hi > 0.0) && !(i_lo < 0.0)) {
    // Station fully depleted in both directions; nothing can flow.
    return result;
  }

  // Exchange currents can be zero when a wall concentration is zero (the
  // closed-circuit current is then bracketed to ~0 anyway); floor them so
  // the kinetics stay evaluable.
  const double i0_floor = 1e-12;
  ClosureParameters p = params;
  p.anode_exchange_current_a_per_m2 =
      std::max(p.anode_exchange_current_a_per_m2, i0_floor);
  p.cathode_exchange_current_a_per_m2 =
      std::max(p.cathode_exchange_current_a_per_m2, i0_floor);
  StationModel floored{p, wall, n_f};

  auto g = [&](double i_total) { return floored.cell_voltage_at(i_total) - cell_voltage_v; };

  double i_solution;
  const double g_lo = g(i_lo);
  const double g_hi = g(i_hi);
  if (g_hi >= 0.0) {
    // Even at the transport limit the cell voltage exceeds the demand:
    // the station is pinned at its limiting current.
    i_solution = i_hi;
    result.clamped = true;
  } else if (g_lo <= 0.0) {
    // Even maximal charging cannot raise the voltage to V_cell (deeply
    // depleted station asked to charge): pin at the bracket.
    i_solution = i_lo;
    result.clamped = true;
  } else {
    const auto root = numerics::find_root_brent(g, {i_lo, g_lo}, {i_hi, g_hi}, 1e-10, 1e-9);
    i_solution = root.root;
  }

  result.total_current_density = i_solution;
  result.external_current_density = i_solution - p.parasitic_current_density_a_per_m2;
  floored.overpotentials(i_solution, &result.anode_overpotential_v,
                         &result.cathode_overpotential_v);
  result.local_open_circuit_v = floored.local_open_circuit_v();
  return result;
}

}  // namespace brightsi::flowcell
