// E14 — Membrane-less feasibility ablation (paper Section II / Fig. 2):
// co-laminar flow keeps the fuel and oxidant streams separated without a
// membrane because at low Reynolds number the only mixing channel is
// transverse interdiffusion. This bench measures the interdiffusion /
// self-discharge zone at the channel outlet versus flow rate and electrode
// gap, verifying the sqrt(D L / v) scaling and quantifying the fuel lost
// to crossover — the numbers behind "no membrane is needed".
#include <cstdio>
#include <iostream>

#include "core/report.h"
#include "electrochem/vanadium.h"
#include "flowcell/colaminar_fvm.h"
#include "hydraulics/dimensionless.h"

namespace fc = brightsi::flowcell;
namespace ec = brightsi::electrochem;
using brightsi::core::TextTable;

namespace {

/// Width of the outlet band where both streams' reactants have been
/// annihilated (fuel and oxidant each below `threshold` of their inlet
/// concentration) — the interdiffusion zone of Fig. 2.
double mixing_zone_width_m(const fc::ChannelSolution& sol, const fc::CellGeometry& geometry,
                           double fuel_inlet, double oxidant_inlet,
                           double threshold = 0.02) {
  const auto& fuel = sol.outlet_concentration_mol_per_m3[fc::kAnodeReduced];
  const auto& oxidant = sol.outlet_concentration_mol_per_m3[fc::kCathodeOxidized];
  const int ny = static_cast<int>(fuel.size());
  const double dy = geometry.electrode_gap_m / ny;
  int depleted = 0;
  for (int j = 0; j < ny; ++j) {
    const auto idx = static_cast<std::size_t>(j);
    if (fuel[idx] < threshold * fuel_inlet && oxidant[idx] < threshold * oxidant_inlet) {
      ++depleted;
    }
  }
  return depleted * dy;
}

void print_reproduction() {
  std::printf("== E14: co-laminar interdiffusion (membrane-less operation) ==\n");
  const auto chemistry = ec::kjeang2007_validation_chemistry();
  const double fuel_inlet = chemistry.anode.reduced_inlet_concentration_mol_per_m3;
  const double oxidant_inlet = chemistry.cathode.oxidized_inlet_concentration_mol_per_m3;

  // Near-OCV so electrode consumption does not mask the interface physics.
  const double probe_v = 1.35;

  std::printf("validation-cell geometry, zone measured at the outlet (x = 33 mm):\n");
  TextTable table({"flow (uL/min)", "v (mm/s)", "Re", "Pe", "zone width (um)",
                   "width/sqrt(DL/v)", "crossover (uA)", "fuel lost (%)"});
  fc::FvmSettings fine;
  fine.transverse_cells = 240;
  fine.axial_steps = 200;
  const auto geometry = fc::kjeang2007_geometry();
  const fc::ColaminarChannelModel model(geometry, chemistry, fine);
  for (const double ul : {2.5, 10.0, 60.0, 300.0}) {
    fc::ChannelOperatingConditions cond;
    cond.volumetric_flow_m3_per_s = ul * 1e-9 / 60.0;
    cond.inlet_temperature_k = 300.0;
    const auto sol = model.solve_at_voltage(probe_v, cond);
    const double v = cond.volumetric_flow_m3_per_s / geometry.cross_section_area_m2();
    const double d_mean = 1.5e-10;  // between the two diffusivities
    const double diffusion_scale =
        std::sqrt(d_mean * geometry.channel_length_m / v);
    const double width = mixing_zone_width_m(sol, geometry, fuel_inlet, oxidant_inlet);
    const double duct_dh = geometry.duct().hydraulic_diameter();
    const double re = 1260.0 * v * duct_dh / 2.53e-3;
    const double pe = brightsi::hydraulics::peclet_mass(v, duct_dh, d_mean);
    // Fuel molar flow for the loss percentage.
    const double fuel_flow =
        fuel_inlet * cond.volumetric_flow_m3_per_s / 2.0;  // mol/s
    const double fuel_lost =
        sol.crossover_current_a / 96485.0 / std::max(fuel_flow, 1e-30);
    table.add_row({TextTable::num(ul, 1), TextTable::num(v * 1e3, 2),
                   TextTable::num(re, 3), TextTable::num(pe, 0),
                   TextTable::num(width * 1e6, 1),
                   TextTable::num(width / diffusion_scale, 2),
                   TextTable::num(sol.crossover_current_a * 1e6, 1),
                   TextTable::num(fuel_lost * 100.0, 2)});
  }
  table.print(std::cout);
  std::printf(
      "\nshapes: the zone collapses as sqrt(D L / v) (constant width/sqrt(DL/v)\n"
      "column); Re stays deep-laminar so no convective mixing exists; even at\n"
      "2.5 uL/min the zone occupies a small fraction of the 2 mm gap -> the\n"
      "membrane-less design of Fig. 2 holds across the whole Fig. 3 flow range.\n\n");
}

}  // namespace

int main() {
  print_reproduction();
  return 0;
}
