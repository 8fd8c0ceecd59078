// E1/E2 — Reproduction of Fig. 3 (+ Table I echo): polarization curves of
// the Kjeang-2007 validation cell at 2.5 / 10 / 60 / 300 uL/min, compared
// point-by-point against the embedded reference dataset, mirroring the
// paper's "model within 10 % of experiment" validation claim.
#include <cstdio>
#include <iostream>

#include "core/report.h"
#include "electrochem/nernst.h"
#include "electrochem/vanadium.h"
#include "flowcell/colaminar_fvm.h"
#include "flowcell/reference_data.h"
#include "repro/figures.h"

namespace fc = brightsi::flowcell;
namespace ec = brightsi::electrochem;
namespace re = brightsi::repro;
using brightsi::core::TextTable;

namespace {

fc::ChannelOperatingConditions conditions_for(double ul_per_min) {
  fc::ChannelOperatingConditions c;
  c.volumetric_flow_m3_per_s = ul_per_min * 1e-9 / 60.0;
  c.inlet_temperature_k = 300.0;
  return c;
}

/// Prints the reproduction; true when every paper verdict reads YES.
bool print_reproduction() {
  const auto geometry = fc::kjeang2007_geometry();
  const auto chemistry = ec::kjeang2007_validation_chemistry();
  const fc::ColaminarChannelModel model(geometry, chemistry);

  std::printf("== E2: Table I echo (validation cell) ==\n");
  TextTable params({"parameter", "anode", "cathode", "unit"});
  params.add_row({"standard potential E0",
                  TextTable::num(chemistry.anode.couple.standard_potential_v),
                  TextTable::num(chemistry.cathode.couple.standard_potential_v), "V"});
  params.add_row({"oxidized inlet C*_Ox",
                  TextTable::num(chemistry.anode.oxidized_inlet_concentration_mol_per_m3, 0),
                  TextTable::num(chemistry.cathode.oxidized_inlet_concentration_mol_per_m3, 0),
                  "mol/m3"});
  params.add_row({"reduced inlet C*_Red",
                  TextTable::num(chemistry.anode.reduced_inlet_concentration_mol_per_m3, 0),
                  TextTable::num(chemistry.cathode.reduced_inlet_concentration_mol_per_m3, 0),
                  "mol/m3"});
  params.add_row({"diffusivity D x1e10",
                  TextTable::num(chemistry.anode.diffusivity_m2_per_s.reference_value * 1e10, 2),
                  TextTable::num(chemistry.cathode.diffusivity_m2_per_s.reference_value * 1e10, 2),
                  "m2/s"});
  params.add_row({"rate constant k0 x1e5",
                  TextTable::num(chemistry.anode.kinetic_rate_m_per_s.reference_value * 1e5, 2),
                  TextTable::num(chemistry.cathode.kinetic_rate_m_per_s.reference_value * 1e5, 2),
                  "m/s"});
  params.print(std::cout);
  std::printf("  cell: %.0f mm x %.0f mm x %.0f um, Nernst OCV %.3f V\n\n",
              geometry.channel_length_m * 1e3, geometry.electrode_gap_m * 1e3,
              geometry.channel_height_m * 1e6,
              ec::open_circuit_voltage(chemistry, 300.0));

  std::printf("== E1: Fig. 3 polarization curves (model vs reference) ==\n");
  // The rows the golden regression suite pins (tests/golden/fig3.csv).
  const re::FigureTable fig3 = re::fig3_polarization_table();
  double current_flow = -1.0;
  double worst_flow = 0.0;
  double worst_error_pct = 0.0;
  TextTable table({"V (V)", "i_model (mA/cm2)", "i_reference (mA/cm2)", "error (%)"});
  for (const auto& row : fig3.rows) {
    if (row[0] != current_flow) {
      if (current_flow >= 0.0) {
        table.print(std::cout);
        table = TextTable({"V (V)", "i_model (mA/cm2)", "i_reference (mA/cm2)", "error (%)"});
      }
      current_flow = row[0];
      std::printf("-- flow rate %.1f uL/min --\n", current_flow);
    }
    if (std::abs(row[4]) > worst_error_pct) {
      worst_error_pct = std::abs(row[4]);
      worst_flow = row[0];
    }
    table.add_row({TextTable::num(row[1], 2), TextTable::num(row[2], 2),
                   TextTable::num(row[3], 2), TextTable::num(row[4], 1)});
  }
  table.print(std::cout);
  std::printf(
      "\nmax |error| across all curves: %.1f %% (at %.1f uL/min)"
      "  [paper claim: within 10 %%]\n",
      worst_error_pct, worst_flow);
  const bool reproduced = re::fig3_worst_error_pct(fig3) < 10.0;
  std::printf("reproduced: %s\n", reproduced ? "YES" : "NO");

  // CSV artifact: dense model curves for plotting against the reference.
  const std::string path = brightsi::core::write_results_file(
      "fig3_polarization.csv", [&](std::ostream& os) {
        os << "flow_ul_per_min,cell_voltage_v,current_density_ma_per_cm2\n";
        for (const auto& curve : fc::fig3_reference_curves()) {
          const auto cond = conditions_for(curve.flow_rate_ul_per_min);
          for (double v = 1.40; v >= 0.2; v -= 0.05) {
            const auto sol = model.solve_at_voltage(v, cond);
            os << curve.flow_rate_ul_per_min << "," << v << ","
               << sol.mean_current_density_a_per_m2 / 10.0 << "\n";
          }
        }
      });
  if (!path.empty()) {
    std::printf("series written to %s\n", path.c_str());
  }
  std::printf("\n");
  return reproduced;
}

}  // namespace

int main() { return print_reproduction() ? 0 : 1; }
