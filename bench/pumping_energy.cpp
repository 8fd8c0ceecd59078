// E7 — Reproduction of the Section III-B pumping/energy-balance claims:
// pressure drop (paper: 1.5 bar/cm), pumping power (paper: 4.4 W at 50 %
// pump efficiency) and the headline that generation (~6 W) exceeds the
// pumping cost. The paper's two numbers are mutually inconsistent and both
// exceed straight-channel Darcy-Weisbach for the Table II geometry; this
// bench prints our physics, the paper's figures, and the inversion showing
// what pressure their own pumping equation implies. The reproduced *shape*
// is the positive net energy balance, which holds under every variant.
#include <cstdio>
#include <iostream>

#include "core/report.h"
#include "electrochem/vanadium.h"
#include "flowcell/cell_array.h"
#include "hydraulics/pump.h"
#include "repro/figures.h"

namespace fc = brightsi::flowcell;
namespace ec = brightsi::electrochem;
namespace hy = brightsi::hydraulics;
using brightsi::core::TextTable;

namespace {

/// Prints the reproduction; true when every paper verdict reads YES.
bool print_reproduction() {
  const auto spec = fc::power7_array_spec();
  const fc::FlowCellArray array(spec, ec::power7_array_chemistry());
  const auto h = array.hydraulics_at_spec_flow();
  const double flow = spec.total_flow_m3_per_s;
  const double eta_pump = 0.5;  // paper

  const double pump_model = hy::pumping_power_w(h.pressure_drop_pa, flow, eta_pump);
  const double generated = array.current_at_voltage(1.0) * 1.0;

  // Inversions of the paper's own numbers.
  const double paper_pump_w = 4.4;
  const double paper_dp_implied = paper_pump_w * eta_pump / flow;          // from P = dp V / eta
  const double paper_dp_quoted = 1.5e5 * spec.geometry.channel_length_m * 100.0;  // 1.5 bar/cm

  std::printf("== E7: pumping power and energy balance ==\n");
  TextTable table({"quantity", "model", "paper", "unit"});
  table.add_row({"mean channel velocity", TextTable::num(h.mean_velocity_m_per_s, 2), "1.4",
                 "m/s"});
  table.add_row({"Reynolds number", TextTable::num(h.reynolds, 0), "(laminar)", "-"});
  table.add_row({"pressure gradient", TextTable::num(h.pressure_gradient_pa_per_m / 1e7, 3),
                 "1.5", "bar/cm"});
  table.add_row({"pressure drop (22 mm)", TextTable::num(h.pressure_drop_pa / 1e5, 3),
                 TextTable::num(paper_dp_quoted / 1e5, 1) + " (quoted)", "bar"});
  table.add_row({"dp implied by paper's 4.4 W", "-",
                 TextTable::num(paper_dp_implied / 1e5, 2), "bar"});
  table.add_row({"pumping power (eta=0.5)", TextTable::num(pump_model, 2), "4.4", "W"});
  table.add_row({"generated power at 1 V", TextTable::num(generated, 2), "6.0", "W"});
  table.add_row({"net power (model dp)", TextTable::num(generated - pump_model, 2), "1.6",
                 "W"});
  table.add_row({"net power (paper dp)", TextTable::num(generated - paper_pump_w, 2), "1.6",
                 "W"});
  table.print(std::cout);

  const bool model_positive = generated > pump_model;
  const bool paper_positive = generated > paper_pump_w;
  std::printf("\nenergy-balance shape (generation > pumping): model %s, paper-dp variant %s\n",
              model_positive ? "YES" : "NO", paper_positive ? "YES" : "NO");

  // Flow sweep: where would pumping eat the generation? Printed from the
  // shared figure table (repro/figures.h) pinned by tests/golden/pumping.csv
  // so this bench and the golden regression can never drift apart.
  std::printf("\nflow sweep (net power vs flow, model physics):\n");
  const brightsi::repro::FigureTable figure = brightsi::repro::pumping_energy_table();
  TextTable sweep({"flow (ml/min)", "dp (bar)", "pump (W)", "I@1V (A)", "net (W)"});
  for (const std::vector<double>& row : figure.rows) {
    sweep.add_row({TextTable::num(row[0], 0), TextTable::num(row[3], 3),
                   TextTable::num(row[4], 3), TextTable::num(row[5], 2),
                   TextTable::num(row[6], 2)});
  }
  sweep.print(std::cout);
  std::printf("\n");
  return model_positive && paper_positive;
}

}  // namespace

int main() { return print_reproduction() ? 0 : 1; }
