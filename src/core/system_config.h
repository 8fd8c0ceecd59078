// Configuration of the full integrated system: MPSoC + microfluidic
// fuel-cell array + in-package VRMs + power grid + thermal package.
#ifndef BRIGHTSI_CORE_SYSTEM_CONFIG_H
#define BRIGHTSI_CORE_SYSTEM_CONFIG_H

#include <memory>

#include "chip/power7.h"
#include "electrochem/species.h"
#include "flowcell/cell_array.h"
#include "pdn/power_grid.h"
#include "pdn/vrm.h"
#include "thermal/model.h"
#include "thermal/stack.h"

namespace brightsi::core {

/// Everything needed to instantiate an IntegratedMpsocSystem. Obtain the
/// paper's case study from `power7_system_config()` and tweak from there.
struct SystemConfig {
  chip::Power7PowerSpec power_spec;
  /// Per-die workload of the dies stacked above the primary one, bottom to
  /// top (same outline as the primary die). Size must equal the stack's
  /// heat-source layer count minus one; empty for single-die stacks.
  std::vector<chip::Power7PowerSpec> upper_die_power;
  flowcell::ArraySpec array_spec;
  electrochem::FlowCellChemistry chemistry;
  flowcell::FvmSettings fvm;
  thermal::StackSpec stack;
  thermal::ThermalGridSettings thermal_grid;
  pdn::PowerGridSpec grid_spec;
  pdn::VrmSpec vrm_spec;

  double pump_efficiency = 0.5;  ///< paper Section III-B

  /// Channels grouped for the non-isothermal array evaluation: channels in
  /// a group share one (averaged) axial temperature profile. 88 must be
  /// divisible by this.
  int channel_groups = 8;

  int max_cosim_iterations = 8;
  double temperature_tolerance_k = 0.05;

  void validate() const;

  /// The thermal operating point this config implies: spec flow and inlet
  /// temperature, with the coolant properties evaluated from the
  /// electrolyte chemistry at the inlet temperature. The single source of
  /// truth for every thermal solve driver (cosim, missions, layer-split
  /// queries) — the per-layer flow split must see exactly the coolant the
  /// solves use.
  [[nodiscard]] thermal::OperatingPoint thermal_operating_point() const;

  /// The operating point of this chip as one branch of a shared coolant
  /// loop (fleet/rack.h): the loop hands the chip `flow` at `inlet_k`, and
  /// the loop's coolant laws re-price the transport properties at that
  /// inlet. With the laws disabled (the default) the coolant is exactly
  /// thermal_operating_point()'s — the constant-property contract that
  /// keeps single-chip results bit-identical.
  [[nodiscard]] thermal::OperatingPoint loop_operating_point(
      double flow_m3_per_s, double inlet_temperature_k,
      const thermal::CoolantPropertyLaws& laws) const;

  friend bool operator==(const SystemConfig&, const SystemConfig&) = default;
};

/// The assembled thermal model this config implies: its stack and thermal
/// grid over the die outline (every die of a config is the POWER7+ outline
/// of chip::make_power7_floorplan).
[[nodiscard]] std::shared_ptr<const thermal::ThermalModel> build_thermal_model(
    const SystemConfig& config);

/// True when `model` is the one build_thermal_model(config) assembles: its
/// three constructor inputs (stack, die outline, thermal grid) compare
/// equal. The one key check of every thermal-model reuse.
[[nodiscard]] bool thermal_model_matches(const thermal::ThermalModel& model,
                                         const SystemConfig& config);

/// The paper's case study: POWER7+ floorplan at full load, Table II array
/// at 676 ml/min / 300 K, Fig. 8 PDN calibration, 50 % pump.
[[nodiscard]] SystemConfig power7_system_config();

/// The two-die 3D stack: the POWER7+ core die under a cache/DRAM die, with
/// an interlayer microchannel layer above each die
/// (thermal::two_die_stack). The pump total flow splits across the two
/// channel layers at equal pressure drop.
[[nodiscard]] SystemConfig two_die_system_config();

}  // namespace brightsi::core

#endif  // BRIGHTSI_CORE_SYSTEM_CONFIG_H
