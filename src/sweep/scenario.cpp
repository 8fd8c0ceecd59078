#include "sweep/scenario.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <variant>

namespace brightsi::sweep {

namespace {

/// Introspection of the current stack so the 3D-stack parameters compose
/// in any override order: each rebuild reads the knobs it does not set
/// from the configuration's present stack.
int stack_die_count(const thermal::StackSpec& stack) {
  return std::max(1, stack.source_layer_count());
}

bool stack_is_interlayer(const thermal::StackSpec& stack) {
  // One channel layer per die = interlayer cooling; fewer = top-only.
  return stack.channel_layer_count() >= stack.source_layer_count();
}

int stack_bulk_z_cells(const thermal::StackSpec& stack) {
  // The bulk layer of a die is the non-source solid below the top cap —
  // matched positionally (not by z_cells) so a stack_layers=1 override
  // survives later rebuilds.
  for (std::size_t i = 0; i + 1 < stack.layers.size(); ++i) {
    if (const auto* solid = std::get_if<thermal::SolidLayerSpec>(&stack.layers[i])) {
      if (!solid->has_heat_source) {
        return solid->z_cells;
      }
    }
  }
  return 3;
}

double stack_channel_height_m(const thermal::StackSpec& stack) {
  const thermal::MicrochannelLayerSpec* channel = stack.bottom_channel_layer();
  return channel != nullptr ? channel->layer_height_m
                            : thermal::MicrochannelLayerSpec{}.layer_height_m;
}

void set_channel_heights(core::SystemConfig& config, double height_m) {
  for (thermal::StackLayer& layer : config.stack.layers) {
    if (auto* channel = std::get_if<thermal::MicrochannelLayerSpec>(&layer)) {
      channel->layer_height_m = height_m;
    }
  }
  // The bottom cooling layer IS the flow cell, so its etch depth drives
  // the electrochemical/hydraulic channel model too.
  config.array_spec.geometry.channel_height_m = height_m;
}

/// Replaces the stack with a multi_die_stack and sizes the per-die
/// workload list to match (upper dies default to the cache/DRAM preset;
/// existing upper-die specs are preserved). The current stack's channel
/// height is carried over, so the stack knobs compose in any override
/// order.
void rebuild_stack(core::SystemConfig& config, int die_count, bool interlayer,
                   int bulk_z_cells) {
  const double channel_height_m = stack_channel_height_m(config.stack);
  config.stack = thermal::multi_die_stack(die_count, interlayer, bulk_z_cells);
  config.upper_die_power.resize(static_cast<std::size_t>(die_count - 1),
                                chip::memory_die_power_spec());
  for (thermal::StackLayer& layer : config.stack.layers) {
    if (auto* channel = std::get_if<thermal::MicrochannelLayerSpec>(&layer)) {
      channel->layer_height_m = channel_height_m;
    }
  }
}

/// Shared applier of die_count / interlayer / stack_layers: every stack
/// override of the scenario is read jointly (falling back to the current
/// stack for absent knobs), so the rebuild is idempotent and immune to
/// override order — in particular, interlayer=0 on a single-die stack (an
/// unrepresentable intermediate) is not lost when die_count applies later.
void apply_stack_rebuild(core::SystemConfig& config, double, const ScenarioSpec& scenario) {
  const int dies = scenario.get_int("die_count", stack_die_count(config.stack));
  const bool interlayer = scenario.get_flag("interlayer", stack_is_interlayer(config.stack));
  const int bulk_z = scenario.get_int("stack_layers", stack_bulk_z_cells(config.stack));
  rebuild_stack(config, dies, interlayer, bulk_z);
}

/// power_scale applier: every die of the stack scales, so stacked dies
/// must exist first — when the scenario also carries stack overrides, the
/// (idempotent) joint rebuild runs before scaling, making the pair immune
/// to override order (the custom CLI puts --set before --grid axes).
void apply_power_scale(core::SystemConfig& config, double factor,
                       const ScenarioSpec& scenario) {
  if (scenario.get("die_count") || scenario.get("interlayer") ||
      scenario.get("stack_layers")) {
    apply_stack_rebuild(config, 0.0, scenario);
  }
  auto scale = [factor](chip::Power7PowerSpec& spec) {
    spec.core_w_per_cm2 *= factor;
    spec.cache_w_per_cm2 *= factor;
    spec.logic_w_per_cm2 *= factor;
    spec.io_w_per_cm2 *= factor;
    spec.background_w_per_cm2 *= factor;
  };
  scale(config.power_spec);
  for (chip::Power7PowerSpec& upper : config.upper_die_power) {
    scale(upper);
  }
}

}  // namespace

void ScenarioSpec::set(const std::string& param, double value) {
  for (auto& [name, existing] : overrides) {
    if (name == param) {
      existing = value;
      return;
    }
  }
  overrides.emplace_back(param, value);
}

std::optional<double> ScenarioSpec::get(const std::string& param) const {
  for (const auto& [name, value] : overrides) {
    if (name == param) {
      return value;
    }
  }
  return std::nullopt;
}

std::string format_value(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%g", value);
  return buffer;
}

int ScenarioSpec::get_int(const std::string& param, int fallback) const {
  const std::optional<double> value = get(param);
  return value ? whole_number_param(param, *value) : fallback;
}

bool ScenarioSpec::get_flag(const std::string& param, bool fallback) const {
  const std::optional<double> value = get(param);
  return value ? flag_param(param, *value) : fallback;
}

int whole_number_param(const std::string& param, double value) {
  if (!(std::isfinite(value) && value == std::trunc(value) &&
        value >= std::numeric_limits<int>::min() &&
        value <= std::numeric_limits<int>::max())) {
    throw std::invalid_argument("sweep parameter " + param +
                                " must be a whole number in int range, got " +
                                format_value(value));
  }
  return static_cast<int>(value);
}

bool flag_param(const std::string& param, double value) {
  if (value != 0.0 && value != 1.0) {
    throw std::invalid_argument("sweep parameter " + param + " must be 0 or 1, got " +
                                format_value(value));
  }
  return value == 1.0;
}

const std::vector<ParameterInfo>& parameter_registry() {
  static const std::vector<ParameterInfo> registry = {
      {"flow_ml_min", "total electrolyte flow through the array (ml/min)",
       [](core::SystemConfig& c, double v) {
         c.array_spec.total_flow_m3_per_s = v * 1e-6 / 60.0;
       }},
      {"inlet_c", "electrolyte inlet temperature (deg C)",
       [](core::SystemConfig& c, double v) {
         c.array_spec.inlet_temperature_k = v + 273.15;
       }},
      {"channel_gap_um", "anode-to-cathode electrode gap (um)",
       [](core::SystemConfig& c, double v) {
         c.array_spec.geometry.electrode_gap_m = v * 1e-6;
       }},
      {"channel_height_um", "channel etch depth / electrode height (um)",
       [](core::SystemConfig& c, double v) {
         c.array_spec.geometry.channel_height_m = v * 1e-6;
       }},
      {"channel_length_mm", "channel flow length (mm)",
       [](core::SystemConfig& c, double v) {
         c.array_spec.geometry.channel_length_m = v * 1e-3;
       }},
      {"channel_count", "number of parallel channels in the array",
       [](core::SystemConfig& c, double v) {
         c.array_spec.channel_count = whole_number_param("channel_count", v);
       }},
      {"channel_groups", "channel groups sharing one axial temperature profile",
       [](core::SystemConfig& c, double v) {
         c.channel_groups = whole_number_param("channel_groups", v);
       }},
      {"axial_cells", "thermal-grid cells along the flow direction",
       [](core::SystemConfig& c, double v) {
         c.thermal_grid.axial_cells = whole_number_param("axial_cells", v);
       }},
      {"die_count", "dies in the 3D stack (rebuilds a multi-die stack + per-die workload)",
       nullptr, apply_stack_rebuild},
      {"interlayer", "1 = microchannel layer above every die, 0 = top-die cooling only",
       nullptr, apply_stack_rebuild},
      {"stack_layers", "z-cells per die bulk layer (3D-stack vertical resolution)",
       nullptr, apply_stack_rebuild},
      {"stack_channel_height_um",
       "cooling-layer etch depth, every stack layer + the flow-cell channels (um)",
       [](core::SystemConfig& c, double v) { set_channel_heights(c, v * 1e-6); }},
      {"pump_efficiency", "hydraulic pump efficiency (0, 1]",
       [](core::SystemConfig& c, double v) { c.pump_efficiency = v; }},
      {"power_scale", "multiplier on every die's power densities (workload knob)",
       nullptr, apply_power_scale},
      {"vrm_count_x", "VRM tap columns over the die",
       [](core::SystemConfig& c, double v) {
         c.vrm_spec.count_x = whole_number_param("vrm_count_x", v);
       }},
      {"vrm_count_y", "VRM tap rows over the die",
       [](core::SystemConfig& c, double v) {
         c.vrm_spec.count_y = whole_number_param("vrm_count_y", v);
       }},
      {"vrm_grid_n", "square VRM tap grid: sets both count_x and count_y",
       [](core::SystemConfig& c, double v) {
         c.vrm_spec.count_x = whole_number_param("vrm_grid_n", v);
         c.vrm_spec.count_y = c.vrm_spec.count_x;
       }},
      {"vrm_r_mohm", "per-tap VRM output resistance (mohm)",
       [](core::SystemConfig& c, double v) {
         c.vrm_spec.output_resistance_ohm = v * 1e-3;
       }},
      {"vrm_set_point_v", "regulated rail set-point voltage (V)",
       [](core::SystemConfig& c, double v) { c.vrm_spec.set_point_v = v; }},
      {"vrm_efficiency", "VRM conversion efficiency (0, 1]",
       [](core::SystemConfig& c, double v) { c.vrm_spec.efficiency = v; }},
      {"max_cosim_iterations", "fixed-point iteration cap of the co-simulation",
       [](core::SystemConfig& c, double v) {
         c.max_cosim_iterations = whole_number_param("max_cosim_iterations", v);
       }},
      // Evaluator-consumed parameter: the conventional edge-fed PDN baseline
      // has no SystemConfig field; rail_integrity_evaluator() reads it off
      // the scenario directly.
      {"edge_taps_per_side", "edge-fed baseline: VRM taps per die edge (rail evaluator)",
       nullptr},
      // Evaluator-consumed mission parameters: a MissionConfig wraps the
      // SystemConfig, so its knobs have no SystemConfig field either;
      // mission_evaluator() reads them off the scenario directly.
      // tank_ml / initial_soc feed the reservoir and bus side only — the
      // thermal trajectory is bitwise unaffected (run_mission's stepping
      // reads neither), so they are flagged mission_thermal_invariant and
      // scenarios differing only here share one recorded trajectory.
      {"tank_ml", "electrolyte tank volume per side (mL; mission evaluator)", nullptr,
       nullptr, /*mission_thermal_invariant=*/true},
      {"mission_dt_s", "nominal mission transient step (s; mission evaluator)", nullptr},
      {"initial_soc", "mission starting state of charge (mission evaluator)", nullptr,
       nullptr, /*mission_thermal_invariant=*/true},
      {"workload_kind",
       "mission workload trace: 0=full-load, 1=idle/burst/sustain, 2=memory-bound "
       "(mission evaluator)",
       nullptr},
      {"workload_repeats", "repeats of the mission workload trace (mission evaluator)",
       nullptr},
      {"transient",
       "thermal stepping backend: 0 = full grid solve, 1 = certified reduced-order "
       "(mission evaluator)",
       nullptr},
      // Evaluator-consumed fleet parameters: a RackSpec wraps N SystemConfigs
      // (fleet/rack.h), so the rack knobs have no single-chip field; the
      // fleet evaluators read them off the scenario directly.
      {"rack_chips", "chips in the demo rack (fleet evaluators)", nullptr},
      {"rack_loops", "shared coolant loops of the rack (fleet evaluators)", nullptr},
      {"rack_segments", "serial segments per coolant loop (fleet evaluators)", nullptr},
      {"rack_hetero",
       "1 = every odd chip is the two-die interlayer stack (fleet evaluators)", nullptr},
      {"rack_blocked", "first N chips blocked: valve closed, powered off "
       "(fleet evaluators)",
       nullptr},
      {"rack_flow_ml_min", "coolant flow per rack loop (ml/min; fleet evaluators)",
       nullptr},
      {"rack_inlet_c", "rack loop inlet temperature (deg C; fleet evaluators)", nullptr},
      {"coolant_temp_dep",
       "1 = temperature-dependent coolant viscosity/conductivity along the loops "
       "(fleet evaluators)",
       nullptr},
      {"rack_stagger_s", "per-chip workload stagger: chip i offset i*s "
       "(fleet_replay evaluator)",
       nullptr},
      {"rack_dt_s", "fleet replay transient step (s; fleet_replay evaluator)", nullptr},
      {"rack_steps", "fleet replay step count (fleet_replay evaluator)", nullptr},
  };
  return registry;
}

const ParameterInfo* find_parameter(const std::string& name) {
  for (const ParameterInfo& info : parameter_registry()) {
    if (info.name == name) {
      return &info;
    }
  }
  return nullptr;
}

core::SystemConfig apply_scenario(const core::SystemConfig& base,
                                  const ScenarioSpec& scenario) {
  core::SystemConfig config = base;
  for (const auto& [param, value] : scenario.overrides) {
    const ParameterInfo* info = find_parameter(param);
    if (info == nullptr) {
      throw std::invalid_argument("unknown sweep parameter: " + param);
    }
    if (info->apply_with_scenario) {
      info->apply_with_scenario(config, value, scenario);
    } else if (info->apply) {
      info->apply(config, value);
    }
  }
  return config;
}

}  // namespace brightsi::sweep
