#include "fleet/rack.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>

#include "chip/power7.h"
#include "hydraulics/manifold.h"
#include "hydraulics/pump.h"
#include "numerics/contracts.h"
#include "thermal/solve_context.h"

namespace brightsi::fleet {

namespace {

/// Per-chip solve machinery: the assembled thermal model (shared between
/// structurally identical chips), the die floorplans (stable addresses —
/// replay reassigns them in place per step), and the chip's manifold
/// branch as seen from the rack plena.
struct ChipEngine {
  const RackChip* chip = nullptr;
  std::shared_ptr<const thermal::ThermalModel> model;
  std::vector<chip::Floorplan> floorplans;           ///< primary + upper dies
  std::vector<const chip::Floorplan*> pointers;      ///< span view of the above
  hydraulics::ParallelBranch branch;
};

std::vector<ChipEngine> build_engines(const RackSpec& rack) {
  std::vector<ChipEngine> engines;
  engines.reserve(rack.chips.size());
  for (const RackChip& c : rack.chips) {
    ChipEngine staged;
    staged.chip = &c;
    staged.floorplans.push_back(chip::make_power7_floorplan(c.system.power_spec));
    for (const chip::Power7PowerSpec& upper : c.system.upper_die_power) {
      staged.floorplans.push_back(chip::make_power7_floorplan(upper));
    }
    engines.push_back(std::move(staged));
    ChipEngine& engine = engines.back();
    engine.pointers.reserve(engine.floorplans.size());
    for (const chip::Floorplan& floorplan : engine.floorplans) {
      engine.pointers.push_back(&floorplan);
    }

    // Chips whose configs imply the same model (core::thermal_model_matches)
    // share one assembled model — the fleet analog of the sweep worker's
    // structure cache; results are bitwise unaffected.
    for (std::size_t prior = 0; prior + 1 < engines.size(); ++prior) {
      if (core::thermal_model_matches(*engines[prior].model, c.system)) {
        engine.model = engines[prior].model;
        break;
      }
    }
    if (engine.model == nullptr) {
      engine.model = core::build_thermal_model(c.system);
    }

    engine.branch.name = c.name;
    if (!c.blocked) {
      for (const thermal::MicrochannelLayerSpec* layer : c.system.stack.channel_layers()) {
        engine.branch.groups.push_back(
            {hydraulics::RectangularDuct(layer->channel_width_m, layer->layer_height_m,
                                         engine.floorplans.front().die_height()),
             layer->channel_count, layer->name});
      }
    }
  }
  return engines;
}

/// One pass over every loop's serial segments: splits each segment's flow
/// at equal pressure drop, prices the coolant at the segment inlet through
/// the rack's laws, calls `solve_chip` (engine index, operating point) ->
/// (heat pickup W, peak K) for every live chip, and carries the mixed
/// outlet forward. Shared by the steady solve and every replay step.
RackSolveResult walk_rack(
    const RackSpec& rack, const std::vector<ChipEngine>& engines,
    const std::function<std::pair<double, double>(std::size_t,
                                                  const thermal::OperatingPoint&)>&
        solve_chip) {
  RackSolveResult result;
  result.chips.resize(engines.size());
  const thermal::CoolantProperties reference = rack.coolant_reference();
  const int loops = rack.loop_count();
  result.loops.resize(static_cast<std::size_t>(loops));
  for (int l = 0; l < loops; ++l) {
    RackLoopResult& loop = result.loops[static_cast<std::size_t>(l)];
    loop.inlet_temperature_k = rack.loop_inlet_temperature_k;
    double t_in = rack.loop_inlet_temperature_k;
    const int segments = rack.segment_count(l);
    for (int s = 0; s < segments; ++s) {
      loop.segment_inlet_k.push_back(t_in);
      std::vector<hydraulics::ParallelBranch> branches;
      std::vector<std::size_t> members;
      for (std::size_t i = 0; i < engines.size(); ++i) {
        if (engines[i].chip->loop == l && engines[i].chip->segment == s) {
          members.push_back(i);
          branches.push_back(engines[i].branch);
        }
      }
      const thermal::CoolantProperties coolant = rack.coolant_laws.at(reference, t_in);
      const hydraulics::GroupSplit split = hydraulics::split_equal_pressure(
          rack.loop_flow_m3_per_s, branches, coolant.dynamic_viscosity_pa_s);
      loop.pressure_drop_pa += split.common_pressure_drop_pa;

      double segment_heat_w = 0.0;
      for (std::size_t m = 0; m < members.size(); ++m) {
        const std::size_t index = members[m];
        const RackChip& c = *engines[index].chip;
        RackChipResult& chip_result = result.chips[index];
        chip_result.name = c.name;
        chip_result.loop = l;
        chip_result.segment = s;
        chip_result.blocked = c.blocked;
        chip_result.inlet_temperature_k = t_in;
        chip_result.flow_m3_per_s = split.per_group_flow_m3_per_s[m];
        chip_result.flow_fraction = split.fraction[m];
        chip_result.outlet_temperature_k = t_in;
        if (c.blocked) {
          continue;  // valve closed and powered off: no flow, no solve
        }
        const thermal::OperatingPoint op = c.system.loop_operating_point(
            chip_result.flow_m3_per_s, t_in, rack.coolant_laws);
        const auto [heat_w, peak_k] = solve_chip(index, op);
        chip_result.heat_absorbed_w = heat_w;
        chip_result.peak_temperature_k = peak_k;
        if (chip_result.flow_m3_per_s > 0.0) {
          chip_result.outlet_temperature_k =
              t_in + heat_w / (coolant.volumetric_heat_capacity_j_per_m3_k *
                               chip_result.flow_m3_per_s);
        }
        segment_heat_w += heat_w;
        result.peak_temperature_k = std::max(result.peak_temperature_k, peak_k);
      }
      loop.heat_absorbed_w += segment_heat_w;
      // Flow-weighted enthalpy mix of the segment's branch outlets — the
      // next serial segment's plenum inlet.
      t_in += segment_heat_w /
              (coolant.volumetric_heat_capacity_j_per_m3_k * rack.loop_flow_m3_per_s);
    }
    loop.outlet_temperature_k = t_in;
    loop.pump_power_w = hydraulics::pumping_power_w(
        loop.pressure_drop_pa, rack.loop_flow_m3_per_s, rack.pump_efficiency);
    result.pump_power_w += loop.pump_power_w;
    result.heat_absorbed_w += loop.heat_absorbed_w;

    for (std::size_t s = 1; s < loop.segment_inlet_k.size(); ++s) {
      if (loop.segment_inlet_k[s] < loop.segment_inlet_k[s - 1]) {
        result.inlet_monotonic = false;
      }
    }
    result.max_inlet_rise_k =
        std::max(result.max_inlet_rise_k,
                 loop.segment_inlet_k.back() - loop.inlet_temperature_k);

    const double enthalpy_rise_w = reference.volumetric_heat_capacity_j_per_m3_k *
                                   rack.loop_flow_m3_per_s *
                                   (loop.outlet_temperature_k - loop.inlet_temperature_k);
    const double scale = std::max(std::abs(loop.heat_absorbed_w), 1e-12);
    result.energy_balance_rel_error =
        std::max(result.energy_balance_rel_error,
                 std::abs(loop.heat_absorbed_w - enthalpy_rise_w) / scale);
  }
  return result;
}

}  // namespace

void RackSpec::validate() const {
  ensure(!chips.empty(), "rack '" + name + "' has no chips");
  ensure_positive(loop_flow_m3_per_s, "loop flow");
  ensure_positive(loop_inlet_temperature_k, "loop inlet temperature");
  ensure(pump_efficiency > 0.0 && pump_efficiency <= 1.0, "pump efficiency in (0, 1]");

  std::set<std::string> names;
  for (const RackChip& c : chips) {
    ensure(!c.name.empty(), "rack chip with empty name");
    ensure(names.insert(c.name).second, "duplicate rack chip name: " + c.name);
    ensure(c.loop >= 0 && c.segment >= 0,
           "chip '" + c.name + "' has a negative loop or segment index");
    ensure_non_negative(c.workload_offset_s, "workload offset of chip '" + c.name + "'");
    c.system.validate();
    ensure(c.blocked || c.system.stack.has_channels(),
           "non-blocked chip '" + c.name + "' has no cooling channels");
  }

  // One fluid per rack: every chip's config-implied coolant reference must
  // agree, or the shared-loop mixing arithmetic would be ill-defined.
  const thermal::CoolantProperties reference =
      chips.front().system.thermal_operating_point().coolant;
  for (const RackChip& c : chips) {
    ensure(c.system.thermal_operating_point().coolant == reference,
           "chip '" + c.name + "' carries a different coolant than '" +
               chips.front().name + "' (a rack's loops share one fluid)");
  }

  // Loops and each loop's serial segments must be contiguous from 0 —
  // a gap would mean a plenum pair with no chips attached.
  const int loops = loop_count();
  for (int l = 0; l < loops; ++l) {
    bool loop_seen = false;
    int max_segment = 0;
    for (const RackChip& c : chips) {
      if (c.loop == l) {
        loop_seen = true;
        max_segment = std::max(max_segment, c.segment);
      }
    }
    ensure(loop_seen, "rack loop " + std::to_string(l) + " has no chips");
    for (int s = 0; s <= max_segment; ++s) {
      bool segment_seen = false;
      for (const RackChip& c : chips) {
        segment_seen = segment_seen || (c.loop == l && c.segment == s);
      }
      ensure(segment_seen, "rack loop " + std::to_string(l) + " segment " +
                               std::to_string(s) + " has no chips");
    }
  }
}

int RackSpec::loop_count() const {
  int max_loop = 0;
  for (const RackChip& c : chips) {
    max_loop = std::max(max_loop, c.loop);
  }
  return max_loop + 1;
}

int RackSpec::segment_count(int loop) const {
  int max_segment = -1;
  for (const RackChip& c : chips) {
    if (c.loop == loop) {
      max_segment = std::max(max_segment, c.segment);
    }
  }
  if (max_segment < 0) {
    throw std::invalid_argument("rack has no loop " + std::to_string(loop));
  }
  return max_segment + 1;
}

thermal::CoolantProperties RackSpec::coolant_reference() const {
  if (chips.empty()) {
    throw std::invalid_argument("rack '" + name + "' has no chips");
  }
  return chips.front().system.thermal_operating_point().coolant;
}

RackSolveResult solve_rack_steady(const RackSpec& rack) {
  rack.validate();
  const std::vector<ChipEngine> engines = build_engines(rack);
  // Chips that share a model share one solve context, reset before each
  // chip so that every solve starts cold: bitwise the one-shot
  // ThermalModel::solve_steady, without a context build per chip.
  std::map<const thermal::ThermalModel*, thermal::ThermalSolveContext> contexts;
  return walk_rack(rack, engines,
                   [&](std::size_t index, const thermal::OperatingPoint& op) {
                     const thermal::ThermalModel& model = *engines[index].model;
                     thermal::ThermalSolveContext& context =
                         contexts.try_emplace(&model, model).first->second;
                     context.reset();
                     const thermal::ThermalSolution sol =
                         context.solve_steady(engines[index].pointers, op);
                     return std::pair{sol.fluid_heat_absorbed_w, sol.peak_temperature_k};
                   });
}

FleetReplayResult replay_fleet_trace(const RackSpec& rack,
                                     const FleetReplayOptions& options) {
  rack.validate();
  ensure_positive(options.dt_s, "replay dt");
  ensure(options.steps > 0, "replay steps must be positive");
  const double trace_duration_s = options.trace.total_duration_s();
  ensure_positive(trace_duration_s, "workload trace duration");

  std::vector<ChipEngine> engines = build_engines(rack);
  std::vector<std::unique_ptr<thermal::ThermalSolveContext>> contexts;
  std::vector<numerics::Grid3<double>> states;
  contexts.reserve(engines.size());
  states.reserve(engines.size());
  for (const ChipEngine& engine : engines) {
    contexts.push_back(std::make_unique<thermal::ThermalSolveContext>(*engine.model));
    states.push_back(engine.model->uniform_state(rack.loop_inlet_temperature_k));
  }

  FleetReplayResult result;
  result.steps = options.steps;
  result.sim_time_s = options.steps * options.dt_s;
  RackSolveResult last_step;
  for (int step = 0; step < options.steps; ++step) {
    const double t_s = step * options.dt_s;
    // Each live chip sees its own offset phase of the (cyclic) trace.
    for (ChipEngine& engine : engines) {
      if (engine.chip->blocked) {
        continue;
      }
      const double phase_time_s =
          std::fmod(t_s + engine.chip->workload_offset_s, trace_duration_s);
      const chip::WorkloadPhase& phase = options.trace.phase_at(phase_time_s);
      engine.floorplans.front() = chip::apply_phase(engine.chip->system.power_spec, phase);
      for (std::size_t upper = 0; upper < engine.chip->system.upper_die_power.size();
           ++upper) {
        engine.floorplans[upper + 1] =
            chip::apply_phase(engine.chip->system.upper_die_power[upper], phase);
      }
    }
    last_step = walk_rack(
        rack, engines, [&](std::size_t index, const thermal::OperatingPoint& op) {
          thermal::ThermalSolution sol = contexts[index]->step_transient(
              states[index], engines[index].pointers, op, options.dt_s);
          const std::pair<double, double> observables{sol.fluid_heat_absorbed_w,
                                                      sol.peak_temperature_k};
          states[index] = std::move(sol.temperature_k);
          return observables;
        });
    result.max_peak_temperature_k =
        std::max(result.max_peak_temperature_k, last_step.peak_temperature_k);
    result.mean_pump_power_w += last_step.pump_power_w;
    result.heat_absorbed_j += last_step.heat_absorbed_w * options.dt_s;
  }
  result.mean_pump_power_w /= options.steps;
  result.max_inlet_rise_k = last_step.max_inlet_rise_k;
  result.inlet_monotonic = last_step.inlet_monotonic;
  result.final_chips = std::move(last_step.chips);
  return result;
}

RackSpec make_demo_rack(const core::SystemConfig& base, int chip_count, int loop_count,
                        int segments_per_loop, bool heterogeneous, int blocked_count) {
  ensure(chip_count > 0, "demo rack needs at least one chip");
  ensure(loop_count > 0 && loop_count <= chip_count,
         "demo rack loop count must be in [1, chip count]");
  ensure(segments_per_loop > 0, "demo rack needs at least one segment per loop");
  ensure(blocked_count >= 0 && blocked_count <= chip_count,
         "demo rack blocked count must be in [0, chip count]");

  RackSpec rack;
  rack.name = "rack" + std::to_string(chip_count);
  for (int i = 0; i < chip_count; ++i) {
    RackChip c;
    c.name = "chip" + std::to_string(i);
    c.system = base;
    c.loop = i % loop_count;
    const int position = i / loop_count;
    c.segment = position % segments_per_loop;
    if (heterogeneous && (position / segments_per_loop) % 2 == 1) {
      // Chips of every odd pass over the segment sequence are the two-die
      // interlayer-cooled stack. A segment's parallel chips come from
      // different passes, so mixed segments hold both stack kinds and
      // split their flow genuinely unequally at equal pressure drop.
      c.system.stack = thermal::two_die_stack();
      c.system.upper_die_power = {chip::memory_die_power_spec()};
    }
    c.blocked = i < blocked_count;
    rack.chips.push_back(std::move(c));
  }
  rack.validate();
  return rack;
}

}  // namespace brightsi::fleet
