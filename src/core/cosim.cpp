#include "core/cosim.h"

#include <algorithm>
#include <cmath>

#include "core/bus_solve.h"
#include "electrochem/constants.h"
#include "hydraulics/pump.h"
#include "numerics/contracts.h"

namespace brightsi::core {

namespace ec = brightsi::electrochem;

bool CacheRail::matches(const SystemConfig& config) const {
  return grid_spec == config.grid_spec && power_spec == config.power_spec &&
         vrm_count_x == config.vrm_spec.count_x && vrm_count_y == config.vrm_spec.count_y &&
         vrm_set_point_v == config.vrm_spec.set_point_v &&
         vrm_output_resistance_ohm == config.vrm_spec.output_resistance_ohm;
}

std::shared_ptr<const CacheRail> solve_cache_rail(const SystemConfig& config) {
  auto rail = std::make_shared<CacheRail>();
  rail->grid_spec = config.grid_spec;
  rail->power_spec = config.power_spec;
  rail->vrm_count_x = config.vrm_spec.count_x;
  rail->vrm_count_y = config.vrm_spec.count_y;
  rail->vrm_set_point_v = config.vrm_spec.set_point_v;
  rail->vrm_output_resistance_ohm = config.vrm_spec.output_resistance_ohm;

  const chip::Floorplan primary = chip::make_power7_floorplan(rail->power_spec);
  const auto taps = pdn::make_vrm_grid(rail->vrm_count_x, rail->vrm_count_y,
                                       primary.die_width(), primary.die_height(),
                                       rail->vrm_set_point_v, rail->vrm_output_resistance_ohm);
  rail->solution = pdn::PowerGrid(rail->grid_spec, primary).solve(taps);
  return rail;
}

IntegratedMpsocSystem::IntegratedMpsocSystem(SystemConfig config)
    : IntegratedMpsocSystem(std::move(config), nullptr, nullptr) {}

IntegratedMpsocSystem::IntegratedMpsocSystem(
    SystemConfig config, std::shared_ptr<const thermal::ThermalModel> thermal_model,
    std::shared_ptr<const CacheRail> cache_rail)
    : config_(std::move(config)) {
  config_.validate();
  floorplans_.push_back(chip::make_power7_floorplan(config_.power_spec));
  for (const chip::Power7PowerSpec& upper : config_.upper_die_power) {
    floorplans_.push_back(chip::make_power7_floorplan(upper));
  }
  if (thermal_model != nullptr) {
    ensure(thermal_model_matches(*thermal_model, config_),
           "shared thermal model does not match the configured stack/grid");
    thermal_model_ = std::move(thermal_model);
  } else {
    thermal_model_ = build_thermal_model(config_);
  }
  thermal_context_ = std::make_unique<thermal::ThermalSolveContext>(*thermal_model_);

  // The electrochemistry lives in the bottom channel layer; with interlayer
  // cooling above it, only that layer's equal-pressure-drop share of the
  // pump total flows through the flow cells. Single-layer stacks keep the
  // configured spec bitwise (fraction exactly 1).
  electro_array_spec_ = config_.array_spec;
  if (thermal_model_->channel_layer_count() > 1) {
    const std::vector<double> layer_flows =
        thermal_model_->layer_flow_split(config_.thermal_operating_point());
    electro_array_spec_.total_flow_m3_per_s = layer_flows.front();
  }
  array_ = std::make_unique<flowcell::FlowCellArray>(electro_array_spec_, config_.chemistry,
                                                     config_.fvm);
  ensure(thermal_model_->channel_count() == config_.array_spec.channel_count,
         "thermal stack and array disagree on the channel count");
  if (cache_rail != nullptr) {
    ensure(cache_rail->matches(config_),
           "shared cache rail does not match the configured grid/power/VRM taps");
    cache_rail_ = std::move(cache_rail);
  } else {
    cache_rail_ = solve_cache_rail(config_);
  }
}

std::vector<std::vector<double>> IntegratedMpsocSystem::group_channel_profiles(
    const std::vector<std::vector<double>>& per_channel) const {
  const int groups = config_.channel_groups;
  const int per_group = config_.array_spec.channel_count / groups;
  ensure(static_cast<int>(per_channel.size()) == config_.array_spec.channel_count,
         "profile count mismatch");
  std::vector<std::vector<double>> grouped(static_cast<std::size_t>(groups));
  for (int g = 0; g < groups; ++g) {
    const std::size_t samples = per_channel[static_cast<std::size_t>(g * per_group)].size();
    std::vector<double> mean(samples, 0.0);
    for (int c = g * per_group; c < (g + 1) * per_group; ++c) {
      const auto& profile = per_channel[static_cast<std::size_t>(c)];
      ensure(profile.size() == samples, "inconsistent profile lengths");
      for (std::size_t i = 0; i < samples; ++i) {
        mean[i] += profile[i];
      }
    }
    for (double& v : mean) {
      v /= per_group;
    }
    grouped[static_cast<std::size_t>(g)] = std::move(mean);
  }
  return grouped;
}

double IntegratedMpsocSystem::array_current_with_profiles(
    double cell_voltage_v, const std::vector<std::vector<double>>& group_profiles) const {
  const int groups = config_.channel_groups;
  const int per_group = config_.array_spec.channel_count / groups;
  ensure(static_cast<int>(group_profiles.size()) == groups, "group profile count mismatch");

  const flowcell::ChannelModel& model = array_->channel_model();
  double total = 0.0;
  for (const auto& profile : group_profiles) {
    flowcell::ChannelOperatingConditions conditions;
    conditions.volumetric_flow_m3_per_s = electro_array_spec_.per_channel_flow();
    conditions.inlet_temperature_k = electro_array_spec_.inlet_temperature_k;
    conditions.axial_temperature_k = profile;
    conditions.parasitic_current_density_a_per_m2 =
        config_.array_spec.parasitic_current_density_a_per_m2;
    total += model.solve_at_voltage(cell_voltage_v, conditions).current_a * per_group;
  }
  return total;
}

SupplyOperatingPoint IntegratedMpsocSystem::solve_supply(
    double vrm_output_power_w, const std::vector<std::vector<double>>& group_profiles) const {
  SupplyOperatingPoint op;
  op.vrm_output_power_w = vrm_output_power_w;
  const double input_power = vrm_output_power_w / config_.vrm_spec.efficiency;
  op.vrm_loss_w = input_power - vrm_output_power_w;

  const BusSolution bus = solve_constant_power_bus(
      [&](double v) { return array_current_with_profiles(v, group_profiles); },
      array_->open_circuit_voltage() - 1e-3, 0.2, input_power,
      1e-3 * std::max(input_power, 1.0));
  if (!bus.found) {
    return op;  // infeasible: the array cannot deliver this power
  }
  op.bus_voltage_v = bus.voltage_v;
  op.array_current_a = bus.current_a;
  op.array_power_w = op.bus_voltage_v * op.array_current_a;
  op.feasible = true;
  op.vrm_window_ok = op.bus_voltage_v >= config_.vrm_spec.min_input_voltage_v &&
                     op.bus_voltage_v <= config_.vrm_spec.max_input_voltage_v;
  return op;
}

CoSimReport IntegratedMpsocSystem::run() const {
  CoSimReport report;

  // Cold-start the carried context so every run of the same system yields
  // identical results; warm starts apply only across this run's iterations.
  thermal_context_->reset();
  const thermal::ThermalSolveContext::Stats stats_before = thermal_context_->stats();

  const thermal::OperatingPoint thermal_op = config_.thermal_operating_point();

  // One power map per die for the thermal solves (the primary die's map
  // plus any stacked upper dies).
  std::vector<const chip::Floorplan*> die_floorplans;
  die_floorplans.reserve(floorplans_.size());
  for (const chip::Floorplan& floorplan : floorplans_) {
    die_floorplans.push_back(&floorplan);
  }
  report.die_count = static_cast<int>(floorplans_.size());

  // The cache rail is the VRM output demand (constant across iterations:
  // the caches run at their configured density).
  const double rail_power = floorplans_.front().cache_power();

  std::vector<std::vector<double>> group_profiles;  // empty = isothermal
  std::vector<std::vector<double>> supplied_profiles;
  double previous_peak = 0.0;
  for (int it = 1; it <= config_.max_cosim_iterations; ++it) {
    report.iterations = it;

    report.thermal = thermal_context_->solve_steady(die_floorplans, thermal_op);
    group_profiles = group_channel_profiles(report.thermal.channel_fluid_axial_k());
    // The supply operating point is a pure function of the profiles (the
    // rail demand is constant), so an iteration whose thermal field
    // reproduced the previous one bit-for-bit reuses the previous solve —
    // the common case once the fixed point is reached.
    if (it == 1 || group_profiles != supplied_profiles) {
      report.supply = solve_supply(rail_power, group_profiles);
      supplied_profiles = group_profiles;
    }

    if (std::abs(report.thermal.peak_temperature_k - previous_peak) <
        config_.temperature_tolerance_k) {
      report.converged = true;
      break;
    }
    previous_peak = report.thermal.peak_temperature_k;
    // Power map is temperature-independent in this configuration, so the
    // loop converges once the thermal field is self-consistent; a second
    // iteration re-checks with identical inputs. (Throttling variants
    // mutate the floorplan and genuinely iterate.)
  }

  report.peak_temperature_c =
      ec::constants::kelvin_to_celsius(report.thermal.peak_temperature_k);
  report.mean_coolant_outlet_c = ec::constants::kelvin_to_celsius(
      report.thermal.mean_outlet_k(config_.array_spec.inlet_temperature_k));

  // Per-layer flow split report (one row per microchannel layer).
  for (const thermal::ChannelLayerSolution& layer : report.thermal.channel_layers) {
    ChannelLayerReport row;
    row.flow_ml_min = layer.flow_m3_per_s * 60.0 * 1e6;
    row.fraction = layer.flow_fraction;
    row.heat_absorbed_w = layer.heat_absorbed_w;
    row.outlet_mean_c = ec::constants::kelvin_to_celsius(
        layer.mean_outlet_k(config_.array_spec.inlet_temperature_k));
    report.layer_flows.push_back(row);
  }

  report.grid = cache_rail_->solution;

  // Hydraulics + energy balance.
  const auto hydraulics = array_->hydraulics_at_spec_flow();
  report.mean_velocity_m_per_s = hydraulics.mean_velocity_m_per_s;
  report.pressure_drop_bar = hydraulics.pressure_drop_pa / 1e5;
  report.pressure_gradient_bar_per_cm = hydraulics.pressure_gradient_pa_per_m / 1e7;
  report.pumping_power_w = hydraulics::pumping_power_w(
      hydraulics.pressure_drop_pa, config_.array_spec.total_flow_m3_per_s,
      config_.pump_efficiency);
  report.net_power_w = report.supply.array_power_w - report.pumping_power_w;

  // Temperature-sensitivity metric at the rail-equivalent potential.
  const double probe_voltage = config_.vrm_spec.set_point_v;
  report.isothermal_current_a = array_->current_at_voltage(probe_voltage);
  report.coupled_current_a = array_current_with_profiles(probe_voltage, group_profiles);
  report.thermal_current_gain =
      (report.isothermal_current_a > 0.0)
          ? report.coupled_current_a / report.isothermal_current_a - 1.0
          : 0.0;

  const thermal::ThermalSolveContext::Stats& stats_after = thermal_context_->stats();
  report.thermal_solves = stats_after.solves - stats_before.solves;
  report.thermal_iterations = stats_after.iterations - stats_before.iterations;
  report.thermal_assembly_time_s =
      stats_after.assembly_time_s - stats_before.assembly_time_s;
  report.thermal_setup_time_s =
      stats_after.precond_setup_time_s - stats_before.precond_setup_time_s;
  report.thermal_solve_time_s = stats_after.solve_time_s - stats_before.solve_time_s;
  return report;
}

}  // namespace brightsi::core
