#include "sweep/system_cache.h"

#include <cstdio>
#include <utility>

#include "chip/power7.h"
#include "numerics/contracts.h"

namespace brightsi::sweep {

namespace {

/// The scenario's thermal-structural overrides as a canonical string key.
/// Override order is preserved — scenarios of one plan stamp their axes in
/// a fixed order, and a spurious order difference merely costs one rebuild,
/// never a wrong hit (the fingerprint would differ).
std::string fingerprint_of(const ScenarioSpec& scenario) {
  std::string key;
  for (const auto& [param, value] : scenario.overrides) {
    const ParameterInfo* info = find_parameter(param);
    if (info != nullptr && info->thermal_structural) {
      char buffer[48];
      std::snprintf(buffer, sizeof(buffer), "%.17g", value);
      key += param;
      key += '=';
      key += buffer;
      key += ';';
    }
  }
  return key;
}

}  // namespace

std::shared_ptr<const thermal::ThermalModel> ThermalModelCache::model_for(
    const core::SystemConfig& config, const ScenarioSpec& scenario) {
  const std::string fingerprint = fingerprint_of(scenario);
  if (!enabled_ || model_ == nullptr || fingerprint != fingerprint_) {
    const chip::Floorplan floorplan = chip::make_power7_floorplan(config.power_spec);
    model_ = std::make_shared<const thermal::ThermalModel>(
        config.stack, floorplan.die_width(), floorplan.die_height(), config.thermal_grid);
    fingerprint_ = fingerprint;
    ++build_count_;
  }
  // Defensive cross-check: a structural parameter whose registry entry
  // forgot the thermal_structural flag would silently hand back a stale
  // model. The model records its constructor inputs, so the comparison is
  // exact (and O(stack layers) cheap).
  ensure(model_->stack() == config.stack && model_->settings() == config.thermal_grid,
         "thermal model cache: fingerprint missed a structural parameter");
  return model_;
}

std::shared_ptr<const core::CacheRail> RailCache::rail_for(const core::SystemConfig& config) {
  if (!enabled_ || rail_ == nullptr || !rail_->matches(config)) {
    rail_ = core::solve_cache_rail(config);
    ++solve_count_;
  }
  return rail_;
}

const core::MissionThermalTrajectory* MissionTrajectoryCache::find(const std::string& key) {
  if (!enabled_) {
    return nullptr;
  }
  const auto it = trajectories_.find(key);
  if (it == trajectories_.end()) {
    return nullptr;
  }
  ++hit_count_;
  return &it->second;
}

void MissionTrajectoryCache::insert(const std::string& key,
                                    core::MissionThermalTrajectory trajectory) {
  if (!enabled_) {
    return;
  }
  trajectories_.insert_or_assign(key, std::move(trajectory));
}

}  // namespace brightsi::sweep
