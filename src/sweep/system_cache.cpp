#include "sweep/system_cache.h"

#include <utility>

namespace brightsi::sweep {

std::shared_ptr<const thermal::ThermalModel> ThermalModelCache::model_for(
    const core::SystemConfig& config, const ScenarioSpec& /*scenario*/) {
  if (model_ == nullptr || !core::thermal_model_matches(*model_, config)) {
    model_ = core::build_thermal_model(config);
    ++build_count_;
  }
  return model_;
}

std::shared_ptr<const core::CacheRail> RailCache::rail_for(const core::SystemConfig& config) {
  if (rail_ == nullptr || !rail_->matches(config)) {
    rail_ = core::solve_cache_rail(config);
    ++solve_count_;
  }
  return rail_;
}

const core::MissionThermalTrajectory* MissionTrajectoryCache::find(const std::string& key) {
  const auto it = trajectories_.find(key);
  if (it == trajectories_.end()) {
    return nullptr;
  }
  ++hit_count_;
  return &it->second;
}

void MissionTrajectoryCache::insert(const std::string& key,
                                    core::MissionThermalTrajectory trajectory) {
  trajectories_.insert_or_assign(key, std::move(trajectory));
}

void WorkerState::serve(const core::SystemConfig& base) {
  if (base_ != base) {
    mission_trajectories.clear();
    base_ = base;
  }
}

}  // namespace brightsi::sweep
