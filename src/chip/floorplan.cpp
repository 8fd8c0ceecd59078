#include "chip/floorplan.h"

#include <stdexcept>

#include "numerics/contracts.h"

namespace brightsi::chip {

Floorplan::Floorplan(double die_width_m, double die_height_m)
    : die_width_m_(die_width_m), die_height_m_(die_height_m) {
  ensure_positive(die_width_m, "die width");
  ensure_positive(die_height_m, "die height");
}

void Floorplan::add_block(Block block) {
  ensure(!block.name.empty(), "block must be named");
  ensure_non_negative(block.power_density_w_per_m2, "block power density");
  const Rect die{0.0, 0.0, die_width_m_, die_height_m_};
  if (!die.contains_rect(block.footprint)) {
    throw std::invalid_argument("block '" + block.name + "' leaves the die outline");
  }
  for (const Block& existing : blocks_) {
    if (existing.footprint.overlaps(block.footprint)) {
      throw std::invalid_argument("block '" + block.name + "' overlaps '" + existing.name + "'");
    }
    if (existing.name == block.name) {
      throw std::invalid_argument("duplicate block name '" + block.name + "'");
    }
  }
  blocks_.push_back(std::move(block));
}

void Floorplan::set_background_power_density(double w_per_m2) {
  ensure_non_negative(w_per_m2, "background power density");
  background_density_w_per_m2_ = w_per_m2;
}

double Floorplan::power_of_type(BlockType type) const {
  double power = 0.0;
  for (const Block& b : blocks_) {
    if (b.type == type) {
      power += b.power_w();
    }
  }
  return power;
}

double Floorplan::cache_power() const {
  return power_of_type(BlockType::kL2Cache) + power_of_type(BlockType::kL3Cache);
}

double Floorplan::covered_area() const {
  double area = 0.0;
  for (const Block& b : blocks_) {
    area += b.footprint.area();
  }
  return area;
}

double Floorplan::total_power() const {
  double power = background_density_w_per_m2_ * (die_area() - covered_area());
  for (const Block& b : blocks_) {
    power += b.power_w();
  }
  return power;
}

}  // namespace brightsi::chip
