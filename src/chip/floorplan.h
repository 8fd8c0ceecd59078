// Block-level floorplan with per-block power densities.
//
// The floorplan is the shared substrate of the PDN model (which blocks load
// which rail) and the thermal model (heat-source map). Blocks must lie
// inside the die outline and be pairwise non-overlapping; area not covered
// by any block dissipates at a configurable background density ("random
// logic" between the named macros).
#ifndef BRIGHTSI_CHIP_FLOORPLAN_H
#define BRIGHTSI_CHIP_FLOORPLAN_H

#include <string>
#include <vector>

#include "chip/geometry.h"

namespace brightsi::chip {

/// Functional class of a floorplan block; drives rail assignment and
/// workload scaling.
enum class BlockType {
  kCore,
  kL2Cache,
  kL3Cache,
  kLogic,
  kIo,
};

/// True for the block types the paper powers from the microfluidic supply
/// (the L2 and L3 cache rail, Section III-A).
[[nodiscard]] inline bool is_cache(BlockType type) {
  return type == BlockType::kL2Cache || type == BlockType::kL3Cache;
}

/// One named macro on the die.
struct Block {
  std::string name;
  BlockType type = BlockType::kLogic;
  Rect footprint;                        ///< meters, within the die outline
  double power_density_w_per_m2 = 0.0;   ///< current operating density

  [[nodiscard]] double power_w() const { return power_density_w_per_m2 * footprint.area(); }
};

class Floorplan {
 public:
  /// Die outline in meters.
  Floorplan(double die_width_m, double die_height_m);

  /// Adds a block; throws std::invalid_argument when it leaves the die or
  /// overlaps an existing block.
  void add_block(Block block);

  [[nodiscard]] double die_width() const { return die_width_m_; }
  [[nodiscard]] double die_height() const { return die_height_m_; }
  [[nodiscard]] double die_area() const { return die_width_m_ * die_height_m_; }

  [[nodiscard]] const std::vector<Block>& blocks() const { return blocks_; }

  /// Power density for die area not covered by any block.
  void set_background_power_density(double w_per_m2);
  [[nodiscard]] double background_power_density() const { return background_density_w_per_m2_; }

  [[nodiscard]] double power_of_type(BlockType type) const;
  /// L2 + L3 cache power: the microfluidic rail's load.
  [[nodiscard]] double cache_power() const;

  /// Total block power + background power over uncovered area.
  [[nodiscard]] double total_power() const;
  [[nodiscard]] double covered_area() const;

 private:
  double die_width_m_;
  double die_height_m_;
  double background_density_w_per_m2_ = 0.0;
  std::vector<Block> blocks_;
};

}  // namespace brightsi::chip

#endif  // BRIGHTSI_CHIP_FLOORPLAN_H
