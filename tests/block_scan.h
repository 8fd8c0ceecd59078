// Reference for the block temperatures of a thermal solution: a scan of
// every cell of each die map in (iy, ix) order with Rect::intersection_area.
// ThermalModel::package_solution visits only the cells around each block
// and must reproduce this scan bit for bit, for full solves, transient
// steps and reduced-order steps alike.
#ifndef BRIGHTSI_TESTS_BLOCK_SCAN_H
#define BRIGHTSI_TESTS_BLOCK_SCAN_H

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "chip/floorplan.h"
#include "thermal/model.h"

namespace brightsi::test_support {

/// The die map's block temperatures by a scan of every cell.
inline std::vector<thermal::BlockTemperature> full_scan_block_temperatures(
    const thermal::ThermalModel& model, const numerics::Grid2<double>& map,
    const chip::Floorplan& floorplan) {
  const std::vector<double>& x_edges = model.x_edges();
  const double dy = model.die_height_m() / model.ny();
  std::vector<thermal::BlockTemperature> blocks;
  for (const chip::Block& block : floorplan.blocks()) {
    double weighted = 0.0;
    double area = 0.0;
    double max_k = 0.0;
    for (int iy = 0; iy < model.ny(); ++iy) {
      for (int ix = 0; ix < model.nx(); ++ix) {
        const auto i = static_cast<std::size_t>(ix);
        const chip::Rect cell{x_edges[i], dy * iy, x_edges[i + 1] - x_edges[i], dy};
        const double overlap = cell.intersection_area(block.footprint);
        if (overlap > 0.0) {
          weighted += map(ix, iy) * overlap;
          area += overlap;
          max_k = std::max(max_k, map(ix, iy));
        }
      }
    }
    blocks.push_back({block.name, area > 0.0 ? weighted / area : 0.0, max_k});
  }
  return blocks;
}

/// Every block of `solution` (one floorplan per die, bottom to top) has the
/// full scan's mean and max, bit for bit.
inline void expect_blocks_match_full_scan(
    const thermal::ThermalModel& model, const thermal::ThermalSolution& solution,
    std::span<const chip::Floorplan* const> floorplans) {
  ASSERT_EQ(solution.die_maps_k.size(), floorplans.size());
  std::size_t next = 0;
  for (std::size_t die = 0; die < floorplans.size(); ++die) {
    for (const thermal::BlockTemperature& expected :
         full_scan_block_temperatures(model, solution.die_maps_k[die], *floorplans[die])) {
      ASSERT_LT(next, solution.block_temperatures.size());
      const thermal::BlockTemperature& got = solution.block_temperatures[next++];
      EXPECT_TRUE(got.name.ends_with(expected.name)) << got.name;
      EXPECT_GT(expected.max_k, 0.0) << expected.name;  // the block covers a cell
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.mean_k),
                std::bit_cast<std::uint64_t>(expected.mean_k))
          << got.name << ": " << got.mean_k << " vs " << expected.mean_k;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.max_k),
                std::bit_cast<std::uint64_t>(expected.max_k))
          << got.name << ": " << got.max_k << " vs " << expected.max_k;
    }
  }
  EXPECT_EQ(next, solution.block_temperatures.size());
}

}  // namespace brightsi::test_support

#endif  // BRIGHTSI_TESTS_BLOCK_SCAN_H
