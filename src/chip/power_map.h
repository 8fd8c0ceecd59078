// Rasterization of a floorplan's block power onto a regular grid.
//
// The thermal model consumes per-cell heat sources (W) and the PDN model
// per-node current sinks; both come from these maps. Rasterization is
// exact area-overlap weighting, so the grid total equals the floorplan
// total regardless of resolution — a property the tests enforce.
#ifndef BRIGHTSI_CHIP_POWER_MAP_H
#define BRIGHTSI_CHIP_POWER_MAP_H

#include <functional>
#include <span>

#include "chip/floorplan.h"
#include "numerics/grid.h"

namespace brightsi::chip {

/// Per-cell power in W on an nx-by-ny grid covering the die, from the
/// blocks for which `include` returns true (background is excluded). Cell
/// (0, 0) is the lower-left corner. Used to build the cache-rail
/// current-sink map for the PDN.
[[nodiscard]] numerics::Grid2<double> rasterize_power_w(
    const Floorplan& floorplan, int nx, int ny,
    const std::function<bool(const Block&)>& include);

/// Rasterization onto a tensor-product grid with arbitrary cell edges
/// (x_edges/y_edges ascending, spanning the die). Used by the thermal model,
/// whose x-columns follow the microchannel/wall pattern. Background density
/// is included. Exact area-overlap weighting: the sum equals
/// floorplan.total_power().
[[nodiscard]] numerics::Grid2<double> rasterize_power_w_on_edges(
    const Floorplan& floorplan, std::span<const double> x_edges,
    std::span<const double> y_edges);

}  // namespace brightsi::chip

#endif  // BRIGHTSI_CHIP_POWER_MAP_H
