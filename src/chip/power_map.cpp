#include "chip/power_map.h"

#include <algorithm>
#include <cmath>

#include "numerics/contracts.h"

namespace brightsi::chip {
namespace {

/// Adds `density * overlap_area` of one rectangle into the grid cells it
/// touches. Exact area weighting.
void splat_rect(numerics::Grid2<double>& grid, const Rect& rect, double density,
                double die_width, double die_height) {
  const int nx = grid.nx();
  const int ny = grid.ny();
  const double dx = die_width / nx;
  const double dy = die_height / ny;

  const int ix_begin = std::clamp(static_cast<int>(std::floor(rect.x / dx)), 0, nx - 1);
  const int ix_end = std::clamp(static_cast<int>(std::ceil(rect.right() / dx)), 1, nx);
  const int iy_begin = std::clamp(static_cast<int>(std::floor(rect.y / dy)), 0, ny - 1);
  const int iy_end = std::clamp(static_cast<int>(std::ceil(rect.top() / dy)), 1, ny);

  for (int iy = iy_begin; iy < iy_end; ++iy) {
    for (int ix = ix_begin; ix < ix_end; ++ix) {
      const Rect cell{ix * dx, iy * dy, dx, dy};
      const double overlap = cell.intersection_area(rect);
      if (overlap > 0.0) {
        grid(ix, iy) += density * overlap;
      }
    }
  }
}

}  // namespace

numerics::Grid2<double> rasterize_power_w(const Floorplan& floorplan, int nx, int ny,
                                          const std::function<bool(const Block&)>& include) {
  ensure(nx > 0 && ny > 0, "rasterize_power_w: grid dimensions must be positive");
  numerics::Grid2<double> grid(nx, ny, 0.0);
  for (const Block& block : floorplan.blocks()) {
    if (include && !include(block)) {
      continue;
    }
    splat_rect(grid, block.footprint, block.power_density_w_per_m2, floorplan.die_width(),
               floorplan.die_height());
  }
  return grid;
}

numerics::Grid2<double> rasterize_power_w_on_edges(const Floorplan& floorplan,
                                                   std::span<const double> x_edges,
                                                   std::span<const double> y_edges) {
  ensure(x_edges.size() >= 2 && y_edges.size() >= 2,
         "rasterize_power_w_on_edges: need at least one cell per axis");
  for (std::size_t i = 1; i < x_edges.size(); ++i) {
    ensure(x_edges[i] > x_edges[i - 1], "x_edges must be strictly increasing");
  }
  for (std::size_t i = 1; i < y_edges.size(); ++i) {
    ensure(y_edges[i] > y_edges[i - 1], "y_edges must be strictly increasing");
  }
  const int nx = static_cast<int>(x_edges.size()) - 1;
  const int ny = static_cast<int>(y_edges.size()) - 1;
  numerics::Grid2<double> grid(nx, ny, 0.0);
  const double background = floorplan.background_power_density();

  for (int iy = 0; iy < ny; ++iy) {
    for (int ix = 0; ix < nx; ++ix) {
      const Rect cell{x_edges[static_cast<std::size_t>(ix)],
                      y_edges[static_cast<std::size_t>(iy)],
                      x_edges[static_cast<std::size_t>(ix) + 1] -
                          x_edges[static_cast<std::size_t>(ix)],
                      y_edges[static_cast<std::size_t>(iy) + 1] -
                          y_edges[static_cast<std::size_t>(iy)]};
      double power = 0.0;
      double covered = 0.0;
      for (const Block& block : floorplan.blocks()) {
        const double overlap = cell.intersection_area(block.footprint);
        if (overlap > 0.0) {
          power += block.power_density_w_per_m2 * overlap;
          covered += overlap;
        }
      }
      if (background > 0.0) {
        power += background * std::max(0.0, cell.area() - covered);
      }
      grid(ix, iy) = power;
    }
  }
  return grid;
}

}  // namespace brightsi::chip
