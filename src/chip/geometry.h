// Planar geometry primitives for floorplans and field maps. All lengths in
// meters (SI); helpers convert the paper's mm/cm figures at the call site.
#ifndef BRIGHTSI_CHIP_GEOMETRY_H
#define BRIGHTSI_CHIP_GEOMETRY_H

#include <algorithm>

namespace brightsi::chip {

/// Axis-aligned rectangle: origin at the lower-left corner.
struct Rect {
  double x = 0.0;       ///< left edge, m
  double y = 0.0;       ///< bottom edge, m
  double width = 0.0;   ///< m
  double height = 0.0;  ///< m

  [[nodiscard]] double right() const { return x + width; }
  [[nodiscard]] double top() const { return y + height; }
  [[nodiscard]] double area() const { return width * height; }

  [[nodiscard]] bool contains(double px, double py) const {
    return px >= x && px <= right() && py >= y && py <= top();
  }

  /// True when the interiors overlap (shared edges do not count).
  [[nodiscard]] bool overlaps(const Rect& other) const {
    return x < other.right() && other.x < right() && y < other.top() && other.y < top();
  }

  /// Area of the intersection with `other` (zero when disjoint).
  [[nodiscard]] double intersection_area(const Rect& other) const {
    const double w = std::min(right(), other.right()) - std::max(x, other.x);
    const double h = std::min(top(), other.top()) - std::max(y, other.y);
    return (w > 0.0 && h > 0.0) ? w * h : 0.0;
  }

  /// True when `other` lies fully inside (boundary-touching allowed).
  /// `tolerance` absorbs floating-point rounding of abutting edges.
  [[nodiscard]] bool contains_rect(const Rect& other, double tolerance = 1e-12) const {
    return other.x >= x - tolerance && other.right() <= right() + tolerance &&
           other.y >= y - tolerance && other.top() <= top() + tolerance;
  }
};

/// Millimeter-convenience constructor (the paper quotes block sizes in mm).
[[nodiscard]] inline Rect rect_mm(double x_mm, double y_mm, double width_mm, double height_mm) {
  return Rect{x_mm * 1e-3, y_mm * 1e-3, width_mm * 1e-3, height_mm * 1e-3};
}

/// W/cm^2 -> W/m^2 (the paper quotes power densities in W/cm^2).
[[nodiscard]] inline double w_per_cm2(double value) { return value * 1e4; }

}  // namespace brightsi::chip

#endif  // BRIGHTSI_CHIP_GEOMETRY_H
