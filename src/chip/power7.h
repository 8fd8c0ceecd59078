// Block-level reconstruction of the IBM POWER7+ floorplan used in the
// paper's case study (Fig. 4 / Fig. 8): a 26.55 mm x 21.34 mm die with
// 8 cores in four corner quadrants (two cores per quadrant), an L2 slice
// beside each core, a large central eDRAM L3 band, logic strips on the left
// edge and I/O columns on the right edge.
//
// Exact macro outlines of the commercial die are not public; this
// reconstruction keeps the published die size, the topology visible in
// Fig. 8, and the paper's power figures:
//   * peak (core) power density 26.7 W/cm^2,
//   * an L2+L3 cache rail that draws 5 A at 1 V (Section III-A). The
//     reconstruction's cache area is 2.46 cm^2, so the default cache
//     density is 5 W / 2.46 cm^2 = 2.03 W/cm^2; the literal 1 W/cm^2 the
//     paper quotes (which with any realistic cache area yields < 3 A, not
//     the 5 A of the rail) is available as
//     `kPaperNominalCacheDensityWPerCm2`.
#ifndef BRIGHTSI_CHIP_POWER7_H
#define BRIGHTSI_CHIP_POWER7_H

#include "chip/floorplan.h"

namespace brightsi::chip {

/// Die outline, Section III of the paper.
inline constexpr double kPower7DieWidthM = 26.55e-3;
inline constexpr double kPower7DieHeightM = 21.34e-3;

/// Paper power figures (W/cm^2).
inline constexpr double kPower7PeakCoreDensityWPerCm2 = 26.7;
inline constexpr double kPaperNominalCacheDensityWPerCm2 = 1.0;
/// Cache rail target of Section III-A: 5 A at 1 V.
inline constexpr double kPaperCacheRailCurrentA = 5.0;
inline constexpr double kPaperCacheRailVoltageV = 1.0;

/// Power densities for the reconstruction. Defaults reproduce the paper's
/// operating point: cores at peak density and a cache rail drawing 5 A at
/// 1 V.
struct Power7PowerSpec {
  double core_w_per_cm2 = kPower7PeakCoreDensityWPerCm2;
  /// Set so cache_power == 5 W over the reconstruction's 2.46 cm^2.
  double cache_w_per_cm2 = 2.031;
  /// Uncore/controller strips (memory + PCIe controllers run hot).
  double logic_w_per_cm2 = 12.0;
  double io_w_per_cm2 = 3.0;
  /// Clock distribution / random logic between the macros.
  double background_w_per_cm2 = 5.0;

  friend bool operator==(const Power7PowerSpec&, const Power7PowerSpec&) = default;
};

/// Builds the floorplan. Block names: core0..core7, l2_0..l2_7, l3_top,
/// l3_bot, logic_left, io_right.
[[nodiscard]] Floorplan make_power7_floorplan(const Power7PowerSpec& spec = {});

/// Power densities of a stacked cache/DRAM die (3D-stack upper tiers):
/// the POWER7+ outline reused as memory macros — no hot cores, moderate
/// array and controller densities. Used by the multi-die system configs
/// and the die_count sweep parameter.
[[nodiscard]] Power7PowerSpec memory_die_power_spec();

}  // namespace brightsi::chip

#endif  // BRIGHTSI_CHIP_POWER7_H
