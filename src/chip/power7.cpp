#include "chip/power7.h"

#include <string>

#include "numerics/contracts.h"

namespace brightsi::chip {
namespace {

// Reconstruction coordinates in mm (see header). Four quadrants of
// 2 cores + 2 L2 slices; central L3 band; logic strip left; I/O column right.
constexpr double kCoreW = 5.5, kCoreH = 4.8;     // 26.4 mm^2 per core
constexpr double kL2W = 3.0, kL2H = 4.8;         // 14.4 mm^2 per slice
constexpr double kRowGap = 0.4;
constexpr double kBottomMargin = 0.27;

// Row base-y positions (bottom pair, then top pair mirrors around mid-die).
constexpr double kRowY0 = kBottomMargin;                  // 0.27
constexpr double kRowY1 = kRowY0 + kCoreH + kRowGap;      // 5.47
constexpr double kRowY2 = 11.07;
constexpr double kRowY3 = kRowY2 + kCoreH + kRowGap;      // 16.27

constexpr double kLogicLeftW = 1.5;
constexpr double kCoreLeftX = kLogicLeftW;                // 1.5
constexpr double kL2LeftX = kCoreLeftX + kCoreW;          // 7.0
constexpr double kL3X = kL2LeftX + kL2W;                  // 10.0
constexpr double kCoreRightX = 16.55;
constexpr double kL2RightX = kCoreRightX + kCoreW;        // 22.05
constexpr double kIoX = kL2RightX + kL2W;                 // 25.05

}  // namespace

Floorplan make_power7_floorplan(const Power7PowerSpec& spec) {
  ensure_non_negative(spec.core_w_per_cm2, "core power density");
  ensure_non_negative(spec.cache_w_per_cm2, "cache power density");

  Floorplan fp(kPower7DieWidthM, kPower7DieHeightM);
  fp.set_background_power_density(w_per_cm2(spec.background_w_per_cm2));

  const double core_density = w_per_cm2(spec.core_w_per_cm2);
  const double cache_density = w_per_cm2(spec.cache_w_per_cm2);
  const double logic_density = w_per_cm2(spec.logic_w_per_cm2);
  const double io_density = w_per_cm2(spec.io_w_per_cm2);

  // Cores and their L2 slices, quadrant by quadrant (BL, TL, BR, TR).
  const double row_y[4] = {kRowY0, kRowY1, kRowY2, kRowY3};
  int core_index = 0;
  for (const double col_x : {kCoreLeftX, kCoreRightX}) {
    const double l2_x = (col_x == kCoreLeftX) ? kL2LeftX : kL2RightX;
    for (int row = 0; row < 4; ++row) {
      const std::string suffix = std::to_string(core_index);
      fp.add_block({"core" + suffix, BlockType::kCore,
                    rect_mm(col_x, row_y[row], kCoreW, kCoreH), core_density});
      fp.add_block({"l2_" + suffix, BlockType::kL2Cache,
                    rect_mm(l2_x, row_y[row], kL2W, kL2H), cache_density});
      ++core_index;
    }
  }

  // Central L3 band, split top/bottom as in Fig. 8.
  const double l3_w = kCoreRightX - kL3X;  // 6.55 mm
  fp.add_block({"l3_bot", BlockType::kL3Cache,
                rect_mm(kL3X, kRowY0, l3_w, kRowY1 + kCoreH - kRowY0), cache_density});
  fp.add_block({"l3_top", BlockType::kL3Cache,
                rect_mm(kL3X, kRowY2, l3_w, kRowY3 + kCoreH - kRowY2), cache_density});

  // Edge strips.
  fp.add_block({"logic_left", BlockType::kLogic,
                rect_mm(0.0, 0.0, kLogicLeftW, 21.34), logic_density});
  fp.add_block({"io_right", BlockType::kIo,
                rect_mm(kIoX, 0.0, 26.55 - kIoX, 21.34), io_density});

  return fp;
}

Power7PowerSpec memory_die_power_spec() {
  Power7PowerSpec spec;
  spec.core_w_per_cm2 = 3.0;        // SRAM/DRAM arrays in the core outlines
  spec.cache_w_per_cm2 = 2.031;     // same array density as the base cache rail
  spec.logic_w_per_cm2 = 4.0;       // bank controllers / repair logic
  spec.io_w_per_cm2 = 2.0;          // TSV drivers
  spec.background_w_per_cm2 = 1.5;  // refresh + leakage
  return spec;
}

}  // namespace brightsi::chip
