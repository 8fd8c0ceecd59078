// Tests of the chip module: geometry, floorplan invariants, power-map
// rasterization conservation properties and the POWER7+ reconstruction.
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "chip/floorplan.h"
#include "chip/geometry.h"
#include "chip/power7.h"
#include "chip/power_map.h"
#include "chip/workload.h"

namespace ch = brightsi::chip;

namespace {

std::mt19937& rng() {
  static std::mt19937 gen(777);
  return gen;
}

// ---------------------------------------------------------------- geometry
TEST(Geometry, RectBasics) {
  const ch::Rect r{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(r.right(), 4.0);
  EXPECT_DOUBLE_EQ(r.top(), 6.0);
  EXPECT_DOUBLE_EQ(r.area(), 12.0);
  EXPECT_TRUE(r.contains(2.0, 3.0));
  EXPECT_FALSE(r.contains(0.0, 3.0));
}

TEST(Geometry, OverlapIsExclusiveOfSharedEdges) {
  const ch::Rect a{0.0, 0.0, 1.0, 1.0};
  const ch::Rect b{1.0, 0.0, 1.0, 1.0};  // abuts a
  EXPECT_FALSE(a.overlaps(b));
  const ch::Rect c{0.5, 0.5, 1.0, 1.0};
  EXPECT_TRUE(a.overlaps(c));
}

TEST(Geometry, IntersectionArea) {
  const ch::Rect a{0.0, 0.0, 2.0, 2.0};
  const ch::Rect b{1.0, 1.0, 2.0, 2.0};
  EXPECT_DOUBLE_EQ(a.intersection_area(b), 1.0);
  const ch::Rect c{5.0, 5.0, 1.0, 1.0};
  EXPECT_DOUBLE_EQ(a.intersection_area(c), 0.0);
}

TEST(Geometry, ContainsRectWithTolerance) {
  const ch::Rect die{0.0, 0.0, 26.55e-3, 21.34e-3};
  // A block whose right edge lands on the die edge up to FP rounding.
  const ch::Rect block{25.05e-3, 0.0, 1.5e-3, 21.34e-3};
  EXPECT_TRUE(die.contains_rect(block));
}

TEST(Geometry, UnitHelpers) {
  const ch::Rect r = ch::rect_mm(1.0, 2.0, 3.0, 4.0);
  EXPECT_DOUBLE_EQ(r.x, 1e-3);
  EXPECT_DOUBLE_EQ(r.height, 4e-3);
  EXPECT_DOUBLE_EQ(ch::w_per_cm2(26.7), 26.7e4);
}

// ---------------------------------------------------------------- floorplan
TEST(Floorplan, AddBlocksInOrder) {
  ch::Floorplan fp(10e-3, 10e-3);
  fp.add_block({"a", ch::BlockType::kCore, ch::rect_mm(0, 0, 5, 5), 1e4});
  fp.add_block({"b", ch::BlockType::kL2Cache, ch::rect_mm(5, 5, 5, 5), 2e4});
  ASSERT_EQ(fp.blocks().size(), 2u);
  EXPECT_EQ(fp.blocks()[0].name, "a");
  EXPECT_EQ(fp.blocks()[1].name, "b");
}

TEST(Floorplan, RejectsOverlapAndEscape) {
  ch::Floorplan fp(10e-3, 10e-3);
  fp.add_block({"a", ch::BlockType::kCore, ch::rect_mm(0, 0, 5, 5), 1e4});
  EXPECT_THROW(fp.add_block({"b", ch::BlockType::kCore, ch::rect_mm(4, 4, 2, 2), 1e4}),
               std::invalid_argument);
  EXPECT_THROW(fp.add_block({"c", ch::BlockType::kCore, ch::rect_mm(8, 8, 5, 5), 1e4}),
               std::invalid_argument);
  EXPECT_THROW(fp.add_block({"a", ch::BlockType::kCore, ch::rect_mm(6, 0, 1, 1), 1e4}),
               std::invalid_argument);  // duplicate name
}

TEST(Floorplan, PowerAccounting) {
  ch::Floorplan fp(10e-3, 10e-3);
  fp.add_block({"core", ch::BlockType::kCore, ch::rect_mm(0, 0, 5, 10), 1e4});  // 0.5 W
  fp.add_block({"l2", ch::BlockType::kL2Cache, ch::rect_mm(5, 0, 5, 5), 2e4});  // 0.5 W
  fp.set_background_power_density(1e3);  // remaining 25 mm^2 -> 0.025 W
  EXPECT_NEAR(fp.power_of_type(ch::BlockType::kCore), 0.5, 1e-12);
  EXPECT_NEAR(fp.cache_power(), 0.5, 1e-12);
  EXPECT_NEAR(fp.total_power(), 1.025, 1e-12);
}

TEST(Floorplan, CacheBlockTypes) {
  EXPECT_TRUE(ch::is_cache(ch::BlockType::kL2Cache));
  EXPECT_FALSE(ch::is_cache(ch::BlockType::kLogic));
}

// ---------------------------------------------------------------- power map
class RasterConservation : public ::testing::TestWithParam<int> {};

TEST_P(RasterConservation, TotalPowerIsConservedAtAnyResolution) {
  // Property: rasterization conserves total power for random floorplans.
  const int resolution = GetParam();
  std::uniform_real_distribution<double> pos(0.0, 8.0);
  std::uniform_real_distribution<double> size(0.5, 2.0);
  std::uniform_real_distribution<double> density(1e3, 3e4);

  for (int trial = 0; trial < 5; ++trial) {
    ch::Floorplan fp(10e-3, 10e-3);
    int added = 0;
    for (int attempt = 0; attempt < 40 && added < 8; ++attempt) {
      const ch::Rect r = ch::rect_mm(pos(rng()), pos(rng()), size(rng()), size(rng()));
      if (r.right() > 10e-3 || r.top() > 10e-3) {
        continue;
      }
      bool overlaps = false;
      for (const auto& b : fp.blocks()) {
        overlaps = overlaps || b.footprint.overlaps(r);
      }
      if (overlaps) {
        continue;
      }
      // Appended rather than `"b" + std::to_string(added)`, which trips a
      // GCC 12 -Wrestrict false positive inside libstdc++.
      std::string name = "b";
      name += std::to_string(added);
      fp.add_block({name, ch::BlockType::kLogic, r, density(rng())});
      ++added;
    }
    fp.set_background_power_density(500.0);

    std::vector<double> x_edges, y_edges;
    for (int i = 0; i <= resolution; ++i) {
      x_edges.push_back(fp.die_width() * i / resolution);
      y_edges.push_back(fp.die_height() * i / resolution);
    }
    const auto grid = ch::rasterize_power_w_on_edges(fp, x_edges, y_edges);
    double total = 0.0;
    for (const double p : grid.data()) {
      total += p;
    }
    EXPECT_NEAR(total, fp.total_power(), fp.total_power() * 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Resolutions, RasterConservation, ::testing::Values(3, 8, 17, 50));

TEST(PowerMap, FilteredRasterOnlyCountsSelectedBlocks) {
  ch::Floorplan fp(10e-3, 10e-3);
  fp.add_block({"core", ch::BlockType::kCore, ch::rect_mm(0, 0, 5, 10), 1e4});
  fp.add_block({"l2", ch::BlockType::kL2Cache, ch::rect_mm(5, 0, 5, 10), 2e4});
  const auto caches = ch::rasterize_power_w(
      fp, 10, 10, [](const ch::Block& b) { return ch::is_cache(b.type); });
  double total = 0.0;
  for (const double p : caches.data()) {
    total += p;
  }
  EXPECT_NEAR(total, fp.cache_power(), 1e-12);
}

TEST(PowerMap, EdgeRasterConservesTotalOnNonUniformGrid) {
  const auto fp = ch::make_power7_floorplan();
  // Irregular x edges emulating the channel/wall pattern.
  std::vector<double> x_edges = {0.0};
  double x = 0.0;
  bool wide = true;
  while (x < fp.die_width() - 1e-9) {
    x = std::min(fp.die_width(), x + (wide ? 300e-6 : 150e-6));
    x_edges.push_back(x);
    wide = !wide;
  }
  std::vector<double> y_edges;
  for (int i = 0; i <= 21; ++i) {
    y_edges.push_back(fp.die_height() * i / 21);
  }
  const auto grid = ch::rasterize_power_w_on_edges(fp, x_edges, y_edges);
  double total = 0.0;
  for (const double p : grid.data()) {
    total += p;
  }
  EXPECT_NEAR(total, fp.total_power(), fp.total_power() * 1e-9);
}

TEST(PowerMap, RejectsBadEdges) {
  const auto fp = ch::make_power7_floorplan();
  const std::vector<double> bad = {0.0, 0.0, 1e-3};
  const std::vector<double> good = {0.0, 1e-3};
  EXPECT_THROW(ch::rasterize_power_w_on_edges(fp, bad, good), std::invalid_argument);
}

// ----------------------------------------------------------------- POWER7+
TEST(Power7, DieDimensionsMatchPaper) {
  const auto fp = ch::make_power7_floorplan();
  EXPECT_DOUBLE_EQ(fp.die_width(), 26.55e-3);
  EXPECT_DOUBLE_EQ(fp.die_height(), 21.34e-3);
  EXPECT_NEAR(fp.die_area(), 5.666e-4, 1e-6);
}

TEST(Power7, HasEightCoresAndCaches) {
  const auto fp = ch::make_power7_floorplan();
  int cores = 0, l2 = 0, l3 = 0;
  for (const auto& b : fp.blocks()) {
    cores += b.type == ch::BlockType::kCore;
    l2 += b.type == ch::BlockType::kL2Cache;
    l3 += b.type == ch::BlockType::kL3Cache;
  }
  EXPECT_EQ(cores, 8);
  EXPECT_EQ(l2, 8);
  EXPECT_EQ(l3, 2);
}

TEST(Power7, CacheRailDrawsPaperCurrent) {
  // Section III-A: the cache rail needs 5 A at 1 V.
  const auto fp = ch::make_power7_floorplan();
  EXPECT_NEAR(fp.cache_power() / 1.0, 5.0, 0.01);
}

TEST(Power7, PeakDensityIsCoreDensity) {
  const auto fp = ch::make_power7_floorplan();
  double peak = 0.0;
  for (const auto& b : fp.blocks()) {
    peak = std::max(peak, b.power_density_w_per_m2);
  }
  EXPECT_NEAR(peak, ch::w_per_cm2(26.7), 1e-6);
}

TEST(Power7, LiteralPaperCacheDensityVariant) {
  ch::Power7PowerSpec spec;
  spec.cache_w_per_cm2 = ch::kPaperNominalCacheDensityWPerCm2;
  const auto fp = ch::make_power7_floorplan(spec);
  // 1 W/cm^2 over ~2.46 cm^2 -> ~2.46 A, well below the paper's 5 A claim
  // (the documented inconsistency).
  EXPECT_NEAR(fp.cache_power() / 1.0, 2.46, 0.03);
}

TEST(Power7, BlocksCoverMostOfTheDie) {
  const auto fp = ch::make_power7_floorplan();
  EXPECT_GT(fp.covered_area() / fp.die_area(), 0.85);
  EXPECT_LE(fp.covered_area() / fp.die_area(), 1.0);
}

TEST(Power7, ActivityScalingAffectsOnlyCores) {
  const ch::Power7PowerSpec spec;
  const auto full = ch::make_power7_floorplan(spec);
  const auto scaled = ch::apply_phase(spec, {"half-core", 1.0, 0.5, 1.0, 1.0, 1.0});
  EXPECT_NEAR(scaled.power_of_type(ch::BlockType::kCore),
              full.power_of_type(ch::BlockType::kCore) * 0.5, 1e-9);
  EXPECT_DOUBLE_EQ(scaled.cache_power(), full.cache_power());
}

}  // namespace
