// Golden regression suite for paper fidelity: the figure computations
// (library helpers in repro/figures.h, shared with the bench/ reproduction
// programs) compared against small CSVs checked into tests/golden/ with
// explicit per-column tolerances — so a physics regression fails ctest
// instead of drifting silently in bench output.
//
// Regenerating the goldens after an *intentional* physics change:
//   ./golden_test --update
// rewrites tests/golden/*.csv from the current model and exits.
#include <cmath>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "repro/figures.h"

namespace re = brightsi::repro;

namespace {

bool update_mode = false;

/// Per-column tolerance: |fresh - golden| <= abs + rel * |golden|. The
/// defaults absorb cross-compiler libm/FMA drift in the iterative solves
/// while staying far below any physically meaningful change.
struct Tolerance {
  double rel = 1e-6;
  double abs = 1e-9;
};

std::string golden_path(const std::string& file) {
  return std::string(BRIGHTSI_GOLDEN_DIR) + "/" + file;
}

void compare_or_update(const std::string& file, const re::FigureTable& fresh,
                       const std::map<std::string, Tolerance>& tolerances) {
  const std::string path = golden_path(file);
  if (update_mode) {
    std::ofstream os(path);
    ASSERT_TRUE(os) << "cannot write " << path;
    re::write_figure_csv(os, fresh);
    std::printf("updated %s (%zu rows)\n", path.c_str(), fresh.rows.size());
    return;
  }

  std::ifstream is(path);
  ASSERT_TRUE(is) << "missing golden file " << path
                  << " — regenerate with ./golden_test --update";
  const re::FigureTable golden = re::read_figure_csv(is, !fresh.label_column.empty());

  ASSERT_EQ(golden.columns, fresh.columns) << file << ": column set changed";
  ASSERT_EQ(golden.labels, fresh.labels) << file << ": row labels changed";
  ASSERT_EQ(golden.rows.size(), fresh.rows.size()) << file << ": row count changed";
  for (std::size_t r = 0; r < golden.rows.size(); ++r) {
    ASSERT_EQ(golden.rows[r].size(), fresh.rows[r].size()) << file << " row " << r;
    for (std::size_t c = 0; c < golden.rows[r].size(); ++c) {
      const auto it = tolerances.find(golden.columns[c]);
      const Tolerance tolerance = it != tolerances.end() ? it->second : Tolerance{};
      const double expected = golden.rows[r][c];
      const double actual = fresh.rows[r][c];
      const double allowed = tolerance.abs + tolerance.rel * std::abs(expected);
      EXPECT_LE(std::abs(actual - expected), allowed)
          << file << " row " << r
          << (golden.labels.empty() ? "" : " (" + golden.labels[r] + ")") << " column '"
          << golden.columns[c] << "': golden " << expected << " vs computed " << actual;
    }
  }
}

TEST(Golden, Fig3PolarizationCurves) {
  const re::FigureTable table = re::fig3_polarization_table();
  // Sanity before pinning: the paper's own validation claim holds.
  EXPECT_LT(re::fig3_worst_error_pct(table), 10.0);
  compare_or_update("fig3.csv", table,
                    {
                        {"flow_ul_per_min", {0.0, 1e-12}},
                        {"cell_voltage_v", {0.0, 1e-12}},
                        {"model_ma_per_cm2", {2e-4, 1e-9}},
                        {"reference_ma_per_cm2", {0.0, 1e-12}},
                        {"error_pct", {0.0, 0.05}},
                    });
}

TEST(Golden, Fig7ArrayVi) {
  const re::FigureTable table = re::fig7_array_vi_table();
  compare_or_update("fig7.csv", table,
                    {
                        {"cell_voltage_v", {0.0, 1e-12}},
                        {"current_a", {2e-4, 1e-9}},
                        {"power_w", {2e-4, 1e-9}},
                        {"current_density_a_per_cm2", {2e-4, 1e-12}},
                    });
}

TEST(Golden, Fig8VoltageMapSummary) {
  compare_or_update("fig8.csv", re::fig8_voltage_summary_table(),
                    {
                        {"total_load_a", {1e-9, 1e-9}},
                        {"total_supply_a", {1e-6, 1e-6}},
                        {"min_v", {0.0, 2e-5}},
                        {"max_v", {0.0, 2e-5}},
                        {"mean_v", {0.0, 2e-5}},
                        {"worst_drop_v", {0.0, 2e-5}},
                        {"ohmic_loss_w", {1e-4, 1e-6}},
                    });
}

TEST(Golden, Fig9ThermalSummaryAndBlocks) {
  const brightsi::thermal::ThermalSolution solution = re::fig9_thermal_solution();
  compare_or_update("fig9_summary.csv", re::fig9_thermal_summary(solution),
                    {
                        {"total_power_w", {1e-9, 1e-9}},
                        {"peak_c", {0.0, 2e-3}},
                        {"fluid_heat_w", {1e-5, 1e-3}},
                        {"energy_balance_pct", {0.0, 2e-3}},
                        {"outlet_mean_c", {0.0, 2e-3}},
                    });
  compare_or_update("fig9_blocks.csv", re::fig9_block_table(solution),
                    {
                        {"mean_c", {0.0, 2e-3}},
                        {"max_c", {0.0, 2e-3}},
                    });
}

TEST(Golden, Fig9DefaultSolverPathIsByteIdentical) {
  // Stronger than the toleranced comparison above: the default ILU(0)
  // solver path must reproduce the committed fig9 CSVs byte for byte.
  // This is the regression net under every solver-layer refactor — a
  // batched fill or preconditioner change that alters even the last ulp
  // (or the CSV formatting) trips it.
  if (update_mode) {
    GTEST_SKIP() << "--update rewrites the files this test compares against";
  }
  const brightsi::thermal::ThermalSolution solution = re::fig9_thermal_solution();
  const std::map<std::string, const re::FigureTable> tables = {
      {"fig9_summary.csv", re::fig9_thermal_summary(solution)},
      {"fig9_blocks.csv", re::fig9_block_table(solution)},
  };
  for (const auto& [file, fresh] : tables) {
    std::ostringstream fresh_bytes;
    re::write_figure_csv(fresh_bytes, fresh);
    std::ifstream is(golden_path(file), std::ios::binary);
    ASSERT_TRUE(is) << "missing golden file " << golden_path(file);
    std::ostringstream golden_bytes;
    golden_bytes << is.rdbuf();
    EXPECT_EQ(fresh_bytes.str(), golden_bytes.str())
        << file << ": default-path output drifted from the committed bytes";
  }
}

TEST(Golden, PumpingEnergyBalance) {
  const re::FigureTable table = re::pumping_energy_table();
  // Sanity before pinning: the paper's headline shape — generation exceeds
  // the pumping cost at the Table II spec flow (row 3: 676 ml/min).
  ASSERT_EQ(table.rows.size(), 7u);
  EXPECT_GT(table.rows[3].back(), 0.0);
  const std::map<std::string, Tolerance> tolerances = {
      {"flow_ml_min", {0.0, 1e-12}},
      {"velocity_m_per_s", {1e-9, 1e-12}},
      {"reynolds", {1e-9, 1e-9}},
      {"dp_bar", {1e-9, 1e-12}},
      {"pump_w", {1e-9, 1e-12}},
      {"current_1v_a", {2e-4, 1e-9}},
      {"net_w", {2e-4, 1e-6}},
  };
  compare_or_update("pumping.csv", table, tolerances);

  if (!update_mode) {
    // A 2 % channel-height squeeze (hydraulic-resistance perturbation)
    // must move the pinned dp column beyond its tolerance — i.e. the
    // golden genuinely constrains the hydraulics, not just the headline.
    const re::FigureTable perturbed = re::pumping_energy_table(0.98);
    const std::size_t dp_column = 3;
    const Tolerance dp_tolerance = tolerances.at("dp_bar");
    bool tripped = false;
    for (std::size_t r = 0; r < table.rows.size(); ++r) {
      const double reference = table.rows[r][dp_column];
      const double drifted = perturbed.rows[r][dp_column];
      tripped = tripped || std::abs(drifted - reference) >
                               dp_tolerance.abs + dp_tolerance.rel * std::abs(reference);
    }
    EXPECT_TRUE(tripped) << "hydraulic perturbation slipped through the dp tolerance";
  }
}

// ------------------------------------------------- figure CSV round trip
TEST(FigureCsv, RoundTripsWithAndWithoutLabels) {
  re::FigureTable table;
  table.columns = {"a", "b"};
  table.rows = {{1.25, -3e-7}, {0.1, 1e300}};
  std::stringstream plain;
  re::write_figure_csv(plain, table);
  const re::FigureTable back = re::read_figure_csv(plain, false);
  EXPECT_EQ(back.columns, table.columns);
  ASSERT_EQ(back.rows, table.rows);  // shortest-round-trip format is exact

  table.label_column = "name";
  table.labels = {"first", "second"};
  std::stringstream labeled;
  re::write_figure_csv(labeled, table);
  const re::FigureTable labeled_back = re::read_figure_csv(labeled, true);
  EXPECT_EQ(labeled_back.label_column, "name");
  EXPECT_EQ(labeled_back.labels, table.labels);
  EXPECT_EQ(labeled_back.rows, table.rows);

  // Labels with CSV metacharacters round-trip through the RFC 4180
  // quoting the writer applies.
  table.labels = {"L2, bank0", "a \"quoted\" block"};
  std::stringstream hostile;
  re::write_figure_csv(hostile, table);
  const re::FigureTable hostile_back = re::read_figure_csv(hostile, true);
  EXPECT_EQ(hostile_back.labels, table.labels);
  EXPECT_EQ(hostile_back.rows, table.rows);
}

TEST(FigureCsv, MalformedInputsThrow) {
  {
    std::stringstream empty;
    EXPECT_THROW((void)re::read_figure_csv(empty, false), std::runtime_error);
  }
  {
    std::stringstream ragged("a,b\n1\n");
    EXPECT_THROW((void)re::read_figure_csv(ragged, false), std::runtime_error);
  }
  {
    std::stringstream text_cell("a,b\n1,spam\n");
    EXPECT_THROW((void)re::read_figure_csv(text_cell, false), std::runtime_error);
  }
  {
    std::stringstream label_only("name\nrow\n");
    EXPECT_THROW((void)re::read_figure_csv(label_only, true), std::runtime_error);
  }
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--update") == 0) {
      update_mode = true;
      for (int j = i; j + 1 < argc; ++j) {
        argv[j] = argv[j + 1];
      }
      --argc;
      break;
    }
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
