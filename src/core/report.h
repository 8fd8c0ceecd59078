// Plain-text reporting helpers shared by the benches and examples:
// fixed-width tables, coarse ASCII heat/voltage maps and CSV emitters for
// the figures the paper plots.
#ifndef BRIGHTSI_CORE_REPORT_H
#define BRIGHTSI_CORE_REPORT_H

#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "numerics/grid.h"

namespace brightsi::core {

/// Renders `field` as a coarse ASCII map (down-sampled to at most
/// `max_cols` x `max_rows`), annotated with the value range. Row 0 of the
/// grid prints at the bottom (die coordinates). `unit` labels the legend.
void print_ascii_map(std::ostream& os, const numerics::Grid2<double>& field,
                     const std::string& title, const std::string& unit, int max_cols = 64,
                     int max_rows = 24);

/// Down-samples a field by box-averaging into an at-most max_cols x
/// max_rows grid (used by print_ascii_map; exposed for CSV emitters).
[[nodiscard]] numerics::Grid2<double> downsample(const numerics::Grid2<double>& field,
                                                 int max_cols, int max_rows);

/// Writes an (x, y, value) CSV of a field with physical coordinates.
void write_field_csv(std::ostream& os, const numerics::Grid2<double>& field, double width_m,
                     double height_m);

/// Writes a CSV of pre-formatted string cells (header row then data rows).
/// Cells containing commas, quotes or newlines are quoted per RFC 4180.
void write_table_csv(std::ostream& os, const std::vector<std::string>& headers,
                     const std::vector<std::vector<std::string>>& rows);

/// Escapes `text` for embedding inside a JSON string literal (no quotes
/// added).
[[nodiscard]] std::string json_escape(const std::string& text);

/// Shortest decimal representation that parses back to exactly `value` —
/// the cell formatting shared by the sweep/opt emitters and the golden
/// figure tables.
[[nodiscard]] std::string format_shortest(double value);

/// Writes a JSON array of records: one object per row keyed by `headers`.
/// Cells flagged in `numeric` are emitted raw (caller guarantees they are
/// valid JSON numbers, or empty — emitted as null); others are quoted and
/// escaped.
void write_records_json(std::ostream& os, const std::vector<std::string>& headers,
                        const std::vector<bool>& numeric,
                        const std::vector<std::vector<std::string>>& rows);

/// Writes a results artifact to `results/<name>` (creating the directory
/// next to the working directory), using `writer` to produce the content.
/// Returns the path written, or an empty string if the filesystem refused
/// (benches treat artifacts as best-effort).
std::string write_results_file(const std::string& name,
                               const std::function<void(std::ostream&)>& writer);

/// CLI sink helper shared by the tools/ drivers: writes through `writer`
/// to stdout when `path` is "-", else to the file at `path` (with a
/// "wrote <what> to <path>" note on stderr). Returns false — after an
/// error message — when the file cannot be opened.
bool emit_to_sink(const std::string& path, const char* what,
                  const std::function<void(std::ostream&)>& writer);

/// A minimal fixed-width table printer.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers);
  void add_row(std::vector<std::string> cells);
  void print(std::ostream& os) const;

  /// Formats a double with `precision` significant decimals.
  [[nodiscard]] static std::string num(double value, int precision = 3);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace brightsi::core

#endif  // BRIGHTSI_CORE_REPORT_H
