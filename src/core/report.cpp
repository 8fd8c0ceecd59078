#include "core/report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "numerics/contracts.h"

namespace brightsi::core {
namespace {

// Shade ramp from cold to hot.
constexpr const char* kShades = " .:-=+*#%@";
constexpr int kShadeCount = 10;

}  // namespace

numerics::Grid2<double> downsample(const numerics::Grid2<double>& field, int max_cols,
                                   int max_rows) {
  ensure(max_cols > 0 && max_rows > 0, "downsample target must be positive");
  const int nx = std::min(field.nx(), max_cols);
  const int ny = std::min(field.ny(), max_rows);
  numerics::Grid2<double> out(nx, ny, 0.0);
  numerics::Grid2<int> counts(nx, ny, 0);
  for (int iy = 0; iy < field.ny(); ++iy) {
    for (int ix = 0; ix < field.nx(); ++ix) {
      const int ox = std::min(nx - 1, ix * nx / field.nx());
      const int oy = std::min(ny - 1, iy * ny / field.ny());
      out(ox, oy) += field(ix, iy);
      counts(ox, oy) += 1;
    }
  }
  for (int iy = 0; iy < ny; ++iy) {
    for (int ix = 0; ix < nx; ++ix) {
      if (counts(ix, iy) > 0) {
        out(ix, iy) /= counts(ix, iy);
      }
    }
  }
  return out;
}

void print_ascii_map(std::ostream& os, const numerics::Grid2<double>& field,
                     const std::string& title, const std::string& unit, int max_cols,
                     int max_rows) {
  const numerics::Grid2<double> map = downsample(field, max_cols, max_rows);
  double lo = map(0, 0);
  double hi = map(0, 0);
  for (const double v : map.data()) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  os << title << "  [" << TextTable::num(lo) << " " << unit << " = ' ' ... "
     << TextTable::num(hi) << " " << unit << " = '@']\n";
  const double span = (hi > lo) ? hi - lo : 1.0;
  for (int iy = map.ny() - 1; iy >= 0; --iy) {
    os << "  ";
    for (int ix = 0; ix < map.nx(); ++ix) {
      const int shade = std::clamp(
          static_cast<int>((map(ix, iy) - lo) / span * (kShadeCount - 1) + 0.5), 0,
          kShadeCount - 1);
      os << kShades[shade];
    }
    os << "\n";
  }
}

void write_field_csv(std::ostream& os, const numerics::Grid2<double>& field, double width_m,
                     double height_m) {
  os << "x_mm,y_mm,value\n";
  for (int iy = 0; iy < field.ny(); ++iy) {
    for (int ix = 0; ix < field.nx(); ++ix) {
      const double x = (ix + 0.5) * width_m / field.nx() * 1e3;
      const double y = (iy + 0.5) * height_m / field.ny() * 1e3;
      os << x << "," << y << "," << field(ix, iy) << "\n";
    }
  }
}

namespace {

/// RFC 4180: quote a cell when it contains a separator, quote or newline.
std::string csv_escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n\r") == std::string::npos) {
    return cell;
  }
  std::string quoted = "\"";
  for (const char c : cell) {
    if (c == '"') {
      quoted += '"';
    }
    quoted += c;
  }
  quoted += '"';
  return quoted;
}

}  // namespace

void write_table_csv(std::ostream& os, const std::vector<std::string>& headers,
                     const std::vector<std::vector<std::string>>& rows) {
  ensure(!headers.empty(), "write_table_csv: empty header");
  for (std::size_t i = 0; i < headers.size(); ++i) {
    os << csv_escape(headers[i]) << (i + 1 < headers.size() ? "," : "\n");
  }
  for (const auto& row : rows) {
    ensure(row.size() == headers.size(), "write_table_csv: ragged row");
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << csv_escape(row[c]) << (c + 1 < row.size() ? "," : "\n");
    }
  }
}

std::string format_shortest(double value) {
  // %.17g round-trips every double, but prefer the shortest form that still
  // parses back to the same value so emitted tables stay readable.
  char buffer[40];
  for (const int precision : {9, 12, 17}) {
    std::snprintf(buffer, sizeof(buffer), "%.*g", precision, value);
    double parsed = 0.0;
    if (std::sscanf(buffer, "%lf", &parsed) == 1 && parsed == value) {
      break;
    }
  }
  return buffer;
}

std::string json_escape(const std::string& text) {
  std::string escaped;
  escaped.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': escaped += "\\\""; break;
      case '\\': escaped += "\\\\"; break;
      case '\n': escaped += "\\n"; break;
      case '\r': escaped += "\\r"; break;
      case '\t': escaped += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          escaped += buffer;
        } else {
          escaped += c;
        }
    }
  }
  return escaped;
}

void write_records_json(std::ostream& os, const std::vector<std::string>& headers,
                        const std::vector<bool>& numeric,
                        const std::vector<std::vector<std::string>>& rows) {
  ensure(numeric.size() == headers.size(), "write_records_json: numeric mask mismatch");
  os << "[";
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const auto& row = rows[r];
    ensure(row.size() == headers.size(), "write_records_json: ragged row");
    os << (r == 0 ? "\n" : ",\n") << "  {";
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << (c == 0 ? "" : ", ") << '"' << json_escape(headers[c]) << "\": ";
      if (numeric[c]) {
        os << (row[c].empty() ? "null" : row[c]);
      } else {
        os << '"' << json_escape(row[c]) << '"';
      }
    }
    os << "}";
  }
  os << (rows.empty() ? "]\n" : "\n]\n");
}

TextTable::TextTable(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void TextTable::add_row(std::vector<std::string> cells) {
  ensure(cells.size() == headers_.size(), "TextTable row width mismatch");
  rows_.push_back(std::move(cells));
}

void TextTable::print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
    for (const auto& row : rows_) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& cells) {
    os << "  ";
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << std::left << std::setw(static_cast<int>(widths[c]) + 2) << cells[c];
    }
    os << "\n";
  };
  print_row(headers_);
  std::string rule;
  for (std::size_t c = 0; c < widths.size(); ++c) {
    rule += std::string(widths[c], '-') + "  ";
  }
  os << "  " << rule << "\n";
  for (const auto& row : rows_) {
    print_row(row);
  }
}

std::string TextTable::num(double value, int precision) {
  std::ostringstream ss;
  ss << std::fixed << std::setprecision(precision) << value;
  return ss.str();
}

std::string write_results_file(const std::string& name,
                               const std::function<void(std::ostream&)>& writer) {
  ensure(!name.empty() && name.find("..") == std::string::npos,
         "results file name must be a plain relative name");
  try {
    std::filesystem::create_directories("results");
    const std::string path = "results/" + name;
    std::ofstream out(path);
    if (!out) {
      return {};
    }
    writer(out);
    return path;
  } catch (const std::filesystem::filesystem_error&) {
    return {};
  }
}

bool emit_to_sink(const std::string& path, const char* what,
                  const std::function<void(std::ostream&)>& writer) {
  if (path == "-") {
    writer(std::cout);
    return true;
  }
  std::ofstream file(path);
  if (!file) {
    std::fprintf(stderr, "error: cannot open %s file '%s'\n", what, path.c_str());
    return false;
  }
  writer(file);
  std::fprintf(stderr, "wrote %s to %s\n", what, path.c_str());
  return true;
}

}  // namespace brightsi::core
