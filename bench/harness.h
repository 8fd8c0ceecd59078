// Measurement harness shared by the JSON-writing bench programs
// (fleet_throughput, mission_throughput, opt_throughput): the
// warm-up-then-repeat-until-stable loop, the optional JSON-path argument
// and a flat JSON writer. The repository benchmark is
// perfbench/ (perfbench/README.md); these programs measure only the
// comparisons it does not make. Schemas: docs/BENCHMARKS.md.
#ifndef BRIGHTSI_BENCH_HARNESS_H
#define BRIGHTSI_BENCH_HARNESS_H

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace brightsi::bench {

using Clock = std::chrono::steady_clock;

/// Wall-clock seconds since `start`.
inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Measured runs of a repeat-until-stable loop and their wall time.
struct Repeats {
  int runs = 0;
  double wall_s = 0.0;

  [[nodiscard]] double runs_per_s() const { return wall_s > 0.0 ? runs / wall_s : 0.0; }
};

/// Runs `unit()` once unmeasured (first-touch allocations, pattern builds,
/// cache warming), then repeats it, handing each result to `record`, until
/// both 5 runs and 2 s of wall time are reached, or 64 runs.
template <class Unit, class Record>
Repeats repeat_until_stable(Unit&& unit, Record&& record) {
  (void)unit();
  Repeats repeats;
  const Clock::time_point start = Clock::now();
  do {
    record(unit());
    ++repeats.runs;
    repeats.wall_s = seconds_since(start);
  } while ((repeats.wall_s < 2.0 || repeats.runs < 5) && repeats.runs < 64);
  return repeats;
}

/// The JSON output path: the program's one optional argument, or
/// `fallback` without one. Empty, after naming the offending argument on
/// stderr, when the argument is a flag or a second argument follows.
inline std::optional<std::string> json_path_argument(int argc, char** argv,
                                                     const char* fallback) {
  if (argc < 2) {
    return fallback;
  }
  const bool flag = std::strncmp(argv[1], "--", 2) == 0;
  if (!flag && argc == 2) {
    return argv[1];
  }
  std::fprintf(stderr, "error: unknown argument '%s'\n", flag ? argv[1] : argv[2]);
  return std::nullopt;
}

/// A flat JSON object with one `"dotted.name": number` line per field, in
/// insertion order. The dotted names are the paths tools/bench_diff.py
/// prints, so a flat artifact diffs field for field against a nested one.
/// Names are program literals and are written unescaped.
class FlatJson {
 public:
  explicit FlatJson(std::string bench) : bench_(std::move(bench)) {}

  void set(std::string name, double value) { fields_.emplace_back(std::move(name), value); }

  /// Writes the object, `"bench"` first; a non-finite value is written as
  /// null. Returns false, after naming the path on stderr, on failure.
  [[nodiscard]] bool write(const std::string& path) const {
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) {
      std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
      return false;
    }
    std::fprintf(file, "{\n  \"bench\": \"%s\"", bench_.c_str());
    for (const auto& [name, value] : fields_) {
      if (std::isfinite(value)) {
        std::fprintf(file, ",\n  \"%s\": %.10g", name.c_str(), value);
      } else {
        std::fprintf(file, ",\n  \"%s\": null", name.c_str());
      }
    }
    std::fprintf(file, "\n}\n");
    if (std::fclose(file) != 0) {
      std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
      return false;
    }
    std::printf("wrote %s\n", path.c_str());
    return true;
  }

 private:
  std::string bench_;
  std::vector<std::pair<std::string, double>> fields_;
};

}  // namespace brightsi::bench

#endif  // BRIGHTSI_BENCH_HARNESS_H
