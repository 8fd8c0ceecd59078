#include "sweep/runner.h"

#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include "core/report.h"
#include "sweep/execution.h"

namespace brightsi::sweep {

std::vector<std::string> collect_override_names(const SweepPlan& plan) {
  std::vector<std::string> names;
  for (const ScenarioSpec& scenario : plan.scenarios) {
    for (const auto& [param, value] : scenario.overrides) {
      (void)value;
      bool known = false;
      for (const std::string& existing : names) {
        if (existing == param) {
          known = true;
          break;
        }
      }
      if (!known) {
        names.push_back(param);
      }
    }
  }
  return names;
}

std::string format_sweep_value(double value) { return core::format_shortest(value); }

std::vector<std::string> format_sweep_row(const SweepResult& result,
                                          const ScenarioResult& row) {
  std::vector<std::string> cells;
  cells.reserve(1 + result.override_names.size() + result.metric_names.size() + 1);
  cells.push_back(row.name);
  for (const std::string& param : result.override_names) {
    std::string cell;
    for (const auto& [name, value] : row.overrides) {
      if (name == param) {
        cell = format_sweep_value(value);
        break;
      }
    }
    cells.push_back(std::move(cell));
  }
  for (std::size_t m = 0; m < result.metric_names.size(); ++m) {
    cells.push_back(row.failed ? std::string() : format_sweep_value(row.metrics[m]));
  }
  cells.push_back(row.failed ? row.error : std::string());
  return cells;
}

std::vector<std::string> sweep_row_headers(const SweepResult& result) {
  std::vector<std::string> headers;
  headers.reserve(1 + result.override_names.size() + result.metric_names.size() + 1);
  headers.push_back("scenario");
  headers.insert(headers.end(), result.override_names.begin(), result.override_names.end());
  headers.insert(headers.end(), result.metric_names.begin(), result.metric_names.end());
  headers.push_back("error");
  return headers;
}

int SweepResult::failure_count() const {
  int failures = 0;
  for (const ScenarioResult& row : rows) {
    failures += row.failed ? 1 : 0;
  }
  return failures;
}

double SweepResult::scenarios_per_second() const {
  return wall_time_s > 0.0 ? static_cast<double>(rows.size()) / wall_time_s : 0.0;
}

int resolve_thread_count(const SweepOptions& options) {
  if (options.thread_count > 0) {
    return options.thread_count;
  }
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware > 0 ? static_cast<int>(hardware) : 1;
}

SweepRunner::SweepRunner(SweepOptions options) : options_(options) {}

SweepRunner::SweepRunner(std::shared_ptr<ExecutionBackend> backend)
    : backend_(std::move(backend)) {
  if (backend_ == nullptr) {
    throw std::invalid_argument("sweep runner needs a non-null execution backend");
  }
}

SweepResult SweepRunner::run(const SweepPlan& plan) const {
  if (!plan.evaluator.fn) {
    throw std::invalid_argument("sweep plan '" + plan.name + "' has no evaluator");
  }
  SweepResult result;
  result.plan_name = plan.name;
  result.evaluator_name = plan.evaluator.name;
  result.metric_names = plan.evaluator.metrics;
  result.override_names = collect_override_names(plan);

  // An injected backend persists across run() calls; the default local
  // backend is rebuilt per run (fresh caches, the historical behaviour).
  std::shared_ptr<ExecutionBackend> backend = backend_;
  if (backend == nullptr) {
    backend = make_local_backend(options_);
  }
  result.thread_count = backend->thread_count();
  result.backend = backend->name();

  const auto sweep_start = std::chrono::steady_clock::now();
  backend->execute(plan.base, plan.evaluator, plan.scenarios, result.rows);
  result.wall_time_s = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - sweep_start).count();
  result.exec = backend->stats();
  return result;
}

void write_sweep_csv(std::ostream& os, const SweepResult& result) {
  std::vector<std::vector<std::string>> rows;
  rows.reserve(result.rows.size());
  for (const ScenarioResult& row : result.rows) {
    rows.push_back(format_sweep_row(result, row));
  }
  core::write_table_csv(os, sweep_row_headers(result), rows);
}

void write_sweep_json(std::ostream& os, const SweepResult& result) {
  const std::vector<std::string> headers = sweep_row_headers(result);
  std::vector<bool> numeric(headers.size(), true);
  numeric.front() = false;  // scenario name
  numeric.back() = false;   // error message
  std::vector<std::vector<std::string>> rows;
  rows.reserve(result.rows.size());
  for (const ScenarioResult& row : result.rows) {
    rows.push_back(format_sweep_row(result, row));
  }
  os << "{\n"
     << "  \"plan\": \"" << core::json_escape(result.plan_name) << "\",\n"
     << "  \"evaluator\": \"" << core::json_escape(result.evaluator_name) << "\",\n"
     << "  \"scenario_count\": " << result.rows.size() << ",\n"
     << "  \"rows\": ";
  core::write_records_json(os, headers, numeric, rows);
  os << "}\n";
}

void write_sweep_timing_csv(std::ostream& os, const SweepResult& result) {
  std::vector<std::vector<std::string>> rows;
  rows.reserve(result.rows.size() + 1);
  for (const ScenarioResult& row : result.rows) {
    rows.push_back({row.name, format_sweep_value(row.elapsed_s)});
  }
  rows.push_back({"TOTAL (wall, " + std::to_string(result.thread_count) + " threads)",
                  format_sweep_value(result.wall_time_s)});
  core::write_table_csv(os, {"scenario", "elapsed_s"}, rows);
}

}  // namespace brightsi::sweep
