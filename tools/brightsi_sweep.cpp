// brightsi_sweep — run design-space sweeps of the integrated microfluidic
// power/cooling system on every core.
//
//   brightsi_sweep --list                      registered plans and evaluators
//   brightsi_sweep --params                    sweepable parameters
//   brightsi_sweep <plan> [options]            run a registered plan
//   brightsi_sweep custom --evaluator <name>
//       --grid p=v1,v2,... [--grid ...] [--set p=v ...]   ad-hoc sweep
//       (--list shows the evaluators; on a registered plan these three
//       flags are an error)
//
// Options:
//   --threads N     worker threads (default: hardware concurrency)
//   --csv FILE      write result rows (FILE may be '-' for stdout)
//   --json FILE     write result records as JSON
//   --timing FILE   write per-scenario wall time
//   --quiet         suppress the result table on stdout
//
// Distributed execution (the shard backend, sweep/execution.h):
//   --store DIR     content-addressed result store; rows already stored
//                   are reused, fresh rows are appended per-row (resume)
//   --shard I/N     evaluate only this instance's share of the plan
//                   (requires --store; cooperating instances share DIR)
//   --limit N       stop after N fresh evaluations (kill-injection for
//                   resume tests; remaining rows stay pending)
//   --lease-timeout S   steal a peer's lease after S >= 0 seconds (default 60)
//
// A partial run (some rows pending) exits nonzero; rerun, run the other
// shards, or merge with brightsi_merge --allow-missing.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/report.h"
#include "sweep/execution.h"
#include "sweep/registry.h"
#include "sweep/runner.h"
#include "cli_args.h"

namespace sw = brightsi::sweep;
using brightsi::core::TextTable;

namespace {

int usage(const char* argv0, int exit_code) {
  std::string evaluators;
  for (const sw::EvaluatorDescription& evaluator : sw::registered_evaluators()) {
    evaluators += (evaluators.empty() ? "" : "|") + evaluator.name;
  }
  std::fprintf(exit_code == 0 ? stdout : stderr,
               "usage: %s --list | --params\n"
               "       %s <plan> [--threads N] [--csv FILE] [--json FILE]"
               " [--timing FILE] [--quiet]"
               " [--transient full|rom] [--store DIR [--shard I/N] [--limit N]"
               " [--lease-timeout S]]\n"
               "       %s custom --evaluator %s (--grid p=v1,v2,... | --set p=v)..."
               " [options]\n",
               argv0, argv0, argv0, evaluators.c_str());
  return exit_code;
}

void list_plans() {
  TextTable plans({"plan", "summary"});
  for (const sw::PlanDescription& plan : sw::registered_plans()) {
    plans.add_row({plan.name, plan.summary});
  }
  plans.print(std::cout);
  std::printf("\n");
  TextTable evaluators({"evaluator", "summary"});
  for (const sw::EvaluatorDescription& evaluator : sw::registered_evaluators()) {
    evaluators.add_row({evaluator.name, evaluator.summary});
  }
  evaluators.print(std::cout);
}

void list_parameters() {
  TextTable table({"parameter", "description"});
  for (const sw::ParameterInfo& info : sw::parameter_registry()) {
    table.add_row({info.name, info.description});
  }
  table.print(std::cout);
}

std::vector<double> parse_values(const std::string& csv) {
  std::vector<double> values;
  std::stringstream stream(csv);
  std::string token;
  while (std::getline(stream, token, ',')) {
    try {
      std::size_t consumed = 0;
      values.push_back(std::stod(token, &consumed));
      if (consumed != token.size()) {
        throw std::invalid_argument(token);
      }
    } catch (const std::exception&) {
      throw std::invalid_argument("not a number: '" + token + "'");
    }
  }
  return values;
}

/// Splits "param=v1,v2,..." into an axis; throws on a missing '='.
sw::GridAxis parse_axis(const std::string& text) {
  const auto eq = text.find('=');
  if (eq == std::string::npos || eq == 0) {
    throw std::invalid_argument("expected param=value[,value...], got: " + text);
  }
  sw::GridAxis axis{text.substr(0, eq), parse_values(text.substr(eq + 1))};
  if (axis.values.empty()) {
    throw std::invalid_argument("no values given for parameter: " + axis.param);
  }
  return axis;
}

void print_result_table(const sw::SweepResult& result) {
  std::vector<std::string> headers = {"scenario"};
  headers.insert(headers.end(), result.metric_names.begin(), result.metric_names.end());
  TextTable table(headers);
  for (const sw::ScenarioResult& row : result.rows) {
    std::vector<std::string> cells = {row.name};
    if (row.failed) {
      for (std::size_t m = 0; m < result.metric_names.size(); ++m) {
        cells.push_back(m == 0 ? "FAILED: " + row.error : "-");
      }
    } else {
      for (const double metric : row.metrics) {
        cells.push_back(TextTable::num(metric, 4));
      }
    }
    table.add_row(std::move(cells));
  }
  table.print(std::cout);
  std::printf("\n%zu scenarios (%d failed) in %.2f s on %d threads (%.2f scenarios/s)",
              result.rows.size(), result.failure_count(), result.wall_time_s,
              result.thread_count, result.scenarios_per_second());
  if (const int builds = result.exec.model_builds; builds > 0) {
    // Only evaluators that go through the worker structure caches build
    // thermal models or solve the cache rail.
    std::printf("; %d thermal builds, %d rail solves", builds, result.exec.rail_solves);
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return usage(argv[0], 2);
  }
  const std::string command = argv[1];
  if (command == "--help" || command == "-h") {
    return usage(argv[0], 0);
  }
  if (command == "--list") {
    list_plans();
    return 0;
  }
  if (command == "--params") {
    list_parameters();
    return 0;
  }

  try {
    sw::SweepOptions options;
    std::string csv_path;
    std::string json_path;
    std::string timing_path;
    bool quiet = false;
    std::string evaluator_name;
    std::string transient_name;
    std::vector<sw::GridAxis> grid_axes;
    std::vector<std::pair<std::string, double>> fixed;
    std::string custom_only_flag;  // the first flag only a custom sweep reads
    sw::ShardOptions shard;

    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      auto next = [&] { return brightsi::tools::next_arg(argc, argv, i, arg); };
      if ((arg == "--evaluator" || arg == "--grid" || arg == "--set") &&
          custom_only_flag.empty()) {
        custom_only_flag = arg;
      }
      if (arg == "--threads") {
        // 0 keeps the "hardware concurrency" default.
        options.thread_count = brightsi::tools::next_int_arg(argc, argv, i, arg, 0);
      } else if (arg == "--csv") {
        csv_path = next();
      } else if (arg == "--json") {
        json_path = next();
      } else if (arg == "--timing") {
        timing_path = next();
      } else if (arg == "--quiet") {
        quiet = true;
      } else if (arg == "--evaluator") {
        evaluator_name = next();
      } else if (arg == "--transient") {
        transient_name =
            brightsi::tools::next_choice_arg(argc, argv, i, arg, {"full", "rom"});
      } else if (arg == "--store") {
        shard.store_dir = next();
      } else if (arg == "--shard") {
        std::tie(shard.shard_index, shard.shard_count) =
            brightsi::tools::parse_shard_spec(arg, next());
      } else if (arg == "--limit") {
        shard.row_limit = brightsi::tools::next_int_arg(argc, argv, i, arg, 0);
      } else if (arg == "--lease-timeout") {
        shard.lease_timeout_s = brightsi::tools::next_seconds_arg(argc, argv, i, arg);
      } else if (arg == "--grid") {
        grid_axes.push_back(parse_axis(next()));
      } else if (arg == "--set") {
        const std::string assignment = next();
        const sw::GridAxis axis = parse_axis(assignment);
        if (axis.values.size() != 1) {
          throw std::invalid_argument("--set takes a single value: " + assignment);
        }
        fixed.emplace_back(axis.param, axis.values.front());
      } else {
        std::fprintf(stderr, "error: %s\n",
                     brightsi::tools::unknown_option_message(arg).c_str());
        return usage(argv[0], 2);
      }
    }

    if (command != "custom" && !custom_only_flag.empty()) {
      throw std::invalid_argument(custom_only_flag + " applies to custom sweeps only");
    }
    sw::SweepPlan plan;
    if (command == "custom") {
      if (evaluator_name.empty() || grid_axes.empty()) {
        std::fprintf(stderr, "error: custom sweeps need --evaluator and --grid\n");
        return usage(argv[0], 2);
      }
      plan.name = "custom";
      plan.base = brightsi::core::power7_system_config();
      plan.evaluator = sw::make_evaluator(evaluator_name);
      plan.add_grid(grid_axes, fixed);
    } else {
      plan = sw::make_registered_plan(command);
    }
    if (transient_name == "rom") {
      sw::stamp_rom_transient(plan);
    }
    plan.validate();

    if (shard.store_dir.empty() && (shard.shard_count != 1 || shard.shard_index != 0)) {
      throw std::invalid_argument("--shard requires --store (shards cooperate through it)");
    }
    if (shard.store_dir.empty() && shard.row_limit >= 0) {
      throw std::invalid_argument("--limit requires --store (it bounds fresh store rows)");
    }

    std::shared_ptr<sw::ExecutionBackend> backend;
    if (!shard.store_dir.empty()) {
      shard.scope = plan.name;
      shard.local = options;
      backend = sw::make_shard_backend(std::move(shard));
    }
    const sw::SweepRunner runner =
        backend != nullptr ? sw::SweepRunner(backend) : sw::SweepRunner(options);
    const sw::SweepResult result = runner.run(plan);

    if (!quiet) {
      print_result_table(result);
      if (result.backend == "shard") {
        std::printf("store: %lld reused, %lld evaluated, %lld pending, %lld leases stolen\n",
                    result.exec.store_hits, result.exec.evaluated, result.exec.pending,
                    result.exec.leases_stolen);
      }
    }
    bool ok = true;
    if (!csv_path.empty()) {
      ok = brightsi::core::emit_to_sink(
               csv_path, "CSV", [&](std::ostream& os) { write_sweep_csv(os, result); }) &&
           ok;
    }
    if (!json_path.empty()) {
      ok = brightsi::core::emit_to_sink(
               json_path, "JSON", [&](std::ostream& os) { write_sweep_json(os, result); }) &&
           ok;
    }
    if (!timing_path.empty()) {
      ok = brightsi::core::emit_to_sink(
               timing_path, "timing",
               [&](std::ostream& os) { write_sweep_timing_csv(os, result); }) &&
           ok;
    }
    return (ok && result.failure_count() == 0) ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
