// brightsi_merge — assemble a sharded sweep's result store back into the
// canonical row order of its plan.
//
//   brightsi_merge <plan> --store DIR [options]
//
// Re-expands the registered plan deterministically, resolves every
// scenario against the content-addressed store that cooperating
// `brightsi_sweep --shard i/N --store DIR` instances filled, and emits the
// rows through the standard sweep writers — the merged CSV/JSON is
// byte-identical to an uninterrupted single-process `brightsi_sweep` run,
// for any shard count, thread count, or kill-and-resume history.
//
// Options:
//   --store DIR       the shared result store (required)
//   --csv FILE        write result rows (FILE may be '-' for stdout)
//   --json FILE       write result records as JSON
//   --quiet           suppress the summary line on stdout
//   --allow-missing   emit pending rows for scenarios not in the store
//                     (default: a missing row is an error)
//   --transient full|rom
//                     must match the flag the sweep ran with (it stamps a
//                     scenario override, which the content hash covers)
#include <cstdio>
#include <iostream>
#include <string>

#include "core/report.h"
#include "sweep/execution.h"
#include "sweep/registry.h"
#include "sweep/runner.h"
#include "cli_args.h"

namespace sw = brightsi::sweep;

namespace {

int usage(const char* argv0, int exit_code) {
  std::fprintf(exit_code == 0 ? stdout : stderr,
               "usage: %s <plan> --store DIR [--csv FILE] [--json FILE] [--quiet]\n"
               "           [--allow-missing] [--transient full|rom]\n",
               argv0);
  return exit_code;
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

  try {
    std::string store_dir;
    std::string csv_path;
    std::string json_path;
    std::string transient_name;
    bool quiet = false;
    bool allow_missing = false;

    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      auto next = [&] { return brightsi::tools::next_arg(argc, argv, i, arg); };
      if (arg == "--store") {
        store_dir = next();
      } else if (arg == "--csv") {
        csv_path = next();
      } else if (arg == "--json") {
        json_path = next();
      } else if (arg == "--quiet") {
        quiet = true;
      } else if (arg == "--allow-missing") {
        allow_missing = true;
      } else if (arg == "--transient") {
        transient_name =
            brightsi::tools::next_choice_arg(argc, argv, i, arg, {"full", "rom"});
      } else {
        std::fprintf(stderr, "error: %s\n",
                     brightsi::tools::unknown_option_message(arg).c_str());
        return usage(argv[0], 2);
      }
    }
    if (store_dir.empty()) {
      std::fprintf(stderr, "error: brightsi_merge needs --store DIR\n");
      return usage(argv[0], 2);
    }

    sw::SweepPlan plan = sw::make_registered_plan(command);
    if (transient_name == "rom") {
      sw::stamp_rom_transient(plan);
    }
    plan.validate();

    const sw::SweepResult result = sw::assemble_from_store(plan, store_dir, allow_missing);
    if (!quiet) {
      std::printf("%s: %zu rows merged from %s (%lld stored, %lld pending)\n",
                  plan.name.c_str(), result.rows.size(), store_dir.c_str(),
                  result.exec.store_hits, result.exec.pending);
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
    return (ok && result.failure_count() == 0) ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
