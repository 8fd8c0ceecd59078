// brightsi_opt — design-space optimization of the integrated microfluidic
// power/cooling system, on every core, seed-free deterministic (output is
// byte-identical for any --threads value).
//
//   brightsi_opt --list                      registered studies
//   brightsi_opt <study> [options]           run a registered study
//
// Options:
//   --algo A          grid (default; axis refinement + Nelder-Mead) or
//                     nsga2 (multi-objective evolutionary search with an
//                     RBF surrogate pre-screen; needs a Pareto pair)
//   --budget N        max evaluator invocations (default 64)
//   --threads N       batch workers (default: hardware concurrency)
//   --axis-points K   samples per axis per refinement pass (default 3)
//   --no-polish       skip the Nelder-Mead polish of continuous params
//   --population N    nsga2 individuals per generation (default 16)
//   --screen-factor K nsga2 offspring proposed per real evaluation slot
//                     (default 3; 1 disables the surrogate screen)
//   --seed S          nsga2 RNG seed, unsigned 64-bit (fixed default)
//   --maximize M[*W]  replace the study's objective *terms*: maximize M
//   --minimize M[*W]  ... or minimize it (repeatable; weights optional).
//                     The study's built-in hard constraints and Pareto
//                     pair are kept — use --cap/--floor to add to them.
//   --cap M=V         add hard constraint metric M <= V
//   --floor M=V       add hard constraint metric M >= V
//   --csv FILE        archive rows + score/feasible/pareto ('-' = stdout)
//   --pareto FILE     Pareto-front rows (sweep row format)
//   --json FILE       study metadata + best + front + archive as JSON
//   --quiet           suppress the result tables on stdout
//   --store DIR       content-addressed result store (sweep/execution.h):
//                     candidates evaluated by a previous run of the same
//                     study are reused, fresh ones appended — a re-run
//                     with a widened budget resumes instead of restarting
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/report.h"
#include "opt/nsga2.h"
#include "opt/studies.h"
#include "sweep/execution.h"
#include "cli_args.h"

namespace op = brightsi::opt;
namespace sw = brightsi::sweep;
using brightsi::core::TextTable;

namespace {

int usage(const char* argv0, int exit_code) {
  std::fprintf(exit_code == 0 ? stdout : stderr,
               "usage: %s --list\n"
               "       %s <study> [--algo grid|nsga2] [--budget N] [--threads N]\n"
               "           [--axis-points K] [--no-polish] [--population N]\n"
               "           [--screen-factor K] [--seed S] [--store DIR]\n"
               "           [--maximize M[*W]] [--minimize M[*W]] [--cap M=V] [--floor M=V]\n"
               "           [--csv FILE] [--pareto FILE] [--json FILE] [--quiet]\n",
               argv0, argv0);
  return exit_code;
}

void list_studies() {
  TextTable table({"study", "summary"});
  for (const op::StudyDescription& study : op::registered_studies()) {
    table.add_row({study.name, study.summary});
  }
  table.print(std::cout);
}

void print_design_row(const op::OptResult& result, int index, TextTable& table) {
  const sw::ScenarioResult& row = result.archive.rows[static_cast<std::size_t>(index)];
  std::vector<std::string> cells = {row.name};
  for (const double metric : row.metrics) {
    cells.push_back(TextTable::num(metric, 4));
  }
  cells.push_back(TextTable::num(result.scores[static_cast<std::size_t>(index)], 4));
  table.add_row(std::move(cells));
}

void print_result(const op::OptResult& result) {
  std::printf("study %s: %s\n", result.study_name.c_str(),
              result.objective_description.c_str());
  if (result.algo == "nsga2") {
    std::printf("%lld evaluations (%d generations; %lld proposed, %lld screened out) "
                "on %d threads",
                result.evaluations(), result.generations, result.surrogate_candidates,
                result.surrogate_screened, result.archive.thread_count);
  } else {
    std::printf("%lld evaluations (%d refinement passes, %d polish steps) on %d threads",
                result.evaluations(), result.passes, result.polish_steps,
                result.archive.thread_count);
  }
  if (const int builds = result.archive.exec.model_builds; builds > 0) {
    // Only meaningful for evaluators that go through the thermal-model
    // structure cache; the rail evaluator, for example, never does. Rows
    // filled from a result store were not evaluated, so they are no hits.
    std::printf("; %d thermal builds, %lld cache hits, %d rail solves", builds,
                result.archive.exec.evaluated - builds, result.archive.exec.rail_solves);
  }
  std::printf("\n");

  std::vector<std::string> headers = {"design"};
  headers.insert(headers.end(), result.archive.metric_names.begin(),
                 result.archive.metric_names.end());
  headers.push_back("score");
  if (result.best_index >= 0) {
    std::printf("\nbest design (archive row %d):\n", result.best_index);
    TextTable best(headers);
    print_design_row(result, result.best_index, best);
    best.print(std::cout);
  } else {
    std::printf("\nno feasible design found within the budget\n");
  }
  if (!result.pareto_indices.empty()) {
    std::printf("\nPareto front (%zu designs):\n", result.pareto_indices.size());
    TextTable front(headers);
    for (const int index : result.pareto_indices) {
      print_design_row(result, index, front);
    }
    front.print(std::cout);
  }
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
    list_studies();
    return 0;
  }

  try {
    op::SearchOptions search;  // what both algorithms share
    op::OptimizerOptions grid;
    op::Nsga2Options evo;
    std::string algo = "grid";
    std::string csv_path;
    std::string pareto_path;
    std::string json_path;
    bool quiet = false;
    std::string store_dir;
    std::vector<op::ObjectiveTerm> term_overrides;
    std::vector<op::MetricConstraint> extra_constraints;

    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      auto next = [&] { return brightsi::tools::next_arg(argc, argv, i, arg); };
      auto next_int = [&](int minimum) {
        return brightsi::tools::next_int_arg(argc, argv, i, arg, minimum);
      };
      if (arg == "--algo") {
        algo = brightsi::tools::next_choice_arg(argc, argv, i, arg, {"grid", "nsga2"});
      } else if (arg == "--budget") {
        search.budget = next_int(1);
      } else if (arg == "--population") {
        evo.population = next_int(4);
      } else if (arg == "--screen-factor") {
        evo.screen_factor = next_int(1);
      } else if (arg == "--seed") {
        evo.seed = brightsi::tools::next_u64_arg(argc, argv, i, arg);
      } else if (arg == "--threads") {
        // 0 keeps the "hardware concurrency" default, as in brightsi_sweep.
        search.thread_count = next_int(0);
      } else if (arg == "--axis-points") {
        grid.axis_points = next_int(2);
      } else if (arg == "--no-polish") {
        grid.nelder_mead = false;
      } else if (arg == "--maximize") {
        term_overrides.push_back(op::parse_objective_term(next(), 1.0));
      } else if (arg == "--minimize") {
        term_overrides.push_back(op::parse_objective_term(next(), -1.0));
      } else if (arg == "--cap") {
        extra_constraints.push_back(op::parse_metric_bound(next(), /*upper=*/true));
      } else if (arg == "--floor") {
        extra_constraints.push_back(op::parse_metric_bound(next(), /*upper=*/false));
      } else if (arg == "--csv") {
        csv_path = next();
      } else if (arg == "--pareto") {
        pareto_path = next();
      } else if (arg == "--json") {
        json_path = next();
      } else if (arg == "--quiet") {
        quiet = true;
      } else if (arg == "--store") {
        store_dir = next();
      } else {
        std::fprintf(stderr, "error: %s\n",
                     brightsi::tools::unknown_option_message(arg).c_str());
        return usage(argv[0], 2);
      }
    }

    op::Study study = op::make_registered_study(command);
    if (!term_overrides.empty()) {
      study.objective.terms = term_overrides;
    }
    study.objective.constraints.insert(study.objective.constraints.end(),
                                       extra_constraints.begin(), extra_constraints.end());

    if (!store_dir.empty()) {
      sw::ShardOptions shard;
      shard.store_dir = store_dir;
      shard.scope = study.name;
      shard.local = {search.thread_count};
      search.backend = sw::make_shard_backend(std::move(shard));
    }
    op::OptResult result;
    if (algo == "nsga2") {
      static_cast<op::SearchOptions&>(evo) = search;
      result = op::optimize_nsga2(study, evo);
    } else {
      static_cast<op::SearchOptions&>(grid) = search;
      result = op::optimize(study, grid);
    }

    if (!quiet) {
      print_result(result);
      if (!store_dir.empty()) {
        std::printf("store: %lld reused, %lld evaluated\n", result.archive.exec.store_hits,
                    result.archive.exec.evaluated);
      }
    }
    bool ok = true;
    if (!csv_path.empty()) {
      ok = brightsi::core::emit_to_sink(
               csv_path, "CSV", [&](std::ostream& os) { op::write_opt_csv(os, result); }) &&
           ok;
    }
    if (!pareto_path.empty()) {
      ok = brightsi::core::emit_to_sink(
               pareto_path, "Pareto CSV",
               [&](std::ostream& os) { op::write_pareto_csv(os, result); }) &&
           ok;
    }
    if (!json_path.empty()) {
      ok = brightsi::core::emit_to_sink(
               json_path, "JSON",
               [&](std::ostream& os) { op::write_opt_json(os, result); }) &&
           ok;
    }
    return (ok && result.best_index >= 0) ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
