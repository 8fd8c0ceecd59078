# Contracts of the sweep and optimizer CLIs, one case per ctest test:
#
#   cmake -DCASE=<case> -DSWEEP=<brightsi_sweep> -DMERGE=<brightsi_merge>
#         -DOPT=<brightsi_opt> -DWORK_DIR=<dir> -P tests/cli_contracts.cmake
#
# Cases:
#   rom_threads, stack_3d_threads, fleet_rack_threads
#       the plan's CSV at 1 thread equals its CSV at 4 threads;
#   shard_merge
#       three shards of operating_grid (0/3 at 1 thread, 1/3 at 2, 2/3 at 4)
#       filling one store merge to the CSV of a direct run;
#   rom_shard_merge
#       two shards of mission_endurance --transient rom filling one store
#       merge (brightsi_merge --transient rom) to the CSV of an unsharded
#       run;
#   kill_resume
#       a run stopped after 3 fresh rows (--limit 3), then resumed on the
#       same store, writes the CSV of a direct run;
#   opt_store_cache_hits
#       flow_rate at budget 6, then at budget 12 on the same store: the
#       second run reuses 6 stored rows, evaluates 6 and counts 5 thermal
#       cache hits (stored rows are no hits).
#
# WORK_DIR is emptied first: a store left by an earlier run would turn
# kill-and-resume into a pure store read.
cmake_minimum_required(VERSION 3.24)

foreach(var IN ITEMS CASE SWEEP MERGE OPT WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cli_contracts.cmake needs -D${var}=...")
  endif()
endforeach()
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# run([EXIT_CODES code...] COMMAND arg...): runs the command in WORK_DIR and
# fails the case unless it exits with one of EXIT_CODES (default 0). A
# crash reports a signal name, never an exit code, so it always fails.
function(run)
  cmake_parse_arguments(PARSE_ARGV 0 arg "" "" "EXIT_CODES;COMMAND")
  if(NOT DEFINED arg_EXIT_CODES)
    set(arg_EXIT_CODES 0)
  endif()
  execute_process(COMMAND ${arg_COMMAND} WORKING_DIRECTORY "${WORK_DIR}"
                  RESULT_VARIABLE result)
  if(NOT result IN_LIST arg_EXIT_CODES)
    list(JOIN arg_COMMAND " " command)
    list(JOIN arg_EXIT_CODES " or " codes)
    message(FATAL_ERROR "'${command}' ended with '${result}', expected exit code ${codes}")
  endif()
endfunction()

function(expect_identical first second)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${first}" "${second}"
                  WORKING_DIRECTORY "${WORK_DIR}" RESULT_VARIABLE differ)
  if(NOT differ EQUAL 0)
    message(FATAL_ERROR "${first} and ${second} differ (in ${WORK_DIR})")
  endif()
endfunction()

# Runs the sweep with the given arguments at 1 and at 4 threads and
# compares the two CSVs.
function(expect_thread_count_invariant)
  run(COMMAND "${SWEEP}" ${ARGN} --threads 1 --csv threads1.csv --quiet)
  run(COMMAND "${SWEEP}" ${ARGN} --threads 4 --csv threads4.csv --quiet)
  expect_identical(threads1.csv threads4.csv)
endfunction()

# The uninterrupted single-shard reference run, written to direct.csv.
function(run_direct_operating_grid)
  run(COMMAND "${SWEEP}" operating_grid --store direct.store --shard 0/1 --threads 4
              --csv direct.csv --quiet)
endfunction()

# A partial run leaves rows pending and exits 1; it must not crash.
function(run_partial_sweep)
  run(EXIT_CODES 0 1 COMMAND "${SWEEP}" ${ARGN} --quiet)
endfunction()

if(CASE STREQUAL "rom_threads")
  expect_thread_count_invariant(mission_endurance --transient rom)
elseif(CASE STREQUAL "stack_3d_threads")
  expect_thread_count_invariant(stack_3d)
elseif(CASE STREQUAL "fleet_rack_threads")
  expect_thread_count_invariant(fleet_rack)
elseif(CASE STREQUAL "shard_merge")
  run_direct_operating_grid()
  run_partial_sweep(operating_grid --store sharded.store --shard 0/3 --threads 1)
  run_partial_sweep(operating_grid --store sharded.store --shard 1/3 --threads 2)
  run_partial_sweep(operating_grid --store sharded.store --shard 2/3 --threads 4)
  run(COMMAND "${MERGE}" operating_grid --store sharded.store --csv merged.csv --quiet)
  expect_identical(direct.csv merged.csv)
elseif(CASE STREQUAL "rom_shard_merge")
  run(COMMAND "${SWEEP}" mission_endurance --transient rom --threads 4 --csv direct.csv
              --quiet)
  run_partial_sweep(mission_endurance --transient rom --store rom.store --shard 0/2
                    --threads 2)
  run_partial_sweep(mission_endurance --transient rom --store rom.store --shard 1/2
                    --threads 2)
  run(COMMAND "${MERGE}" mission_endurance --transient rom --store rom.store
              --csv merged.csv --quiet)
  expect_identical(direct.csv merged.csv)
elseif(CASE STREQUAL "kill_resume")
  run_direct_operating_grid()
  run_partial_sweep(operating_grid --store killed.store --limit 3 --threads 2)
  run(COMMAND "${SWEEP}" operating_grid --store killed.store --threads 4
              --csv resumed.csv --quiet)
  expect_identical(direct.csv resumed.csv)
elseif(CASE STREQUAL "opt_store_cache_hits")
  run(COMMAND "${OPT}" flow_rate --budget 6 --threads 1 --store opt.store --quiet)
  execute_process(COMMAND "${OPT}" flow_rate --budget 12 --threads 1 --store opt.store
                  WORKING_DIRECTORY "${WORK_DIR}" OUTPUT_VARIABLE out RESULT_VARIABLE result)
  if(NOT result EQUAL 0 OR NOT out MATCHES "1 thermal builds, 5 cache hits"
     OR NOT out MATCHES "store: 6 reused, 6 evaluated")
    message(FATAL_ERROR "resumed flow_rate ended with '${result}'; expected 6 reused, "
                        "6 evaluated and 1 thermal builds, 5 cache hits:\n${out}")
  endif()
else()
  message(FATAL_ERROR "unknown case '${CASE}'")
endif()
