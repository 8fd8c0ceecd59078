#!/usr/bin/env python3
"""Runs one workload of the brightsi benchmark and prints its metrics.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench_workloads (CMake, Release) into .bench_build/perfbench, runs
it, checks its anchor outputs against perfbench/reference.json, prints every
metric with its unit and direction, writes the flat result to
.bench_build/results/<workload>-seed<N>-trace<T>.json (tools/bench_diff.py
reads it unmodified), and prints one JSON object as the last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics, with
--trace 1 its per_layer metrics. Only the standard library is used.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY_BUILD = os.path.join(BUILD_DIR, "perfbench")
BINARY = os.path.join(BINARY_BUILD, "perfbench_workloads")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")

WORKLOADS = ("cosim_grid", "fleet_replay", "mission_store", "opt_stack_pareto")
DEFAULT_SEED = 1

# Reported beside the declared metrics in the flat result (not bounded):
# name -> (unit, better).
SUPPLEMENTARY = {
    "failed_fraction": ("fraction", "lower"),
    "chip_steps_per_s": ("1/s", "higher"),
    "resume_rows_per_s": ("1/s", "higher"),
    "front_hypervolume": ("W.K", "higher"),
    "row_samples": ("count", "higher"),
    "passes": ("count", "higher"),
    "setup_s": ("s", "lower"),
}

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    """A failure that must end the run without a result line."""


def load_declared(trace):
    """BENCHMARK.json's per_layer metrics when tracing, else its end_to_end ones."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)["per_layer" if trace else "end_to_end"]


def run_bounded(command, timeout_s, log_path=None):
    """Runs `command` in its own process group; kills the whole group and
    waits for it on timeout. Returns (exit code, stdout)."""
    log = open(log_path, "a", encoding="utf-8") if log_path else None
    try:
        process = subprocess.Popen(
            command,
            cwd=ROOT,
            stdout=log if log else subprocess.PIPE,
            stderr=log if log else subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            out, err = process.communicate(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
            raise BenchError(f"{command[0]} exceeded {timeout_s} s")
        if err:
            sys.stderr.write(err)
        return process.returncode, out or ""
    finally:
        if log:
            log.close()


def build_binary():
    """Configures and builds perfbench_workloads from the checkout. Configuring
    every time keeps a reused build directory in step with the CMake files."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        raise BenchError("run from the repository root: CMakeLists.txt and src/ not found")
    os.makedirs(BINARY_BUILD, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    open(log_path, "w", encoding="utf-8").close()  # the log of this build only
    started = time.monotonic()
    code, _ = run_bounded(
        ["cmake", "-S", BENCH_DIR, "-B", BINARY_BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        BUILD_TIMEOUT_S,
        log_path,
    )
    if code != 0:
        raise BenchError(f"cmake configure failed; see {log_path}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    remaining = BUILD_TIMEOUT_S - (time.monotonic() - started)
    code, _ = run_bounded(
        ["cmake", "--build", BINARY_BUILD, "-j", jobs, "--target", "perfbench_workloads"],
        remaining,
        log_path,
    )
    if code != 0 or not os.path.isfile(BINARY):
        raise BenchError(f"build failed; see {log_path}")


def run_binary(workload, seed, seconds, trace):
    work_dir = os.path.join(BUILD_DIR, "work", f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        code, out = run_bounded(
            [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace), "--work-dir", work_dir],
            RUN_TIMEOUT_S,
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if code != 0:
        raise BenchError(f"perfbench_workloads exited with {code}")
    return json.loads(out)


def check_anchors(workload, anchors):
    """Compares the anchor outputs with reference.json; returns failures."""
    with open(REFERENCE, "r", encoding="utf-8") as handle:
        reference = json.load(handle)[workload]
    failures = []
    for name, expected in sorted(reference.items()):
        value = anchors.get(name)
        tolerance = expected["rel_tol"] * abs(expected["value"])
        if value is None or abs(value - expected["value"]) > tolerance:
            failures.append(
                f"anchor {name} = {value} outside {expected['value']} +- {tolerance:.3g}"
            )
    return len(reference), failures


def describe_metric(name, value, unit, better):
    """One printed metric line: name, value, unit and direction."""
    return f"{name} = {value:.6g} {unit} ({better} is better)"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        declared = load_declared(args.trace)
        build_binary()
        result = run_binary(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, OSError, ValueError, KeyError) as error:
        print(f"perfbench: error: {error}", file=sys.stderr)
        return 1

    anchor_checks, anchor_failures = check_anchors(args.workload, result["anchors"])
    failures = result["failures"] + anchor_failures
    attempted = result["attempted"] + anchor_checks
    metrics = dict(result["metrics"])
    metrics["failed_fraction"] = len(failures) / attempted

    missing = [m["name"] for m in declared if metrics.get(m["name"]) is None]
    if missing:
        print(f"perfbench: error: perfbench_workloads reported no {', '.join(missing)}", file=sys.stderr)
        return 1

    units = {m["name"]: (m["unit"], m["better"]) for m in declared}
    for name in sorted(metrics):
        unit, better = units.get(name) or SUPPLEMENTARY.get(name, ("", "neither"))
        if name in units or name in SUPPLEMENTARY:
            print(describe_metric(name, metrics[name], unit, better))
    for failure in failures:
        print(f"FAILED: {failure}")

    flat = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "correct": not failures, "attempted": attempted, "failed": len(failures)}
    flat.update(metrics)
    results_dir = os.path.join(BUILD_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    flat_path = os.path.join(
        results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(flat_path, "w", encoding="utf-8") as handle:
        json.dump(flat, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {os.path.relpath(flat_path, ROOT)}")

    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
