#!/usr/bin/env python3
"""Compare two BENCH_*.json files field by field.

Walks both documents together (nested objects included), prints every
numeric field side by side with the relative change, and exits non-zero
when a throughput-like field regressed by more than the threshold.

Only standard-library modules are used, so the script runs anywhere the
CI's python3 runs.

Usage:
    tools/bench_diff.py BASELINE.json CANDIDATE.json [--threshold 0.10]

Regression direction is inferred from the field name (_DIRECTION_RULES):
names containing _s_per_step, _s_per_run, _ms, wall_s, _time_s or
iterations are better-smaller; names containing _per_s or speedup are
better-larger; anything else (counts, fractions, bounds, shape anchors,
other *_s times) is informational only (printed, never failing). See
docs/BENCHMARKS.md.
"""

import argparse
import json
import sys

# (substring, better) rules, first match wins. "larger"/"smaller" fields
# gate the exit status; None = informational. The per-unit times come
# first because "_s_per_step" contains "_per_s".
_DIRECTION_RULES = [
    ("_s_per_step", "smaller"),
    ("_s_per_run", "smaller"),
    ("_per_s", "larger"),
    ("speedup", "larger"),
    ("_ms", "smaller"),
    ("wall_s", "smaller"),
    ("_time_s", "smaller"),
    ("iterations", "smaller"),
]


def direction(field_name):
    for pattern, better in _DIRECTION_RULES:
        if field_name.endswith(pattern) or pattern in field_name:
            return better
    return None


def walk(prefix, value, out):
    """Flattens nested dicts into {dotted.path: number}."""
    if isinstance(value, dict):
        for key, child in value.items():
            walk(f"{prefix}.{key}" if prefix else key, child, out)
    elif isinstance(value, bool):
        pass  # bools are not measurements
    elif isinstance(value, (int, float)):
        out[prefix] = float(value)


def load_fields(path):
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    fields = {}
    walk("", document, fields)
    return fields


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="baseline BENCH_*.json")
    parser.add_argument("candidate", help="candidate BENCH_*.json")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.10,
        help="relative regression that fails the comparison (default 0.10 = 10%%)",
    )
    args = parser.parse_args(argv)
    if args.threshold < 0.0:
        parser.error("--threshold must be >= 0")

    base = load_fields(args.baseline)
    cand = load_fields(args.candidate)

    regressions = []
    width = max((len(name) for name in base.keys() | cand.keys()), default=0)
    for name in sorted(base.keys() | cand.keys()):
        if name not in base:
            print(f"{name:<{width}}  (only in candidate: {cand[name]:.6g})")
            continue
        if name not in cand:
            print(f"{name:<{width}}  (only in baseline: {base[name]:.6g})")
            continue
        b, c = base[name], cand[name]
        rel = (c - b) / abs(b) if b != 0.0 else (0.0 if c == 0.0 else float("inf"))
        better = direction(name)
        marker = ""
        if better == "larger" and rel < -args.threshold:
            marker = "  REGRESSED"
        elif better == "smaller" and rel > args.threshold:
            marker = "  REGRESSED"
        if marker:
            regressions.append(name)
        print(f"{name:<{width}}  {b:>14.6g} -> {c:>14.6g}  ({rel:+.1%}){marker}")

    if regressions:
        print(
            f"\n{len(regressions)} field(s) regressed past "
            f"{args.threshold:.0%}: {', '.join(regressions)}",
            file=sys.stderr,
        )
        return 1
    print("\nno regressions past the threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
