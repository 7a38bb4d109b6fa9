#!/usr/bin/env python3
"""Check the committed benchmark trajectory records (BENCH_*.json).

Every record with schema "syclport-bench/1" must
  - carry the keys a reader needs to rerun and judge it (command,
    parent commit, host fingerprint, per-run results, summary);
  - hold one parent and one change run per pair;
  - summarise each metric with the median and quartiles (inclusive
    method) of its recorded runs, so a summary cannot drift from them;
  - show the claimed metric's change median better than the parent
    median, in the direction BENCHMARK.json gives that metric.

Usage: python3 tools/check_bench.py [FILE ...]
With no FILE, checks every BENCH_*.json at the repository root. Prints
each problem and exits 1 if there is any; stdlib only.
"""

import json
import math
import pathlib
import statistics
import sys

SCHEMA = "syclport-bench/1"
ROOT = pathlib.Path(__file__).resolve().parent.parent
TOP_KEYS = ("schema", "change", "parent", "workload", "claimed_metric",
            "command", "interleaving", "host", "pairs", "summary", "runs")
HOST_KEYS = ("cpu_model", "nproc", "compiler", "build_type")
STAT_KEYS = ("median", "q1", "q3", "iqr")
SIDES = ("parent", "change")


def directions():
    """Metric name -> "lower" or "higher", from BENCHMARK.json."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in bench["end_to_end"]}


def close(a, b):
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def check_summary(metric, summary, runs, problems):
    for side in SIDES:
        stats = summary.get(side)
        if not isinstance(stats, dict):
            problems.append(f"summary.{metric}.{side} missing")
            continue
        missing = [k for k in STAT_KEYS if k not in stats]
        if missing:
            problems.append(f"summary.{metric}.{side} lacks {missing}")
            continue
        values = [r[metric] for r in runs[side] if metric in r]
        if len(values) != len(runs[side]):
            problems.append(f"runs.{side}: some run lacks {metric}")
            continue
        q1, median, q3 = (statistics.quantiles(values, n=4,
                                               method="inclusive")
                          if len(values) > 1 else values * 3)
        for key, want in (("median", median), ("q1", q1), ("q3", q3),
                          ("iqr", q3 - q1)):
            if not close(stats[key], want):
                problems.append(
                    f"summary.{metric}.{side}.{key} is {stats[key]}, "
                    f"its runs give {want}")


def check(path, better):
    """Problems found in one record; empty when it passes."""
    record = json.loads(path.read_text())
    if record.get("schema") != SCHEMA:
        return None
    problems = [f"missing key {k}" for k in TOP_KEYS if k not in record]
    if problems:
        return problems
    problems += [f"host lacks {k}" for k in HOST_KEYS
                 if k not in record["host"]]
    runs = record["runs"]
    if any(not isinstance(runs.get(side), list) for side in SIDES):
        return problems + ["runs needs parent and change lists"]
    for side in SIDES:
        if len(runs[side]) != record["pairs"]:
            problems.append(f"runs.{side} has {len(runs[side])} runs, "
                            f"pairs is {record['pairs']}")
    for metric, summary in record["summary"].items():
        check_summary(metric, summary, runs, problems)

    claimed = record["claimed_metric"]
    if claimed not in better:
        return problems + [f"claimed metric {claimed} is not an "
                           "end-to-end metric of BENCHMARK.json"]
    if claimed not in record["summary"]:
        return problems + [f"summary lacks the claimed metric {claimed}"]
    parent = record["summary"][claimed]["parent"]["median"]
    change = record["summary"][claimed]["change"]["median"]
    gained = change < parent if better[claimed] == "lower" else change > parent
    if not gained:
        problems.append(f"claimed {claimed}: change median {change} is not "
                        f"{better[claimed]} than parent median {parent}")
    return problems


def main(argv):
    paths = ([pathlib.Path(a) for a in argv] if argv
             else sorted(ROOT.glob("BENCH_*.json")))
    better = directions()
    failed = False
    for path in paths:
        problems = check(path, better)
        if problems is None:
            print(f"{path.name}: skipped (schema is not {SCHEMA})")
        elif problems:
            failed = True
            for p in problems:
                print(f"{path.name}: {p}")
        else:
            print(f"{path.name}: ok")
    if not paths:
        print("no BENCH_*.json records found")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
