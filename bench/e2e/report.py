#!/usr/bin/env python3
"""Checks bench_e2e result files against BENCHMARK.json and prints them.

    python3 bench/e2e/report.py BENCHMARK.json RESULT.json...

BENCHMARK.json is the one list of metric names and units; bench_e2e
writes names and values only. For each result file, in order, the script
checks that every metric the run computed is declared (under end_to_end for
an untraced run, per_layer for a traced one) and that an untraced run
computed every end-to-end metric. It adds each metric's unit, writes the
file back, prints "name value unit" for every declared metric and then the
result object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

so the last line printed is the last file's result. A per-layer metric the
workload does not exercise reads 0. When the traced results of every
workload in BENCHMARK.json are given together, each per-layer metric must
have come from at least one of them.

Exits 1 when a run failed or a check fails, 2 on unusable input.
"""

import json
import sys
from pathlib import Path


def fail(message):
    print(f"report.py: {message}", file=sys.stderr)
    return 1


def main(argv):
    if len(argv) < 3:
        print("usage: " + __doc__.strip().splitlines()[2].strip(),
              file=sys.stderr)
        return 2
    spec = json.loads(Path(argv[1]).read_text())
    declared = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    status = 0
    produced = set()
    traced_workloads = set()
    for path in map(Path, argv[2:]):
        try:
            record = json.loads(path.read_text())
        except (OSError, ValueError) as error:
            status = fail(f"cannot read {path}: {error}")
            continue
        traced = bool(record["trace"])
        units = declared[traced]
        section = "per_layer" if traced else "end_to_end"
        metrics = record["metrics"]
        unknown = sorted(set(metrics) - set(units))
        missing = [] if traced else sorted(set(units) - set(metrics))
        if unknown or missing:
            status = fail(
                f"{path}: metrics not in BENCHMARK.json's {section}: "
                f"{unknown}; declared but not computed: {missing}")
            continue
        if traced:
            produced |= set(metrics)
            traced_workloads.add(record["workload"])
        metrics = {name: {"value": 0.0, "p25": 0.0, "p75": 0.0, "n": 0,
                          **metrics.get(name, {}), "unit": unit}
                   for name, unit in units.items()}
        record["metrics"] = metrics
        path.write_text(json.dumps(record) + "\n")

        print(f"-- {record['workload']} seed {record['seed']}"
              f"{' traced' if traced else ''} --")
        for name, entry in metrics.items():
            print(f"{name:<36} {entry['value']:.6g} {entry['unit']}  "
                  f"(p25 {entry['p25']:.6g}, p75 {entry['p75']:.6g}, "
                  f"n={entry['n']})")
        if not record["correct"]:
            status = 1
        result = {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {name: {"value": entry["value"], "unit": entry["unit"]}
                        for name, entry in metrics.items()},
        }
        print(json.dumps(result), flush=True)

    every_workload = {w["name"] for w in spec["workloads"]}
    if every_workload <= traced_workloads:
        never = sorted(set(declared[True]) - produced)
        if never:
            status = fail(f"per-layer metrics no workload computed: {never}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
