#!/usr/bin/env python3
"""Compares two sets of bench_e2e result files, workload by workload.

    python3 bench/e2e/compare.py A/ B/ [--benchmark BENCHMARK.json]

A and B are directories holding results/<workload>.json files from
several runs each (any layout below them; every *.json with a "workload"
key counts). A is the parent, B the change. Runs of a set pair up in file
name order. For every workload x metric the script prints each set's
median and quartiles, the pairs B won, and a verdict:

  better      B wins at least 9/10 of at least ten pairs (ties count for
              neither) and the medians differ by more than A's
              interquartile range.
  worse       B's median is worse than A's by more than the metric's bound,
              and the spread is within the bound (or every run of B reads
              worse than every run of A). Per-layer metrics have no bound:
              worse mirrors better.
  unresolved  The spread between runs is wider than the bound, so a
              difference within it cannot be called; or B would be better
              (per-layer: better or worse) by its pairs, but there are
              fewer than ten.
  unchanged   Otherwise.

Bounds and directions come from BENCHMARK.json. Results taken on hosts with
a different CPU count or SIMD tier, or with a different --seconds or
--smoke, are refused. Exits 1 when any metric is worse, 2 on unusable input.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

HOST_KEYS = ("nproc", "simd_tier")
MIN_PAIRS = 10


def load_set(directory):
    runs = {}
    for path in sorted(Path(directory).rglob("*.json")):
        try:
            record = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if not isinstance(record, dict) or "workload" not in record:
            continue
        if "metrics" not in record or "host" not in record:
            continue
        key = (record["workload"], bool(record.get("trace")))
        runs.setdefault(key, []).append((path, record))
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(a, b, better, bound):
    """Verdict for B against A; `better` is "higher" or "lower"."""
    sign = 1.0 if better == "higher" else -1.0
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    pairs = list(zip(a, b))
    b_wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    a_wins = sum(1 for x, y in pairs if sign * (x - y) > 0)
    gain = sign * (b_med - a_med)  # positive: B is better
    iqr = a_q3 - a_q1
    needed = 0.9 * len(pairs)
    enough = len(pairs) >= MIN_PAIRS
    if pairs and b_wins >= needed and gain > iqr:
        return "better" if enough else "unresolved", b_wins, len(pairs)
    if bound is None:
        if pairs and a_wins >= needed and -gain > iqr:
            return "worse" if enough else "unresolved", b_wins, len(pairs)
        return "unchanged", b_wins, len(pairs)
    scale = abs(a_med) if a_med != 0 else 1.0
    spread = max(iqr / scale, (b_q3 - b_q1) / scale)
    all_b_worse = all(sign * (y - x) < 0 for x in a for y in b)
    if -gain > bound * scale:
        if spread <= bound or all_b_worse:
            return "worse", b_wins, len(pairs)
        return "unresolved", b_wins, len(pairs)
    if spread > bound:
        return "unresolved", b_wins, len(pairs)
    return "unchanged", b_wins, len(pairs)


def setting_of(record):
    """What two sets must share: host CPU count, SIMD tier, run length."""
    host = record.get("host", {})
    return (tuple(host.get(key) for key in HOST_KEYS)
            + (record.get("seconds"), record.get("smoke")))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="directory of the parent's results")
    parser.add_argument("b", help="directory of the change's results")
    parser.add_argument(
        "--benchmark",
        default=str(Path(__file__).resolve().parents[2] / "BENCHMARK.json"),
        help="BENCHMARK.json with the metric bounds")
    args = parser.parse_args()

    spec = json.loads(Path(args.benchmark).read_text())
    metrics = {}
    for entry in spec["end_to_end"]:
        metrics[entry["name"]] = (entry["better"], entry["bound"])
    for entry in spec["per_layer"]:
        metrics[entry["name"]] = (entry["better"], None)

    set_a, set_b = load_set(args.a), load_set(args.b)
    if not set_a or not set_b:
        print("compare.py: no result files in one of the sets", file=sys.stderr)
        return 2
    settings = {setting_of(record)
                for runs in list(set_a.values()) + list(set_b.values())
                for _, record in runs}
    if len(settings) != 1:
        print("compare.py: refusing to compare results from different hosts, "
              "SIMD tiers or run lengths (nproc, simd_tier, seconds, smoke): "
              f"{sorted(map(str, settings))}", file=sys.stderr)
        return 2

    any_worse = False
    print(f"{'workload':<24} {'metric':<34} {'A median [q1, q3]':<36} "
          f"{'B median [q1, q3]':<36} {'B wins':<8} verdict")
    for key in sorted(set(set_a) & set(set_b)):
        workload, traced = key
        label = workload + (" (trace)" if traced else "")
        runs_a, runs_b = set_a[key], set_b[key]
        for name in runs_a[0][1]["metrics"]:
            if name not in metrics:
                continue
            a = [r["metrics"][name]["value"] for _, r in runs_a
                 if name in r["metrics"]]
            b = [r["metrics"][name]["value"] for _, r in runs_b
                 if name in r["metrics"]]
            if not a or not b:
                continue
            better, bound = metrics[name]
            result, wins, pairs = verdict(a, b, better, bound)
            any_worse |= result == "worse"
            cells = []
            for values in (a, b):
                q1, median, q3 = quartiles(values)
                cells.append(f"{median:.6g} [{q1:.6g}, {q3:.6g}]")
            print(f"{label:<24} {name:<34} {cells[0]:<36} {cells[1]:<36} "
                  f"{wins}/{pairs:<6} {result}")
    missing = sorted(set(set_a) ^ set(set_b))
    for workload, traced in missing:
        print(f"{workload}{' (trace)' if traced else ''}: "
              "results in only one set, not compared")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
