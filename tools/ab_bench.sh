#!/usr/bin/env bash
# A/B host-time comparison on one machine: builds bench_e2e for a base
# revision (exported with git archive) and for the working tree, runs
# alternating base/change pairs through bench/e2e/run.sh --results, and
# compares the two sets with bench/e2e/compare.py. Pairs taken back to back
# on the same host cancel out machine speed, which a checked-in baseline
# cannot. Exits with compare.py's code: 0 when nothing is worse, 1 when a
# metric is worse, 2 on unusable input (or when any run failed).
#
#   tools/ab_bench.sh --base REV [--pairs N] [--smoke] [--seed S]
#                     [--trace] [--out DIR] [--ledger FILE]
#                     [--workload W ...]
#
# --pairs defaults to 10 (compare.py's minimum for a verdict of better);
# each run lasts BENCHMARK.json's run_seconds. Without --workload every
# workload runs. Pair i runs the base first when i is even and the change
# first when i is odd. --out keeps the result files (DIR/base/NN/ and
# DIR/change/NN/, plus each run's log); by default they go to a temporary
# directory that is removed on exit. --ledger appends one JSON line to FILE
# (the perf ledger, bench/history/e2e.jsonl): the working tree's commit
# ("-dirty" when it has uncommitted changes), the base, the host's nproc
# and SIMD tier, the run settings, and for every workload the change
# side's median over its runs of every metric and raw reading.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

base=""
pairs=10
out=""
ledger=""
run_args=()
workloads=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --base) base="$2"; shift 2 ;;
    --pairs) pairs="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    --ledger) ledger="$2"; shift 2 ;;
    --smoke) run_args+=(--smoke); shift ;;
    --trace) run_args+=(--trace 1); shift ;;
    --seed) run_args+=(--seed "$2"); shift 2 ;;
    --workload) workloads+=(--workload "$2"); shift 2 ;;
    *) echo "ab_bench.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done
if [[ -z "$base" ]]; then
  echo "ab_bench.sh: --base REV is required" >&2
  exit 2
fi
base_commit="$(git -C "$root" rev-parse --verify "$base^{commit}")"

scratch="$(mktemp -d)"
base_tree="$scratch/base"
trap 'rm -rf "$scratch"' EXIT
if [[ -z "$out" ]]; then
  out="$scratch/results"
fi
mkdir -p "$out/base" "$out/change"

mkdir -p "$base_tree"
git -C "$root" archive "$base_commit" | tar -x -C "$base_tree"

# Build both trees up front, the way run.sh does, so the timed runs below
# only ever find an up-to-date build.
jobs="$(nproc 2>/dev/null || echo 2)"
for tree in "$base_tree" "$root"; do
  echo "ab_bench.sh: building bench_e2e in $tree" >&2
  if ! { cmake -S "$tree/bench/e2e" -B "$tree/bench/e2e/build-bench" \
           -DCMAKE_BUILD_TYPE=Release &&
         cmake --build "$tree/bench/e2e/build-bench" --target bench_e2e \
           -j "$jobs"; } >"$scratch/build.log" 2>&1; then
    tail -n 40 "$scratch/build.log" >&2
    echo "ab_bench.sh: building bench_e2e in $tree failed" >&2
    exit 2
  fi
done

run_side() {
  local side="$1" tree="$2" index="$3"
  local dir="$out/$side/$index"
  mkdir -p "$dir"
  echo "ab_bench.sh: pair $index $side" >&2
  if ! bash "$tree/bench/e2e/run.sh" --results "$dir" \
      ${workloads[@]+"${workloads[@]}"} ${run_args[@]+"${run_args[@]}"} \
      >"$dir/run.log" 2>&1; then
    echo "ab_bench.sh: $side run $index failed; see $dir/run.log" >&2
    tail -n 20 "$dir/run.log" >&2
    failed=1
  fi
}

failed=0
for ((i = 0; i < pairs; i++)); do
  index="$(printf '%02d' "$i")"
  if ((i % 2 == 0)); then
    run_side base "$base_tree" "$index"
    run_side change "$root" "$index"
  else
    run_side change "$root" "$index"
    run_side base "$base_tree" "$index"
  fi
done

status=0
python3 "$root/bench/e2e/compare.py" "$out/base" "$out/change" \
  --benchmark "$root/BENCHMARK.json" || status=$?
if ((failed && status == 0)); then
  status=2  # a run failed: its set is incomplete
fi

if [[ -n "$ledger" ]] && ((!failed)); then
  commit="$(git -C "$root" rev-parse HEAD)"
  if [[ -n "$(git -C "$root" status --porcelain --untracked-files=no)" ]]; then
    commit="$commit-dirty"
  fi
  python3 - "$out/change" "$commit" "$base_commit" "$pairs" >>"$ledger" \
      <<'PY'
import json
import statistics
import sys
from pathlib import Path

change, commit, base, pairs = sys.argv[1:]
host = {}
settings = {}
runs = {}
for path in sorted(Path(change).rglob("*.json")):
    record = json.loads(path.read_text())
    if "workload" not in record or "metrics" not in record:
        continue
    host = record["host"]
    settings = {key: record[key]
                for key in ("seed", "seconds", "trace", "smoke")}
    workload = runs.setdefault(record["workload"], {})
    for group in ("metrics", "raw"):
        for name, reading in record.get(group, {}).items():
            workload.setdefault(group, {}).setdefault(name, []).append(
                reading["value"])
line = {
    "commit": commit,
    "base": base,
    "nproc": host.get("nproc"),
    "simd_tier": host.get("simd_tier"),
    "pairs": int(pairs),
    **settings,
    "workloads": {
        name: {group: {metric: statistics.median(values)
                       for metric, values in sorted(readings.items())}
               for group, readings in sorted(groups.items())}
        for name, groups in sorted(runs.items())
    },
}
print(json.dumps(line, sort_keys=False))
PY
fi
exit "$status"
