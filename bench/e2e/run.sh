#!/usr/bin/env bash
# Builds bench_e2e (Release, into bench/e2e/build-bench/) and runs each
# workload in its own process, writing results/<workload>.json beside this
# script. report.py then checks each result against the metric names and
# units in BENCHMARK.json, prints "name value unit" for every metric and,
# as the last line, the result object of the last workload run. Exits
# non-zero on any failed run or check.
#
#   bash bench/e2e/run.sh [--workload W] [--seed S] [--trace [0|1]]
#                         [--smoke] [--seconds N] [--results DIR]
#
# Without --workload every workload runs. --trace alternates untraced and
# traced repetitions and reports the per-layer metrics (spans also go to
# results/<workload>.trace.json); --smoke runs one repetition at reduced
# sizes; --results writes the result files to DIR instead. BENCHMARK.json's
# command is run as `<command> --workload W --seed S --seconds N --trace
# 0|1`, so --trace also takes a value and --seconds is accepted; it
# defaults to BENCHMARK.json's run_seconds, and compare.py refuses to
# compare runs of different lengths.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$here/build-bench"
results="$here/results"

workloads=(paper-grid fattree-multijob lossy-elastic real-dp)
selected=()
seed=1
seconds=""
trace=0
smoke=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) selected+=("$2"); shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace)
      if [[ $# -gt 1 && ( "$2" == 0 || "$2" == 1 ) ]]; then
        trace="$2"; shift 2
      else
        trace=1; shift
      fi ;;
    --smoke) smoke=1; shift ;;
    --results) results="$2"; shift 2 ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done
if [[ ${#selected[@]} -eq 0 ]]; then
  selected=("${workloads[@]}")
fi
if [[ -z "$seconds" ]]; then
  seconds="$(python3 -c 'import json, sys
print(json.load(open(sys.argv[1]))["run_seconds"])' "$root/BENCHMARK.json")"
fi

jobs="$(nproc 2>/dev/null || echo 2)"
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target bench_e2e -j "$jobs" >&2

commit=unknown
if [[ -d "$root/.git" ]]; then
  commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
fi

mkdir -p "$results"
status=0
files=()
for workload in "${selected[@]}"; do
  file="$results/$workload.json"
  rm -f "$file"
  args=(--workload "$workload" --seed "$seed" --seconds "$seconds"
        --result-out "$file" --commit "$commit")
  if [[ "$trace" == 1 ]]; then
    args+=(--trace --trace-out "$results/$workload.trace.json")
  fi
  if [[ "$smoke" == 1 ]]; then
    args+=(--smoke)
  fi
  "$build/bench_e2e" "${args[@]}" || status=1
  files+=("$file")
done
python3 "$here/report.py" "$root/BENCHMARK.json" "${files[@]}" || status=1
exit "$status"
