#!/usr/bin/env bash
# A/B host-time comparison on one machine: builds bench_e2e for a base
# revision (in a temporary git worktree) and for the working tree, runs
# alternating base/change pairs through bench/e2e/run.sh --results, and
# compares the two sets with bench/e2e/compare.py. Pairs taken back to back
# on the same host cancel out machine speed, which a checked-in baseline
# cannot. Exits with compare.py's code: 0 when nothing is worse, 1 when a
# metric is worse, 2 on unusable input (or when any run failed).
#
#   tools/ab_bench.sh --base REV [--pairs N] [--smoke] [--seed S]
#                     [--trace] [--out DIR] [--workload W ...]
#
# --pairs defaults to 10 (compare.py's minimum for a verdict of better);
# each run lasts BENCHMARK.json's run_seconds. Without --workload every
# workload runs. Pair i runs the base first when i is even and the change
# first when i is odd. --out keeps the result files (DIR/base/NN/ and
# DIR/change/NN/, plus each run's log); by default they go to a temporary
# directory that is removed on exit.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

base=""
pairs=10
out=""
run_args=()
workloads=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --base) base="$2"; shift 2 ;;
    --pairs) pairs="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
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
worktree="$scratch/base"
cleanup() {
  git -C "$root" worktree remove --force "$worktree" >/dev/null 2>&1 || true
  rm -rf "$scratch"
}
trap cleanup EXIT
if [[ -z "$out" ]]; then
  out="$scratch/results"
fi
mkdir -p "$out/base" "$out/change"

git -C "$root" worktree add --detach "$worktree" "$base_commit" >/dev/null

# Build both trees up front, the way run.sh does, so the timed runs below
# only ever find an up-to-date build.
jobs="$(nproc 2>/dev/null || echo 2)"
for tree in "$worktree" "$root"; do
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
    run_side base "$worktree" "$index"
    run_side change "$root" "$index"
  else
    run_side change "$root" "$index"
    run_side base "$worktree" "$index"
  fi
done

status=0
python3 "$root/bench/e2e/compare.py" "$out/base" "$out/change" \
  --benchmark "$root/BENCHMARK.json" || status=$?
if ((failed && status == 0)); then
  status=2  # a run failed: its set is incomplete
fi
exit "$status"
