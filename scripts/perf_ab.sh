#!/usr/bin/env bash
# Alternating A/B benchmark of this tree against an earlier revision.
#
# Usage: ./scripts/perf_ab.sh BASE_REV WORKLOAD [PAIRS=10] [SECONDS=20] [SEED=3]
#
#   BASE_REV  the revision to compare against, e.g. HEAD~1
#   WORKLOAD  a perfbench workload: golden_replan, farm_protected or
#             served_campaigns (see perfbench/README.md)
#
# The script exports BASE_REV into .bench_build/perf_ab-<sha>/ (a plain
# `git archive` copy, reused on later calls), builds the perfbench binary
# there and in this tree, and runs PAIRS pairs of SECONDS-second runs with
# the same seed, each run from its own tree's root.  The order alternates
# (base first in odd pairs, the change first in even ones) so that drift on
# the host falls on both sides.  The runs go to
# .bench_build/perf_ab-runs/<workload>-<time>/, and
# `perf_ab_summary` (crates/bench/src/bin/perf_ab_summary.rs) then prints,
# for every end-to-end metric in BENCHMARK.json, each side's median and
# quartiles and the change's win count, every run's `correct`/`failed`
# fields, and the counters of pair 1 that differ between the sides.
#
# Uncommitted changes in this tree are part of "the change"; the base is
# exactly BASE_REV.
set -euo pipefail
cd "$(dirname "$0")/.."

usage="usage: ./scripts/perf_ab.sh BASE_REV WORKLOAD [PAIRS=10] [SECONDS=20] [SEED=3]"
base_rev="${1:?$usage}"
workload="${2:?$usage}"
pairs="${3:-10}"
run_seconds="${4:-20}"
seed="${5:-3}"

base_sha=$(git rev-parse --verify "$base_rev^{commit}")
base_dir=".bench_build/perf_ab-$base_sha"
if [ ! -d "$base_dir" ]; then
  # Extract into a temporary directory and move it into place only once
  # the export is complete, so an interrupted export is never reused.
  echo "==> exporting $base_rev ($base_sha) to $base_dir"
  partial="$base_dir.partial"
  rm -rf "$partial"
  mkdir -p "$partial"
  git archive "$base_sha" | tar -x -C "$partial"
  mv "$partial" "$base_dir"
fi

echo "==> building perfbench (base, then change)"
for tree in "$base_dir" .; do
  cargo build --quiet --release --offline --manifest-path "$tree/perfbench/Cargo.toml"
done

runs=".bench_build/perf_ab-runs/$workload-$(date +%Y%m%d-%H%M%S)"
mkdir -p "$runs"
runs=$(cd "$runs" && pwd)

run_side() {
  local side=$1 tree=$2 pair=$3
  (cd "$tree" && ./perfbench/target/release/mavfi-perfbench --workload "$workload" \
     --seconds "$run_seconds" --seed "$seed" --trace 0) >"$runs/$side-$pair.txt"
  echo "  pair $pair $side: $(tail -n 1 "$runs/$side-$pair.txt")"
}

echo "==> $pairs pairs of $workload, ${run_seconds} s each, seed $seed -> $runs"
for pair in $(seq 1 "$pairs"); do
  if [ $((pair % 2)) -eq 1 ]; then
    run_side base "$base_dir" "$pair"
    run_side change . "$pair"
  else
    run_side change . "$pair"
    run_side base "$base_dir" "$pair"
  fi
done

echo "==> summary ($workload, base $base_rev, seed $seed)"
cargo run --quiet --release --offline -p mavfi-bench --bin perf_ab_summary -- \
  BENCHMARK.json "$runs"
