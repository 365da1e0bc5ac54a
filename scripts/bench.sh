#!/usr/bin/env bash
# Runs the tick-path performance benches in a fixed, offline, single-core
# friendly configuration and appends timestamped entries to the bench log at
# the repository root.
#
# Usage: ./scripts/bench.sh [note] [outfile]
#        ./scripts/bench.sh --compare <old.json> [new.json]
#
#   note     free-form tag attached to every recorded entry (defaults to the
#            current git revision), e.g. ./scripts/bench.sh post-refactor
#   outfile  bench log to append to (defaults to $MAVFI_BENCH_LOG if set,
#            otherwise BENCH_10.json), e.g.
#            ./scripts/bench.sh post-refactor BENCH_10.json
#
#   --compare diffs two logs metric by metric without running any bench
#            (new.json defaults to the current log) and exits non-zero when
#            a headline metric regressed by more than 25% — see
#            crates/bench/src/bin/bench_compare.rs.
#
# The script runs the seven instrumented bench targets in quick mode:
#   - fig3_kernel_sensitivity  -> ticks/sec + ns/tick of the golden closed loop
#   - detector_micro           -> ns/score of the AAD reconstruction error
#   - replan_micro             -> ns/replan per planner + forced-replan ticks/sec
#   - replay_micro             -> record-overhead + ppc-only replay ticks/sec
#   - table2_overhead          -> ticks/sec of an AAD-protected mission
#   - worker_scaling           -> campaign-shaped protected ticks/sec on one
#                                 worker, worker-pool scaling curve
#   - serve_scaling            -> served-campaign jobs/sec per worker count,
#                                 service overhead vs the library call
# Full campaigns (paper tables/figures) are skipped; drop MAVFI_BENCH_QUICK
# below to include them.
set -euo pipefail
cd "$(dirname "$0")/.."

DEFAULT_LOG="${MAVFI_BENCH_LOG:-BENCH_10.json}"

if [ "${1:-}" = "--compare" ]; then
  OLD="${2:?usage: ./scripts/bench.sh --compare <old.json> [new.json]}"
  NEW="${3:-$DEFAULT_LOG}"
  exec cargo run -q --offline --release -p mavfi-bench --bin bench_compare -- "$OLD" "$NEW"
fi

NOTE="${1:-$(git rev-parse --short HEAD 2>/dev/null || echo untagged)}"
LOG="${2:-$DEFAULT_LOG}"
# The bench harness resolves a relative MAVFI_BENCH_LOG against *its* working
# directory (crates/bench); anchor the log to the repository root instead.
case "$LOG" in
  /*) ;;
  *) LOG="$PWD/$LOG" ;;
esac

export MAVFI_BENCH_QUICK=1
export MAVFI_BENCH_NOTE="$NOTE"
export MAVFI_BENCH_LOG="$LOG"
# Fixed fan-out so numbers are comparable across machines and runs.
export MAVFI_WORKERS=1
export MAVFI_RUNS=1

echo "==> bench.sh note='$NOTE' log='$LOG' (quick mode, 1 worker)"
cargo bench -q --offline -p mavfi-bench --bench fig3_kernel_sensitivity
cargo bench -q --offline -p mavfi-bench --bench detector_micro
cargo bench -q --offline -p mavfi-bench --bench replan_micro
cargo bench -q --offline -p mavfi-bench --bench replay_micro
cargo bench -q --offline -p mavfi-bench --bench table2_overhead
cargo bench -q --offline -p mavfi-bench --bench worker_scaling
cargo bench -q --offline -p mavfi-bench --bench serve_scaling

echo "==> appended entries to $LOG:"
tail -n 40 "$LOG"
