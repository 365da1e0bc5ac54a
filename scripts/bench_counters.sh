#!/usr/bin/env bash
# The committed counter baseline (tests/bench_counters/<workload>.txt):
# the deterministic work counters perfbench prints as `counter NAME VALUE`
# lines for each workload at its default seed (3), one `NAME VALUE` line
# per counter.  Counters are per pass (ticks, replans, per-kernel calls,
# alarms, outcome digests) or per served campaign (result digests,
# chunks), so any run length gives the same values.
#
# Usage: ./scripts/bench_counters.sh
#            Runs every workload for 5 s and rewrites the baseline.  Run
#            it after an intentional behaviour change breaks the counter
#            gate in scripts/check.sh, review the diff, and commit the
#            baseline together with the change that moved it.
#        ./scripts/bench_counters.sh --verify WORKLOAD < perfbench-output
#            Compares the counters of one perfbench run (its stdout, on
#            standard input) with WORKLOAD's baseline.  Mission workloads
#            must print exactly the baseline's counters with equal values.
#            served_campaigns completes a number of campaigns that depends
#            on the host, so only the counters both sides have are
#            compared, and at least one campaign (`job.*`) must be among
#            them.  Prints every differing counter and exits non-zero on
#            any difference.
set -euo pipefail
cd "$(dirname "$0")/.."

baseline_dir=tests/bench_counters
export LC_ALL=C

# `counter NAME VALUE` lines of perfbench output -> `NAME VALUE`, sorted.
counters() { awk '$1 == "counter" { print $2, $3 }' | sort; }

if [ "${1:-}" = "--verify" ]; then
  workload="${2:?usage: ./scripts/bench_counters.sh --verify WORKLOAD < perfbench-output}"
  baseline="$baseline_dir/$workload.txt"
  if [ ! -f "$baseline" ]; then
    echo "  $workload: no counter baseline at $baseline"
    exit 1
  fi
  fresh=$(counters)
  if [ -z "$fresh" ]; then
    echo "  $workload: the run printed no counter lines"
    exit 1
  fi
  if [ "$workload" = served_campaigns ]; then
    # NAME BASELINE FRESH for the counters both sides have.
    paired=$(join <(sort "$baseline") <(printf '%s\n' "$fresh"))
    if ! grep -q '^job\.' <<<"$paired"; then
      echo "  $workload: no completed campaign in common with the baseline"
      exit 1
    fi
  else
    # NAME BASELINE FRESH for the counters either side has.
    paired=$(join -a 1 -a 2 -e missing -o 0,1.2,2.2 <(sort "$baseline") <(printf '%s\n' "$fresh"))
  fi
  differing=$(awk '$2 != $3 { printf "  %-44s baseline %s, this run %s\n", $1, $2, $3 }' \
                <<<"$paired")
  if [ -n "$differing" ]; then
    echo "  $workload: work counters differ from $baseline:"
    echo "$differing"
    echo "  If the change is intended, regenerate the baseline with ./scripts/bench_counters.sh"
    exit 1
  fi
  exit 0
fi

mkdir -p "$baseline_dir"
for workload in golden_replan farm_protected served_campaigns; do
  echo "==> $workload, 5 s"
  output=$(cargo run --quiet --release --offline --manifest-path perfbench/Cargo.toml -- \
             --workload "$workload" --seconds 5 --trace 0)
  case "$(tail -n 1 <<<"$output")" in
    *'"correct": true'*) ;;
    *)
      echo "  $workload: output checks failed; baseline left unchanged"
      exit 1
      ;;
  esac
  counters <<<"$output" >"$baseline_dir/$workload.txt"
done

echo "Counter baseline regenerated; review 'git diff tests/bench_counters'."
