#!/usr/bin/env bash
# The full local lint gate: formatting, clippy (warnings are errors),
# rustdoc (warnings are errors, including broken intra-doc links — the
# `docs/` markdown pages are included into the `mavfi-suite` crate docs, so
# the same gate covers them), smoke runs of the examples, the bench-log
# gate, a short run of every benchmark workload on this tree, and a
# relative-link existence check over the repository's markdown
# documentation.
#
# Usage: ./scripts/check.sh
#
# This is the cheap half of CI (.github/workflows/ci.yml); it does not run
# the test suite, which takes ~30+ minutes on a small machine — use
# `cargo test -q` for that.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> RUSTDOCFLAGS=-Dwarnings cargo doc --no-deps (includes docs/*.md)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline --quiet

echo "==> telemetry_report example smoke run"
cargo run --release --offline -q --example telemetry_report >/dev/null

echo "==> golden traces replay bit-identically (retrace --verify)"
cargo run --release --offline -q --example retrace -- --verify >/dev/null

echo "==> campaign server kill/resume smoke (campaign_server --smoke)"
cargo run --release --offline -q --example campaign_server -- --smoke >/dev/null

echo "==> bench log gate: BENCH_9.json -> BENCH_10.json (bench_compare)"
./scripts/bench.sh --compare BENCH_9.json BENCH_10.json >/dev/null

echo "==> benchmark on this tree: every perfbench workload, 2 s, output checks pass"
# Each workload checks its own outputs (served results against the library
# run_campaign byte for byte, the traced loop against MissionRunner::run)
# and reports them in the JSON object on its last line.
for workload in golden_replan farm_protected served_campaigns; do
  result=$(cargo run --quiet --release --offline --manifest-path perfbench/Cargo.toml -- \
             --workload "$workload" --seconds 2 --trace 0 | tail -n 1)
  case "$result" in
    *'"correct": true'*) ;;
    *)
      echo "  $workload: output checks failed: $result"
      exit 1
      ;;
  esac
done

echo "==> markdown relative links resolve (README.md, docs/, CHANGES.md)"
broken=0
for file in README.md CHANGES.md docs/*.md; do
  dir=$(dirname "$file")
  # Extract relative markdown link targets: [text](target), skipping
  # absolute URLs and in-page anchors.
  while IFS= read -r target; do
    target="${target%%#*}"
    [ -z "$target" ] && continue
    if [ ! -e "$dir/$target" ] && [ ! -e "$target" ]; then
      echo "  broken link in $file: $target"
      broken=1
    fi
  done < <(grep -oE '\]\(([^)]+)\)' "$file" | sed -E 's/^\]\(//; s/\)$//' \
             | grep -vE '^(https?|mailto):' || true)
done
if [ "$broken" -ne 0 ]; then
  echo "Broken documentation links found."
  exit 1
fi

echo "All checks passed."
