#!/usr/bin/env bash
# The full local lint gate: formatting and clippy (warnings are errors)
# over the workspace and the separate perfbench/ workspace,
# rustdoc (warnings are errors, including broken intra-doc links — the
# `docs/` markdown pages are included into the `mavfi-suite` crate docs, so
# the same gate covers them), smoke runs of the examples, a short run of
# every benchmark workload on this tree whose work counters must match the
# committed baseline (plus one traced golden_replan run), and a
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

# perfbench/ is a cargo workspace of its own, so the two steps above skip it.
echo "==> cargo fmt --check (perfbench)"
cargo fmt --manifest-path perfbench/Cargo.toml --check

echo "==> cargo clippy --all-targets -- -D warnings (perfbench)"
cargo clippy --offline --manifest-path perfbench/Cargo.toml --all-targets -- -D warnings

echo "==> RUSTDOCFLAGS=-Dwarnings cargo doc --no-deps (includes docs/*.md)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline --quiet

echo "==> telemetry_report example smoke run"
cargo run --release --offline -q --example telemetry_report >/dev/null

echo "==> golden traces replay bit-identically (retrace --verify)"
cargo run --release --offline -q --example retrace -- --verify >/dev/null

echo "==> campaign server kill/resume smoke (campaign_server --smoke)"
cargo run --release --offline -q --example campaign_server -- --smoke >/dev/null

echo "==> benchmark on this tree: every perfbench workload, 2 s, output checks pass, counters match tests/bench_counters"
# Each workload checks its own outputs (served results against the library
# CampaignExecutor::run_campaign byte for byte, the traced loop against
# MissionRunner::run)
# and reports them in the JSON object on its last line.  Its deterministic
# work counters must then equal the committed baseline.
for workload in golden_replan farm_protected served_campaigns; do
  output=$(cargo run --quiet --release --offline --manifest-path perfbench/Cargo.toml -- \
             --workload "$workload" --seconds 2 --trace 0)
  result=$(tail -n 1 <<<"$output")
  case "$result" in
    *'"correct": true'*) ;;
    *)
      echo "  $workload: output checks failed: $result"
      exit 1
      ;;
  esac
  ./scripts/bench_counters.sh --verify "$workload" <<<"$output"
done

echo "==> benchmark on this tree, traced: golden_replan, 2 s, ledger and traced loop check out"
# With tracing on, the run also checks that its traced copy of the mission
# loop equals MissionRunner::run byte for byte and that the per-layer
# ledger accounts for 95-105 % of traced wall time.
result=$(cargo run --quiet --release --offline --manifest-path perfbench/Cargo.toml -- \
           --workload golden_replan --seconds 2 --trace 1 | tail -n 1)
case "$result" in
  *'"correct": true'*) ;;
  *)
    echo "  golden_replan (traced): output checks failed: $result"
    exit 1
    ;;
esac

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
