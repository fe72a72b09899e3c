#!/usr/bin/env bash
# Repository check: format, lint, docs, build, test, smoke benches — what CI runs.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
if cargo fmt --version >/dev/null 2>&1; then
    cargo fmt --all -- --check
else
    echo "    rustfmt unavailable; skipped"
fi

echo "==> cargo clippy (workspace, all targets, -D warnings)"
if cargo clippy --version >/dev/null 2>&1; then
    cargo clippy --workspace --all-targets -- -D warnings
else
    echo "    clippy unavailable; skipped"
fi

echo "==> cargo doc --workspace --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q (workspace: unit, integration, crash-recovery torture, sim smoke, server smoke, robustness cross-validation)"
cargo test --workspace -q

# The smoke reports and their fold go under target/bench-smoke/, so a
# check never rewrites the committed bench_results/ or BENCH_smallbank.json.
# Cargo runs benches from the package directory, hence the absolute path.
smoke="$PWD/target/bench-smoke"
export SICOST_BENCH_RESULTS="$smoke" SICOST_BENCH_SUMMARY="$smoke/BENCH_smallbank.json"

echo "==> smoke bench suite (every harness; writes target/bench-smoke/*.json, traces under target/)"
SICOST_BENCH_MODE=smoke cargo bench -q -p sicost-bench

echo "==> validate and fold bench reports into target/bench-smoke/BENCH_smallbank.json"
scripts/bench_summary.sh

echo "==> all checks passed"
