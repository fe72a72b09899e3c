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

echo "==> smoke bench suite (every harness; writes bench_results/*.json, traces under target/)"
SICOST_BENCH_MODE=smoke cargo bench -q -p sicost-bench

echo "==> validate and fold bench reports"
scripts/bench_summary.sh

echo "==> all checks passed"
