#!/usr/bin/env bash
# Builds the `cable` server binary and the benchmark from source, then
# runs one benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload paper-pipeline --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr; stdout carries only the benchmark report,
# whose last line is the JSON result. Builds land in $CARGO_TARGET_DIR
# (default `.bench_build`), so the measured process never compiles.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin cable >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
