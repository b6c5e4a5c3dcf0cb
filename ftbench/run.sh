#!/usr/bin/env bash
# Build ft-server and the benchmark from source, then run one benchmark
# pass. Run from the repository root:
#
#   bash ftbench/run.sh --workload quote --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; the result JSON is the last stdout line.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p ft-server --bin ft-server >&2
cargo build --release --offline --quiet --manifest-path ftbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/ftbench" --server-bin "$CARGO_TARGET_DIR/release/ft-server" "$@"
