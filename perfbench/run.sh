#!/usr/bin/env bash
# Builds the release `coursenav` server from this checkout's sources and
# the benchmark binary, then runs one benchmark measurement:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); cargo's own messages go to stderr, so the last
# line on stdout is the benchmark's JSON result.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_NET_OFFLINE=true
cargo build -q --release --bin coursenav >&2
cargo build -q --release --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/coursenav-perfbench" \
  --server "$CARGO_TARGET_DIR/release/coursenav" "$@"
