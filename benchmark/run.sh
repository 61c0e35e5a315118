#!/usr/bin/env bash
# Builds the benchmark package and runs it. Arguments pass straight through:
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one workload in this process; last stdout line is the result JSON
#   benchmark/run.sh [--seed N] [--trace] [--quick] [--out FILE]
#       every workload, one pinned process each, plus a combined result file
#   benchmark/run.sh compare BASE.json NEW.json
#
# Runs from the repository root whatever the caller's directory; build
# chatter goes to stderr so stdout stays the benchmark's own.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/esdb-benchmark" "$@"
