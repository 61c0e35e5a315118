#!/usr/bin/env bash
# Runs the whole benchmark twice on the same tree and compares the two result
# files: the benchmark must agree with itself within its own bounds on every
# (workload, end-to-end metric) pair. Extra arguments (--seed N, --quick) go
# to both runs. Exits non-zero if any pair regressed.
set -euo pipefail
cd "$(dirname "$0")/.."
benchmark/run.sh "$@" --out benchmark/out/selfcheck-a.json
benchmark/run.sh "$@" --out benchmark/out/selfcheck-b.json
benchmark/run.sh compare benchmark/out/selfcheck-a.json benchmark/out/selfcheck-b.json
