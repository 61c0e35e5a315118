#!/usr/bin/env bash
# Observability must be (nearly) free: the referee's untraced wire.tatp.d1
# (two depth-1 TATP connections over loopback, ~85% of each call in the
# reactor and sockets the obs layer instruments) with esdb-obs enabled must
# keep its tps within 5% of a build with it compiled out
# (RUSTFLAGS="--cfg obs_disabled", in a separate target dir so the two builds
# never thrash each other's caches). Best-of-N per variant, alternating, to
# tame the shared host's run-to-run noise.
set -euo pipefail
cd "$(dirname "$0")/.."

RUNS=${OBS_GATE_RUNS:-3}
TOLERANCE=${OBS_GATE_TOLERANCE:-0.95}

# tps of one untraced referee run: the last stdout line is the result JSON.
tps() {
    benchmark/run.sh --workload wire.tatp.d1 --seed 42 --seconds 10 --trace 0 \
        | tail -n 1 | sed -n 's/.*"tps": *{"value": *\([0-9.eE+-]*\).*/\1/p'
}

on=0 off=0
for _ in $(seq "$RUNS"); do
    run_on=$(tps)
    run_off=$(RUSTFLAGS="--cfg obs_disabled" CARGO_TARGET_DIR=target/obs-off tps)
    if [ -z "$run_on" ] || [ -z "$run_off" ]; then
        echo "no tps in the referee's result line" >&2
        exit 1
    fi
    on=$(awk -v a="$on" -v b="$run_on" 'BEGIN { print (b > a) ? b : a }')
    off=$(awk -v a="$off" -v b="$run_off" 'BEGIN { print (b > a) ? b : a }')
done
printf "obs-enabled best-of-%s: %.0f tps; obs-disabled best-of-%s: %.0f tps\n" \
    "$RUNS" "$on" "$RUNS" "$off"
awk -v on="$on" -v off="$off" -v tol="$TOLERANCE" 'BEGIN {
    if (on < tol * off) {
        printf "FAIL: obs overhead exceeds budget (enabled %.0f < %.2f x disabled %.0f)\n", on, tol, off
        exit 1
    }
    printf "OK: enabled/disabled = %.3f (>= %.2f)\n", on / off, tol
}'
