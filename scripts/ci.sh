#!/usr/bin/env bash
# CI gate for esdb: tier-1 correctness, the whole workspace's suites at full
# size, and one measurement system — the referee (benchmark/).
#
# Tier 1 (must stay green): release build + `cargo test -q`, which covers
# the root package and every crate under crates/ (the workspace's
# default-members; the vendored stand-ins stay out) at the sizes that keep
# a debug run near 80 s of summed test time. The workspace stage below runs
# the same suites once more in release with the full-size knobs (300 checker
# schedules, a 1000-session idle herd), and without the checker's fault
# seams compiled into the engine wherever no test needs them. The referee
# builds and tests itself, then runs every workload once at --quick size
# with every output oracle; the obs overhead gate runs one of its workloads
# with obs compiled in and out. Smokes (seconds, not minutes) run the fig1,
# crash_torture and tab_htap binaries at reduced sizes via the env knobs
# they expose.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier 1: build =="
cargo build --release

echo "== tier 1: tests (the whole workspace) =="
# Prints the summed test time, the figure ROADMAP item 14 watches. A report,
# not a gate.
cargo test -q 2>&1 | tee target/tier1-tests.log
awk '/finished in/ { sub(/s$/, "", $NF); t += $NF } END { printf "tier 1: %.1f s of summed test time\n", t }' target/tier1-tests.log

echo "== referee: benchmark package builds against the program and passes its own tests =="
# benchmark/ is a package of its own (path-deps on crates/*), so tier 1 never
# compiles it: a program change that breaks the public surface listed in
# benchmark/src/sut.rs must fail here, not in the next refereed run.
(cd benchmark && cargo build --release --offline && cargo test --offline -q)

echo "== workspace: every suite in release, full-size knobs, engine as shipped =="
# Two runs that together cover tier 1's default-members once, so a new
# crate or test file is covered without naming it here. They split on the
# `chaos` feature. esdb-check turns on esdb-txn's and esdb-dora's fault
# seams (runtime flags, off unless a mutation test sets one), and cargo
# unifies features over every package a run selects, so tier 1's own run
# compiles the engine with the seams in. The first run selects neither the
# checker nor the two crates that test through it, and checks that nothing
# else turns the seams on: it tests the engine as it ships, net_scale's idle
# herd of 1000 sessions against an active one (p99 bounded) included. The
# second runs those three: the checker's clean sweep over 300 seeded
# schedules, and both mutations (early lock release, wait-die disabled)
# caught with a replayed, shrunk trace.
shipped=(--workspace --exclude esdb-check --exclude esdb-repl --exclude esdb-rebal)
# Each vendored stand-in's directory is named after its package.
for dir in vendor/*/; do shipped+=(--exclude "$(basename "$dir")"); done
features=$(cargo tree -q -e features -i esdb-txn -i esdb-dora "${shipped[@]}")
if grep -q chaos <<<"$features"; then
    echo "FAIL: a package outside esdb-check, esdb-repl and esdb-rebal turns on the chaos seams" >&2
    exit 1
fi
NET_SCALE_CONNS=1000 cargo test --release -q "${shipped[@]}"
CHECK_SCHEDULES=300 cargo test --release -q -p esdb-check -p esdb-repl -p esdb-rebal
cargo build --release -q -p esdb-bench --benches

echo "== seam: sockets are named only in esdb-net, and read in one function =="
# ROADMAP item 4's premise (a Transport + Clock seam under the sessions is a
# single-site edit), kept true mechanically. No crate outside net names a
# socket type. Inside it, a stream read compiles only where `std::io::Read`
# is in scope, so that is what is counted: reactor.rs imports it once, as
# `IoRead`, and names it once more — the bound on FrameCursor::fill_from's
# source. A second import, or a third mention, is a second read site.
if grep -rnE 'Tcp(Stream|Listener)' crates/*/src --include='*.rs' | grep -v '^crates/net/src/'; then
    echo "FAIL: a socket type is named outside crates/net/src" >&2
    exit 1
fi
io_read=$(grep -nE '\bIoRead\b|io::(\{[^}]*)?\bRead\b|io::(prelude::)?\*' crates/net/src/*.rs || true)
if [ "$(echo "$io_read" | grep -c .)" -ne 2 ] || [ "$(echo "$io_read" | grep -c 'fn fill_from')" -ne 1 ]; then
    echo "FAIL: expected io::Read in crates/net/src only as reactor.rs's import and fill_from's bound, found:" >&2
    echo "$io_read" >&2
    exit 1
fi

echo "== seam: a coordinator log in shard or rebal is a DurableFsm =="
# ROADMAP item 11(b)'s ratchet. esdb_wal::DurableFsm owns the write-ahead
# order and the recovery fold for every coordinator log; a private Wal or a
# hand-written successor stream in these crates is a second copy of both.
if grep -rnE 'Wal::new\(|\.successor\(' crates/shard/src crates/rebal/src --include='*.rs'; then
    echo "FAIL: a private Wal in crates/shard/src or crates/rebal/src; use esdb_wal::DurableFsm" >&2
    exit 1
fi

echo "== seam: no unwrap or expect in the reactor or the server =="
# ROADMAP item 16's ratchet. A reactor thread has no catch_unwind, so a
# panic there kills every session on that reactor: neither file may hold an
# `.unwrap()` or an `.expect(`. A config the types allow is handled, not
# asserted away.
if grep -nE '\.unwrap\(\)|\.expect\(' crates/net/src/reactor.rs crates/net/src/server.rs; then
    echo "FAIL: unwrap/expect in crates/net/src/reactor.rs or server.rs" >&2
    exit 1
fi

echo "== smoke: fig1_scaling (reduced sweep) =="
FIG1_CONTEXTS="1,4" FIG1_SUBSCRIBERS=1000 \
    cargo run --release -p esdb-bench --bin fig1_scaling

echo "== smoke: crash_torture (seeded, reduced iterations) =="
CRASH_ITERS=10 CRASH_SEED=42 CRASH_TXNS=50 \
    cargo run --release -p esdb-bench --bin crash_torture

echo "== gate: obs overhead (referee wire.tatp.d1, enabled within 5% of compiled-out) =="
# Reuses the referee stage's build for the obs-enabled side.
CARGO_TARGET_DIR=benchmark/target scripts/obs_overhead_gate.sh

echo "== smoke: htap (follower OLAP under primary writes, index=scan + token-pinned query) =="
# Reduced tab_htap run (<10 s): one rep, small burst. The run itself asserts
# the correctness cells — every index-assisted probe equal to its full-scan
# twin, and a commit-token-pinned analytical query served by the follower.
TABH_WRITERS=2 TABH_WRITES=500 TABH_REPS=1 \
    cargo run --release -q -p esdb-bench --bin tab_htap

echo "== referee: every workload once, every output oracle (--quick) =="
# Fails if any workload's oracle fails or any call errors: TPC-B
# conservation, ServerStats = client-observed commits on the wire, the 2PC
# participants left with nothing prepared, every staged result equal to
# Volcano's. Reuses the referee stage's build.
CARGO_TARGET_DIR=benchmark/target benchmark/run.sh --quick --out target/referee-quick.json

echo "== ci: all green =="
