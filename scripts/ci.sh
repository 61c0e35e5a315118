#!/usr/bin/env bash
# CI gate for esdb: tier-1 correctness, the whole workspace's suites at full
# size, and one measurement system — the referee (benchmark/).
#
# Tier 1 (must stay green): release build + `cargo test -q`, which covers
# the root package and every crate under crates/ (the workspace's
# default-members; the vendored stand-ins stay out) at the sizes that keep
# a debug run near 80 s of summed test time. The workspace stage below runs
# the same suites once more in release with the full-size knobs (300 checker
# schedules, a 1000-session idle herd). The referee builds and tests itself,
# then runs every workload once at --quick size with every output oracle;
# the obs overhead gate runs one of its workloads with obs compiled in and
# out. Smokes (seconds, not minutes) run the fig1,
# crash_torture and tab_htap binaries at reduced sizes via the env knobs
# they expose, and fig5_staged at its full size.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier 1: build =="
cargo build --release

echo "== tier 1: tests (the whole workspace) =="
# Prints the summed test time, the figure ROADMAP item 14 watches. A report,
# not a gate.
cargo test -q 2>&1 | tee target/tier1-tests.log
awk '/finished in/ { sub(/s$/, "", $NF); t += $NF } END { printf "tier 1: %.1f s of summed test time\n", t }' target/tier1-tests.log
# The per-transaction counts tests/critical_path.rs pins (lock and release
# visits, pins, allocations, log bytes and flushes per row), so a count that
# moves shows in the log. A report, not a gate: the test itself is the gate.
cargo test -q --test critical_path -- --nocapture 2>&1 | grep -E '^[a-z][a-z_.]*: ' || true

echo "== referee: benchmark package builds against the program and passes its own tests =="
# benchmark/ is a package of its own (path-deps on crates/*), so tier 1 never
# compiles it: a program change that breaks the public surface listed in
# benchmark/src/sut.rs must fail here, not in the next refereed run.
(cd benchmark && cargo build --release --offline && cargo test --offline -q)

echo "== workspace: every suite in release, full-size knobs =="
# One run over tier 1's default-members, so a new crate or test file is
# covered without naming it here: the checker's clean sweep over 300 seeded
# schedules with the three mutations (early lock release, wait-die
# disabled, inheritance kept across a revoke) caught with a replayed, shrunk
# trace, and net_scale's idle herd of 1000
# sessions against an active one (p99 bounded). The mutations are answers of
# the checker's scheduler hook, not Cargo features, so this builds the
# engine exactly as it ships.
NET_SCALE_CONNS=1000 CHECK_SCHEDULES=300 cargo test --release -q
# The #[ignore]d tests: the engine's checkpoint schedule at its real
# threshold (64 MiB of log, three times over), live log bytes bounded; and
# the referee's 4,000,000-row YCSB population loaded in bulk, counted.
cargo test --release -q --test critical_path -- --ignored

echo "== guard: the cutover order (the fence test, 30 release runs) =="
# A migration's cutover adopts the slot on the destination, installs the new
# routing table, then releases the source, so a writer parked on the
# source's fence lands on its one retry. With the table installed before
# the adopt, this test failed 16 of 30 release runs; here one failure fails
# the stage. Prints the stage's wall time.
guard_start=$(date +%s.%N)
for run in $(seq 30); do
    if ! cargo test --release -q -p esdb-rebal --test migration_torture -- --exact \
        fence_blocks_writers_until_cutover_then_retries_to_the_destination >target/cutover-guard.log 2>&1; then
        cat target/cutover-guard.log >&2
        echo "FAIL: the fence test failed on release run $run of 30" >&2
        exit 1
    fi
done
awk -v s="$guard_start" -v e="$(date +%s.%N)" 'BEGIN { printf "cutover guard: 30 runs in %.1f s\n", e - s }'

echo "== seam: one engine build, no Cargo features =="
# ROADMAP item 14's ratchet. Cargo applies one feature set to a whole build,
# so a feature that a test-only crate turns on changes the engine every
# workspace run compiles. A fault the checker needs is a runtime answer of
# esdb_sync::sched::mutated instead.
if grep -nE '^[[:space:]]*\[features\]' crates/*/Cargo.toml || grep -rn 'cfg(feature' crates/*/src; then
    echo "FAIL: a Cargo feature in crates/; put a checker fault on esdb_sync::sched::mutated" >&2
    exit 1
fi

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

echo "== seam: every engine lock is esdb_sync's =="
# ROADMAP item 26's ratchet. esdb_sync::{Mutex, RwLock, Condvar} make a
# poisoned lock panic instead of handing out half-updated state, and are
# the one place a checker yield point on every acquire will go. A
# parking_lot stand-in would recover poison silently; a std lock would need
# its own unwrap at every site. Only esdb_sync, which wraps std, and the
# checker, whose scheduler sits under the hook, name std's locks. The grep
# reads each file whole (-z), so a brace import split over lines, or an
# `as` rename, is caught too.
if grep -rn parking_lot Cargo.toml Cargo.lock crates src tests vendor; then
    echo "FAIL: parking_lot is named; use esdb_sync::{Mutex, RwLock}" >&2
    exit 1
fi
std_locks=$(grep -rPzl --include='*.rs' '\bsync::(\{[^}]*)?\b(Mutex|RwLock|Condvar)' crates/*/src \
    | grep -vE '^crates/(sync|check)/' || true)
if [ -n "$std_locks" ]; then
    echo "FAIL: a std::sync Mutex/RwLock/Condvar outside crates/sync and crates/check; use esdb_sync's:" >&2
    echo "$std_locks" >&2
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

echo "== smoke: fig5_staged (full size, about a second) =="
# The binary asserts that every engine and packet size returns Volcano's
# rows. Over its stored table (fig5b) that is a cross-engine oracle for the
# page scan kernel's two-filter path.
cargo run --release -q -p esdb-bench --bin fig5_staged

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
