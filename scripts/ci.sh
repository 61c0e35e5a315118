#!/usr/bin/env bash
# CI gate for esdb: tier-1 correctness, the suites of the crates named
# below, and one measurement system — the referee (benchmark/).
#
# Tier 1 (must stay green): release build + the root package's tests (the
# engine suites, the golden wire bytes, tests/wire_session.rs driving a
# loopback server on one reactor and on two, and tests/critical_path.rs
# pinning what one transaction costs in lock-table visits, pins,
# allocations, log bytes and flushes). Every other crate's tests run only
# where a stage below names them. The referee builds and tests itself, then
# runs every workload once at --quick size with every output oracle; the
# obs overhead gate runs one of its workloads with obs compiled in and out.
# Smokes (seconds, not minutes) run the fig1, crash_torture and tab_htap
# binaries at reduced sizes via the env knobs they expose; every other
# experiment binary is built so it cannot rot.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier 1: build =="
cargo build --release

echo "== tier 1: tests =="
cargo test -q

echo "== referee: benchmark package builds against the program and passes its own tests =="
# benchmark/ is a package of its own (path-deps on crates/*), so tier 1 never
# compiles it: a program change that breaks the public surface listed in
# benchmark/src/sut.rs must fail here, not in the next refereed run.
(cd benchmark && cargo build --release --offline && cargo test --offline -q)

echo "== engine: the crates under every transaction (release) =="
# Unit tests of the lock manager (HeldLocks cases included), transaction
# manager, WAL (record_golden pins the log bytes; the CRC slice-by-8 vs
# bytewise property; the durability-subscriber wake-up), storage (index and
# heap properties, the same-key insert race, the page-at-a-time column scan),
# core (its simbridge tests pin fig6b's simulator cells by exact equality),
# DORA and the staged executor (its unit tests and the stored-table
# proptest; tier 1 reaches the crate only through tests/equivalence.rs) —
# none of which tier 1 compiles as tests. The executor's other callers are
# built so they cannot rot.
cargo test --release -q -p esdb-lock -p esdb-txn -p esdb-wal -p esdb-storage -p esdb-core -p esdb-dora -p esdb-staged
cargo build --release -q -p esdb-bench --bench staged_vs_volcano
cargo build --release -q --example staged_analytics --example quickstart

echo "== net: whole esdb-net suite + golden wire bytes (release) =="
# Unit tests, protocol_props (round-trip/totality properties generated from
# the frame table), reactor_sm (split-point properties of the nonblocking
# decoder), net_server, net_scale, net_failover (typed QuorumTimeout/Fenced
# frames, stalled-peer and stalled-write timeouts, dead-feed reads),
# idle_tick (a quiet peer leaves the reactor idle; alone in its binary, it
# counts ticks in the process-global obs registry) — and the root-level
# golden fixtures pinning every frame's exact bytes.
cargo test --release -q -p esdb-net
cargo test --release -q --test wire_golden

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

echo "== smoke: fig1_scaling (reduced sweep) =="
FIG1_CONTEXTS="1,4" FIG1_SUBSCRIBERS=1000 \
    cargo run --release -p esdb-bench --bin fig1_scaling

echo "== smoke: checker (300 seeded schedules + mutation detection) =="
# Clean sweep over ~300 deterministic schedules plus one chaos-mutation run
# that must be caught with a replayable shrunk trace. Release mode keeps the
# whole stage well under a minute.
CHECK_SCHEDULES=300 cargo test --release -q -p esdb-check --test check_engine \
    clean_engine_passes_seeded_schedules
cargo test --release -q -p esdb-check --test check_engine \
    detects_early_lock_release_mutation

echo "== smoke: crash_torture (seeded, reduced iterations) =="
CRASH_ITERS=10 CRASH_SEED=42 CRASH_TXNS=50 \
    cargo run --release -p esdb-bench --bin crash_torture

echo "== gate: obs overhead (referee wire.tatp.d1, enabled within 5% of compiled-out) =="
# Reuses the referee stage's build for the obs-enabled side.
CARGO_TARGET_DIR=benchmark/target scripts/obs_overhead_gate.sh

echo "== smoke: replication (loopback primary + replica, TPC-B burst, RYW) =="
# The repl_net integration test is the smoke: snapshot bootstrap over TCP, a
# TPC-B burst shipped live, per-table content equality, read-your-writes
# honored under a commit token, and feed survival across a server bounce.
cargo test --release -q -p esdb-repl --test repl_net

echo "== smoke: failover (quorum commit, fencing, promotion torture matrix) =="
# failover_torture sweeps {primary crash, follower crash, partition, old
# primary returns} x {before ship, after ship/before ack, after quorum} x 3
# seeds (36 seeded rounds) plus the double-promotion split-brain scenario;
# the oracle asserts no quorum-acked commit is lost and no divergent commit
# survives. (net_failover, the same machinery at the wire level, ran in the
# net stage above.)
cargo test --release -q -p esdb-repl --test failover_torture

echo "== smoke: reactor scale (reduced herd) =="
# One reactor versus two is tier 1's (tests/wire_session.rs). The reduced
# net_scale run holds a 300-connection idle herd against an active session
# (p99 bounded) and drains pipelined in-flight txns through a shutdown.
NET_SCALE_CONNS=300 cargo test --release -q -p esdb-net --test net_scale

echo "== smoke: htap (follower OLAP under primary writes, index=scan + token-pinned query) =="
# Reduced tab_htap run (<10 s): one rep, small burst. The run itself asserts
# the correctness cells — every index-assisted probe equal to its full-scan
# twin, and a commit-token-pinned analytical query served by the follower.
TABH_WRITERS=2 TABH_WRITES=500 TABH_REPS=1 \
    cargo run --release -q -p esdb-bench --bin tab_htap

echo "== sharding: esdb-shard (unit tests, loopback 2PC cluster, 27-cell crash matrix) =="
# Everything the crate has: the router/coordinator/recovery unit tests, the
# shard_net loopback cluster (2PC burst, a verdict lost with its connection,
# 2,000 back-to-back commits on the same rows, coordinator crash + wire
# resolution) and the shard_torture crash matrix with its double-recovery
# idempotence check. Seconds, not minutes.
cargo test --release -q -p esdb-shard

echo "== smoke: rebalancing (crash-torture matrix + wire-level migration) =="
# migration_torture sweeps {coordinator, source, dest} crashes x {copy,
# catch-up, fence, after cutover} x 3 seeds against the migration oracle
# (no lost/duplicated/ghost rows, no dual ownership, writes blocked only
# during the fence), plus in-doubt-2PC resolution at the fence and the
# blocked-writer -> WrongShard -> retry-to-dest path, and the fence + cutover
# window held to 250 ms under two concurrent writers. rebal_net runs a
# live migration under wire traffic with a stale client recovering
# through the typed refusal + RoutingSnapshot refresh.
cargo test --release -q -p esdb-rebal --test migration_torture
cargo test --release -q -p esdb-rebal --test rebal_net

echo "== referee: every workload once, every output oracle (--quick) =="
# Fails if any workload's oracle fails or any call errors: TPC-B
# conservation, ServerStats = client-observed commits on the wire, the 2PC
# participants left with nothing prepared, every staged result equal to
# Volcano's. Reuses the referee stage's build.
CARGO_TARGET_DIR=benchmark/target benchmark/run.sh --quick --out target/referee-quick.json

echo "== build: every experiment binary =="
# fig1-7, tab2_recovery, tab_repl, tab_htap, tab_rebal, crash_torture: the
# ones no stage above runs must still compile.
cargo build --release -q -p esdb-bench --bins

echo "== ci: all green =="
