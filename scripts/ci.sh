#!/usr/bin/env bash
# CI gate for esdb: tier-1 correctness plus a fast smoke of the experiment
# binaries that exercise the full stack (simulator sweep + TCP server).
#
# Tier 1 (must stay green): release build + the root package's tests (the
# engine suites, the golden wire bytes, tests/wire_session.rs driving a
# loopback server, and tests/critical_path.rs pinning what one transaction
# costs in lock-table visits, pins, allocations, log bytes and flushes).
# Every other crate's tests run only where a stage below names them.
# Smoke (seconds, not minutes): reduced fig1 scaling sweep and a short
# loopback tab3_server run, both via the env knobs the binaries expose.
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
# core, DORA and the staged executor (its unit tests and the stored-table
# proptest; tier 1 reaches the crate only through tests/equivalence.rs) —
# none of which tier 1 compiles as tests. The executor's other callers are
# built so they cannot rot.
cargo test --release -q -p esdb-lock -p esdb-txn -p esdb-wal -p esdb-storage -p esdb-core -p esdb-dora -p esdb-staged
cargo build --release -q -p esdb-bench --bin fig5_staged --bench staged_vs_volcano
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

echo "== gate: obs overhead (tab3 loopback, depth-4, enabled within 5% of compiled-out) =="
scripts/obs_overhead_gate.sh

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

echo "== smoke: reactor scale (tab3 loopback at 1 and 2 reactors + reduced herd) =="
# The same tab3 loopback run pinned to one reactor and then two: numbers
# may differ, behavior may not — every row must complete with zero failures
# however sessions shard across event loops. The reduced net_scale run then
# holds a 300-connection idle herd against an active session (p99 bounded)
# and drains pipelined in-flight txns through a shutdown. The herd row here
# is smoke-sized; the committed 1000-connection snapshot row comes from
# bench_tables.sh below.
TAB3_CONNS=2 TAB3_TXNS=1000 TAB3_SUBSCRIBERS=1000 TAB3_REPS=1 \
    TAB3_REACTORS=1 TAB3_MAX_CONNS=300 ESDB_BENCH_DIR=bench_out/reactor_smoke \
    cargo run --release -q -p esdb-bench --bin tab3_server
TAB3_CONNS=2 TAB3_TXNS=1000 TAB3_SUBSCRIBERS=1000 TAB3_REPS=1 \
    TAB3_REACTORS=2 TAB3_MAX_CONNS=300 ESDB_BENCH_DIR=bench_out/reactor_smoke \
    cargo run --release -q -p esdb-bench --bin tab3_server
NET_SCALE_CONNS=300 cargo test --release -q -p esdb-net --test net_scale

echo "== smoke: htap (follower OLAP under primary writes, index=scan + token-pinned query) =="
# Reduced tab_htap run (<10 s): one rep, small burst. The run itself asserts
# the correctness cells — every index-assisted probe equal to its full-scan
# twin, and a commit-token-pinned analytical query served by the follower.
TABH_WRITERS=2 TABH_WRITES=500 TABH_REPS=1 ESDB_BENCH_DIR=bench_out/htap_smoke \
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
# blocked-writer -> WrongShard -> retry-to-dest path. rebal_net runs a
# live migration under wire traffic with a stale client recovering
# through the typed refusal + RoutingSnapshot refresh.
cargo test --release -q -p esdb-rebal --test migration_torture
cargo test --release -q -p esdb-rebal --test rebal_net

echo "== bench: headline tables (fresh BENCH_*.json into bench_out/) =="
scripts/bench_tables.sh bench_out

echo "== gate: bench regression (fresh numbers vs committed snapshots) =="
# The tool's contract is a 10% band, but this runner is a single-vCPU
# microVM whose absolute throughput drifts with host load; 35% catches
# real collapses without flaking on steal-time. Tighten on dedicated
# hardware. tpmc comes from the deterministic CMP simulator (fig6b), so it
# is gated alongside the throughput family — it cannot flake on load.
# commit_tps/write_tps (tab_repl) join the gate: their cells run 1-4
# loopback connections, which a single vCPU schedules stably, and they are
# the rows a reactor/ship-loop regression would show up in first. Still
# ungated (see EXPERIMENTS.md "What is gated"): tab1/fig6's measured
# engine_tps cells — the consolidation-array cells are bimodal under
# single-vCPU preemption (3-5x swings that survive best-of-N) — and the
# latency-family cells (p50_us, lag_p99_bytes), where lower-is-better
# inverts the gate's drop test and host jitter dominates at these sizes.
# tab_htap's deterministic cells join the gate: degradation_ratio (primary
# tps while a zero-CPU thread pins the follower's apply gate for the whole
# burst, over the unpinned baseline — the pin costs no CPU, so the ratio
# isolates commit-path coupling from single-vCPU time-sharing; clamped at
# 1.0 since a pin can only help on a shared core) and index_fullscan_match
# (exactly 1.0 unless an index-assisted query diverged from its full-scan
# twin). The busy-OLAP olap_ratio and measured primary_tps/olap_qps cells
# stay ungated context. tab_rebal joins the gate on the same terms:
# degradation_ratio (foreground tps while a full live slot migration
# completes during the burst, over the no-migration baseline — the
# catch-up pump sleeps between rounds, so the ratio isolates migration
# coupling from time-sharing; clamped at 1.0) and fence_bound_ok (1.0 iff
# the write-blocked fence+cutover window held its 250 ms bound — a
# boolean, so any flip to 0.0 is a 100% drop and always trips the band).
# The measured fence_ms/copy_rows_per_s/catchup_lag_bytes cells stay
# ungated context.
BENCH_NEW_DIR=bench_out BENCH_GATE_PCT=35 \
    BENCH_GATE_METRICS="tps,read_tps,write_tps,commit_tps,tpmc,degradation_ratio,index_fullscan_match,fence_bound_ok" \
    cargo run --release -p esdb-bench --bin bench_regress

echo "== ci: all green =="
