//! Failover torture: the PR 2/PR 6-style seeded fault matrix, aimed at the
//! quorum-commit and promotion machinery. Each round drives a primary plus
//! two followers through a workload, fires one fault class at one crash
//! point, finishes the run on whatever survives, and hands everything every
//! observer saw to the distributed-history oracle
//! ([`esdb_check::FailoverOracle`]). The invariants under fire:
//!
//! * **no quorum-acked commit is ever lost** — across promotion, crash, and
//!   re-sync, a commit acknowledged with its quorum satisfied is in the
//!   surviving history;
//! * **no divergent history is ever silently merged** — commits a deposed
//!   primary decided alone never surface in the survivor, and their
//!   disappearance is named in a typed [`ReplError::Diverged`] report;
//! * **one primary per term** — promotions claim strictly increasing terms.
//!
//! Fault classes × crash points × seeds:
//! {primary crash, follower crash, partition, old-primary-returns} ×
//! {before ship, after ship/before ack, after quorum} × {3 seeds}.

use esdb_check::{DistEvent, FailoverOracle};
use esdb_core::config::EngineConfig;
use esdb_core::{Database, QuorumError, QuorumPolicy, ReplGroup};
use esdb_net::Snapshot;
use esdb_repl::{divergence_check, ship_available, ReplError, Replica};
use esdb_wal::LogBody;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Unique-key txns start here; the key doubles as the oracle's txn identity.
const KEY0: u64 = 1_000;
/// Committed txns per round (pre-fault + post-fault phases together).
const TXNS: u64 = 12;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    PrimaryCrash,
    FollowerCrash,
    Partition,
    OldPrimaryReturns,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CrashPoint {
    BeforeShip,
    AfterShipBeforeAck,
    AfterQuorum,
}

struct Follower {
    replica: Option<Replica>,
    slot: u64,
    partitioned: bool,
}

fn engine() -> EngineConfig {
    EngineConfig::conventional_baseline()
}

fn new_primary() -> (Arc<Database>, u32) {
    let db = Arc::new(Database::open(engine()));
    let t = db.create_table("accounts", 2).unwrap();
    db.execute(|txn| {
        for k in 0..24 {
            txn.insert(t, k, &[k as i64, 0])?;
        }
        Ok(())
    })
    .unwrap();
    (db, t)
}

/// Commits one unique-key txn and forces it durable; returns the commit LSN.
fn commit_key(db: &Database, t: u32, key: u64) -> u64 {
    db.execute(|txn| txn.insert(t, key, &[key as i64, 7]))
        .unwrap();
    let wal = db.wal();
    wal.wait_durable(wal.current_lsn());
    wal.durable_lsn()
}

/// Ships everything durable to every live follower and feeds their durable
/// acks into the group — one replication round.
fn ship_and_ack(db: &Database, group: &ReplGroup, term: u64, followers: &mut [Follower]) {
    for f in followers.iter_mut() {
        if f.partitioned {
            continue;
        }
        if let Some(replica) = f.replica.as_mut() {
            ship_available(db.wal(), replica).unwrap();
            group.note_ack(f.slot, term, replica.subscribe_from());
        }
    }
}

/// Ships without acking — the bytes land durably on the followers but the
/// ack frames are "in flight" when the fault hits.
fn ship_no_ack(db: &Database, followers: &mut [Follower]) {
    for f in followers.iter_mut() {
        if f.partitioned {
            continue;
        }
        if let Some(replica) = f.replica.as_mut() {
            ship_available(db.wal(), replica).unwrap();
        }
    }
}

fn contents(db: &Database, t: u32) -> Vec<(u64, Vec<i64>)> {
    let table = db.table(t).unwrap();
    let mut rows = Vec::new();
    table.scan(|k, row| rows.push((k, row.to_vec()))).unwrap();
    rows.sort();
    rows
}

/// Maps the WAL txn ids of a [`ReplError::Diverged`] report back to the
/// harness's txn identities (the unique keys those txns inserted).
fn diverged_keys(wal: &esdb_wal::Wal, table: u32, txns: &[u64]) -> Vec<u64> {
    let mut by_txn: HashMap<u64, Vec<u64>> = HashMap::new();
    for r in wal.durable_records_checked().records {
        if let LogBody::Insert { table: rt, key, .. } = r.body {
            if rt == table {
                by_txn.entry(r.txn_id).or_default().push(key);
            }
        }
    }
    let mut keys: Vec<u64> = txns
        .iter()
        .flat_map(|id| by_txn.remove(id).unwrap_or_default())
        .collect();
    keys.sort_unstable();
    keys
}

/// Runs the demoted primary's mandatory post-mortem: diff its durable WAL
/// against the fork point, surface divergence typed, feed the oracle.
fn demoted_postmortem(
    old: &Database,
    t: u32,
    fork: u64,
    node: u32,
    oracle: &mut FailoverOracle,
) {
    match divergence_check(old.wal(), fork) {
        Ok(()) => {}
        Err(ReplError::Diverged { committed, .. }) => {
            let keys = diverged_keys(old.wal(), t, &committed);
            oracle.record(DistEvent::DivergenceReported { node, txns: keys });
        }
        Err(e) => panic!("divergence check must be typed, got {e}"),
    }
}

/// One torture round. Everything observable is recorded into the oracle;
/// the round passes iff the oracle accepts the whole history.
fn run_round(fault: Fault, point: CrashPoint, seed: u64) {
    let mut rng = esdb_workload::Rng::new(seed);
    let mut oracle = FailoverOracle::new();

    let (primary, t) = new_primary();
    let snap = Snapshot::take(&primary).unwrap();
    let group = ReplGroup::new(1);
    let policy = QuorumPolicy { k: 1, timeout: Duration::from_millis(40) };
    let mut followers: Vec<Follower> = (0..2)
        .map(|_| Follower {
            replica: Some(Replica::bootstrap(snap.clone(), engine()).unwrap()),
            slot: group.register_follower(),
            partitioned: false,
        })
        .collect();

    let fault_at = rng.range(2, TXNS - 3);
    let victim = rng.below(2) as usize; // follower hit by crash/partition

    // ---- Phase 1: healthy quorum commits up to the fault. ----
    for i in 0..fault_at {
        let key = KEY0 + i;
        let lsn = commit_key(&primary, t, key);
        ship_and_ack(&primary, &group, 1, &mut followers);
        group.wait_quorum(lsn, &policy).unwrap();
        oracle.record(DistEvent::QuorumCommit { txn: key, term: 1 });
    }

    // ---- Phase 2: the faulted txn, at the chosen crash point. ----
    let key = KEY0 + fault_at;
    let lsn = commit_key(&primary, t, key);
    match point {
        CrashPoint::BeforeShip => {
            // Nothing shipped: the quorum wait must degrade typed, never hang.
            match group.wait_quorum(lsn, &policy) {
                Err(QuorumError::Timeout { .. }) => {
                    oracle.record(DistEvent::UnreplicatedCommit { txn: key, term: 1 });
                }
                other => panic!("expected quorum timeout, got {other:?}"),
            }
        }
        CrashPoint::AfterShipBeforeAck => {
            // Bytes durable on the followers, acks lost in flight.
            ship_no_ack(&primary, &mut followers);
            match group.wait_quorum(lsn, &policy) {
                Err(QuorumError::Timeout { .. }) => {
                    oracle.record(DistEvent::UnreplicatedCommit { txn: key, term: 1 });
                }
                other => panic!("expected quorum timeout, got {other:?}"),
            }
        }
        CrashPoint::AfterQuorum => {
            ship_and_ack(&primary, &group, 1, &mut followers);
            group.wait_quorum(lsn, &policy).unwrap();
            oracle.record(DistEvent::QuorumCommit { txn: key, term: 1 });
        }
    }

    // ---- The fault itself. ----
    match fault {
        Fault::FollowerCrash => {
            // Crash/restart the victim: volatile state gone, durable cursor
            // salvaged, stream re-applied idempotently.
            let crashed = followers[victim].replica.take().unwrap();
            followers[victim].replica = Some(crashed.reopen().unwrap());
            finish_without_promotion(
                &primary, t, &group, policy, &mut followers, fault_at, &mut oracle,
            );
        }
        Fault::Partition => {
            // The victim's connection drops: no more chunks, no more acks,
            // and its ack slot leaves the group (the feed deregisters).
            followers[victim].partitioned = true;
            group.deregister_follower(followers[victim].slot);
            finish_without_promotion(
                &primary, t, &group, policy, &mut followers, fault_at, &mut oracle,
            );
        }
        Fault::PrimaryCrash | Fault::OldPrimaryReturns => {
            run_promotion_arm(
                fault, primary, t, &mut followers, fault_at, &mut oracle,
            );
        }
    }

    oracle.check().unwrap_or_else(|v| {
        panic!("[{fault:?} × {point:?} × seed {seed}] invariant violated: {v}")
    });
}

/// Post-fault phase for the non-promotion faults: the primary keeps
/// committing against the shrunken follower set, and at the end the
/// surviving history is the primary's own.
fn finish_without_promotion(
    primary: &Arc<Database>,
    t: u32,
    group: &ReplGroup,
    policy: QuorumPolicy,
    followers: &mut [Follower],
    fault_at: u64,
    oracle: &mut FailoverOracle,
) {
    for i in fault_at + 1..TXNS {
        let key = KEY0 + i;
        let lsn = commit_key(primary, t, key);
        ship_and_ack(primary, group, 1, followers);
        group.wait_quorum(lsn, &policy).unwrap();
        oracle.record(DistEvent::QuorumCommit { txn: key, term: 1 });
    }
    // Convergence for every live follower.
    for f in followers.iter_mut() {
        if f.partitioned {
            continue;
        }
        let replica = f.replica.as_mut().unwrap();
        ship_available(primary.wal(), replica).unwrap();
        assert_eq!(contents(primary, t), contents(replica.db(), t));
    }
    for (k, _) in contents(primary, t) {
        oracle.record(DistEvent::Survives { txn: k });
    }
}

/// Post-fault phase for the promotion faults: the primary is gone; the
/// most-caught-up follower is promoted (the rule that preserves every
/// quorum-acked commit at K=1), the other follower re-syncs via snapshot
/// bootstrap after a typed Gap, the demoted primary is post-mortemed — and,
/// for [`Fault::OldPrimaryReturns`], fenced mid-write and re-synced too.
fn run_promotion_arm(
    fault: Fault,
    old_primary: Arc<Database>,
    t: u32,
    followers: &mut [Follower],
    fault_at: u64,
    oracle: &mut FailoverOracle,
) {
    // Promote whichever follower holds the longest durable prefix: with
    // K=1 every acked LSN is ≤ the max cursor, so nothing acked is lost.
    let best = (0..followers.len())
        .max_by_key(|&i| followers[i].replica.as_ref().unwrap().subscribe_from())
        .unwrap();
    let promoted = followers[best].replica.take().unwrap();
    let promotion = promoted.promote(2).unwrap();
    oracle.record(DistEvent::Promote { node: best as u32, term: 2 });
    let new_primary = Arc::clone(&promotion.db);
    let new_group = ReplGroup::new(promotion.term);
    let policy = QuorumPolicy { k: 1, timeout: Duration::from_millis(40) };

    if fault == Fault::OldPrimaryReturns {
        // The deposed primary comes back and tries to keep serving. Its
        // clients get typed refusals: the group is fenced the moment
        // evidence of term 2 arrives, before any quorum can form.
        let zombie_group = ReplGroup::new(1);
        let zkey = KEY0 + 900;
        commit_key(&old_primary, t, zkey);
        zombie_group.note_ack(0, promotion.term, 0); // the new epoch talks
        match zombie_group.wait_quorum(old_primary.wal().durable_lsn(), &policy) {
            Err(QuorumError::Fenced { term }) => assert_eq!(term, promotion.term),
            other => panic!("zombie primary must be fenced, got {other:?}"),
        }
        oracle.record(DistEvent::UnreplicatedCommit { txn: zkey, term: 1 });
    }

    // Mandatory post-mortem: the demoted primary diffs its WAL tail against
    // the fork point; unshipped commits surface typed, never merged.
    demoted_postmortem(&old_primary, t, promotion.fork_lsn, u32::MAX, oracle);

    // The surviving follower cannot splice the new stream onto its old
    // cursor — the attempt is a typed Gap, the cure a snapshot bootstrap.
    let other = 1 - best;
    {
        let stale = followers[other].replica.as_mut().unwrap();
        let gap = ship_available(new_primary.wal(), stale).unwrap_err();
        assert!(matches!(gap, ReplError::Gap { .. }), "expected Gap, got {gap}");
    }
    let new_snap = Snapshot::take(&new_primary).unwrap();
    let mut resynced = vec![(
        Replica::bootstrap(new_snap.clone(), engine()).unwrap(),
        new_group.register_follower(),
    )];
    if fault == Fault::OldPrimaryReturns {
        // The deposed primary, divergence reported, abandons its tail and
        // rejoins as a follower of the new epoch.
        resynced.push((
            Replica::bootstrap(new_snap, engine()).unwrap(),
            new_group.register_follower(),
        ));
    }

    // Finish the workload on the new primary under quorum commit.
    for i in fault_at + 1..TXNS {
        let key = KEY0 + i;
        let lsn = commit_key(&new_primary, t, key);
        for (replica, slot) in resynced.iter_mut() {
            ship_available(new_primary.wal(), replica).unwrap();
            new_group.note_ack(*slot, promotion.term, replica.subscribe_from());
        }
        new_group.wait_quorum(lsn, &policy).unwrap();
        oracle.record(DistEvent::QuorumCommit { txn: key, term: promotion.term });
    }
    for (replica, _) in resynced.iter() {
        assert_eq!(contents(&new_primary, t), contents(replica.db(), t));
    }
    for (k, _) in contents(&new_primary, t) {
        oracle.record(DistEvent::Survives { txn: k });
    }
}

#[test]
fn failover_torture_matrix() {
    let faults = [
        Fault::PrimaryCrash,
        Fault::FollowerCrash,
        Fault::Partition,
        Fault::OldPrimaryReturns,
    ];
    let points = [
        CrashPoint::BeforeShip,
        CrashPoint::AfterShipBeforeAck,
        CrashPoint::AfterQuorum,
    ];
    for fault in faults {
        for point in points {
            for seed in [3, 17, 42] {
                run_round(fault, point, seed);
            }
        }
    }
}

/// Satellite: double promotion. A promotes at term 2 and takes split-brain
/// writes; B then promotes at term 3 from the shared stream. A must fence
/// itself, surface its entire solo history as typed divergence, and re-sync
/// as a follower of B — no split-brain write survives anywhere.
#[test]
fn double_promotion_fences_first_claimant() {
    let mut oracle = FailoverOracle::new();
    let (primary, t) = new_primary();
    let snap = Snapshot::take(&primary).unwrap();
    let mut a = Replica::bootstrap(snap.clone(), engine()).unwrap();
    let mut b = Replica::bootstrap(snap, engine()).unwrap();

    // Shared prefix, fully shipped to both.
    for i in 0..4 {
        let key = KEY0 + i;
        commit_key(&primary, t, key);
        ship_available(primary.wal(), &mut a).unwrap();
        ship_available(primary.wal(), &mut b).unwrap();
        oracle.record(DistEvent::QuorumCommit { txn: key, term: 1 });
    }

    // Primary dies; A promotes first and takes writes nobody else sees.
    let a_promo = a.promote(2).unwrap();
    oracle.record(DistEvent::Promote { node: 1, term: 2 });
    let a_db = a_promo.db;
    let a_group = ReplGroup::new(2);
    // A's own stream begins here: everything below is promotion bookkeeping
    // (the TermChange stamp), everything at/after a commit is solo history.
    let a_fork = a_db.wal().start_lsn();
    let split_keys = [KEY0 + 500, KEY0 + 501, KEY0 + 502];
    for &key in &split_keys {
        commit_key(&a_db, t, key);
        oracle.record(DistEvent::UnreplicatedCommit { txn: key, term: 2 });
    }

    // B promotes at a higher term from the shared stream (A was partitioned
    // away and never shipped to B, so B's history knows nothing of A's).
    let b_promo = b.promote(3).unwrap();
    oracle.record(DistEvent::Promote { node: 2, term: 3 });
    let b_db = b_promo.db;

    // Word of term 3 reaches A: fenced before any quorum can form.
    a_group.note_ack(0, 3, 0);
    match a_group.wait_quorum(
        a_db.wal().durable_lsn(),
        &QuorumPolicy { k: 1, timeout: Duration::from_millis(20) },
    ) {
        Err(QuorumError::Fenced { term }) => assert_eq!(term, 3),
        other => panic!("A must be fenced by term 3, got {other:?}"),
    }

    // A's post-mortem against the surviving history: its entire solo tail
    // is divergent and must be reported typed, never merged.
    let err = divergence_check(a_db.wal(), a_fork).unwrap_err();
    let ReplError::Diverged { committed, .. } = err else {
        panic!("expected Diverged, got {err}");
    };
    let reported = diverged_keys(a_db.wal(), t, &committed);
    assert_eq!(reported, split_keys.to_vec(), "every split-brain txn named");
    oracle.record(DistEvent::DivergenceReported { node: 1, txns: reported });

    // A abandons its history and re-syncs as a follower of B.
    let b_snap = Snapshot::take(&b_db).unwrap();
    let mut a_again = Replica::bootstrap(b_snap, engine()).unwrap();
    commit_key(&b_db, t, KEY0 + 10);
    oracle.record(DistEvent::QuorumCommit { txn: KEY0 + 10, term: 3 });
    ship_available(b_db.wal(), &mut a_again).unwrap();
    assert_eq!(contents(&b_db, t), contents(a_again.db(), t));

    // No split-brain write survives in either history.
    let survivors = contents(&b_db, t);
    for &key in &split_keys {
        assert!(
            survivors.iter().all(|(k, _)| *k != key),
            "split-brain key {key} leaked into the surviving history"
        );
    }
    for (k, _) in survivors {
        oracle.record(DistEvent::Survives { txn: k });
    }
    oracle.check().unwrap();

    // And the oracle itself would have caught the merge: pretend one
    // split-brain key survived and the verdict must flip.
    oracle.record(DistEvent::Survives { txn: split_keys[0] });
    assert!(oracle.check().is_err(), "a merged divergent commit must be flagged");
}

/// Promotion must refuse to move the epoch backwards or sideways: a term at
/// or below the highest observed is a typed [`ReplError::StaleTerm`].
#[test]
fn promotion_term_must_ratchet() {
    let (primary, t) = new_primary();
    let snap = Snapshot::take(&primary).unwrap();
    let mut a = Replica::bootstrap(snap.clone(), engine()).unwrap();
    commit_key(&primary, t, KEY0);
    ship_available(primary.wal(), &mut a).unwrap();
    let promo = a.promote(2).unwrap();

    // A second follower that already heard of term 2 via a chunk stamp
    // cannot be promoted at 2 again (or anything lower).
    let mut b = Replica::bootstrap(snap, engine()).unwrap();
    let (bytes, start) = primary.wal().durable_tail(b.subscribe_from(), usize::MAX).unwrap();
    b.ingest_term(2, start, &bytes[..(primary.wal().durable_lsn() - start) as usize])
        .unwrap();
    assert_eq!(b.term(), 2);
    let err = b.promote(2).unwrap_err();
    assert!(matches!(err, ReplError::StaleTerm { got: 2, ours: 2 }), "got {err}");
    drop(promo);
}

/// A chunk stamped below the replica's observed term is a fenced-off old
/// primary still talking: typed halt before a byte lands.
#[test]
fn stale_term_chunk_is_refused() {
    let (primary, t) = new_primary();
    let snap = Snapshot::take(&primary).unwrap();
    let mut r = Replica::bootstrap(snap, engine()).unwrap();
    commit_key(&primary, t, KEY0);
    let (bytes, start) = primary.wal().durable_tail(r.subscribe_from(), usize::MAX).unwrap();
    let avail = (primary.wal().durable_lsn() - start) as usize;
    r.ingest_term(3, start, &bytes[..avail / 2]).unwrap();
    let before = r.subscribe_from();
    let err = r
        .ingest_term(2, start + (avail / 2) as u64, &bytes[avail / 2..avail])
        .unwrap_err();
    assert!(matches!(err, ReplError::StaleTerm { got: 2, ours: 3 }), "got {err}");
    assert_eq!(r.subscribe_from(), before, "stale bytes must not land");
}
