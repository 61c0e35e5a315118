//! The migration state machine: moves one hash slot between two live
//! shards with zero lost or duplicated rows and writes blocked only for
//! the final fence window.
//!
//! ```text
//! Planned ─▶ Copying ─▶ CatchUp ─▶ Fenced ─▶ CutOver ─▶ Done
//!            fuzzy      WAL delta   drain +    routing     source
//!            bulk copy  pumping     final tail epoch bump  cleanup
//! ```
//!
//! Each transition is forced to the [`MigrationLog`] *before* its work
//! runs (write-ahead). The work of every phase is idempotent, so the
//! recovery rule is two-armed:
//!
//! * **Before `CutOver`** nothing externally visible happened — the
//!   destination holds only unowned scratch rows. Restart from the copy
//!   (which first clears the destination's slot rows).
//! * **At or after `CutOver`** the new routing table is durable — roll
//!   forward: re-install (epoch-fenced, a no-op if it already landed),
//!   flip ownership, clean up the source.
//!
//! A source crash rebases its WAL stream, which the delta cursor surfaces
//! as a typed [`RangeShipError::Gap`]; the machine folds that into the
//! same restart-the-copy arm.

use crate::log::{MigrationLog, Phase, FENCE_MARK};
use esdb_core::Database;
use esdb_repl::{apply_range_op, range_rows, RangeOp, RangeShip, RangeShipError};
use esdb_shard::{DecisionLog, SharedRouting, ShardOwnership};
use esdb_wal::{LogBody, NULL_LSN};
use std::sync::Arc;

/// Default catch-up lag (bytes of unshipped durable WAL) below which the
/// migration considers the destination close enough to fence.
pub const DEFAULT_FENCE_LAG_BYTES: u64 = 4096;

/// One shard as the migration sees it: the engine plus its ownership gate.
#[derive(Clone)]
pub struct ShardHandle {
    /// The shard engine.
    pub db: Arc<Database>,
    /// The shard's slot-ownership gate.
    pub own: Arc<ShardOwnership>,
}

/// Everything a migration touches besides its own log.
#[derive(Clone)]
pub struct MigrationEnv {
    /// The shard giving the slot up.
    pub source: ShardHandle,
    /// The shard receiving it.
    pub dest: ShardHandle,
    /// The shared, epoch-fenced routing table the cutover installs into.
    pub routing: Arc<SharedRouting>,
    /// The 2PC coordinator — consulted to resolve in-doubt prepared
    /// slices caught inside the fence.
    pub coord: Arc<DecisionLog>,
}

/// What to move where.
#[derive(Debug, Clone, Copy)]
pub struct MigrationSpec {
    /// Migration id (unique per coordinator log).
    pub mid: u64,
    /// The hash slot to move.
    pub slot: u32,
    /// Source shard.
    pub from: u32,
    /// Destination shard.
    pub to: u32,
}

/// Progress counters, for observability and the bench.
#[derive(Debug, Clone, Copy, Default)]
pub struct MigrationStats {
    /// Rows landed by the fuzzy bulk copy (latest attempt).
    pub copied_rows: u64,
    /// Delta ops shipped by catch-up and the fence tail.
    pub shipped_ops: u64,
    /// Catch-up pump rounds run.
    pub pump_rounds: u64,
    /// Copy restarts (source WAL rebased, or resume before cutover).
    pub restarts: u64,
    /// In-doubt prepared slices resolved inside the fence.
    pub resolved_in_doubt: u64,
}

/// Why a migration step could not make progress. Everything retryable is
/// folded into the state machine itself (a WAL gap restarts the copy);
/// what remains is genuinely broken state.
#[derive(Debug)]
pub enum MigrateError {
    /// The copy or delta ship hit corrupt or missing data.
    Ship(RangeShipError),
}

impl std::fmt::Display for MigrateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MigrateError::Ship(e) => write!(f, "migration data path: {e}"),
        }
    }
}

impl std::error::Error for MigrateError {}

impl From<RangeShipError> for MigrateError {
    fn from(e: RangeShipError) -> Self {
        MigrateError::Ship(e)
    }
}

/// A live slot migration. Drive it with [`Migration::step`] (one bounded
/// phase transition per call — the natural crash points of the torture
/// matrix) or [`Migration::run`] (to completion).
pub struct Migration {
    spec: MigrationSpec,
    env: MigrationEnv,
    log: Arc<MigrationLog>,
    phase: Phase,
    ship: Option<RangeShip>,
    /// Fence when catch-up lag drops to this many bytes.
    pub fence_lag_bytes: u64,
    /// Progress counters.
    pub stats: MigrationStats,
}

impl Migration {
    /// Plans a new migration: the intent is durable in `log` before this
    /// returns.
    pub fn new(log: Arc<MigrationLog>, spec: MigrationSpec, env: MigrationEnv) -> Migration {
        log.record(spec.mid, Phase::Planned, spec.slot, spec.from, spec.to, 0);
        Migration {
            spec,
            env,
            log,
            phase: Phase::Planned,
            ship: None,
            fence_lag_bytes: DEFAULT_FENCE_LAG_BYTES,
            stats: MigrationStats::default(),
        }
    }

    /// Resumes (or rolls back to a restart point) after a crash, from the
    /// latest durable phase in `log`:
    ///
    /// * nothing logged, or anything before `CutOver` → restart from
    ///   `Planned`. Any stray fence on the source is lifted (the slot is
    ///   still the source's per the routing table).
    /// * `CutOver` → re-apply the cutover idempotently (epoch-fenced
    ///   install, ownership flip), then resume at source cleanup.
    /// * `Done` → nothing to do.
    pub fn resume(log: Arc<MigrationLog>, spec: MigrationSpec, env: MigrationEnv) -> Migration {
        let mut m = Migration {
            spec,
            env,
            log,
            phase: Phase::Planned,
            ship: None,
            fence_lag_bytes: DEFAULT_FENCE_LAG_BYTES,
            stats: MigrationStats::default(),
        };
        match m.log.latest(spec.mid) {
            None => m.log.record(spec.mid, Phase::Planned, spec.slot, spec.from, spec.to, 0),
            Some((p, _)) if p < Phase::CutOver => {
                // The cutover never became durable, so the source still
                // owns the slot; clear any fence a dead incarnation left.
                if m.env.routing.current().slots.get(spec.slot as usize) == Some(&spec.from) {
                    m.env.source.own.adopt(spec.slot);
                }
                m.stats.restarts += 1;
            }
            Some((Phase::CutOver, epoch)) => {
                m.roll_forward_cutover(epoch);
                m.phase = Phase::CutOver;
            }
            Some((Phase::Done, _)) => m.phase = Phase::Done,
            Some(_) => unreachable!("phases >= CutOver handled above"),
        }
        m
    }

    /// The current phase.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Current catch-up lag in bytes of unshipped durable source WAL
    /// (0 before the copy establishes a cursor).
    pub fn lag(&self) -> u64 {
        self.ship.as_ref().map_or(0, |s| s.lag(self.env.source.db.wal()))
    }

    /// Runs one bounded unit of work and returns the phase it landed in.
    /// Call repeatedly until [`Phase::Done`]; interleave foreground load
    /// between calls — that is exactly what the torture tests do.
    pub fn step(&mut self) -> Result<Phase, MigrateError> {
        match self.phase {
            Phase::Planned => self.do_copy()?,
            Phase::Copying => {
                let (s, f, t) = (self.spec.slot, self.spec.from, self.spec.to);
                self.log.record(self.spec.mid, Phase::CatchUp, s, f, t, 0);
                self.phase = Phase::CatchUp;
                self.pump_round()?;
            }
            Phase::CatchUp => {
                self.pump_round()?;
                if self.phase == Phase::CatchUp && self.lag() <= self.fence_lag_bytes {
                    self.do_fence()?;
                }
            }
            Phase::Fenced => self.do_cutover(),
            Phase::CutOver => self.do_cleanup()?,
            Phase::Done => {}
        }
        Ok(self.phase)
    }

    /// Drives the migration to completion.
    pub fn run(&mut self) -> Result<(), MigrateError> {
        while self.phase != Phase::Done {
            self.step()?;
        }
        Ok(())
    }

    /// One delta pump round (also usable while parked in catch-up, e.g. by
    /// the bench). A WAL gap — the source crashed and rebased its stream —
    /// folds back into a copy restart instead of surfacing as an error.
    pub fn pump_round(&mut self) -> Result<u64, MigrateError> {
        let Some(ship) = self.ship.as_mut() else { return Ok(0) };
        let dest = Arc::clone(&self.env.dest.db);
        let mut apply_err = None;
        let pumped = ship.pump(self.env.source.db.wal(), |op| {
            if apply_err.is_none() {
                if let Err(e) = apply_range_op(&dest, &op) {
                    apply_err = Some(e);
                }
            }
        });
        self.stats.pump_rounds += 1;
        match pumped {
            Ok(n) => {
                if let Some(e) = apply_err {
                    return Err(e.into());
                }
                self.stats.shipped_ops += n;
                Ok(n)
            }
            Err(RangeShipError::Gap { .. }) => {
                self.restart_copy();
                Ok(0)
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Folds a rebased source stream back to the restart point.
    fn restart_copy(&mut self) {
        self.stats.restarts += 1;
        self.ship = None;
        if self.env.routing.current().slots.get(self.spec.slot as usize) == Some(&self.spec.from)
        {
            self.env.source.own.adopt(self.spec.slot);
        }
        self.phase = Phase::Planned;
    }

    /// Planned → Copying: fuzzy bulk copy. The delta-ship start LSN is
    /// taken *before* the heap scan (heap writes precede their record's
    /// append, so every mutation the scan misses has a record at or after
    /// it), is durable in the log before any row moves, and is pinned in
    /// the source's log before it is read, so the source's checkpoint
    /// schedule never reclaims the cursor under a long copy.
    fn do_copy(&mut self) -> Result<(), MigrateError> {
        let MigrationSpec { mid, slot, from, to } = self.spec;
        let slot_count = self.env.routing.slot_count();
        let pin = self.env.source.db.wal().pin();
        let start = self.env.source.db.wal().current_lsn();
        self.log.record(mid, Phase::Copying, slot, from, to, start);

        // Clear the destination's slot rows first: a retried copy (crash,
        // WAL gap) must not leave rows a previous attempt landed but the
        // source has since deleted.
        for tid in self.env.dest.db.catalog().into_iter().map(|t| t.schema.id) {
            let t = self.env.dest.db.table(tid).ok_or(RangeShipError::NoTable(tid))?;
            let mut stale = Vec::new();
            t.scan(|key, _| {
                if esdb_core::slot_of(tid, key, slot_count) == slot {
                    stale.push(key);
                }
            })
            .map_err(RangeShipError::from)?;
            for key in stale {
                t.delete(key).map_err(RangeShipError::from)?;
            }
        }

        self.stats.copied_rows = 0;
        for tid in self.env.source.db.catalog().into_iter().map(|t| t.schema.id) {
            let rows = range_rows(&self.env.source.db, tid, slot, slot_count)?;
            self.stats.copied_rows += rows.len() as u64;
            for (key, row) in rows {
                apply_range_op(&self.env.dest.db, &RangeOp::Upsert { table: tid, key, row })?;
            }
        }
        self.ship = Some(RangeShip::new(pin, start, slot, slot_count));
        self.phase = Phase::Copying;
        Ok(())
    }

    /// CatchUp → Fenced: the only write-unavailable window. Fence the slot
    /// on the source, resolve in-doubt prepared slices (their verdicts
    /// come from the 2PC coordinator — presumed abort, which the fence's
    /// inquiry takes, so a router still voting on the gtid finds abort
    /// too), drain in-flight writers, append a fence marker to the source
    /// WAL, ship everything up to the marker, and flush the destination so
    /// the copied base survives a destination crash after cutover.
    fn do_fence(&mut self) -> Result<(), MigrateError> {
        let MigrationSpec { mid, slot, from, to } = self.spec;
        self.log.record(mid, Phase::Fenced, slot, from, to, 0);
        self.env.source.own.fence(slot);
        for gtid in self.env.source.own.prepared_on(slot) {
            let commit = self.env.coord.resolve(gtid);
            self.env.source.db.decide(gtid, commit);
            self.env.source.own.end_prepared(gtid);
            self.stats.resolved_in_doubt += 1;
        }
        self.env.source.own.drain(slot);

        // Nothing can touch the slot after this append: new writers are
        // parked on the fence, in-flight ones drained. The marker's LSN is
        // therefore the end of the slot's history on this shard.
        let wal = self.env.source.db.wal();
        let r = wal.append(
            0,
            NULL_LSN,
            &LogBody::MigrationStep { mid, phase: FENCE_MARK, slot, from, to, mark: 0 },
        );
        wal.wait_durable(r.end);
        let marker = r.end;
        while self.ship.as_ref().is_some_and(|s| s.next < marker) {
            self.pump_round()?;
            if self.phase != Phase::CatchUp {
                // The source rebased under the fence: restart the copy.
                return Ok(());
            }
        }
        let _ = self.env.dest.db.pool().flush_all();
        self.phase = Phase::Fenced;
        Ok(())
    }

    /// Fenced → CutOver: force the cutover record carrying the new routing
    /// epoch, then make it visible — adopt, install, release. The
    /// destination admits the slot before the new table points at it, so a
    /// writer routed by that table is never refused there; the source stays
    /// fenced (owning, admitting nothing) until its release, so no instant
    /// has two write-admitting owners. A writer parked on the source's
    /// fence wakes at the release, gets the typed refusal, and retries
    /// through the installed table.
    fn do_cutover(&mut self) {
        let MigrationSpec { mid, slot, from, to } = self.spec;
        let next = self.env.routing.current().with_slot_moved(slot, to);
        self.log.record(mid, Phase::CutOver, slot, from, to, next.epoch);
        self.env.dest.own.adopt(slot);
        self.env.routing.install(next);
        self.env.source.own.release(slot);
        self.phase = Phase::CutOver;
    }

    /// Re-applies a durable cutover after a crash, in the same order. Every
    /// piece is idempotent: the install is epoch-fenced (`logged_epoch` is
    /// the epoch the dead incarnation forced), adopt/release are absolute.
    fn roll_forward_cutover(&mut self, logged_epoch: u64) {
        let MigrationSpec { slot, to, .. } = self.spec;
        self.env.dest.own.adopt(slot);
        if self.env.routing.epoch() < logged_epoch {
            self.env.routing.install(self.env.routing.current().with_slot_moved(slot, to));
        }
        self.env.source.own.release(slot);
    }

    /// CutOver → Done: delete the source's copy of the slot (it no longer
    /// owns it; the rows live on the destination) and record completion.
    fn do_cleanup(&mut self) -> Result<(), MigrateError> {
        let MigrationSpec { mid, slot, from, to } = self.spec;
        let slot_count = self.env.routing.slot_count();
        for tid in self.env.source.db.catalog().into_iter().map(|t| t.schema.id) {
            let t = self.env.source.db.table(tid).ok_or(RangeShipError::NoTable(tid))?;
            let mut gone = Vec::new();
            t.scan(|key, _| {
                if esdb_core::slot_of(tid, key, slot_count) == slot {
                    gone.push(key);
                }
            })
            .map_err(RangeShipError::from)?;
            for key in gone {
                t.delete(key).map_err(RangeShipError::from)?;
            }
        }
        let _ = self.env.source.db.pool().flush_all();
        self.log.record(mid, Phase::Done, slot, from, to, 0);
        self.phase = Phase::Done;
        Ok(())
    }
}
