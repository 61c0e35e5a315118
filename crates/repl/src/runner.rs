//! The TCP replica runner: bootstrap from a primary, subscribe, and keep the
//! apply loop fed on a background thread, reconnecting through the client's
//! jittered backoff when the primary restarts or drops the feed.

use crate::htap::HtapView;
use crate::replica::{Replica, ReplError};
use esdb_core::config::EngineConfig;
use esdb_core::Database;
use esdb_net::{Client, Follower, ReconnectPolicy};
use esdb_sync::RwLock;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A running replica: the database to serve reads from, the apply-frontier
/// watermark to gate them with, and control over the feed thread.
pub struct ReplicaHandle {
    db: Arc<Database>,
    applied: Arc<AtomicU64>,
    gate: Arc<RwLock<()>>,
    stop: Arc<AtomicBool>,
    feed_live: Arc<AtomicBool>,
    feed: Option<JoinHandle<Result<(), ReplError>>>,
}

impl ReplicaHandle {
    /// The replica database. Hand a clone to an [`esdb_net::Server`]
    /// together with [`ReplicaHandle::follower`] to serve follower reads.
    pub fn db(&self) -> &Arc<Database> {
        &self.db
    }

    /// The apply frontier.
    pub fn watermark(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.applied)
    }

    /// A commit-consistent analytical view over this replica, for in-process
    /// OLAP ([`HtapView::query_at`]).
    pub fn htap_view(&self) -> HtapView {
        HtapView::new(Arc::clone(&self.db), Arc::clone(&self.applied), Arc::clone(&self.gate))
    }

    /// The current apply frontier.
    pub fn applied_lsn(&self) -> u64 {
        self.applied.load(Ordering::Acquire)
    }

    /// The server role that serves this replica's reads: its apply
    /// frontier, its apply gate (the feed thread holds the write side for
    /// each redo batch, and every wire query runs under the read side, so it
    /// observes the heap only at transaction-consistent cuts), and the feed
    /// thread's liveness, `true` while the apply loop runs and `false`
    /// the moment it exits for any reason, so a token the frontier can no
    /// longer reach answers `Lagging` at once instead of after
    /// `read_at_wait`.
    pub fn follower(&self, read_at_wait: Duration) -> Follower {
        Follower {
            applied: self.watermark(),
            feed_live: Arc::clone(&self.feed_live),
            gate: Arc::clone(&self.gate),
            read_at_wait,
        }
    }

    /// Stops the feed thread and returns its verdict: `Ok(())` for a clean
    /// stop, or the typed error that halted the feed (corruption, gap, an
    /// unrecoverable transport failure).
    pub fn shutdown(mut self) -> Result<(), ReplError> {
        self.stop.store(true, Ordering::SeqCst);
        match self.feed.take() {
            Some(h) => h.join().expect("replica feed thread"),
            None => Ok(()),
        }
    }
}

impl Drop for ReplicaHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.feed.take() {
            let _ = h.join();
        }
    }
}

/// Bootstraps a replica from the primary at `addr` (snapshot fetch happens
/// synchronously, so the returned handle's database is immediately
/// readable), then keeps it converging on a background thread.
pub fn start_replica(
    addr: SocketAddr,
    config: EngineConfig,
    policy: ReconnectPolicy,
) -> Result<ReplicaHandle, ReplError> {
    let mut client = Client::connect_with_backoff(addr, &policy)?;
    let snapshot = client.fetch_snapshot()?;
    let mut replica = Replica::bootstrap(snapshot, config)?;
    let db = Arc::clone(replica.db());
    let applied = replica.watermark();
    let gate = replica.apply_gate();
    let stop = Arc::new(AtomicBool::new(false));
    let feed_live = Arc::new(AtomicBool::new(true));
    let feed = {
        let stop = Arc::clone(&stop);
        let live = Arc::clone(&feed_live);
        std::thread::spawn(move || {
            let verdict = feed_loop(&mut replica, Some(client), addr, &policy.clone(), &stop);
            live.store(false, Ordering::SeqCst);
            verdict
        })
    };
    Ok(ReplicaHandle { db, applied, gate, stop, feed_live, feed: Some(feed) })
}

/// Subscribes and pumps chunks until stopped. A reconnectable transport
/// failure (primary restarting, feed dropped) loops back through
/// `connect_with_backoff` and re-subscribes from the durable cursor's end —
/// the cursor makes the resume point exact, and overlap dedup in
/// [`Replica::ingest`] absorbs any replayed tail. Everything else — log
/// corruption, a gap past the cursor, a protocol violation — is final.
fn feed_loop(
    replica: &mut Replica,
    first: Option<Client>,
    addr: SocketAddr,
    policy: &ReconnectPolicy,
    stop: &AtomicBool,
) -> Result<(), ReplError> {
    let mut pending_client = first;
    loop {
        if stop.load(Ordering::SeqCst) {
            return Ok(());
        }
        let mut client = match pending_client.take() {
            Some(c) => c,
            None => match Client::connect_with_backoff(addr, policy) {
                Ok(c) => c,
                Err(e) if e.is_reconnectable() => continue,
                Err(e) => return Err(e.into()),
            },
        };
        client.set_read_timeout(Some(Duration::from_millis(25)))?;
        if let Err(e) = client.subscribe(replica.subscribe_from(), replica.term()) {
            if e.is_reconnectable() {
                continue;
            }
            return Err(e.into());
        }
        loop {
            if stop.load(Ordering::SeqCst) {
                return Ok(());
            }
            match client.try_next_chunk() {
                Ok(Some((term, start, bytes))) => {
                    replica.land_term(term, start, &bytes)?;
                    // Ack what is now *durable in the cursor* (not merely
                    // applied) — that is the guarantee semi-sync quorum
                    // commit needs from a follower — before paying for the
                    // apply work, which would otherwise sit inside the
                    // primary's commit latency.
                    if let Err(e) = client.send_ack(replica.term(), replica.subscribe_from()) {
                        if e.is_reconnectable() {
                            break; // reconnect outer
                        }
                        return Err(e.into());
                    }
                    replica.pump()?;
                }
                Ok(None) => {}
                Err(e) if e.is_reconnectable() => break, // reconnect outer
                Err(e) => return Err(e.into()),
            }
        }
    }
}
