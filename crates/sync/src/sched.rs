//! Deterministic-scheduling seam.
//!
//! `esdb-check` runs the real engine on *virtual cooperative threads*: every
//! blocking edge (lock waits, parks, commit/log waits, DORA rendezvous,
//! executor message receives) routes through this module, and a test-installed
//! [`SchedHook`] turns each edge into an explicit yield point a seeded
//! scheduler can single-step. In production nothing is installed and every
//! entry point costs one relaxed atomic load on an always-false flag — the
//! slow paths are `#[cold]` and out of line, so the hot paths stay branch-
//! predicted no-ops.
//!
//! Protocol contract for hook implementors:
//!
//! * [`SchedHook::block_until`] returns `true` once the predicate held while
//!   the calling thread was scheduled; returning `false` means "this thread is
//!   not (or no longer) governed by the scheduler" and the caller must fall
//!   back to its ordinary OS blocking primitive (condvar, channel receive).
//! * [`SchedHook::register_spawned`] adopts the calling thread as a virtual
//!   thread and must not return until the scheduler first runs it, so a
//!   freshly spawned thread can never race its spawner.
//! * [`SchedHook::sync_spawned`] is the spawner-side barrier: it blocks until
//!   `count` further threads have registered.
//! * [`SchedHook::mutated`] switches on a seeded engine [`Mutation`] for the
//!   hook's run. The engine asks [`mutated`] at each mutation site, so a
//!   mutation exists only while a hook that answers `true` is installed.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};

/// Where in the engine a virtual thread yields or blocks. Labels show up in
/// recorded schedules and shrunk failure traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum YieldPoint {
    /// A lock-table visit in `LockManager::acquire` (an acquire the caller's
    /// `HeldLocks` already covers never reaches the table and does not
    /// yield).
    LockAcquire,
    /// Blocked in `LockManager::acquire` waiting for a grant.
    LockWait,
    /// Entry to `LockManager::release_all`.
    LockRelease,
    /// Entry to `LockManager::begin`, before the thread's agent is claimed:
    /// between two of a thread's transactions the agent is idle here, and a
    /// revoke may take its inherited grants.
    LockBegin,
    /// Parked on a `RawLock` slow path (BlockLock / HybridLock).
    Park,
    /// Just released a contended `RawLock` (the wake side of `Park`).
    Unpark,
    /// About to append/await the commit record in `Txn::commit`.
    CommitLog,
    /// DORA client about to send a package / verdict to one partition.
    /// Makes cross-partition dispatch interleavings explorable: without it,
    /// a transaction's packages arrive at every partition in one atomic
    /// burst and per-partition FIFO order can never invert between clients.
    DoraDispatch,
    /// Blocked in an RVP waiting for per-partition verdicts.
    RvpWait,
    /// DORA executor waiting for the next message.
    ExecutorRecv,
}

impl YieldPoint {
    /// Stable short label for traces.
    pub fn name(self) -> &'static str {
        match self {
            YieldPoint::LockAcquire => "lock-acquire",
            YieldPoint::LockWait => "lock-wait",
            YieldPoint::LockRelease => "lock-release",
            YieldPoint::LockBegin => "lock-begin",
            YieldPoint::Park => "park",
            YieldPoint::Unpark => "unpark",
            YieldPoint::CommitLog => "commit-log",
            YieldPoint::DoraDispatch => "dora-dispatch",
            YieldPoint::RvpWait => "rvp-wait",
            YieldPoint::ExecutorRecv => "exec-recv",
        }
    }
}

/// A deliberate engine fault the checker switches on through
/// [`SchedHook::mutated`], to prove its oracles catch the damage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mutation {
    /// `esdb-txn`: release all locks after every operation (breaks 2PL).
    ReleaseLocksEarly,
    /// `esdb-dora`: ignore wait-die conflicts (co-own keys).
    DisableWaitDie,
    /// `esdb-lock`: a transaction that begins keeps its agent's inherited
    /// intention grants across a moved revoke epoch, so it writes under a
    /// table lock a scan has already taken away.
    InheritAcrossRevoke,
}

/// The pluggable scheduler seam. Implemented by `esdb-check`; never
/// implemented in production builds.
pub trait SchedHook: Send + Sync {
    /// Cooperative yield at `point`. No-op for non-virtual threads.
    fn yield_now(&self, point: YieldPoint);
    /// Block at `point` until `ready()` holds. Returns `false` if the thread
    /// is not governed (caller must use its OS blocking path instead).
    fn block_until(&self, point: YieldPoint, ready: &mut dyn FnMut() -> bool) -> bool;
    /// Adopt the calling thread as a virtual thread with a stable `tag`.
    /// Blocks until the scheduler first runs the thread. Returns `false` if
    /// the hook declined (caller behaves like an ordinary OS thread).
    fn register_spawned(&self, tag: u64) -> bool;
    /// The calling (registered) thread is about to exit.
    fn deregister_spawned(&self);
    /// Spawner-side barrier: wait until `count` more threads registered.
    fn sync_spawned(&self, count: usize);
    /// Is mutation `m` switched on for this hook's run?
    fn mutated(&self, _m: Mutation) -> bool {
        false
    }
}

static ACTIVE: AtomicBool = AtomicBool::new(false);
static HOOK: RwLock<Option<Arc<dyn SchedHook>>> = RwLock::new(None);

/// Install `hook` process-wide. Only one hook can be active; the caller
/// (esdb-check's runner) serializes checked runs behind a global mutex.
pub fn install(hook: Arc<dyn SchedHook>) {
    *HOOK.write().unwrap() = Some(hook);
    ACTIVE.store(true, Ordering::SeqCst);
}

/// Remove the installed hook. Threads mid-call observe `None` and fall back
/// to their OS blocking paths.
pub fn uninstall() {
    ACTIVE.store(false, Ordering::SeqCst);
    *HOOK.write().unwrap() = None;
}

/// Is any hook installed? One relaxed load; this is the production fast path.
#[inline(always)]
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

#[cold]
fn current() -> Option<Arc<dyn SchedHook>> {
    HOOK.read().unwrap().clone()
}

/// Cooperative yield at `point`. Free when no hook is installed.
#[inline(always)]
pub fn yield_now(point: YieldPoint) {
    if active() {
        yield_slow(point);
    }
}

#[cold]
fn yield_slow(point: YieldPoint) {
    if let Some(h) = current() {
        h.yield_now(point);
    }
}

/// Block at `point` until `ready()` holds, under the scheduler. Returns
/// `false` when the thread is not governed — the caller must then block on
/// its ordinary OS primitive. Free when no hook is installed.
#[inline(always)]
pub fn block_until(point: YieldPoint, mut ready: impl FnMut() -> bool) -> bool {
    if !active() {
        return false;
    }
    block_slow(point, &mut ready)
}

#[cold]
fn block_slow(point: YieldPoint, ready: &mut dyn FnMut() -> bool) -> bool {
    match current() {
        Some(h) => h.block_until(point, ready),
        None => false,
    }
}

/// Is engine mutation `m` switched on? Only an installed hook can say yes;
/// without one this is the same single relaxed load as [`yield_now`].
#[inline(always)]
pub fn mutated(m: Mutation) -> bool {
    active() && mutated_slow(m)
}

#[cold]
fn mutated_slow(m: Mutation) -> bool {
    current().is_some_and(|h| h.mutated(m))
}

/// Adopt the calling thread as a virtual thread (see [`SchedHook`]).
pub fn register_spawned(tag: u64) -> bool {
    if !active() {
        return false;
    }
    current().map_or(false, |h| h.register_spawned(tag))
}

/// Registered-thread exit notification.
pub fn deregister_spawned() {
    if active() {
        if let Some(h) = current() {
            h.deregister_spawned();
        }
    }
}

/// Spawner-side barrier for `count` freshly spawned threads.
pub fn sync_spawned(count: usize) {
    if active() {
        if let Some(h) = current() {
            h.sync_spawned(count);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    const MUTATIONS: [Mutation; 3] =
        [Mutation::ReleaseLocksEarly, Mutation::DisableWaitDie, Mutation::InheritAcrossRevoke];

    // Declines governance (block_until false) so that a
    // brief install window cannot disturb concurrently running lock tests.
    // Leaves `mutated` at its default.
    struct CountingHook {
        yields: AtomicUsize,
    }

    impl SchedHook for CountingHook {
        fn yield_now(&self, _point: YieldPoint) {
            self.yields.fetch_add(1, Ordering::SeqCst);
        }
        fn block_until(&self, _point: YieldPoint, _ready: &mut dyn FnMut() -> bool) -> bool {
            false
        }
        fn register_spawned(&self, _tag: u64) -> bool {
            false
        }
        fn deregister_spawned(&self) {}
        fn sync_spawned(&self, _count: usize) {}
    }

    #[test]
    fn hook_lifecycle() {
        // Before install (tests elsewhere in this crate never install one):
        // every entry point is inert, reports "not governed", and no
        // mutation exists.
        yield_now(YieldPoint::Park);
        assert!(MUTATIONS.iter().all(|&m| !mutated(m)));
        let hook = Arc::new(CountingHook { yields: AtomicUsize::new(0) });
        install(hook.clone());
        yield_now(YieldPoint::CommitLog);
        assert!(hook.yields.load(Ordering::SeqCst) >= 1);
        // A hook that declines governance sends callers to their OS paths.
        assert!(!block_until(YieldPoint::LockWait, || true));
        // A hook that does not override `mutated` switches nothing on.
        assert!(MUTATIONS.iter().all(|&m| !mutated(m)));
        uninstall();
        assert!(!active());
        assert!(!block_until(YieldPoint::Park, || true));
        assert!(!register_spawned(7));
        assert!(MUTATIONS.iter().all(|&m| !mutated(m)));
    }
}
