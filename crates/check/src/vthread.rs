//! Virtual cooperative threads: real OS threads, serialized one-at-a-time.
//!
//! Each governed thread owns a [`Handshake`] — a single command/report slot
//! the scheduler and the thread alternate on. The scheduler issues exactly
//! one [`Cmd`] and then waits for exactly one [`Report`]; the thread posts a
//! report at every yield point and waits for the next command. At any moment
//! at most one virtual thread is running, so the engine's shared state only
//! ever changes under a scheduler-chosen step — which is what makes a seeded
//! schedule replay byte-identically.

use esdb_sync::sched::{Mutation, SchedHook, YieldPoint};
use std::cell::{Cell, RefCell};
use std::sync::{Arc, Condvar, Mutex};

/// Scheduler → thread commands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Cmd {
    /// Run until the next yield point.
    Step,
    /// Re-evaluate the blocking predicate and report again (no progress).
    Poll,
    /// Leave the scheduler's control and fall back to OS blocking.
    Detach,
}

/// Thread → scheduler reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Report {
    /// Stopped at a yield point. `ready` is `false` when the thread is
    /// blocked on a predicate that does not currently hold.
    Paused { point: YieldPoint, ready: bool },
    /// The thread's governed body ran to completion.
    Finished,
    /// The thread acknowledged a `Detach` and now runs free.
    Detached,
}

#[derive(Default)]
struct Slot {
    cmd: Option<Cmd>,
    report: Option<Report>,
}

/// One command/report rendezvous slot (strictly alternating protocol).
pub(crate) struct Handshake {
    slot: Mutex<Slot>,
    cv: Condvar,
}

impl Handshake {
    pub(crate) fn new() -> Self {
        Handshake {
            slot: Mutex::new(Slot::default()),
            cv: Condvar::new(),
        }
    }

    /// Scheduler side: issue `cmd`, then wait for the thread's next report.
    pub(crate) fn command(&self, cmd: Cmd) -> Report {
        let mut s = self.slot.lock().unwrap();
        debug_assert!(s.cmd.is_none(), "command already pending");
        s.cmd = Some(cmd);
        self.cv.notify_all();
        loop {
            if let Some(r) = s.report.take() {
                return r;
            }
            s = self.cv.wait(s).unwrap();
        }
    }

    /// Thread side: post `report`, then wait for the next command.
    pub(crate) fn pause(&self, report: Report) -> Cmd {
        let mut s = self.slot.lock().unwrap();
        debug_assert!(s.report.is_none(), "report already pending");
        s.report = Some(report);
        self.cv.notify_all();
        loop {
            if let Some(c) = s.cmd.take() {
                return c;
            }
            s = self.cv.wait(s).unwrap();
        }
    }

    /// Thread side: post a final report without waiting for a command.
    pub(crate) fn post(&self, report: Report) {
        let mut s = self.slot.lock().unwrap();
        s.report = Some(report);
        self.cv.notify_all();
    }

    /// Thread side: wait for the first command without posting anything
    /// (start-of-life parking, so a spawned thread never races its spawner).
    pub(crate) fn wait_cmd(&self) -> Cmd {
        let mut s = self.slot.lock().unwrap();
        loop {
            if let Some(c) = s.cmd.take() {
                return c;
            }
            s = self.cv.wait(s).unwrap();
        }
    }
}

struct VtCtx {
    hs: Arc<Handshake>,
    detached: Cell<bool>,
}

thread_local! {
    static CURRENT: RefCell<Option<VtCtx>> = const { RefCell::new(None) };
}

fn current_handshake() -> Option<Arc<Handshake>> {
    CURRENT.with(|c| {
        c.borrow().as_ref().and_then(|v| {
            if v.detached.get() {
                None
            } else {
                Some(Arc::clone(&v.hs))
            }
        })
    })
}

fn mark_detached() {
    CURRENT.with(|c| {
        if let Some(v) = c.borrow().as_ref() {
            v.detached.set(true);
        }
    });
}

/// Runner-side adoption: bind `hs` to the calling thread and park until the
/// scheduler first steps it. Used by the runner's own client/init threads
/// (engine-internal threads use `register_spawned` via the hook instead).
pub(crate) fn adopt_and_wait(hs: Arc<Handshake>) {
    CURRENT.with(|c| {
        *c.borrow_mut() = Some(VtCtx {
            hs: Arc::clone(&hs),
            detached: Cell::new(false),
        });
    });
    match hs.wait_cmd() {
        Cmd::Step | Cmd::Poll => {}
        Cmd::Detach => {
            mark_detached();
            hs.post(Report::Detached);
        }
    }
}

/// Runner-side completion: report `Finished` unless already detached.
pub(crate) fn finish() {
    CURRENT.with(|c| {
        if let Some(v) = c.borrow_mut().take() {
            if !v.detached.get() {
                v.hs.post(Report::Finished);
            }
        }
    });
}

/// A freshly registered engine thread, not yet admitted by the scheduler.
pub(crate) struct PendingReg {
    pub tag: u64,
    pub hs: Arc<Handshake>,
}

struct Registry {
    pending: Vec<PendingReg>,
    total: usize,
    expected: usize,
}

/// The [`SchedHook`] implementation esdb-check installs for a run.
pub(crate) struct CheckHook {
    reg: Mutex<Registry>,
    reg_cv: Condvar,
    /// The run's seeded engine mutation (`CheckConfig::mutation`).
    mutation: Option<Mutation>,
}

impl CheckHook {
    pub(crate) fn new(mutation: Option<Mutation>) -> Self {
        CheckHook {
            reg: Mutex::new(Registry {
                pending: Vec::new(),
                total: 0,
                expected: 0,
            }),
            reg_cv: Condvar::new(),
            mutation,
        }
    }

    /// Scheduler side: take all registrations that arrived since last drain,
    /// in tag order (tags are stable, so admission order is deterministic).
    pub(crate) fn drain_pending(&self) -> Vec<PendingReg> {
        let mut regs = std::mem::take(&mut self.reg.lock().unwrap().pending);
        regs.sort_by_key(|r| r.tag);
        regs
    }
}

impl SchedHook for CheckHook {
    fn yield_now(&self, point: YieldPoint) {
        let Some(hs) = current_handshake() else { return };
        loop {
            match hs.pause(Report::Paused { point, ready: true }) {
                Cmd::Step => return,
                Cmd::Poll => {}
                Cmd::Detach => {
                    mark_detached();
                    hs.post(Report::Detached);
                    return;
                }
            }
        }
    }

    fn block_until(&self, point: YieldPoint, ready: &mut dyn FnMut() -> bool) -> bool {
        let Some(hs) = current_handshake() else {
            return false;
        };
        loop {
            let ok = ready();
            match hs.pause(Report::Paused { point, ready: ok }) {
                // Re-check on Step: the predicate must hold *now*, under the
                // scheduler, for the caller to proceed.
                Cmd::Step => {
                    if ready() {
                        return true;
                    }
                }
                Cmd::Poll => {}
                Cmd::Detach => {
                    mark_detached();
                    hs.post(Report::Detached);
                    return false;
                }
            }
        }
    }

    fn register_spawned(&self, tag: u64) -> bool {
        if CURRENT.with(|c| c.borrow().is_some()) {
            return true; // already governed
        }
        let hs = Arc::new(Handshake::new());
        CURRENT.with(|c| {
            *c.borrow_mut() = Some(VtCtx {
                hs: Arc::clone(&hs),
                detached: Cell::new(false),
            });
        });
        {
            let mut reg = self.reg.lock().unwrap();
            reg.pending.push(PendingReg {
                tag,
                hs: Arc::clone(&hs),
            });
            reg.total += 1;
            self.reg_cv.notify_all();
        }
        // Park until first scheduled: a freshly spawned engine thread must
        // never run concurrently with its (virtual) spawner.
        match hs.wait_cmd() {
            Cmd::Step | Cmd::Poll => {}
            Cmd::Detach => {
                mark_detached();
                hs.post(Report::Detached);
            }
        }
        true
    }

    fn deregister_spawned(&self) {
        finish();
    }

    fn sync_spawned(&self, count: usize) {
        let mut reg = self.reg.lock().unwrap();
        reg.expected += count;
        while reg.total < reg.expected {
            reg = self.reg_cv.wait(reg).unwrap();
        }
    }

    fn mutated(&self, m: Mutation) -> bool {
        self.mutation == Some(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handshake_alternates_command_and_report() {
        let hs = Arc::new(Handshake::new());
        let h2 = Arc::clone(&hs);
        let t = std::thread::spawn(move || {
            assert_eq!(h2.wait_cmd(), Cmd::Step);
            let cmd = h2.pause(Report::Paused {
                point: YieldPoint::Park,
                ready: true,
            });
            assert_eq!(cmd, Cmd::Step);
            h2.post(Report::Finished);
        });
        let r = hs.command(Cmd::Step);
        assert_eq!(
            r,
            Report::Paused {
                point: YieldPoint::Park,
                ready: true
            }
        );
        let r = hs.command(Cmd::Step);
        assert_eq!(r, Report::Finished);
        t.join().unwrap();
    }
}
