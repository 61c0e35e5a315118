//! Agents: the threads that lend their intention grants from one
//! transaction to the next (speculative lock inheritance).
//!
//! An agent is the OS thread that begins a transaction — a thread calling
//! the engine in process, a reactor, a checker vthread. At commit its
//! transaction keeps the IS/IX grants it took on the database and table
//! granules; they stay in the lock table under the agent's owner id
//! (`AGENT_BASE` and up, a range no transaction id reaches) and the next
//! transaction the agent begins starts with them already in its
//! [`HeldLocks`](crate::HeldLocks), so it never visits those entries.
//!
//! To the manager an agent is that id and one `live` word, which revoking
//! requesters read by id with no lock. The list of inherited grants has one
//! owner: the thread's binding to the agent, a small thread-local cache,
//! holds it between transactions and lends it to the live one. The agent
//! table is built on the first `begin`.

use crate::manager::Held;
use crate::TxnId;
use esdb_sync::{Mutex, Registry};
use std::cell::RefCell;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Weak};

/// Owner ids at or above this are agents, not transactions: transaction ids
/// count up from 1 and never reach it.
pub(crate) const AGENT_BASE: TxnId = 1 << 63;

/// `true` when `owner` names an agent rather than a transaction.
pub(crate) fn is_agent(owner: TxnId) -> bool {
    owner >= AGENT_BASE
}

/// A manager's agent table: every agent's `live` word by number, and the
/// agents no thread has bound. A thread that drops its binding (it exits,
/// or its cache evicts the binding) returns the agent, with the grants it
/// still holds, for the next thread, so the table never outgrows the number
/// of threads bound at once.
#[derive(Default)]
pub(crate) struct Agents {
    /// The revoke epoch: bumped by every request that must take an agent's
    /// grant away; agents drop their inheritance when they see it move.
    pub(crate) epoch: AtomicU64,
    /// The transaction each agent lends its grants to, or 0 when idle.
    /// Claimed by compare-and-swap at `begin`, cleared at the end of the
    /// transaction; a revoking requester reads it to tell an idle agent
    /// (whose grant it removes) from a live one (which it waits for).
    live: Registry<AtomicU64>,
    /// Unbound agents and their grants; locked only to bind and unbind.
    free: Mutex<Vec<(TxnId, Vec<Held>)>>,
}

impl Agents {
    /// Agent `id`'s `live` word.
    pub(crate) fn live(&self, id: TxnId) -> &AtomicU64 {
        self.live
            .get((id - AGENT_BASE) as usize)
            .expect("an agent's live word is registered when it is made")
    }

    /// Number of agents made so far.
    pub(crate) fn len(&self) -> usize {
        self.live.len()
    }
}

/// A thread's binding to one manager's agent: the agent's id and, while no
/// transaction borrows it, its inherited grants. The manager is known by
/// the address of its agent table, which the `Weak` keeps from being reused
/// while the binding lives.
pub(crate) struct Binding {
    agents: Weak<Agents>,
    pub(crate) id: TxnId,
    /// The inherited grants; also the buffer the next transaction's
    /// `HeldLocks` reuses. Empty while a transaction borrows them.
    pub(crate) locks: Vec<Held>,
    /// The revoke epoch `locks` was last checked against.
    pub(crate) epoch: u64,
}

impl Drop for Binding {
    fn drop(&mut self) {
        if let Some(agents) = self.agents.upgrade() {
            agents
                .free
                .lock()
                .push((self.id, std::mem::take(&mut self.locks)));
        }
    }
}

/// The epoch of a new binding's grants; the revoke epoch counts up from 0
/// and never reaches it, so the first borrower drops what a free agent
/// still held and the thread taking it over starts as one with a fresh
/// agent would.
const RETIRED: u64 = u64::MAX;

/// Managers a thread keeps an agent bound for. A thread that alternates
/// between more databases than this rebinds, taking an agent from the
/// manager's free list — usually the one it gave back.
const BINDINGS: usize = 4;

thread_local! {
    static BOUND: RefCell<Vec<Binding>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` on the calling thread's binding to `agents`; with `bind`, one
/// is made first if there is none, with a free agent or a new one. `None`
/// when there is no binding, or while the thread is being torn down.
pub(crate) fn with_binding<R>(
    agents: &Arc<Agents>,
    bind: bool,
    f: impl FnOnce(&mut Binding) -> R,
) -> Option<R> {
    BOUND
        .try_with(|bound| {
            let mut bound = bound.try_borrow_mut().ok()?;
            let at = match bound
                .iter()
                .position(|b| Weak::as_ptr(&b.agents) == Arc::as_ptr(agents))
            {
                Some(at) => at,
                None if bind => {
                    let mut free = agents.free.lock();
                    let (id, locks) = free.pop().unwrap_or_else(|| {
                        let n = agents.live.len();
                        agents.live.register(n, AtomicU64::new(0));
                        (AGENT_BASE + n as u64, Vec::with_capacity(16))
                    });
                    drop(free);
                    if bound.len() == BINDINGS {
                        bound.remove(0);
                    }
                    bound.push(Binding {
                        agents: Arc::downgrade(agents),
                        id,
                        locks,
                        epoch: RETIRED,
                    });
                    bound.len() - 1
                }
                None => return None,
            };
            Some(f(&mut bound[at]))
        })
        .ok()
        .flatten()
}
