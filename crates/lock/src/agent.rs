//! Agents: the threads that lend their intention grants from one
//! transaction to the next (speculative lock inheritance).
//!
//! An agent is the OS thread that begins a transaction — a thread calling
//! the engine in process, a reactor, a checker vthread. At commit its
//! transaction keeps the IS/IX grants it took on the database and table
//! granules; they stay in the lock table under the agent's owner id
//! ([`AGENT_BASE`] and up, a range no transaction id reaches) and the next
//! transaction the agent begins starts with them already in its
//! [`HeldLocks`](crate::HeldLocks), so it never visits those entries. The
//! manager finds a thread's agent through a small thread-local cache, with
//! no lock; its agent table is built on the first `begin`.

use crate::manager::Held;
use crate::TxnId;
use esdb_sync::Mutex;
use std::cell::RefCell;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Weak};

/// Owner ids at or above this are agents, not transactions: transaction ids
/// count up from 1 and never reach it.
pub const AGENT_BASE: TxnId = 1 << 63;

/// `true` when `owner` names an agent rather than a transaction.
pub(crate) fn is_agent(owner: TxnId) -> bool {
    owner >= AGENT_BASE
}

/// One agent of one lock manager.
pub(crate) struct Agent {
    /// The agent's owner id in the lock table's granted sets.
    pub(crate) id: TxnId,
    /// The transaction the agent lends its grants to, or 0 when idle. Claimed
    /// by compare-and-swap at `begin`, cleared at the end of the
    /// transaction; a revoking requester reads it to tell an idle agent
    /// (whose grant it removes) from a live one (which it waits for).
    pub(crate) live: AtomicU64,
    /// The inherited grants while no transaction borrows them.
    pub(crate) parked: Mutex<Parked>,
}

/// An agent's grants between transactions.
pub(crate) struct Parked {
    /// The inherited grants; also the buffer the next transaction's
    /// `HeldLocks` reuses.
    pub(crate) locks: Vec<Held>,
    /// The manager's revoke epoch these grants were last checked against.
    pub(crate) epoch: u64,
}

impl std::fmt::Debug for Agent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Agent")
            .field("id", &(self.id - AGENT_BASE))
            .field("live", &self.live)
            .finish()
    }
}

/// A manager's agent table: every agent it made, indexed by id, and the ones
/// no thread has bound. A thread that drops its binding (it exits, or its
/// cache evicts the binding) returns the agent here for the next thread, so
/// the table never outgrows the number of threads bound at once.
#[derive(Default)]
pub(crate) struct Agents {
    /// The revoke epoch: bumped by every request that must take an agent's
    /// grant away; agents drop their inheritance when they see it move.
    pub(crate) epoch: AtomicU64,
    slots: Mutex<Slots>,
}

#[derive(Default)]
struct Slots {
    all: Vec<Arc<Agent>>,
    free: Vec<Arc<Agent>>,
}

impl Agents {
    /// A free agent, or a new one. A free agent is retired first: an epoch
    /// no revoke reaches makes its next borrower drop what it inherited, so
    /// the thread taking it over starts as one with a fresh agent would.
    fn take(&self) -> Arc<Agent> {
        let mut slots = self.slots.lock();
        if let Some(agent) = slots.free.pop() {
            drop(slots);
            agent.parked.lock().epoch = RETIRED;
            return agent;
        }
        let agent = Arc::new(Agent {
            id: AGENT_BASE + slots.all.len() as u64,
            live: AtomicU64::new(0),
            parked: Mutex::new(Parked {
                locks: Vec::with_capacity(16),
                epoch: 0,
            }),
        });
        slots.all.push(Arc::clone(&agent));
        agent
    }

    /// The agent with owner id `id`.
    pub(crate) fn get(&self, id: TxnId) -> Arc<Agent> {
        Arc::clone(&self.slots.lock().all[(id - AGENT_BASE) as usize])
    }

    /// Number of agents made so far.
    pub(crate) fn len(&self) -> usize {
        self.slots.lock().all.len()
    }
}

/// A thread's binding to one manager's agent. The manager is known by the
/// address of its agent table, which the binding's `Weak` keeps from being
/// reused while the binding lives.
struct Binding {
    agent: Arc<Agent>,
    agents: Weak<Agents>,
}

impl Drop for Binding {
    fn drop(&mut self) {
        if let Some(agents) = self.agents.upgrade() {
            agents.slots.lock().free.push(Arc::clone(&self.agent));
        }
    }
}

/// The epoch of a retired agent's grants; the revoke epoch counts up from 0
/// and never reaches it.
const RETIRED: u64 = u64::MAX;

/// Managers a thread keeps an agent bound for. A thread that alternates
/// between more databases than this rebinds, taking an agent from the
/// manager's free list — usually the one it gave back.
const BINDINGS: usize = 4;

thread_local! {
    static BOUND: RefCell<Vec<Binding>> = const { RefCell::new(Vec::new()) };
}

/// The calling thread's agent in `agents`, bound on first use. `None`
/// while the thread is being torn down.
pub(crate) fn current(agents: &Arc<Agents>) -> Option<Arc<Agent>> {
    BOUND
        .try_with(|bound| {
            let mut bound = bound.try_borrow_mut().ok()?;
            if let Some(b) = bound
                .iter()
                .find(|b| Weak::as_ptr(&b.agents) == Arc::as_ptr(agents))
            {
                return Some(Arc::clone(&b.agent));
            }
            let agent = agents.take();
            if bound.len() == BINDINGS {
                bound.remove(0);
            }
            bound.push(Binding {
                agent: Arc::clone(&agent),
                agents: Arc::downgrade(agents),
            });
            Some(agent)
        })
        .ok()
        .flatten()
}
