//! fig3_sync — spinning vs blocking critical sections.
//!
//! Claim: *"spinning wastes cycles, while blocking incurs high overhead"* —
//! which primitive wins depends on critical-section length and how
//! oversubscribed the machine is.
//!
//! Simulated closed-loop clients contend on one lock; we sweep the critical
//! section length with (a) one task per context and (b) 4× oversubscription,
//! for spin, block, and hybrid policies. Plus a native microbench of the
//! real primitives on this host.

use esdb_bench::{header, median_secs, row};
use esdb_sim::dbmodel::critical_section_txn;
use esdb_sim::{ChipConfig, Simulation, WaitPolicy};
use esdb_sync::primitives::{BlockLock, HybridLock, McsLock, TicketLock};
use esdb_sync::{RawLock, TatasLock};
use std::sync::Arc;

fn sim_run(policy: WaitPolicy, cs: u64, contexts: usize, tasks: usize) -> f64 {
    let mut sim = Simulation::new(ChipConfig::with_contexts(contexts), policy, 0);
    for _ in 0..tasks {
        sim.add_task(move |_| critical_section_txn(1, cs, 4 * cs));
    }
    sim.run(5_000_000).tpmc()
}

/// Mixed scenario: 16 clients contend one lock while 48 independent clients
/// have pure compute available. A spinning waiter occupies a context that an
/// independent client could use; a blocking waiter frees it. Returns total
/// throughput (all clients).
fn sim_run_mixed(policy: WaitPolicy, cs: u64) -> f64 {
    let contexts = 16;
    let mut sim = Simulation::new(ChipConfig::with_contexts(contexts), policy, 0);
    for _ in 0..contexts {
        sim.add_task(move |_| critical_section_txn(1, cs, cs / 4 + 1));
    }
    for _ in 0..3 * contexts {
        sim.add_task(move |_| esdb_sim::Program::new().compute(2_000));
    }
    sim.run(5_000_000).tpmc()
}

fn sim_part() {
    header(
        "fig3a",
        "contended lock only: throughput vs CS length, 16 contexts, 1 task/context (txn/Mcycle)",
        &["cs_cycles", "spin", "block", "hybrid"],
    );
    for cs in [50u64, 200, 1_000, 5_000, 20_000, 100_000] {
        let contexts = 16;
        row(&[
            cs.to_string(),
            format!("{:.1}", sim_run(WaitPolicy::Spin, cs, contexts, contexts)),
            format!("{:.1}", sim_run(WaitPolicy::Block, cs, contexts, contexts)),
            format!("{:.1}", sim_run(WaitPolicy::DEFAULT_HYBRID, cs, contexts, contexts)),
        ]);
    }

    header(
        "fig3a2",
        "oversubscribed with independent work: total throughput (txn/Mcycle)",
        &["cs_cycles", "spin", "block", "hybrid"],
    );
    for cs in [200u64, 1_000, 5_000, 20_000, 100_000] {
        row(&[
            cs.to_string(),
            format!("{:.1}", sim_run_mixed(WaitPolicy::Spin, cs)),
            format!("{:.1}", sim_run_mixed(WaitPolicy::Block, cs)),
            format!("{:.1}", sim_run_mixed(WaitPolicy::DEFAULT_HYBRID, cs)),
        ]);
    }
}

fn native_part() {
    header(
        "fig3b",
        "native lock primitives: ops/s under 2 threads, short critical section",
        &["primitive", "Mops_per_s"],
    );
    // Deliberately small: on an oversubscribed (1-core) host, FIFO spin
    // locks convoy at scheduler-quantum granularity — itself a data point.
    const OPS: usize = 10_000;
    const THREADS: usize = 2;
    fn run<L: RawLock + 'static>(lock: L) -> f64 {
        let lock = Arc::new(lock);
        let secs = median_secs(1, || {
            std::thread::scope(|s| {
                for _ in 0..THREADS {
                    let lock = Arc::clone(&lock);
                    s.spawn(move || {
                        for _ in 0..OPS {
                            lock.lock();
                            std::hint::black_box(0u64);
                            lock.unlock();
                        }
                    });
                }
            });
        });
        (THREADS * OPS) as f64 / secs / 1e6
    }
    row(&["tatas".into(), format!("{:.2}", run(TatasLock::new()))]);
    row(&["ticket".into(), format!("{:.2}", run(TicketLock::new()))]);
    row(&["mcs".into(), format!("{:.2}", run(McsLock::new()))]);
    row(&["block".into(), format!("{:.2}", run(BlockLock::new()))]);
    row(&["hybrid".into(), format!("{:.2}", run(HybridLock::new()))]);
}

fn main() {
    sim_part();
    native_part();
    println!(
        "\nexpected shape: with 1 task/context, spinning wins short CS and ties long\n\
         ones; oversubscribed, spinning collapses (waiters burn contexts the holder\n\
         needs) while blocking/hybrid keep the machine busy. Hybrid tracks the best\n\
         policy at both extremes — the keynote's recommendation."
    );
}
