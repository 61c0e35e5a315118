//! # esdb-bench — the experiment harness
//!
//! One binary per figure/table of the reproduction (see DESIGN.md for the
//! experiment index and EXPERIMENTS.md for recorded results):
//!
//! | binary | claim | what it prints |
//! |---|---|---|
//! | `fig1_scaling` | bounded utility of conventional parallelism vs DORA | TATP throughput vs simulated contexts |
//! | `fig2_log` | serial log collapse, consolidation scaling | log-bound throughput vs contexts (sim) + real-thread buffer microbench |
//! | `fig3_sync` | spin vs block vs hybrid crossover | critical-section throughput vs CS length and oversubscription |
//! | `fig4_cache` | bigger/shared caches can hurt | fixed-area cores-vs-cache sweep, shared vs private L2 |
//! | `fig5_staged` | staged beats Volcano | query time vs packet size, both engines |
//! | `fig6_breakdown` | where the cycles go | stacked cycle breakdown vs contexts |
//! | `fig7_elr` | ELR hides flush latency | throughput vs log-device latency, ELR on/off |
//! | `tab2_recovery` | substrate soundness | crash-recovery outcomes and costs |
//! | `crash_torture` | soundness under damaged logs | seeded truncation/bit-flip/lying-device crash iterations |
//! | `tab_repl` | replicas scale reads | read/write tps and replication lag vs replica count |
//! | `tab_htap` | follower OLAP leaves the primary alone | primary tps ± a pinned or busy follower query, index = scan |
//! | `tab_rebal` | a live slot move costs only its fence | foreground tps ± a live migration, fence window |
//!
//! Every simulated experiment is deterministic; every native experiment
//! reports medians over repetitions. Run any binary with
//! `cargo run --release -p esdb-bench --bin <name>`. None is a performance
//! gate: engine, wire and 2PC numbers are the referee's (`benchmark/`), and
//! fig6b's simulator cells are pinned by exact equality in `esdb-core`'s
//! `simbridge` tests.

use std::time::Instant;

/// Prints a series header (figure id + column names).
pub fn header(id: &str, title: &str, cols: &[&str]) {
    println!("\n=== {id}: {title} ===");
    println!("{}", cols.join("\t"));
}

/// Prints one row of tab-separated values.
pub fn row(vals: &[String]) {
    println!("{}", vals.join("\t"));
}

/// Median wall-clock seconds of `reps` runs of `f`.
pub fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    times[times.len() / 2]
}

/// The context counts every simulated sweep uses.
pub const CONTEXT_SWEEP: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_constant_work() {
        let m = median_secs(3, || {
            std::hint::black_box(1 + 1);
        });
        assert!(m >= 0.0);
    }
}
