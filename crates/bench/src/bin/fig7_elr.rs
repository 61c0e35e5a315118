//! fig7_elr — early lock release hides log-flush latency.
//!
//! Claim (Aether): holding locks across the commit flush makes every lock
//! holder's wait part of its dependents' critical path; releasing at
//! commit-record *insertion* (and acknowledging after durability) removes
//! the flush from the contention window.
//!
//! TPC-B (hot branch rows) at 32 simulated contexts, sweeping the log
//! device's flush latency, ELR off vs on.

use esdb_bench::{header, row};
use esdb_core::{run_sim_workload, EngineConfig, ExecutionModel, SimRunConfig};
use esdb_sim::ChipConfig;
use esdb_wal::LogPolicy;
use esdb_workload::Tpcb;

fn run(elr: bool, flush_latency: u64) -> f64 {
    let cfg = EngineConfig {
        execution: ExecutionModel::Conventional { lock_partitions: 64 },
        log: LogPolicy::Consolidated,
        elr,
        ..EngineConfig::default()
    };
    // Few branches → hot rows → lock waits dominated by commit latency.
    let mut w = Tpcb::new(4, 13);
    let r = run_sim_workload(
        &mut w,
        &cfg,
        &SimRunConfig {
            chip: ChipConfig::with_contexts(32),
            horizon: 6_000_000,
            flush_latency,
        },
    );
    r.tpmc()
}

fn main() {
    header(
        "fig7",
        "TPC-B throughput vs log flush latency, 32 contexts (txn/Mcycle)",
        &["flush_cycles", "no_elr", "elr", "elr_gain"],
    );
    for flush in [0u64, 1_000, 10_000, 50_000, 200_000, 1_000_000] {
        let off = run(false, flush);
        let on = run(true, flush);
        row(&[
            flush.to_string(),
            format!("{off:.0}"),
            format!("{on:.0}"),
            format!("{:.2}x", on / off.max(1e-9)),
        ]);
    }
    println!(
        "\nexpected shape: at zero latency ELR is a wash; as the device slows, the\n\
         no-ELR line falls off (locks held across flushes serialize the hot branch\n\
         row) while ELR holds throughput — gains grow with latency."
    );
}
