//! fig4_cache — "common sense is often contradicted".
//!
//! Claim: *"increasing on-chip cache size or aggressively sharing data among
//! processors is often detrimental to performance."* Two sweeps:
//!
//! 1. **Fixed transistor budget**: spend area on contexts vs L2 capacity;
//!    OLTP working sets don't fit anyway, so past a modest cache the extra
//!    area is better spent on contexts — and the oversized cache's latency
//!    actively hurts.
//! 2. **L2 size at fixed contexts**: throughput vs L2 capacity, showing the
//!    rise (capacity) and fall (latency) directly.

use esdb_bench::{header, row};
use esdb_core::{run_sim_workload, EngineConfig, SimRunConfig};
use esdb_sim::topology::AreaModel;
use esdb_sim::ChipConfig;
use esdb_workload::Ycsb;

fn run(chip: ChipConfig) -> f64 {
    let cfg = EngineConfig::scalable(256); // engine out of the way: cache-bound
    let mut w = Ycsb::new(2_000_000, 70, 0.2, 4, 5);
    let r = run_sim_workload(
        &mut w,
        &cfg,
        &SimRunConfig {
            chip,
            horizon: 3_000_000,
            flush_latency: 0,
        },
    );
    r.tpmc()
}

fn main() {
    let budget = AreaModel::new(1_280);
    header(
        "fig4a",
        "fixed transistor budget: contexts vs shared-L2 capacity (YCSB, txn/Mcycle)",
        &["contexts", "l2_kib", "tpmc_shared_l2", "tpmc_private_l2"],
    );
    for (contexts, l2_kib) in budget.allocations() {
        if contexts > 128 {
            break;
        }
        let shared = run(budget.chip(contexts, l2_kib, true));
        let private = run(budget.chip(contexts, (l2_kib / contexts).max(64), false));
        row(&[
            contexts.to_string(),
            l2_kib.to_string(),
            format!("{shared:.0}"),
            format!("{private:.0}"),
        ]);
    }

    header(
        "fig4b",
        "L2 capacity sweep at 16 contexts (shared L2; latency grows with size)",
        &["l2_kib", "tpmc", "l2_latency_cycles"],
    );
    for l2_kib in [512usize, 1024, 2048, 4096, 8192, 16384, 32768, 65536] {
        let chip = ChipConfig {
            contexts: 16,
            l2_kib,
            ..ChipConfig::default()
        };
        let lat = chip.l2_latency();
        row(&[
            l2_kib.to_string(),
            format!("{:.0}", run(chip)),
            lat.to_string(),
        ]);
    }
    println!(
        "\nexpected shape: (a) core-heavy allocations beat cache-heavy ones once the\n\
         cache exceeds what the working set rewards; (b) throughput rises with L2\n\
         capacity, then declines as the bigger array's latency taxes every miss\n\
         from L1 — bigger is not better."
    );
}
