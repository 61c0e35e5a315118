//! fig1_scaling — the headline figure.
//!
//! Claim (keynote, citing the Shore-MT/DORA line): *"current parallelism
//! methods are of bounded utility as the number of processors per chip
//! increases exponentially"* — and decoupling data access from thread
//! assignment restores scalability.
//!
//! TATP (100k subscribers) on the CMP simulator, contexts 1→64:
//! the conventional engine (centralized lock manager + serial log), an
//! intermediate configuration (DORA + serial log), and the full scalable
//! stack (DORA + consolidated log + ELR).

use esdb_bench::{header, row, CONTEXT_SWEEP};
use esdb_core::{run_sim_workload, EngineConfig, ExecutionModel, SimRunConfig};
use esdb_wal::LogPolicy;
use esdb_workload::Tatp;

fn main() {
    // CI runs a reduced sweep: FIG1_CONTEXTS="1,4" FIG1_SUBSCRIBERS=1000.
    let contexts: Vec<usize> = std::env::var("FIG1_CONTEXTS")
        .map(|s| {
            s.split(',')
                .map(|c| c.trim().parse().expect("FIG1_CONTEXTS: comma-separated integers"))
                .collect()
        })
        .unwrap_or_else(|_| CONTEXT_SWEEP.to_vec());
    let subscribers: u64 = std::env::var("FIG1_SUBSCRIBERS")
        .map(|s| s.parse().expect("FIG1_SUBSCRIBERS: integer"))
        .unwrap_or(100_000);
    let configs: Vec<(&str, EngineConfig)> = vec![
        ("conventional", EngineConfig::conventional_baseline()),
        (
            "dora+serial-log",
            EngineConfig {
                execution: ExecutionModel::Dora { partitions: 64 },
                log: LogPolicy::Serial,
                elr: false,
                ..EngineConfig::default()
            },
        ),
        ("dora+conslog+elr", EngineConfig::scalable(64)),
    ];

    header(
        "fig1",
        "TATP throughput vs hardware contexts (simulated CMP, txn/Mcycle)",
        &["contexts", "conventional", "dora+serial-log", "dora+conslog+elr", "conv_speedup", "scalable_speedup"],
    );

    let mut base: Vec<f64> = vec![0.0; configs.len()];
    let first = contexts.first().copied().unwrap_or(1);
    for &contexts in &contexts {
        let mut tpmcs = Vec::new();
        for (i, (_, cfg)) in configs.iter().enumerate() {
            let mut w = Tatp::new(subscribers, 7);
            let r = run_sim_workload(&mut w, cfg, &SimRunConfig::at_contexts(contexts));
            let tpmc = r.tpmc();
            if contexts == first {
                base[i] = tpmc.max(1e-9);
            }
            tpmcs.push(tpmc);
        }
        row(&[
            contexts.to_string(),
            format!("{:.0}", tpmcs[0]),
            format!("{:.0}", tpmcs[1]),
            format!("{:.0}", tpmcs[2]),
            format!("{:.1}x", tpmcs[0] / base[0]),
            format!("{:.1}x", tpmcs[2] / base[2]),
        ]);
    }
    println!(
        "\nexpected shape: the conventional column flattens well before 64 contexts;\n\
         the scalable column keeps growing (bounded only by partitions/memory)."
    );
}
