//! fig2_log — scalable logging (Aether).
//!
//! Claim: *"parallelism needs to be extracted from seemingly serial
//! operations such as logging."* Two parts:
//!
//! 1. **Simulated**: update-heavy TPC-B on DORA execution with ample
//!    partitions, so the log buffer is the only shared structure; contexts
//!    1→64 for serial vs decoupled vs consolidated buffers.
//! 2. **Native threads**: raw insert throughput of the three real buffer
//!    implementations under 1–8 threads on this host (on a single-core box
//!    this measures contention overhead, not parallel speedup).

use esdb_bench::{header, median_secs, row, CONTEXT_SWEEP};
use esdb_core::{run_sim_workload, EngineConfig, ExecutionModel, SimRunConfig};
use esdb_wal::{ConsolidatedLogBuffer, DecoupledLogBuffer, LogBuffer, LogPolicy, SerialLogBuffer};
use esdb_workload::Tpcb;
use std::sync::Arc;

fn sim_part() {
    header(
        "fig2a",
        "log-bound TPC-B throughput vs contexts (simulated, txn/Mcycle)",
        &["contexts", "serial", "decoupled", "consolidated"],
    );
    for &contexts in &CONTEXT_SWEEP {
        let mut vals = vec![contexts.to_string()];
        for log in LogPolicy::ALL {
            let cfg = EngineConfig {
                execution: ExecutionModel::Dora { partitions: 256 },
                log,
                ..EngineConfig::default()
            };
            let mut w = Tpcb::new(64, 11);
            let r = run_sim_workload(&mut w, &cfg, &SimRunConfig::at_contexts(contexts));
            vals.push(format!("{:.0}", r.tpmc()));
        }
        row(&vals);
    }
}

fn native_part() {
    header(
        "fig2b",
        "native log-buffer insert throughput (Minserts/s, 64B records, median of 3)",
        &["threads", "serial", "decoupled", "consolidated"],
    );
    const INSERTS_PER_THREAD: usize = 100_000;
    for threads in [1usize, 2, 4, 8] {
        let mut vals = vec![threads.to_string()];
        for which in 0..3 {
            let make = || -> Box<dyn LogBuffer> {
                match which {
                    0 => Box::new(SerialLogBuffer::new(None)),
                    1 => Box::new(DecoupledLogBuffer::new(None)),
                    _ => Box::new(ConsolidatedLogBuffer::new(None)),
                }
            };
            let secs = median_secs(3, || {
                let buf: Arc<dyn LogBuffer> = Arc::from(make());
                std::thread::scope(|s| {
                    for _ in 0..threads {
                        let buf = Arc::clone(&buf);
                        s.spawn(move || {
                            let payload = [7u8; 64];
                            for _ in 0..INSERTS_PER_THREAD {
                                buf.insert(&payload);
                            }
                        });
                    }
                });
                buf.flush(buf.current_lsn());
            });
            let total = (threads * INSERTS_PER_THREAD) as f64;
            vals.push(format!("{:.2}", total / secs / 1e6));
        }
        row(&vals);
    }
}

fn main() {
    sim_part();
    native_part();
    println!(
        "\nexpected shape: simulated serial flattens at the log critical section's\n\
         service rate; consolidated tracks the contention-free bound. Native numbers\n\
         on a 1-core host show the same ordering via per-insert overhead."
    );
}
