//! Bridging real workloads onto the CMP simulator.
//!
//! Converts `esdb-workload` transaction specs into `esdb-sim` transactions
//! and engine configurations into simulator model configurations, so the
//! scalability figures sweep hardware contexts far beyond the host machine
//! while running the *same* request streams as the native engine.

use crate::config::{EngineConfig, ExecutionModel, LatchChoice, LogChoice};
use esdb_sim::dbmodel::{compile, DbModelConfig, EngineKind, LogKind, SimTxn};
use esdb_sim::{ChipConfig, SimReport, Simulation, WaitPolicy};
use esdb_workload::{Workload, WorkloadOp};

/// Converts a workload spec into the simulator's read/write-set form.
pub fn to_sim_txn(spec: &esdb_workload::TxnSpec) -> SimTxn {
    let mut txn = SimTxn::default();
    for op in &spec.ops {
        match op {
            WorkloadOp::Read { table, key } => txn.reads.push((*table, *key)),
            WorkloadOp::Write { table, key, .. }
            | WorkloadOp::Add { table, key, .. }
            | WorkloadOp::Insert { table, key, .. }
            | WorkloadOp::Delete { table, key } => txn.writes.push((*table, *key)),
        }
    }
    txn
}

/// Maps an engine configuration onto the simulator's model knobs.
pub fn sim_model_config(cfg: &EngineConfig) -> DbModelConfig {
    DbModelConfig {
        engine: match cfg.execution {
            ExecutionModel::Conventional { lock_partitions } => EngineKind::Conventional {
                lock_table_partitions: lock_partitions.max(1) as u64,
            },
            ExecutionModel::Dora { partitions } => EngineKind::Dora {
                partitions: partitions.max(1) as u64,
            },
        },
        log: match cfg.log {
            LogChoice::Serial => LogKind::Serial,
            LogChoice::Decoupled => LogKind::Decoupled,
            LogChoice::Consolidated => LogKind::Consolidated,
        },
        elr: cfg.elr,
        ..DbModelConfig::default()
    }
}

/// Maps the latch choice to the simulator wait policy.
pub fn sim_wait_policy(cfg: &EngineConfig) -> WaitPolicy {
    match cfg.latch {
        LatchChoice::Spin => WaitPolicy::Spin,
        LatchChoice::Block => WaitPolicy::Block,
        LatchChoice::Hybrid => WaitPolicy::DEFAULT_HYBRID,
    }
}

/// Parameters for one simulated run.
#[derive(Debug, Clone)]
pub struct SimRunConfig {
    /// Chip to simulate.
    pub chip: ChipConfig,
    /// Closed-loop clients (defaults to one per context if 0).
    pub clients: usize,
    /// Simulated cycles.
    pub horizon: u64,
    /// Commit flush latency in cycles.
    pub flush_latency: u64,
}

impl SimRunConfig {
    /// Default run at `contexts` hardware contexts.
    pub fn at_contexts(contexts: usize) -> Self {
        SimRunConfig {
            chip: ChipConfig::with_contexts(contexts),
            clients: 0,
            horizon: 3_000_000,
            flush_latency: 0,
        }
    }
}

/// Renders a simulated run's cycle accounting in the shared observability
/// vocabulary ([`esdb_obs::WaitProfile`], in cycles instead of nanoseconds),
/// so figures print modeled and measured breakdowns through one code path.
///
/// `useful` covers compute plus memory stalls (the obs vocabulary has no
/// stall class; on the native engine they are likewise inside `useful`).
/// Context-switch overhead and idle capacity are deliberately excluded —
/// they are chip-level costs, not transaction wait time, so the profile
/// keeps the per-txn conservation property (`sum ≤ task wall time`).
pub fn sim_wait_profile(r: &SimReport) -> esdb_obs::WaitProfile {
    esdb_obs::WaitProfile {
        useful: r.breakdown.compute + r.breakdown.mem_stall,
        lock_wait: r.waits.lock_wait,
        latch_spin: r.waits.latch_spin,
        log_wait: r.waits.log_wait,
        io_retry: 0,
        commit_flush: r.breakdown.flush_wait,
    }
}

/// Runs `workload` on the simulator under `engine_cfg` and returns the
/// report. Deterministic for a given workload seed.
pub fn run_sim_workload(
    workload: &mut dyn Workload,
    engine_cfg: &EngineConfig,
    run: &SimRunConfig,
) -> SimReport {
    let model = sim_model_config(engine_cfg);
    let policy = sim_wait_policy(engine_cfg);
    let clients = if run.clients == 0 {
        run.chip.contexts
    } else {
        run.clients
    };
    let mut sim = Simulation::new(run.chip.clone(), policy, run.flush_latency);
    for i in 0..clients {
        let mut gen = workload.fork();
        sim.add_task(move |n| {
            let spec = gen.next_txn();
            compile(&model, &to_sim_txn(&spec), n ^ (i as u64) << 32)
        });
    }
    sim.run(run.horizon)
}

#[cfg(test)]
mod tests {
    use super::*;
    use esdb_workload::Tatp;

    #[test]
    fn spec_conversion_splits_reads_and_writes() {
        let spec = esdb_workload::TxnSpec {
            kind: "t",
            ops: vec![
                WorkloadOp::Read { table: 0, key: 1 },
                WorkloadOp::Add { table: 1, key: 2, col: 0, delta: 1 },
                WorkloadOp::Insert { table: 2, key: 3, row: vec![] },
            ],
            may_fail: false,
        };
        let txn = to_sim_txn(&spec);
        assert_eq!(txn.reads, vec![(0, 1)]);
        assert_eq!(txn.writes, vec![(1, 2), (2, 3)]);
    }

    #[test]
    fn config_mapping() {
        let conv = sim_model_config(&EngineConfig::conventional_baseline());
        assert!(matches!(conv.engine, EngineKind::Conventional { .. }));
        assert_eq!(conv.log, LogKind::Serial);
        let scal = sim_model_config(&EngineConfig::scalable(32));
        assert!(matches!(scal.engine, EngineKind::Dora { partitions: 32 }));
        assert!(scal.elr);
    }

    #[test]
    fn simulated_tatp_scales_with_contexts_under_scalable_config() {
        let cfg = EngineConfig::scalable(64);
        let t4 = {
            let mut w = Tatp::new(10_000, 3);
            run_sim_workload(&mut w, &cfg, &SimRunConfig::at_contexts(4))
        };
        let t16 = {
            let mut w = Tatp::new(10_000, 3);
            run_sim_workload(&mut w, &cfg, &SimRunConfig::at_contexts(16))
        };
        assert!(
            t16.tpmc() > t4.tpmc() * 2.5,
            "16 ctx {:.0} vs 4 ctx {:.0}",
            t16.tpmc(),
            t4.tpmc()
        );
    }

    /// One fig6b cell, built exactly as `fig6_breakdown`'s `sim_cell` builds
    /// it: TPC-B (1024 branches, seed 11) on DORA-64, so the log is the only
    /// shared structure. Returns `(tpmc, log_wait_share)`.
    fn fig6b_cell(log: LogChoice, contexts: usize) -> (f64, f64) {
        let cfg = EngineConfig {
            execution: ExecutionModel::Dora { partitions: 64 },
            log,
            elr: false,
            ..EngineConfig::default()
        };
        let mut w = esdb_workload::Tpcb::new(1024, 11);
        let r = run_sim_workload(&mut w, &cfg, &SimRunConfig::at_contexts(contexts));
        let p = sim_wait_profile(&r);
        (r.tpmc(), p.log_wait as f64 / p.wall().max(1) as f64)
    }

    #[test]
    fn claim6_log_wait_grows_under_serial_log_and_stays_flat_consolidated() {
        // The keynote's claim 6, as a deterministic harness: with execution
        // partitioned away (DORA, ample partitions) the log is the only
        // shared structure left. Under a serial log head its wait share must
        // grow with contexts; the consolidation array must hold it near zero.
        let share = |log, contexts| fig6b_cell(log, contexts).1;
        let serial_small = share(LogChoice::Serial, 4);
        let serial_big = share(LogChoice::Serial, 32);
        let consolidated_big = share(LogChoice::Consolidated, 32);
        assert!(
            serial_big > serial_small * 2.0 && serial_big > 0.10,
            "serial log share must grow: {serial_small:.3} -> {serial_big:.3}"
        );
        assert!(
            consolidated_big < serial_big / 4.0,
            "consolidation must absorb the log-head wait: {consolidated_big:.3} vs serial {serial_big:.3}"
        );
    }

    #[test]
    fn fig6b_cells_are_pinned_exactly() {
        // The cells EXPERIMENTS.md's fig6b table prints (tpmc rounded,
        // log_wait as a whole percent), to the last bit: the simulator is
        // deterministic, so a changed value is a model change, to be
        // re-recorded there, never a tolerance to widen.
        let pinned = [
            (LogChoice::Serial, 4, 561.0, 0.03165279374303225),
            (LogChoice::Serial, 16, 1234.3333333333333, 0.5495920739918579),
            (LogChoice::Serial, 32, 1228.0, 0.5254621658869959),
            (LogChoice::Consolidated, 4, 561.6666666666666, 0.0),
            (LogChoice::Consolidated, 32, 4561.0, 0.0),
            (LogChoice::Consolidated, 64, 8398.333333333334, 0.0),
        ];
        for (log, contexts, tpmc, log_wait_share) in pinned {
            assert_eq!(
                fig6b_cell(log, contexts),
                (tpmc, log_wait_share),
                "{log:?} at {contexts} contexts"
            );
        }
    }

    #[test]
    fn simulated_runs_are_deterministic() {
        let cfg = EngineConfig::conventional_baseline();
        let run = SimRunConfig::at_contexts(8);
        let a = {
            let mut w = Tatp::new(1_000, 9);
            run_sim_workload(&mut w, &cfg, &run)
        };
        let b = {
            let mut w = Tatp::new(1_000, 9);
            run_sim_workload(&mut w, &cfg, &run)
        };
        assert_eq!(a, b);
    }
}
