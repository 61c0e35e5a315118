//! Engine configuration: every axis of the keynote's design space.

use esdb_wal::LogPolicy;
use std::time::Duration;

/// How transactions are executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionModel {
    /// Thread-per-transaction with the centralized hierarchical lock
    /// manager (the Shore/System-R design).
    Conventional {
        /// Lock-table shard count.
        lock_partitions: usize,
    },
    /// Data-oriented execution: one executor thread per logical partition,
    /// thread-local locking (the DORA design).
    Dora {
        /// Executor/partition count.
        partitions: usize,
    },
}

impl Default for ExecutionModel {
    fn default() -> Self {
        ExecutionModel::Conventional { lock_partitions: 64 }
    }
}

/// Full engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Execution model.
    pub execution: ExecutionModel,
    /// Log buffer design.
    pub log: LogPolicy,
    /// Early lock release at commit.
    pub elr: bool,
    /// Simulated log-device flush latency (None = RAM-speed).
    pub flush_latency: Option<Duration>,
    /// Buffer pool frames.
    pub buffer_frames: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            execution: ExecutionModel::default(),
            log: LogPolicy::default(),
            elr: false,
            flush_latency: None,
            buffer_frames: 8_192,
        }
    }
}

impl EngineConfig {
    /// Preset: the conventional baseline (serial log, centralized locking).
    pub fn conventional_baseline() -> Self {
        EngineConfig {
            execution: ExecutionModel::Conventional { lock_partitions: 64 },
            log: LogPolicy::Serial,
            elr: false,
            ..Default::default()
        }
    }

    /// Preset: the scalable configuration the keynote argues for — DORA
    /// execution, consolidation-array logging, early lock release.
    pub fn scalable(partitions: usize) -> Self {
        EngineConfig {
            execution: ExecutionModel::Dora { partitions },
            log: LogPolicy::Consolidated,
            elr: true,
            ..Default::default()
        }
    }

    /// Short config label for benchmark tables.
    pub fn label(&self) -> String {
        let exec = match self.execution {
            ExecutionModel::Conventional { .. } => "conv".to_string(),
            ExecutionModel::Dora { partitions } => format!("dora{partitions}"),
        };
        format!("{exec}/{}{}", self.log, if self.elr { "+elr" } else { "" })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_distinguish_configs() {
        // The fig tables' row names: pinned so they cannot drift.
        assert_eq!(EngineConfig::conventional_baseline().label(), "conv/serial");
        assert_eq!(EngineConfig::scalable(8).label(), "dora8/consolidated+elr");
    }

    #[test]
    fn presets_differ_on_every_claimed_axis() {
        let base = EngineConfig::conventional_baseline();
        let scalable = EngineConfig::scalable(16);
        assert_ne!(base.execution, scalable.execution);
        assert_ne!(base.log, scalable.log);
        assert!(!base.elr && scalable.elr);
    }
}
