//! End-to-end checker runs: clean sweeps over both execution models, plus
//! mutation smoke tests proving the oracles detect seeded engine bugs.
//!
//! The clean sweep explores `CHECK_SCHEDULES` seeded schedules in total,
//! split across scenario × engine-config × strategy cells. The default, 60,
//! keeps a debug `cargo test` in seconds; `scripts/ci.sh` sweeps 300 in
//! release.

use esdb_check::{
    check, htap_snapshot, replay, tpcb_micro, transfer_scan, transfer_snapshot, CheckConfig,
    Mutation, Strategy, Violation,
};
use esdb_core::{EngineConfig, ExecutionModel};
use esdb_workload::TxnSpec;

fn total_schedules() -> usize {
    std::env::var("CHECK_SCHEDULES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(60)
}

fn conv_config() -> EngineConfig {
    EngineConfig {
        execution: ExecutionModel::Conventional { lock_partitions: 4 },
        ..EngineConfig::conventional_baseline()
    }
}

fn dora_config() -> EngineConfig {
    EngineConfig::scalable(2)
}

fn run_cell(name: &str, scenario: &esdb_check::Scenario, schedules: usize, strategy: Strategy) {
    let cfg = CheckConfig {
        schedules,
        base_seed: 0x5eed,
        strategy,
        ..CheckConfig::default()
    };
    let report = check(scenario, &cfg);
    assert!(
        report.failure.is_none(),
        "cell {name}: {}",
        report.failure.unwrap()
    );
    assert_eq!(report.schedules_run, schedules, "cell {name}");
    assert!(report.committed_total > 0, "cell {name}: nothing committed");
}

/// The headline acceptance test: N seeded schedules over both execution
/// models, both scenarios, both strategies — all clean on the unmodified
/// engine.
#[test]
fn clean_engine_passes_seeded_schedules() {
    let per_cell = (total_schedules() / 12).max(1);
    let cells: Vec<(&str, esdb_check::Scenario)> = vec![
        ("conv/tpcb", tpcb_micro(conv_config(), 3, 3, 11)),
        ("conv/transfer", transfer_snapshot(conv_config(), 2, 3, 2, 12)),
        ("dora/tpcb", tpcb_micro(dora_config(), 3, 3, 13)),
        ("dora/transfer", transfer_snapshot(dora_config(), 2, 3, 2, 14)),
        // HTAP: every seeded interleaving's WAL is replayed into a follower
        // and probed with pinned queries at every consistent cut.
        ("conv/htap", htap_snapshot(conv_config(), 2, 3, 15)),
        ("dora/htap", htap_snapshot(dora_config(), 2, 3, 16)),
    ];
    for (name, scenario) in &cells {
        run_cell(
            &format!("{name}/walk"),
            scenario,
            per_cell,
            Strategy::RandomWalk,
        );
        run_cell(
            &format!("{name}/pct"),
            scenario,
            per_cell,
            Strategy::Pct { depth: 3 },
        );
    }
}

/// The range reader's cell: its table S requests revoke the writers'
/// inherited intention grants (or wait for live ones) under the same
/// per-cell budget as the sweep above.
#[test]
fn clean_engine_passes_seeded_range_schedules() {
    let per_cell = (total_schedules() / 12).max(1);
    let scenario = transfer_scan(conv_config(), 2, 3, 2, 17);
    run_cell("conv/scan/walk", &scenario, per_cell, Strategy::RandomWalk);
    run_cell("conv/scan/pct", &scenario, per_cell, Strategy::Pct { depth: 3 });
}

/// A failing seed must replay byte-identically: same trace, same violation.
/// (Exercised on a mutated engine, where failures are plentiful.)
#[test]
fn failing_seed_replays_byte_identically() {
    let scenario = transfer_snapshot(conv_config(), 2, 3, 2, 21);
    let cfg = CheckConfig {
        schedules: 300,
        base_seed: 0xbad,
        strategy: Strategy::RandomWalk,
        mutation: Some(Mutation::ReleaseLocksEarly),
        ..CheckConfig::default()
    };
    let report = check(&scenario, &cfg);
    let failure = report
        .failure
        .expect("early lock release must be caught within the seed budget");
    assert!(failure.replayed, "replay diverged: {failure}");

    // And replaying the recorded choices once more from scratch still
    // reproduces the identical violation.
    let again = replay(&scenario, &cfg, failure.seed, &failure.trace.choices());
    assert_eq!(again.violation.as_ref(), Some(&failure.violation));
}

/// Mutation smoke: releasing locks before commit breaks two-phase locking;
/// the serializability or invariant oracle must notice, and the shrunk trace
/// must still fail the same way.
#[test]
fn detects_early_lock_release_mutation() {
    let scenario = tpcb_micro(conv_config(), 3, 3, 31);
    let cfg = CheckConfig {
        schedules: 300,
        base_seed: 0xe1e,
        strategy: Strategy::RandomWalk,
        mutation: Some(Mutation::ReleaseLocksEarly),
        ..CheckConfig::default()
    };
    let report = check(&scenario, &cfg);
    let failure = report
        .failure
        .expect("early lock release must be caught within the seed budget");
    assert!(
        matches!(
            failure.violation,
            Violation::Serializability { .. } | Violation::Invariant { .. }
        ),
        "unexpected violation class: {}",
        failure.violation
    );
    assert!(
        failure.shrunk.steps.len() <= failure.trace.steps.len(),
        "shrinker grew the trace"
    );
    assert_eq!(
        failure.shrunk_violation.kind(),
        failure.violation.kind(),
        "shrunk trace fails differently"
    );
    eprintln!("--- early-lock-release mutation detected ---\n{failure}");
}

/// Mutation smoke: disabling wait-die lets DORA executors co-own conflicting
/// keys; the snapshot-consistency invariant must notice.
#[test]
fn detects_wait_die_disabled_mutation() {
    let scenario = transfer_snapshot(dora_config(), 2, 3, 3, 41);
    let cfg = CheckConfig {
        schedules: 300,
        base_seed: 0xd1e,
        strategy: Strategy::RandomWalk,
        mutation: Some(Mutation::DisableWaitDie),
        ..CheckConfig::default()
    };
    let report = check(&scenario, &cfg);
    let failure = report
        .failure
        .expect("disabled wait-die must be caught within the seed budget");
    assert!(
        matches!(failure.violation, Violation::Invariant { .. }),
        "unexpected violation class: {}",
        failure.violation
    );
    assert_eq!(failure.shrunk_violation.kind(), failure.violation.kind());
    eprintln!("--- wait-die-disabled mutation detected ---\n{failure}");
}

/// Mutation smoke: an agent that keeps its inherited intention grants
/// across a revoke writes rows under a range reader's table S lock; the
/// serializability or snapshot oracle must notice, the failing seed must
/// replay byte-identically, and the shrunk trace must fail the same way.
#[test]
fn detects_inherit_across_revoke_mutation() {
    let scenario = transfer_scan(conv_config(), 2, 3, 2, 61);
    let cfg = CheckConfig {
        schedules: 300,
        base_seed: 0x1a2,
        strategy: Strategy::RandomWalk,
        mutation: Some(Mutation::InheritAcrossRevoke),
        ..CheckConfig::default()
    };
    let report = check(&scenario, &cfg);
    let failure = report
        .failure
        .expect("inheriting across a revoke must be caught within the seed budget");
    assert!(
        matches!(
            failure.violation,
            Violation::Serializability { .. } | Violation::Invariant { .. }
        ),
        "unexpected violation class: {}",
        failure.violation
    );
    assert!(failure.replayed, "replay diverged: {failure}");
    let again = replay(&scenario, &cfg, failure.seed, &failure.trace.choices());
    assert_eq!(again.violation.as_ref(), Some(&failure.violation));
    assert!(
        failure.shrunk.steps.len() <= failure.trace.steps.len(),
        "shrinker grew the trace"
    );
    assert_eq!(failure.shrunk_violation.kind(), failure.violation.kind());
    eprintln!("--- inherit-across-revoke mutation detected ---\n{failure}");
}

/// Same seed, same scenario ⇒ the explored schedule itself is reproducible
/// (trace equality on a clean engine), which is what makes the seed in a
/// failure report meaningful.
#[test]
fn same_seed_same_trace() {
    let scenario = tpcb_micro(conv_config(), 2, 2, 51);
    let cfg = CheckConfig {
        schedules: 1,
        base_seed: 77,
        strategy: Strategy::RandomWalk,
        ..CheckConfig::default()
    };
    // A clean check records no trace publicly, so compare via replay of an
    // empty recording (MinTag fallback): two identical runs must agree on
    // the committed count and end state reachable through replay.
    let a = replay(&scenario, &cfg, cfg.base_seed, &[]);
    let b = replay(&scenario, &cfg, cfg.base_seed, &[]);
    assert_eq!(a.violation, b.violation);
    assert_eq!(a.committed, b.committed);
    assert_eq!(a.trace, b.trace);
    assert!(a.committed > 0);
}

/// The scenario scripts the checker replays are plain `TxnSpec`s — sanity
/// check the generator wiring (deterministic, non-trivial).
#[test]
fn scenario_scripts_are_deterministic() {
    let a = tpcb_micro(conv_config(), 3, 4, 99);
    let b = tpcb_micro(conv_config(), 3, 4, 99);
    let flat_a: Vec<&TxnSpec> = a.clients.iter().flatten().collect();
    let flat_b: Vec<&TxnSpec> = b.clients.iter().flatten().collect();
    assert_eq!(flat_a, flat_b);
    assert_eq!(flat_a.len(), 12);
}
