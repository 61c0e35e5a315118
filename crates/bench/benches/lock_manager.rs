//! Criterion microbench: centralized lock-manager costs — the ablation for
//! the lock-table partition count called out in DESIGN.md.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use esdb_lock::{HeldLocks, LockManager, LockMode};
use std::sync::Arc;
use std::time::Duration;

fn bench_lock_manager(c: &mut Criterion) {
    let mut g = c.benchmark_group("lock_manager");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));

    // Single-thread acquire+release of a full row-lock hierarchy.
    g.bench_function("hierarchy_acquire_release", |b| {
        let m = LockManager::new(64);
        let mut txn = 0u64;
        let mut key = 0u64;
        b.iter(|| {
            txn += 1;
            key = key.wrapping_add(7_919);
            let mut held = HeldLocks::new(txn);
            m.lock_row(&mut held, 1, key, LockMode::X).unwrap();
            m.release_all(&mut held);
        });
    });

    // Ablation: 4 threads, disjoint rows, sweeping lock-table partitions.
    for partitions in [1usize, 4, 16, 64] {
        g.bench_with_input(
            BenchmarkId::new("4_threads_disjoint_x500", partitions),
            &partitions,
            |b, &partitions| {
                b.iter(|| {
                    let m = Arc::new(LockManager::new(partitions));
                    std::thread::scope(|s| {
                        for t in 0..4u64 {
                            let m = Arc::clone(&m);
                            s.spawn(move || {
                                for i in 0..500u64 {
                                    let mut held = HeldLocks::new(t * 1_000_000 + i + 1);
                                    m.lock_row(&mut held, 1, t * 100_000 + i, LockMode::X).unwrap();
                                    m.release_all(&mut held);
                                }
                            });
                        }
                    });
                });
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_lock_manager);
criterion_main!(benches);
