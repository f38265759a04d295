//! Criterion: locality-tree hot-path operations — the data structure
//! behind the paper's "micro-seconds level scheduling" claim. The
//! 10k-waiting queue consult is timed and recorded by `bench_snapshot`
//! (`tree_candidates_10k_waiting`).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use fuxi_core::scheduler::{LocalityTree, QueueKey};
use fuxi_proto::{AppId, MachineId, Priority, RackId, ResourceVec, UnitId};

fn key(i: u64) -> QueueKey {
    QueueKey {
        priority: Priority((i % 7) as u16 * 100),
        seq: i,
        app: AppId(i as u32),
        unit: UnitId(0),
    }
}

fn populated(n: u64) -> LocalityTree {
    let fp = ResourceVec::new(500, 2048);
    let mut t = LocalityTree::new();
    for i in 0..n {
        t.enqueue_cluster(key(i), &fp);
        t.enqueue_machine(MachineId((i % 1000) as u32), key(i), &fp);
        t.enqueue_rack(RackId((i % 20) as u32), key(i), &fp);
    }
    t
}

fn bench(c: &mut Criterion) {
    let fp = ResourceVec::new(500, 2048);

    c.bench_function("tree_enqueue_dequeue_cluster", |b| {
        let mut t = populated(10_000);
        let mut i = 1_000_000u64;
        b.iter(|| {
            i += 1;
            let k = key(i);
            t.enqueue_cluster(k, &fp);
            t.dequeue_cluster(&k);
        });
    });

    c.bench_function("tree_candidates_hopeless_queue", |b| {
        // The early-exit path: free resources smaller than anything queued.
        let mut t = LocalityTree::new();
        let big = ResourceVec::cores_mb(64, 512 * 1024);
        for i in 0..10_000 {
            t.enqueue_cluster(key(i), &big);
        }
        let tiny = ResourceVec::new(100, 100);
        b.iter(|| {
            black_box(t.candidates_for_machine(MachineId(0), RackId(0), black_box(&tiny), 64))
        });
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
