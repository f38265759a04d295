//! Criterion: end-to-end scheduling decisions on a 5,000-machine engine —
//! the Figure 9 micro-benchmark. "When {2CPU, 10GB} of resource frees up on
//! machine A, we only need to make a decision on which application in
//! machine A's waiting queue should get this resource."
//!
//! The fit index's speedup — the fragmented free-up and request-delta
//! decisions with the index on vs. `reference_mode` — is timed once, by
//! `bench_snapshot` (`sched_*_5k_machines_{indexed,naive}`), which records
//! and gates it.

use criterion::{criterion_group, criterion_main, Criterion};
use fuxi_bench::scenarios;
use fuxi_core::quota::QuotaManager;
use fuxi_core::scheduler::{Engine, EngineConfig};
use fuxi_proto::request::{RequestDelta, ScheduleUnitDef};
use fuxi_proto::topology::{MachineSpec, TopologyBuilder};
use fuxi_proto::{AppId, MachineId, Priority, QuotaGroupId, ResourceVec, UnitId};

fn bench(c: &mut Criterion) {
    c.bench_function("fig9_free_up_decision_5000_machines", |b| {
        // The hot path: one container returns on a machine, the waiting
        // queue (1,000+ entries) is consulted, a grant goes out. App 0 is
        // the most urgent waiter, so the freed container always comes back
        // to it on the same machine — a stable measurable cycle where every
        // iteration performs one real decision.
        let mut e = scenarios::saturated_engine(100, 50, false);
        let mut i = 0u32;
        b.iter(|| {
            let m = MachineId(i % 5000);
            i += 1;
            e.return_grant(AppId(0), UnitId(0), m, 1);
            let events = e.drain_events();
            debug_assert!(!events.is_empty() || e.unit_granted_total(AppId(0), UnitId(0)) > 0);
            std::hint::black_box(events);
        });
    });

    c.bench_function("fig9_request_delta_apply", |b| {
        let mut e = scenarios::saturated_engine(100, 50, false);
        let mut i = 0u32;
        b.iter(|| {
            let app = AppId(i % 1000);
            i += 1;
            // An incremental ±1 demand adjustment from one app.
            e.apply_deltas(app, &[RequestDelta::cluster(UnitId(0), 1)]);
            e.apply_deltas(app, &[RequestDelta::cluster(UnitId(0), -1)]);
            e.drain_events();
        });
    });

    c.bench_function("grant_fixed_master_placement", |b| {
        // Master placement on a busy-but-not-full cluster (the realistic
        // admission case): place, then release, so every iteration does a
        // real scan + grant.
        let topo = TopologyBuilder::new()
            .uniform(100, 50, MachineSpec {
                resources: ResourceVec::cores_mb(24, 96 * 1024),
                ..MachineSpec::default()
            })
            .build();
        let mut e = Engine::new(topo, EngineConfig::default(), QuotaManager::new());
        let unit = ResourceVec::new(500, 2048);
        for a in 0..1000u32 {
            e.attach_app(
                AppId(a),
                QuotaGroupId(0),
                vec![ScheduleUnitDef::new(UnitId(0), Priority(1000), unit.clone())],
            );
            // ~90% full: headroom remains for master placement.
            e.apply_deltas(AppId(a), &[RequestDelta::cluster(UnitId(0), 216)]);
        }
        e.drain_events();
        let res = ResourceVec::cores_mb(1, 2048);
        let avoid = Default::default();
        let mut a = 10_000u32;
        b.iter(|| {
            a += 1;
            let m = e
                .grant_fixed(AppId(a), res.clone(), &avoid)
                .expect("headroom exists");
            e.return_grant(AppId(a), fuxi_core::scheduler::MASTER_UNIT, m, 1);
            e.drain_events();
        });
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
