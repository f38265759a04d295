//! Engine behaviour tests, including reconstructions of the paper's
//! Figure 3 (incremental scheduling walkthrough) and Figure 5 (locality
//! tree), plus preemption, node failure and failover-rebuild scenarios.

use super::engine::{Engine, EngineConfig, EngineEvent, RevokeReason};
use crate::quota::{QuotaGroup, QuotaManager};
use fuxi_proto::request::{RequestDelta, RequestState, ScheduleUnitDef};
use fuxi_proto::topology::{MachineSpec, Topology, TopologyBuilder};
use fuxi_proto::{AppId, MachineId, Priority, QuotaGroupId, RackId, ResourceVec, UnitId};
use std::collections::BTreeSet;

fn small_topo() -> Topology {
    // 2 racks × 3 machines, each {12 cores, 96 GB}.
    TopologyBuilder::new()
        .uniform(2, 3, MachineSpec::default())
        .build()
}

fn engine() -> Engine {
    Engine::new(small_topo(), EngineConfig::default(), QuotaManager::new())
}

fn unit(id: u32, prio: u16, cpu: u64, mem: u64) -> ScheduleUnitDef {
    ScheduleUnitDef::new(UnitId(id), Priority(prio), ResourceVec::new(cpu, mem))
}

fn grants_of(events: &[EngineEvent]) -> Vec<(AppId, MachineId, u64)> {
    events
        .iter()
        .filter_map(|e| match e {
            EngineEvent::Grant {
                app,
                machine,
                count,
                ..
            } => Some((*app, *machine, *count)),
            _ => None,
        })
        .collect()
}

fn total_granted(events: &[EngineEvent], app: AppId) -> u64 {
    grants_of(events)
        .iter()
        .filter(|(a, _, _)| *a == app)
        .map(|(_, _, c)| c)
        .sum()
}

#[test]
fn simple_cluster_request_is_fully_granted() {
    let mut e = engine();
    e.attach_app(AppId(1), QuotaGroupId(0), vec![unit(0, 1000, 1000, 2048)]);
    e.apply_deltas(AppId(1), &[RequestDelta::cluster(UnitId(0), 10)]);
    let ev = e.drain_events();
    assert_eq!(total_granted(&ev, AppId(1)), 10);
    assert_eq!(e.unit_outstanding(AppId(1), UnitId(0)), 0);
    assert_eq!(e.unit_granted_total(AppId(1), UnitId(0)), 10);
    assert_eq!(e.planned().cpu_milli(), 10_000);
}

#[test]
fn machine_hint_is_honored_first() {
    let mut e = engine();
    e.attach_app(AppId(1), QuotaGroupId(0), vec![unit(0, 1000, 1000, 2048)]);
    // Figure 3 step 1: {M1 * 2, C * 10}, max 10.
    e.apply_deltas(
        AppId(1),
        &[RequestDelta {
            unit: UnitId(0),
            machine: vec![(MachineId(1), 2)],
            rack: vec![],
            cluster: 10,
            avoid_add: vec![],
            avoid_remove: vec![],
        }],
    );
    let ev = e.drain_events();
    let on_m1: u64 = grants_of(&ev)
        .iter()
        .filter(|(_, m, _)| *m == MachineId(1))
        .map(|(_, _, c)| c)
        .sum();
    assert!(on_m1 >= 2, "at least the hinted 2 units on m1, got {on_m1}");
    assert_eq!(total_granted(&ev, AppId(1)), 10, "total capped at cluster want");
}

#[test]
fn unsatisfied_demand_queues_and_grants_on_free_up() {
    let mut e = engine();
    // Tiny cluster: only 6 × 12 cores; units of 6 cores → 12 fit total.
    e.attach_app(AppId(1), QuotaGroupId(0), vec![unit(0, 1000, 6000, 1024)]);
    e.apply_deltas(AppId(1), &[RequestDelta::cluster(UnitId(0), 12)]);
    assert_eq!(e.unit_outstanding(AppId(1), UnitId(0)), 0);
    // Second app wants 4 more: nothing free -> queues.
    e.attach_app(AppId(2), QuotaGroupId(0), vec![unit(0, 1000, 6000, 1024)]);
    e.apply_deltas(AppId(2), &[RequestDelta::cluster(UnitId(0), 4)]);
    assert_eq!(e.unit_outstanding(AppId(2), UnitId(0)), 4);
    assert!(e.waiting_entries() > 0);
    e.drain_events();
    // App1 returns 2 on some machine -> app2 gets them automatically
    // ("FuxiMaster will automatically insert the request into the
    //  scheduler's waiting queue ... additional units granted subsequently").
    let (_, m, _, _) = e.app_grants(AppId(1))[0].clone();
    e.return_grant(AppId(1), UnitId(0), m, 2);
    let ev = e.drain_events();
    assert_eq!(total_granted(&ev, AppId(2)), 2);
    assert_eq!(e.unit_outstanding(AppId(2), UnitId(0)), 2);
}

#[test]
fn figure3_walkthrough() {
    // ScheduleUnit A1 = {1 cpu, 2 GB}; A2 = {2 cpu, 5 GB} on a cluster with
    // 3 relevant machines, sized so A1's request cannot be fully satisfied
    // (Figure 3 leaves 2 units waiting). m0/m1: 4 cores; m2: 8 cores.
    let small = MachineSpec {
        resources: ResourceVec::cores_mb(4, 30 * 1024),
        ..MachineSpec::default()
    };
    let big = MachineSpec {
        resources: ResourceVec::cores_mb(8, 30 * 1024),
        ..MachineSpec::default()
    };
    let topo = TopologyBuilder::new()
        .add_rack(vec![small.clone(), small, big])
        .build();
    // Figure 3 shows plain waiting-queue behaviour, not preemption.
    let cfg = EngineConfig {
        enable_priority_preemption: false,
        enable_quota_preemption: false,
        ..EngineConfig::default()
    };
    let mut e = Engine::new(topo, cfg, QuotaManager::new());
    // AppMaster2 already holds resources on M3 (machine index 2).
    e.attach_app(AppId(2), QuotaGroupId(0), vec![unit(0, 1000, 2000, 5120)]);
    e.apply_deltas(
        AppId(2),
        &[RequestDelta {
            unit: UnitId(0),
            machine: vec![(MachineId(2), 4)],
            rack: vec![],
            cluster: 4,
            avoid_add: vec![],
            avoid_remove: vec![],
        }],
    );
    e.drain_events();
    assert_eq!(e.unit_granted_total(AppId(2), UnitId(0)), 4);

    // Step 1-2: AppMaster1 applies for {M1*2, C*10} of {1cpu, 2GB}.
    e.attach_app(AppId(1), QuotaGroupId(0), vec![unit(0, 900, 1000, 2048)]);
    e.apply_deltas(
        AppId(1),
        &[RequestDelta {
            unit: UnitId(0),
            machine: vec![(MachineId(0), 2)],
            rack: vec![],
            cluster: 10,
            avoid_add: vec![],
            avoid_remove: vec![],
        }],
    );
    let granted_now = e.unit_granted_total(AppId(1), UnitId(0));
    let ev = e.drain_events();
    assert_eq!(granted_now, 8, "m0+m1 hold 8 one-core units, m2 is full");
    assert_eq!(total_granted(&ev, AppId(1)), granted_now);
    assert_eq!(e.unit_outstanding(AppId(1), UnitId(0)), 2);

    // Step 3-4: AppMaster2 returns 1 unit on M3; FuxiMaster automatically
    // assigns the freed space to waiting AppMaster1 (its unit is smaller).
    e.return_grant(AppId(2), UnitId(0), MachineId(2), 1);
    let ev = e.drain_events();
    let to_app1_on_m3: u64 = grants_of(&ev)
        .iter()
        .filter(|(a, m, _)| *a == AppId(1) && *m == MachineId(2))
        .map(|(_, _, c)| c)
        .sum();
    assert_eq!(to_app1_on_m3, 2, "one {{2c,5g}} return fits two {{1c,2g}} units");
}

#[test]
fn figure5_locality_precedence_on_free_up() {
    let mut e = engine();
    let big = unit(0, 1000, 6000, 48 * 1024); // half a machine
    // Fill machine 0 completely with app 9.
    e.attach_app(AppId(9), QuotaGroupId(0), vec![big.clone()]);
    e.apply_deltas(
        AppId(9),
        &[RequestDelta {
            unit: UnitId(0),
            machine: vec![(MachineId(0), 2)],
            rack: vec![],
            cluster: 2,
            avoid_add: vec![],
            avoid_remove: vec![],
        }],
    );
    // Fill the rest of the cluster so waiters actually wait.
    e.attach_app(AppId(8), QuotaGroupId(0), vec![big.clone()]);
    e.apply_deltas(AppId(8), &[RequestDelta::cluster(UnitId(0), 10)]);
    assert_eq!(e.unit_outstanding(AppId(8), UnitId(0)), 0);
    // Same priority: app2 waits on cluster (submitted first), app1 waits on
    // machine 0 (submitted later). Machine waiter must win the free-up.
    e.attach_app(AppId(2), QuotaGroupId(0), vec![big.clone()]);
    e.apply_deltas(AppId(2), &[RequestDelta::cluster(UnitId(0), 1)]);
    e.attach_app(AppId(1), QuotaGroupId(0), vec![big.clone()]);
    e.apply_deltas(AppId(1), &[RequestDelta::machine(UnitId(0), MachineId(0), 1)]);
    assert_eq!(e.unit_outstanding(AppId(1), UnitId(0)), 1);
    assert_eq!(e.unit_outstanding(AppId(2), UnitId(0)), 1);
    e.drain_events();
    e.return_grant(AppId(9), UnitId(0), MachineId(0), 1);
    let ev = e.drain_events();
    assert_eq!(grants_of(&ev), vec![(AppId(1), MachineId(0), 1)]);
    // The next free-up on m0 goes to the cluster waiter.
    e.return_grant(AppId(9), UnitId(0), MachineId(0), 1);
    let ev = e.drain_events();
    assert_eq!(grants_of(&ev), vec![(AppId(2), MachineId(0), 1)]);
}

#[test]
fn priority_beats_locality_on_free_up() {
    // Preemption off: this test is about queue ordering, not eviction.
    let cfg = EngineConfig {
        enable_priority_preemption: false,
        enable_quota_preemption: false,
        ..EngineConfig::default()
    };
    let mut e = Engine::new(small_topo(), cfg, QuotaManager::new());
    let big = unit(0, 1000, 6000, 48 * 1024);
    e.attach_app(AppId(9), QuotaGroupId(0), vec![big.clone()]);
    e.apply_deltas(AppId(9), &[RequestDelta::cluster(UnitId(0), 12)]);
    e.drain_events();
    // app1 waits on machine 0 at P1000; app2 waits on cluster at P1 (urgent).
    e.attach_app(AppId(1), QuotaGroupId(0), vec![big.clone()]);
    e.apply_deltas(AppId(1), &[RequestDelta::machine(UnitId(0), MachineId(0), 1)]);
    e.attach_app(AppId(2), QuotaGroupId(0), vec![unit(0, 1, 6000, 48 * 1024)]);
    // Disable preemption effects for this test by requesting after filling.
    let mut cfgless = RequestDelta::cluster(UnitId(0), 1);
    cfgless.unit = UnitId(0);
    e.apply_deltas(AppId(2), &[cfgless]);
    e.drain_events();
    e.return_grant(AppId(9), UnitId(0), MachineId(0), 1);
    let ev = e.drain_events();
    let g = grants_of(&ev);
    assert_eq!(g.first().map(|(a, _, _)| *a), Some(AppId(2)), "{g:?}");
}

#[test]
fn avoid_list_is_respected() {
    let mut e = engine();
    e.attach_app(AppId(1), QuotaGroupId(0), vec![unit(0, 1000, 6000, 48 * 1024)]);
    // Avoid every machine except m4: all grants must land on m4.
    let avoid: Vec<MachineId> = (0..6).filter(|&i| i != 4).map(MachineId).collect();
    e.apply_deltas(
        AppId(1),
        &[RequestDelta {
            unit: UnitId(0),
            machine: vec![],
            rack: vec![],
            cluster: 2,
            avoid_add: avoid,
            avoid_remove: vec![],
        }],
    );
    let ev = e.drain_events();
    for (_, m, _) in grants_of(&ev) {
        assert_eq!(m, MachineId(4));
    }
    assert_eq!(e.unit_granted_total(AppId(1), UnitId(0)), 2);
}

#[test]
fn rack_hint_prefers_rack_machines() {
    let mut e = engine();
    e.attach_app(AppId(1), QuotaGroupId(0), vec![unit(0, 1000, 1000, 2048)]);
    // Rack 1 = machines 3, 4, 5.
    e.apply_deltas(
        AppId(1),
        &[RequestDelta {
            unit: UnitId(0),
            machine: vec![],
            rack: vec![(RackId(1), 5)],
            cluster: 5,
            avoid_add: vec![],
            avoid_remove: vec![],
        }],
    );
    let ev = e.drain_events();
    for (_, m, _) in grants_of(&ev) {
        assert!(m.0 >= 3, "grant {m} must be in rack 1");
    }
    assert_eq!(e.unit_granted_total(AppId(1), UnitId(0)), 5);
}

#[test]
fn node_down_revokes_and_reschedules_elsewhere() {
    let mut e = engine();
    e.attach_app(AppId(1), QuotaGroupId(0), vec![unit(0, 1000, 1000, 2048)]);
    e.apply_deltas(AppId(1), &[RequestDelta::machine(UnitId(0), MachineId(2), 3)]);
    assert_eq!(e.unit_granted_total(AppId(1), UnitId(0)), 3);
    e.drain_events();
    e.node_down(MachineId(2));
    let ev = e.drain_events();
    let revokes: Vec<_> = ev
        .iter()
        .filter(|e| matches!(e, EngineEvent::Revoke { reason: RevokeReason::NodeDown, .. }))
        .collect();
    assert_eq!(revokes.len(), 1);
    // Demand was re-added at cluster level and granted elsewhere.
    assert_eq!(e.unit_granted_total(AppId(1), UnitId(0)), 3);
    assert!(e.app_grants(AppId(1)).iter().all(|(_, m, _, _)| *m != MachineId(2)));
    // Machine 2 takes no new grants while down.
    e.apply_deltas(AppId(1), &[RequestDelta::machine(UnitId(0), MachineId(2), 1)]);
    assert_eq!(e.unit_outstanding(AppId(1), UnitId(0)), 0, "granted elsewhere");
    // And comes back with node_up.
    e.node_up(MachineId(2), ResourceVec::cores_mb(12, 96 * 1024));
    assert_eq!(e.free_on(MachineId(2)).cpu_milli(), 12_000);
}

#[test]
fn priority_preemption_evicts_least_urgent() {
    let mut e = engine();
    let big = unit(0, 2000, 6000, 48 * 1024); // P2000, half machine
    e.attach_app(AppId(1), QuotaGroupId(0), vec![big]);
    e.apply_deltas(AppId(1), &[RequestDelta::cluster(UnitId(0), 12)]);
    assert_eq!(e.unit_granted_total(AppId(1), UnitId(0)), 12, "cluster full");
    e.drain_events();
    // Urgent app arrives: P10.
    e.attach_app(AppId(2), QuotaGroupId(0), vec![unit(0, 10, 6000, 48 * 1024)]);
    e.apply_deltas(AppId(2), &[RequestDelta::cluster(UnitId(0), 2)]);
    let ev = e.drain_events();
    let preempted: u64 = ev
        .iter()
        .filter_map(|e| match e {
            EngineEvent::Revoke {
                app: AppId(1),
                count,
                reason: RevokeReason::Preempted,
                ..
            } => Some(*count),
            _ => None,
        })
        .sum();
    assert_eq!(preempted, 2);
    assert_eq!(e.unit_granted_total(AppId(2), UnitId(0)), 2);
    assert_eq!(e.unit_granted_total(AppId(1), UnitId(0)), 10);
    // Victim demand re-queued at cluster level.
    assert_eq!(e.unit_outstanding(AppId(1), UnitId(0)), 2);
}

#[test]
fn priority_preemption_requires_strictly_lower_victim() {
    let mut e = engine();
    let u = unit(0, 1000, 6000, 48 * 1024);
    e.attach_app(AppId(1), QuotaGroupId(0), vec![u.clone()]);
    e.apply_deltas(AppId(1), &[RequestDelta::cluster(UnitId(0), 12)]);
    e.drain_events();
    // Same priority: no preemption, the request waits.
    e.attach_app(AppId(2), QuotaGroupId(0), vec![u]);
    e.apply_deltas(AppId(2), &[RequestDelta::cluster(UnitId(0), 1)]);
    let ev = e.drain_events();
    assert!(ev.iter().all(|e| !matches!(e, EngineEvent::Revoke { .. })));
    assert_eq!(e.unit_outstanding(AppId(2), UnitId(0)), 1);
}

#[test]
fn quota_preemption_reclaims_excess_for_deficit_group() {
    let mut quotas = QuotaManager::new();
    // Two groups, each guaranteed half the 6-machine cluster's CPU.
    quotas.define(
        QuotaGroupId(1),
        QuotaGroup {
            min: ResourceVec::cores_mb(36, 288 * 1024),
            max: None,
        },
    );
    quotas.define(
        QuotaGroupId(2),
        QuotaGroup {
            min: ResourceVec::cores_mb(36, 288 * 1024),
            max: None,
        },
    );
    let mut e = Engine::new(small_topo(), EngineConfig::default(), quotas);
    // Group 1's app greedily takes the whole cluster (work conserving).
    let u = unit(0, 1000, 6000, 48 * 1024);
    e.attach_app(AppId(1), QuotaGroupId(1), vec![u.clone()]);
    e.apply_deltas(AppId(1), &[RequestDelta::cluster(UnitId(0), 12)]);
    assert_eq!(e.unit_granted_total(AppId(1), UnitId(0)), 12);
    e.drain_events();
    // Group 2's app (same priority) claims its guaranteed minimum.
    e.attach_app(AppId(2), QuotaGroupId(2), vec![u]);
    e.apply_deltas(AppId(2), &[RequestDelta::cluster(UnitId(0), 4)]);
    let ev = e.drain_events();
    let preempted: u64 = ev
        .iter()
        .filter_map(|e| match e {
            EngineEvent::Revoke {
                count,
                reason: RevokeReason::Preempted,
                ..
            } => Some(*count),
            _ => None,
        })
        .sum();
    assert_eq!(preempted, 4);
    assert_eq!(e.unit_granted_total(AppId(2), UnitId(0)), 4);
}

#[test]
fn quota_max_caps_grants() {
    let mut quotas = QuotaManager::new();
    quotas.define(
        QuotaGroupId(1),
        QuotaGroup {
            min: ResourceVec::ZERO,
            max: Some(ResourceVec::cores_mb(3, 999_999)),
        },
    );
    let mut e = Engine::new(small_topo(), EngineConfig::default(), quotas);
    e.attach_app(AppId(1), QuotaGroupId(1), vec![unit(0, 1000, 1000, 1024)]);
    e.apply_deltas(AppId(1), &[RequestDelta::cluster(UnitId(0), 10)]);
    assert_eq!(e.unit_granted_total(AppId(1), UnitId(0)), 3, "capped at 3 cores");
    assert_eq!(e.unit_outstanding(AppId(1), UnitId(0)), 7);
}

#[test]
fn detach_frees_everything_and_feeds_waiters() {
    let mut e = engine();
    let u = unit(0, 1000, 6000, 48 * 1024);
    e.attach_app(AppId(1), QuotaGroupId(0), vec![u.clone()]);
    e.apply_deltas(AppId(1), &[RequestDelta::cluster(UnitId(0), 12)]);
    e.attach_app(AppId(2), QuotaGroupId(0), vec![u]);
    e.apply_deltas(AppId(2), &[RequestDelta::cluster(UnitId(0), 5)]);
    assert_eq!(e.unit_outstanding(AppId(2), UnitId(0)), 5);
    e.drain_events();
    e.detach_app(AppId(1));
    let ev = e.drain_events();
    assert_eq!(total_granted(&ev, AppId(2)), 5);
    assert!(!e.has_app(AppId(1)));
    assert!(e.planned().cpu_milli() > 0);
    e.detach_app(AppId(2));
    assert!(e.planned().is_zero(), "all usage accounted back");
}

#[test]
fn grant_fixed_places_master_and_respects_avoid() {
    let mut e = engine();
    let res = ResourceVec::cores_mb(1, 2048);
    let mut avoid = BTreeSet::new();
    for i in 0..5 {
        avoid.insert(MachineId(i));
    }
    let m = e.grant_fixed(AppId(7), res.clone(), &avoid).unwrap();
    assert_eq!(m, MachineId(5));
    let ev = e.drain_events();
    assert_eq!(ev.len(), 1);
    assert!(matches!(ev[0], EngineEvent::Grant { app: AppId(7), count: 1, .. }));
    // Fills up: with everything avoided, no placement.
    for i in 0..6 {
        avoid.insert(MachineId(i));
    }
    assert!(e.grant_fixed(AppId(7), res, &avoid).is_none());
}

#[test]
fn rebuild_adoption_reconstructs_allocation() {
    let mut e = engine();
    e.pause();
    let res = ResourceVec::new(1000, 2048);
    // Agents report: app1 holds 3 on m0, 2 on m1 (Figure 7).
    e.adopt_allocation(AppId(1), UnitId(0), res.clone(), MachineId(0), 3);
    e.adopt_allocation(AppId(1), UnitId(0), res.clone(), MachineId(1), 2);
    // AM re-sends its request state: wants 5 more anywhere.
    let mut st = RequestState::new(unit(0, 1000, 1000, 2048));
    st.wants.add_cluster(5);
    e.full_request_sync(AppId(1), QuotaGroupId(0), vec![unit(0, 1000, 1000, 2048)], vec![st]);
    assert!(e.is_paused());
    assert_eq!(e.unit_granted_total(AppId(1), UnitId(0)), 5);
    assert_eq!(e.drain_events().len(), 0, "no decisions during rebuild");
    e.resume();
    let ev = e.drain_events();
    assert_eq!(total_granted(&ev, AppId(1)), 5, "queued demand satisfied after resume");
    assert_eq!(e.unit_granted_total(AppId(1), UnitId(0)), 10);
    // Free pool must reflect adopted allocations: 96GB*6 - 10*2GB… check m0.
    let free_m0 = e.free_on(MachineId(0));
    assert!(free_m0.cpu_milli() <= 12_000 - 3_000);
}

#[test]
fn full_sync_replaces_wants_idempotently() {
    let mut e = engine();
    e.attach_app(AppId(1), QuotaGroupId(0), vec![unit(0, 1000, 1000, 2048)]);
    e.apply_deltas(AppId(1), &[RequestDelta::cluster(UnitId(0), 4)]);
    e.drain_events();
    // AM's authoritative state says: 4 granted (it has them) and 0 wanted.
    let st = RequestState::new(unit(0, 1000, 1000, 2048));
    e.full_request_sync(AppId(1), QuotaGroupId(0), vec![unit(0, 1000, 1000, 2048)], vec![st.clone()]);
    assert_eq!(e.unit_outstanding(AppId(1), UnitId(0)), 0);
    assert_eq!(e.unit_granted_total(AppId(1), UnitId(0)), 4, "grants preserved");
    // Applying the same sync again changes nothing.
    e.full_request_sync(AppId(1), QuotaGroupId(0), vec![unit(0, 1000, 1000, 2048)], vec![st]);
    assert_eq!(e.unit_granted_total(AppId(1), UnitId(0)), 4);
    assert_eq!(e.drain_events().len(), 0);
}

#[test]
fn return_more_than_held_is_clamped() {
    let mut e = engine();
    e.attach_app(AppId(1), QuotaGroupId(0), vec![unit(0, 1000, 1000, 2048)]);
    e.apply_deltas(AppId(1), &[RequestDelta::machine(UnitId(0), MachineId(0), 2)]);
    e.drain_events();
    e.return_grant(AppId(1), UnitId(0), MachineId(0), 99);
    assert_eq!(e.unit_granted_total(AppId(1), UnitId(0)), 0);
    assert!(e.planned().is_zero());
    // What was held is what the agent is told went back.
    let returned = EngineEvent::Revoke {
        app: AppId(1),
        unit: UnitId(0),
        machine: MachineId(0),
        count: 2,
        reason: RevokeReason::Returned,
    };
    assert_eq!(e.drain_events(), [returned]);
    // Double return is a no-op.
    e.return_grant(AppId(1), UnitId(0), MachineId(0), 1);
    assert!(e.planned().is_zero());
    assert!(e.drain_events().is_empty());
}

#[test]
fn multiple_units_with_distinct_priorities() {
    let mut e = engine();
    e.attach_app(
        AppId(1),
        QuotaGroupId(0),
        vec![unit(0, 500, 1000, 2048), unit(1, 2000, 2000, 4096)],
    );
    e.apply_deltas(
        AppId(1),
        &[
            RequestDelta::cluster(UnitId(0), 3),
            RequestDelta::cluster(UnitId(1), 2),
        ],
    );
    assert_eq!(e.unit_granted_total(AppId(1), UnitId(0)), 3);
    assert_eq!(e.unit_granted_total(AppId(1), UnitId(1)), 2);
    let rows = e.app_grants(AppId(1));
    let units: BTreeSet<UnitId> = rows.iter().map(|(u, _, _, _)| *u).collect();
    assert_eq!(units.len(), 2);
}

#[test]
fn planned_gauge_tracks_grant_and_revoke() {
    let mut e = engine();
    e.attach_app(AppId(1), QuotaGroupId(0), vec![unit(0, 1000, 1000, 2048)]);
    e.apply_deltas(AppId(1), &[RequestDelta::cluster(UnitId(0), 6)]);
    assert_eq!(e.planned().memory_mb(), 6 * 2048);
    e.node_down(MachineId(0));
    // Revoked demand re-granted elsewhere; planned stays at 6 units.
    assert_eq!(e.planned().memory_mb(), 6 * 2048);
    e.detach_app(AppId(1));
    assert!(e.planned().is_zero());
}

#[test]
fn virtual_resource_limits_per_node_concurrency() {
    // The paper's ASort example (§3.2.1): "if we only allow 5 concurrent
    // computing processes to be run on the same node, we can configure each
    // node to only contain 5 virtual resource" and have each process
    // request one 'ASortResource'.
    use fuxi_proto::resource::VirtualResourceRegistry;
    let mut reg = VirtualResourceRegistry::new();
    let asort = reg.intern("ASortResource");
    let spec = MachineSpec {
        resources: ResourceVec::cores_mb(12, 96 * 1024).with_virtual(asort, 5),
        ..MachineSpec::default()
    };
    let topo = TopologyBuilder::new().uniform(1, 3, spec).build();
    let mut e = Engine::new(topo, EngineConfig::default(), QuotaManager::new());
    // Each ASort process: tiny physical footprint + 1 ASortResource.
    let unit_res = ResourceVec::new(100, 256).with_virtual(asort, 1);
    e.attach_app(
        AppId(1),
        QuotaGroupId(0),
        vec![ScheduleUnitDef::new(UnitId(0), Priority(1000), unit_res)],
    );
    e.apply_deltas(AppId(1), &[RequestDelta::cluster(UnitId(0), 100)]);
    // Physically hundreds would fit; the virtual dimension caps at 5/node.
    assert_eq!(e.unit_granted_total(AppId(1), UnitId(0)), 15);
    assert_eq!(e.unit_outstanding(AppId(1), UnitId(0)), 85);
    for m in 0..3 {
        let granted_here: u64 = e
            .app_grants(AppId(1))
            .iter()
            .filter(|(_, mm, _, _)| *mm == MachineId(m))
            .map(|(_, _, _, c)| c)
            .sum();
        assert_eq!(granted_here, 5, "exactly 5 concurrent on m{m}");
    }
    // Returning one frees a virtual slot that goes right back out.
    e.drain_events();
    e.return_grant(AppId(1), UnitId(0), MachineId(0), 2);
    let ev = e.drain_events();
    assert_eq!(total_granted(&ev, AppId(1)), 2, "virtual slots turn over");
}

#[test]
fn place_master_preempts_on_a_packed_cluster() {
    let mut e = engine();
    // Fill the cluster completely with a low-priority app.
    e.attach_app(AppId(1), QuotaGroupId(0), vec![unit(0, 3000, 6000, 48 * 1024)]);
    e.apply_deltas(AppId(1), &[RequestDelta::cluster(UnitId(0), 12)]);
    assert_eq!(e.unit_granted_total(AppId(1), UnitId(0)), 12);
    e.drain_events();
    // A new job's master must still be placeable.
    let placed = e.place_master(
        AppId(2),
        ResourceVec::cores_mb(1, 2048),
        &BTreeSet::new(),
    );
    assert!(placed.is_some(), "master placement preempts a workload container");
    let ev = e.drain_events();
    assert!(ev.iter().any(|x| matches!(
        x,
        EngineEvent::Revoke { app: AppId(1), reason: RevokeReason::Preempted, .. }
    )));
    // The preempted demand is re-queued for app1.
    assert_eq!(e.unit_outstanding(AppId(1), UnitId(0)), 1);
}
