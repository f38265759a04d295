//! Incremental resource requests and grants (paper Sections 3.1–3.2).
//!
//! The protocol's operational semantics, reconstructed from Figures 3–5:
//!
//! * A **ScheduleUnit** is a unit size of resource (e.g. `{1 core, 2 GB}`)
//!   with a priority. An application may define several.
//! * Per unit the application holds **wants** — *outstanding* (not yet
//!   granted) demand counts at three locality levels. The cluster-level want
//!   is the authoritative total outstanding demand; machine-/rack-level
//!   wants are locality refinements of it (Figure 5: App1 waits 4 on M1 and
//!   4 on M2, 9 on Rack1, 4 on Rack2, 14 overall).
//! * A **grant of `g` units on machine M** decrements the unit's want at
//!   `M`, at `rack(M)` and at cluster level, each floored at zero ("the
//!   relevant waiting requests will be decreased by the amount of assigned
//!   units").
//! * A **voluntary return** ("when some mappers finish ... only the unit
//!   number needs to be sent") releases granted resource without touching
//!   wants: that demand was satisfied and is now gone.
//! * A **revocation** by FuxiMaster (preemption, node death) releases the
//!   grant *and re-adds the demand at cluster level* — the application still
//!   wants the resource, but the machine it was on is no longer a good hint.
//!
//! Requests and grants both travel as *deltas*; [`crate::msg::SeqSender`] /
//! [`crate::msg::SeqReceiver`] provide the ordering/idempotency layer and
//! periodic full-state syncs repair any divergence ("as a safety
//! measurement, application masters exchange with FuxiMaster the full state
//! of resources periodically").

use crate::ids::{AppId, MachineId, Priority, RackId, UnitId};
use crate::resource::ResourceVec;
use crate::topology::Topology;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Definition of one ScheduleUnit (paper Figure 4: `slot_def` with priority
/// and per-dimension amounts).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduleUnitDef {
    /// Unit id, unique within the application.
    pub unit: UnitId,
    /// Scheduling priority of containers of this unit.
    pub priority: Priority,
    /// Resource size of one container (all dimensions must fit together).
    pub resource: ResourceVec,
}

impl ScheduleUnitDef {
    /// Creates a new instance with the given configuration.
    pub fn new(unit: UnitId, priority: Priority, resource: ResourceVec) -> Self {
        Self {
            unit,
            priority,
            resource,
        }
    }
}

/// Outstanding demand at the three locality levels. Invariant maintained by
/// all mutators: every machine/rack want is ≤ the cluster want (a locality
/// hint can never exceed total demand).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct WantLevels {
    machine: BTreeMap<MachineId, u64>,
    rack: BTreeMap<RackId, u64>,
    cluster: u64,
}

impl WantLevels {
    /// Demand with no locality preference: `count` anywhere in the cluster.
    pub fn anywhere(count: u64) -> Self {
        Self {
            cluster: count,
            ..Self::default()
        }
    }

    /// Cluster-level quantity.
    pub fn cluster(&self) -> u64 {
        self.cluster
    }

    /// At machine.
    pub fn at_machine(&self, m: MachineId) -> u64 {
        self.machine.get(&m).copied().unwrap_or(0)
    }

    /// At rack.
    pub fn at_rack(&self, r: RackId) -> u64 {
        self.rack.get(&r).copied().unwrap_or(0)
    }

    /// Machines involved.
    pub fn machines(&self) -> impl Iterator<Item = (MachineId, u64)> + '_ {
        self.machine.iter().map(|(&m, &c)| (m, c))
    }

    /// Racks.
    pub fn racks(&self) -> impl Iterator<Item = (RackId, u64)> + '_ {
        self.rack.iter().map(|(&r, &c)| (r, c))
    }

    /// True when there are no entries.
    pub fn is_empty(&self) -> bool {
        self.cluster == 0
    }

    /// Adds `delta` (positive or negative) at cluster level, clamping at zero
    /// and clamping machine/rack hints down to the new total.
    pub fn add_cluster(&mut self, delta: i64) {
        self.cluster = add_clamped(self.cluster, delta);
        self.clamp_hints();
    }

    /// Adjusts the machine-level hint; positive deltas also raise the cluster
    /// total when the hint would exceed it (a machine hint implies demand).
    pub fn add_machine(&mut self, m: MachineId, delta: i64) {
        let cur = self.at_machine(m);
        let new = add_clamped(cur, delta);
        set_or_remove(&mut self.machine, m, new);
        if new > self.cluster {
            self.cluster = new;
        }
    }

    /// Adjusts the rack-level hint, same total-raising rule as machines.
    pub fn add_rack(&mut self, r: RackId, delta: i64) {
        let cur = self.at_rack(r);
        let new = add_clamped(cur, delta);
        set_or_remove(&mut self.rack, r, new);
        if new > self.cluster {
            self.cluster = new;
        }
    }

    /// Records that `g` units were granted on machine `m`: decrements the
    /// want at `m`, at `m`'s rack, and at cluster level, floored at zero.
    /// Returns the number actually drawn from the cluster total (≤ `g`).
    pub fn satisfied_on(&mut self, topo: &Topology, m: MachineId, g: u64) -> u64 {
        let drawn = g.min(self.cluster);
        self.cluster -= drawn;
        let mcur = self.at_machine(m);
        set_or_remove(&mut self.machine, m, mcur.saturating_sub(g));
        let r = topo.rack_of(m);
        let rcur = self.at_rack(r);
        set_or_remove(&mut self.rack, r, rcur.saturating_sub(g));
        self.clamp_hints();
        drawn
    }

    /// Re-adds demand after a revocation: the grant is gone but the
    /// application still wants the capacity, with no locality hint attached.
    pub fn revoked(&mut self, count: u64) {
        self.cluster += count;
    }

    fn clamp_hints(&mut self) {
        let total = self.cluster;
        self.machine.retain(|_, c| {
            *c = (*c).min(total);
            *c > 0
        });
        self.rack.retain(|_, c| {
            *c = (*c).min(total);
            *c > 0
        });
    }
}

fn add_clamped(cur: u64, delta: i64) -> u64 {
    if delta >= 0 {
        cur.saturating_add(delta as u64)
    } else {
        cur.saturating_sub(delta.unsigned_abs())
    }
}

fn set_or_remove<K: Ord>(map: &mut BTreeMap<K, u64>, k: K, v: u64) {
    if v == 0 {
        map.remove(&k);
    } else {
        map.insert(k, v);
    }
}

/// Full request state for one ScheduleUnit, as exchanged during periodic
/// full-state syncs and during FuxiMaster failover (Figure 7: "each
/// application master re-sends its ScheduleUnit configuration, resource
/// request and location preference").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestState {
    /// The unit definition.
    pub def: ScheduleUnitDef,
    /// Outstanding demand at the three locality levels.
    pub wants: WantLevels,
    /// The "avoidance machine list" of Section 3.2.2: never grant here.
    pub avoid: BTreeSet<MachineId>,
}

impl RequestState {
    /// Creates a new instance with the given configuration.
    pub fn new(def: ScheduleUnitDef) -> Self {
        Self {
            def,
            wants: WantLevels::default(),
            avoid: BTreeSet::new(),
        }
    }

    /// Applies one incremental update. Mirrors the paper's rule that
    /// "quantities can be either positive or negative, meaning increase or
    /// decrease of resource request respectively".
    pub fn apply(&mut self, delta: &RequestDelta) {
        debug_assert_eq!(delta.unit, self.def.unit);
        // Cluster first: hints in the same delta are refinements of the new
        // total (Figure 3's request `{M1*2, C*10}` means 10 total of which 2
        // preferred on M1, not 12).
        if delta.cluster != 0 {
            self.wants.add_cluster(delta.cluster);
        }
        for &(m, d) in &delta.machine {
            self.wants.add_machine(m, d);
        }
        for &(r, d) in &delta.rack {
            self.wants.add_rack(r, d);
        }
        for &m in &delta.avoid_add {
            self.avoid.insert(m);
        }
        for &m in &delta.avoid_remove {
            self.avoid.remove(&m);
        }
    }
}

/// One incremental request update for one ScheduleUnit.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RequestDelta {
    /// ScheduleUnit id.
    pub unit: UnitId,
    /// Machine this applies to.
    pub machine: Vec<(MachineId, i64)>,
    /// Rack index.
    pub rack: Vec<(RackId, i64)>,
    /// Cluster-level demand change.
    pub cluster: i64,
    /// Machines to add to the avoidance list.
    pub avoid_add: Vec<MachineId>,
    /// Machines to remove from the avoidance list.
    pub avoid_remove: Vec<MachineId>,
}

impl RequestDelta {
    /// Cluster-level quantity.
    pub fn cluster(unit: UnitId, delta: i64) -> Self {
        Self {
            unit,
            cluster: delta,
            ..Self::default()
        }
    }

    /// Machine index.
    pub fn machine(unit: UnitId, m: MachineId, delta: i64) -> Self {
        Self {
            unit,
            machine: vec![(m, delta)],
            ..Self::default()
        }
    }

    /// True when there are no entries.
    pub fn is_empty(&self) -> bool {
        self.machine.is_empty()
            && self.rack.is_empty()
            && self.cluster == 0
            && self.avoid_add.is_empty()
            && self.avoid_remove.is_empty()
    }

    /// Merges `other` into `self` (used by FuxiMaster's batched handling of
    /// "frequently changing resource requests from one application",
    /// Section 3.4).
    pub fn merge(&mut self, other: &RequestDelta) {
        debug_assert_eq!(self.unit, other.unit);
        for &(m, d) in &other.machine {
            match self.machine.iter_mut().find(|(mm, _)| *mm == m) {
                Some((_, dd)) => *dd += d,
                None => self.machine.push((m, d)),
            }
        }
        for &(r, d) in &other.rack {
            match self.rack.iter_mut().find(|(rr, _)| *rr == r) {
                Some((_, dd)) => *dd += d,
                None => self.rack.push((r, d)),
            }
        }
        self.cluster += other.cluster;
        for &m in &other.avoid_add {
            self.avoid_remove.retain(|&x| x != m);
            if !self.avoid_add.contains(&m) {
                self.avoid_add.push(m);
            }
        }
        for &m in &other.avoid_remove {
            self.avoid_add.retain(|&x| x != m);
            if !self.avoid_remove.contains(&m) {
                self.avoid_remove.push(m);
            }
        }
    }
}

/// One incremental grant update: positive entries grant containers on a
/// machine, negative entries revoke them ("quantities can be either positive
/// or negative, indicating grant or revocation", Section 3.2.3).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GrantDelta {
    /// ScheduleUnit id.
    pub unit: UnitId,
    /// Per-machine count changes (positive grant, negative revoke).
    pub changes: Vec<(MachineId, i64)>,
}

/// One per-(app, unit) capacity change on a machine, carried in a batched
/// `CapacityNotify`: the master coalesces all of one flush's decisions for
/// an agent into a single envelope instead of one message per decision.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CapacityChange {
    /// Application id.
    pub app: AppId,
    /// ScheduleUnit id.
    pub unit: UnitId,
    /// Resource size of one container of this unit.
    pub unit_resource: ResourceVec,
    /// Signed container-count change (positive grant, negative revoke).
    pub delta: i64,
}

impl GrantDelta {
    /// Grant.
    pub fn grant(unit: UnitId, m: MachineId, count: u64) -> Self {
        Self {
            unit,
            changes: vec![(m, count as i64)],
        }
    }

    /// Revoke.
    pub fn revoke(unit: UnitId, m: MachineId, count: u64) -> Self {
        Self {
            unit,
            changes: vec![(m, -(count as i64))],
        }
    }
}

/// The application-master-side ledger of currently-held grants per unit —
/// the containers it owns and may reuse across tasks (Section 3.2.3).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct GrantLedger {
    held: BTreeMap<UnitId, BTreeMap<MachineId, u64>>,
}

impl GrantLedger {
    /// Apply.
    pub fn apply(&mut self, delta: &GrantDelta) {
        let per_unit = self.held.entry(delta.unit).or_default();
        for &(m, d) in &delta.changes {
            let cur = per_unit.get(&m).copied().unwrap_or(0);
            set_or_remove(per_unit, m, add_clamped(cur, d));
        }
        if per_unit.is_empty() {
            self.held.remove(&delta.unit);
        }
    }

    /// Currently held grants per unit.
    pub fn held(&self, unit: UnitId, m: MachineId) -> u64 {
        self.held
            .get(&unit)
            .and_then(|per| per.get(&m).copied())
            .unwrap_or(0)
    }

    /// Total schedulable resources of the machine.
    pub fn total(&self, unit: UnitId) -> u64 {
        self.held
            .get(&unit)
            .map(|per| per.values().sum())
            .unwrap_or(0)
    }

    /// Machines involved.
    pub fn machines(&self, unit: UnitId) -> impl Iterator<Item = (MachineId, u64)> + '_ {
        self.held
            .get(&unit)
            .into_iter()
            .flat_map(|per| per.iter().map(|(&m, &c)| (m, c)))
    }

    /// ScheduleUnit definitions.
    pub fn units(&self) -> impl Iterator<Item = UnitId> + '_ {
        self.held.keys().copied()
    }

    /// Snapshot used for full-state sync / failover reconstruction.
    pub fn snapshot(&self) -> Vec<(UnitId, Vec<(MachineId, u64)>)> {
        self.held
            .iter()
            .map(|(&u, per)| (u, per.iter().map(|(&m, &c)| (m, c)).collect()))
            .collect()
    }

    /// Replaces the ledger with a full-state snapshot.
    pub fn restore(&mut self, snap: Vec<(UnitId, Vec<(MachineId, u64)>)>) {
        self.held.clear();
        for (u, per) in snap {
            let entry: BTreeMap<_, _> = per.into_iter().filter(|&(_, c)| c > 0).collect();
            if !entry.is_empty() {
                self.held.insert(u, entry);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{MachineSpec, TopologyBuilder};

    fn topo() -> Topology {
        // 2 racks x 2 machines: m0,m1 in r0; m2,m3 in r1.
        TopologyBuilder::new()
            .uniform(2, 2, MachineSpec::default())
            .build()
    }

    fn unit() -> ScheduleUnitDef {
        ScheduleUnitDef::new(UnitId(0), Priority::DEFAULT, ResourceVec::new(1000, 2048))
    }

    #[test]
    fn figure5_grant_decrements_all_levels() {
        // App1 from Figure 5: M1:4, M2:4 (rack1), Rack1:9, Rack2:4, total 14.
        let t = topo();
        let mut w = WantLevels::anywhere(14);
        w.add_machine(MachineId(0), 4);
        w.add_machine(MachineId(1), 4);
        w.add_rack(RackId(0), 9);
        w.add_rack(RackId(1), 4);
        // Grant 3 on m0: m0 want 4->1, rack0 9->6, cluster 14->11.
        let drawn = w.satisfied_on(&t, MachineId(0), 3);
        assert_eq!(drawn, 3);
        assert_eq!(w.at_machine(MachineId(0)), 1);
        assert_eq!(w.at_rack(RackId(0)), 6);
        assert_eq!(w.cluster(), 11);
        // Grant 5 on m3 (no machine hint): rack1 4->0, cluster 11->6.
        let drawn = w.satisfied_on(&t, MachineId(3), 5);
        assert_eq!(drawn, 5);
        assert_eq!(w.at_rack(RackId(1)), 0);
        assert_eq!(w.cluster(), 6);
    }

    #[test]
    fn grant_floors_wants_at_zero_and_caps_drawn_at_total() {
        let t = topo();
        let mut w = WantLevels::anywhere(2);
        w.add_machine(MachineId(0), 2);
        let drawn = w.satisfied_on(&t, MachineId(0), 5);
        assert_eq!(drawn, 2, "cannot draw more than total outstanding");
        assert!(w.is_empty());
        assert_eq!(w.at_machine(MachineId(0)), 0);
    }

    #[test]
    fn hints_are_clamped_to_cluster_total() {
        let mut w = WantLevels::anywhere(10);
        w.add_machine(MachineId(0), 6);
        w.add_cluster(-7); // total now 3; hint must clamp to 3
        assert_eq!(w.cluster(), 3);
        assert_eq!(w.at_machine(MachineId(0)), 3);
    }

    #[test]
    fn machine_hint_raises_total_when_larger() {
        let mut w = WantLevels::default();
        w.add_machine(MachineId(2), 5);
        assert_eq!(w.cluster(), 5, "a machine hint implies demand");
    }

    #[test]
    fn revocation_readds_cluster_demand() {
        let t = topo();
        let mut w = WantLevels::anywhere(4);
        w.satisfied_on(&t, MachineId(1), 4);
        assert!(w.is_empty());
        w.revoked(2);
        assert_eq!(w.cluster(), 2);
        assert_eq!(w.at_machine(MachineId(1)), 0, "no hint re-added for the bad machine");
    }

    #[test]
    fn request_state_applies_deltas_and_avoid_list() {
        let mut rs = RequestState::new(unit());
        rs.apply(&RequestDelta {
            unit: UnitId(0),
            machine: vec![(MachineId(0), 2)],
            rack: vec![(RackId(0), 5)],
            cluster: 10,
            avoid_add: vec![MachineId(3)],
            avoid_remove: vec![],
        });
        assert_eq!(rs.wants.cluster(), 10);
        assert_eq!(rs.wants.at_machine(MachineId(0)), 2);
        assert!(rs.avoid.contains(&MachineId(3)));
        rs.apply(&RequestDelta {
            unit: UnitId(0),
            machine: vec![],
            rack: vec![],
            cluster: -4,
            avoid_add: vec![],
            avoid_remove: vec![MachineId(3)],
        });
        assert_eq!(rs.wants.cluster(), 6);
        assert!(!rs.avoid.contains(&MachineId(3)));
    }

    #[test]
    fn delta_merge_accumulates() {
        let mut a = RequestDelta::cluster(UnitId(0), 5);
        a.merge(&RequestDelta::machine(UnitId(0), MachineId(1), 2));
        a.merge(&RequestDelta::cluster(UnitId(0), -1));
        a.merge(&RequestDelta::machine(UnitId(0), MachineId(1), 3));
        assert_eq!(a.cluster, 4);
        assert_eq!(a.machine, vec![(MachineId(1), 5)]);
    }

    #[test]
    fn delta_merge_avoid_lists_cancel() {
        let mut a = RequestDelta {
            unit: UnitId(0),
            avoid_add: vec![MachineId(1)],
            ..Default::default()
        };
        a.merge(&RequestDelta {
            unit: UnitId(0),
            avoid_remove: vec![MachineId(1)],
            ..Default::default()
        });
        assert!(a.avoid_add.is_empty());
        assert_eq!(a.avoid_remove, vec![MachineId(1)]);
    }

    #[test]
    fn grant_ledger_applies_grants_and_revocations() {
        let mut l = GrantLedger::default();
        l.apply(&GrantDelta::grant(UnitId(0), MachineId(1), 3));
        l.apply(&GrantDelta::grant(UnitId(0), MachineId(2), 2));
        assert_eq!(l.total(UnitId(0)), 5);
        l.apply(&GrantDelta::revoke(UnitId(0), MachineId(1), 1));
        assert_eq!(l.held(UnitId(0), MachineId(1)), 2);
        l.apply(&GrantDelta::revoke(UnitId(0), MachineId(1), 99));
        assert_eq!(l.held(UnitId(0), MachineId(1)), 0, "revoke clamps at zero");
        assert_eq!(l.total(UnitId(0)), 2);
    }

    #[test]
    fn grant_ledger_snapshot_roundtrip() {
        let mut l = GrantLedger::default();
        l.apply(&GrantDelta::grant(UnitId(0), MachineId(1), 3));
        l.apply(&GrantDelta::grant(UnitId(1), MachineId(0), 7));
        let snap = l.snapshot();
        let mut l2 = GrantLedger::default();
        l2.restore(snap);
        assert_eq!(l, l2);
    }
}
