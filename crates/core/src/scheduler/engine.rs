//! The incremental scheduling engine (paper Sections 3.1–3.3).
//!
//! "With the locality tree based incremental scheduling, only the changed
//! part will be calculated. For example, when {2CPU, 10GB} of resource frees
//! up on machine A, we only need to make a decision on which application in
//! machine A's waiting queue should get this resource."
//!
//! The engine is a pure data structure: the [`crate::master::FuxiMaster`]
//! actor feeds it protocol events and drains [`EngineEvent`]s to turn into
//! wire messages. Keeping it synchronous and simulator-free means criterion
//! benches and the Figure 9 measurement time the real decision path.

use crate::quota::QuotaManager;
use crate::scheduler::free_pool::FreePool;
use crate::scheduler::locality_tree::{Level, LocalityTree, QueueKey};
use fuxi_proto::request::{RequestDelta, RequestState, ScheduleUnitDef, WantLevels};
use fuxi_proto::topology::Topology;
use fuxi_proto::{AppId, MachineId, Priority, QuotaGroupId, RackId, ResourceVec, UnitId};
use std::collections::{BTreeMap, BTreeSet};

/// Reserved unit id under which application-master processes themselves are
/// accounted (they occupy resources like any other container).
pub const MASTER_UNIT: UnitId = UnitId(u32::MAX);

/// Cap on queue candidates examined per machine free-up event.
const MAX_CANDIDATES: usize = 256;

/// Engine tuning knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Cap on machines scanned per cluster-level satisfy attempt; the scan
    /// cursor rotates so successive attempts cover different machines.
    pub max_cluster_scan: usize,
    /// Enable preemption of lower-priority apps when the cluster is full.
    pub enable_priority_preemption: bool,
    /// Enable preemption of over-quota groups in favour of deficit groups.
    pub enable_quota_preemption: bool,
    /// Naive reference mode for differential testing and benchmarking: the
    /// free pool's hierarchical fit index is bypassed (every rack is
    /// descended) and machine-down handling re-derives victims by scanning
    /// all apps instead of the reverse allocation index. Decisions must be
    /// bit-identical to the indexed engine; only the cost differs.
    pub reference_mode: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            max_cluster_scan: 2048,
            enable_priority_preemption: true,
            enable_quota_preemption: true,
            reference_mode: false,
        }
    }
}

/// Why a grant was revoked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RevokeReason {
    /// The machine died or timed out.
    NodeDown,
    /// Preempted for quota or priority (Section 3.4).
    Preempted,
    /// The application detached/was stopped; agents must release.
    AppStopped,
    /// The application master gave the containers back itself; only the
    /// agent's envelope still has to follow (the master already knows).
    Returned,
}

/// Scheduling decisions produced by the engine, to be turned into
/// `GrantUpdate` / `CapacityNotify` messages by the master actor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineEvent {
    /// Grant.
    Grant {
        /// Application id.
        app: AppId,
        /// ScheduleUnit id.
        unit: UnitId,
        /// Machine index.
        machine: MachineId,
        /// Number of containers.
        count: u64,
    },
    /// Revoke.
    Revoke {
        /// Application id.
        app: AppId,
        /// ScheduleUnit id.
        unit: UnitId,
        /// Machine index.
        machine: MachineId,
        /// Number of containers.
        count: u64,
        /// Why it happened.
        reason: RevokeReason,
    },
}

#[derive(Debug)]
pub(crate) struct UnitEntry {
    pub def: ScheduleUnitDef,
    pub wants: WantLevels,
    pub avoid: BTreeSet<MachineId>,
    pub granted: BTreeMap<MachineId, u64>,
    pub total_granted: u64,
    pub submit_seq: u64,
    queued_machines: BTreeSet<MachineId>,
    queued_racks: BTreeSet<RackId>,
    queued_cluster: bool,
}

impl UnitEntry {
    fn new(def: ScheduleUnitDef, submit_seq: u64) -> Self {
        Self {
            def,
            wants: WantLevels::default(),
            avoid: BTreeSet::new(),
            granted: BTreeMap::new(),
            total_granted: 0,
            submit_seq,
            queued_machines: BTreeSet::new(),
            queued_racks: BTreeSet::new(),
            queued_cluster: false,
        }
    }

    fn key(&self, app: AppId, unit: UnitId) -> QueueKey {
        QueueKey {
            priority: self.def.priority,
            seq: self.submit_seq,
            app,
            unit,
        }
    }
}

#[derive(Debug)]
pub(crate) struct AppEntry {
    pub group: QuotaGroupId,
    pub units: BTreeMap<UnitId, UnitEntry>,
}

/// The FuxiMaster scheduling engine.
pub struct Engine {
    topo: Topology,
    cfg: EngineConfig,
    pub(crate) free: FreePool,
    pub(crate) tree: LocalityTree,
    pub(crate) quotas: QuotaManager,
    pub(crate) apps: BTreeMap<AppId, AppEntry>,
    next_seq: u64,
    events: Vec<EngineEvent>,
    /// While true (failover rebuild) no scheduling decisions are made.
    paused: bool,
    /// Total currently granted, all apps (the paper's `FM_planned` gauge).
    planned: ResourceVec,
    /// Containers granted per priority, for cheap preemption pre-checks.
    pub(crate) granted_by_priority: BTreeMap<Priority, u64>,
    /// Reverse allocation index: per machine, every `(app, unit)` holding
    /// grants there and how many. Mirrors the per-unit `granted` maps so
    /// machine-down / blacklist / capacity events touch only the affected
    /// machine's allocations instead of scanning all apps × units.
    alloc_index: Vec<BTreeMap<(AppId, UnitId), u64>>,
    /// Reusable candidate buffer for the free-up path; capacity is retained
    /// across calls so steady-state scheduling allocates nothing.
    scratch_cands: Vec<(Level, QueueKey)>,
    /// Reusable machine buffer for cluster-level satisfy scans.
    scratch_machines: Vec<MachineId>,
}

impl Engine {
    /// Creates a new instance with the given configuration.
    pub fn new(topo: Topology, cfg: EngineConfig, quotas: QuotaManager) -> Self {
        let caps: Vec<ResourceVec> = topo
            .machines()
            .map(|m| topo.spec(m).resources.clone())
            .collect();
        let rack_of: Vec<RackId> = topo.machines().map(|m| topo.rack_of(m)).collect();
        let n_machines = caps.len();
        let mut free = FreePool::with_racks(caps, rack_of);
        free.set_pruning(!cfg.reference_mode);
        Self {
            free,
            alloc_index: vec![BTreeMap::new(); n_machines],
            tree: LocalityTree::new(),
            quotas,
            apps: BTreeMap::new(),
            next_seq: 0,
            events: Vec::new(),
            paused: false,
            planned: ResourceVec::ZERO,
            granted_by_priority: BTreeMap::new(),
            scratch_cands: Vec::new(),
            scratch_machines: Vec::new(),
            topo,
            cfg,
        }
    }

    /// Topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Config.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Quotas.
    pub fn quotas(&self) -> &QuotaManager {
        &self.quotas
    }

    /// Total schedulable capacity right now (`FM_total`).
    pub fn total_capacity(&self) -> ResourceVec {
        self.free.total_capacity()
    }

    /// Total currently granted (`FM_planned`).
    pub fn planned(&self) -> &ResourceVec {
        &self.planned
    }

    /// Waiting entries.
    pub fn waiting_entries(&self) -> usize {
        self.tree.total_entries()
    }

    /// Decisions made since the last drain.
    pub fn drain_events(&mut self) -> Vec<EngineEvent> {
        std::mem::take(&mut self.events)
    }

    /// Moves pending decisions into `out` (cleared first). Both buffers keep
    /// their capacity, so a caller reusing one `out` across calls makes
    /// event draining allocation-free — the hot-path variant of
    /// [`drain_events`](Self::drain_events).
    pub fn take_events_into(&mut self, out: &mut Vec<EngineEvent>) {
        out.clear();
        std::mem::swap(&mut self.events, out);
    }

    /// Is paused.
    pub fn is_paused(&self) -> bool {
        self.paused
    }

    /// Enters failover-rebuild mode: state mutations are accepted
    /// (adoptions, syncs) but no scheduling happens.
    pub fn pause(&mut self) {
        self.paused = true;
    }

    /// Leaves rebuild mode and runs a full scheduling pass over all queued
    /// demand (one-time O(apps) cost, as in a real failover).
    pub fn resume(&mut self) {
        self.paused = false;
        let keys: Vec<(AppId, UnitId)> = self
            .apps
            .iter()
            .flat_map(|(&a, e)| e.units.keys().map(move |&u| (a, u)))
            .collect();
        for (app, unit) in keys {
            self.try_satisfy(app, unit);
        }
    }

    // ------------------------------------------------------------------
    // Application lifecycle
    // ------------------------------------------------------------------

    /// Registers an application (idempotent; re-attach after failover keeps
    /// adopted state and merges new unit definitions).
    pub fn attach_app(&mut self, app: AppId, group: QuotaGroupId, units: Vec<ScheduleUnitDef>) {
        let seq = self.bump_seq();
        let entry = self.apps.entry(app).or_insert(AppEntry {
            group,
            units: BTreeMap::new(),
        });
        entry.group = group;
        for def in units {
            match entry.units.get_mut(&def.unit) {
                Some(u) => u.def = def,
                None => {
                    entry.units.insert(def.unit, UnitEntry::new(def, seq));
                }
            }
        }
    }

    /// Has app.
    pub fn has_app(&self, app: AppId) -> bool {
        self.apps.contains_key(&app)
    }

    /// App group.
    pub fn app_group(&self, app: AppId) -> Option<QuotaGroupId> {
        self.apps.get(&app).map(|e| e.group)
    }

    /// Removes an application, releasing every grant. Emits `Revoke`
    /// events with [`RevokeReason::AppStopped`] so agents update capacity;
    /// the (gone) AM is not notified.
    pub fn detach_app(&mut self, app: AppId) {
        let Some(entry) = self.apps.remove(&app) else {
            return;
        };
        let mut freed_machines = BTreeSet::new();
        for (unit_id, mut unit) in entry.units {
            self.unqueue_all(app, unit_id, &mut unit);
            for (&m, &count) in &unit.granted {
                self.alloc_index[m.0 as usize].remove(&(app, unit_id));
                self.free.give(m, &unit.def.resource, count);
                self.quotas.sub_usage(entry.group, &unit.def.resource, count);
                self.planned.sub_scaled(&unit.def.resource, count);
                *self
                    .granted_by_priority
                    .entry(unit.def.priority)
                    .or_insert(0) -= count.min(
                    *self
                        .granted_by_priority
                        .get(&unit.def.priority)
                        .unwrap_or(&0),
                );
                self.events.push(EngineEvent::Revoke {
                    app,
                    unit: unit_id,
                    machine: m,
                    count,
                    reason: RevokeReason::AppStopped,
                });
                freed_machines.insert(m);
            }
        }
        for m in freed_machines {
            self.schedule_machine(m);
        }
    }

    // ------------------------------------------------------------------
    // The incremental protocol surface
    // ------------------------------------------------------------------

    /// Applies request deltas from an application master and immediately
    /// tries to satisfy the updated demand.
    pub fn apply_deltas(&mut self, app: AppId, deltas: &[RequestDelta]) {
        let Some(entry) = self.apps.get_mut(&app) else {
            return;
        };
        let mut touched = BTreeSet::new();
        for d in deltas {
            let Some(unit) = entry.units.get_mut(&d.unit) else {
                continue;
            };
            let mut rs = RequestState {
                def: unit.def.clone(),
                wants: std::mem::take(&mut unit.wants),
                avoid: std::mem::take(&mut unit.avoid),
            };
            rs.apply(d);
            unit.wants = rs.wants;
            unit.avoid = rs.avoid;
            touched.insert(d.unit);
        }
        for unit in touched {
            self.try_satisfy(app, unit);
        }
    }

    /// Replaces an app's full request state (periodic safety sync and
    /// failover rebuild, Figure 7). Grants already on the books are kept.
    pub fn full_request_sync(
        &mut self,
        app: AppId,
        group: QuotaGroupId,
        units: Vec<ScheduleUnitDef>,
        states: Vec<RequestState>,
    ) {
        self.attach_app(app, group, units);
        let Some(entry) = self.apps.get_mut(&app) else {
            return;
        };
        let mut touched = Vec::new();
        for st in states {
            let unit_id = st.def.unit;
            let seq = entry
                .units
                .get(&unit_id)
                .map(|u| u.submit_seq)
                .unwrap_or(self.next_seq);
            let unit = entry
                .units
                .entry(unit_id)
                .or_insert_with(|| UnitEntry::new(st.def.clone(), seq));
            unit.def = st.def;
            unit.wants = st.wants;
            unit.avoid = st.avoid;
            touched.push(unit_id);
        }
        for unit_id in touched {
            // Queue membership may be stale after the wholesale replace.
            if let Some(entry) = self.apps.get_mut(&app) {
                if let Some(unit) = entry.units.get_mut(&unit_id) {
                    let mut u = std::mem::replace(unit, UnitEntry::new(
                        ScheduleUnitDef::new(unit_id, Priority::DEFAULT, ResourceVec::ZERO),
                        0,
                    ));
                    self.unqueue_all(app, unit_id, &mut u);
                    *self
                        .apps
                        .get_mut(&app)
                        .unwrap()
                        .units
                        .get_mut(&unit_id)
                        .unwrap() = u;
                }
            }
            self.try_satisfy(app, unit_id);
        }
    }

    /// The application master voluntarily returns `count` containers on `m`
    /// ("when some mappers finish, the application master returns the
    /// resource via the same protocol"). Demand is *not* re-added. Emits a
    /// `Revoke` with [`RevokeReason::Returned`] so the agent's envelope
    /// shrinks with the books.
    pub fn return_grant(&mut self, app: AppId, unit: UnitId, m: MachineId, count: u64) {
        let Some(entry) = self.apps.get_mut(&app) else {
            return;
        };
        let group = entry.group;
        let Some(u) = entry.units.get_mut(&unit) else {
            return;
        };
        let held = u.granted.get(&m).copied().unwrap_or(0);
        let count = count.min(held);
        if count == 0 {
            return;
        }
        if held == count {
            u.granted.remove(&m);
        } else {
            u.granted.insert(m, held - count);
        }
        u.total_granted -= count;
        let res = u.def.resource.clone();
        let prio = u.def.priority;
        self.rindex_sub(m, app, unit, count);
        self.free.give(m, &res, count);
        self.quotas.sub_usage(group, &res, count);
        self.planned.sub_scaled(&res, count);
        if let Some(c) = self.granted_by_priority.get_mut(&prio) {
            *c = c.saturating_sub(count);
        }
        self.events.push(EngineEvent::Revoke {
            app,
            unit,
            machine: m,
            count,
            reason: RevokeReason::Returned,
        });
        // The freed resources immediately turn over to waiting applications.
        self.schedule_machine(m);
    }

    // ------------------------------------------------------------------
    // Node lifecycle
    // ------------------------------------------------------------------

    /// Removes a machine from scheduling (heartbeat timeout or blacklist)
    /// and revokes every grant on it, re-adding the victims' demand at
    /// cluster level.
    pub fn node_down(&mut self, m: MachineId) {
        // Zero capacity; whatever was granted there is accounted below.
        let in_use = self.free.capacity(m).clone();
        self.free.set_capacity(m, ResourceVec::ZERO, &in_use);
        // The reverse index names the victims directly; the all-apps scan is
        // kept as the differential reference (same (app, unit) order: both
        // iterate sorted by app then unit).
        let revokes: Vec<(AppId, UnitId)> = if self.cfg.reference_mode {
            self.apps
                .iter()
                .flat_map(|(&app, entry)| {
                    entry
                        .units
                        .iter()
                        .filter(|(_, u)| u.granted.contains_key(&m))
                        .map(move |(&unit_id, _)| (app, unit_id))
                })
                .collect()
        } else {
            self.alloc_index[m.0 as usize].keys().copied().collect()
        };
        for (app, unit_id) in revokes {
            let group = self.apps[&app].group;
            let u = self
                .apps
                .get_mut(&app)
                .unwrap()
                .units
                .get_mut(&unit_id)
                .unwrap();
            let count = u.granted.remove(&m).unwrap_or(0);
            u.total_granted -= count;
            u.wants.revoked(count);
            let res = u.def.resource.clone();
            let prio = u.def.priority;
            self.alloc_index[m.0 as usize].remove(&(app, unit_id));
            self.quotas.sub_usage(group, &res, count);
            self.planned.sub_scaled(&res, count);
            if let Some(c) = self.granted_by_priority.get_mut(&prio) {
                *c = c.saturating_sub(count);
            }
            self.events.push(EngineEvent::Revoke {
                app,
                unit: unit_id,
                machine: m,
                count,
                reason: RevokeReason::NodeDown,
            });
            self.try_satisfy(app, unit_id);
        }
    }

    /// Marks a machine as not yet schedulable (capacity zero) without
    /// emitting revocations — used at master startup before agents report
    /// in ("it passively collects total free resources from each machine").
    pub fn deactivate_machine(&mut self, m: MachineId) {
        let in_use = self.free.capacity(m).clone();
        self.free.set_capacity(m, ResourceVec::ZERO, &in_use);
    }

    /// Returns a machine to scheduling with the given capacity. Free space
    /// is capacity minus whatever the books still show granted there (after
    /// a failover rebuild, adopted allocations are on the books and must
    /// not be double-counted regardless of message arrival order).
    pub fn node_up(&mut self, m: MachineId, capacity: ResourceVec) {
        let mut in_use = ResourceVec::ZERO;
        for (_, _, res, count) in self.allocations_on(m) {
            in_use.add_scaled(&res, count);
        }
        self.free.set_capacity(m, capacity, &in_use);
        self.schedule_machine(m);
    }

    /// Current schedulable capacity of a machine (zero while down/excluded).
    pub fn capacity_of(&self, m: MachineId) -> &ResourceVec {
        self.free.capacity(m)
    }

    /// Failover rebuild: adopt an allocation reported by an agent
    /// (Figure 7). Must be called while paused.
    pub fn adopt_allocation(
        &mut self,
        app: AppId,
        unit: UnitId,
        unit_res: ResourceVec,
        m: MachineId,
        count: u64,
    ) {
        debug_assert!(self.paused, "adoption happens during rebuild");
        let seq = self.bump_seq();
        let entry = self.apps.entry(app).or_insert(AppEntry {
            group: QuotaGroupId(0),
            units: BTreeMap::new(),
        });
        let group = entry.group;
        let u = entry.units.entry(unit).or_insert_with(|| {
            UnitEntry::new(
                ScheduleUnitDef::new(unit, Priority::DEFAULT, unit_res.clone()),
                seq,
            )
        });
        *u.granted.entry(m).or_insert(0) += count;
        u.total_granted += count;
        let prio = u.def.priority;
        self.rindex_add(m, app, unit, count);
        self.free.take(m, &unit_res, count.min(self.free.fits(m, &unit_res)));
        self.quotas.add_usage(group, &unit_res, count);
        self.planned.add_scaled(&unit_res, count);
        *self.granted_by_priority.entry(prio).or_insert(0) += count;
    }

    // ------------------------------------------------------------------
    // Placement of application masters
    // ------------------------------------------------------------------

    /// Allocates one container of `resource` for `app`'s master process on
    /// any machine with room, avoiding `avoid`. Returns the machine.
    pub fn grant_fixed(
        &mut self,
        app: AppId,
        resource: ResourceVec,
        avoid: &BTreeSet<MachineId>,
    ) -> Option<MachineId> {
        if self.paused {
            return None;
        }
        let candidate = self.free.first_fitting(&resource, avoid)?;
        let seq = self.bump_seq();
        let group = self.apps.get(&app).map(|e| e.group).unwrap_or(QuotaGroupId(0));
        let entry = self.apps.entry(app).or_insert(AppEntry {
            group,
            units: BTreeMap::new(),
        });
        let u = entry.units.entry(MASTER_UNIT).or_insert_with(|| {
            UnitEntry::new(
                ScheduleUnitDef::new(MASTER_UNIT, Priority::HIGHEST, resource.clone()),
                seq,
            )
        });
        *u.granted.entry(candidate).or_insert(0) += 1;
        u.total_granted += 1;
        self.rindex_add(candidate, app, MASTER_UNIT, 1);
        self.free.take(candidate, &resource, 1);
        self.free.advance_cursor(candidate);
        self.quotas.add_usage(group, &resource, 1);
        self.planned.add_scaled(&resource, 1);
        *self
            .granted_by_priority
            .entry(Priority::HIGHEST)
            .or_insert(0) += 1;
        self.events.push(EngineEvent::Grant {
            app,
            unit: MASTER_UNIT,
            machine: candidate,
            count: 1,
        });
        Some(candidate)
    }

    // ------------------------------------------------------------------
    // Core scheduling
    // ------------------------------------------------------------------

    fn bump_seq(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq
    }

    /// Records `count` more containers of `(app, unit)` on `m` in the
    /// reverse allocation index.
    fn rindex_add(&mut self, m: MachineId, app: AppId, unit: UnitId, count: u64) {
        if count > 0 {
            *self.alloc_index[m.0 as usize].entry((app, unit)).or_insert(0) += count;
        }
    }

    /// Removes `count` containers of `(app, unit)` on `m` from the reverse
    /// allocation index, dropping the entry at zero.
    fn rindex_sub(&mut self, m: MachineId, app: AppId, unit: UnitId, count: u64) {
        let slot = &mut self.alloc_index[m.0 as usize];
        if let Some(c) = slot.get_mut(&(app, unit)) {
            *c = c.saturating_sub(count);
            if *c == 0 {
                slot.remove(&(app, unit));
            }
        }
    }

    /// Grants `count × unit` on `m` and performs all bookkeeping.
    fn grant_at(&mut self, app: AppId, unit_id: UnitId, m: MachineId, count: u64) {
        let entry = self.apps.get_mut(&app).expect("app exists");
        let group = entry.group;
        let u = entry.units.get_mut(&unit_id).expect("unit exists");
        let res = u.def.resource.clone();
        let prio = u.def.priority;
        self.free.take(m, &res, count);
        *u.granted.entry(m).or_insert(0) += count;
        u.total_granted += count;
        u.wants.satisfied_on(&self.topo, m, count);
        self.rindex_add(m, app, unit_id, count);
        self.quotas.add_usage(group, &res, count);
        self.planned.add_scaled(&res, count);
        *self.granted_by_priority.entry(prio).or_insert(0) += count;
        self.events.push(EngineEvent::Grant {
            app,
            unit: unit_id,
            machine: m,
            count,
        });
    }

    /// Revokes `count × unit` from `m`, re-adding the victim's demand at
    /// cluster level (preemption / blacklist migration).
    pub(crate) fn revoke_at(
        &mut self,
        app: AppId,
        unit_id: UnitId,
        m: MachineId,
        count: u64,
        reason: RevokeReason,
    ) {
        let Some(entry) = self.apps.get_mut(&app) else {
            return;
        };
        let group = entry.group;
        let Some(u) = entry.units.get_mut(&unit_id) else {
            return;
        };
        let held = u.granted.get(&m).copied().unwrap_or(0);
        let count = count.min(held);
        if count == 0 {
            return;
        }
        if held == count {
            u.granted.remove(&m);
        } else {
            u.granted.insert(m, held - count);
        }
        u.total_granted -= count;
        u.wants.revoked(count);
        let res = u.def.resource.clone();
        let prio = u.def.priority;
        self.rindex_sub(m, app, unit_id, count);
        self.free.give(m, &res, count);
        self.quotas.sub_usage(group, &res, count);
        self.planned.sub_scaled(&res, count);
        if let Some(c) = self.granted_by_priority.get_mut(&prio) {
            *c = c.saturating_sub(count);
        }
        self.events.push(EngineEvent::Revoke {
            app,
            unit: unit_id,
            machine: m,
            count,
            reason,
        });
        self.sync_queues(app, unit_id);
    }

    /// How many more containers of `unit` quota allows for `group`.
    fn quota_headroom(&self, group: QuotaGroupId, unit_res: &ResourceVec, want: u64) -> u64 {
        if self.quotas.within_max(group, unit_res, want) {
            return want;
        }
        // Binary search the largest admissible count below `want`.
        let (mut lo, mut hi) = (0u64, want);
        while lo < hi {
            let mid = (lo + hi).div_ceil(2);
            if self.quotas.within_max(group, unit_res, mid) {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        lo
    }

    /// Attempts to satisfy a unit's outstanding wants from free resources:
    /// machine hints, then rack hints, then anywhere; queues the remainder
    /// in the locality tree; finally attempts preemption if enabled.
    pub fn try_satisfy(&mut self, app: AppId, unit_id: UnitId) {
        if self.paused {
            return;
        }
        let Some(entry) = self.apps.get(&app) else {
            return;
        };
        let group = entry.group;
        let Some(u) = entry.units.get(&unit_id) else {
            return;
        };
        let unit_res = u.def.resource.clone();
        if u.wants.cluster() > 0 && !unit_res.is_zero() {
            // Level 1: machine hints.
            let hinted: Vec<(MachineId, u64)> = u.wants.machines().collect();
            let avoid = u.avoid.clone();
            for (m, want_m) in hinted {
                if avoid.contains(&m) {
                    continue;
                }
                let total_want = self.unit_want(app, unit_id);
                if total_want == 0 {
                    break;
                }
                let can = want_m
                    .min(total_want)
                    .min(self.free.fits(m, &unit_res))
                    .min(self.quota_headroom(group, &unit_res, want_m.min(total_want)));
                if can > 0 {
                    self.grant_at(app, unit_id, m, can);
                }
            }
            // Level 2: rack hints.
            let rack_hints: Vec<(RackId, u64)> = self
                .apps[&app].units[&unit_id]
                .wants
                .racks()
                .collect();
            for (r, _) in rack_hints {
                // Rack-level aggregate check: skip racks where no machine
                // can hold even one unit (no-op in reference mode).
                if !self.free.rack_can_fit(r, &unit_res) {
                    continue;
                }
                let machines: Vec<MachineId> = self.topo.machines_in_rack(r).to_vec();
                for m in machines {
                    let want_r = self.apps[&app].units[&unit_id].wants.at_rack(r);
                    if want_r == 0 {
                        break;
                    }
                    if avoid.contains(&m) {
                        continue;
                    }
                    let total_want = self.unit_want(app, unit_id);
                    let can = want_r
                        .min(total_want)
                        .min(self.free.fits(m, &unit_res))
                        .min(self.quota_headroom(group, &unit_res, want_r.min(total_want)));
                    if can > 0 {
                        self.grant_at(app, unit_id, m, can);
                    }
                }
            }
            // Level 3: anywhere in the cluster, rotating-cursor scan.
            // First pass spreads the grant across machines (the paper's
            // load-balance consideration: "instances are scheduled to
            // available workers uniformly"); a second pass greedily places
            // any remainder so capacity is never left stranded.
            //
            // The fit index answers the saturated-cluster case at the root
            // in O(1) (no candidates, no scan) and skips racks where the
            // unit cannot fit; pruned racks still charge the scan budget so
            // rotation and truncation match the naive scan machine-for-
            // machine. Free space does not change while candidates are
            // collected — grants apply after both passes.
            let mut grants: BTreeMap<MachineId, u64> = BTreeMap::new();
            let mut last_granted: Option<MachineId> = None;
            let mut remaining = self.apps[&app].units[&unit_id].wants.cluster();
            remaining = remaining.min(self.quota_headroom(group, &unit_res, remaining));
            if remaining > 0 {
                let nonempty = self.free.nonempty_count().max(1) as u64;
                let per_machine_cap = remaining.div_ceil(nonempty).max(1);
                let mut candidates = std::mem::take(&mut self.scratch_machines);
                self.free
                    .scan_fitting(&unit_res, self.cfg.max_cluster_scan, &mut candidates);
                for pass in 0..2 {
                    if remaining == 0 {
                        break;
                    }
                    let cap = if pass == 0 { per_machine_cap } else { u64::MAX };
                    for &m in &candidates {
                        if remaining == 0 {
                            break;
                        }
                        if avoid.contains(&m) {
                            continue;
                        }
                        let already = grants.get(&m).copied().unwrap_or(0);
                        let fits = self.free.fits(m, &unit_res).saturating_sub(already);
                        let can = remaining.min(fits).min(cap.saturating_sub(already.min(cap)));
                        if can > 0 {
                            *grants.entry(m).or_insert(0) += can;
                            remaining -= can;
                            last_granted = Some(m);
                        }
                    }
                }
                self.scratch_machines = candidates;
            }
            if let Some(last) = last_granted {
                self.free.advance_cursor(last);
            }
            for (m, can) in grants {
                self.grant_at(app, unit_id, m, can);
            }
        }
        self.sync_queues(app, unit_id);
        // Preemption when demand remains and the free pool could not help.
        if self.unit_want(app, unit_id) > 0 {
            self.maybe_preempt(app, unit_id);
        }
    }

    fn unit_want(&self, app: AppId, unit: UnitId) -> u64 {
        self.apps
            .get(&app)
            .and_then(|e| e.units.get(&unit))
            .map(|u| u.wants.cluster())
            .unwrap_or(0)
    }

    /// Grant used by the preemption path (which lives in `preemption.rs`).
    pub(crate) fn grant_for_preemption(
        &mut self,
        app: AppId,
        unit_id: UnitId,
        m: MachineId,
        count: u64,
    ) {
        self.grant_at(app, unit_id, m, count);
        self.sync_queues(app, unit_id);
    }

    /// Re-derives the unit's queue membership from its current wants.
    pub(crate) fn sync_queues(&mut self, app: AppId, unit_id: UnitId) {
        let Some(entry) = self.apps.get_mut(&app) else {
            return;
        };
        let Some(u) = entry.units.get_mut(&unit_id) else {
            return;
        };
        let key = u.key(app, unit_id);
        let footprint = u.def.resource.clone();
        let active = u.wants.cluster() > 0;

        let want_machines: BTreeSet<MachineId> = if active {
            u.wants.machines().map(|(m, _)| m).collect()
        } else {
            BTreeSet::new()
        };
        let want_racks: BTreeSet<RackId> = if active {
            u.wants.racks().map(|(r, _)| r).collect()
        } else {
            BTreeSet::new()
        };
        let stale_machines: Vec<MachineId> =
            u.queued_machines.difference(&want_machines).copied().collect();
        let new_machines: Vec<MachineId> =
            want_machines.difference(&u.queued_machines).copied().collect();
        let stale_racks: Vec<RackId> = u.queued_racks.difference(&want_racks).copied().collect();
        let new_racks: Vec<RackId> = want_racks.difference(&u.queued_racks).copied().collect();
        let was_cluster = u.queued_cluster;
        u.queued_machines = want_machines;
        u.queued_racks = want_racks;
        u.queued_cluster = active;

        for m in stale_machines {
            self.tree.dequeue_machine(m, &key);
        }
        for m in new_machines {
            self.tree.enqueue_machine(m, key, &footprint);
        }
        for r in stale_racks {
            self.tree.dequeue_rack(r, &key);
        }
        for r in new_racks {
            self.tree.enqueue_rack(r, key, &footprint);
        }
        match (was_cluster, active) {
            (true, false) => self.tree.dequeue_cluster(&key),
            (false, true) => self.tree.enqueue_cluster(key, &footprint),
            _ => {}
        }
    }

    fn unqueue_all(&mut self, app: AppId, unit_id: UnitId, u: &mut UnitEntry) {
        let key = u.key(app, unit_id);
        for m in std::mem::take(&mut u.queued_machines) {
            self.tree.dequeue_machine(m, &key);
        }
        for r in std::mem::take(&mut u.queued_racks) {
            self.tree.dequeue_rack(r, &key);
        }
        if std::mem::take(&mut u.queued_cluster) {
            self.tree.dequeue_cluster(&key);
        }
    }

    /// The free-up path: resources became available on `m`; hand them to
    /// waiting applications ("when resources of one machine are returned by
    /// one application master, certain waiting application will be selected
    /// to get the released resources").
    pub fn schedule_machine(&mut self, m: MachineId) {
        if self.paused {
            return;
        }
        let rack = self.topo.rack_of(m);
        // The candidate buffer is taken out of `self` so the grant calls
        // below can borrow the engine mutably; it goes back (with its
        // capacity) on every exit path, so steady state allocates nothing.
        let mut cands = std::mem::take(&mut self.scratch_cands);
        'outer: loop {
            let free = self.free.free(m).clone();
            if free.is_zero() {
                break;
            }
            self.tree
                .candidates_into(m, rack, &free, MAX_CANDIDATES, &mut cands);
            if cands.is_empty() {
                break;
            }
            let mut granted_any = false;
            let mut recheck = false;
            for &(level, key) in &cands {
                // A grant shrank the free vector; if every queue feeding
                // this machine is now hopeless, no remaining candidate can
                // be granted: candidates still queued are bounded below by
                // their queue's min footprint (which no longer fits), and
                // candidates dequeued mid-walk by `sync_queues` have zero
                // remaining want at this level. Skipping them changes no
                // decision — the reference engine keeps the full walk to
                // prove exactly that.
                if recheck && !self.cfg.reference_mode {
                    if self.all_queues_hopeless(m, rack) {
                        break 'outer;
                    }
                    recheck = false;
                }
                let Some(entry) = self.apps.get(&key.app) else {
                    continue;
                };
                let group = entry.group;
                let Some(u) = entry.units.get(&key.unit) else {
                    continue;
                };
                if u.avoid.contains(&m) {
                    continue;
                }
                let level_want = match level {
                    Level::Machine => u.wants.at_machine(m),
                    Level::Rack => u.wants.at_rack(rack),
                    Level::Cluster => u.wants.cluster(),
                };
                let want = level_want.min(u.wants.cluster());
                if want == 0 {
                    continue;
                }
                let unit_res = u.def.resource.clone();
                let can = want
                    .min(self.free.fits(m, &unit_res))
                    .min(self.quota_headroom(group, &unit_res, want));
                if can == 0 {
                    continue;
                }
                self.grant_at(key.app, key.unit, m, can);
                self.sync_queues(key.app, key.unit);
                granted_any = true;
                if self.free.free(m).is_zero() {
                    break 'outer;
                }
                recheck = true;
            }
            if !granted_any {
                break;
            }
        }
        self.scratch_cands = cands;
    }

    /// True when the machine, rack and cluster queues are all hopeless for
    /// `m`'s current free vector (absent queues are trivially hopeless).
    fn all_queues_hopeless(&self, m: MachineId, rack: RackId) -> bool {
        let free = self.free.free(m);
        self.tree
            .machine_queue(m)
            .is_none_or(|q| q.hopeless_for(free))
            && self.tree.rack_queue(rack).is_none_or(|q| q.hopeless_for(free))
            && self.tree.cluster_queue().hopeless_for(free)
    }

    // ------------------------------------------------------------------
    // Introspection used by the master actor and experiments
    // ------------------------------------------------------------------

    /// Grants currently on the books for one app, as `(unit, machine,
    /// unit_resource, count)` rows.
    pub fn app_grants(&self, app: AppId) -> Vec<(UnitId, MachineId, ResourceVec, u64)> {
        let Some(entry) = self.apps.get(&app) else {
            return Vec::new();
        };
        entry
            .units
            .iter()
            .flat_map(|(&uid, u)| {
                u.granted
                    .iter()
                    .map(move |(&m, &c)| (uid, m, u.def.resource.clone(), c))
            })
            .collect()
    }

    /// Current allocations on one machine, as `(app, unit, unit_resource,
    /// count)` rows — what a restarted agent needs to rebuild enforcement
    /// state. Answered from the reverse allocation index in O(allocations
    /// on `m`); in reference mode the original O(apps × units) scan runs.
    pub fn allocations_on(&self, m: MachineId) -> Vec<(AppId, UnitId, ResourceVec, u64)> {
        if self.cfg.reference_mode {
            let mut out = Vec::new();
            for (&app, entry) in &self.apps {
                for (&uid, u) in &entry.units {
                    if let Some(&c) = u.granted.get(&m) {
                        if c > 0 {
                            out.push((app, uid, u.def.resource.clone(), c));
                        }
                    }
                }
            }
            return out;
        }
        self.alloc_index[m.0 as usize]
            .iter()
            .filter(|&(_, &c)| c > 0)
            .filter_map(|(&(app, uid), &c)| {
                let res = self.apps.get(&app)?.units.get(&uid)?.def.resource.clone();
                Some((app, uid, res, c))
            })
            .collect()
    }

    /// Test-support: rebuilds the reverse allocation index from the per-unit
    /// grant maps and asserts both views agree, then checks the free pool's
    /// fit-index invariants.
    #[doc(hidden)]
    pub fn assert_index_consistent(&self) {
        let mut rebuilt: BTreeMap<(u32, AppId, UnitId), u64> = BTreeMap::new();
        for (&app, entry) in &self.apps {
            for (&uid, u) in &entry.units {
                for (&m, &c) in &u.granted {
                    if c > 0 {
                        rebuilt.insert((m.0, app, uid), c);
                    }
                }
            }
        }
        let mut indexed: BTreeMap<(u32, AppId, UnitId), u64> = BTreeMap::new();
        for (mi, slot) in self.alloc_index.iter().enumerate() {
            for (&(app, uid), &c) in slot {
                assert!(c > 0, "reverse index retains zero-count entry");
                indexed.insert((mi as u32, app, uid), c);
            }
        }
        assert_eq!(rebuilt, indexed, "reverse allocation index out of sync");
        self.free.assert_index_consistent();
    }

    /// Resource size of one container of `(app, unit)`, if known.
    pub fn unit_resource(&self, app: AppId, unit: UnitId) -> Option<ResourceVec> {
        self.apps
            .get(&app)
            .and_then(|e| e.units.get(&unit))
            .map(|u| u.def.resource.clone())
    }

    /// Total containers granted to one unit.
    pub fn unit_granted_total(&self, app: AppId, unit: UnitId) -> u64 {
        self.apps
            .get(&app)
            .and_then(|e| e.units.get(&unit))
            .map(|u| u.total_granted)
            .unwrap_or(0)
    }

    /// Outstanding (unsatisfied) cluster-level want of one unit.
    pub fn unit_outstanding(&self, app: AppId, unit: UnitId) -> u64 {
        self.unit_want(app, unit)
    }

    /// Free resources on one machine (for tests and placement heuristics).
    pub fn free_on(&self, m: MachineId) -> &ResourceVec {
        self.free.free(m)
    }

    /// Apps count.
    pub fn apps_count(&self) -> usize {
        self.apps.len()
    }

    /// Free-pool fragmentation summary for the metrics plane:
    /// `(free_mem_mb, stranded_mem_mb, largest_free_mem_mb)` where
    /// *stranded* is free memory sitting on machines whose free share is
    /// below `probe_mem_mb` (too small to fit a standard container, so it
    /// exists but can't be granted as one). One O(machines) scan — called
    /// once per metrics window, not on the decision path.
    pub fn free_summary(&self, probe_mem_mb: u64) -> (u64, u64, u64) {
        let mut free = 0u64;
        let mut stranded = 0u64;
        let mut largest = 0u64;
        for i in 0..self.free.n_machines() {
            let mem = self.free.free(MachineId(i as u32)).memory_mb();
            free += mem;
            if mem < probe_mem_mb {
                stranded += mem;
            }
            largest = largest.max(mem);
        }
        (free, stranded, largest)
    }
}
