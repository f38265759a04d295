//! Preemption (paper Section 3.4).
//!
//! Two levels, in order:
//! 1. **Priority preemption** — "the application with higher priority
//!    submits its resource request late but the cluster resources happen to
//!    be all scheduled out. Applications with lowest priority in its quota
//!    group will be preempted to make space for higher ones."
//! 2. **Quota preemption** — "when resource requests of applications from
//!    one quota group increase and the minimal resource quota is not
//!    satisfied, the quota groups that over-use resources will be preempted
//!    to make space for this quota group."
//!
//! A cheap pre-check (`granted_by_priority` and the quota deficit test)
//! keeps the no-preemption-possible case O(log n), which matters because
//! `try_satisfy` calls this on every unsatisfied request under load.

use crate::scheduler::engine::{Engine, RevokeReason, MASTER_UNIT};
use fuxi_proto::{AppId, MachineId, Priority, UnitId};
use std::ops::Bound::{Excluded, Unbounded};

#[derive(Debug)]
struct Victim {
    priority: Priority,
    seq: u64,
    app: AppId,
    unit: UnitId,
    by_priority: bool,
}

impl Engine {
    /// Places an application-master container, preempting a lower-priority
    /// workload container if the cluster is packed. Masters run at
    /// [`fuxi_proto::Priority::HIGHEST`], so a packed cluster never blocks
    /// job admission (it would deadlock quota preemption: the preempting
    /// job's master could otherwise never start).
    pub fn place_master(
        &mut self,
        app: AppId,
        resource: fuxi_proto::ResourceVec,
        avoid: &std::collections::BTreeSet<MachineId>,
    ) -> Option<MachineId> {
        if let Some(m) = self.grant_fixed(app, resource.clone(), avoid) {
            return Some(m);
        }
        if !self.config().enable_priority_preemption {
            return None;
        }
        // Least urgent victims first.
        let mut victims: Vec<(Priority, u64, AppId, UnitId)> = Vec::new();
        for (&vapp, ventry) in &self.apps {
            if vapp == app {
                continue;
            }
            for (&vuid, vu) in &ventry.units {
                if vuid == MASTER_UNIT || vu.total_granted == 0 {
                    continue;
                }
                victims.push((vu.def.priority, vu.submit_seq, vapp, vuid));
            }
        }
        victims.sort_by(|a, b| b.0.cmp(&a.0).then(b.1.cmp(&a.1)));
        for (_, _, vapp, vuid) in victims {
            let holdings: Vec<(MachineId, u64)> = self.apps[&vapp].units[&vuid]
                .granted
                .iter()
                .filter(|(m, _)| !avoid.contains(m))
                .map(|(&m, &c)| (m, c))
                .collect();
            for (m, held) in holdings {
                // Revoke just enough on m for the master to fit.
                let mut k = 0;
                while k < held {
                    self.revoke_at(vapp, vuid, m, 1, RevokeReason::Preempted);
                    k += 1;
                    if self.free.fits(m, &resource) >= 1 {
                        return self.grant_fixed(app, resource, avoid);
                    }
                }
            }
        }
        None
    }
}

/// Upper bound on containers revoked per preemption attempt.
const MAX_PREEMPTIONS_PER_ATTEMPT: u64 = 64;

impl Engine {
    /// Attempts preemption in favour of `(app, unit)`'s outstanding demand.
    pub(crate) fn maybe_preempt(&mut self, app: AppId, unit_id: UnitId) {
        let cfg = self.config().clone();
        if !cfg.enable_priority_preemption && !cfg.enable_quota_preemption {
            return;
        }
        let Some(entry) = self.apps.get(&app) else {
            return;
        };
        let group = entry.group;
        let Some(u) = entry.units.get(&unit_id) else {
            return;
        };
        let prio = u.def.priority;
        let unit_res = u.def.resource.clone();
        if unit_res.is_zero() {
            return;
        }

        // Cheap pre-checks: is there anything at all to take?
        let lower_priority_exists = cfg.enable_priority_preemption
            && self
                .granted_by_priority
                .range((Excluded(prio), Unbounded))
                .any(|(_, &c)| c > 0);
        let quota_deficit =
            cfg.enable_quota_preemption && self.quotas.in_deficit_for(group, &unit_res);
        if !lower_priority_exists && !quota_deficit {
            return;
        }

        // Collect eligible victims.
        let mut victims: Vec<Victim> = Vec::new();
        for (&vapp, ventry) in &self.apps {
            if vapp == app {
                continue;
            }
            for (&vuid, vu) in &ventry.units {
                if vuid == MASTER_UNIT || vu.total_granted == 0 {
                    continue;
                }
                let by_priority = lower_priority_exists && vu.def.priority > prio;
                let by_quota =
                    quota_deficit && ventry.group != group && self.quotas.over_min(ventry.group);
                if by_priority || by_quota {
                    victims.push(Victim {
                        priority: vu.def.priority,
                        seq: vu.submit_seq,
                        app: vapp,
                        unit: vuid,
                        by_priority,
                    });
                }
            }
        }
        // Priority-level victims first (the paper's first level), then quota
        // victims; within each: least urgent first, youngest first.
        victims.sort_by(|a, b| {
            b.by_priority
                .cmp(&a.by_priority)
                .then(b.priority.cmp(&a.priority))
                .then(b.seq.cmp(&a.seq))
        });

        let mut budget = MAX_PREEMPTIONS_PER_ATTEMPT;
        for v in victims {
            if budget == 0 || self.unit_outstanding(app, unit_id) == 0 {
                break;
            }
            // Quota victims must still be over-quota at revoke time
            // (earlier revocations may already have fixed the imbalance).
            if !v.by_priority {
                let vgroup = self.apps[&v.app].group;
                if !self.quotas.over_min(vgroup) {
                    continue;
                }
            }
            let holdings: Vec<(MachineId, u64)> = self.apps[&v.app].units[&v.unit]
                .granted
                .iter()
                .map(|(&m, &c)| (m, c))
                .collect();
            for (m, held) in holdings {
                if budget == 0 || self.unit_outstanding(app, unit_id) == 0 {
                    break;
                }
                let mut left = held;
                while left > 0 && budget > 0 && self.unit_outstanding(app, unit_id) > 0 {
                    self.revoke_at(v.app, v.unit, m, 1, RevokeReason::Preempted);
                    left -= 1;
                    budget -= 1;
                    // Grant directly to the requester (not via the general
                    // free-up path: preempted capacity must reach the app
                    // the preemption was performed for, or a waiter from the
                    // very group being preempted could reclaim it and
                    // thrash).
                    let can = self
                        .unit_outstanding(app, unit_id)
                        .min(self.free.fits(m, &unit_res));
                    if can > 0 {
                        self.grant_for_preemption(app, unit_id, m, can);
                    }
                }
            }
        }
    }
}
