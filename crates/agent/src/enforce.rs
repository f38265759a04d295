//! Process isolation policies (paper Section 2.2).
//!
//! "To achieve process isolation, we have adopted three schemes ...
//! Firstly, FuxiAgent will start processes for one application only if it
//! has obtained sufficient resource on this machine from FuxiMaster. We
//! call this procedure resource capacity ensurance. ... Secondly, each
//! process is configured with Cgroup soft and hard limit. When a machine
//! encounters with resource overload, one or more processes will be killed
//! ... One simple rule is to select the process whose real resource usage
//! exceeds its own resource usage most. Thirdly, sandbox is leveraged to
//! isolate different processes from invalid operations such as file
//! access. In fact, different root folders are created for each process."

use fuxi_proto::{AppId, ResourceVec, UnitId, WorkerId};
use std::collections::BTreeMap;

/// The per-app granted envelope on one machine: how many containers of each
/// unit size FuxiMaster says this app may run here. A row lives while its
/// count is positive: a revocation that outruns a grant notification, or
/// the return of the last container, takes it away.
#[derive(Debug, Default)]
pub struct Envelope {
    per_unit: BTreeMap<(AppId, UnitId), (ResourceVec, u64)>,
}

impl Envelope {
    /// Creates a new instance with the given configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies a `CapacityNotify` delta.
    pub fn apply(&mut self, app: AppId, unit: UnitId, unit_res: ResourceVec, delta: i64) {
        let count = self.allowed(app, unit).saturating_add_signed(delta);
        if count == 0 {
            self.per_unit.remove(&(app, unit));
        } else {
            self.per_unit.insert((app, unit), (unit_res, count));
        }
    }

    /// Replaces the whole envelope (from `AgentCapacitySnapshot`).
    pub fn replace(&mut self, rows: Vec<(AppId, UnitId, ResourceVec, u64)>) {
        self.per_unit.clear();
        for (app, unit, res, count) in rows.into_iter().filter(|r| r.3 > 0) {
            self.per_unit.insert((app, unit), (res, count));
        }
    }

    /// Containers of `(app, unit)` the envelope currently allows.
    pub fn allowed(&self, app: AppId, unit: UnitId) -> u64 {
        self.per_unit.get(&(app, unit)).map_or(0, |&(_, c)| c)
    }

    /// Snapshot for `AgentAllocationReport` during master failover.
    pub fn report(&self) -> Vec<(AppId, UnitId, ResourceVec, u64)> {
        (self.per_unit.iter())
            .map(|(&(a, u), (res, c))| (a, u, res.clone(), *c))
            .collect()
    }

    /// Number of `(app, unit)` rows held.
    #[cfg(test)]
    pub(crate) fn rows(&self) -> usize {
        self.per_unit.len()
    }
}

/// One running process as the overload policy sees it.
#[derive(Debug, Clone)]
pub struct ProcUsage {
    /// Worker id.
    pub worker: WorkerId,
    /// Resource limit enforced by the agent.
    pub limit: ResourceVec,
    /// Fraction of the limit the process actually consumes.
    pub usage_factor: f64,
}

impl ProcUsage {
    /// Actual consumption under the usage model.
    pub fn usage(&self) -> ResourceVec {
        ResourceVec::new(
            (self.limit.cpu_milli() as f64 * self.usage_factor) as u64,
            (self.limit.memory_mb() as f64 * self.usage_factor) as u64,
        )
    }

    /// How far beyond its own limit the process runs, in MB-equivalents
    /// (the kill-ranking metric: "the process whose real resource usage
    /// exceeds its own resource usage most").
    pub fn excess(&self) -> f64 {
        let u = self.usage();
        let over_cpu = u.cpu_milli() as f64 - self.limit.cpu_milli() as f64;
        let over_mem = u.memory_mb() as f64 - self.limit.memory_mb() as f64;
        over_cpu.max(0.0) + over_mem.max(0.0)
    }
}

/// Picks the process to kill when the machine is overloaded. Returns `None`
/// when no process exceeds its limit (then the machine is simply full, not
/// abused, and nothing is killed).
pub fn pick_overload_victim(procs: &[ProcUsage]) -> Option<WorkerId> {
    procs
        .iter()
        .filter(|p| p.excess() > 0.0)
        .max_by(|a, b| a.excess().partial_cmp(&b.excess()).unwrap())
        .map(|p| p.worker)
}

/// Sandbox bookkeeping: "different root folders are created for each
/// process preventing interference and resource access from others."
#[derive(Debug, Default)]
pub struct Sandbox {
    roots: BTreeMap<WorkerId, String>,
}

impl Sandbox {
    /// Create.
    pub fn create(&mut self, app: AppId, worker: WorkerId) -> &str {
        self.roots
            .entry(worker)
            .or_insert_with(|| format!("/fuxi/sandbox/{app}/{worker}"));
        &self.roots[&worker]
    }

    /// Destroy.
    pub fn destroy(&mut self, worker: WorkerId) {
        self.roots.remove(&worker);
    }

    /// Root.
    pub fn root(&self, worker: WorkerId) -> Option<&str> {
        self.roots.get(&worker).map(String::as_str)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.roots.len()
    }

    /// True when there are no entries.
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_apply_and_allowed() {
        let mut env = Envelope::new();
        let res = ResourceVec::new(500, 2048);
        env.apply(AppId(1), UnitId(0), res.clone(), 3);
        assert_eq!(env.allowed(AppId(1), UnitId(0)), 3);
        env.apply(AppId(1), UnitId(0), res.clone(), -1);
        assert_eq!(env.allowed(AppId(1), UnitId(0)), 2);
        // Revocation outrunning grants clamps at zero, not negative, and a
        // row at zero is gone: it holds nothing an agent needs.
        env.apply(AppId(1), UnitId(0), res.clone(), -10);
        assert_eq!(env.allowed(AppId(1), UnitId(0)), 0);
        assert_eq!(env.rows(), 0);
        assert_eq!(env.allowed(AppId(9), UnitId(0)), 0);
        // A late grant brings its own unit size.
        env.apply(AppId(1), UnitId(0), res.clone(), 1);
        assert_eq!(env.report(), [(AppId(1), UnitId(0), res, 1)]);
    }

    #[test]
    fn envelope_report_skips_zero_rows() {
        let mut env = Envelope::new();
        env.apply(AppId(1), UnitId(0), ResourceVec::new(1, 1), 2);
        env.apply(AppId(2), UnitId(0), ResourceVec::new(1, 1), 0);
        let rows = env.report();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].0, AppId(1));
    }

    #[test]
    fn envelope_replace_resets() {
        let mut env = Envelope::new();
        env.apply(AppId(1), UnitId(0), ResourceVec::new(1, 1), 5);
        env.replace(vec![(AppId(2), UnitId(1), ResourceVec::new(2, 2), 7)]);
        assert_eq!(env.allowed(AppId(1), UnitId(0)), 0);
        assert_eq!(env.allowed(AppId(2), UnitId(1)), 7);
    }

    #[test]
    fn overload_victim_is_worst_offender() {
        let procs = vec![
            ProcUsage {
                worker: WorkerId(1),
                limit: ResourceVec::new(1000, 1000),
                usage_factor: 0.9, // within limit
            },
            ProcUsage {
                worker: WorkerId(2),
                limit: ResourceVec::new(1000, 1000),
                usage_factor: 1.5, // 500+500 over
            },
            ProcUsage {
                worker: WorkerId(3),
                limit: ResourceVec::new(1000, 4000),
                usage_factor: 1.2, // 200+800 over
            },
        ];
        assert_eq!(pick_overload_victim(&procs), Some(WorkerId(3)));
    }

    #[test]
    fn no_victim_when_everyone_within_limits() {
        let procs = vec![ProcUsage {
            worker: WorkerId(1),
            limit: ResourceVec::new(1000, 1000),
            usage_factor: 1.0,
        }];
        assert_eq!(pick_overload_victim(&procs), None);
        assert_eq!(pick_overload_victim(&[]), None);
    }

    #[test]
    fn sandbox_roots_are_per_process() {
        let mut sb = Sandbox::default();
        let r1 = sb.create(AppId(1), WorkerId(1)).to_owned();
        let r2 = sb.create(AppId(1), WorkerId(2)).to_owned();
        assert_ne!(r1, r2);
        assert_eq!(sb.root(WorkerId(1)), Some(r1.as_str()));
        sb.destroy(WorkerId(1));
        assert_eq!(sb.root(WorkerId(1)), None);
        assert_eq!(sb.len(), 1);
    }
}
