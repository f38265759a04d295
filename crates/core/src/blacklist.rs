//! Cluster-level faulty-node detection and blacklisting (paper §4.3.2).
//!
//! Three cooperating detectors, exactly as described:
//!
//! 1. **Heartbeat timeout** — "once FuxiMaster finds a heartbeat timeout,
//!    the FuxiAgent will be removed from scheduling resource list and a
//!    resource revocation is sent". Tracked as the *dead* set (distinct
//!    from the blacklist, which is for machines "behaving abnormally yet
//!    not dead").
//! 2. **Health-score plugins** — "disk statistics, machine load and network
//!    I/O are all collected to calculate a score. Once the score is too low
//!    for a long time, FuxiMaster will also mark the machine as
//!    unavailable. With this plugin schema, administrators can add more
//!    check items."
//! 3. **Cross-job marks** — "among different jobs, FuxiMaster will turn
//!    this machine into disabled mode if a same machine is marked bad by
//!    different JobMasters. To avoid abuse ... an upper bound limit can be
//!    configured."

use fuxi_proto::{AppId, MachineId, NodeHealthReport};
use fuxi_sim::{SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet};

/// A pluggable health check producing a score in [0, 1] (1 = healthy).
/// `Send` so a FuxiMaster holding plugins can run on a live-runtime thread.
pub trait HealthPlugin: Send {
    /// Short identifier of this plugin.
    fn name(&self) -> &'static str;
    /// Health score in [0, 1] derived from the report.
    fn score(&self, report: &NodeHealthReport) -> f64;
}

/// Disk health: fraction of disks responding.
pub struct DiskPlugin;
impl HealthPlugin for DiskPlugin {
    fn name(&self) -> &'static str {
        "disk"
    }
    fn score(&self, r: &NodeHealthReport) -> f64 {
        r.disk_ok_ratio.clamp(0.0, 1.0)
    }
}

/// Load: a machine pegged far above capacity scores low.
pub struct LoadPlugin;
impl HealthPlugin for LoadPlugin {
    fn name(&self) -> &'static str {
        "load"
    }
    fn score(&self, r: &NodeHealthReport) -> f64 {
        // 1.0 until fully busy, decaying past that.
        if r.load <= 1.0 {
            1.0
        } else {
            (1.0 / r.load).clamp(0.0, 1.0)
        }
    }
}

/// Network: sustained saturation scores low (congestion proxy).
pub struct NetIoPlugin;
impl HealthPlugin for NetIoPlugin {
    fn name(&self) -> &'static str {
        "netio"
    }
    fn score(&self, r: &NodeHealthReport) -> f64 {
        if r.net_utilization < 0.95 {
            1.0
        } else {
            0.5
        }
    }
}

/// Launch failures: any recent failed process launch is a strong signal of
/// the paper's PartialWorkerFailure class (corrupt disk).
pub struct LaunchFailurePlugin;
impl HealthPlugin for LaunchFailurePlugin {
    fn name(&self) -> &'static str {
        "launch"
    }
    fn score(&self, r: &NodeHealthReport) -> f64 {
        match r.recent_launch_failures {
            0 => 1.0,
            1 => 0.5,
            _ => 0.0,
        }
    }
}

/// Execution speed observed by the agent (SlowMachine detection).
pub struct SpeedPlugin;
impl HealthPlugin for SpeedPlugin {
    fn name(&self) -> &'static str {
        "speed"
    }
    fn score(&self, r: &NodeHealthReport) -> f64 {
        r.speed_factor.clamp(0.0, 1.0)
    }
}

/// Heartbeats older than this mark a machine dead.
const HEARTBEAT_TIMEOUT: SimDuration = SimDuration::from_secs(15);
/// Combined plugin score below this is "low".
const SCORE_THRESHOLD: f64 = 0.6;
/// Low score must persist this long before blacklisting ("too low for a
/// long time").
const LOW_SCORE_DURATION: SimDuration = SimDuration::from_secs(30);
/// Distinct JobMasters that must mark a machine before it is disabled.
const MARKS_TO_DISABLE: usize = 2;
/// Upper bound on the blacklisted fraction of the cluster.
const MAX_FRACTION: f64 = 0.1;
/// Blacklisted machines are re-admitted after this probation (a healthy
/// machine should not be lost forever to one bad period).
const PROBATION: SimDuration = SimDuration::from_secs(600);

/// Why a machine is currently excluded from scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExclusionReason {
    /// Heartbeat timeout.
    HeartbeatTimeout,
    /// Low health score.
    LowHealthScore,
    /// Cross job marks.
    CrossJobMarks,
}

/// State transition reported back to the master.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transition {
    /// Excluded.
    Excluded(MachineId, ExclusionReason),
    /// Readmitted.
    Readmitted(MachineId),
}

/// The cluster-level blacklist kept by FuxiMaster.
pub struct ClusterBlacklist {
    n_machines: usize,
    plugins: Vec<Box<dyn HealthPlugin>>,
    last_heartbeat: Vec<SimTime>,
    /// When the machine's combined score first went low (None = healthy).
    low_since: Vec<Option<SimTime>>,
    /// Last combined score, for introspection.
    last_score: Vec<f64>,
    /// Jobs that marked each machine bad.
    marks: BTreeMap<MachineId, BTreeSet<AppId>>,
    dead: BTreeSet<MachineId>,
    blacklisted: BTreeMap<MachineId, (ExclusionReason, SimTime)>,
}

impl ClusterBlacklist {
    /// An empty blacklist over `n_machines` machines.
    pub fn new(n_machines: usize) -> Self {
        Self {
            n_machines,
            plugins: Self::default_plugins(),
            last_heartbeat: vec![SimTime::ZERO; n_machines],
            low_since: vec![None; n_machines],
            last_score: vec![1.0; n_machines],
            marks: BTreeMap::new(),
            dead: BTreeSet::new(),
            blacklisted: BTreeMap::new(),
        }
    }

    /// The paper's stock plugin set: disk, load, network I/O, plus launch
    /// failures and observed speed.
    pub fn default_plugins() -> Vec<Box<dyn HealthPlugin>> {
        vec![
            Box::new(DiskPlugin),
            Box::new(LoadPlugin),
            Box::new(NetIoPlugin),
            Box::new(LaunchFailurePlugin),
            Box::new(SpeedPlugin),
        ]
    }

    /// Administrators "can add more check items to the list".
    pub fn add_plugin(&mut self, plugin: Box<dyn HealthPlugin>) {
        self.plugins.push(plugin);
    }

    /// Is excluded.
    pub fn is_excluded(&self, m: MachineId) -> bool {
        self.dead.contains(&m) || self.blacklisted.contains_key(&m)
    }

    /// Is dead.
    pub fn is_dead(&self, m: MachineId) -> bool {
        self.dead.contains(&m)
    }

    /// Blacklisted count.
    pub fn blacklisted_count(&self) -> usize {
        self.blacklisted.len()
    }

    /// Score.
    pub fn score(&self, m: MachineId) -> f64 {
        self.last_score[m.0 as usize]
    }

    fn at_capacity(&self) -> bool {
        self.blacklisted.len() + 1 > (MAX_FRACTION * self.n_machines as f64).ceil() as usize
    }

    /// Processes one heartbeat. Returns a transition when the machine's
    /// status changes.
    pub fn on_heartbeat(
        &mut self,
        now: SimTime,
        m: MachineId,
        health: &NodeHealthReport,
    ) -> Option<Transition> {
        let idx = m.0 as usize;
        self.last_heartbeat[idx] = now;
        let was_dead = self.dead.remove(&m);
        // Combined score: minimum across plugins (one bad subsystem makes a
        // bad machine; averaging would hide a dead disk behind good CPU).
        let score = self
            .plugins
            .iter()
            .map(|p| p.score(health))
            .fold(1.0f64, f64::min);
        self.last_score[idx] = score;
        if score < SCORE_THRESHOLD {
            let since = *self.low_since[idx].get_or_insert(now);
            let low_for = now.since(since);
            if low_for >= LOW_SCORE_DURATION
                && !self.blacklisted.contains_key(&m)
                && !self.at_capacity()
            {
                self.blacklisted
                    .insert(m, (ExclusionReason::LowHealthScore, now));
                return Some(Transition::Excluded(m, ExclusionReason::LowHealthScore));
            }
        } else {
            self.low_since[idx] = None;
        }
        if was_dead && !self.blacklisted.contains_key(&m) {
            return Some(Transition::Readmitted(m));
        }
        None
    }

    /// A JobMaster reported this machine bad for its job. Returns a
    /// transition when the cross-job threshold trips.
    pub fn report_mark(&mut self, now: SimTime, app: AppId, m: MachineId) -> Option<Transition> {
        let marks = self.marks.entry(m).or_default();
        marks.insert(app);
        if marks.len() >= MARKS_TO_DISABLE
            && !self.blacklisted.contains_key(&m)
            && !self.at_capacity()
        {
            self.blacklisted
                .insert(m, (ExclusionReason::CrossJobMarks, now));
            return Some(Transition::Excluded(m, ExclusionReason::CrossJobMarks));
        }
        None
    }

    /// Periodic sweep: expire heartbeats, end probations. Returns all
    /// transitions.
    pub fn sweep(&mut self, now: SimTime) -> Vec<Transition> {
        let mut out = Vec::new();
        for i in 0..self.n_machines {
            let m = MachineId(i as u32);
            if !self.dead.contains(&m) && now.since(self.last_heartbeat[i]) > HEARTBEAT_TIMEOUT {
                self.dead.insert(m);
                out.push(Transition::Excluded(m, ExclusionReason::HeartbeatTimeout));
            }
        }
        let expired: Vec<MachineId> = self
            .blacklisted
            .iter()
            .filter(|(_, &(_, since))| now.since(since) >= PROBATION)
            .map(|(&m, _)| m)
            .collect();
        for m in expired {
            // Probation ends only for machines that look healthy again; a
            // still-sick machine stays excluded (its probation restarts).
            if self.last_score[m.0 as usize] < SCORE_THRESHOLD {
                if let Some(entry) = self.blacklisted.get_mut(&m) {
                    entry.1 = now;
                }
                continue;
            }
            self.blacklisted.remove(&m);
            self.marks.remove(&m);
            self.low_since[m.0 as usize] = None;
            if !self.dead.contains(&m) {
                out.push(Transition::Readmitted(m));
            }
        }
        out
    }

    /// Hard-state snapshot of the blacklist (machine + reason tag) for the
    /// FuxiMaster checkpoint.
    pub fn snapshot(&self) -> Vec<(u32, u8)> {
        self.blacklisted
            .iter()
            .map(|(&m, &(r, _))| {
                let tag = match r {
                    ExclusionReason::HeartbeatTimeout => 0u8,
                    ExclusionReason::LowHealthScore => 1,
                    ExclusionReason::CrossJobMarks => 2,
                };
                (m.0, tag)
            })
            .collect()
    }

    /// Restores from a checkpoint snapshot (the probation clock restarts).
    pub fn restore(&mut self, now: SimTime, snap: &[(u32, u8)]) {
        for &(m, tag) in snap {
            let reason = match tag {
                1 => ExclusionReason::LowHealthScore,
                2 => ExclusionReason::CrossJobMarks,
                _ => ExclusionReason::HeartbeatTimeout,
            };
            self.blacklisted.insert(MachineId(m), (reason, now));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn healthy() -> NodeHealthReport {
        NodeHealthReport::healthy()
    }

    fn sick() -> NodeHealthReport {
        NodeHealthReport {
            disk_ok_ratio: 0.3,
            ..NodeHealthReport::healthy()
        }
    }

    #[test]
    fn heartbeat_timeout_marks_dead_and_readmits() {
        let mut b = ClusterBlacklist::new(10);
        let t0 = SimTime::from_secs(1);
        for i in 0..10 {
            b.on_heartbeat(t0, MachineId(i), &healthy());
        }
        let tr = b.sweep(SimTime::from_secs(5));
        assert!(tr.is_empty());
        // m3 goes silent.
        let t = SimTime::from_secs(20);
        for i in 0..10 {
            if i != 3 {
                b.on_heartbeat(t, MachineId(i), &healthy());
            }
        }
        let tr = b.sweep(t);
        assert_eq!(
            tr,
            vec![Transition::Excluded(MachineId(3), ExclusionReason::HeartbeatTimeout)]
        );
        assert!(b.is_dead(MachineId(3)));
        // It heartbeats again: readmitted.
        let tr = b.on_heartbeat(SimTime::from_secs(25), MachineId(3), &healthy());
        assert_eq!(tr, Some(Transition::Readmitted(MachineId(3))));
        assert!(!b.is_excluded(MachineId(3)));
    }

    #[test]
    fn low_score_must_persist_before_blacklisting() {
        let mut b = ClusterBlacklist::new(10);
        let m = MachineId(0);
        assert!(b.on_heartbeat(SimTime::from_secs(0), m, &sick()).is_none());
        assert!(b.on_heartbeat(SimTime::from_secs(15), m, &sick()).is_none());
        // 30 s of continuous low score: blacklisted.
        let tr = b.on_heartbeat(SimTime::from_secs(30), m, &sick());
        assert_eq!(
            tr,
            Some(Transition::Excluded(m, ExclusionReason::LowHealthScore))
        );
        assert!(b.is_excluded(m));
    }

    #[test]
    fn recovery_resets_the_low_score_clock() {
        let mut b = ClusterBlacklist::new(10);
        let m = MachineId(0);
        b.on_heartbeat(SimTime::from_secs(0), m, &sick());
        b.on_heartbeat(SimTime::from_secs(15), m, &healthy()); // clock resets
        assert!(b.on_heartbeat(SimTime::from_secs(25), m, &sick()).is_none());
        assert!(
            b.on_heartbeat(SimTime::from_secs(50), m, &sick()).is_none(),
            "only 25s low since reset"
        );
        let tr = b.on_heartbeat(SimTime::from_secs(56), m, &sick());
        assert!(tr.is_some());
    }

    #[test]
    fn cross_job_marks_disable_at_threshold() {
        let mut b = ClusterBlacklist::new(10);
        let m = MachineId(4);
        assert!(b.report_mark(SimTime::from_secs(1), AppId(1), m).is_none());
        // Same job marking again does not count twice.
        assert!(b.report_mark(SimTime::from_secs(2), AppId(1), m).is_none());
        let tr = b.report_mark(SimTime::from_secs(3), AppId(2), m);
        assert_eq!(
            tr,
            Some(Transition::Excluded(m, ExclusionReason::CrossJobMarks))
        );
    }

    #[test]
    fn upper_bound_caps_blacklist_size() {
        let mut b = ClusterBlacklist::new(20); // cap = 10% of 20 = 2
        for i in 0..5u32 {
            b.report_mark(SimTime::from_secs(1), AppId(1), MachineId(i));
            b.report_mark(SimTime::from_secs(1), AppId(2), MachineId(i));
        }
        assert_eq!(b.blacklisted_count(), 2, "abuse guard holds");
    }

    #[test]
    fn probation_readmits_blacklisted_machines() {
        let mut b = ClusterBlacklist::new(10);
        let m = MachineId(0);
        b.report_mark(SimTime::from_secs(1), AppId(1), m);
        b.report_mark(SimTime::from_secs(1), AppId(2), m);
        assert!(b.is_excluded(m));
        b.on_heartbeat(SimTime::from_secs(601), m, &healthy());
        let tr = b.sweep(SimTime::from_secs(602));
        assert!(tr.contains(&Transition::Readmitted(m)));
        assert!(!b.is_excluded(m));
    }

    #[test]
    fn combined_score_is_minimum_of_plugins() {
        let mut b = ClusterBlacklist::new(1);
        let r = NodeHealthReport {
            disk_ok_ratio: 1.0,
            load: 0.2,
            net_utilization: 0.1,
            recent_launch_failures: 5, // launch plugin says 0.0
            speed_factor: 1.0,
        };
        b.on_heartbeat(SimTime::from_secs(0), MachineId(0), &r);
        assert_eq!(b.score(MachineId(0)), 0.0);
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut b = ClusterBlacklist::new(10);
        b.report_mark(SimTime::from_secs(1), AppId(1), MachineId(7));
        b.report_mark(SimTime::from_secs(1), AppId(2), MachineId(7));
        let snap = b.snapshot();
        let mut b2 = ClusterBlacklist::new(10);
        b2.restore(SimTime::from_secs(30), &snap);
        assert!(b2.is_excluded(MachineId(7)));
    }

    #[test]
    fn custom_plugin_participates() {
        struct AlwaysBad;
        impl HealthPlugin for AlwaysBad {
            fn name(&self) -> &'static str {
                "always-bad"
            }
            fn score(&self, _: &NodeHealthReport) -> f64 {
                0.1
            }
        }
        let mut b = ClusterBlacklist::new(4);
        b.add_plugin(Box::new(AlwaysBad));
        b.on_heartbeat(SimTime::from_secs(0), MachineId(0), &healthy());
        assert!((b.score(MachineId(0)) - 0.1).abs() < 1e-9);
    }
}
