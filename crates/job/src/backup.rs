//! The backup-instance (speculative execution) scheme (paper §4.3.2).
//!
//! "There are three criteria for the backup instance schemes. Firstly, the
//! majority of total instances (e.g., 90%) have finished ... Secondly, the
//! long tail instance must have already run for several times longer than
//! the average instance running time estimated from the finished instances.
//! Finally ... to distinguish [input-skew] instances from the long tail,
//! users should also specify a normal running time."

use fuxi_sim::SimTime;

/// Criterion 1: fraction of instances that must have finished.
const FINISHED_QUORUM: f64 = 0.9;
/// Criterion 2: elapsed must exceed `SLOWDOWN × avg_finished_runtime`.
const SLOWDOWN: f64 = 2.0;
/// Maximum simultaneous backup attempts per instance.
const MAX_BACKUPS: u32 = 1;

/// Online mean of finished-instance runtimes.
#[derive(Debug, Clone, Default)]
pub struct RuntimeStats {
    sum_s: f64,
    count: u64,
}

impl RuntimeStats {
    /// Record.
    pub fn record(&mut self, runtime_s: f64) {
        self.sum_s += runtime_s;
        self.count += 1;
    }

    /// Number of containers.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean s.
    pub fn mean_s(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_s / self.count as f64
        }
    }
}

/// Applies the paper's three criteria to one running instance.
///
/// * `finished` / `total` — task-level completion state (criterion 1);
/// * `stats` — runtimes of finished instances (criterion 2);
/// * `normal_time_s` — the user-declared normal runtime; 0 disables the
///   gate (criterion 3);
/// * `existing_backups` — attempts already racing for this instance.
pub fn should_backup(
    now: SimTime,
    started: SimTime,
    finished: u64,
    total: u64,
    stats: &RuntimeStats,
    normal_time_s: f64,
    existing_backups: u32,
) -> bool {
    if total == 0 || stats.count() == 0 {
        return false;
    }
    if existing_backups >= MAX_BACKUPS {
        return false;
    }
    // Criterion 1: quorum finished, so the average is meaningful.
    if (finished as f64) < FINISHED_QUORUM * total as f64 {
        return false;
    }
    let elapsed = now.since(started).as_secs_f64();
    // Criterion 2: several times the estimated average.
    if elapsed <= SLOWDOWN * stats.mean_s() {
        return false;
    }
    // Criterion 3: beyond what the user calls normal (skew filter).
    if normal_time_s > 0.0 && elapsed <= normal_time_s {
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(mean: f64, n: u64) -> RuntimeStats {
        let mut s = RuntimeStats::default();
        for _ in 0..n {
            s.record(mean);
        }
        s
    }

    fn base_check(now_s: f64, started_s: f64, finished: u64) -> bool {
        should_backup(
            SimTime::from_secs_f64(now_s),
            SimTime::from_secs_f64(started_s),
            finished,
            100,
            &stats(10.0, finished),
            0.0,
            0,
        )
    }

    #[test]
    fn fires_for_genuine_straggler() {
        // 95/100 done, avg 10 s, this one has run 50 s.
        assert!(base_check(60.0, 10.0, 95));
    }

    #[test]
    fn quorum_gate() {
        // Only 50/100 done: no backup however slow.
        assert!(!base_check(60.0, 10.0, 50));
    }

    #[test]
    fn slowdown_gate() {
        // 95/100 done but elapsed (15 s) < 2 × avg (20 s).
        assert!(!base_check(25.0, 10.0, 95));
        // Exactly at the boundary is still "not slower than".
        assert!(!base_check(30.0, 10.0, 95));
        assert!(base_check(30.1, 10.0, 95));
    }

    #[test]
    fn normal_time_gate_filters_skew() {
        let args = |normal: f64| {
            should_backup(
                SimTime::from_secs(60),
                SimTime::from_secs(10),
                95,
                100,
                &stats(10.0, 95),
                normal,
                0,
            )
        };
        assert!(args(0.0), "gate disabled");
        assert!(!args(120.0), "user says 120 s is normal: skew, not straggler");
        assert!(args(40.0), "50 s elapsed > 40 s normal");
    }

    #[test]
    fn backup_cap() {
        let check = |existing| {
            should_backup(
                SimTime::from_secs(60),
                SimTime::from_secs(10),
                95,
                100,
                &stats(10.0, 95),
                0.0,
                existing,
            )
        };
        assert!(check(0));
        assert!(!check(MAX_BACKUPS), "at most one backup per instance");
    }

    #[test]
    fn no_backup_without_finished_samples() {
        assert!(!should_backup(
            SimTime::from_secs(100),
            SimTime::ZERO,
            0,
            0,
            &RuntimeStats::default(),
            0.0,
            0,
        ));
    }

    #[test]
    fn runtime_stats_mean() {
        let mut s = RuntimeStats::default();
        assert_eq!(s.mean_s(), 0.0);
        s.record(10.0);
        s.record(20.0);
        assert!((s.mean_s() - 15.0).abs() < 1e-12);
        assert_eq!(s.count(), 2);
    }
}
