//! SLO watchdog: rule evaluation over the live [`ClusterView`] rollup.
//!
//! The primary FuxiMaster evaluates the rules once per metrics window.
//! Alerts are edge-triggered — a rule emits one `raised` alert when its
//! value first crosses the threshold and one `cleared` alert when it
//! recovers — so a sustained breach produces a single flight-recorder dump
//! rather than one per window.
//!
//! [`ClusterView`]: crate::view::ClusterView

use crate::view::ClusterView;

/// The rules the watchdog knows how to evaluate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloRuleKind {
    /// Scheduling-decision p99 over the retained windows, seconds.
    SchedP99,
    /// Age of the oldest continuously-pending job queue, seconds.
    PendingAge,
    /// Free-pool fragmentation: fraction of free memory stranded on
    /// machines too small to fit the probe unit.
    Fragmentation,
    /// Live mailbox backlog (current sampled depth, not high-water).
    MailboxDepth,
}

impl SloRuleKind {
    /// All rules, in evaluation order.
    pub const ALL: [SloRuleKind; 4] = [
        SloRuleKind::SchedP99,
        SloRuleKind::PendingAge,
        SloRuleKind::Fragmentation,
        SloRuleKind::MailboxDepth,
    ];

    /// Stable short name, used in trace events and exposition labels.
    pub fn name(self) -> &'static str {
        match self {
            SloRuleKind::SchedP99 => "sched_p99",
            SloRuleKind::PendingAge => "pending_age",
            SloRuleKind::Fragmentation => "fragmentation",
            SloRuleKind::MailboxDepth => "mailbox_depth",
        }
    }

    /// Flight-recorder dump reason used when this rule fires.
    pub fn dump_reason(self) -> &'static str {
        match self {
            SloRuleKind::SchedP99 => "slo_sched_p99",
            SloRuleKind::PendingAge => "slo_pending_age",
            SloRuleKind::Fragmentation => "slo_fragmentation",
            SloRuleKind::MailboxDepth => "slo_mailbox_depth",
        }
    }
}

// Thresholds for the watchdog rules. They are deliberately loose — far
// above anything a healthy run produces — so breaches mean trouble, not
// noise. Only the pending-age threshold is configurable
// (`MetricsPlaneConfig::pending_age_s`).

/// Breach when the windowed sched p99 exceeds this many seconds.
const SCHED_P99_S: f64 = 0.25;
/// Minimum windowed sample count before the sched rule is evaluated (a
/// single slow decision in an idle window is not a p99).
const MIN_SCHED_SAMPLES: u64 = 8;
/// Breach when the stranded-free-memory fraction exceeds this.
const FRAG_RATIO: f64 = 0.95;
/// Breach when the sampled live mailbox backlog exceeds this depth.
const MAILBOX_DEPTH: u64 = 6144;

/// One edge-triggered alert transition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloAlert {
    /// Which rule transitioned.
    pub rule: SloRuleKind,
    /// `true` = breach began, `false` = breach cleared.
    pub raised: bool,
    /// Observed value at the transition.
    pub value: f64,
    /// Configured threshold.
    pub threshold: f64,
    /// Rollup time of the transition, seconds.
    pub t_s: f64,
}

/// Evaluates the rules against successive rollups, tracking which rules
/// are currently breached so transitions are reported exactly once.
#[derive(Debug, Clone, Default)]
pub struct SloWatchdog {
    active: [bool; SloRuleKind::ALL.len()],
    /// Total raise transitions observed.
    pub breaches: u64,
}

impl SloWatchdog {
    /// Fresh watchdog with no active breaches.
    pub fn new() -> SloWatchdog {
        SloWatchdog::default()
    }

    /// Whether `rule` is currently breached.
    pub fn is_active(&self, rule: SloRuleKind) -> bool {
        self.active[Self::slot(rule)]
    }

    fn slot(rule: SloRuleKind) -> usize {
        SloRuleKind::ALL.iter().position(|r| *r == rule).unwrap()
    }

    /// The (value, threshold, breached) reading of one rule against a view.
    fn read(pending_age_s: f64, view: &ClusterView, rule: SloRuleKind) -> (f64, f64, bool) {
        match rule {
            SloRuleKind::SchedP99 => {
                let v = view.sched_p99_s;
                let enough = view.sched_count_win >= MIN_SCHED_SAMPLES;
                (v, SCHED_P99_S, enough && v > SCHED_P99_S)
            }
            SloRuleKind::PendingAge => {
                let v = view.oldest_pending_age_s;
                (v, pending_age_s, v > pending_age_s)
            }
            SloRuleKind::Fragmentation => {
                let v = view.frag_ratio;
                (v, FRAG_RATIO, v > FRAG_RATIO)
            }
            SloRuleKind::MailboxDepth => {
                let v = view.mailbox_depth as f64;
                (v, MAILBOX_DEPTH as f64, view.mailbox_depth > MAILBOX_DEPTH)
            }
        }
    }

    /// Evaluates every rule against `view` at rollup time `now_s`, with
    /// the pending-age rule's threshold `pending_age_s`, returning only the
    /// transitions (raises and clears).
    pub fn evaluate(&mut self, pending_age_s: f64, view: &ClusterView, now_s: f64) -> Vec<SloAlert> {
        let mut out = Vec::new();
        for rule in SloRuleKind::ALL {
            let (value, threshold, breached) = Self::read(pending_age_s, view, rule);
            let slot = Self::slot(rule);
            if breached != self.active[slot] {
                self.active[slot] = breached;
                if breached {
                    self.breaches += 1;
                }
                out.push(SloAlert {
                    rule,
                    raised: breached,
                    value,
                    threshold,
                    t_s: now_s,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alerts_are_edge_triggered() {
        let mut view = ClusterView::default();
        let mut wd = SloWatchdog::new();
        assert!(wd.evaluate(5.0, &view, 1.0).is_empty());

        view.oldest_pending_age_s = 9.0;
        let raised = wd.evaluate(5.0, &view, 2.0);
        assert_eq!(raised.len(), 1);
        assert!(raised[0].raised);
        assert_eq!(raised[0].rule, SloRuleKind::PendingAge);
        assert_eq!(raised[0].value, 9.0);
        // Sustained breach: no further transitions.
        assert!(wd.evaluate(5.0, &view, 3.0).is_empty());
        assert!(wd.is_active(SloRuleKind::PendingAge));
        assert_eq!(wd.breaches, 1);

        view.oldest_pending_age_s = 0.0;
        let cleared = wd.evaluate(5.0, &view, 4.0);
        assert_eq!(cleared.len(), 1);
        assert!(!cleared[0].raised);
        assert!(!wd.is_active(SloRuleKind::PendingAge));
    }

    #[test]
    fn sched_rule_needs_samples() {
        let mut view = ClusterView::default();
        view.sched_p99_s = 10.0;
        view.sched_count_win = MIN_SCHED_SAMPLES - 1;
        let mut wd = SloWatchdog::new();
        assert!(wd.evaluate(30.0, &view, 1.0).is_empty(), "too few samples");
        view.sched_count_win = MIN_SCHED_SAMPLES;
        assert_eq!(wd.evaluate(30.0, &view, 2.0).len(), 1);
    }
}
