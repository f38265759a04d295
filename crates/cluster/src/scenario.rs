//! Experiment drivers: the §5.2 synthetic-load loop and §5.4 fault plans.

use crate::harness::{Cluster, SubmitOpts};
use fuxi_proto::JobId;
use fuxi_sim::{Fault, FaultPlan, SimDuration, SimTime};
use fuxi_workloads::synthetic::SyntheticMix;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::BTreeSet;

/// The Table 3 fault mix, as fractions of the machine count. The paper's
/// 300-node experiment used NodeDown 2, PartialWorkerFailure 2,
/// SlowMachine 11 for the 5% scenario and 2/4/23 for 10%.
#[derive(Debug, Clone, Copy)]
pub struct FaultRatios {
    /// Fraction of machines to halt.
    pub node_down: f64,
    /// The partial worker.
    pub partial_worker: f64,
    /// Fraction of machines to slow down.
    pub slow_machine: f64,
}

impl FaultRatios {
    /// Table 3's 5% column (fractions of 300 nodes).
    pub fn five_percent() -> Self {
        Self {
            node_down: 2.0 / 300.0,
            partial_worker: 2.0 / 300.0,
            slow_machine: 11.0 / 300.0,
        }
    }

    /// Table 3's 10% column.
    pub fn ten_percent() -> Self {
        Self {
            node_down: 2.0 / 300.0,
            partial_worker: 4.0 / 300.0,
            slow_machine: 23.0 / 300.0,
        }
    }

    /// Total fraction.
    pub fn total_fraction(&self) -> f64 {
        self.node_down + self.partial_worker + self.slow_machine
    }
}

/// Builds a Table 3 fault plan over `n_machines` machines: faults are
/// injected at random times within `(start, end)` on distinct random
/// machines (excluding `exclude`, e.g. the machine hosting the JobMaster).
pub fn fault_plan(
    n_machines: usize,
    ratios: FaultRatios,
    start: SimTime,
    end: SimTime,
    seed: u64,
    exclude: &BTreeSet<u32>,
) -> FaultPlan {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut candidates: Vec<u32> = (0..n_machines as u32)
        .filter(|m| !exclude.contains(m))
        .collect();
    candidates.shuffle(&mut rng);
    let count = |f: f64| ((f * n_machines as f64).round() as usize).max(1);
    let n_down = count(ratios.node_down);
    let n_partial = count(ratios.partial_worker);
    let n_slow = count(ratios.slow_machine);
    let span = end.as_micros().saturating_sub(start.as_micros()).max(1);
    let t_at = |rng: &mut SmallRng| {
        use rand::Rng;
        SimTime(start.as_micros() + rng.gen_range(0..span))
    };
    let mut plan = FaultPlan::new();
    let mut it = candidates.into_iter();
    for _ in 0..n_down {
        if let Some(m) = it.next() {
            plan.add(t_at(&mut rng), Fault::NodeDown(m));
        }
    }
    for _ in 0..n_partial {
        if let Some(m) = it.next() {
            plan.add(
                t_at(&mut rng),
                Fault::PartialWorkerFailure {
                    machine: m,
                    active: true,
                },
            );
        }
    }
    for _ in 0..n_slow {
        if let Some(m) = it.next() {
            plan.add(
                t_at(&mut rng),
                Fault::SlowMachine {
                    machine: m,
                    factor: 0.3,
                },
            );
        }
    }
    plan
}

/// Result of one synthetic-load run (§5.2).
#[derive(Debug, Clone, Default)]
pub struct SyntheticRunStats {
    /// The jobs submitted.
    pub jobs_submitted: usize,
    /// The jobs finished.
    pub jobs_finished: usize,
    /// The job runtimes s.
    pub job_runtimes_s: Vec<f64>,
}

/// Drives the §5.2 experiment: keeps `concurrent` jobs running until
/// `duration` of simulated time passes ("we keep 1,000 jobs concurrently
/// running by starting a new job when one job finishes"), a slice of
/// simulated time per [`SyntheticLoop::advance`] — so two runs can take
/// turns on one thread. Slicing pauses between events and changes none.
pub struct SyntheticLoop {
    /// What the run has done so far.
    pub stats: SyntheticRunStats,
    live: Vec<JobId>,
    /// Simulated time the run has been advanced to.
    until: SimTime,
    deadline: SimTime,
}

impl SyntheticLoop {
    /// Submits the first `concurrent` jobs; the run ends `duration` from now.
    pub fn start(cluster: &mut Cluster, mix: &mut SyntheticMix, concurrent: usize, duration: SimDuration) -> Self {
        let now = cluster.world.now();
        let mut run = SyntheticLoop { stats: SyntheticRunStats::default(), live: Vec::new(), until: now, deadline: now + duration };
        for _ in 0..concurrent {
            run.submit(cluster, mix);
        }
        run
    }

    fn submit(&mut self, cluster: &mut Cluster, mix: &mut SyntheticMix) {
        self.live.push(cluster.submit(&mix.next_job().desc, &SubmitOpts::default()));
        self.stats.jobs_submitted += 1;
    }

    /// Runs up to `slice` more simulated time, starting a new job for
    /// every one that finishes. False once the run is over.
    pub fn advance(&mut self, cluster: &mut Cluster, mix: &mut SyntheticMix, slice: SimDuration) -> bool {
        self.until = (self.until + slice).min(self.deadline);
        loop {
            let target = self.stats.jobs_finished + 1;
            let reached = cluster.run_until_n_done(target, self.until);
            // Replace every newly finished job, in place.
            for job in std::mem::take(&mut self.live) {
                match cluster.job_done(job) {
                    Some((_ok, at)) => {
                        let submitted = cluster.job_state(job).map_or(0.0, |s| s.submitted_s);
                        self.stats.job_runtimes_s.push(at - submitted);
                        self.stats.jobs_finished += 1;
                        if cluster.world.now() < self.deadline {
                            self.submit(cluster, mix);
                        }
                    }
                    None => self.live.push(job),
                }
            }
            if cluster.world.now() >= self.deadline {
                return false;
            }
            if reached < target {
                return self.until < self.deadline;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_match_table3() {
        let five = FaultRatios::five_percent();
        assert!((five.total_fraction() - 0.05).abs() < 0.0001);
        let ten = FaultRatios::ten_percent();
        assert!((ten.total_fraction() - 29.0 / 300.0).abs() < 0.0001);
    }

    #[test]
    fn fault_plan_counts_scale_with_machines() {
        let plan = fault_plan(
            300,
            FaultRatios::five_percent(),
            SimTime::from_secs(10),
            SimTime::from_secs(100),
            1,
            &BTreeSet::new(),
        );
        // Paper's 5% column on 300 nodes: 2 + 2 + 11 = 15 faults.
        assert_eq!(plan.len(), 15);
        let downs = plan
            .events()
            .iter()
            .filter(|(_, f)| matches!(f, Fault::NodeDown(_)))
            .count();
        assert_eq!(downs, 2);
        // All inside the window.
        for (t, _) in plan.events() {
            assert!(*t >= SimTime::from_secs(10) && *t <= SimTime::from_secs(100));
        }
    }

    #[test]
    fn fault_plan_respects_exclusions_and_distinct_machines() {
        let exclude: BTreeSet<u32> = (0..250).collect();
        let plan = fault_plan(
            300,
            FaultRatios::ten_percent(),
            SimTime::from_secs(0),
            SimTime::from_secs(10),
            2,
            &exclude,
        );
        let mut machines = Vec::new();
        for (_, f) in plan.events() {
            let m = match f {
                Fault::NodeDown(m) => *m,
                Fault::PartialWorkerFailure { machine, .. } => *machine,
                Fault::SlowMachine { machine, .. } => *machine,
                _ => continue,
            };
            assert!(m >= 250, "excluded machine {m} must not be picked");
            machines.push(m);
        }
        let n = machines.len();
        machines.sort_unstable();
        machines.dedup();
        assert_eq!(machines.len(), n, "faults land on distinct machines");
    }
}
