//! Where one job's time goes: seven consecutive stages derived from the
//! trace events the product already records (no product change). Every
//! event used here is recorded under the job's own `TraceId`, including
//! across process boundaries, so jobs are keyed by trace.
//!
//! The stages telescope: their sum is exactly JobSubmitted → JobFinished as
//! the FuxiMaster saw it, which the run checks against the latency the
//! client observed.

use fuxi_obs::{TraceEvent, TraceRecord};
use std::collections::BTreeMap;

/// Stage metric names, in journey order. `STAGES[i]` spans mark `i` →
/// mark `i + 1`.
pub const STAGES: [&str; 7] = [
    "stage.submit_to_jm_launch_ms",
    "stage.jm_launch_to_jm_start_ms",
    "stage.jm_start_to_first_grant_ms",
    "stage.grant_to_worker_start_ms",
    "stage.worker_start_to_first_instance_ms",
    "stage.run_ms",
    "stage.last_instance_to_finished_ms",
];

/// The eight instants bounding a job's stages, seconds on whatever clock
/// the caller normalised to. Marks 0..=5 keep the *first* occurrence of
/// their event, mark 6 (instance finished) and 7 (job finished) the *last*.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Marks(pub [Option<f64>; 8]);

// The serde shim has no impl for arrays; on the wire marks are a list.
impl serde::Serialize for Marks {
    fn to_value(&self) -> serde::Value {
        self.0.to_vec().to_value()
    }
}

impl serde::Deserialize for Marks {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let times = Vec::<Option<f64>>::from_value(v)?;
        let marks = <[Option<f64>; 8]>::try_from(times)
            .map_err(|t| serde::DeError::custom(format_args!("{} marks, not 8", t.len())))?;
        Ok(Marks(marks))
    }
}

impl Marks {
    fn note(&mut self, i: usize, t: f64) {
        let keep_last = i >= 6;
        self.0[i] = Some(match self.0[i] {
            Some(old) if keep_last => old.max(t),
            Some(old) => old.min(t),
            None => t,
        });
    }

    /// Folds in marks for the same job recorded by another process.
    pub fn merge(&mut self, other: &Marks) {
        for (i, t) in other.0.iter().enumerate() {
            if let Some(t) = t {
                self.note(i, *t);
            }
        }
    }

    /// Stage durations in ms, or `None` when any bounding event is missing
    /// (a job cut off by the end of the run, or whose events died with a
    /// killed master).
    pub fn stages_ms(&self) -> Option<[f64; 7]> {
        let mut out = [0.0; 7];
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = (self.0[i + 1]? - self.0[i]?) * 1e3;
        }
        Some(out)
    }
}

/// Folds `records` into per-job marks, shifting every timestamp by
/// `offset_s` (the recording runtime's epoch on the common clock).
pub fn collect(records: &[TraceRecord], offset_s: f64, into: &mut BTreeMap<u32, Marks>) {
    for r in records {
        let Some(job) = r.trace.job() else { continue };
        let i = match r.event {
            TraceEvent::JobSubmitted { .. } => 0,
            TraceEvent::JmLaunchRequested { .. } => 1,
            TraceEvent::JmStarted { .. } => 2,
            TraceEvent::Grant { .. } => 3,
            TraceEvent::WorkerStarted { .. } => 4,
            TraceEvent::InstanceAssigned { .. } => 5,
            TraceEvent::InstanceFinished { ok: true, .. } => 6,
            TraceEvent::JobFinished { .. } => 7,
            _ => continue,
        };
        into.entry(job).or_default().note(i, r.t_s + offset_s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuxi_obs::TraceId;

    fn rec(t_s: f64, job: u32, event: TraceEvent) -> TraceRecord {
        TraceRecord {
            t_s,
            actor: 1,
            trace: TraceId::from_job(job),
            event,
        }
    }

    /// A hand-written log: job 1 complete (two grants, two instances),
    /// job 2 never got its JobFinished, plus untraced noise.
    fn sample() -> Vec<TraceRecord> {
        use TraceEvent::*;
        vec![
            rec(1.000, 1, JobSubmitted { job: 1, app: 9 }),
            rec(1.010, 1, JmLaunchRequested { app: 9, machine: 0 }),
            rec(1.030, 1, JmStarted { app: 9, machine: 0 }),
            rec(
                1.130,
                1,
                Grant {
                    app: 9,
                    unit: 0,
                    machine: 1,
                    count: 1,
                },
            ),
            rec(
                1.140,
                1,
                Grant {
                    app: 9,
                    unit: 0,
                    machine: 2,
                    count: 1,
                },
            ),
            rec(
                1.150,
                1,
                WorkerStarted {
                    app: 9,
                    worker: 1,
                    machine: 1,
                },
            ),
            rec(
                1.160,
                1,
                InstanceAssigned {
                    instance: 1,
                    attempt: 0,
                    worker: 1,
                },
            ),
            rec(
                1.165,
                1,
                InstanceAssigned {
                    instance: 2,
                    attempt: 0,
                    worker: 1,
                },
            ),
            rec(
                1.170,
                1,
                InstanceFinished {
                    instance: 1,
                    attempt: 0,
                    ok: true,
                },
            ),
            rec(
                1.175,
                1,
                InstanceFinished {
                    instance: 3,
                    attempt: 0,
                    ok: false,
                },
            ),
            rec(
                1.190,
                1,
                InstanceFinished {
                    instance: 2,
                    attempt: 0,
                    ok: true,
                },
            ),
            rec(
                1.200,
                1,
                JobFinished {
                    job: 1,
                    app: 9,
                    success: true,
                },
            ),
            rec(2.000, 2, JobSubmitted { job: 2, app: 10 }),
            rec(
                2.010,
                2,
                JmLaunchRequested {
                    app: 10,
                    machine: 0,
                },
            ),
            TraceRecord {
                t_s: 2.5,
                actor: 1,
                trace: TraceId::NONE,
                event: NodeDown { machine: 3 },
            },
        ]
    }

    #[test]
    fn derives_stages_and_they_telescope() {
        let mut marks = BTreeMap::new();
        collect(&sample(), 0.0, &mut marks);
        let st = marks[&1].stages_ms().expect("job 1 is complete");
        let want = [10.0, 20.0, 100.0, 20.0, 10.0, 30.0, 10.0];
        for (got, want) in st.iter().zip(want) {
            assert!((got - want).abs() < 1e-6, "{st:?}");
        }
        assert!((st.iter().sum::<f64>() - 200.0).abs() < 1e-6);
    }

    #[test]
    fn job_missing_an_event_yields_no_stages() {
        let mut marks = BTreeMap::new();
        collect(&sample(), 0.0, &mut marks);
        assert_eq!(marks.len(), 2, "untraced records are ignored");
        assert!(marks[&2].stages_ms().is_none());
    }

    #[test]
    fn merge_across_processes_respects_first_and_last() {
        // Master process saw the FM-side events, agent process the rest,
        // each with its own epoch offset.
        let (fm, agents): (Vec<_>, Vec<_>) = sample()
            .into_iter()
            .filter(|r| r.trace == TraceId::from_job(1))
            .partition(|r| {
                !matches!(
                    r.event,
                    TraceEvent::WorkerStarted { .. }
                        | TraceEvent::InstanceAssigned { .. }
                        | TraceEvent::InstanceFinished { .. }
                )
            });
        let mut a = BTreeMap::new();
        collect(&fm, 100.0, &mut a);
        let agents: Vec<_> = agents
            .into_iter()
            .map(|mut r| {
                r.t_s -= 50.0;
                r
            })
            .collect();
        let mut b = BTreeMap::new();
        collect(&agents, 150.0, &mut b);
        let mut merged = a[&1];
        merged.merge(&b[&1]);
        let mut whole = BTreeMap::new();
        collect(&sample(), 100.0, &mut whole);
        let (m, w) = (merged.stages_ms().unwrap(), whole[&1].stages_ms().unwrap());
        for (m, w) in m.iter().zip(w) {
            assert!((m - w).abs() < 1e-6);
        }
    }
}
