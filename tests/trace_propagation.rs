//! Differential tests of the causal tracing layer: every job-scoped
//! event in an end-to-end run must carry the trace id minted at submit
//! (the causal chain client → FuxiMaster → FuxiAgent → JobMaster →
//! TaskWorker never drops), and the event stream must be a pure function
//! of the schedule — `reference_mode` (flat scans) and the indexed
//! scheduler must emit identical streams.

use fuxi::cluster::{Cluster, ClusterConfig, SubmitOpts};
use fuxi::sim::SimTime;
use fuxi::workloads::mapreduce::{wordcount_job, MapReduceParams};
use std::collections::BTreeSet;

fn small_job(maps: u32, reduces: u32, dur: f64) -> fuxi::job::JobDesc {
    wordcount_job(&MapReduceParams {
        maps,
        reduces,
        map_duration_s: dur,
        reduce_duration_s: dur,
        jitter: 0.1,
        binary_mb: 50.0,
        ..Default::default()
    })
}

/// Runs two jobs to completion and returns the cluster for inspection.
fn run_two_jobs(reference_mode: bool) -> (Cluster, Vec<u32>) {
    let mut cfg = ClusterConfig {
        n_machines: 10,
        rack_size: 5,
        seed: 29,
        ..ClusterConfig::default()
    };
    cfg.master.engine.reference_mode = reference_mode;
    let mut c = Cluster::new(cfg);
    let a = c.submit(&small_job(8, 2, 5.0), &SubmitOpts::default());
    let b = c.submit(&small_job(4, 2, 3.0), &SubmitOpts::default());
    for job in [a, b] {
        let (ok, _) = c
            .run_until_job_done(job, SimTime::from_secs(900))
            .expect("job finishes");
        assert!(ok, "job {job:?} must succeed");
    }
    (c, vec![a.0, b.0])
}

/// Event names that are always causally downstream of one job's submit.
const JOB_SCOPED: [&str; 11] = [
    "job_submitted",
    "jm_launch_requested",
    "jm_started",
    "jm_exited",
    "grant",
    "revoke",
    "request_applied",
    "worker_launch_requested",
    "worker_started",
    "instance_assigned",
    "job_finished",
];

#[test]
fn every_job_scoped_event_carries_the_submit_trace() {
    let (c, jobs) = run_two_jobs(false);
    let valid: BTreeSet<u64> = jobs.iter().map(|j| *j as u64 + 1).collect();
    let records = &c.world.tracer().records;
    assert!(records.len() > 50, "expected a rich stream, got {}", records.len());

    let mut seen: BTreeSet<&'static str> = BTreeSet::new();
    for r in records {
        let name = r.event.name();
        if JOB_SCOPED.contains(&name) {
            assert!(
                valid.contains(&r.trace.0),
                "{} at t={} carries trace {} — not minted by any submit ({:?})",
                name,
                r.t_s,
                r.trace.0,
                r.event
            );
            seen.insert(name);
        }
        // Worker/instance events may legitimately be unattributed only for
        // adopted orphans; none exist in this fault-free run.
        if ["worker_exited", "instance_finished"].contains(&name) {
            assert!(
                valid.contains(&r.trace.0),
                "{} lost its trace: {:?}",
                name,
                r.event
            );
        }
    }
    // The run must exercise the whole lifecycle, not vacuously pass.
    for required in [
        "job_submitted",
        "jm_launch_requested",
        "jm_started",
        "grant",
        "request_applied",
        "worker_launch_requested",
        "worker_started",
        "instance_assigned",
        "job_finished",
    ] {
        assert!(seen.contains(required), "run never emitted {required}");
    }

    // Each job's chain starts at its submit and ends at its finish, and
    // the by-trace filter returns exactly that chain.
    for &job in &jobs {
        let trace = fuxi::sim::TraceId::from_job(job);
        let chain: Vec<_> = c.world.tracer().by_trace(trace).collect();
        assert_eq!(chain.first().map(|r| r.event.name()), Some("job_submitted"));
        assert_eq!(chain.last().map(|r| r.event.name()), Some("job_finished"));
        assert!(chain.iter().all(|r| r.trace == trace));
    }
}

#[test]
fn reference_mode_emits_an_identical_event_stream() {
    // The indexed scheduler is a pure optimisation: with the same seed and
    // workload, the flat-scan reference engine must take the same
    // decisions, so the causal event streams (times, actors, traces,
    // payloads) must match record for record. Spans are excluded — their
    // wall-clock durations measure the host, not the schedule.
    let (indexed, _) = run_two_jobs(false);
    let (reference, _) = run_two_jobs(true);
    let a = &indexed.world.tracer().records;
    let b = &reference.world.tracer().records;
    assert_eq!(a.len(), b.len(), "stream lengths diverge");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x, y, "streams diverge at event {i}");
    }
}
