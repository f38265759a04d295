//! A live runtime's thread count does not grow with the cluster: every
//! actor — 2,000 agents here, the masters, the JobMasters and their
//! workers — is a task on the runtime's fixed pool. With one OS thread per
//! actor this cluster held more than 2,000 threads.
//!
//! One test in this file on purpose: it reads the process-wide `Threads:`
//! from `/proc/self/status`, which a neighbouring test would move.

use fuxi_cluster::{ClusterConfig, SubmitOpts};
use fuxi_rt::LiveCluster;
use fuxi_workloads::mapreduce::null_job;
use std::time::{Duration, Instant};

fn threads_now() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status
        .lines()
        .find(|l| l.starts_with("Threads:"))
        .expect("Threads: in /proc/self/status");
    line.split_whitespace()
        .nth(1)
        .expect("value")
        .parse()
        .expect("number")
}

#[test]
fn a_two_thousand_machine_cluster_runs_on_the_pool_threads() {
    const JOBS: usize = 50;
    let mut c = LiveCluster::new(ClusterConfig {
        n_machines: 2_000,
        rack_size: 50,
        ..ClusterConfig::default()
    });
    let pool = c.rt.pool_threads();
    let opts = SubmitOpts {
        master_package_mb: 0.0,
        ..SubmitOpts::default()
    };
    let mut peak = threads_now();
    for i in 0..JOBS {
        c.submit(&null_job(1 + i as u32 % 3), &opts);
        peak = peak.max(threads_now());
    }
    let start = Instant::now();
    while c.finished_count() < JOBS && start.elapsed() < Duration::from_secs(60) {
        peak = peak.max(threads_now());
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(c.finished_count(), JOBS, "jobs stalled");
    assert!(
        c.all_jobs()
            .iter()
            .all(|(_, s)| s.done.as_ref().is_some_and(|d| d.0)),
        "a job failed"
    );
    c.shutdown();
    // The harness's main thread, this test's, the clock: pool + 3.
    assert!(
        peak <= pool + 8,
        "{peak} threads at peak on a pool of {pool}"
    );
}
