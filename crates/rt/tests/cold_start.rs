//! A cluster that has only just been constructed takes work at once.
//!
//! Spawning an actor used to cost 640 µs (a pre-allocated mailbox), so by
//! the time `LiveCluster::new` returned the master had long been elected
//! and every agent had said hello. With a 30 µs spawn the submissions below
//! beat the election, and what they then waited for were periods: the
//! client's 2 s retry, the agents' 2 s heartbeat, the master's 5 s roll-up —
//! 2.8 to 5.7 s on most boots.

use fuxi_cluster::{ClusterConfig, SubmitOpts};
use fuxi_rt::LiveCluster;
use fuxi_workloads::mapreduce::null_job;
use std::time::{Duration, Instant};

#[test]
fn jobs_submitted_right_after_boot_finish_within_a_second_and_a_half() {
    const JOBS: usize = 16;
    let opts = SubmitOpts {
        master_package_mb: 0.0,
        ..SubmitOpts::default()
    };
    for boot in 0..10u64 {
        let start = Instant::now();
        let mut c = LiveCluster::new(ClusterConfig {
            n_machines: 32,
            rack_size: 8,
            seed: 2014 + boot,
            ..ClusterConfig::default()
        });
        for i in 0..JOBS {
            c.submit(&null_job(1 + i as u32 % 3), &opts);
        }
        let done = c.wait_n_done(JOBS, Duration::from_secs(20));
        let took = start.elapsed();
        assert_eq!(done, JOBS, "boot {boot}: jobs stalled");
        assert!(
            took < Duration::from_millis(1500),
            "boot {boot}: {JOBS} null jobs took {took:?}"
        );
        assert!(c
            .all_jobs()
            .iter()
            .all(|(_, s)| s.done.as_ref().is_some_and(|d| d.0)));
        c.shutdown();
    }
}
