//! A null job at light load is a count of timer-wheel edges.
//!
//! On the 10 ms wheel a job whose every step is control-plane work waits
//! only for the edges of the timers on its path. The master's batch flush
//! is a zero-delay timer, which fires behind the master's backlog without
//! touching the wheel, so what is left are the 1 ms instance timers: two
//! edges, ~20 ms (the map's and the reduce's; three for a 3-map job, whose
//! third map waits for one of its two workers). When the flush also waited
//! for an edge, the same jobs took four and five (median ~40 ms).

use fuxi_cluster::{ClusterConfig, SubmitOpts};
use fuxi_rt::LiveCluster;
use fuxi_workloads::mapreduce::null_job;
use std::time::Duration;

/// The live runtime's default wheel tick.
const EDGE_MS: f64 = 10.0;

#[test]
fn a_light_load_null_job_waits_for_at_most_three_wheel_edges() {
    const WARMUP: usize = 4;
    const JOBS: usize = 20;
    let opts = SubmitOpts { master_package_mb: 0.0, ..SubmitOpts::default() };
    let mut c = LiveCluster::new(ClusterConfig {
        n_machines: 32,
        rack_size: 8,
        seed: 2014,
        ..ClusterConfig::default()
    });
    // One at a time, so no job queues behind another: 1-3 maps and a
    // reduce, no duration, no package (the benchmark's `live_null` jobs).
    let mut latency_ms = Vec::new();
    for i in 0..WARMUP + JOBS {
        let job = c.submit(&null_job(1 + i as u32 % 3), &opts);
        assert_eq!(c.wait_n_done(i + 1, Duration::from_secs(10)), i + 1, "job {i} stalled");
        let state = c.job_state(job).expect("submitted");
        let (ok, finished_s, _) = state.done.expect("terminal");
        assert!(ok, "job {i} failed");
        if i >= WARMUP {
            latency_ms.push((finished_s - state.submitted_s) * 1e3);
        }
    }
    c.shutdown();
    latency_ms.sort_by(f64::total_cmp);
    let median = latency_ms[JOBS / 2];
    println!("median {median:.1} ms of {latency_ms:.1?}");
    assert!(
        median <= 3.0 * EDGE_MS,
        "median null job {median:.1} ms, over three {EDGE_MS} ms edges: {latency_ms:.1?}"
    );
}
