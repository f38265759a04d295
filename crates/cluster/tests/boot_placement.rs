//! The one boot path, held to what the three hand-written loops only
//! promised by convention: actors land where the topology says, and the
//! sim's spawn order — hence every actor id, RNG draw and timestamp — is
//! the historical one.

use fuxi_cluster::{Cluster, ClusterConfig, DeployTopology, SubmitOpts};
use fuxi_proto::JobId;
use fuxi_sim::{SimDuration, SimTime};
use fuxi_workloads::mapreduce::{wordcount_job, MapReduceParams};

fn config(standby: bool) -> ClusterConfig {
    ClusterConfig {
        n_machines: 20,
        rack_size: 5,
        seed: 7,
        standby_master: standby,
        ..ClusterConfig::default()
    }
}

#[test]
fn sim_cluster_lands_where_the_topology_says() {
    for standby in [false, true] {
        let deploy = DeployTopology::single_process(config(standby));
        let c = Cluster::new(config(standby));
        assert_eq!(c.lock, deploy.lock_id().id);
        let masters: Vec<_> = deploy.master_ids().iter().map(|p| p.id).collect();
        assert_eq!(c.masters, masters);
        assert_eq!(masters.len(), 1 + usize::from(standby));
        for (m, placed) in deploy.agent_ids() {
            assert_eq!(c.agents[m.0 as usize], placed.id, "agent of machine {}", m.0);
        }
        assert_eq!(c.agents.len(), 20);
        assert_eq!(c.client, deploy.client_id().id);
    }
}

/// Recorded from the parent commit (three separate boot paths) before the
/// refactor. A change in spawn order or RNG consumption moves every number
/// here; do not re-record to make this pass.
const PINNED_EVENTS: u64 = 7538;
const PINNED_FINISH_S: [f64; 30] = [
    29.240541, 29.703838, 30.356373, 29.841961, 30.380406, 30.644833, 29.148214, 28.976815,
    30.235407, 28.903255, 30.608166, 30.566426, 30.063297, 30.403476, 29.636531, 28.861225,
    30.498331, 30.054617, 29.068062, 29.193569, 30.065562, 30.168647, 29.979089, 28.970765,
    30.258473, 29.132057, 30.309215, 29.646928, 29.372458, 29.606506,
];

#[test]
fn sim_run_is_bit_identical_to_the_pre_refactor_boot() {
    let mut c = Cluster::new(config(true));
    for i in 0..30u32 {
        let desc = wordcount_job(&MapReduceParams {
            maps: 6 + i % 5,
            reduces: 1 + i % 3,
            map_duration_s: 8.0,
            reduce_duration_s: 5.0,
            jitter: 0.2,
            binary_mb: 20.0,
            ..Default::default()
        });
        c.submit(&desc, &SubmitOpts::default());
    }
    c.run_for(SimDuration::from_secs(10));
    c.kill_primary_master();
    assert_eq!(c.run_until_n_done(30, SimTime::from_secs(3600)), 30);

    assert_eq!(c.world.events_processed(), PINNED_EVENTS);
    // `all_jobs` is sorted by id; every job must have succeeded.
    let got: Vec<(JobId, bool, f64)> = c
        .all_jobs()
        .into_iter()
        .map(|(j, s)| {
            let (ok, t, _) = s.done.expect("terminal");
            (j, ok, t)
        })
        .collect();
    let want: Vec<(JobId, bool, f64)> = (1..=30u32)
        .map(|j| (JobId(j), true, PINNED_FINISH_S[j as usize - 1]))
        .collect();
    assert_eq!(got, want);
    assert_eq!(c.world.metrics().counter("fm.became_primary"), 2);
}
