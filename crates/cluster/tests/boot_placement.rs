//! The one boot path, held to what the three hand-written loops only
//! promised by convention: actors land where the topology says, and the
//! sim's spawn order — hence every actor id, RNG draw and timestamp — is
//! the recorded one.

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

/// A change in spawn order, RNG consumption or any timer moves every number
/// here; do not re-record to make this pass. Re-record only when a change is
/// *meant* to move simulated time, once, after it is final, with the reason
/// here and in CHANGES.md.
///
/// Recorded four times so far:
/// * PR 8, from the commit before the three boot paths became one: 7,538
///   events, last finish 30.644833 s.
/// * Issue 16 (event-driven cold start). This run submits its 30 jobs at
///   t = 0, before the election, so it is exactly the case that change
///   exists for: the client and the agents now look for the master again
///   10 ms after finding none instead of on their 2 s retry / heartbeat, and
///   the master launches the waiting JobMasters when agents bring capacity
///   instead of on the 5 s roll-up. The 30 JobMaster launches move from
///   t = 2.0–5.0 s (parent: first agent heartbeat, then the roll-up) to
///   t = 10.1–10.6 ms, and every later timestamp with them. 7,517 events
///   (4,428 messages sent against 4,448), last finish 30.377138 s (0.27 s
///   earlier — the run is dominated by the master kill at t = 10 s, the
///   lease and the 8 s rebuild window, which did not move: second election
///   at 16.25 s, rebuild done at 24.25 s, as before), still exactly two
///   elections.
/// * Issue 19 (one row per launched process). `Msg::WorkerStarted` is gone:
///   a started worker's own `WorkerRegister` is its one announcement, so
///   every worker start sends one message and draws one latency fewer, and
///   every later draw — hence every timestamp — shifts. 7,192 events
///   (4,104 messages sent against 4,428; the run starts 300 workers), last
///   finish 30.352253 s (30.377138 s before), still exactly two elections.
/// * No batch tick; returns reach the agent. Request deltas no
///   longer wait for a periodic 100 ms `TIMER_BATCH`: the first one arms a
///   zero-delay flush, so grants go out in the instant their request
///   arrives and the ten batch timers a second are gone; and every
///   container a JobMaster gives back now sends its agent a
///   `CapacityNotify`. 7,212 events (4,322 messages sent against 4,104),
///   last finish 30.478743 s (30.352253 s before — the run is bounded by
///   the master kill at t = 10 s and the 8 s rebuild window, and the new
///   draws reshuffle which jobs land behind it), still exactly two
///   elections.
const PINNED_EVENTS: u64 = 7212;
const PINNED_FINISH_S: [f64; 30] = [
    29.39789, 29.364916, 30.407393, 28.648973, 29.596192, 30.314057, 29.31745, 29.847264,
    29.079809, 29.171262, 30.095019, 30.066088, 28.736505, 29.511032, 29.848222, 29.05913,
    28.634345, 30.17913, 29.999803, 30.478743, 29.633486, 29.442289, 29.33844, 29.497461,
    28.721696, 30.082766, 29.080356, 29.759524, 29.940271, 30.063279,
];

#[test]
fn sim_run_is_bit_identical_to_the_recorded_one() {
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
