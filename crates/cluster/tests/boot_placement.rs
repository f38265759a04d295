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
/// Recorded five times so far:
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
/// * The rebuild ends when soft state is whole. The new primary asks every
///   agent to report at once and every JobMaster they name to re-sync, and
///   resumes scheduling when all have answered; the 8 s window is now only
///   the cap. The second election is still at 16.250132 s, but the rebuild
///   ends 1.1 ms later (16.251266 s, not capped) instead of at 24.25 s. So
///   the 30 jobs resume about 8 s earlier: 6,535 events (4,080 messages
///   sent against 4,322), last finish 22.634867 s (30.478743 s before),
///   still exactly two elections.
const PINNED_EVENTS: u64 = 6535;
const PINNED_FINISH_S: [f64; 30] = [
    21.39908, 21.445702, 22.487987, 20.650534, 21.596975, 22.634867, 21.238431, 21.848675,
    21.080747, 21.172935, 22.169631, 22.06694, 20.737735, 21.91248, 21.770358, 21.060042,
    20.556559, 22.180149, 22.000744, 22.399497, 21.634375, 21.364207, 21.563245, 21.498599,
    20.723329, 22.402184, 21.011085, 21.840159, 22.083588, 22.064762,
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
