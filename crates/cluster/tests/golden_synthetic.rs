//! A smoke-size run of the §5.2 synthetic mix, pinned to the event. The
//! sim is deterministic, so a change that is meant only to make the stack
//! cheaper (an index, a cache, an allocation saved) must leave every number
//! here as it is: the events processed, the jobs submitted and finished and
//! every finished job's simulated latency.
//!
//! The constants were recorded from the sim before the JobMaster kept its
//! idle and per-machine worker indexes and the flow model indexed flows by
//! owner. Do not re-record them to make a speed-up pass: a difference means
//! the change moved the simulation (an iteration order, an RNG draw, a
//! timer), and the speed-up is not one. Re-record only for a change that is
//! meant to move simulated time, with the reason here.

use fuxi_cluster::{Cluster, ClusterConfig, SubmitOpts};
use fuxi_proto::topology::MachineSpec;
use fuxi_proto::{JobId, ResourceVec};
use fuxi_sim::SimDuration;
use fuxi_workloads::synthetic::SyntheticMix;

const MACHINES: usize = 100;
const IN_FLIGHT: usize = 20;
/// Simulated seconds of closed-loop load after the 10 s boot.
const LOAD_S: u64 = 40;

/// `(events processed, jobs submitted, jobs finished)` at the end.
const COUNTS: (u64, usize, usize) = (38_049, 33, 13);
/// Latencies of the jobs that finished, µs of simulated time, ascending.
const LATENCIES_US: &[u64] = &[
    9_976_981, 22_851_436, 25_523_727, 26_263_841, 27_015_193, 28_225_849, 29_399_861,
    30_041_439, 30_410_225, 30_442_176, 31_211_338, 33_467_080, 39_554_177,
];

#[test]
fn synthetic_mix_run_repeats_to_the_event() {
    let mut c = Cluster::new(ClusterConfig {
        n_machines: MACHINES,
        rack_size: 50,
        machine_spec: MachineSpec {
            resources: ResourceVec::cores_mb(4, 16 * 1024),
            ..MachineSpec::default()
        },
        seed: 2014,
        ..ClusterConfig::default()
    });
    c.run_for(SimDuration::from_secs(10));
    let mut mix = SyntheticMix::new(1, 0.05);
    mix.duration_range = (1.0, 10.0);
    let until = c.world.now() + SimDuration::from_secs(LOAD_S);
    let mut live: Vec<JobId> = Vec::new();
    // Keep IN_FLIGHT jobs running: a finished job is replaced at once.
    while c.world.now() < until {
        live.retain(|&j| c.job_done(j).is_none());
        while live.len() < IN_FLIGHT {
            live.push(c.submit(&mix.next_job().desc, &SubmitOpts::default()));
        }
        let target = c.finished_count() + 1;
        c.run_until_n_done(target, until);
    }
    c.run_until(until);

    let all = c.all_jobs();
    let mut latencies: Vec<u64> = (all.iter())
        .filter_map(|(_, st)| match st.done {
            Some((true, at, _)) => Some(((at - st.submitted_s) * 1e6).round() as u64),
            _ => None,
        })
        .collect();
    latencies.sort_unstable();
    let counts = (c.world.events_processed(), all.len(), c.finished_count());
    assert_eq!(counts, COUNTS, "events, submitted, finished");
    assert_eq!(latencies, LATENCIES_US, "finished jobs' latencies, µs");
}
