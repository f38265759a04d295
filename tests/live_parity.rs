//! Sim↔live parity: the same scenario — same config, same jobs, same
//! injected node death — run once under the deterministic kernel and once
//! under the live multi-threaded runtime (`fuxi-rt`) must converge to the
//! same terminal job outcomes. Timing differs by construction (virtual vs
//! wall clock), so the comparison is the order-insensitive set of
//! `(JobId, success)` pairs, not timestamps.

use fuxi::apsara::StoreHandle;
use fuxi::cluster::{Cluster, ClusterConfig, DeployTopology, SubmitOpts};
use fuxi::core::HardState;
use fuxi::job::JobDesc;
use fuxi::proto::{JobId, MachineId};
use fuxi::rt::LiveCluster;
use fuxi::sim::SimTime;
use fuxi::workloads::mapreduce::{wordcount_job, MapReduceParams};
use std::collections::BTreeSet;
use std::time::Duration;

const N_MACHINES: usize = 20;
const N_JOBS: usize = 50;
const SEED: u64 = 77;
/// Jobs finished before the node death is injected.
const DEATHS_AFTER_DONE: usize = 10;
/// The machine that dies; any worker/JobMaster placed there must be
/// rescheduled elsewhere for its job to finish.
const VICTIM: MachineId = MachineId(7);

fn scenario_config() -> ClusterConfig {
    ClusterConfig {
        n_machines: N_MACHINES,
        rack_size: 5,
        seed: SEED,
        ..ClusterConfig::default()
    }
}

fn scenario_job(i: usize) -> JobDesc {
    wordcount_job(&MapReduceParams {
        maps: 4,
        reduces: 1,
        map_duration_s: 0.05,
        reduce_duration_s: 0.05,
        jitter: 0.1,
        max_workers: 2,
        binary_mb: 2.0,
        map_output_mb: 0.5,
        output_file: Some(format!("pangu://parity/out-{i}")),
        ..Default::default()
    })
}

type Outcomes = BTreeSet<(JobId, bool)>;

fn outcomes(jobs: &[(JobId, fuxi::cluster::JobState)]) -> Outcomes {
    jobs.iter()
        .filter_map(|(j, s)| s.done.as_ref().map(|&(ok, _, _)| (*j, ok)))
        .collect()
}

/// Quiescence: a job's hard-state record goes when the job stops and its
/// JobMaster's snapshot when the JobMaster does, so a cluster whose jobs
/// have all finished holds neither — on either engine.
fn assert_quiescent(store: &StoreHandle, engine: &str) {
    assert_eq!(HardState::job_keys(store), Vec::<String>::new(), "{engine}: job records left");
    assert_eq!(store.keys_with_prefix("jobsnap/"), Vec::<String>::new(), "{engine}: snapshots left");
}

fn run_sim() -> Outcomes {
    let mut c = Cluster::new(scenario_config());
    for i in 0..N_JOBS {
        c.submit(&scenario_job(i), &SubmitOpts::default());
    }
    // Let the pipeline warm up, then take a machine down mid-flight.
    let done = c.run_until_n_done(DEATHS_AFTER_DONE, SimTime::from_secs(3600));
    assert!(done >= DEATHS_AFTER_DONE, "sim warm-up stalled at {done}");
    c.world.kill_machine(VICTIM.0);
    let done = c.run_until_n_done(N_JOBS, SimTime::from_secs(7200));
    assert_eq!(done, N_JOBS, "sim run left jobs unfinished");
    assert_eq!(c.duplicate_finishes(), 0, "sim: a job completed twice");
    assert_quiescent(&c.store, "sim");
    outcomes(&c.all_jobs())
}

fn run_live() -> Outcomes {
    let mut c = LiveCluster::new(scenario_config());
    for i in 0..N_JOBS {
        c.submit(&scenario_job(i), &SubmitOpts::default());
    }
    let done = c.wait_n_done(DEATHS_AFTER_DONE, Duration::from_secs(60));
    assert!(done >= DEATHS_AFTER_DONE, "live warm-up stalled at {done}");
    c.kill_machine(VICTIM);
    let done = c.wait_n_done(N_JOBS, Duration::from_secs(120));
    let (jobs, duplicates, store) = (c.all_jobs(), c.duplicate_finishes(), c.store.clone());
    c.shutdown();
    assert_eq!(done, N_JOBS, "live run left jobs unfinished");
    assert_eq!(duplicates, 0, "live: a job completed twice");
    assert_quiescent(&store, "live");
    outcomes(&jobs)
}

/// The live half of `crates/cluster/tests/boot_placement.rs`: both engines
/// boot through `fuxi_cluster::boot`, so a `LiveCluster` must also report
/// the ids the topology computes — with and without a standby master.
#[test]
fn live_cluster_lands_actors_where_the_topology_says() {
    for standby in [false, true] {
        let cfg = ClusterConfig {
            n_machines: 6,
            rack_size: 4,
            standby_master: standby,
            ..ClusterConfig::default()
        };
        let deploy = DeployTopology::single_process(cfg.clone());
        let masters: Vec<_> = deploy.master_ids().iter().map(|p| p.id).collect();
        let agents: Vec<_> = deploy.agent_ids().iter().map(|(_, p)| p.id).collect();
        let live = LiveCluster::new(cfg);
        let got = (live.lock, live.masters.clone(), live.agents.clone(), live.client);
        live.shutdown();
        assert_eq!(got, (deploy.lock_id().id, masters, agents, deploy.client_id().id));
    }
}

#[test]
fn live_and_sim_reach_identical_job_outcomes() {
    let sim = run_sim();
    let live = run_live();
    assert_eq!(sim.len(), N_JOBS);
    assert_eq!(
        sim, live,
        "sim and live terminal outcomes diverged:\n sim: {sim:?}\nlive: {live:?}"
    );
}
