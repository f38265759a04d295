//! Fault-tolerance integration tests: every §4.3 mechanism exercised
//! end-to-end — FuxiMaster hot-standby failover, JobMaster snapshot
//! recovery, FuxiAgent worker adoption, node death, launch failures and
//! straggler backups.

use fuxi::cluster::{Cluster, ClusterConfig, SubmitOpts};
use fuxi::sim::{Fault, SimDuration, SimTime};
use fuxi::workloads::mapreduce::{wordcount_job, MapReduceParams};

fn cluster(seed: u64, machines: usize, standby: bool) -> Cluster {
    Cluster::new(ClusterConfig {
        n_machines: machines,
        rack_size: 5,
        seed,
        standby_master: standby,
        ..ClusterConfig::default()
    })
}

fn job(maps: u32, reduces: u32, dur: f64) -> fuxi::job::JobDesc {
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

#[test]
fn master_failover_is_user_transparent() {
    let mut c = cluster(21, 10, true);
    let j = c.submit(&job(20, 4, 20.0), &SubmitOpts::default());
    // Let it get going, then kill the primary mid-flight.
    c.run_for(SimDuration::from_secs(15));
    assert!(c.job_done(j).is_none(), "job still running at kill time");
    c.kill_primary_master();
    let done = c.run_until_job_done(j, SimTime::from_secs(1200));
    let (ok, _) = done.expect("job survives master failover");
    assert!(ok);
    let m = c.world.metrics();
    assert_eq!(m.counter("fm.became_primary"), 2, "standby took over");
    assert_eq!(m.counter("fm.rebuild_done"), 1, "soft state was rebuilt");
    assert_eq!(m.counter("lock.lease_expired"), 1, "takeover via lease expiry");
    assert_eq!(c.duplicate_finishes(), 0, "the job completed exactly once");
}

#[test]
fn master_failover_preserves_running_workers() {
    let mut c = cluster(22, 10, true);
    // Long instances: if failover killed workers, the job would take far
    // longer than one instance duration.
    let j = c.submit(&job(16, 2, 60.0), &SubmitOpts::default());
    c.run_for(SimDuration::from_secs(30));
    c.kill_primary_master();
    let (ok, at) = c
        .run_until_job_done(j, SimTime::from_secs(2000))
        .expect("finishes");
    assert!(ok);
    // Two ~60s waves + startup + failover stall; generous bound that still
    // fails if running instances had been restarted from scratch repeatedly.
    assert!(at < 400.0, "failover must not restart the work: took {at}s");
    assert_eq!(c.world.metrics().counter("jm.recoveries"), 0, "JobMaster never died");
}

#[test]
fn jobmaster_failover_recovers_from_snapshot() {
    let mut c = cluster(23, 10, false);
    let j = c.submit(&job(20, 4, 30.0), &SubmitOpts::default());
    c.run_for(SimDuration::from_secs(25));
    let (_m, jm_actor) = c.find_jobmaster(j).expect("JobMaster is running somewhere");
    c.world.kill_actor(jm_actor);
    let (ok, _) = c
        .run_until_job_done(j, SimTime::from_secs(2000))
        .expect("job survives JobMaster crash");
    assert!(ok);
    let m = c.world.metrics();
    assert_eq!(m.counter("fm.jm_restarts"), 1, "FuxiMaster restarted the JobMaster");
    assert_eq!(m.counter("jm.recoveries"), 1, "snapshot recovery ran");
    assert!(m.counter("jm.recovery_done") >= 1);
}

/// A recovered JobMaster builds its instances the way a fresh one does:
/// 40 maps over one 1,600 MB chunk each compute for 16 s (size-driven,
/// `duration_s` 0) whether or not the JobMaster died in between. Recovery
/// can only add its window and a relaunch, never remove compute.
#[test]
fn jobmaster_failover_keeps_data_driven_compute_time() {
    let run = |kill: bool| {
        let mut c = cluster(23, 10, false);
        c.pangu.create("sort/in", 40.0 * 1600.0, 1600.0, 3, &c.topo);
        let desc = wordcount_job(&MapReduceParams {
            maps: 40,
            reduces: 2,
            map_duration_s: 0.0,
            reduce_duration_s: 0.0,
            jitter: 0.0,
            input_pattern: Some("pangu://sort/*".into()),
            data_driven: true,
            max_workers: 8,
            binary_mb: 50.0,
            ..Default::default()
        });
        let j = c.submit(&desc, &SubmitOpts::default());
        c.run_for(SimDuration::from_secs(25));
        assert!(c.job_done(j).is_none(), "job still running at 25 s");
        if kill {
            let (_m, jm_actor) = c.find_jobmaster(j).expect("JobMaster is running somewhere");
            c.world.kill_actor(jm_actor);
        }
        let (ok, at) = c
            .run_until_job_done(j, SimTime::from_secs(2000))
            .expect("job finishes");
        assert!(ok);
        (at, c.world.metrics().counter("jm.recoveries"))
    };
    let (untouched, recoveries) = run(false);
    assert_eq!(recoveries, 0);
    let (killed, recoveries) = run(true);
    assert_eq!(recoveries, 1, "snapshot recovery ran once");
    assert!(
        killed >= 0.9 * untouched,
        "recovery dropped compute: finished at {killed:.1} s against {untouched:.1} s left alone"
    );
}

#[test]
fn agent_failover_adopts_running_workers() {
    let mut c = cluster(24, 6, false);
    let j = c.submit(&job(12, 2, 40.0), &SubmitOpts::default());
    c.run_for(SimDuration::from_secs(25));
    // Kill every agent process whose machine hosts workers but NOT the
    // JobMaster (so only worker adoption is in play), then respawn.
    let jm_machine = c.find_jobmaster(j).map(|(m, _)| m);
    let candidates: Vec<_> = c
        .topo
        .machines()
        .filter(|&m| Some(m) != jm_machine && !c.workers_on(m).is_empty())
        .take(2)
        .collect();
    assert!(!candidates.is_empty(), "some machine hosts workers");
    for m in &candidates {
        c.kill_agent(*m);
    }
    c.run_for(SimDuration::from_secs(2));
    for m in &candidates {
        let before: Vec<_> = c.workers_on(*m);
        assert!(!before.is_empty(), "workers survive their agent's death");
        c.respawn_agent(*m);
    }
    let (ok, _) = c
        .run_until_job_done(j, SimTime::from_secs(2000))
        .expect("job survives agent failover");
    assert!(ok);
    assert!(
        c.world.metrics().counter("fa.adopted_workers") >= 1,
        "restarted agent adopted running processes"
    );
}

#[test]
fn node_down_revokes_and_reschedules() {
    let mut c = cluster(25, 10, false);
    let j = c.submit(&job(20, 4, 30.0), &SubmitOpts::default());
    c.run_for(SimDuration::from_secs(20));
    // Take down two worker-bearing machines (not the JobMaster's).
    let jm_machine = c.find_jobmaster(j).map(|(m, _)| m);
    let victims: Vec<_> = c
        .topo
        .machines()
        .filter(|&m| Some(m) != jm_machine && !c.workers_on(m).is_empty())
        .take(2)
        .collect();
    assert_eq!(victims.len(), 2);
    for m in &victims {
        c.world.kill_machine(m.0);
    }
    let (ok, _) = c
        .run_until_job_done(j, SimTime::from_secs(2000))
        .expect("job survives node death");
    assert!(ok);
    let m = c.world.metrics();
    assert!(m.counter("fm.machines_excluded") >= 2, "heartbeat timeouts detected");
}

#[test]
fn launch_failures_are_routed_around() {
    let mut c = cluster(26, 6, false);
    // One machine cannot launch processes at all (PartialWorkerFailure).
    c.world.set_launch_ok(2, false);
    let j = c.submit(&job(16, 2, 5.0), &SubmitOpts::default());
    let (ok, _) = c
        .run_until_job_done(j, SimTime::from_secs(1500))
        .expect("job completes despite a broken machine");
    assert!(ok);
    let m = c.world.metrics();
    // Either the job never landed there, or it failed and re-routed.
    if m.counter("fa.worker_launch_failed") > 0 {
        assert!(m.counter("jm.worker_start_failures") > 0);
    }
}

#[test]
fn slow_machine_triggers_backup_instances() {
    let mut c = cluster(27, 10, false);
    // A crawling machine makes any instance landing there a straggler.
    // Tiny binaries ensure its workers come up with the first wave (a slow
    // machine also downloads slowly, and container reuse would otherwise
    // route around it before anything lands there).
    c.world.set_machine_speed(3, 0.05);
    let desc = wordcount_job(&MapReduceParams {
        maps: 50,
        reduces: 1,
        map_duration_s: 10.0,
        reduce_duration_s: 10.0,
        jitter: 0.05,
        binary_mb: 1.0,
        ..Default::default()
    });
    let j = c.submit(&desc, &SubmitOpts::default());
    let (ok, at) = c
        .run_until_job_done(j, SimTime::from_secs(3000))
        .expect("job completes despite the slow machine");
    assert!(ok);
    let m = c.world.metrics();
    // A 10s instance at 5% speed runs 200s; the backup path must beat that
    // or at minimum have fired.
    assert!(
        m.counter("jm.backups_launched") >= 1,
        "backup instances fired (job took {at}s)"
    );
}

#[test]
fn fault_plan_injection_end_to_end() {
    use fuxi::cluster::{fault_plan, FaultRatios};
    let mut c = cluster(28, 20, false);
    let j = c.submit(&job(40, 8, 20.0), &SubmitOpts::default());
    c.run_for(SimDuration::from_secs(10));
    let exclude = c
        .find_jobmaster(j)
        .map(|(m, _)| std::iter::once(m.0).collect())
        .unwrap_or_default();
    let plan = fault_plan(
        20,
        FaultRatios::five_percent(),
        SimTime::from_secs(15),
        SimTime::from_secs(60),
        99,
        &exclude,
    );
    assert!(!plan.is_empty());
    plan.install(&mut c.world);
    let (ok, _) = c
        .run_until_job_done(j, SimTime::from_secs(3000))
        .expect("job completes under the Table 3 fault mix");
    assert!(ok);
}

#[test]
fn lossy_network_is_repaired_by_full_syncs() {
    let mut c = Cluster::new(ClusterConfig {
        n_machines: 8,
        rack_size: 4,
        seed: 29,
        drop_prob: 0.02,
        ..ClusterConfig::default()
    });
    let _j = c.submit(&job(12, 2, 5.0), &SubmitOpts::default());
    // Assert completion at the master (the one-shot JobFinished→client
    // notification itself has no retry and may legitimately be the dropped
    // message; the paper's guarantee is that *execution* completes).
    let finished = c.run_until_counter("fm.jobs_finished", 1, SimTime::from_secs(3000));
    assert_eq!(finished, 1, "job completes over a 2%-loss network");
}

#[test]
fn scripted_fuximaster_kill_via_fault_plan() {
    let mut c = cluster(30, 10, true);
    let j = c.submit(&job(16, 2, 25.0), &SubmitOpts::default());
    c.run_for(SimDuration::from_secs(5));
    let fm = c.current_master().expect("primary elected");
    fuxi::sim::failure::apply(&mut c.world, &Fault::KillActor(fm));
    let (ok, _) = c
        .run_until_job_done(j, SimTime::from_secs(2000))
        .expect("job survives scripted master kill");
    assert!(ok);
    assert_eq!(c.world.metrics().counter("fault.kill_actor"), 1);
}

/// Hard state is one record per live job: a standby that takes over finds
/// exactly the jobs that were live at the kill — not the six that had
/// already stopped — finishes each of them once, and leaves no record.
#[test]
fn standby_restores_exactly_the_live_jobs_from_their_records() {
    use fuxi::core::HardState;
    use fuxi::obs::TraceEvent;
    let mut c = cluster(31, 20, true);
    let opts = SubmitOpts::default();
    let short: Vec<_> = (0..6).map(|_| c.submit(&job(2, 1, 1.0), &opts)).collect();
    let long: Vec<_> = (0..30).map(|_| c.submit(&job(4, 1, 60.0), &opts)).collect();
    while short.iter().any(|&j| c.job_done(j).is_none()) {
        assert!(c.world.now() < SimTime::from_secs(600), "short jobs stalled");
        c.run_for(SimDuration::from_secs(1));
    }
    assert!(long.iter().all(|&j| c.job_done(j).is_none()), "30 jobs live at the kill");
    let recorded: Vec<_> = HardState::load(&c.store).jobs.iter().map(|r| r.job).collect();
    assert_eq!(recorded, long, "one record per live job, none for a stopped one");

    c.kill_primary_master();
    let done = c.run_until_n_done(36, SimTime::from_secs(6000));
    assert_eq!(done, 36, "every restored job finishes");
    assert!(c.all_jobs().iter().all(|(_, s)| s.done.as_ref().is_some_and(|d| d.0)));
    assert_eq!(c.duplicate_finishes(), 0, "... exactly once");
    let restored: Vec<u32> = (c.world.tracer().records.iter())
        .filter_map(|r| match r.event {
            TraceEvent::RebuildStarted { jobs } => Some(jobs),
            _ => None,
        })
        .collect();
    assert_eq!(restored, vec![30], "the standby rebuilt from the 30 live records");
    let m = c.world.metrics();
    assert_eq!(m.counter("fm.jobs_submitted"), 36, "no restored job was taken for a new one");
    assert_eq!(m.counter("fm.jobs_finished"), 36);
    assert_eq!(HardState::job_keys(&c.store), Vec::<String>::new(), "quiescent: no job record left");
}

/// The benchmark's paced job: 3–5 maps + 1 reduce, 40–60 ms tasks, 1 MB
/// packages.
fn paced_job(rng: &mut rand::rngs::SmallRng) -> fuxi::job::JobDesc {
    use rand::Rng;
    let d = rng.gen_range(0.04..0.06);
    wordcount_job(&MapReduceParams {
        maps: rng.gen_range(3..6),
        reduces: 1,
        map_duration_s: d,
        reduce_duration_s: d,
        jitter: 0.2,
        max_workers: 4,
        binary_mb: 1.0,
        map_output_mb: 0.2,
        ..Default::default()
    })
}

/// The post-failover wedge. Under a closed loop of 32 paced jobs on 32
/// machines the primary dies at 25 s; the standby rebuilds from the
/// agents' allocation reports. Rows of apps with no job record — jobs
/// that finished long ago — must not be adopted as live grants: they hold
/// capacity nothing ever frees, and enough of them wedge the cluster (when
/// they were adopted: 3,559 jobs finished before the kill and none after,
/// with 16,697,000 milli-cores planned at quiescence on a 384,000 cluster).
/// Agents no longer keep such rows, so one is planted: a row of an app
/// that never had a job, as a lost notification would leave it. Every job
/// finishes exactly once and a quiescent cluster plans nothing.
#[test]
fn failover_under_load_adopts_only_live_apps() {
    use fuxi::proto::{AppId, CapacityChange, Msg, ResourceVec, UnitId};
    use rand::SeedableRng;
    const IN_FLIGHT: usize = 32;
    let mut cfg = ClusterConfig {
        n_machines: 32,
        rack_size: 8,
        seed: 1,
        standby_master: true,
        ..ClusterConfig::default()
    };
    cfg.master.lease_ttl = SimDuration::from_secs(2);
    cfg.master.keepalive_interval = SimDuration::from_millis(500);
    cfg.master.rebuild_window = SimDuration::from_secs(3);
    let mut c = Cluster::new(cfg);
    let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
    let opts = SubmitOpts { master_package_mb: 1.0, ..SubmitOpts::default() };
    let mut submitted = 0;
    // Closed loop: top up to 32 in flight, run until one finishes.
    let mut closed_loop = |c: &mut Cluster, until: SimTime| {
        while c.world.now() < until {
            while submitted - c.finished_count() < IN_FLIGHT {
                c.submit(&paced_job(&mut rng), &opts);
                submitted += 1;
            }
            let step = (c.world.now() + SimDuration::from_millis(500)).min(until);
            c.run_until_n_done(submitted + 1 - IN_FLIGHT, step);
        }
        submitted
    };
    closed_loop(&mut c, SimTime::from_secs(25));
    let before_kill = c.finished_count();
    let stale = CapacityChange {
        app: AppId(1_000_000),
        unit: UnitId(0),
        unit_resource: ResourceVec::cores_mb(1, 2048),
        delta: 4,
    };
    c.world.send_external(c.agents[0], Msg::CapacityNotify { changes: vec![stale] });
    c.kill_primary_master();
    let submitted = closed_loop(&mut c, SimTime::from_secs(40));
    let done = c.run_until_n_done(submitted, SimTime::from_secs(100));
    assert_eq!(done, submitted, "{before_kill} jobs finished before the kill, {} after", done - before_kill);
    assert!(c.all_jobs().iter().all(|(_, s)| s.done.as_ref().is_some_and(|d| d.0)));
    assert_eq!(c.duplicate_finishes(), 0);
    // Quiescent: one more roll-up samples the books.
    c.run_for(SimDuration::from_secs(6));
    let m = c.world.metrics();
    assert_eq!(m.counter("fm.rebuild_done"), 1);
    let planned = m.series("fm.planned_cpu_milli").last().map(|&(_, v)| v);
    assert_eq!(planned, Some(0.0), "capacity planned with no job left");
}

/// A lost `JobAccepted` must not turn into a second run of the job: the
/// client resubmits until it hears an ack or the result, and the master
/// acks a resubmission of a live job instead of ignoring it (ignored, the
/// retries outlive the job and the first one after it is a "new" job).
///
/// Whether every job *finishes* at 5 % loss is another matter: the run
/// also takes the census of jobs the master accepted and never saw finish,
/// by the last event on the job's trace (`-- --nocapture` prints it). A
/// lost `StartAppMaster` (or its reply) is retried, so no job may be left
/// at `jm_launch_requested`; an `AssignInstance` lost to a worker that was
/// assigned before still has no retry, and those stalls are not asserted.
#[test]
fn lost_acks_never_run_a_job_twice() {
    use fuxi::obs::{TraceEvent, TraceId};
    use std::collections::BTreeMap;
    const JOBS: u64 = 6;
    // Last trace event of an unfinished job -> the (seed, job) it wedged.
    let mut census: BTreeMap<&'static str, Vec<(u64, u32)>> = BTreeMap::new();
    for seed in 0..40 {
        let mut c = Cluster::new(ClusterConfig {
            n_machines: 8,
            rack_size: 4,
            seed,
            drop_prob: 0.05,
            ..ClusterConfig::default()
        });
        for _ in 0..JOBS {
            c.submit(&job(2, 1, 2.0), &SubmitOpts::default());
        }
        c.run_until_counter("fm.jobs_finished", JOBS, SimTime::from_secs(3000));
        // Long enough for a client still retrying to be heard again.
        c.run_for(SimDuration::from_secs(60));
        // (The harness's own hand-off to the client crosses the lossy
        // network too: a job the client never heard of is not retried.)
        let reached_client = c.all_jobs().len() as u64;
        let submitted = c.world.metrics().counter("fm.jobs_submitted");
        assert_eq!(submitted, reached_client, "seed {seed}: a resubmission was taken for a new job");
        assert_eq!(c.duplicate_finishes(), 0, "seed {seed}");
        let tracer = c.world.tracer();
        for (j, _) in c.all_jobs() {
            let events = || tracer.by_trace(TraceId::from_job(j.0)).map(|r| r.event);
            if !events().any(|e| matches!(e, TraceEvent::JobFinished { .. })) {
                let last = events().last().expect("accepted jobs are traced");
                census.entry(last.name()).or_default().push((seed, j.0));
            }
        }
    }
    eprintln!("5 %-loss census, 40 seeds to 3,000 s, unfinished (seed, job) by last trace event: {census:?}");
    assert!(
        !census.contains_key("jm_launch_requested"),
        "a lost StartAppMaster wedged a job: {census:?}"
    );
}

/// The sim repeats once a machine with flows in flight dies: sixteen
/// reducers are two seconds into pulling their shuffle input from every
/// map machine when one of those dies, and the failed flows' notifications
/// go out in start order, not in a hash map's.
#[test]
fn node_down_with_flows_in_flight_repeats() {
    let run = || {
        let mut c = cluster(32, 10, false);
        c.pangu.create("sort/in", 40.0 * 400.0, 400.0, 3, &c.topo);
        let desc = wordcount_job(&MapReduceParams {
            maps: 40,
            reduces: 16,
            map_duration_s: 0.0,
            reduce_duration_s: 0.0,
            jitter: 0.0,
            input_pattern: Some("pangu://sort/*".into()),
            data_driven: true,
            max_workers: 20,
            binary_mb: 50.0,
            map_output_mb: 400.0,
            ..Default::default()
        });
        let j = c.submit(&desc, &SubmitOpts::default());
        assert_eq!(c.run_until_counter("jm.tasks_started", 2, SimTime::from_secs(600)), 2);
        c.run_for(SimDuration::from_secs(2));
        let jm_machine = c.find_jobmaster(j).map(|(m, _)| m);
        let victim = c.topo.machines().find(|&m| Some(m) != jm_machine).expect("ten machines");
        c.world.kill_machine(victim.0);
        let (ok, at) = c.run_until_job_done(j, SimTime::from_secs(3000)).expect("job survives");
        assert!(ok);
        (c.world.events_processed(), at)
    };
    assert_eq!(run(), run());
}
