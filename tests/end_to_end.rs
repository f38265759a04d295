//! End-to-end integration: jobs run through the full stack — client →
//! FuxiMaster → FuxiAgent → JobMaster → TaskWorkers — on the simulated
//! cluster.

use fuxi::cluster::{Cluster, ClusterConfig, SubmitOpts};
use fuxi::proto::Priority;
use fuxi::sim::SimTime;
use fuxi::workloads::mapreduce::{wordcount_job, MapReduceParams};

fn small_cluster(seed: u64) -> Cluster {
    Cluster::new(ClusterConfig {
        n_machines: 10,
        rack_size: 5,
        seed,
        ..ClusterConfig::default()
    })
}

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

#[test]
fn single_job_runs_to_completion() {
    let mut c = small_cluster(11);
    let job = c.submit(&small_job(8, 2, 5.0), &SubmitOpts::default());
    let done = c.run_until_job_done(job, SimTime::from_secs(600));
    let (ok, at) = done.expect("job must finish within 600 simulated seconds");
    assert!(ok, "job must succeed");
    assert!(at > 5.0, "two 5s stages plus overheads take real time: {at}");
    // All containers are returned: nothing remains planned.
    let m = c.world.metrics();
    assert!(m.counter("fm.jobs_finished") == 1);
    assert!(m.counter("jm.instances_finished") >= 10);
}

#[test]
fn multiple_concurrent_jobs_all_finish() {
    let mut c = small_cluster(12);
    let jobs: Vec<_> = (0..5)
        .map(|i| c.submit(&small_job(6 + i, 2, 4.0), &SubmitOpts::default()))
        .collect();
    let n = c.run_until_n_done(jobs.len(), SimTime::from_secs(900));
    assert_eq!(n, jobs.len(), "all 5 jobs finish");
    for j in jobs {
        assert_eq!(c.job_done(j).map(|(ok, _)| ok), Some(true));
    }
}

#[test]
fn diamond_dag_executes_in_waves() {
    use fuxi::job::desc::{Endpoint, JobDesc, PipeDesc, TaskDesc};
    use std::collections::BTreeMap;
    let mut tasks = BTreeMap::new();
    for (name, n) in [("T1", 4u32), ("T2", 2), ("T3", 2), ("T4", 2)] {
        let mut t = TaskDesc::synthetic(n, 3.0);
        t.output_mb_per_instance = 1.0;
        t.binary_mb = 50.0;
        tasks.insert(name.to_owned(), t);
    }
    let ap = |s: &str| Endpoint {
        access_point: Some(s.into()),
        file_pattern: None,
    };
    let desc = JobDesc {
        tasks,
        pipes: vec![
            PipeDesc { source: ap("T1:a"), destination: ap("T2:a") },
            PipeDesc { source: ap("T1:b"), destination: ap("T3:a") },
            PipeDesc { source: ap("T2:b"), destination: ap("T4:a") },
            PipeDesc { source: ap("T3:b"), destination: ap("T4:b") },
        ],
    };
    let mut c = small_cluster(13);
    let job = c.submit(&desc, &SubmitOpts::default());
    let (ok, _) = c
        .run_until_job_done(job, SimTime::from_secs(900))
        .expect("diamond finishes");
    assert!(ok);
    assert_eq!(c.world.metrics().counter("jm.tasks_finished"), 4);
}

#[test]
fn data_driven_job_reads_from_pangu() {
    let mut c = small_cluster(14);
    // 1 GB input in 64 MB chunks, replicated 3×.
    c.pangu.create("logs/day1", 1024.0, 64.0, 3, &c.topo);
    let desc = wordcount_job(&MapReduceParams {
        maps: 8,
        reduces: 2,
        map_duration_s: 1.0,
        reduce_duration_s: 1.0,
        jitter: 0.0,
        map_output_mb: 16.0,
        input_pattern: Some("pangu://logs/*".into()),
        output_file: Some("pangu://wc-out".into()),
        data_driven: true,
        binary_mb: 50.0,
        ..Default::default()
    });
    let job = c.submit(&desc, &SubmitOpts::default());
    let (ok, _) = c
        .run_until_job_done(job, SimTime::from_secs(1200))
        .expect("data-driven job finishes");
    assert!(ok);
    // The declared output now exists in the DFS.
    assert!(c.pangu.file("wc-out").is_some());
    assert!(c.world.metrics().counter("flow.started") > 0, "real flows moved data");
}

#[test]
fn priority_job_queues_ahead_under_contention() {
    // Saturate a tiny cluster with a low-priority job, then submit a
    // high-priority one: it must finish even though the cluster was full.
    let mut c = small_cluster(15);
    let big = small_job(200, 1, 30.0);
    let _bg = c.submit(
        &big,
        &SubmitOpts {
            priority: Priority(5000),
            ..Default::default()
        },
    );
    c.run_for(fuxi::sim::SimDuration::from_secs(30));
    let hi = c.submit(
        &small_job(10, 2, 3.0),
        &SubmitOpts {
            priority: Priority(10),
            ..Default::default()
        },
    );
    let done = c.run_until_job_done(hi, SimTime::from_secs(900));
    assert_eq!(done.map(|(ok, _)| ok), Some(true), "high priority job completes");
}

/// Cold start is driven by events, not by whichever period fires next: the
/// jobs are submitted at t = 0, before the master is elected and before any
/// agent has said hello. (With the periodic paths alone the agents were
/// known after their first 2 s heartbeat, and the JobMaster launches that
/// had found no capacity went out on the 5 s roll-up.)
#[test]
fn jobs_submitted_before_the_cluster_formed_start_within_a_second() {
    use fuxi::sim::TraceEvent;
    let mut c = Cluster::new(ClusterConfig {
        n_machines: 20,
        rack_size: 5,
        seed: 16,
        ..ClusterConfig::default()
    });
    let jobs: Vec<_> = (0..12).map(|_| c.submit(&small_job(4, 1, 2.0), &SubmitOpts::default())).collect();
    assert_eq!(c.world.events_processed(), 0, "nothing has run yet");

    let joined = c.run_until_counter("fm.agents_joined", 20, SimTime::from_secs(1));
    assert_eq!(joined, 20, "agents known to the master one second in");
    let all_joined_s = c.world.now().as_secs_f64();
    c.run_until(SimTime::from_secs(1));

    let records = &c.world.tracer().records;
    let elected_s = records
        .iter()
        .find(|r| matches!(r.event, TraceEvent::MasterElected { .. }))
        .expect("a master was elected")
        .t_s;
    assert!(
        all_joined_s - elected_s <= 0.1,
        "last agent joined {all_joined_s} s, master elected {elected_s} s"
    );
    let launches = records.iter().filter(|r| matches!(r.event, TraceEvent::JmLaunchRequested { .. }));
    assert_eq!(launches.count(), jobs.len(), "a JobMaster launch per job before t = 1 s");
    assert_eq!(c.run_until_n_done(jobs.len(), SimTime::from_secs(600)), jobs.len());
}
