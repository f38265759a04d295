//! Scheduler-behaviour integration tests: utilization under saturation,
//! quota preemption across tenants, the container-reuse ablation, and the
//! incremental protocol's message economy.

use fuxi::cluster::{Cluster, ClusterConfig, SubmitOpts};
use fuxi::core::master::MasterConfig;
use fuxi::core::quota::QuotaGroup;
use fuxi::job::JobMasterConfig;
use fuxi::proto::topology::MachineSpec;
use fuxi::proto::{Priority, QuotaGroupId, ResourceVec};
use fuxi::sim::{SimDuration, SimTime};
use fuxi::workloads::mapreduce::{wordcount_job, MapReduceParams};

#[test]
fn saturated_cluster_reaches_high_planned_utilization() {
    // Demand far beyond capacity: planned utilization should approach 100%
    // (the Figure 10 claim at laboratory scale).
    let mut c = Cluster::new(ClusterConfig {
        n_machines: 20,
        rack_size: 5,
        machine_spec: MachineSpec {
            resources: ResourceVec::cores_mb(24, 96 * 1024),
            ..MachineSpec::default()
        },
        seed: 31,
        ..ClusterConfig::default()
    });
    // 20 machines × 48 units capacity = 960; ask for ~3000.
    for i in 0..6 {
        let desc = wordcount_job(&MapReduceParams {
            maps: 500,
            reduces: 10,
            map_duration_s: 120.0,
            reduce_duration_s: 30.0,
            jitter: 0.2,
            binary_mb: 60.0,
            ..Default::default()
        });
        c.submit(
            &desc,
            &SubmitOpts {
                priority: Priority(1000 + i),
                ..Default::default()
            },
        );
    }
    c.run_until(SimTime::from_secs(180));
    let m = c.world.metrics();
    let planned = m.series("fm.planned_mem_mb").last().map(|&(_, v)| v).unwrap_or(0.0);
    let total = m.series("fm.total_mem_mb").last().map(|&(_, v)| v).unwrap_or(1.0);
    let util = planned / total;
    assert!(util > 0.9, "planned utilization {util:.2} should exceed 90%");
}

#[test]
fn quota_preemption_reclaims_guaranteed_share_end_to_end() {
    let n = 10usize;
    let half = ResourceVec::cores_mb(12 * n as u64 / 2, 96 * 1024 * n as u64 / 2);
    let master = MasterConfig {
        quota_groups: vec![
            (QuotaGroupId(1), QuotaGroup { min: half.clone(), max: None }),
            (QuotaGroupId(2), QuotaGroup { min: half, max: None }),
        ],
        ..MasterConfig::default()
    };
    let mut c = Cluster::new(ClusterConfig {
        n_machines: n,
        rack_size: 5,
        seed: 32,
        master,
        ..ClusterConfig::default()
    });
    // Group 2 floods the idle cluster with long instances.
    let flood = wordcount_job(&MapReduceParams {
        maps: 400,
        reduces: 4,
        map_duration_s: 300.0,
        reduce_duration_s: 10.0,
        jitter: 0.1,
        max_workers: 300,
        binary_mb: 40.0,
        ..Default::default()
    });
    c.submit(
        &flood,
        &SubmitOpts {
            quota_group: QuotaGroupId(2),
            ..Default::default()
        },
    );
    c.run_for(SimDuration::from_secs(40));
    // Group 1 claims its guaranteed half; without preemption it would wait
    // ~300 s for the flood's instances to drain.
    let prod = wordcount_job(&MapReduceParams {
        maps: 60,
        reduces: 2,
        map_duration_s: 5.0,
        reduce_duration_s: 5.0,
        jitter: 0.1,
        binary_mb: 40.0,
        ..Default::default()
    });
    let p = c.submit(
        &prod,
        &SubmitOpts {
            quota_group: QuotaGroupId(1),
            ..Default::default()
        },
    );
    let (ok, at) = c
        .run_until_job_done(p, SimTime::from_secs(400))
        .expect("guaranteed-group job completes quickly");
    assert!(ok);
    let waited = at - 40.0;
    assert!(
        waited < 150.0,
        "quota preemption must beat the 300 s instance drain, took {waited:.0}s"
    );
}

#[test]
fn container_reuse_beats_per_task_containers() {
    // The Fuxi-vs-YARN ablation (§3.2.3): identical job, identical cluster;
    // only the container policy differs.
    let job = || {
        wordcount_job(&MapReduceParams {
            maps: 300,
            reduces: 4,
            map_duration_s: 1.0,
            reduce_duration_s: 1.0,
            jitter: 0.1,
            max_workers: 30,
            binary_mb: 200.0,
            ..Default::default()
        })
    };
    let run = |reuse: bool| -> (f64, u64, u64) {
        let jm = JobMasterConfig {
            container_reuse: reuse,
            // Every fresh worker process pays a startup cost (binary exec,
            // runtime init) before it can take tasks; reuse amortizes it.
            worker: fuxi::job::WorkerConfig {
                startup_overhead_s: 1.0,
                ..Default::default()
            },
            ..JobMasterConfig::default()
        };
        let mut c = Cluster::new(ClusterConfig {
            n_machines: 10,
            rack_size: 5,
            seed: 33,
            jm,
            ..ClusterConfig::default()
        });
        let j = c.submit(&job(), &SubmitOpts::default());
        let (ok, at) = c
            .run_until_job_done(j, SimTime::from_secs(4000))
            .expect("job finishes");
        assert!(ok);
        let m = c.world.metrics();
        (at, m.counter("jm.workers_requested"), m.counter("fm.request_updates"))
    };
    let (t_reuse, workers_reuse, msgs_reuse) = run(true);
    let (t_yarn, workers_yarn, msgs_yarn) = run(false);
    assert!(
        workers_yarn > workers_reuse * 3,
        "per-task containers must start far more workers: {workers_yarn} vs {workers_reuse}"
    );
    assert!(
        t_yarn > t_reuse * 1.15,
        "reuse should be much faster: {t_reuse:.0}s vs {t_yarn:.0}s"
    );
    assert!(
        msgs_yarn > msgs_reuse,
        "per-task mode sends more request messages: {msgs_yarn} vs {msgs_reuse}"
    );
}

#[test]
fn incremental_protocol_is_message_frugal() {
    // §3.1: "in the simplest form, an application only specifies resource
    // demand once". A steady job should send request updates proportional
    // to its task count, not its instance count.
    let mut c = Cluster::new(ClusterConfig {
        n_machines: 10,
        rack_size: 5,
        seed: 34,
        ..ClusterConfig::default()
    });
    let desc = wordcount_job(&MapReduceParams {
        maps: 200,
        reduces: 4,
        map_duration_s: 3.0,
        reduce_duration_s: 3.0,
        jitter: 0.1,
        max_workers: 50,
        binary_mb: 40.0,
        ..Default::default()
    });
    let j = c.submit(&desc, &SubmitOpts::default());
    let (ok, _) = c
        .run_until_job_done(j, SimTime::from_secs(2000))
        .expect("finishes");
    assert!(ok);
    let m = c.world.metrics();
    let updates = m.counter("fm.request_updates");
    let instances = m.counter("jm.instances_finished");
    assert!(instances >= 204);
    assert!(
        updates * 10 < instances,
        "incremental protocol: {updates} request updates for {instances} instances"
    );
}

#[test]
fn job_status_query_reports_progress() {
    // The paper's command-line monitoring path: "user can also query the
    // whole job status from JobMaster by command line tool."
    use fuxi::proto::Msg;
    use fuxi::sim::{Actor, ActorId, Ctx};
    use std::cell::RefCell;
    use std::rc::Rc;

    let mut c = Cluster::new(ClusterConfig {
        n_machines: 10,
        rack_size: 5,
        seed: 35,
        ..ClusterConfig::default()
    });
    let desc = wordcount_job(&MapReduceParams {
        maps: 30,
        reduces: 4,
        map_duration_s: 30.0,
        reduce_duration_s: 10.0,
        jitter: 0.1,
        binary_mb: 40.0,
        ..Default::default()
    });
    let j = c.submit(&desc, &SubmitOpts::default());
    c.run_for(SimDuration::from_secs(20));
    let (_, jm) = c.find_jobmaster(j).expect("JobMaster up");

    struct StatusProbe {
        target: fuxi::sim::ActorId,
        reply: Rc<RefCell<Option<fuxi::proto::JobSummary>>>,
    }
    impl Actor<Msg> for StatusProbe {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
            ctx.send(self.target, Msg::JmStatusQuery);
        }
        fn on_message(&mut self, _: &mut Ctx<'_, Msg>, _: ActorId, msg: Msg) {
            if let Msg::JmStatusReply { summary, .. } = msg {
                *self.reply.borrow_mut() = Some(summary);
            }
        }
    }
    let reply = Rc::new(RefCell::new(None));
    c.world.spawn(
        None,
        Box::new(StatusProbe {
            target: jm,
            reply: reply.clone(),
        }),
    );
    c.run_for(SimDuration::from_secs(2));
    let s = reply.borrow().expect("status reply arrived");
    assert_eq!(s.tasks_total, 2);
    // The reduce task has not started yet, so only map instances count.
    assert_eq!(s.instances_total, 30);
    assert!(s.instances_running > 0, "maps mid-flight: {s:?}");
    assert!(s.workers_active > 0);
}

#[test]
fn request_deltas_are_batched_by_the_master() {
    // §3.4 batch mode: "some similar requests (e.g., frequently changing
    // resource requests from one application) are merged compactly and
    // handled in a batch mode". With a 2-task job the master should apply
    // far fewer scheduling passes than it receives messages when updates
    // arrive inside one batch window.
    let mut c = Cluster::new(ClusterConfig {
        n_machines: 10,
        rack_size: 5,
        seed: 36,
        ..ClusterConfig::default()
    });
    let j = c.submit(
        &wordcount_job(&MapReduceParams {
            maps: 40,
            reduces: 4,
            map_duration_s: 4.0,
            reduce_duration_s: 4.0,
            jitter: 0.1,
            binary_mb: 40.0,
            ..Default::default()
        }),
        &SubmitOpts::default(),
    );
    let (ok, _) = c
        .run_until_job_done(j, SimTime::from_secs(1000))
        .expect("finishes");
    assert!(ok);
    let m = c.world.metrics();
    let updates = m.counter("fm.request_updates");
    let dups = m.counter("fm.dup_deltas_dropped");
    assert_eq!(dups, 0, "reliable network: no duplicates");
    // The scheduling-time histogram counts engine invocations; request
    // processing must not exceed a small multiple of the message count
    // (merging makes it sub-linear in bursts, and returns dominate).
    assert!(updates >= 2, "at least one request per task: {updates}");
}

#[test]
fn locality_tree_places_maps_near_their_data() {
    // §3.3's purpose: "computation at best happens where data resides".
    // With a 3×-replicated input and locality hints flowing request → tree
    // → grant → instance assignment, the overwhelming majority of map
    // reads must be local disk reads, not network fetches.
    let mut c = Cluster::new(ClusterConfig {
        n_machines: 20,
        rack_size: 5,
        seed: 37,
        ..ClusterConfig::default()
    });
    c.pangu.create("big-input", 20.0 * 1024.0, 256.0, 3, &c.topo);
    let desc = wordcount_job(&MapReduceParams {
        maps: 80,
        reduces: 1,
        map_duration_s: 1.0,
        reduce_duration_s: 1.0,
        jitter: 0.0,
        map_output_mb: 1.0,
        input_pattern: Some("pangu://big-input".into()),
        data_driven: true,
        binary_mb: 20.0,
        ..Default::default()
    });
    let j = c.submit(&desc, &SubmitOpts::default());
    let (ok, _) = c
        .run_until_job_done(j, SimTime::from_secs(2000))
        .expect("finishes");
    assert!(ok);
    let m = c.world.metrics();
    let local = m.counter("worker.local_reads");
    let remote = m.counter("worker.remote_reads");
    assert!(local + remote >= 80, "every map read its chunk");
    let rate = local as f64 / (local + remote) as f64;
    assert!(
        rate > 0.6,
        "locality-tree scheduling should make most reads local: {rate:.2} \
         ({local} local / {remote} remote)"
    );
}
