//! The live metrics plane, end to end: agent + JobMaster reports flow
//! in-band to the master, the master's windowed rollup lands in the
//! shared [`fuxi::obs::MetricsHub`], the SLO watchdog raises alerts, and
//! the scrape endpoint serves it all — identically under the
//! deterministic kernel and the live `fuxi-rt` runtime.
//!
//! The differential check: cumulative totals in the cluster view must
//! equal the shutdown-merged `Metrics` counters. The rollup is fed by
//! periodic ticks and in-band reports; the counters by the actors
//! themselves. Agreement means no report was double-counted, dropped
//! on a code path the plane forgot, or skewed by window arithmetic.

use fuxi::cluster::{Cluster, ClusterConfig, SubmitOpts};
use fuxi::job::JobDesc;
use fuxi::obs::{ClusterView, TraceEvent, ViewDoc};
use fuxi::rt::LiveCluster;
use fuxi::sim::{SimDuration, SimTime};
use fuxi::workloads::mapreduce::{wordcount_job, MapReduceParams};
use std::io::{Read, Write};
use std::time::Duration;

const N_MACHINES: usize = 20;
const N_JOBS: usize = 30;
const SEED: u64 = 404;

fn plane_config() -> ClusterConfig {
    ClusterConfig {
        n_machines: N_MACHINES,
        rack_size: 5,
        seed: SEED,
        ..ClusterConfig::default()
    }
}

fn plane_job(i: usize) -> JobDesc {
    wordcount_job(&MapReduceParams {
        maps: 4,
        reduces: 1,
        map_duration_s: 0.05,
        reduce_duration_s: 0.05,
        jitter: 0.1,
        max_workers: 2,
        binary_mb: 2.0,
        map_output_mb: 0.5,
        output_file: Some(format!("pangu://plane/out-{i}")),
        ..Default::default()
    })
}

/// Cumulative rollup totals must equal the shutdown-merged counters the
/// actors bumped themselves, and every agent must appear in the view.
fn assert_view_matches_counters(view: &ClusterView, m: &fuxi::sim::Metrics) {
    assert_eq!(
        view.rollup.jobs_finished_total,
        m.counter("fm.jobs_finished"),
        "rollup finished-jobs total diverged from the merged counter"
    );
    assert_eq!(
        view.rollup.jobs_submitted_total,
        m.counter("fm.jobs_submitted"),
        "rollup submitted-jobs total diverged from the merged counter"
    );
    assert_eq!(
        view.reports_received,
        m.counter("fm.metrics_reports"),
        "hub report count diverged from the master's ingestion counter"
    );
    assert_eq!(view.agents.len(), N_MACHINES, "every agent must be reporting");
    assert_eq!(view.rollup.jobs_finished_total, N_JOBS as u64);
    assert!(view.jobs.is_empty(), "every job finished, yet live rows remain: {:?}", view.jobs.keys());
    assert_eq!(view.pending_instances, 0, "... and so nothing is pending");
    assert!(view.rollup.sched_count_win > 0 || view.rollup.jobs_finished_total > 0);
    assert_agents_within_capacity(view);
}

/// No agent reports more in use than it has, CPU or memory.
fn assert_agents_within_capacity(view: &ClusterView) {
    for a in view.agents.values() {
        assert!(
            a.used_cpu_milli <= a.total_cpu_milli && a.used_mem_mb <= a.total_mem_mb,
            "agent {} reports more in use than it has: {a:?}",
            a.machine
        );
    }
}

#[test]
fn sim_rollup_matches_shutdown_merged_metrics() {
    let mut c = Cluster::new(plane_config());
    for i in 0..N_JOBS {
        c.submit(&plane_job(i), &SubmitOpts::default());
    }
    let done = c.run_until_n_done(N_JOBS, SimTime::from_secs(3600));
    assert_eq!(done, N_JOBS, "sim run left jobs unfinished");
    // Quiesce a few windows so the final rollup tick observes the final
    // counter values (nothing finishes after this point).
    c.run_for(SimDuration::from_secs(5));
    let view = c.hub.snapshot();
    assert_view_matches_counters(&view, c.world.metrics());
    assert_eq!(view.rollup.master_epoch, 1, "no failover happened");
    assert_eq!(view.alerts_total, 0, "an idle healthy cluster raises no alerts");
}

/// Jobs that live long enough to report (a JobMaster reports every 2 s and
/// exits without a last report) leave the view when the master sees them
/// finish: no row, no pending instance and no pending-age clock outlives
/// its job.
#[test]
fn finished_jobs_leave_the_cluster_view() {
    let mut c = Cluster::new(plane_config());
    let mut watch = TotalsWatch::default();
    for _ in 0..10 {
        // Eight 3 s maps through two workers: pending for most of its life.
        let desc = wordcount_job(&MapReduceParams {
            maps: 8,
            reduces: 1,
            map_duration_s: 3.0,
            reduce_duration_s: 1.0,
            max_workers: 2,
            binary_mb: 2.0,
            ..Default::default()
        });
        c.submit(&desc, &SubmitOpts::default());
    }
    let mut seen_live = 0;
    while c.finished_count() < 10 {
        assert!(c.world.now() < SimTime::from_secs(600), "sim run left jobs unfinished");
        c.run_for(SimDuration::from_secs(1));
        let view = c.hub.snapshot();
        watch.check(&view);
        seen_live = seen_live.max(view.jobs.len());
    }
    assert_eq!(seen_live, 10, "every job reported while it ran");
    c.run_for(SimDuration::from_secs(5));
    let view = c.hub.snapshot();
    watch.check(&view);
    assert!(view.jobs.is_empty(), "live rows after the last job: {:?}", view.jobs.keys());
    assert_eq!((view.pending_instances, view.oldest_pending_age_s), (0, 0.0));
}

/// `plane_config` with a hot standby and a failover quick enough to test.
fn failover_config() -> ClusterConfig {
    let mut cfg = plane_config();
    cfg.standby_master = true;
    cfg.master.lease_ttl = SimDuration::from_secs_f64(1.5);
    cfg.master.keepalive_interval = SimDuration::from_secs_f64(0.5);
    cfg.master.rebuild_window = SimDuration::from_secs(2);
    cfg
}

/// The invariants the rollup's job totals must hold over successive
/// snapshots, whichever master epoch wrote them: both monotone, and never
/// more jobs finished than submitted.
#[derive(Default)]
struct TotalsWatch {
    submitted: u64,
    finished: u64,
}

impl TotalsWatch {
    fn check(&mut self, view: &ClusterView) {
        let r = &view.rollup;
        let (s, f, e) = (r.jobs_submitted_total, r.jobs_finished_total, r.master_epoch);
        assert!(s >= self.submitted, "submitted fell {} -> {s} (epoch {e})", self.submitted);
        assert!(f >= self.finished, "finished fell {} -> {f} (epoch {e})", self.finished);
        assert!(f <= s, "finished {f} > submitted {s} (epoch {e})");
        // A row leaves the live table the moment its job finishes, the
        // totals at the next rollup: never more rows than unfinished jobs.
        let live = view.jobs.len() as u64;
        assert!(live <= s - f, "{live} live rows, {s} submitted - {f} finished (epoch {e})");
        (self.submitted, self.finished) = (s, f);
    }

    /// At quiescence both totals are the number of jobs the client
    /// submitted, and the rollup was written by the second master.
    fn check_final(&mut self, view: &ClusterView) {
        self.check(view);
        assert_eq!(view.rollup.master_epoch, 2, "the standby must have taken over");
        assert_eq!((self.submitted, self.finished), (N_JOBS as u64, N_JOBS as u64));
    }
}

/// Half the jobs go to the first master, which is killed with work in
/// flight; the rest are submitted into the gap and reach the standby by
/// client retry. The second master's rollup must continue the first's
/// totals, not restart them.
#[test]
fn sim_job_totals_are_monotone_across_master_failover() {
    let mut c = Cluster::new(failover_config());
    let mut watch = TotalsWatch::default();
    for i in 0..N_JOBS / 2 {
        c.submit(&plane_job(i), &SubmitOpts::default());
    }
    c.run_until_n_done(N_JOBS / 4, SimTime::from_secs(600));
    c.run_for(SimDuration::from_secs(1));
    watch.check(&c.hub.snapshot());
    assert!(watch.finished > 0, "the first master must have reported finished jobs");
    c.kill_primary_master();
    for i in N_JOBS / 2..N_JOBS {
        c.submit(&plane_job(i), &SubmitOpts::default());
    }
    while c.finished_count() < N_JOBS {
        assert!(c.world.now() < SimTime::from_secs(3600), "sim run left jobs unfinished");
        c.run_for(SimDuration::from_secs(1));
        watch.check(&c.hub.snapshot());
    }
    c.run_for(SimDuration::from_secs(5));
    watch.check_final(&c.hub.snapshot());
    assert_eq!(c.duplicate_finishes(), 0);
}

/// The same drill on the live runtime, snapshotting the hub while the
/// lease expires and the standby rebuilds. Live, the first half has
/// drained by the time a rollup shows it, so the kill lands just after the
/// first master accepts a quarter more: those run through a rebuild, the
/// last quarter is submitted into the gap.
///
/// The grant stall must raise a pending-age alert that the healthy run
/// before the kill never did, under a 0.5 s SLO. The stall is about the
/// 1.5 s lease: the rebuild ends once the agents and JobMasters have
/// reported, and any JobMaster's own 2 s report of its pending instances
/// would come too late to show it. What sees it is the master's per-job
/// clock, kept in the hub across the failover: it runs from a job's
/// acceptance to its first worker grant, counts once the master that
/// accepted the job has died, and the new primary evaluates the watchdog
/// as its rebuild ends. The JobMasters download the default 100 MB
/// package: under a live master that start-up is healthy time, and the
/// run before the kill must raise nothing.
#[test]
fn live_job_totals_are_monotone_across_master_failover() {
    let mut cfg = failover_config();
    cfg.master.metrics.pending_age_s = 0.5;
    let mut c = LiveCluster::new(cfg);
    let mut watch = TotalsWatch::default();
    for i in 0..N_JOBS / 2 {
        c.submit(&plane_job(i), &SubmitOpts::default());
    }
    assert!(c.wait_n_done(N_JOBS / 4, Duration::from_secs(60)) >= N_JOBS / 4);
    std::thread::sleep(Duration::from_millis(1500));
    let before = c.hub.snapshot();
    watch.check(&before);
    assert!(watch.finished > 0, "the first master must have reported finished jobs");
    assert_eq!(before.alerts_total, 0, "an alert before the kill: {:?}", before.alerts);
    let in_flight: Vec<_> = (N_JOBS / 2..N_JOBS * 3 / 4).map(|i| c.submit(&plane_job(i), &SubmitOpts::default())).collect();
    while !in_flight.iter().any(|&j| c.job_state(j).is_some_and(|s| s.accepted)) {
        std::thread::sleep(Duration::from_millis(1));
    }
    c.kill_primary_master();
    for i in N_JOBS * 3 / 4..N_JOBS {
        c.submit(&plane_job(i), &SubmitOpts::default());
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(120);
    while c.finished_count() < N_JOBS {
        assert!(std::time::Instant::now() < deadline, "live run left jobs unfinished");
        std::thread::sleep(Duration::from_millis(50));
        watch.check(&c.hub.snapshot());
    }
    // Let a rollup tick observe the final state.
    std::thread::sleep(Duration::from_secs(3));
    let after = c.hub.snapshot();
    watch.check_final(&after);
    assert!(after.alerts_total >= 1, "the master kill raised no alert");
    assert_eq!(c.duplicate_finishes(), 0);
    let (_, tracer) = c.shutdown();
    let pending_age = |e: &TraceEvent| matches!(e, TraceEvent::SloAlert { rule: "pending_age", raised: true, .. });
    assert!(tracer.records.iter().any(|r| pending_age(&r.event)), "the kill raised no pending-age alert");
}

/// A job whose instances can never fit (1 TB per instance) stays pending
/// forever; with a 2 s pending-age SLO the watchdog must raise exactly
/// that alert, trace it, and dump the flight recorder once.
#[test]
fn watchdog_raises_pending_age_alert_and_dumps_flight_recorder() {
    let mut cfg = plane_config();
    cfg.master.metrics.pending_age_s = 2.0;
    let mut c = Cluster::new(cfg);
    c.submit(
        &wordcount_job(&MapReduceParams {
            maps: 2,
            reduces: 1,
            memory_mb: 1 << 20, // 1 TB per instance: unsatisfiable
            output_file: Some("pangu://plane/stuck".to_owned()),
            ..Default::default()
        }),
        &SubmitOpts::default(),
    );
    c.run_for(SimDuration::from_secs(15));

    let view = c.hub.snapshot();
    assert!(view.alerts_total >= 1, "pending-age breach must raise an alert");
    assert!(
        view.alerts.iter().any(|a| a.rule.name() == "pending_age"),
        "the active alert must be the pending-age rule, got {:?}",
        view.alerts
    );
    assert!(view.oldest_pending_age_s >= 2.0, "view must show the stuck job's age");

    let tracer = c.world.tracer();
    let raised = tracer
        .records
        .iter()
        .filter(|r| {
            matches!(r.event, TraceEvent::SloAlert { rule: "pending_age", raised: true, .. })
        })
        .count();
    assert_eq!(raised, 1, "edge-triggered: one raise transition, not one per tick");
    assert!(
        tracer.dumps.iter().any(|d| d.reason == "slo_pending_age"),
        "a breach must freeze the flight recorder (got {:?})",
        tracer.dumps.iter().map(|d| d.reason).collect::<Vec<_>>()
    );
}

fn http_get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
    let mut s = std::net::TcpStream::connect(addr).expect("connect scrape endpoint");
    write!(s, "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n").unwrap();
    let mut buf = String::new();
    s.read_to_string(&mut buf).unwrap();
    let (head, body) = buf.split_once("\r\n\r\n").expect("header block");
    (head.to_owned(), body.to_owned())
}

/// The same workload on the live runtime: the rollup must satisfy the
/// exact same differential invariants (identical cumulative totals, all
/// agents reporting), and the scrape endpoint must serve it mid-flight.
#[test]
fn live_rollup_and_scrape_match_sim() {
    let mut c = LiveCluster::new(plane_config());
    let addr = c.serve_metrics("127.0.0.1:0").expect("bind scrape endpoint");
    for i in 0..N_JOBS {
        c.submit(&plane_job(i), &SubmitOpts::default());
    }
    let done = c.wait_n_done(N_JOBS, Duration::from_secs(120));
    assert_eq!(done, N_JOBS, "live run left jobs unfinished");
    // Let the last heartbeat reports land and a rollup tick fire.
    std::thread::sleep(Duration::from_secs(3));

    let (head, prom) = http_get(addr, "/metrics");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(prom.contains(&format!("fuxi_jobs_finished_total {N_JOBS}")), "{prom}");
    assert!(prom.contains(&format!("fuxi_agents_reporting {N_MACHINES}")), "{prom}");
    let (head, json) = http_get(addr, "/json");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    let doc: ViewDoc = serde_json::from_str(&json).expect("scrape /json must parse");
    assert!(doc.summary.reports_received > 0, "live master must have ingested reports");
    assert_eq!(doc.agents.len(), N_MACHINES, "one scraped row per agent");
    for row in &doc.agents {
        assert!(
            row.used_cpu_milli <= row.total_cpu_milli && row.used_mem_mb <= row.total_mem_mb,
            "a scraped agent row reports more in use than it has: {row:?}"
        );
    }

    let view = c.hub.snapshot();
    let (metrics, _tracer) = c.shutdown();
    assert_view_matches_counters(&view, &metrics);
}

/// A JobMaster's share of the cluster-wide `am.obtained_*` gauges leaves
/// with its job, live too — where every actor's metrics are taken
/// into the runtime's sink on each flush, so a gauge read back from the
/// actor reads 0 after one. A job whose grants change across many 20 ms
/// flushes (two waves of containers, returned as the maps finish) must
/// leave the gauges at 0. (Read back from the thread, the job added its
/// whole holding again after a flush and left 14,336 MB and 4,500
/// milli-cores behind.)
#[test]
fn live_obtained_gauges_return_to_zero() {
    use fuxi::cluster::boot::{boot_groups, Shared};
    use fuxi::cluster::DeployTopology;
    use fuxi::obs::TraceId;
    use fuxi::rt::{LiveRuntime, RuntimeConfig};
    let deploy = DeployTopology::single_process(ClusterConfig {
        n_machines: 4,
        rack_size: 4,
        seed: SEED,
        ..ClusterConfig::default()
    });
    let shared = Shared::new(&deploy.cluster);
    let mut rt = LiveRuntime::new(RuntimeConfig {
        machines: shared.machine_configs(),
        metrics_flush: Duration::from_millis(20),
        ..RuntimeConfig::default()
    });
    let b = boot_groups(&mut rt, &shared, &deploy.nodes[0].actors, deploy.lock_id().id, |_, _, _| {});
    let client = b.client.expect("single_process hosts the client");
    let desc = wordcount_job(&MapReduceParams {
        maps: 6,
        reduces: 2,
        map_duration_s: 0.1,
        reduce_duration_s: 0.1,
        jitter: 0.0,
        max_workers: 3,
        binary_mb: 0.0,
        map_output_mb: 0.0,
        ..Default::default()
    });
    let (job, msg) = shared.jobs.submission(client, &desc, &SubmitOpts::default());
    rt.send_external_traced(client, msg, TraceId::from_job(job.0));
    assert_eq!(shared.jobs.wait_n_done(1, Duration::from_secs(60)), 1);
    assert_eq!(shared.jobs.done(job).map(|d| d.0), Some(true));
    let (metrics, _) = rt.shutdown();
    assert_eq!(
        (metrics.gauge("am.obtained_mem_mb"), metrics.gauge("am.obtained_cpu_milli")),
        (0.0, 0.0),
        "a finished job still holds resources in the gauges"
    );
}

