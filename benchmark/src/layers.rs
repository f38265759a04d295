//! What one runtime (one OS process) contributes to the per-layer numbers
//! of a traced live run: counters from the `Metrics` its `shutdown()`
//! returns, spans and per-job stage marks from its `Tracer`. In-process
//! workloads build one dump; `dist_null` children serialise theirs (serde)
//! to one JSON line on stdout and the driver folds all four.

use crate::stages::{self, Marks};
use crate::stats;
use fuxi_obs::{ClusterView, SpanKind, Tracer};
use fuxi_sim::Metrics;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Per-layer sample of one repetition: metric name → value.
pub type LayerSample = BTreeMap<&'static str, f64>;

#[derive(Debug, Default, Clone, PartialEq, Serialize, Deserialize)]
pub struct RuntimeDump {
    /// Actor-to-actor messages sent inside this runtime (`net.sent`).
    pub net_sent: u64,
    /// `Msg` frames decoded off the wire into this runtime.
    pub remote_in: u64,
    pub actors_spawned: u64,
    pub mailbox_parked: u64,
    pub mailbox_hwm: u64,
    /// Scheduling decisions (`fm.sched_s`): count, p50 and p99 in µs.
    /// Only the process hosting the active master has any.
    pub sched_count: u64,
    pub sched_p50_us: f64,
    pub sched_p99_us: f64,
    /// p50 of the master's `msg_handler` spans, µs (0 without a master).
    pub handler_p50_us: f64,
    /// Metrics reports the master ingested, and agent-reported CPU still
    /// in use, both from this process's cluster view.
    pub reports_received: u64,
    pub residual_used_cpu_milli: u64,
    /// Mean cost of one `MetricsHub::snapshot()`, µs.
    pub snapshot_us: f64,
    pub reconnects: u64,
    /// Per-job stage marks on the common (unix) clock.
    pub marks: BTreeMap<u32, Marks>,
}

impl RuntimeDump {
    /// `epoch_offset_s` maps the runtime's clock onto the clock all
    /// processes of the run share (0 for single-process runs).
    pub fn new(
        metrics: &Metrics,
        tracer: &Tracer,
        view: &ClusterView,
        epoch_offset_s: f64,
    ) -> Self {
        let sched = metrics.histogram("fm.sched_s");
        let handler: Vec<f64> = tracer
            .spans
            .iter()
            .filter(|s| s.kind == SpanKind::MsgHandler)
            .map(|s| s.wall_s * 1e6)
            .collect();
        let mut marks = BTreeMap::new();
        stages::collect(&tracer.records, epoch_offset_s, &mut marks);
        RuntimeDump {
            net_sent: metrics.counter("net.sent"),
            remote_in: metrics.counter("net.remote_in"),
            actors_spawned: metrics.counter("rt.actors_spawned"),
            mailbox_parked: metrics.counter("rt.mailbox_parked"),
            mailbox_hwm: metrics.gauge("rt.mailbox_hwm") as u64,
            sched_count: sched.map_or(0, |h| h.count()),
            sched_p50_us: sched.map_or(0.0, |h| h.quantile(0.5) * 1e6),
            sched_p99_us: sched.map_or(0.0, |h| h.quantile(0.99) * 1e6),
            handler_p50_us: stats::percentile(&handler, 0.5),
            reports_received: view.reports_received,
            residual_used_cpu_milli: view.used().0,
            snapshot_us: 0.0,
            reconnects: 0,
            marks,
        }
    }
}

/// Mean cost of `hub.snapshot()` over a few calls, µs.
pub fn time_snapshot(hub: &fuxi_obs::MetricsHub) -> f64 {
    const CALLS: u32 = 20;
    let t = std::time::Instant::now();
    for _ in 0..CALLS {
        std::hint::black_box(hub.snapshot());
    }
    t.elapsed().as_secs_f64() * 1e6 / f64::from(CALLS)
}

/// Folds the dumps of every process of one cluster's life into that
/// repetition's per-layer sample. `jobs` is every job the cluster finished
/// (warm-up included — the counters cover its whole life), `life_s` how
/// long it lived. `measured_ms` and `light_ms` map job id →
/// client-observed latency for the two phases: stage medians come from the
/// throughput phase, the stage-sum check from the light-load one.
pub fn fold(
    dumps: &[RuntimeDump],
    jobs: u64,
    life_s: f64,
    measured_ms: &BTreeMap<u32, f64>,
    light_ms: &BTreeMap<u32, f64>,
) -> (LayerSample, StageCheck) {
    let per_job = |n: u64| n as f64 / jobs.max(1) as f64;
    let sum = |f: fn(&RuntimeDump) -> u64| dumps.iter().map(f).sum::<u64>();
    let max = |f: fn(&RuntimeDump) -> f64| dumps.iter().map(f).fold(0.0, f64::max);
    let mut s = LayerSample::new();
    s.insert("rt.mailbox.hwm", max(|d| d.mailbox_hwm as f64));
    s.insert("rt.mailbox.parked", sum(|d| d.mailbox_parked) as f64);
    s.insert("rt.actors_per_job", per_job(sum(|d| d.actors_spawned)));
    s.insert("node.hub.frames_per_job", per_job(sum(|d| d.remote_in)));
    s.insert("node.leaf.reconnects", sum(|d| d.reconnects) as f64);
    s.insert("core.master.msgs_per_job", per_job(sum(|d| d.net_sent)));
    s.insert(
        "core.master.reports_per_s",
        sum(|d| d.reports_received) as f64 / life_s.max(1e-9),
    );
    s.insert("core.master.handler_us_p50", max(|d| d.handler_p50_us));
    s.insert(
        "core.sched.decisions_per_job",
        per_job(sum(|d| d.sched_count)),
    );
    s.insert("core.sched.decision_p50_us", max(|d| d.sched_p50_us));
    s.insert("core.sched.decision_p99_us", max(|d| d.sched_p99_us));
    s.insert("obs.view.snapshot_us", max(|d| d.snapshot_us));

    let mut marks: BTreeMap<u32, Marks> = BTreeMap::new();
    for d in dumps {
        for (job, m) in &d.marks {
            marks.entry(*job).or_default().merge(m);
        }
    }
    stage_sample(&marks, measured_ms, &mut s);
    let check = stage_sample(&marks, light_ms, &mut LayerSample::new());
    (s, check)
}

/// Agent-reported CPU still in use per the masters' cluster views. Only
/// meaningful once every job is terminal and the last reports have landed.
pub fn residual_used_cpu_milli(dumps: &[RuntimeDump]) -> f64 {
    dumps.iter().map(|d| d.residual_used_cpu_milli).sum::<u64>() as f64
}

/// How well the stage breakdown accounts for what the client saw.
#[derive(Debug, Default, Clone, Copy)]
pub struct StageCheck {
    /// Jobs with all eight marks and a client latency.
    pub jobs: usize,
    /// Median over those jobs of (sum of stages ÷ client latency).
    pub sum_over_latency_p50: f64,
}

/// Writes the p50 of every stage over the jobs in `latency_ms` into `s`,
/// plus `stage.client_hops_ms`: what the client saw beyond the master's
/// JobSubmitted → JobFinished span, i.e. the submit waiting in the
/// master's mailbox and the two client ↔ master hops.
fn stage_sample(
    marks: &BTreeMap<u32, Marks>,
    latency_ms: &BTreeMap<u32, f64>,
    s: &mut LayerSample,
) -> StageCheck {
    let mut per_stage: [Vec<f64>; 7] = Default::default();
    let (mut hops, mut ratios) = (Vec::new(), Vec::new());
    for (job, lat) in latency_ms {
        let Some(st) = marks.get(job).and_then(Marks::stages_ms) else {
            continue;
        };
        for (pool, v) in per_stage.iter_mut().zip(st) {
            pool.push(v);
        }
        let sum = st.iter().sum::<f64>();
        hops.push(lat - sum);
        if *lat > 0.0 {
            ratios.push(sum / lat);
        }
    }
    for (name, pool) in stages::STAGES.iter().zip(&per_stage) {
        s.insert(name, stats::percentile(pool, 0.5));
    }
    s.insert("stage.client_hops_ms", stats::percentile(&hops, 0.5));
    StageCheck {
        jobs: ratios.len(),
        sum_over_latency_p50: stats::percentile(&ratios, 0.5),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dump_round_trips_through_json_text() {
        let mut marks = BTreeMap::new();
        marks.insert(
            3,
            Marks([
                Some(1.5),
                Some(2.0),
                None,
                Some(1.7e9 + 0.123456),
                None,
                None,
                Some(9.0),
                None,
            ]),
        );
        let d = RuntimeDump {
            net_sent: 12345,
            remote_in: 7,
            actors_spawned: 40,
            mailbox_parked: 1,
            mailbox_hwm: 99,
            sched_count: 5,
            sched_p50_us: 1.25,
            sched_p99_us: 8.5,
            handler_p50_us: 3.0,
            reports_received: 64,
            residual_used_cpu_milli: 0,
            snapshot_us: 12.5,
            reconnects: 2,
            marks,
        };
        let text = serde_json::to_string(&d).unwrap();
        assert!(!text.contains('\n'));
        assert_eq!(serde_json::from_str::<RuntimeDump>(&text).ok(), Some(d));
        assert!(serde_json::from_str::<RuntimeDump>("{\"net_sent\":1}").is_err());
    }

    #[test]
    fn fold_sums_counts_and_checks_stage_sum() {
        let mark = |t: [f64; 8]| Marks(t.map(Some));
        let mut a = RuntimeDump {
            net_sent: 100,
            actors_spawned: 8,
            sched_count: 10,
            sched_p50_us: 2.0,
            ..Default::default()
        };
        // FM-side marks in one process, agent-side in the other.
        let mut fm = mark([1.0, 1.01, 1.03, 1.13, 0.0, 0.0, 0.0, 1.2]);
        fm.0[4..7].fill(None);
        a.marks.insert(1, fm);
        let mut b = RuntimeDump {
            net_sent: 50,
            remote_in: 30,
            ..Default::default()
        };
        let mut ag = Marks::default();
        ag.0[4] = Some(1.15);
        ag.0[5] = Some(1.16);
        ag.0[6] = Some(1.19);
        b.marks.insert(1, ag);
        let latency: BTreeMap<u32, f64> = [(1, 202.0), (2, 150.0)].into();
        let (s, check) = fold(&[a, b], 2, 10.0, &latency, &latency);
        assert_eq!(s["core.master.msgs_per_job"], 75.0);
        assert_eq!(s["rt.actors_per_job"], 4.0);
        assert_eq!(s["node.hub.frames_per_job"], 15.0);
        assert_eq!(s["core.sched.decision_p50_us"], 2.0);
        assert!((s["stage.run_ms"] - 30.0).abs() < 1e-6);
        assert!((s["stage.client_hops_ms"] - 2.0).abs() < 1e-6);
        assert_eq!(check.jobs, 1, "job 2 has no marks and is skipped");
        assert!((check.sum_over_latency_p50 - 200.0 / 202.0).abs() < 1e-9);
    }
}
