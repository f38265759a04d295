//! The benchmark's contract in code: every metric's name and unit (the
//! same lists `BENCHMARK.json` declares — a unit test keeps them equal),
//! and the one-line JSON result a run prints.

use crate::layers::LayerSample;
use crate::stats;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// `(name, unit, better, bound)`; reported by every workload when
/// `--trace 0`.
pub const END_TO_END: &[(&str, &str, &str, f64)] = &[
    ("setup_s", "s", "lower", 0.25),
    ("jobs_per_s", "1/s", "higher", 0.15),
    ("job_latency_p50_ms", "ms", "lower", 0.1),
    ("job_latency_p95_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
];

/// `(name, unit, better)`; reported by every workload when `--trace 1`.
/// A layer the workload does not exercise reports 0 (see README: that is
/// the bypass prediction made visible).
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    // in situ, from the traced workload run
    ("jobs_per_s_saturated", "1/s", "higher"),
    ("job_latency_saturated_p50_ms", "ms", "lower"),
    ("cpu_ms_per_job", "ms", "lower"),
    ("stage.submit_to_jm_launch_ms", "ms", "lower"),
    ("stage.jm_launch_to_jm_start_ms", "ms", "lower"),
    ("stage.jm_start_to_first_grant_ms", "ms", "lower"),
    ("stage.grant_to_worker_start_ms", "ms", "lower"),
    ("stage.worker_start_to_first_instance_ms", "ms", "lower"),
    ("stage.run_ms", "ms", "lower"),
    ("stage.last_instance_to_finished_ms", "ms", "lower"),
    ("stage.client_hops_ms", "ms", "lower"),
    ("stage.sum_over_client_latency", "ratio", "higher"),
    ("cluster.boot_s", "s", "lower"),
    ("rt.mailbox.hwm", "count", "lower"),
    ("rt.mailbox.parked", "count", "lower"),
    ("rt.threads_peak", "count", "lower"),
    ("rt.actors_per_job", "count", "lower"),
    ("node.hub.frames_per_job", "count", "lower"),
    ("node.hub.relayed_per_job", "count", "lower"),
    ("node.hub.dropped_frames", "count", "lower"),
    ("node.leaf.reconnects", "count", "lower"),
    ("core.master.msgs_per_job", "count", "lower"),
    ("core.master.reports_per_s", "1/s", "lower"),
    ("core.master.handler_us_p50", "us", "lower"),
    ("core.master.residual_used_cpu_milli", "count", "lower"),
    ("core.master.rebuild_s", "s", "lower"),
    ("core.master.grant_stall_s", "s", "lower"),
    ("core.sched.decisions_per_job", "count", "lower"),
    ("core.sched.decision_p50_us", "us", "lower"),
    ("core.sched.decision_p99_us", "us", "lower"),
    ("apsara.lock.takeover_s", "s", "lower"),
    ("sim.stack.events_per_s", "1/s", "higher"),
    ("sim.stack.us_per_event", "us", "lower"),
    ("sim.events_per_job", "count", "lower"),
    ("sim.util_planned_mem", "ratio", "higher"),
    ("obs.view.snapshot_us", "us", "lower"),
    // isolated probes of the layers the workload exercises
    ("proto.wire.encode_ns_per_msg", "ns", "lower"),
    ("proto.wire.decode_ns_per_msg", "ns", "lower"),
    ("proto.wire.bytes_per_msg", "B", "lower"),
    ("proto.wire.errors", "count", "lower"),
    ("rt.mailbox.hop_ns", "ns", "lower"),
    ("rt.spawn.actor_us", "us", "lower"),
    ("rt.timer.arm_ns", "ns", "lower"),
    ("rt.timer.expire_ns", "ns", "lower"),
    ("rt.timer.fire_lateness_ms_p50", "ms", "lower"),
    ("rt.transport.channel_rtt_us", "us", "lower"),
    ("rt.transport.tcp_rtt_us", "us", "lower"),
    ("node.hub.relay_added_us", "us", "lower"),
    ("core.sched.free_up_ns", "ns", "lower"),
    ("core.sched.delta_ns", "ns", "lower"),
    ("sim.kernel.events_per_s", "1/s", "higher"),
    ("job.desc.to_json_us", "us", "lower"),
    ("job.desc.parse_us", "us", "lower"),
];

/// Per-layer metrics whose repetitions combine by maximum, not median.
const COMBINE_BY_MAX: &[&str] = &["rt.mailbox.hwm", "rt.threads_peak"];

/// Everything a workload hands back, in either mode.
#[derive(Debug, Default)]
pub struct Measured {
    /// One entry per set-up performed in the run.
    pub setup_s: Vec<f64>,
    /// jobs/s at the load latency is measured at: one sample per light-load
    /// phase, window or run; the median reports.
    pub rates: Vec<f64>,
    /// jobs/s with the cluster saturated: one sample per quiet ~1 s bin of
    /// every saturated phase (`live_null`, `dist_null`) or one per run; the
    /// median reports.
    pub saturated_rates: Vec<f64>,
    /// CPU ms of driver and children ÷ completions, sampled like
    /// `saturated_rates`.
    pub cpu_ms_per_job: Vec<f64>,
    /// Client-observed latencies of the jobs run at light load, pooled over
    /// repetitions.
    pub latencies_ms: Vec<f64>,
    pub peak_rss_mb: f64,
    /// Jobs submitted in measured phases / of those, not success-terminal
    /// by the hard deadline or completed twice.
    pub attempted: u64,
    pub failed: u64,
    /// Output-check failures; non-empty makes the run incorrect.
    pub errors: Vec<String>,
    /// One per traced repetition.
    pub layer_samples: Vec<LayerSample>,
}

impl Measured {
    fn end_to_end(&self) -> BTreeMap<&'static str, f64> {
        let mut m = BTreeMap::new();
        m.insert("setup_s", stats::median(&self.setup_s));
        m.insert("jobs_per_s", stats::median(&self.rates));
        m.insert(
            "job_latency_p50_ms",
            stats::percentile(&self.latencies_ms, 0.50),
        );
        m.insert(
            "job_latency_p95_ms",
            stats::percentile(&self.latencies_ms, 0.95),
        );
        m.insert("peak_rss_mb", self.peak_rss_mb);
        m
    }

    fn per_layer(&self, probes: &LayerSample) -> BTreeMap<&'static str, f64> {
        let mut pools: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for s in &self.layer_samples {
            for (k, v) in s {
                pools.entry(k).or_default().push(*v);
            }
        }
        let mut m: BTreeMap<&'static str, f64> = pools
            .into_iter()
            .map(|(k, pool)| {
                let v = if COMBINE_BY_MAX.contains(&k) {
                    pool.iter().copied().fold(0.0, f64::max)
                } else {
                    stats::median(&pool)
                };
                (k, v)
            })
            .collect();
        m.insert("jobs_per_s_saturated", stats::median(&self.saturated_rates));
        m.insert("cpu_ms_per_job", stats::median(&self.cpu_ms_per_job));
        m.extend(probes.iter().map(|(k, v)| (*k, *v)));
        m
    }
}

/// The finished result of one run.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in table order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub errors: Vec<String>,
}

impl Outcome {
    pub fn new(m: Measured, traced: bool, probes: &LayerSample) -> Outcome {
        let metrics = if traced {
            let values = m.per_layer(probes);
            for k in values.keys() {
                assert!(
                    PER_LAYER.iter().any(|(n, ..)| n == k),
                    "per-layer metric {k} is not declared"
                );
            }
            PER_LAYER
                .iter()
                .map(|&(name, unit, _)| (name, values.get(name).copied().unwrap_or(0.0), unit))
                .collect()
        } else {
            let values = m.end_to_end();
            END_TO_END
                .iter()
                .map(|&(name, unit, ..)| (name, values[name], unit))
                .collect()
        };
        Outcome {
            correct: m.errors.is_empty() && m.failed == 0 && m.attempted > 0,
            attempted: m.attempted.max(1),
            failed: m.failed,
            metrics,
            errors: m.errors,
        }
    }

    pub fn value(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, ..)| *n == name)
            .map_or(0.0, |(_, v, _)| *v)
    }

    /// Reads back a line [`Outcome::to_json_line`] wrote (how `--all` and
    /// `--repeat-check` collect the runs they start as child processes).
    /// A metric this build does not declare is an error.
    pub fn from_json_line(line: &str) -> Option<Outcome> {
        let mut r: ResultLine = serde_json::from_str(line).ok()?;
        let declared = END_TO_END.iter().map(|&(n, u, ..)| (n, u));
        let metrics: Vec<_> = declared
            .chain(PER_LAYER.iter().map(|&(n, u, _)| (n, u)))
            .filter_map(|(name, unit)| Some((name, r.metrics.remove(name)?.value, unit)))
            .collect();
        r.metrics.is_empty().then_some(Outcome {
            correct: r.correct,
            attempted: r.attempted,
            failed: r.failed,
            metrics,
            errors: Vec::new(),
        })
    }

    /// The single-line JSON object the contract asks for.
    pub fn to_json_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, value, unit)| {
                let unit = unit.to_owned();
                (name.to_owned(), MetricValue { value, unit })
            })
            .collect();
        serde_json::to_string(&ResultLine {
            correct: self.correct,
            attempted: self.attempted,
            failed: self.failed,
            metrics,
        })
        .expect("render result")
    }
}

/// The result line's shape on the wire.
#[derive(Serialize, Deserialize)]
struct ResultLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, MetricValue>,
}

#[derive(Serialize, Deserialize)]
struct MetricValue {
    value: f64,
    unit: String,
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn names_in(v: &Value, key: &str) -> Vec<(String, String, String)> {
        v.get_field(key)
            .and_then(Value::as_array)
            .expect(key)
            .iter()
            .map(|m| {
                let s = |k: &str| m.get_field(k).and_then(Value::as_str).expect(k).to_owned();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let v = serde_json::value_from_str(&std::fs::read_to_string(path).expect(path)).unwrap();
        let own = |(n, u, b): (&str, &str, &str)| (n.to_owned(), u.to_owned(), b.to_owned());
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|&(n, u, b, _)| own((n, u, b)))
            .collect();
        assert_eq!(names_in(&v, "end_to_end"), e2e);
        let layers: Vec<_> = PER_LAYER.iter().map(|&t| own(t)).collect();
        assert_eq!(names_in(&v, "per_layer"), layers);
        for (m, &(name, .., bound)) in v
            .get_field("end_to_end")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .zip(END_TO_END)
        {
            assert_eq!(m.get_field("bound"), Some(&Value::Float(bound)), "{name}");
        }
        let workloads: Vec<String> = v
            .get_field("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| {
                w.get_field("name")
                    .and_then(Value::as_str)
                    .unwrap()
                    .to_owned()
            })
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut all: Vec<&str> = END_TO_END.iter().map(|t| t.0).collect();
        all.extend(PER_LAYER.iter().map(|t| t.0));
        for n in &all {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n);
    }

    #[test]
    fn result_line_has_the_contract_shape() {
        let m = Measured {
            setup_s: vec![0.5, 0.7, 0.6],
            rates: vec![100.0, 110.0],
            latencies_ms: (1..=100).map(f64::from).collect(),
            peak_rss_mb: 42.0,
            attempted: 1000,
            ..Default::default()
        };
        let o = Outcome::new(m, false, &LayerSample::new());
        assert!(o.correct);
        assert_eq!(o.value("setup_s"), 0.6);
        assert_eq!(o.value("jobs_per_s"), 105.0);
        assert_eq!(o.value("job_latency_p50_ms"), 50.0);
        assert_eq!(o.value("job_latency_p95_ms"), 95.0);
        let line = o.to_json_line();
        assert!(!line.contains('\n'));
        let back = Outcome::from_json_line(&line).expect("reads its own line");
        assert_eq!(back.metrics, o.metrics);
        assert_eq!((back.correct, back.attempted, back.failed), (true, 1000, 0));
        assert!(Outcome::from_json_line("{\"correct\":true}").is_none());
        let v = serde_json::value_from_str(&line).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            v.get_field("metrics").unwrap().as_object().unwrap().len(),
            END_TO_END.len()
        );
    }

    #[test]
    fn traced_result_reports_every_layer_metric_with_zero_for_bypassed() {
        let mut sample = LayerSample::new();
        sample.insert("rt.mailbox.hwm", 7.0);
        let mut sample2 = LayerSample::new();
        sample2.insert("rt.mailbox.hwm", 9.0);
        let m = Measured {
            rates: vec![5.0],
            saturated_rates: vec![50.0],
            cpu_ms_per_job: vec![1.0, 3.0],
            attempted: 10,
            layer_samples: vec![sample, sample2],
            ..Default::default()
        };
        let mut probes = LayerSample::new();
        probes.insert("rt.mailbox.hop_ns", 123.0);
        let o = Outcome::new(m, true, &probes);
        assert_eq!(o.metrics.len(), PER_LAYER.len());
        assert_eq!(o.value("rt.mailbox.hwm"), 9.0);
        assert_eq!(o.value("rt.mailbox.hop_ns"), 123.0);
        assert_eq!(o.value("jobs_per_s_saturated"), 50.0);
        assert_eq!(o.value("cpu_ms_per_job"), 2.0);
        assert_eq!(o.value("proto.wire.encode_ns_per_msg"), 0.0);
    }

    #[test]
    fn any_failed_job_or_check_makes_the_run_incorrect() {
        let base = || Measured {
            rates: vec![1.0],
            attempted: 5,
            ..Default::default()
        };
        let none = LayerSample::new();
        assert!(Outcome::new(base(), false, &none).correct);
        let mut failed = base();
        failed.failed = 1;
        assert!(!Outcome::new(failed, false, &none).correct);
        let mut bad = base();
        bad.errors.push("repetitions disagree".into());
        assert!(!Outcome::new(bad, false, &none).correct);
    }
}
