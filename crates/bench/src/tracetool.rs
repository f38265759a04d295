//! Offline reconstruction of causal timelines from the fuxi-obs JSONL
//! export. The `trace_dump` binary is a thin CLI over this module so the
//! parsing and reconstruction logic stays unit-testable: given the event
//! stream of a run, it rebuilds per-job lifecycles (submit → JM launch →
//! grants → workers → instances → finish, keyed by the causal trace id)
//! and the cluster-level failover timeline (elections, lock losses,
//! rebuild windows, node churn, flight dumps).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use serde_json::Value;

/// Extracts a number from any of the shim's numeric variants.
fn num(v: &Value) -> Option<f64> {
    match v {
        Value::UInt(u) => Some(*u as f64),
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

/// Extracts an unsigned integer (tolerating float-typed JSON numbers).
fn unum(v: &Value) -> Option<u64> {
    match v {
        Value::UInt(u) => Some(*u),
        Value::Int(i) if *i >= 0 => Some(*i as u64),
        Value::Float(f) if *f >= 0.0 => Some(*f as u64),
        _ => None,
    }
}

/// Timestamp of a line, its `t_s`.
fn timestamp(v: &Value) -> f64 {
    v.get_field("t_s").and_then(num).unwrap_or(0.0)
}

/// One `"kind":"event"` line.
#[derive(Debug, Clone)]
pub struct EventLine {
    pub t_s: f64,
    pub actor: u32,
    pub trace: u64,
    pub event: String,
    /// The full parsed object, for event-specific fields.
    pub value: Value,
}

impl EventLine {
    /// Looks up an event payload field as an unsigned integer.
    pub fn field_u64(&self, key: &str) -> Option<u64> {
        self.value.get_field(key).and_then(unum)
    }

    /// Looks up an event payload field as a bool.
    pub fn field_bool(&self, key: &str) -> Option<bool> {
        match self.value.get_field(key) {
            Some(Value::Bool(b)) => Some(*b),
            _ => None,
        }
    }

    /// Renders the event-specific payload (`k=v` pairs, envelope keys
    /// skipped) for human-readable timelines.
    pub fn detail(&self) -> String {
        const ENVELOPE: [&str; 5] = ["kind", "t_s", "actor", "trace", "event"];
        let mut out = String::new();
        if let Some(obj) = self.value.as_object() {
            for (k, v) in obj {
                if ENVELOPE.contains(&k.as_str()) {
                    continue;
                }
                if !out.is_empty() {
                    out.push(' ');
                }
                match v {
                    Value::Str(s) => {
                        let _ = write!(out, "{k}={s}");
                    }
                    Value::Bool(b) => {
                        let _ = write!(out, "{k}={b}");
                    }
                    other => match num(other) {
                        Some(n) if n.fract() == 0.0 => {
                            let _ = write!(out, "{k}={}", n as i64);
                        }
                        Some(n) => {
                            let _ = write!(out, "{k}={n}");
                        }
                        None => {
                            let _ = write!(out, "{k}=?");
                        }
                    },
                }
            }
        }
        out
    }
}

/// One `"kind":"span"` line.
#[derive(Debug, Clone)]
pub struct SpanLine {
    pub t_s: f64,
    pub actor: u32,
    pub trace: u64,
    pub span: String,
    pub wall_s: f64,
}

/// One `"kind":"dump"` line (flight-recorder dump), summarised.
#[derive(Debug, Clone)]
pub struct DumpLine {
    pub t_s: f64,
    pub reason: String,
    /// Actors whose rings were frozen into the dump.
    pub actors: Vec<u32>,
    /// Total events across all dumped rings.
    pub events: usize,
}

/// A fully parsed JSONL export.
#[derive(Debug, Default)]
pub struct TraceLog {
    pub events: Vec<EventLine>,
    pub spans: Vec<SpanLine>,
    pub dumps: Vec<DumpLine>,
}

impl TraceLog {
    /// Parses the JSONL text produced by `fuxi_obs::export::export_jsonl`.
    /// Unknown `kind`s are skipped (forward compatibility); malformed
    /// JSON is an error with the offending line number.
    pub fn parse(text: &str) -> Result<TraceLog, String> {
        let mut log = TraceLog::default();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let v = serde_json::value_from_str(line)
                .map_err(|e| format!("line {}: {e:?}", i + 1))?;
            let kind = v.get_field("kind").and_then(|k| k.as_str()).unwrap_or("");
            match kind {
                "event" => log.events.push(EventLine {
                    t_s: timestamp(&v),
                    actor: v.get_field("actor").and_then(unum).unwrap_or(0) as u32,
                    trace: v.get_field("trace").and_then(unum).unwrap_or(0),
                    event: v
                        .get_field("event")
                        .and_then(|e| e.as_str())
                        .unwrap_or("")
                        .to_owned(),
                    value: v,
                }),
                "span" => log.spans.push(SpanLine {
                    t_s: timestamp(&v),
                    actor: v.get_field("actor").and_then(unum).unwrap_or(0) as u32,
                    trace: v.get_field("trace").and_then(unum).unwrap_or(0),
                    span: v
                        .get_field("span")
                        .and_then(|s| s.as_str())
                        .unwrap_or("")
                        .to_owned(),
                    wall_s: v.get_field("wall_s").and_then(num).unwrap_or(0.0),
                }),
                "dump" => {
                    let mut actors = Vec::new();
                    let mut events = 0usize;
                    if let Some(rings) = v.get_field("rings").and_then(|r| r.as_array()) {
                        for ring in rings {
                            if let Some(a) = ring.get_field("actor").and_then(unum) {
                                actors.push(a as u32);
                            }
                            events += ring
                                .get_field("events")
                                .and_then(|e| e.as_array())
                                .map(|e| e.len())
                                .unwrap_or(0);
                        }
                    }
                    log.dumps.push(DumpLine {
                        t_s: timestamp(&v),
                        reason: v
                            .get_field("reason")
                            .and_then(|r| r.as_str())
                            .unwrap_or("")
                            .to_owned(),
                        actors,
                        events,
                    });
                }
                _ => {}
            }
        }
        Ok(log)
    }
}

/// The reconstructed lifecycle of one job, keyed by its causal trace id.
#[derive(Debug)]
pub struct JobLifecycle {
    pub trace: u64,
    /// Job id as named by `job_submitted` (`trace - 1` by the minting
    /// convention; taken from the event when present).
    pub job: Option<u64>,
    pub app: Option<u64>,
    /// Sim time of the first / last event on this trace.
    pub first_s: f64,
    pub last_s: f64,
    pub success: Option<bool>,
    /// Event counts by name — the shape of the lifecycle at a glance.
    pub counts: BTreeMap<String, usize>,
    /// Indices into `TraceLog::events`, in recording order.
    pub events: Vec<usize>,
}

/// Groups the event stream by trace id into per-job lifecycles. Events
/// on the null trace (id 0 — infrastructure not caused by any one job)
/// are excluded; use [`failover_timeline`] for those.
pub fn job_lifecycles(log: &TraceLog) -> Vec<JobLifecycle> {
    let mut by_trace: BTreeMap<u64, JobLifecycle> = BTreeMap::new();
    for (i, e) in log.events.iter().enumerate() {
        if e.trace == 0 || e.event == "flight_dumped" {
            continue;
        }
        let lc = by_trace.entry(e.trace).or_insert_with(|| JobLifecycle {
            trace: e.trace,
            job: None,
            app: None,
            first_s: e.t_s,
            last_s: e.t_s,
            success: None,
            counts: BTreeMap::new(),
            events: Vec::new(),
        });
        lc.first_s = lc.first_s.min(e.t_s);
        lc.last_s = lc.last_s.max(e.t_s);
        *lc.counts.entry(e.event.clone()).or_insert(0) += 1;
        lc.events.push(i);
        match e.event.as_str() {
            "job_submitted" => {
                lc.job = e.field_u64("job");
                lc.app = e.field_u64("app");
            }
            "job_finished" => {
                lc.job = lc.job.or_else(|| e.field_u64("job"));
                lc.app = lc.app.or_else(|| e.field_u64("app"));
                lc.success = e.field_bool("success");
            }
            _ => {
                if lc.app.is_none() {
                    lc.app = e.field_u64("app");
                }
            }
        }
    }
    by_trace.into_values().collect()
}

/// The cluster-level failover/fault timeline: every election, lock
/// loss, rebuild window, node transition, and flight dump, in time order.
#[derive(Debug, Default)]
pub struct FailoverTimeline {
    /// `(t_s, description)`, sorted by time.
    pub entries: Vec<(f64, String)>,
    pub elections: usize,
    /// Elections that inherited state from a previous primary.
    pub failovers: usize,
    /// `(started_s, done_s)` rebuild windows (`done_s = NaN` if the log
    /// ends mid-rebuild).
    pub rebuilds: Vec<(f64, f64)>,
    pub node_downs: usize,
    pub dumps: Vec<DumpLine>,
}

const INFRA_EVENTS: [&str; 7] = [
    "master_elected",
    "master_lock_lost",
    "rebuild_started",
    "rebuild_done",
    "node_down",
    "node_up",
    "flight_dumped",
];

/// Extracts the failover timeline from a parsed log.
pub fn failover_timeline(log: &TraceLog) -> FailoverTimeline {
    let mut ft = FailoverTimeline::default();
    let mut open_rebuild: Option<f64> = None;
    for e in &log.events {
        if !INFRA_EVENTS.contains(&e.event.as_str()) {
            continue;
        }
        match e.event.as_str() {
            "master_elected" => {
                ft.elections += 1;
                if e.field_bool("failover") == Some(true) {
                    ft.failovers += 1;
                }
            }
            "rebuild_started" => open_rebuild = Some(e.t_s),
            "rebuild_done" => {
                let start = open_rebuild.take().unwrap_or(e.t_s);
                ft.rebuilds.push((start, e.t_s));
            }
            "node_down" => ft.node_downs += 1,
            _ => {}
        }
        ft.entries.push((e.t_s, format!("{} {}", e.event, e.detail())));
    }
    if let Some(start) = open_rebuild {
        ft.rebuilds.push((start, f64::NAN));
    }
    for d in &log.dumps {
        ft.entries.push((
            d.t_s,
            format!(
                "FLIGHT DUMP reason={} ({} events across {} actors)",
                d.reason,
                d.events,
                d.actors.len()
            ),
        ));
        ft.dumps.push(d.clone());
    }
    ft.entries
        .sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    ft
}

/// Per-span-kind summary: `(count, median wall seconds)`.
pub fn span_summary(log: &TraceLog) -> BTreeMap<String, (usize, f64)> {
    let mut by_kind: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for s in &log.spans {
        by_kind.entry(s.span.clone()).or_default().push(s.wall_s);
    }
    by_kind
        .into_iter()
        .map(|(k, mut v)| {
            v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            let median = v[v.len() / 2];
            (k, (v.len(), median))
        })
        .collect()
}

/// Renders one job's lifecycle as an indented timeline.
pub fn render_job(log: &TraceLog, lc: &JobLifecycle, max_events: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "trace {} (job {}, app {}): {} events over [{:.3}s, {:.3}s]{}",
        lc.trace,
        lc.job.map_or("?".into(), |j| j.to_string()),
        lc.app.map_or("?".into(), |a| a.to_string()),
        lc.events.len(),
        lc.first_s,
        lc.last_s,
        match lc.success {
            Some(true) => " — SUCCEEDED",
            Some(false) => " — FAILED",
            None => " — (no terminal event)",
        }
    );
    let shown = lc.events.len().min(max_events);
    for &i in lc.events.iter().take(shown) {
        let e = &log.events[i];
        let _ = writeln!(out, "  {:>12.6}s  actor {:<4} {} {}", e.t_s, e.actor, e.event, e.detail());
    }
    if shown < lc.events.len() {
        let _ = writeln!(out, "  ... {} more events elided", lc.events.len() - shown);
    }
    out
}

/// Renders the failover timeline.
pub fn render_failover(ft: &FailoverTimeline) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "elections: {} ({} failovers), rebuild windows: {}, node_down events: {}, flight dumps: {}",
        ft.elections,
        ft.failovers,
        ft.rebuilds.len(),
        ft.node_downs,
        ft.dumps.len()
    );
    for (start, done) in &ft.rebuilds {
        if done.is_nan() {
            let _ = writeln!(out, "  rebuild window: {start:.3}s -> (log ends mid-rebuild)");
        } else {
            let _ = writeln!(
                out,
                "  rebuild window: {start:.3}s -> {done:.3}s ({:.3}s)",
                done - start
            );
        }
    }
    for (t, line) in &ft.entries {
        let _ = writeln!(out, "  {t:>12.6}s  {line}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuxi_sim::obs::export::export_jsonl;
    use fuxi_sim::obs::{TraceEvent, TraceId, Tracer, TracerConfig};
    use fuxi_sim::SpanKind;

    /// Builds a stream with the real exporter so the parser is tested
    /// against the actual wire format, not a hand-typed approximation.
    fn sample() -> String {
        let mut t = Tracer::new(TracerConfig::default());
        let tr = TraceId::from_job(7);
        t.record(1.0, 2, tr, TraceEvent::JobSubmitted { job: 7, app: 3 });
        t.record(
            1.5,
            2,
            tr,
            TraceEvent::Grant { app: 3, unit: 0, machine: 9, count: 4 },
        );
        t.record(
            2.0,
            5,
            tr,
            TraceEvent::WorkerStarted { app: 3, worker: 11, machine: 9 },
        );
        t.record(
            9.0,
            2,
            tr,
            TraceEvent::JobFinished { job: 7, app: 3, success: true },
        );
        t.record(3.0, 2, TraceId::NONE, TraceEvent::MasterLockLost { actor: 2 });
        t.record(
            3.5,
            4,
            TraceId::NONE,
            TraceEvent::MasterElected { actor: 4, failover: true },
        );
        t.record(3.6, 4, TraceId::NONE, TraceEvent::RebuildStarted { jobs: 1 });
        t.record(4.1, 4, TraceId::NONE, TraceEvent::RebuildDone { apps_seen: 1, capped: true });
        t.span(1.5, 2, tr, SpanKind::SchedDecision, 10e-6);
        t.span(1.6, 2, tr, SpanKind::SchedDecision, 30e-6);
        t.dump(3.5, "master_failover");
        export_jsonl(&t)
    }

    #[test]
    fn parses_real_export_format() {
        let log = TraceLog::parse(&sample()).unwrap();
        // 8 direct records + 1 FlightDumped marker appended by dump().
        assert_eq!(log.events.len(), 9);
        assert_eq!(log.spans.len(), 2);
        assert_eq!(log.dumps.len(), 1);
        assert_eq!(log.dumps[0].reason, "master_failover");
        assert!(log.dumps[0].events > 0);
        assert_eq!(log.events[1].field_u64("count"), Some(4));
    }

    #[test]
    fn reconstructs_job_lifecycle() {
        let log = TraceLog::parse(&sample()).unwrap();
        let jobs = job_lifecycles(&log);
        assert_eq!(jobs.len(), 1);
        let lc = &jobs[0];
        assert_eq!(lc.trace, 8); // from_job(7) = 8
        assert_eq!(lc.job, Some(7));
        assert_eq!(lc.app, Some(3));
        assert_eq!(lc.success, Some(true));
        assert_eq!(lc.counts["grant"], 1);
        assert_eq!(lc.counts["worker_started"], 1);
        assert!((lc.first_s - 1.0).abs() < 1e-9 && (lc.last_s - 9.0).abs() < 1e-9);
        let rendered = render_job(&log, lc, 100);
        assert!(rendered.contains("SUCCEEDED"));
        assert!(rendered.contains("worker_started"));
    }

    #[test]
    fn reconstructs_failover_timeline() {
        let log = TraceLog::parse(&sample()).unwrap();
        let ft = failover_timeline(&log);
        assert_eq!(ft.elections, 1);
        assert_eq!(ft.failovers, 1);
        assert_eq!(ft.rebuilds.len(), 1);
        assert!((ft.rebuilds[0].1 - ft.rebuilds[0].0 - 0.5).abs() < 1e-9);
        assert_eq!(ft.dumps.len(), 1);
        let rendered = render_failover(&ft);
        assert!(rendered.contains("master_elected master=4 failover=true"));
        assert!(rendered.contains("FLIGHT DUMP reason=master_failover"));
        // Entries are time-sorted.
        assert!(ft.entries.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn span_summary_medians() {
        let log = TraceLog::parse(&sample()).unwrap();
        let s = span_summary(&log);
        let (n, median) = s["sched_decision"];
        assert_eq!(n, 2);
        assert!((median - 30e-6).abs() < 1e-12);
    }

    #[test]
    fn tolerates_blank_and_unknown_lines() {
        let text = "\n{\"kind\":\"mystery\",\"x\":1}\n\n";
        let log = TraceLog::parse(text).unwrap();
        assert!(log.events.is_empty() && log.spans.is_empty() && log.dumps.is_empty());
        assert!(TraceLog::parse("{not json").is_err());
    }
}
