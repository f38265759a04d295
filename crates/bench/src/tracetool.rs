//! The trace file, written and read in one module. [`export_jsonl`] writes
//! a run's `fuxi-obs` records one JSON object per line — every event, then
//! every span, then one line per flight dump — and [`TraceLog::parse`]
//! reads them back into the same types: `fuxi-obs` declares each line's
//! shape once, by deriving serde on [`TraceRecord`], [`SpanRecord`] and
//! [`FlightDump`], and this module renders and parses the text.
//! [`export_chrome_trace`] writes the same run for Perfetto.
//!
//! The `trace_dump` binary is a thin CLI over the reconstruction here:
//! given the event stream of a run, it rebuilds per-job lifecycles
//! (submit → JM launch → grants → workers → instances → finish, keyed by
//! the causal trace id) and the cluster-level failover timeline
//! (elections, lock losses, rebuild windows, node churn, flight dumps).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use fuxi_sim::obs::{FlightDump, SpanRecord, TraceEvent, TraceId, TraceRecord, Tracer};
use serde::{Deserialize, Serialize};
use serde_json::Value;

/// One line of the trace file. Each type carries its own `kind` tag
/// (`event`, `span`, `dump`), so a line is read as the one that accepts it.
#[derive(Debug, Serialize, Deserialize)]
#[serde(untagged)]
pub enum TraceLine {
    /// A recorded event.
    Event(TraceRecord),
    /// A completed span.
    Span(SpanRecord),
    /// A flight-recorder dump, the frozen rings inline.
    Dump(FlightDump),
}

/// The trace file of `t`. Events keep recording order (causal order within
/// an actor); spans follow, then one line per flight dump.
pub fn export_jsonl(t: &Tracer) -> String {
    let events = t.records.iter().copied().map(TraceLine::Event);
    let spans = t.spans.iter().copied().map(TraceLine::Span);
    let dumps = t.dumps.iter().cloned().map(TraceLine::Dump);
    let mut out = String::new();
    for line in events.chain(spans).chain(dumps) {
        out.push_str(&serde_json::to_string(&line).expect("a trace line serializes"));
        out.push('\n');
    }
    out
}

/// Chrome/Perfetto `trace_event` JSON, the `{"traceEvents": [...]}` form.
#[derive(Serialize)]
struct ChromeTrace {
    #[serde(rename = "traceEvents")]
    trace_events: Vec<ChromeEvent>,
}

#[derive(Serialize)]
struct ChromeEvent {
    name: &'static str,
    cat: &'static str,
    ph: &'static str,
    ts: f64,
    #[serde(skip_serializing_if = "Option::is_none")]
    dur: Option<f64>,
    #[serde(skip_serializing_if = "Option::is_none")]
    s: Option<&'static str>,
    pid: u32,
    tid: u32,
    args: ChromeArgs,
}

#[derive(Serialize)]
struct ChromeArgs {
    trace: TraceId,
    #[serde(flatten)]
    event: Option<TraceEvent>,
}

/// The run as a Chrome/Perfetto trace. Spans become `"X"` complete events
/// whose timestamp is the *simulated* microsecond and whose duration is the
/// measured *wall-clock* microseconds (the pairing behind Figure 9); events
/// become `"i"` instants. Actors map to thread ids so Perfetto draws one
/// lane per actor.
pub fn export_chrome_trace(t: &Tracer) -> String {
    let spans = t.spans.iter().map(|s| ChromeEvent {
        name: s.kind.name(),
        cat: "span",
        ph: "X",
        ts: s.t_s * 1e6,
        dur: Some((s.wall_s * 1e6).max(0.001)),
        s: None,
        pid: 1,
        tid: s.actor,
        args: ChromeArgs { trace: s.trace, event: None },
    });
    let events = t.records.iter().map(|r| ChromeEvent {
        name: r.event.name(),
        cat: "event",
        ph: "i",
        ts: r.t_s * 1e6,
        dur: None,
        s: Some("t"),
        pid: 1,
        // The dump marker's synthetic actor id would create a bogus lane.
        tid: if r.actor == u32::MAX { 0 } else { r.actor },
        args: ChromeArgs { trace: r.trace, event: Some(r.event) },
    });
    let doc = ChromeTrace { trace_events: spans.chain(events).collect() };
    serde_json::to_string(&doc).expect("a Chrome trace serializes")
}

/// A parsed trace file.
#[derive(Debug, Default)]
pub struct TraceLog {
    pub events: Vec<TraceRecord>,
    pub spans: Vec<SpanRecord>,
    pub dumps: Vec<FlightDump>,
}

impl TraceLog {
    /// Parses a trace file [`export_jsonl`] wrote. Blank lines are skipped;
    /// a line that is none of the three kinds is an error naming its line.
    pub fn parse(text: &str) -> Result<TraceLog, String> {
        let mut log = TraceLog::default();
        for (i, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
            match serde_json::from_str(line).map_err(|e| format!("line {}: {e}", i + 1))? {
                TraceLine::Event(r) => log.events.push(r),
                TraceLine::Span(s) => log.spans.push(s),
                TraceLine::Dump(d) => log.dumps.push(d),
            }
        }
        Ok(log)
    }
}

/// An event's payload as `k=v` pairs, in the order its line carries them.
pub fn detail(event: &TraceEvent) -> String {
    let Value::Object(fields) = serde::Serialize::to_value(event) else {
        unreachable!("an event serializes as an object")
    };
    let pairs = fields.iter().filter(|(k, _)| k != "event").map(|(k, v)| match v {
        Value::Str(s) => format!("{k}={s}"),
        v => format!("{k}={}", serde_json::to_string(v).expect("a scalar serializes")),
    });
    pairs.collect::<Vec<_>>().join(" ")
}

/// The application an event names, if it names one.
fn app_of(e: &TraceEvent) -> Option<u32> {
    use TraceEvent::*;
    match *e {
        JobSubmitted { app, .. }
        | JmLaunchRequested { app, .. }
        | JmStarted { app, .. }
        | JmExited { app, .. }
        | Grant { app, .. }
        | Revoke { app, .. }
        | RequestApplied { app, .. }
        | WorkerLaunchRequested { app, .. }
        | WorkerStarted { app, .. }
        | WorkerExited { app, .. }
        | JobFinished { app, .. } => Some(app),
        _ => None,
    }
}

/// The reconstructed lifecycle of one job, keyed by its causal trace id.
#[derive(Debug)]
pub struct JobLifecycle {
    pub trace: u64,
    /// Job id as named by `job_submitted` (`trace - 1` by the minting
    /// convention; taken from the event when present).
    pub job: Option<u32>,
    pub app: Option<u32>,
    /// Sim time of the first / last event on this trace.
    pub first_s: f64,
    pub last_s: f64,
    pub success: Option<bool>,
    /// Event counts by name — the shape of the lifecycle at a glance.
    pub counts: BTreeMap<&'static str, usize>,
    /// Indices into `TraceLog::events`, in recording order.
    pub events: Vec<usize>,
}

/// Groups the event stream by trace id into per-job lifecycles. Events
/// on the null trace (id 0 — infrastructure not caused by any one job)
/// are excluded; use [`failover_timeline`] for those.
pub fn job_lifecycles(log: &TraceLog) -> Vec<JobLifecycle> {
    let mut by_trace: BTreeMap<u64, JobLifecycle> = BTreeMap::new();
    for (i, e) in log.events.iter().enumerate() {
        if !e.trace.is_some() || matches!(e.event, TraceEvent::FlightDumped { .. }) {
            continue;
        }
        let lc = by_trace.entry(e.trace.0).or_insert_with(|| JobLifecycle {
            trace: e.trace.0,
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
        *lc.counts.entry(e.event.name()).or_insert(0) += 1;
        lc.events.push(i);
        match e.event {
            TraceEvent::JobSubmitted { job, app } => {
                lc.job = Some(job);
                lc.app = Some(app);
            }
            TraceEvent::JobFinished { job, app, success } => {
                lc.job = lc.job.or(Some(job));
                lc.app = lc.app.or(Some(app));
                lc.success = Some(success);
            }
            other => lc.app = lc.app.or(app_of(&other)),
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
    /// Flight dumps in the log.
    pub dumps: usize,
}

/// Extracts the failover timeline from a parsed log.
pub fn failover_timeline(log: &TraceLog) -> FailoverTimeline {
    let mut ft = FailoverTimeline::default();
    let mut open_rebuild: Option<f64> = None;
    for e in &log.events {
        match e.event {
            TraceEvent::MasterElected { failover, .. } => {
                ft.elections += 1;
                ft.failovers += usize::from(failover);
            }
            TraceEvent::RebuildStarted { .. } => open_rebuild = Some(e.t_s),
            TraceEvent::RebuildDone { .. } => {
                let start = open_rebuild.take().unwrap_or(e.t_s);
                ft.rebuilds.push((start, e.t_s));
            }
            TraceEvent::NodeDown { .. } => ft.node_downs += 1,
            TraceEvent::MasterLockLost { .. }
            | TraceEvent::NodeUp { .. }
            | TraceEvent::FlightDumped { .. } => {}
            _ => continue,
        }
        ft.entries.push((e.t_s, format!("{} {}", e.event.name(), detail(&e.event))));
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
                d.total_events(),
                d.rings.len()
            ),
        ));
    }
    ft.dumps = log.dumps.len();
    ft.entries.sort_by(|a, b| a.0.total_cmp(&b.0));
    ft
}

/// Per-span-kind summary: `(count, median wall seconds)`.
pub fn span_summary(log: &TraceLog) -> BTreeMap<&'static str, (usize, f64)> {
    let mut by_kind: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for s in &log.spans {
        by_kind.entry(s.kind.name()).or_default().push(s.wall_s);
    }
    by_kind
        .into_iter()
        .map(|(k, mut v)| {
            v.sort_by(f64::total_cmp);
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
        let (name, detail) = (e.event.name(), detail(&e.event));
        let _ = writeln!(out, "  {:>12.6}s  actor {:<4} {name} {detail}", e.t_s, e.actor);
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
        ft.dumps
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
    use fuxi_sim::obs::TracerConfig;
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
        assert!(log.dumps[0].total_events() > 0);
        assert!(matches!(log.events[1].event, TraceEvent::Grant { count: 4, .. }));
    }

    /// One record of every event variant, a span and a flight dump through
    /// the file and back: every envelope and payload field survives, and
    /// each line names its event as `TraceEvent::name` does.
    #[test]
    fn every_record_kind_round_trips_through_the_file() {
        use TraceEvent::*;
        let events = [
            JobSubmitted { job: 1, app: 2 },
            JmLaunchRequested { app: 2, machine: 3 },
            JmStarted { app: 2, machine: 3 },
            JmExited { app: 2, machine: 3 },
            Grant { app: 2, unit: 4, machine: 5, count: 6 },
            Revoke { app: 2, unit: 4, machine: 5, count: 1 },
            RequestApplied { app: 2, deltas: 7 },
            WorkerLaunchRequested { app: 2, worker: 1 << 40, machine: 5 },
            WorkerStarted { app: 2, worker: 1 << 40, machine: 5 },
            WorkerExited { app: 2, worker: 1 << 40, machine: 5, reason: "launch_failed" },
            InstanceAssigned { instance: 9, attempt: 2, worker: 8 },
            InstanceFinished { instance: 9, attempt: 2, ok: false },
            JobFinished { job: 1, app: 2, success: true },
            NodeDown { machine: 5 },
            NodeUp { machine: 5 },
            MasterElected { actor: 11, failover: true },
            MasterLockLost { actor: 10 },
            RebuildStarted { jobs: 3 },
            RebuildDone { apps_seen: 3, capped: false },
            FlightDumped { reason: "invariant", events: 12 },
            SloAlert { rule: "pending_age", raised: true, value: 8.4, threshold: 0.1 },
        ];
        let mut t = Tracer::new(TracerConfig::default());
        for (i, &e) in events.iter().enumerate() {
            t.record(0.1 * i as f64 + 1e-7, 3 + i as u32, TraceId::from_job(i as u32), e);
        }
        t.span(0.25, 3, TraceId::from_job(1), SpanKind::Checkpoint, 12.5e-6);
        t.dump(4.0, "slo_pending_age");

        for e in &events {
            let tag = serde::Serialize::to_value(e).get_field("event").cloned();
            assert_eq!(tag, Some(Value::Str(e.name().into())));
        }
        let text = export_jsonl(&t);
        assert!(text.starts_with(r#"{"kind":"event","t_s":1e-7,"actor":3,"trace":1,"event":"job_submitted","#));
        let log = TraceLog::parse(&text).unwrap();
        assert_eq!(log.events, t.records);
        assert_eq!(log.spans, t.spans);
        assert_eq!(log.dumps, t.dumps);
        assert_eq!(log.dumps[0].total_events(), events.len());
    }

    /// The whole export, byte for byte: the README's excerpt and every
    /// `trace_dump` user read this format.
    #[test]
    fn export_bytes_are_pinned() {
        let mut t = Tracer::new(TracerConfig::default());
        t.record(0.5, 3, TraceId::from_job(0), TraceEvent::JobSubmitted { job: 0, app: 1 });
        let grant = TraceEvent::Grant { app: 1, unit: 0, machine: 4, count: 2 };
        t.record(0.6, 3, TraceId::from_job(0), grant);
        t.span(0.6, 3, TraceId::from_job(0), SpanKind::SchedDecision, 12e-6);
        t.dump(1.0, "invariant");
        let want = concat!(
            r#"{"kind":"event","t_s":0.5,"actor":3,"trace":1,"event":"job_submitted","job":0,"app":1}"#, "\n",
            r#"{"kind":"event","t_s":0.6,"actor":3,"trace":1,"event":"grant","app":1,"unit":0,"machine":4,"count":2}"#, "\n",
            r#"{"kind":"event","t_s":1.0,"actor":4294967295,"trace":0,"event":"flight_dumped","reason":"invariant","events":2}"#, "\n",
            r#"{"kind":"span","t_s":0.6,"actor":3,"trace":1,"span":"sched_decision","wall_s":1.2e-5}"#, "\n",
            r#"{"kind":"dump","t_s":1.0,"reason":"invariant","rings":[{"actor":3,"events":["#,
            r#"{"kind":"event","t_s":0.5,"actor":3,"trace":1,"event":"job_submitted","job":0,"app":1},"#,
            r#"{"kind":"event","t_s":0.6,"actor":3,"trace":1,"event":"grant","app":1,"unit":0,"machine":4,"count":2}]}]}"#, "\n",
        );
        assert_eq!(export_jsonl(&t), want);
    }

    #[test]
    fn chrome_trace_shape() {
        let mut t = Tracer::new(TracerConfig::default());
        t.record(0.5, 3, TraceId::from_job(0), TraceEvent::JobSubmitted { job: 0, app: 1 });
        t.span(0.6, 3, TraceId::from_job(0), SpanKind::SchedDecision, 12e-6);
        let out = export_chrome_trace(&t);
        assert_eq!(
            out,
            concat!(
                r#"{"traceEvents":["#,
                r#"{"name":"sched_decision","cat":"span","ph":"X","ts":600000.0,"dur":12.0,"pid":1,"tid":3,"args":{"trace":1}},"#,
                r#"{"name":"job_submitted","cat":"event","ph":"i","ts":500000.0,"s":"t","pid":1,"tid":3,"#,
                r#""args":{"trace":1,"event":"job_submitted","job":0,"app":1}}]}"#,
            )
        );
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
        assert!(rendered.contains("grant app=3 unit=0 machine=9 count=4"), "{rendered}");
    }

    #[test]
    fn reconstructs_failover_timeline() {
        let log = TraceLog::parse(&sample()).unwrap();
        let ft = failover_timeline(&log);
        assert_eq!(ft.elections, 1);
        assert_eq!(ft.failovers, 1);
        assert_eq!(ft.rebuilds.len(), 1);
        assert!((ft.rebuilds[0].1 - ft.rebuilds[0].0 - 0.5).abs() < 1e-9);
        assert_eq!(ft.dumps, 1);
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
    fn skips_blank_lines_and_names_a_bad_one() {
        let text = format!("\n{}\n\n", sample().lines().next().unwrap());
        assert_eq!(TraceLog::parse(&text).unwrap().events.len(), 1);
        let err = TraceLog::parse("\n{\"kind\":\"mystery\",\"x\":1}\n").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        assert!(TraceLog::parse("{not json").is_err());
    }
}
