//! Exporters: JSONL event log, Chrome/Perfetto `trace_event` JSON, and
//! flight-dump rendering. All hand-rolled — the crate stays
//! dependency-free and only pays for strings at export time.

use std::fmt::Write;

use crate::recorder::{FlightDump, Tracer};
use crate::trace::{SpanRecord, TraceRecord};

/// Escapes `s` for inclusion inside a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders `s` as a complete JSON string literal, quotes included — the
/// one escaping path shared by every hand-rolled JSON emitter (metrics
/// snapshots, the cluster-view exposition, the JSONL exporters).
pub fn json_string(s: &str) -> String {
    format!("\"{}\"", json_escape(s))
}

/// One JSONL line for an event record (no trailing newline).
pub fn record_line(r: &TraceRecord) -> String {
    let mut s = String::with_capacity(96);
    let _ = write!(
        s,
        "{{\"kind\":\"event\",\"t_s\":{:.6},\"actor\":{},\"trace\":{},\"event\":\"{}\"",
        r.t_s,
        r.actor,
        r.trace.0,
        r.event.name()
    );
    r.event.write_json_fields(&mut s);
    s.push('}');
    s
}

fn span_line(r: &SpanRecord) -> String {
    format!(
        "{{\"kind\":\"span\",\"t_s\":{:.6},\"actor\":{},\"trace\":{},\"span\":\"{}\",\"wall_s\":{:.9}}}",
        r.t_s,
        r.actor,
        r.trace.0,
        r.kind.name(),
        r.wall_s
    )
}

/// A flight dump with the frozen ring contents inlined, so the forensic
/// record survives on its own.
fn dump_line(d: &FlightDump) -> String {
    let mut s = String::with_capacity(128 + d.total_events() * 96);
    let _ = write!(
        s,
        "{{\"kind\":\"dump\",\"t_s\":{:.6},\"reason\":\"{}\",\"rings\":[",
        d.t_s,
        json_escape(d.reason)
    );
    for (i, (actor, recs)) in d.rings.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{{\"actor\":{actor},\"events\":[");
        for (j, r) in recs.iter().enumerate() {
            if j > 0 {
                s.push(',');
            }
            s.push_str(&record_line(r));
        }
        s.push_str("]}");
    }
    s.push_str("]}");
    s
}

/// Full JSONL export: every event and span, one JSON object per line.
/// Events keep recording order (which is causal order within an actor);
/// spans follow, then one `dump` line per flight dump.
pub fn export_jsonl(t: &Tracer) -> String {
    let mut out = String::with_capacity(t.records.len() * 96 + t.spans.len() * 96);
    let events = t.records.iter().map(record_line);
    let spans = t.spans.iter().map(span_line);
    let dumps = t.dumps.iter().map(dump_line);
    for line in events.chain(spans).chain(dumps) {
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// Chrome/Perfetto `trace_event` JSON (the `{"traceEvents": [...]}`
/// object form). Spans become `"X"` complete events whose timestamp is
/// the *simulated* microsecond and whose duration is the measured
/// *wall-clock* microseconds (the pairing behind Figure 9); events
/// become `"i"` instants. Actors map to thread ids so Perfetto draws one
/// lane per actor.
pub fn export_chrome_trace(t: &Tracer) -> String {
    let mut out = String::with_capacity(64 + (t.records.len() + t.spans.len()) * 128);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    for s in &t.spans {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{}{}}}",
            s.kind.name(),
            s.t_s * 1e6,
            (s.wall_s * 1e6).max(0.001),
            s.actor,
            if s.trace.is_some() {
                format!(",\"args\":{{\"trace\":{}}}", s.trace.0)
            } else {
                String::new()
            }
        );
    }
    for r in &t.records {
        if !first {
            out.push(',');
        }
        first = false;
        let mut args = String::new();
        let _ = write!(args, "{{\"trace\":{}", r.trace.0);
        r.event.write_json_fields(&mut args);
        args.push('}');
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"event\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{:.3},\"pid\":1,\"tid\":{},\"args\":{}}}",
            r.event.name(),
            r.t_s * 1e6,
            // The dump marker's synthetic actor id would create a bogus lane.
            if r.actor == u32::MAX { 0 } else { r.actor },
            args
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::TracerConfig;
    use crate::trace::{SpanKind, TraceEvent, TraceId};

    fn sample_tracer() -> Tracer {
        let mut t = Tracer::new(TracerConfig::default());
        t.record(
            0.5,
            3,
            TraceId::from_job(0),
            TraceEvent::JobSubmitted { job: 0, app: 1 },
        );
        t.record(
            0.6,
            3,
            TraceId::from_job(0),
            TraceEvent::Grant {
                app: 1,
                unit: 0,
                machine: 4,
                count: 2,
            },
        );
        t.span(0.6, 3, TraceId::from_job(0), SpanKind::SchedDecision, 12e-6);
        t
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn jsonl_lines_are_objects() {
        let t = sample_tracer();
        let out = export_jsonl(&t);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        for l in &lines {
            assert!(l.starts_with('{') && l.ends_with('}'), "bad line: {l}");
        }
        assert!(lines[0].contains("\"event\":\"job_submitted\""));
        assert!(lines[0].contains("\"trace\":1"));
        assert!(lines[1].contains("\"count\":2"));
        assert!(lines[2].contains("\"span\":\"sched_decision\""));
    }

    #[test]
    fn dump_line_inlines_rings() {
        let mut t = sample_tracer();
        t.dump(1.0, "invariant");
        assert_eq!(t.dumps.len(), 1);
        let out = export_jsonl(&t);
        let line = out.lines().last().unwrap();
        assert!(line.starts_with("{\"kind\":\"dump\""));
        assert!(line.contains("\"reason\":\"invariant\""));
        assert!(line.contains("\"actor\":3"));
        assert!(line.contains("job_submitted"));
    }

    /// The whole export, byte for byte: `trace_dump` and the README's
    /// excerpt read this format.
    #[test]
    fn export_bytes_are_pinned() {
        let mut t = sample_tracer();
        t.dump(1.0, "invariant");
        let sim = concat!(
            r#"{"kind":"event","t_s":0.500000,"actor":3,"trace":1,"event":"job_submitted","job":0,"app":1}"#, "\n",
            r#"{"kind":"event","t_s":0.600000,"actor":3,"trace":1,"event":"grant","app":1,"unit":0,"machine":4,"count":2}"#, "\n",
            r#"{"kind":"event","t_s":1.000000,"actor":4294967295,"trace":0,"event":"flight_dumped","reason":"invariant","events":2}"#, "\n",
            r#"{"kind":"span","t_s":0.600000,"actor":3,"trace":1,"span":"sched_decision","wall_s":0.000012000}"#, "\n",
            r#"{"kind":"dump","t_s":1.000000,"reason":"invariant","rings":[{"actor":3,"events":["#,
            r#"{"kind":"event","t_s":0.500000,"actor":3,"trace":1,"event":"job_submitted","job":0,"app":1},"#,
            r#"{"kind":"event","t_s":0.600000,"actor":3,"trace":1,"event":"grant","app":1,"unit":0,"machine":4,"count":2}]}]}"#, "\n",
        );
        assert_eq!(export_jsonl(&t), sim);
        assert_eq!(record_line(&t.records[0]), sim.lines().next().unwrap());
    }

    #[test]
    fn absorb_merges_and_sorts_streams() {
        let mut a = sample_tracer();
        let mut b = Tracer::new(TracerConfig::default());
        b.record(0.1, 9, TraceId::NONE, TraceEvent::NodeDown { machine: 2 });
        b.span(0.2, 9, TraceId::NONE, SpanKind::SchedDecision, 5e-6);
        a.absorb(b);
        assert_eq!(a.records.len(), 3);
        assert_eq!(a.spans.len(), 2);
        assert!(a.records.windows(2).all(|w| w[0].t_s <= w[1].t_s));
        assert!(a.spans.windows(2).all(|w| w[0].t_s <= w[1].t_s));
    }

    #[test]
    fn chrome_trace_shape() {
        let t = sample_tracer();
        let out = export_chrome_trace(&t);
        assert!(out.starts_with("{\"traceEvents\":["));
        assert!(out.ends_with("]}"));
        assert!(out.contains("\"ph\":\"X\""));
        assert!(out.contains("\"ph\":\"i\""));
        // Sim µs timestamps.
        assert!(out.contains("\"ts\":500000.000"));
        // Wall µs duration.
        assert!(out.contains("\"dur\":12.000"));
    }
}
