//! The [`Tracer`]: event log, span sink, and per-actor flight recorder.

use std::collections::HashMap;

use crate::trace::{SpanKind, SpanRecord, TraceEvent, TraceId, TraceRecord};

/// Tracer switch.
#[derive(Debug, Clone)]
pub struct TracerConfig {
    /// Master switch. When `false` every record call is a no-op branch.
    pub enabled: bool,
}

impl Default for TracerConfig {
    fn default() -> Self {
        TracerConfig { enabled: true }
    }
}

/// Capacity of each actor's flight ring.
const RING_CAPACITY: usize = 256;
/// A flight dump fires when at least this many distinct machines go down
/// within [`STORM_WINDOW_S`].
const STORM_THRESHOLD: usize = 3;
/// Sliding window for node-down storm detection, seconds.
const STORM_WINDOW_S: f64 = 10.0;

/// Fixed-capacity ring of the most recent [`TraceRecord`]s for one actor.
#[derive(Debug, Clone)]
pub struct FlightRing {
    buf: Vec<TraceRecord>,
    head: usize,
    cap: usize,
}

impl FlightRing {
    /// New empty ring holding at most `cap` records.
    pub fn new(cap: usize) -> FlightRing {
        FlightRing {
            buf: Vec::with_capacity(cap.min(64)),
            head: 0,
            cap: cap.max(1),
        }
    }

    /// Records one event, evicting the oldest when full.
    pub fn push(&mut self, rec: TraceRecord) {
        if self.buf.len() < self.cap {
            self.buf.push(rec);
        } else {
            self.buf[self.head] = rec;
            self.head = (self.head + 1) % self.cap;
        }
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Records oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceRecord> {
        self.buf[self.head..].iter().chain(self.buf[..self.head].iter())
    }
}

/// A flight-recorder dump: the frozen contents of every actor's ring at
/// the moment a trigger fired.
#[derive(Debug, Clone)]
pub struct FlightDump {
    /// Simulated time of the trigger, seconds.
    pub t_s: f64,
    /// What fired it ("master_failover", "node_down_storm", "invariant").
    pub reason: &'static str,
    /// Ring contents per actor, oldest-first, sorted by actor id.
    pub rings: Vec<(u32, Vec<TraceRecord>)>,
}

impl FlightDump {
    /// Total events across all dumped rings.
    pub fn total_events(&self) -> usize {
        self.rings.iter().map(|(_, r)| r.len()).sum()
    }
}

/// Per-world tracer. Owned by the simulation kernel; actors reach it
/// through their context. All methods are cheap no-ops when disabled.
#[derive(Debug, Default)]
pub struct Tracer {
    cfg: TracerConfig,
    /// Full event log, for export.
    pub records: Vec<TraceRecord>,
    /// Completed spans.
    pub spans: Vec<SpanRecord>,
    /// Flight dumps captured so far.
    pub dumps: Vec<FlightDump>,
    rings: HashMap<u32, FlightRing>,
    /// Recent node-down times for storm detection: (t_s, machine).
    recent_downs: Vec<(f64, u32)>,
}

impl Tracer {
    /// Tracer with the given config.
    pub fn new(cfg: TracerConfig) -> Tracer {
        Tracer {
            cfg,
            records: Vec::new(),
            spans: Vec::new(),
            dumps: Vec::new(),
            rings: HashMap::new(),
            recent_downs: Vec::new(),
        }
    }

    /// Whether recording is on at all.
    pub fn enabled(&self) -> bool {
        self.cfg.enabled
    }

    /// Records one event from `actor` at sim time `t_s` under `trace`.
    /// Also feeds the actor's flight ring and the storm detector.
    pub fn record(&mut self, t_s: f64, actor: u32, trace: TraceId, event: TraceEvent) {
        if !self.cfg.enabled {
            return;
        }
        let rec = TraceRecord {
            t_s,
            actor,
            trace,
            event,
        };
        self.rings
            .entry(actor)
            .or_insert_with(|| FlightRing::new(RING_CAPACITY))
            .push(rec);
        self.records.push(rec);
        if let TraceEvent::NodeDown { machine } = event {
            self.note_node_down(t_s, machine);
        }
    }

    /// Records a completed span.
    pub fn span(&mut self, t_s: f64, actor: u32, trace: TraceId, kind: SpanKind, wall_s: f64) {
        if !self.cfg.enabled {
            return;
        }
        self.spans.push(SpanRecord {
            t_s,
            actor,
            trace,
            kind,
            wall_s,
        });
    }

    fn note_node_down(&mut self, t_s: f64, machine: u32) {
        let horizon = t_s - STORM_WINDOW_S;
        self.recent_downs.retain(|&(t, _)| t >= horizon);
        if !self.recent_downs.iter().any(|&(_, m)| m == machine) {
            self.recent_downs.push((t_s, machine));
        }
        if self.recent_downs.len() >= STORM_THRESHOLD {
            self.dump(t_s, "node_down_storm");
            self.recent_downs.clear();
        }
    }

    /// Freezes every actor's ring into a [`FlightDump`] and records a
    /// `FlightDumped` marker event (visible in exports).
    pub fn dump(&mut self, t_s: f64, reason: &'static str) {
        if !self.cfg.enabled {
            return;
        }
        let mut rings: Vec<(u32, Vec<TraceRecord>)> = self
            .rings
            .iter()
            .filter(|(_, r)| !r.is_empty())
            .map(|(&a, r)| (a, r.iter().copied().collect()))
            .collect();
        rings.sort_by_key(|&(a, _)| a);
        let dump = FlightDump { t_s, reason, rings };
        let total = dump.total_events() as u32;
        self.dumps.push(dump);
        self.record(
            t_s,
            u32::MAX,
            TraceId::NONE,
            TraceEvent::FlightDumped {
                reason,
                events: total,
            },
        );
    }

    /// The flight ring of `actor`, if it has recorded anything.
    pub fn ring(&self, actor: u32) -> Option<&FlightRing> {
        self.rings.get(&actor)
    }

    /// Folds another tracer's output into this one. The live runtime gives
    /// every actor thread its own tracer and merges them into one:
    /// events, spans, and dumps concatenate and re-sort by timestamp so
    /// the combined export reads as one time-ordered stream. Flight rings
    /// are not merged — a thread's ring history is only meaningful inside
    /// the dumps it already froze.
    pub fn absorb(&mut self, other: Tracer) {
        self.extend(other);
        self.sort_by_time();
    }

    /// [`Tracer::absorb`] without the sort, for a sink that takes in many
    /// tracers (one per exiting actor thread) and calls
    /// [`Tracer::sort_by_time`] once, when it is read.
    pub fn extend(&mut self, other: Tracer) {
        self.records.extend(other.records);
        self.spans.extend(other.spans);
        self.dumps.extend(other.dumps);
    }

    /// Stable-sorts events, spans and dumps by timestamp.
    pub fn sort_by_time(&mut self) {
        let by_t = |a: f64, b: f64| a.partial_cmp(&b).unwrap_or(std::cmp::Ordering::Equal);
        self.records.sort_by(|a, b| by_t(a.t_s, b.t_s));
        self.spans.sort_by(|a, b| by_t(a.t_s, b.t_s));
        self.dumps.sort_by(|a, b| by_t(a.t_s, b.t_s));
    }

    /// All records carrying `trace`, in recording order.
    pub fn by_trace(&self, trace: TraceId) -> impl Iterator<Item = &TraceRecord> {
        self.records.iter().filter(move |r| r.trace == trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(machine: u32) -> TraceEvent {
        TraceEvent::NodeDown { machine }
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut r = FlightRing::new(3);
        for i in 0..5u32 {
            r.push(TraceRecord {
                t_s: i as f64,
                actor: 1,
                trace: TraceId::NONE,
                event: ev(i),
            });
        }
        let times: Vec<f64> = r.iter().map(|x| x.t_s).collect();
        assert_eq!(times, vec![2.0, 3.0, 4.0]);
    }

    #[test]
    fn storm_triggers_dump() {
        let mut t = Tracer::new(TracerConfig::default());
        t.record(1.0, 7, TraceId::NONE, ev(1));
        t.record(2.0, 7, TraceId::NONE, ev(2));
        assert!(t.dumps.is_empty());
        t.record(3.0, 7, TraceId::NONE, ev(3));
        assert_eq!(t.dumps.len(), 1);
        assert_eq!(t.dumps[0].reason, "node_down_storm");
        assert!(t.dumps[0].total_events() >= 3);
        // Marker event was appended to the log.
        assert!(matches!(
            t.records.last().unwrap().event,
            TraceEvent::FlightDumped { .. }
        ));
    }

    #[test]
    fn storm_window_slides() {
        let mut t = Tracer::new(TracerConfig::default());
        t.record(1.0, 7, TraceId::NONE, ev(1));
        t.record(20.0, 7, TraceId::NONE, ev(2));
        t.record(21.0, 7, TraceId::NONE, ev(3));
        assert!(t.dumps.is_empty(), "downs outside the window must not count");
        t.record(22.0, 7, TraceId::NONE, ev(4));
        assert_eq!(t.dumps.len(), 1);
    }

    #[test]
    fn repeated_same_machine_is_one_down() {
        let mut t = Tracer::new(TracerConfig::default());
        for i in 0..STORM_THRESHOLD {
            t.record(1.0 + i as f64, 7, TraceId::NONE, ev(5));
        }
        assert!(t.dumps.is_empty(), "one machine flapping is not a storm");
    }

    #[test]
    fn disabled_records_nothing() {
        let mut t = Tracer::new(TracerConfig { enabled: false });
        t.record(1.0, 1, TraceId::from_job(0), ev(1));
        t.span(1.0, 1, TraceId::NONE, SpanKind::SchedDecision, 1e-6);
        t.dump(1.0, "invariant");
        assert!(t.records.is_empty() && t.spans.is_empty() && t.dumps.is_empty());
    }

    #[test]
    fn by_trace_filters() {
        let mut t = Tracer::new(TracerConfig::default());
        t.record(1.0, 1, TraceId::from_job(1), ev(1));
        t.record(2.0, 1, TraceId::from_job(2), ev(2));
        t.record(3.0, 2, TraceId::from_job(1), ev(3));
        assert_eq!(t.by_trace(TraceId::from_job(1)).count(), 2);
    }
}
