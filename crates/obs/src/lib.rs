#![warn(missing_docs)]
//! # fuxi-obs
//!
//! The structured observability layer of the Fuxi reproduction: typed,
//! allocation-free **trace events** with causal **trace IDs**, **span
//! timing** for the scheduler decision path, a per-actor **flight
//! recorder** (fixed-size ring of recent events, dumped on faults), and
//! **exporters** (JSONL event log, Chrome/Perfetto `trace_event` JSON) —
//! and the one home of the repo's **metrics**: the mergeable [`Metrics`]
//! sink with its [`Histogram`], the window ring ([`Ring`]: [`WindowRing`],
//! [`WindowedHistogram`]), and the live plane's [`ClusterView`].
//!
//! The paper's headline claims are behavioural — failover transparency
//! (§4, Table 3), message overhead (Table 2), flat decision latency under
//! saturation (Figure 9). Counters can report them only as after-the-fact
//! aggregates; this crate makes them *reconstructable*: a `trace_id` is
//! minted when a job is submitted and propagated along every causally
//! downstream message (the simulation kernel's delivery envelope carries
//! it), so "what happened to job J across the FM failover at t=310 s" is a
//! filter over one event stream.
//!
//! This crate is dependency-free and knows nothing about the simulator or
//! the protocol: identifiers are raw integers, times are `f64` seconds.
//! `fuxi-sim` owns a [`Tracer`] and a [`Metrics`] per world and threads
//! them through actor contexts; the live runtime and the node supervisors
//! use the same types without touching the kernel.

pub mod export;
pub mod metrics;
pub mod recorder;
pub mod slo;
pub mod trace;
pub mod view;
pub mod window;

pub use metrics::{Histogram, Metrics, WindowedHistogram};
pub use recorder::{FlightDump, FlightRing, Tracer, TracerConfig};
pub use slo::{SloAlert, SloRuleKind, SloWatchdog};
pub use trace::{SpanKind, SpanRecord, TraceEvent, TraceId, TraceRecord};
pub use view::{
    AgentReport, ClusterView, JobReport, MasterRollup, MetricsHub, MetricsPlaneConfig,
    MetricsReport,
};
pub use window::{Aggregate, Ring, WindowAgg, WindowRing};
