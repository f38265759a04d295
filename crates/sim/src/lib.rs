#![warn(missing_docs)]
//! # fuxi-sim
//!
//! A deterministic discrete-event simulator that stands in for the paper's
//! 5,000-node production testbed. Components of the Fuxi reproduction
//! (FuxiMaster, FuxiAgents, JobMasters, TaskWorkers, the Apsara lock
//! service) run as **actors** placed on simulated **machines**, exchanging
//! messages through a latency-modelled network, performing disk/network I/O
//! through a fair-share **flow model**, and failing on command through the
//! **fault injector**.
//!
//! Design notes:
//!
//! * Single-threaded and fully deterministic for a given seed: events are
//!   ordered by `(time, sequence)`, randomness comes from one seeded
//!   [`rand::rngs::SmallRng`]. Every experiment in the paper's evaluation is
//!   reproducible bit-for-bit.
//! * The kernel is generic over the message type `M`; `fuxi-proto` supplies
//!   the concrete protocol enum. The only kernel-imposed requirement is
//!   [`KernelMsg`], which lets the flow subsystem construct completion
//!   messages.
//! * The crate is the kernel and nothing else: one event queue (a
//!   calendar queue; see [`event`]), and no statistics of its own. The
//!   world's [`Metrics`] sink and [`Tracer`] are `fuxi-obs` types,
//!   re-exported here for the actors' convenience.
//! * Scheduler code under test runs *natively* inside actor handlers, so
//!   wall-clock measurements of scheduling decisions (paper Figure 9) time
//!   the real implementation, not a model of it.

pub mod actor;
pub mod event;
pub mod failure;
pub mod flow;
pub mod net;
pub mod time;
pub mod world;

pub use actor::{Actor, ActorId, Ctx, LiveCtxOps};
pub use event::KernelMsg;
pub use fuxi_obs as obs;
pub use fuxi_obs::{Histogram, Metrics, WindowedHistogram};
pub use fuxi_obs::{SpanKind, TraceEvent, TraceId, Tracer, TracerConfig};
pub use failure::{Fault, FaultPlan};
pub use flow::{FlowDone, FlowKind, FlowNet, FlowSpec};
pub use time::{SimDuration, SimTime};
pub use world::{MachineConfig, World, WorldConfig};
