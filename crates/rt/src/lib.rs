#![warn(missing_docs)]
//! # fuxi-rt
//!
//! A live multi-threaded runtime that runs the *unchanged* production
//! actors — FuxiMaster, FuxiAgent, JobMaster, TaskWorker, the Apsara
//! services — on a fixed pool of OS threads with real clocks. The deterministic kernel in
//! `fuxi-sim` answers "is the protocol correct"; this crate answers "does
//! the same code hold up under real concurrency and wall-clock time".
//!
//! * [`runtime`] — [`runtime::LiveRuntime`]: every actor a task on one
//!   pool of `available_parallelism()` threads, however many actors there
//!   are (an actor is reaped the moment it exits, so a runtime can spawn
//!   without limit), bounded mailboxes with muting backpressure, a hashed
//!   timer wheel and wall-clock flow engine on a dedicated clock thread;
//! * [`cluster`] — [`cluster::LiveCluster`]: the full Fuxi stack wired
//!   booted by `fuxi_cluster::boot`, the path the simulated harness takes;
//! * [`scrape`] — an HTTP endpoint (`/metrics` Prometheus text, `/json`)
//!   serving the live cluster view;
//! * [`mailbox`] — the per-actor queue: one lock over the queue, its depth,
//!   its waiters and the draining task's run state; at a full box a sending
//!   thread parks and a sending actor is muted (both counted), and control
//!   values go past the bound;
//! * [`timer`] — the hashed timer wheel;
//! * [`transport`] — the versioned, framed deployment transport (HELLO
//!   handshake, typed version rejection, TCP | in-proc channel).

pub mod cluster;
pub mod mailbox;
pub mod runtime;
pub mod scrape;
pub mod timer;
pub mod transport;

pub use cluster::{live_runtime, LiveCluster};
pub use mailbox::{MailboxGauges, PushOutcome};
pub use runtime::{LiveRuntime, RuntimeConfig};
pub use timer::TimerWheel;
pub use transport::{ChannelTransport, Frame, TcpTransport, Transport, TransportListener};
