#![warn(missing_docs)]
//! # fuxi-rt
//!
//! A live multi-threaded runtime that runs the *unchanged* production
//! actors — FuxiMaster, FuxiAgent, JobMaster, TaskWorker, the Apsara
//! services — on OS threads with real clocks. The deterministic kernel in
//! `fuxi-sim` answers "is the protocol correct"; this crate answers "does
//! the same code hold up under real concurrency and wall-clock time".
//!
//! * [`runtime`] — [`runtime::LiveRuntime`]: thread-per-actor execution
//!   (a thread is reaped the moment its actor exits, so a runtime can
//!   spawn without limit), bounded mailboxes, a hashed timer wheel and
//!   wall-clock flow engine on a dedicated clock thread;
//! * [`cluster`] — [`cluster::LiveCluster`]: the full Fuxi stack wired
//!   booted by `fuxi_cluster::boot`, the path the simulated harness takes;
//! * [`scrape`] — an HTTP endpoint (`/metrics` Prometheus text, `/json`)
//!   serving the live cluster view;
//! * [`mailbox`] — the per-actor queue: grows as it fills, bounded by its
//!   depth gauge, senders park (and are counted) when it is full;
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
