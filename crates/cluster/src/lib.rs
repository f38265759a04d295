#![warn(missing_docs)]
//! # fuxi-cluster
//!
//! The end-to-end harness: one boot path for a Fuxi cluster (lock service,
//! FuxiMaster pair, one FuxiAgent per machine, a client, the
//! JobMaster/TaskWorker factories) shared by the simulator, the threaded
//! runtime and the multi-process deployment, plus experiment drivers for
//! the paper's evaluation scenarios.
//!
//! * [`boot`] — the wiring, the client and the job ledger every engine
//!   boots through; [`boot::Spawn`] is all an engine has to provide;
//! * [`deploy`] — [`deploy::DeployTopology`]: which node hosts which actor
//!   group, and therefore every actor's address;
//! * [`harness`] — [`harness::Cluster`]: the simulated cluster — job
//!   submission, run-loop helpers, failover and fault controls;
//! * [`scenario`] — the §5.2 synthetic-load driver and §5.4 fault plans;
//! * [`report`] — table/series printers used by the experiment binaries.

pub mod boot;
pub mod deploy;
pub mod harness;
pub mod report;
pub mod scenario;

pub use deploy::{ActorGroup, DeployTopology, NodeRole, NodeSpec, PlacedActor};
pub use harness::{Cluster, ClusterConfig, JobState, SubmitOpts};
pub use scenario::{fault_plan, FaultRatios, SyntheticRunStats};
