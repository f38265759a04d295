#![warn(missing_docs)]
//! # fuxi-core — FuxiMaster
//!
//! The paper's central contribution: the FuxiMaster resource scheduler.
//!
//! * [`scheduler`] — the incremental, locality-tree-based scheduling engine
//!   (paper Section 3): free-resource pool, machine/rack/cluster waiting
//!   queues, multi-unit grants, preemption.
//! * [`quota`] — quota groups and multi-tenancy accounting (Section 3.4).
//! * [`blacklist`] — cluster-level faulty-node detection: heartbeat
//!   timeouts, pluggable health scoring, cross-job bad-machine aggregation
//!   (Section 4.3.2).
//! * [`state`] — hard/soft state separation and the checkpoint format
//!   (Section 4.3.1, Figure 7).
//! * [`master`] — the FuxiMaster actor: the wire protocol, prioritized
//!   request handling (urgent vs. batched vs. roll-up), hot-standby
//!   election via the Apsara lock, and failover state reconstruction.
//!
//! The [`scheduler::Engine`] is deliberately a plain synchronous data
//! structure with no simulator dependencies on its hot path: benchmarks time
//! exactly the code the simulated master runs (Figure 9's sub-millisecond
//! claim is measured, not modelled).

pub mod blacklist;
pub mod master;
pub mod quota;
pub mod scheduler;
pub mod state;

pub use blacklist::{ClusterBlacklist, HealthPlugin};
pub use master::{FuxiMaster, MasterConfig};
pub use quota::{QuotaGroup, QuotaManager};
pub use scheduler::{Engine, EngineConfig, EngineEvent, RevokeReason};
pub use state::HardState;
