#![warn(missing_docs)]
//! # fuxi-job — the Fuxi DAG job framework
//!
//! The batch dataflow programming model of paper Section 4: JSON-described
//! DAG jobs ([`desc`], [`dag`]), the hierarchical JobMaster / TaskMaster /
//! TaskWorker scheduling model ([`job_master`], [`task_master`],
//! [`worker`]), user-transparent JobMaster failover via lightweight
//! snapshots ([`snapshot`]), the bottom-up multi-level blacklist
//! ([`blacklist`]), the backup-instance straggler scheme ([`backup`]), and
//! the Streamline shuffle-operator library ([`streamline`]).

pub mod backup;
pub mod blacklist;
pub mod dag;
pub mod desc;
pub mod job_master;
pub mod snapshot;
pub mod streamline;
pub mod task_master;
pub mod worker;

pub use blacklist::JobBlacklist;
pub use dag::TaskGraph;
pub use desc::{JobDesc, TaskDesc};
pub use job_master::{JobMaster, JobMasterConfig};
pub use snapshot::JobSnapshot;
pub use task_master::TaskMaster;
pub use worker::TaskWorker;
