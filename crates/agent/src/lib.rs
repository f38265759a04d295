#![warn(missing_docs)]
//! # fuxi-agent — FuxiAgent
//!
//! The per-node daemon (paper Section 2.2): "a single FuxiAgent will run on
//! each machine, mainly serving two-folded roles. The first is to collect
//! local information and status periodically, and report them to FuxiMaster
//! ... The second one is to ensure application processes to execute
//! normally with the aid of process monitor, environment protection and
//! process isolation."
//!
//! * [`agent`] — the agent actor: worker/JobMaster lifecycle, binary
//!   download, heartbeats, failover adoption.
//! * [`enforce`] — the isolation policies: resource-capacity ensurance,
//!   the Cgroup-style overload kill rule, and sandbox bookkeeping.
//!
//! Because application masters and workers are defined by higher layers
//! (the job framework), the agent launches them through injected
//! *factories* — the simulation counterpart of exec'ing a downloaded
//! binary.

pub mod agent;
pub mod enforce;

pub use agent::{FuxiAgent, MasterFactory, MasterLaunch, WorkerFactory, WorkerLaunch};
pub use enforce::{pick_overload_victim, Envelope, Sandbox};

use fuxi_proto::msg::WorkerSpec;
use fuxi_proto::{AppId, JobId, ResourceVec};
use serde::{Deserialize, Serialize};

/// Metadata a process registers in its machine's process table (the
/// simulation's `/proc`). A restarted agent reads these to adopt running
/// processes ("during its failover, FuxiAgent firstly collects running
/// processes started previously"). The rows are the protocol's own types:
/// a worker's row is the [`WorkerSpec`] it was launched with, so adoption
/// puts back exactly what a launch would have recorded.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub enum ProcMeta {
    /// A worker, by its launch specification.
    Worker(WorkerSpec),
    /// Job master.
    JobMaster {
        /// Application id.
        app: AppId,
        /// Job id.
        job: JobId,
        /// Resource amount.
        resource: ResourceVec,
    },
}

impl ProcMeta {
    /// Encode.
    pub fn encode(&self) -> Vec<u8> {
        serde_json::to_vec(self).expect("procmeta encodes")
    }

    /// Decode.
    pub fn decode(bytes: &[u8]) -> Option<ProcMeta> {
        serde_json::from_slice(bytes).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuxi_proto::{UnitId, WorkerId};
    use fuxi_sim::ActorId;

    #[test]
    fn procmeta_roundtrip() {
        let m = ProcMeta::Worker(WorkerSpec {
            app: AppId(1),
            worker: WorkerId(2),
            unit: UnitId(3),
            limit: ResourceVec::new(500, 2048),
            binary_mb: 400.0,
            master: ActorId(77),
            usage_factor: 0.4,
        });
        assert_eq!(ProcMeta::decode(&m.encode()), Some(m));
        let j = ProcMeta::JobMaster {
            app: AppId(1),
            job: JobId(9),
            resource: ResourceVec::cores_mb(1, 2048),
        };
        assert_eq!(ProcMeta::decode(&j.encode()), Some(j));
        assert_eq!(ProcMeta::decode(b"garbage"), None);
    }
}
