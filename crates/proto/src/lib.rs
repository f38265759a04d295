#![warn(missing_docs)]
//! # fuxi-proto
//!
//! Shared protocol types for the Fuxi reproduction (VLDB 2014): identifiers,
//! multi-dimensional resource descriptions, cluster topology, schedule units,
//! incremental resource requests/grants, and every wire message exchanged
//! between FuxiMaster, FuxiAgents, application masters (JobMasters), and
//! task workers.
//!
//! This crate is the dependency hub that keeps `fuxi-core`, `fuxi-agent` and
//! `fuxi-job` decoupled from each other: they all speak the types defined
//! here, mirroring the paper's clean AM ↔ FM ↔ FA protocol boundaries
//! (Sections 2.2 and 3 of the paper).

pub mod error;
pub mod health;
pub mod ids;
pub mod msg;
pub mod request;
pub mod resource;
pub mod topology;
pub mod wire;

pub use error::ProtoError;
pub use health::NodeHealthReport;
pub use ids::{
    AppId, FlowTag, InstanceId, JobId, MachineId, Priority, QuotaGroupId, RackId, TaskId, UnitId,
    WorkerId,
};
pub use msg::{FailReason, InstanceOutcome, InstanceWork, Msg, StartFailure};
pub use request::{
    CapacityChange, GrantDelta, GrantLedger, RequestDelta, RequestState, ScheduleUnitDef,
    WantLevels,
};
pub use resource::{ResourceVec, VirtualResourceId, VirtualResourceRegistry, CPU_MILLI_PER_CORE};
pub use topology::{Locality, MachineSpec, Topology, TopologyBuilder};
pub use wire::{FrameType, WireError, PROTO_VERSION};
