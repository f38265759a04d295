//! Typed trace events and causal trace IDs.
//!
//! Events are a `Copy` enum — recording one is a ring-buffer write, no
//! heap allocation, no string formatting. Strings only appear at export
//! time: the derives below declare each record's JSON object (one line of
//! the trace file `fuxi_bench::tracetool` writes and reads).

use std::fmt;

use serde::{Deserialize, Serialize};

/// Causal identifier minted at job submission and propagated along every
/// downstream message. `0` means "no causal context" (periodic timers,
/// infrastructure chatter).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct TraceId(pub u64);

impl TraceId {
    /// The absent trace (timer-driven and infrastructure activity).
    pub const NONE: TraceId = TraceId(0);

    /// The trace of job `job` (raw id). Deterministic — re-submitting the
    /// same job id after a failover continues the same causal chain, which
    /// is exactly what a forensic timeline wants.
    pub fn from_job(job: u32) -> TraceId {
        TraceId(1 + job as u64)
    }

    /// Inverse of [`TraceId::from_job`].
    pub fn job(self) -> Option<u32> {
        if self.0 == 0 {
            None
        } else {
            Some((self.0 - 1) as u32)
        }
    }

    /// `true` when a causal context is attached.
    pub fn is_some(self) -> bool {
        self.0 != 0
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// One structured event. Field types are raw integers so the crate needs
/// no protocol types; the protocol layer converts its newtypes at call
/// sites. Serialized as the [`TraceEvent::name`] under `"event"` beside
/// the payload fields.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(tag = "event", rename_all = "snake_case")]
pub enum TraceEvent {
    /// Client submission reached the FuxiMaster (trace minted here).
    JobSubmitted {
        /// Job id.
        job: u32,
        /// Application id the master assigned.
        app: u32,
    },
    /// FuxiMaster asked an agent to start the job's JobMaster.
    JmLaunchRequested {
        /// Application id.
        app: u32,
        /// Machine chosen for the JobMaster.
        machine: u32,
    },
    /// The JobMaster process is up.
    JmStarted {
        /// Application id.
        app: u32,
        /// Machine it runs on.
        machine: u32,
    },
    /// The JobMaster process exited (crash or machine death).
    JmExited {
        /// Application id.
        app: u32,
        /// Machine it ran on.
        machine: u32,
    },
    /// Scheduler granted containers.
    Grant {
        /// Application id.
        app: u32,
        /// ScheduleUnit id.
        unit: u32,
        /// Machine granted on.
        machine: u32,
        /// Containers granted.
        count: u64,
    },
    /// Scheduler revoked containers.
    Revoke {
        /// Application id.
        app: u32,
        /// ScheduleUnit id.
        unit: u32,
        /// Machine revoked on.
        machine: u32,
        /// Containers revoked.
        count: u64,
    },
    /// A batched request-delta flush applied to the engine.
    RequestApplied {
        /// Application id.
        app: u32,
        /// Number of per-unit deltas in the batch.
        deltas: u32,
    },
    /// An application master asked an agent to launch a worker.
    WorkerLaunchRequested {
        /// Application id.
        app: u32,
        /// Worker id.
        worker: u64,
        /// Machine asked to launch.
        machine: u32,
    },
    /// The worker process is up.
    WorkerStarted {
        /// Application id.
        app: u32,
        /// Worker id.
        worker: u64,
        /// Machine it runs on.
        machine: u32,
    },
    /// The worker process exited or was killed.
    WorkerExited {
        /// Application id.
        app: u32,
        /// Worker id.
        worker: u64,
        /// Machine it ran on.
        machine: u32,
        /// Why ("crashed", "killed", "launch_failed", ...).
        reason: &'static str,
    },
    /// An instance attempt was assigned to a worker.
    InstanceAssigned {
        /// Instance id.
        instance: u64,
        /// Attempt number.
        attempt: u32,
        /// Worker executing it.
        worker: u64,
    },
    /// An instance attempt reached a terminal state.
    InstanceFinished {
        /// Instance id.
        instance: u64,
        /// Attempt number.
        attempt: u32,
        /// Whether the attempt succeeded.
        ok: bool,
    },
    /// The job reached a terminal state at the FuxiMaster.
    JobFinished {
        /// Job id.
        job: u32,
        /// Application id.
        app: u32,
        /// Whether the job succeeded.
        success: bool,
    },
    /// A machine went down (kernel fault or heartbeat exclusion).
    NodeDown {
        /// Machine id.
        machine: u32,
    },
    /// A machine came (back) into the schedulable pool.
    NodeUp {
        /// Machine id.
        machine: u32,
    },
    /// A FuxiMaster won the election lock.
    MasterElected {
        /// The master's actor id (`"master"`: a record already has an
        /// `"actor"` key, and JSON duplicates are undefined).
        #[serde(rename = "master")]
        actor: u32,
        /// `true` when it inherited jobs from a previous primary (failover).
        failover: bool,
    },
    /// A primary lost its lease.
    MasterLockLost {
        /// The master's actor id.
        #[serde(rename = "master")]
        actor: u32,
    },
    /// Failover soft-state rebuild window opened.
    RebuildStarted {
        /// Jobs recovered from the hard-state checkpoint.
        jobs: u32,
    },
    /// Rebuild finished; scheduling resumed.
    RebuildDone {
        /// Applications whose soft state was re-collected.
        apps_seen: u32,
        /// `true` when the rebuild window ran out before every awaited
        /// agent and JobMaster had reported.
        capped: bool,
    },
    /// The flight recorder dumped (see [`crate::FlightDump`] for contents).
    FlightDumped {
        /// Why ("master_failover", "node_down_storm", "invariant", ...).
        reason: &'static str,
        /// Events captured across all dumped rings.
        events: u32,
    },
    /// An SLO watchdog rule crossed its threshold (either direction).
    SloAlert {
        /// Stable rule name (see [`crate::slo::SloRuleKind::name`]).
        rule: &'static str,
        /// `true` = breach began, `false` = breach cleared.
        raised: bool,
        /// Observed value at the transition (rule-specific unit).
        value: f32,
        /// Configured threshold.
        threshold: f32,
    },
}

impl TraceEvent {
    /// Stable event name used by the exporters and `trace_dump`.
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::JobSubmitted { .. } => "job_submitted",
            TraceEvent::JmLaunchRequested { .. } => "jm_launch_requested",
            TraceEvent::JmStarted { .. } => "jm_started",
            TraceEvent::JmExited { .. } => "jm_exited",
            TraceEvent::Grant { .. } => "grant",
            TraceEvent::Revoke { .. } => "revoke",
            TraceEvent::RequestApplied { .. } => "request_applied",
            TraceEvent::WorkerLaunchRequested { .. } => "worker_launch_requested",
            TraceEvent::WorkerStarted { .. } => "worker_started",
            TraceEvent::WorkerExited { .. } => "worker_exited",
            TraceEvent::InstanceAssigned { .. } => "instance_assigned",
            TraceEvent::InstanceFinished { .. } => "instance_finished",
            TraceEvent::JobFinished { .. } => "job_finished",
            TraceEvent::NodeDown { .. } => "node_down",
            TraceEvent::NodeUp { .. } => "node_up",
            TraceEvent::MasterElected { .. } => "master_elected",
            TraceEvent::MasterLockLost { .. } => "master_lock_lost",
            TraceEvent::RebuildStarted { .. } => "rebuild_started",
            TraceEvent::RebuildDone { .. } => "rebuild_done",
            TraceEvent::FlightDumped { .. } => "flight_dumped",
            TraceEvent::SloAlert { .. } => "slo_alert",
        }
    }
}

/// One recorded event: when, who, under which causal chain, what. One
/// `"kind":"event"` line of the trace file, the event's fields inline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename = "event")]
pub struct TraceRecord {
    /// Simulated time, seconds.
    pub t_s: f64,
    /// Recording actor's id.
    pub actor: u32,
    /// Causal trace id (0 = none).
    pub trace: TraceId,
    /// What happened.
    #[serde(flatten)]
    pub event: TraceEvent,
}

/// What a timed span covers. Spans measure *wall-clock* cost of real
/// computation (the natively executing scheduler) at a *simulated*
/// timestamp — the pairing behind the paper's Figure 9.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum SpanKind {
    /// One scheduler decision pass (request delta, free-up, node event).
    SchedDecision,
    /// A batched request-delta flush.
    BatchFlush,
    /// A FuxiMaster message-handler invocation.
    MsgHandler,
    /// Failover soft-state rebuild.
    Rebuild,
    /// Hard-state checkpoint write.
    Checkpoint,
}

impl SpanKind {
    /// Stable span name used by the exporters and metrics sink.
    pub fn name(&self) -> &'static str {
        match self {
            SpanKind::SchedDecision => "sched_decision",
            SpanKind::BatchFlush => "batch_flush",
            SpanKind::MsgHandler => "msg_handler",
            SpanKind::Rebuild => "rebuild",
            SpanKind::Checkpoint => "checkpoint",
        }
    }
}

/// One completed span: a `"kind":"span"` line of the trace file.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename = "span")]
pub struct SpanRecord {
    /// Simulated time the span was recorded, seconds.
    pub t_s: f64,
    /// Recording actor's id.
    pub actor: u32,
    /// Causal trace id active when the span ran (0 = none).
    pub trace: TraceId,
    /// What it covers.
    #[serde(rename = "span")]
    pub kind: SpanKind,
    /// Measured wall-clock duration, seconds.
    pub wall_s: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_id_roundtrips_job() {
        assert_eq!(TraceId::from_job(0).job(), Some(0));
        assert_eq!(TraceId::from_job(41).job(), Some(41));
        assert_eq!(TraceId::NONE.job(), None);
        assert!(!TraceId::NONE.is_some());
        assert!(TraceId::from_job(0).is_some());
    }

    #[test]
    fn events_are_compact() {
        // The hot-path record must stay one cache line: no heap anywhere.
        assert!(std::mem::size_of::<TraceRecord>() <= 64);
    }
}
