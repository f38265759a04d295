//! Every message exchanged between Fuxi components, plus the sequencing
//! layer that makes incremental (delta) channels idempotent and
//! gap-detecting (paper Section 3.1: "we must ensure the changed portions be
//! delivered and processed in the same order at the receiver side as they
//! are generated on sender side ... we must ensure the idempotency of the
//! handling of duplicated delta messages").

use crate::health::NodeHealthReport;
use crate::ids::{AppId, InstanceId, JobId, MachineId, Priority, QuotaGroupId, UnitId, WorkerId};
use crate::request::{CapacityChange, GrantDelta, RequestDelta, RequestState, ScheduleUnitDef};
use crate::resource::ResourceVec;
use fuxi_sim::ActorId;
use serde::{Deserialize, Serialize};

/// Submission-time description of an application (the paper's job
/// description: "application type, master package location and
/// application-specific information"). The payload is an opaque string —
/// for the DAG framework it is the Figure 6 JSON document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppDescription {
    /// Application type tag (e.g. `"fuxi_job"`), selecting the master factory.
    pub app_type: String,
    /// Quota group this application bills against (Section 3.4).
    pub quota_group: QuotaGroupId,
    /// Scheduling priority of the application's master container.
    pub priority: Priority,
    /// Resources the application master process itself needs.
    pub master_resource: ResourceVec,
    /// Size of the master binary package (downloaded before launch).
    pub master_package_mb: f64,
    /// Application-specific payload (JSON for DAG jobs).
    pub payload: String,
}

impl Default for AppDescription {
    fn default() -> Self {
        Self {
            app_type: "fuxi_job".to_owned(),
            quota_group: QuotaGroupId(0),
            priority: Priority::DEFAULT,
            master_resource: ResourceVec::cores_mb(1, 2048),
            master_package_mb: 100.0,
            payload: String::new(),
        }
    }
}

/// AM → FA: launch a worker process ("the work plan contains the necessary
/// information to launch a specific process, such as its package location,
/// resource usage limits and start-up parameters").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkerSpec {
    /// Application id.
    pub app: AppId,
    /// Worker id.
    pub worker: WorkerId,
    /// ScheduleUnit this applies to.
    pub unit: UnitId,
    /// Resource usage limit enforced by the agent (the Cgroup limits).
    pub limit: ResourceVec,
    /// Worker binary size; downloading it is the dominant part of the
    /// paper's 11.84 s worker start overhead (Table 2: "average 400MB").
    pub binary_mb: f64,
    /// Where the worker reports (its application/task master).
    pub master: ActorId,
    /// Fraction of the limit the process actually consumes (the paper
    /// observed ~40% real memory and <10% real CPU usage against scheduled
    /// amounts). Values above 1.0 model misbehaving processes that the
    /// agent's overload policy must kill.
    pub usage_factor: f64,
}

/// The work an instance performs, in simulator terms.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct InstanceWork {
    /// Pure compute time at nominal machine speed, seconds.
    pub compute_s: f64,
    /// Data reads: `(source machine, megabytes)`. A source equal to the
    /// worker's own machine is a local disk read; anything else is a remote
    /// (disk + network) read. Empty for duration-only workloads.
    pub reads: Vec<(MachineId, f64)>,
    /// Local output written to disk, megabytes.
    pub write_mb: f64,
    /// When false, reads/writes are folded into `compute_s` analytically and
    /// no flows are started (fast mode for scheduling-focused experiments).
    pub use_flows: bool,
    /// Maximum concurrent fetch flows while reading remote data.
    pub fetch_fanout: u32,
}

/// Why an instance attempt did not succeed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FailReason {
    /// The agent could not launch the worker (disk corrupted — the paper's
    /// PartialWorkerFailure fault).
    LaunchFailed,
    /// A data flow failed (source or local machine died mid-read).
    IoError,
    /// The instance was killed (backup-instance loser, preemption).
    Killed,
    /// The worker's machine went down.
    MachineDown,
    /// The worker process crashed (and the agent chose not to restart it).
    Crashed,
}

/// Why a worker launch failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StartFailure {
    /// The machine could not fetch or launch the process: a machine fault,
    /// which feeds the blacklist.
    Machine,
    /// The agent holds no granted capacity for the worker: a scheduling
    /// race, not a machine fault.
    Capacity,
}

/// Terminal state of one instance attempt.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum InstanceOutcome {
    /// Success.
    Success,
    /// Failed.
    Failed(FailReason),
}

/// The complete message set. One enum keeps dispatch exhaustive: adding a
/// message forces every component to consider it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Msg {
    // ------------------------------------------------------------------
    // Client ↔ FuxiMaster
    // ------------------------------------------------------------------
    /// Client submits a job; FuxiMaster checkpoints it (hard state) and
    /// launches a JobMaster on some agent.
    SubmitJob {
        /// Job id.
        job: JobId,
        /// Application description.
        desc: AppDescription,
        /// Submitting client's actor address.
        client: ActorId,
    },
    /// FuxiMaster accepted the job and assigned an application id.
    JobAccepted {
        /// Job id.
        job: JobId,
        /// Application id.
        app: AppId,
    },
    /// Client asks FuxiMaster to stop a job.
    StopJob {
        /// Job id.
        job: JobId,
    },
    /// Job reached a terminal state (forwarded FM → client as well).
    JobFinished {
        /// Job id.
        job: JobId,
        /// Application id.
        app: AppId,
        /// Whether the job succeeded.
        success: bool,
        /// Human-readable detail.
        message: String,
    },

    // ------------------------------------------------------------------
    // FuxiAgent ↔ FuxiMaster
    // ------------------------------------------------------------------
    /// Periodic liveness + health telemetry.
    AgentHeartbeat {
        /// Machine index.
        machine: MachineId,
        /// Node health telemetry.
        health: NodeHealthReport,
    },
    /// FM → FA: start an application master for `app` on this machine.
    StartAppMaster {
        /// Application id.
        app: AppId,
        /// Job id.
        job: JobId,
        /// Application description.
        desc: AppDescription,
    },
    /// FA → FM: the application master is running.
    AppMasterStarted {
        /// Application id.
        app: AppId,
        /// Actor address.
        actor: ActorId,
        /// Machine index.
        machine: MachineId,
    },
    /// FA → FM: launch failed (bad machine); FM will pick another agent.
    /// Why it happened.
    AppMasterStartFailed {
        /// Application id.
        app: AppId,
        /// Human-readable failure reason.
        reason: String,
    },
    /// FM → FA: per-app capacity bookkeeping on this machine changed
    /// (grants/revocations); the agent enforces the new envelope. One
    /// message carries all of a flush's changes for this agent, so a
    /// scheduling tick costs one envelope per agent, not one per decision.
    CapacityNotify {
        /// All capacity changes for this agent from one flush.
        changes: Vec<CapacityChange>,
    },
    /// FA/JM → FM on the status-heartbeat cadence: compact telemetry for
    /// the live metrics plane. Counters inside are cumulative, so a lost
    /// report skews nothing once the next one lands — the same
    /// incremental-update idiom as the resource-state reports.
    MetricsReport {
        /// The agent- or job-level payload.
        report: fuxi_obs::MetricsReport,
    },
    /// FA → FM whenever the agent meets a master it has not reported to —
    /// on boot, after its own restart, after master failover: full per-app
    /// allocation on this machine (Figure 7: "each FuxiAgent re-sends the
    /// resource allocation on this machine for each application master").
    /// This is also how an agent joins: a master outside a rebuild answers
    /// with the envelope on its books ([`Msg::AgentCapacitySnapshot`]).
    AgentAllocationReport {
        /// Machine index.
        machine: MachineId,
        /// Total schedulable resources of the machine.
        total: ResourceVec,
        /// Per-app allocations as (app, unit, unit resource, count).
        allocations: Vec<(AppId, UnitId, ResourceVec, u64)>,
        /// Application masters hosted on this machine `(app, actor)` — a
        /// rebuilding FuxiMaster must re-learn where JobMasters live or it
        /// would start duplicates.
        app_masters: Vec<(AppId, ActorId)>,
        /// Application masters this machine is still starting (their
        /// package download is in flight): on their way, so no one else's
        /// to start.
        jm_launches: Vec<AppId>,
    },
    /// FM → FA after an agent restarts: the granted envelope the master
    /// still has on the books for this machine, so the agent can rebuild
    /// its enforcement state ("with the full granted resource amount from
    /// FuxiMaster for each application, FuxiAgent finally rebuilds the
    /// complete states before failover").
    AgentCapacitySnapshot {
        /// Per-app allocations as (app, unit, unit resource, count).
        allocations: Vec<(AppId, UnitId, ResourceVec, u64)>,
    },
    /// FM → FA and FM → AM from a primary that took over with jobs on its
    /// books: report to me now. An agent answers with its
    /// [`Msg::AgentAllocationReport`], an application master with
    /// [`Msg::AmAttach`] and [`Msg::FullRequestSync`] — what its heartbeat
    /// or full-sync tick would have done seconds later — so the rebuild
    /// ends as soon as soft state is whole.
    MasterElected,
    /// FA → FM: the application-master process on this machine exited
    /// (detected by the agent's process sweep); FM decides whether to
    /// restart it ("the FuxiMaster leverages heartbeat to determine whether
    /// to start a new master or not").
    AppMasterExited {
        /// Application id.
        app: AppId,
        /// Machine id.
        machine: MachineId,
    },
    /// FA → AM: a worker process exited or was killed by enforcement.
    WorkerExited {
        /// Application id.
        app: AppId,
        /// Worker id.
        worker: WorkerId,
        /// Machine index.
        machine: MachineId,
        /// Why it happened.
        reason: FailReason,
    },

    // ------------------------------------------------------------------
    // Application master ↔ FuxiMaster (the incremental resource protocol)
    // ------------------------------------------------------------------
    /// AM registers (or re-registers after FM failover) with its
    /// ScheduleUnit definitions.
    AmAttach {
        /// Application id.
        app: AppId,
        /// ScheduleUnit definitions.
        units: Vec<ScheduleUnitDef>,
    },
    /// AM → FM: incremental request deltas (sequenced).
    RequestUpdate {
        /// Application id.
        app: AppId,
        /// Channel sequence number (see `SeqSender`/`SeqReceiver`).
        seq: u64,
        /// Incremental request updates.
        deltas: Vec<RequestDelta>,
    },
    /// AM → FM: voluntary return of granted containers. Urgent class:
    /// handled immediately so freed resources turn over fast (Section 3.4).
    ReturnGrant {
        /// Application id.
        app: AppId,
        /// ScheduleUnit id.
        unit: UnitId,
        /// Machine index.
        machine: MachineId,
        /// Number of containers.
        count: u64,
    },
    /// AM → FM: periodic full-state safety sync and failover rebuild.
    FullRequestSync {
        /// Application id.
        app: AppId,
        /// ScheduleUnit definitions.
        units: Vec<ScheduleUnitDef>,
        /// Full request states per unit.
        states: Vec<RequestState>,
        /// Currently held grants per unit.
        held: Vec<(UnitId, Vec<(MachineId, u64)>)>,
    },
    /// FM → AM: incremental grant/revocation deltas (sequenced).
    GrantUpdate {
        /// Channel sequence number (see [`SeqSender`]/[`SeqReceiver`]).
        seq: u64,
        /// Incremental grant/revocation updates.
        grants: Vec<GrantDelta>,
    },
    /// FM → AM: full grant snapshot (on gap detection or after rebuild).
    FullGrantSync {
        /// Full grant snapshot per unit.
        snapshot: Vec<(UnitId, Vec<(MachineId, u64)>)>,
    },
    /// FM → AM: FM detected a request-channel gap; please full-sync.
    RequestSyncNeeded {
        /// Application id.
        app: AppId,
    },
    /// AM → FM: AM detected a grant-channel gap; please full-sync.
    GrantSyncNeeded {
        /// Application id.
        app: AppId,
    },
    /// AM → FM: job is done; release all resources and forget the app.
    AmDetach {
        /// Application id.
        app: AppId,
    },
    /// AM → FM: this machine misbehaved for this app (multi-level blacklist
    /// aggregation across jobs, Section 4.3.2).
    BadMachineReport {
        /// Application id.
        app: AppId,
        /// Machine id.
        machine: MachineId,
    },

    // ------------------------------------------------------------------
    // Application master ↔ FuxiAgent (worker lifecycle)
    // ------------------------------------------------------------------
    /// AM → FA: start a worker under an existing grant.
    /// Worker launch specification.
    StartWorker {
        /// Worker launch specification.
        spec: WorkerSpec,
    },
    /// FA → AM: worker launch failed. (There is no "started" message: the
    /// worker announces itself with [`Msg::WorkerRegister`].)
    WorkerStartFailed {
        /// Worker id.
        worker: WorkerId,
        /// Machine index.
        machine: MachineId,
        /// Why it happened.
        reason: StartFailure,
    },
    /// AM → FA: stop a worker (container returned or job done).
    StopWorker {
        /// Application id.
        app: AppId,
        /// Worker id.
        worker: WorkerId,
    },
    /// FA → AM: capacity on this machine dropped below what your workers
    /// use; release within the grace period or the agent kills one
    /// ("FuxiAgent will kill one process of this application compulsorily").
    CapacityWarning {
        /// Application id.
        app: AppId,
        /// Machine index.
        machine: MachineId,
        /// Amount by which usage exceeds the granted envelope.
        over: ResourceVec,
    },
    /// FA → AM during agent failover: which workers do you expect on this
    /// machine? ("requests the full worker lists from each corresponding
    /// application master").
    WorkerListQuery {
        /// Application id.
        app: AppId,
        /// Machine id.
        machine: MachineId,
    },
    /// AM → FA: the expected workers on that machine.
    WorkerListReply {
        /// Application id.
        app: AppId,
        /// Machine index.
        machine: MachineId,
        /// Workers involved.
        workers: Vec<WorkerId>,
    },

    // ------------------------------------------------------------------
    // Task worker ↔ application master (job framework)
    // ------------------------------------------------------------------
    /// Worker → AM: alive and ready for instances.
    WorkerRegister {
        /// Application id.
        app: AppId,
        /// Worker id.
        worker: WorkerId,
        /// Machine index.
        machine: MachineId,
    },
    /// AM → worker: execute an instance (container reuse: arbitrarily many
    /// of these per worker lifetime).
    AssignInstance {
        /// Instance id.
        instance: InstanceId,
        /// Attempt number of the instance.
        attempt: u32,
        /// The work the instance performs.
        work: InstanceWork,
    },
    /// Worker → AM: periodic progress ("all TaskWorkers will periodically
    /// report their status including execution progresses").
    InstanceReport {
        /// Worker id.
        worker: WorkerId,
        /// Instance id.
        instance: InstanceId,
        /// Attempt number of the instance.
        attempt: u32,
        /// Execution progress in [0, 1].
        progress: f64,
    },
    /// Worker → AM: instance attempt finished.
    InstanceFinished {
        /// Worker id.
        worker: WorkerId,
        /// Instance id.
        instance: InstanceId,
        /// Attempt number of the instance.
        attempt: u32,
        /// Terminal outcome of the attempt.
        outcome: InstanceOutcome,
        /// Worker-observed runtime, seconds.
        runtime_s: f64,
    },
    /// AM → worker: abandon an attempt (backup-instance race loser).
    KillInstance {
        /// Instance id.
        instance: InstanceId,
        /// Attempt number.
        attempt: u32,
    },
    /// AM → worker: exit gracefully.
    WorkerExit,
    /// Restarted JobMaster → worker: report your current state (JobMaster
    /// failover recovery: "collect the status from TaskWorker").
    WorkerStatusQuery,
    /// Worker → restarted JobMaster.
    WorkerStatusReply {
        /// Application id.
        app: AppId,
        /// Worker id.
        worker: WorkerId,
        /// Machine index.
        machine: MachineId,
        /// Currently executing (instance, attempt, progress), if any.
        running: Option<(InstanceId, u32, f64)>,
    },

    // ------------------------------------------------------------------
    // Apsara lock service (hot-standby master election)
    // ------------------------------------------------------------------
    /// Try to acquire the named lease-based lock.
    LockAcquire {
        /// Lock name.
        name: String,
        /// Lease duration, seconds.
        ttl_s: f64,
    },
    /// The lock is yours (until the lease lapses without keepalive).
    LockGranted {
        /// Lock name.
        name: String,
    },
    /// Keepalive from the current holder.
    LockKeepalive {
        /// Lock name.
        name: String,
    },
    /// Voluntary release.
    LockRelease {
        /// Lock name.
        name: String,
    },
    /// Lock service → former holder: lease expired (you were presumed dead).
    LockLost {
        /// Lock name.
        name: String,
    },

    // ------------------------------------------------------------------
    // Kernel
    // ------------------------------------------------------------------
    /// A data flow completed (constructed by the simulation kernel).
    FlowDone {
        /// Flow correlation tag.
        tag: u64,
        /// True if the flow was aborted by a failure.
        failed: bool,
    },
}

impl fuxi_sim::KernelMsg for Msg {
    fn flow_done(tag: u64, failed: bool) -> Self {
        Msg::FlowDone { tag, failed }
    }
}

/// Assigns sequence numbers to outgoing deltas on one channel.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SeqSender {
    next: u64,
}

impl SeqSender {
    /// Creates a new instance with the given configuration.
    pub fn new() -> Self {
        Self { next: 1 }
    }

    /// The sequence number for the next message. Not an iterator: every
    /// call consumes a number, and the stream never ends.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        if self.next == 0 {
            self.next = 1;
        }
        let s = self.next;
        self.next += 1;
        s
    }

    /// Restart numbering after a full-state sync established a new baseline.
    pub fn reset(&mut self) {
        self.next = 1;
    }
}

/// Verdict on an incoming sequenced delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeqCheck {
    /// In order: apply it.
    Apply,
    /// Already seen (duplicate delivery): drop it.
    Duplicate,
    /// A delta was lost: the receiver must request a full-state sync and
    /// ignore deltas until it arrives.
    Gap,
}

/// Tracks the last applied sequence number on one incoming channel.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SeqReceiver {
    last: u64,
    /// Set while waiting for a full sync; deltas are ignored meanwhile.
    awaiting_sync: bool,
}

impl SeqReceiver {
    /// Creates a new instance with the given configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Classifies an incoming sequence number and advances state when it is
    /// applicable.
    pub fn accept(&mut self, seq: u64) -> SeqCheck {
        if self.awaiting_sync {
            return SeqCheck::Gap;
        }
        if seq == self.last + 1 {
            self.last = seq;
            SeqCheck::Apply
        } else if seq <= self.last {
            SeqCheck::Duplicate
        } else {
            self.awaiting_sync = true;
            SeqCheck::Gap
        }
    }

    /// A full-state sync arrived: resume from a fresh baseline. The sender
    /// resets its numbering after emitting a sync, so expect `1` next.
    pub fn synced(&mut self) {
        self.last = 0;
        self.awaiting_sync = false;
    }

    /// Awaiting sync.
    pub fn awaiting_sync(&self) -> bool {
        self.awaiting_sync
    }

    /// Last.
    pub fn last(&self) -> u64 {
        self.last
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_sender_counts_from_one() {
        let mut s = SeqSender::new();
        assert_eq!(s.next(), 1);
        assert_eq!(s.next(), 2);
        s.reset();
        assert_eq!(s.next(), 1);
    }

    #[test]
    fn receiver_applies_in_order() {
        let mut r = SeqReceiver::new();
        assert_eq!(r.accept(1), SeqCheck::Apply);
        assert_eq!(r.accept(2), SeqCheck::Apply);
        assert_eq!(r.last(), 2);
    }

    #[test]
    fn receiver_drops_duplicates() {
        let mut r = SeqReceiver::new();
        assert_eq!(r.accept(1), SeqCheck::Apply);
        assert_eq!(r.accept(1), SeqCheck::Duplicate);
        assert_eq!(r.accept(2), SeqCheck::Apply);
        assert_eq!(r.accept(1), SeqCheck::Duplicate);
    }

    #[test]
    fn receiver_detects_gap_and_blocks_until_sync() {
        let mut r = SeqReceiver::new();
        assert_eq!(r.accept(1), SeqCheck::Apply);
        assert_eq!(r.accept(3), SeqCheck::Gap);
        assert!(r.awaiting_sync());
        // Everything is ignored until the sync, even "valid-looking" deltas.
        assert_eq!(r.accept(2), SeqCheck::Gap);
        assert_eq!(r.accept(4), SeqCheck::Gap);
        r.synced();
        assert!(!r.awaiting_sync());
        assert_eq!(r.accept(1), SeqCheck::Apply);
    }

    #[test]
    fn default_app_description_is_sane() {
        let d = AppDescription::default();
        assert_eq!(d.quota_group, QuotaGroupId(0));
        assert!(d.master_resource.memory_mb() > 0);
    }

    #[test]
    fn kernel_msg_constructs_flow_done() {
        use fuxi_sim::KernelMsg;
        match Msg::flow_done(5, true) {
            Msg::FlowDone { tag: 5, failed: true } => {}
            other => panic!("unexpected: {other:?}"),
        }
    }
}
