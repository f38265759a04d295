//! The FuxiMaster actor: protocol handling, prioritized request processing,
//! hot-standby election and user-transparent failover.
//!
//! Responsibilities (paper Sections 2.2, 3.4, 4.3.1):
//!
//! * **Match-making** between agents' free resources and application
//!   masters' incremental requests, through [`crate::scheduler::Engine`].
//! * **Prioritized request handling** — "urgent requests like resource
//!   reversion and re-assignment will be triggered by events ... some
//!   similar requests (e.g., frequently changing resource requests from one
//!   application) are merged compactly and handled in a batch mode ...
//!   other heavy but not emergent requests such as quota automatic
//!   adjusting or bad node detection will be captured at a fixed time
//!   interval in a roll-up manner." Concretely: `ReturnGrant` is applied
//!   immediately; `RequestUpdate` deltas are merged per app while the
//!   master is busy and flushed as soon as it has drained its queue;
//!   blacklist sweeps and launch retries run on the roll-up timer.
//! * **Hot-standby election** via the Apsara lock service; a standby master
//!   holds no state until `LockGranted` promotes it.
//! * **Failover rebuild** — hard state from the checkpoint, soft state
//!   re-collected from agents (`AgentAllocationReport`) and application
//!   masters (`FullRequestSync`) during a bounded rebuild window (Figure 7),
//!   after which scheduling resumes with all prior grants intact.

use crate::blacklist::{ClusterBlacklist, ExclusionReason, Transition};
use crate::quota::{QuotaGroup, QuotaManager};
use crate::scheduler::{Engine, EngineConfig, EngineEvent, RevokeReason, MASTER_UNIT};
use crate::state::{HardState, JobRecord};
use fuxi_apsara::naming::FUXI_MASTER;
use fuxi_apsara::{NameRegistry, StoreHandle};
use fuxi_proto::msg::{AppDescription, SeqCheck, SeqReceiver, SeqSender};
use fuxi_proto::request::{GrantDelta, RequestDelta};
use fuxi_proto::topology::Topology;
use fuxi_obs::window::{DEFAULT_RETAIN, DEFAULT_WINDOW_S};
use fuxi_obs::{MasterRollup, MetricsHub, MetricsPlaneConfig, SloAlert, SloWatchdog, WindowRing};
use fuxi_proto::{AppId, JobId, MachineId, Msg, QuotaGroupId, UnitId};
use fuxi_sim::{
    Actor, ActorId, Ctx, SimDuration, SimTime, SpanKind, TraceEvent, TraceId, WindowedHistogram,
};
use std::collections::{BTreeMap, BTreeSet};

/// FuxiMaster tuning.
#[derive(Debug, Clone)]
pub struct MasterConfig {
    /// Lock lease; bounds how long a dead primary stalls the cluster.
    pub lease_ttl: SimDuration,
    /// Keepalive cadence (should be well under `lease_ttl`).
    pub keepalive_interval: SimDuration,
    /// How long a new primary collects soft state before scheduling resumes.
    pub rebuild_window: SimDuration,
    /// Scheduling-engine tuning.
    pub engine: EngineConfig,
    /// Quota groups to install (group 0 always exists, unlimited).
    pub quota_groups: Vec<(QuotaGroupId, QuotaGroup)>,
    /// Metrics-plane switch and pending-age SLO threshold.
    /// `metrics.enabled = false` turns the whole plane off (the overhead
    /// benchmark compares exactly this toggle).
    pub metrics: MetricsPlaneConfig,
}

impl Default for MasterConfig {
    fn default() -> Self {
        Self {
            lease_ttl: SimDuration::from_secs(6),
            keepalive_interval: SimDuration::from_secs(2),
            rebuild_window: SimDuration::from_secs(8),
            engine: EngineConfig::default(),
            quota_groups: Vec::new(),
            metrics: MetricsPlaneConfig::default(),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Standby,
    Rebuilding,
    Primary,
}

const TIMER_KEEPALIVE: u64 = 1;
const TIMER_BATCH: u64 = 2;
const TIMER_ROLLUP: u64 = 3;
const TIMER_REBUILD_DONE: u64 = 4;
const TIMER_METRICS: u64 = 5;

/// Roll-up interval for heavy housekeeping (bad-node detection, launch
/// retries, metric samples).
const ROLLUP_INTERVAL: SimDuration = SimDuration::from_secs(5);

/// Probe unit for the fragmentation reading: free memory on machines with
/// less than this free is considered stranded.
const FRAG_PROBE_MEM_MB: u64 = 2048;

/// How long a `StartAppMaster` may go unanswered before the roll-up sends
/// it again. Two roll-ups: well past a package download, so a healthy
/// launch costs no extra message; no longer, because a repeat is harmless
/// (the agent ignores one it is still fetching and answers one it runs
/// with `AppMasterStarted`, so it never starts two JobMasters).
const JM_LAUNCH_RETRY: SimDuration = SimDuration::from_secs(10);

/// Where a job's JobMaster is, as this master knows it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JmState {
    /// None placed: no capacity or no agent yet, or the last one failed,
    /// exited or lost its machine. Every launch trigger picks it up.
    Waiting,
    /// `StartAppMaster` sent to `machine`'s agent at `since`, no reply yet.
    Launching { machine: MachineId, since: SimTime },
    /// The agent on `machine` reported it running.
    Running { machine: MachineId, actor: ActorId },
}

impl JmState {
    fn machine(self) -> Option<MachineId> {
        match self {
            JmState::Waiting => None,
            JmState::Launching { machine, .. } | JmState::Running { machine, .. } => Some(machine),
        }
    }
}

#[derive(Debug)]
struct JobRuntime {
    app: AppId,
    client: ActorId,
    desc: AppDescription,
    jm: JmState,
    submitted_at: SimTime,
    /// Machines where JM launch failed (avoid on retry).
    launch_avoid: BTreeSet<MachineId>,
}

impl JobRuntime {
    fn new(rec: JobRecord, now: SimTime) -> Self {
        Self {
            app: rec.app,
            client: rec.client,
            desc: rec.desc,
            jm: JmState::Waiting,
            submitted_at: now,
            launch_avoid: BTreeSet::new(),
        }
    }
}

/// The live job behind `app`, with its id. (Over the two maps rather than
/// `&mut FuxiMaster`, so callers keep the engine while they hold the row.)
fn job_of_app<'a>(
    app_to_job: &BTreeMap<AppId, JobId>,
    jobs: &'a mut BTreeMap<JobId, JobRuntime>,
    app: AppId,
) -> Option<(JobId, &'a mut JobRuntime)> {
    let job = *app_to_job.get(&app)?;
    Some((job, jobs.get_mut(&job)?))
}

/// The FuxiMaster actor. Spawn two (a pair) for hot-standby operation.
pub struct FuxiMaster {
    cfg: MasterConfig,
    topo: Topology,
    naming: NameRegistry,
    store: StoreHandle,
    lock_svc: ActorId,
    role: Role,
    engine: Option<Engine>,
    blacklist: Option<ClusterBlacklist>,
    jobs: BTreeMap<JobId, JobRuntime>,
    app_to_job: BTreeMap<AppId, JobId>,
    next_app: u32,
    agents: Vec<Option<ActorId>>,
    am_addr: BTreeMap<AppId, ActorId>,
    req_rx: BTreeMap<AppId, SeqReceiver>,
    grant_tx: BTreeMap<AppId, SeqSender>,
    pending_deltas: BTreeMap<AppId, BTreeMap<UnitId, RequestDelta>>,
    /// Apps whose AM has re-synced during the current rebuild.
    apps_seen: BTreeSet<AppId>,
    /// Reused event buffer for [`Self::flush_engine`]: the engine swaps its
    /// decision log into this, so steady-state flushes allocate nothing.
    scratch_events: Vec<EngineEvent>,
    /// Shared cluster view fed by agent/JM reports and the master's own
    /// rollup. Like the name registry, the hub is cluster infrastructure:
    /// it outlives any single master, so pending-age clocks keep running
    /// across a failover.
    hub: MetricsHub,
    /// Edge-triggered SLO evaluation state (per-rule active flags).
    watchdog: SloWatchdog,
    /// Scheduling-decision latencies bucketed into time windows; the
    /// rollup reads p50/p95/p99 over the retained horizon. Kept on the
    /// actor (not in `ctx.metrics()`) so the live runtime's periodic
    /// per-thread metric flush cannot steal it mid-window.
    sched_win: WindowedHistogram,
    /// Job completions per window, for the jobs/sec rate.
    jobs_done_win: WindowRing,
    /// This master's election ordinal (1 = first primary), from the hub.
    epoch: u32,
}

impl FuxiMaster {
    /// Creates a new instance with the given configuration.
    pub fn new(
        cfg: MasterConfig,
        topo: Topology,
        naming: NameRegistry,
        store: StoreHandle,
        lock_svc: ActorId,
        hub: MetricsHub,
    ) -> Self {
        let n = topo.n_machines();
        Self {
            hub,
            watchdog: SloWatchdog::default(),
            sched_win: WindowedHistogram::new(DEFAULT_WINDOW_S, DEFAULT_RETAIN),
            jobs_done_win: WindowRing::default(),
            epoch: 0,
            cfg,
            topo,
            naming,
            store,
            lock_svc,
            role: Role::Standby,
            engine: None,
            blacklist: None,
            jobs: BTreeMap::new(),
            app_to_job: BTreeMap::new(),
            next_app: 0,
            agents: vec![None; n],
            am_addr: BTreeMap::new(),
            req_rx: BTreeMap::new(),
            grant_tx: BTreeMap::new(),
            pending_deltas: BTreeMap::new(),
            apps_seen: BTreeSet::new(),
            scratch_events: Vec::new(),
        }
    }

    fn is_active(&self) -> bool {
        self.role == Role::Primary
    }

    /// The causal trace of the job behind `app` (NONE for unknown apps).
    fn trace_of_app(&self, app: AppId) -> TraceId {
        self.app_to_job
            .get(&app)
            .map(|j| TraceId::from_job(j.0))
            .unwrap_or(TraceId::NONE)
    }

    // ------------------------------------------------------------------
    // Election & failover
    // ------------------------------------------------------------------

    fn become_primary(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let mut quotas = QuotaManager::new();
        for (id, g) in &self.cfg.quota_groups {
            quotas.define(*id, g.clone());
        }
        let mut engine = Engine::new(self.topo.clone(), self.cfg.engine.clone(), quotas);
        // Machines join the schedulable pool when their agent reports in
        // ("it passively collects total free resources from each machine").
        for m in self.topo.machines() {
            engine.deactivate_machine(m);
        }
        let mut blacklist = ClusterBlacklist::new(self.topo.n_machines());

        // Hard state from the checkpoint records; everything else is soft.
        let hard = HardState::load(&self.store);
        self.next_app = hard.next_app;
        blacklist.restore(ctx.now(), &hard.blacklist);
        let had_jobs = !hard.jobs.is_empty();
        for rec in hard.jobs {
            self.app_to_job.insert(rec.app, rec.job);
            self.jobs.insert(rec.job, JobRuntime::new(rec, ctx.now()));
        }
        self.engine = Some(engine);
        self.blacklist = Some(blacklist);
        self.naming.register(FUXI_MASTER, ctx.id());
        ctx.metrics().count("fm.became_primary", 1);
        ctx.trace(TraceEvent::MasterElected {
            actor: ctx.id().0,
            failover: had_jobs,
        });
        ctx.timer(ROLLUP_INTERVAL, TIMER_ROLLUP);
        if self.cfg.metrics.enabled {
            // The hub survives failover (it is cluster infrastructure, not
            // master state), so the election ordinal is stored there: a new
            // primary continues the count instead of restarting at one.
            self.epoch = self.hub.update(|v| {
                v.rollup.master_epoch += 1;
                v.rollup.master_epoch
            });
            ctx.timer(SimDuration::from_secs_f64(DEFAULT_WINDOW_S), TIMER_METRICS);
        }
        if had_jobs {
            // Failover: collect soft state before scheduling resumes.
            self.role = Role::Rebuilding;
            self.apps_seen.clear();
            self.engine.as_mut().unwrap().pause();
            ctx.trace(TraceEvent::RebuildStarted {
                jobs: self.jobs.len() as u32,
            });
            // Forensic snapshot of what every actor saw leading into the
            // failover — Table 3 fault runs produce a timeline, not just
            // counters.
            ctx.flight_dump("master_failover");
            ctx.timer(self.cfg.rebuild_window, TIMER_REBUILD_DONE);
        } else {
            self.role = Role::Primary;
        }
    }

    fn finish_rebuild(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if self.role != Role::Rebuilding {
            return;
        }
        self.role = Role::Primary;
        ctx.trace(TraceEvent::RebuildDone {
            apps_seen: self.apps_seen.len() as u32,
        });
        let t_rebuild = std::time::Instant::now();
        let t = std::time::Instant::now();
        self.engine.as_mut().unwrap().resume();
        self.record_sched(ctx, t);
        self.flush_engine(ctx);
        // Jobs whose application master never re-appeared get a fresh one;
        // it recovers from its snapshot ("the JobMaster ... will initially
        // load the snapshot of instance status").
        let missing: Vec<JobId> = self
            .jobs
            .iter()
            .filter(|(_, j)| !self.apps_seen.contains(&j.app))
            .map(|(&id, _)| id)
            .collect();
        for job in missing {
            self.launch_jm(ctx, job);
        }
        // Now that the books are whole, give every re-attached AM the
        // authoritative grant baseline (deferred from the rebuild window).
        let ams: Vec<(AppId, fuxi_sim::ActorId)> =
            self.am_addr.iter().map(|(&a, &x)| (a, x)).collect();
        for (app, am) in ams {
            self.send_full_grant_sync(ctx, app, am);
        }
        ctx.metrics().count("fm.rebuild_done", 1);
        ctx.span(SpanKind::Rebuild, t_rebuild.elapsed().as_secs_f64());
    }

    // ------------------------------------------------------------------
    // Job lifecycle
    // ------------------------------------------------------------------

    /// One hard-state write (paper §4.3.1: a record changes only when its
    /// job is submitted or stopped, or the blacklist moves), timed as a
    /// checkpoint span.
    fn write_hard(ctx: &mut Ctx<'_, Msg>, write: impl FnOnce()) {
        let t = std::time::Instant::now();
        write();
        ctx.span(SpanKind::Checkpoint, t.elapsed().as_secs_f64());
    }

    fn submit_job(&mut self, ctx: &mut Ctx<'_, Msg>, job: JobId, desc: AppDescription, client: ActorId) {
        if let Some(j) = self.jobs.get(&job) {
            // A resubmission means the client never saw our ack; without
            // another it would retry until the job is gone and then be
            // taken for a new job.
            ctx.send(client, Msg::JobAccepted { job, app: j.app });
            return;
        }
        let app = AppId(self.next_app);
        self.next_app += 1;
        self.app_to_job.insert(app, job);
        // The job's causal chain is keyed by its id, so even a resubmission
        // to a post-failover primary continues the same trace.
        ctx.set_trace(TraceId::from_job(job.0));
        ctx.trace(TraceEvent::JobSubmitted { job: job.0, app: app.0 });
        let rec = JobRecord { job, app, client, desc };
        Self::write_hard(ctx, || HardState::job_submitted(&self.store, &rec));
        self.jobs.insert(job, JobRuntime::new(rec, ctx.now()));
        ctx.send(client, Msg::JobAccepted { job, app });
        if self.is_active() {
            self.launch_jm(ctx, job);
        }
        ctx.metrics().count("fm.jobs_submitted", 1);
    }

    fn launch_jm(&mut self, ctx: &mut Ctx<'_, Msg>, job: JobId) {
        let Some(j) = self.jobs.get(&job) else {
            return;
        };
        if j.jm != JmState::Waiting {
            return;
        }
        // Launches are triggered both causally (submit) and by the roll-up
        // retry timer; re-establish the job's trace for both paths.
        ctx.set_trace(TraceId::from_job(job.0));
        let app = j.app;
        let group = j.desc.quota_group;
        let res = j.desc.master_resource.clone();
        let avoid = j.launch_avoid.clone();
        let engine = self.engine.as_mut().unwrap();
        if !engine.has_app(app) {
            engine.attach_app(app, group, Vec::new());
        }
        let t = std::time::Instant::now();
        let placed = engine.place_master(app, res, &avoid);
        self.record_sched(ctx, t);
        // Preemption revokes (if any) must reach agents and AMs; the
        // master-unit grant itself is bookkeeping-only and filtered by
        // flush_engine.
        self.flush_engine(ctx);
        let Some(m) = placed else {
            ctx.metrics().count("fm.jm_launch_no_capacity", 1);
            return; // retried when an agent brings capacity, or on the roll-up
        };
        let Some(agent) = self.agents[m.0 as usize] else {
            // Agent address unknown (not yet hello'd): release and retry.
            self.engine
                .as_mut()
                .unwrap()
                .return_grant(app, MASTER_UNIT, m, 1);
            let _ = self.engine.as_mut().unwrap().drain_events();
            return;
        };
        let j = self.jobs.get_mut(&job).unwrap();
        j.jm = JmState::Launching { machine: m, since: ctx.now() };
        let desc = j.desc.clone();
        ctx.trace(TraceEvent::JmLaunchRequested {
            app: app.0,
            machine: m.0,
        });
        ctx.send(agent, Msg::StartAppMaster { app, job, desc });
    }

    /// Retries the JobMaster launch of every job that has neither a
    /// JobMaster nor a launch in flight (the earlier attempt found no
    /// capacity or no agent). Driven by the event that can change the
    /// answer — an agent bringing capacity — and by the roll-up timer as
    /// the fallback.
    fn launch_waiting_jms(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let waiting: Vec<JobId> = self
            .jobs
            .iter()
            .filter(|(_, j)| j.jm == JmState::Waiting)
            .map(|(&id, _)| id)
            .collect();
        for job in waiting {
            self.launch_jm(ctx, job);
        }
    }

    /// Repeats every `StartAppMaster` that has gone unanswered for
    /// [`JM_LAUNCH_RETRY`], to the same agent: the request, the agent's
    /// `AppMasterStarted` or its `AppMasterStartFailed` was lost.
    fn retry_silent_launches(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let now = ctx.now();
        for (&job, j) in &self.jobs {
            let JmState::Launching { machine, since } = j.jm else { continue };
            let Some(agent) = self.agents[machine.0 as usize] else { continue };
            if now.since(since) > JM_LAUNCH_RETRY {
                ctx.metrics().count("fm.jm_launch_retries", 1);
                let start = Msg::StartAppMaster { app: j.app, job, desc: j.desc.clone() };
                ctx.send_traced(agent, start, TraceId::from_job(job.0));
            }
        }
    }

    fn job_finished(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        job: JobId,
        app: AppId,
        success: bool,
        message: String,
    ) {
        let Some(j) = self.jobs.remove(&job) else {
            return;
        };
        ctx.set_trace(TraceId::from_job(job.0));
        ctx.trace(TraceEvent::JobFinished {
            job: job.0,
            app: app.0,
            success,
        });
        self.app_to_job.remove(&app);
        self.am_addr.remove(&app);
        self.req_rx.remove(&app);
        self.grant_tx.remove(&app);
        self.pending_deltas.remove(&app);
        self.apps_seen.remove(&app);
        let t = std::time::Instant::now();
        self.engine.as_mut().unwrap().detach_app(app);
        self.record_sched(ctx, t);
        self.flush_engine(ctx);
        Self::write_hard(ctx, || HardState::job_stopped(&self.store, job));
        ctx.send(
            j.client,
            Msg::JobFinished {
                job,
                app,
                success,
                message,
            },
        );
        ctx.metrics().count("fm.jobs_finished", 1);
        if self.cfg.metrics.enabled {
            self.jobs_done_win.observe(ctx.now().as_secs_f64(), 1.0);
            self.hub.update(|v| v.job_finished(job.0));
        }
    }

    // ------------------------------------------------------------------
    // Engine event fan-out
    // ------------------------------------------------------------------

    fn record_sched(&mut self, ctx: &mut Ctx<'_, Msg>, t: std::time::Instant) {
        let dt = t.elapsed().as_secs_f64();
        let now = ctx.now().as_secs_f64();
        if self.cfg.metrics.enabled {
            self.sched_win.record(now, dt);
        }
        ctx.metrics().record("fm.sched_s", dt);
        // The Figure 9 histogram and its timeline (the spans) come from the
        // same measurement.
        ctx.span(SpanKind::SchedDecision, dt);
    }

    /// Drains engine decisions into `GrantUpdate` (to AMs) and
    /// `CapacityNotify` (to agents) messages.
    fn flush_engine(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let mut events = std::mem::take(&mut self.scratch_events);
        self.engine.as_mut().unwrap().take_events_into(&mut events);
        if events.is_empty() {
            self.scratch_events = events;
            return;
        }
        let mut per_am: BTreeMap<AppId, Vec<GrantDelta>> = BTreeMap::new();
        // One CapacityNotify envelope per agent per flush: per-decision
        // changes are coalesced here and sent as a single run below. The
        // envelope carries the trace of its first contributing decision;
        // the per-decision Grant/Revoke trace events keep their own traces.
        let mut per_agent: BTreeMap<MachineId, (TraceId, Vec<fuxi_proto::CapacityChange>)> =
            BTreeMap::new();
        for ev in &events {
            let (app, unit, machine, delta, returned) = match *ev {
                EngineEvent::Grant {
                    app,
                    unit,
                    machine,
                    count,
                } => (app, unit, machine, count as i64, false),
                EngineEvent::Revoke {
                    app,
                    unit,
                    machine,
                    count,
                    reason,
                } => (app, unit, machine, -(count as i64), reason == RevokeReason::Returned),
            };
            if unit != MASTER_UNIT {
                // One flush covers decisions for many jobs; each event and
                // its fan-out messages carry their own job's trace.
                let trace = self.trace_of_app(app);
                // A voluntary return is already off the AM's ledger (the AM
                // sent it); only the agent's envelope still has to follow.
                if !returned {
                    ctx.trace_as(
                        trace,
                        if delta >= 0 {
                            TraceEvent::Grant {
                                app: app.0,
                                unit: unit.0,
                                machine: machine.0,
                                count: delta as u64,
                            }
                        } else {
                            TraceEvent::Revoke {
                                app: app.0,
                                unit: unit.0,
                                machine: machine.0,
                                count: (-delta) as u64,
                            }
                        },
                    );
                    per_am.entry(app).or_default().push(GrantDelta {
                        unit,
                        changes: vec![(machine, delta)],
                    });
                }
                // Agents enforce the per-app envelope.
                if self.agents[machine.0 as usize].is_some() {
                    let unit_resource = self
                        .engine
                        .as_ref()
                        .unwrap()
                        .unit_resource(app, unit)
                        .unwrap_or(fuxi_proto::ResourceVec::ZERO);
                    per_agent
                        .entry(machine)
                        .or_insert_with(|| (trace, Vec::new()))
                        .1
                        .push(fuxi_proto::CapacityChange {
                            app,
                            unit,
                            unit_resource,
                            delta,
                        });
                }
            }
        }
        for (machine, (trace, changes)) in per_agent {
            if let Some(agent) = self.agents[machine.0 as usize] {
                ctx.send_traced(agent, Msg::CapacityNotify { changes }, trace);
            }
        }
        for (app, grants) in per_am {
            if let Some(&am) = self.am_addr.get(&app) {
                let seq = self.grant_tx.entry(app).or_default().next();
                let trace = self.trace_of_app(app);
                ctx.send_traced(am, Msg::GrantUpdate { seq, grants }, trace);
                ctx.metrics().count("fm.grant_updates", 1);
            }
        }
        events.clear();
        self.scratch_events = events;
    }

    // ------------------------------------------------------------------
    // Batched request handling
    // ------------------------------------------------------------------

    fn flush_batches(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if !self.is_active() {
            self.pending_deltas.clear();
            return;
        }
        let t_flush = std::time::Instant::now();
        let pending = std::mem::take(&mut self.pending_deltas);
        let had_work = !pending.is_empty();
        for (app, per_unit) in pending {
            let deltas: Vec<RequestDelta> = per_unit.into_values().collect();
            // The batch timer has no causal context of its own; each app's
            // slice of the batch runs under its job's trace.
            ctx.set_trace(self.trace_of_app(app));
            ctx.trace(TraceEvent::RequestApplied {
                app: app.0,
                deltas: deltas.len() as u32,
            });
            let t = std::time::Instant::now();
            self.engine.as_mut().unwrap().apply_deltas(app, &deltas);
            self.record_sched(ctx, t);
        }
        ctx.set_trace(TraceId::NONE);
        self.flush_engine(ctx);
        if had_work {
            ctx.span(SpanKind::BatchFlush, t_flush.elapsed().as_secs_f64());
        }
    }

    // ------------------------------------------------------------------
    // Blacklist & node lifecycle
    // ------------------------------------------------------------------

    fn apply_transitions(&mut self, ctx: &mut Ctx<'_, Msg>, transitions: Vec<Transition>) {
        if !transitions.is_empty() {
            // The blacklist is hard state: its record follows every change.
            let list = self.blacklist.as_ref().map(|b| b.snapshot()).unwrap_or_default();
            Self::write_hard(ctx, || HardState::blacklist_changed(&self.store, &list));
        }
        for tr in transitions {
            match tr {
                Transition::Excluded(m, reason) => {
                    ctx.metrics().count("fm.machines_excluded", 1);
                    ctx.trace_as(TraceId::NONE, TraceEvent::NodeDown { machine: m.0 });
                    let t = std::time::Instant::now();
                    self.engine.as_mut().unwrap().node_down(m);
                    self.record_sched(ctx, t);
                    if reason == ExclusionReason::HeartbeatTimeout {
                        self.agents[m.0 as usize] = None;
                    }
                    // Restart any JobMaster that lived there.
                    let victims: Vec<JobId> = self
                        .jobs
                        .iter()
                        .filter(|(_, j)| j.jm.machine() == Some(m))
                        .map(|(&id, _)| id)
                        .collect();
                    for job in victims {
                        {
                            let j = self.jobs.get_mut(&job).unwrap();
                            j.jm = JmState::Waiting;
                            j.launch_avoid.insert(m);
                        }
                        if self.is_active() {
                            self.launch_jm(ctx, job);
                        }
                    }
                }
                Transition::Readmitted(m) => {
                    ctx.metrics().count("fm.machines_readmitted", 1);
                    ctx.trace_as(TraceId::NONE, TraceEvent::NodeUp { machine: m.0 });
                    let cap = self.topo.spec(m).resources.clone();
                    let t = std::time::Instant::now();
                    self.engine.as_mut().unwrap().node_up(m, cap);
                    self.record_sched(ctx, t);
                }
            }
        }
        if self.is_active() {
            self.flush_engine(ctx);
        }
    }

    fn rollup(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let now = ctx.now();
        if let Some(bl) = self.blacklist.as_mut() {
            let transitions = bl.sweep(now);
            self.apply_transitions(ctx, transitions);
        }
        if self.is_active() {
            self.launch_waiting_jms(ctx);
            self.retry_silent_launches(ctx);
            // Utilization gauges (Figure 10's FM_total / FM_planned).
            let engine = self.engine.as_ref().unwrap();
            let total = engine.total_capacity();
            let planned = engine.planned().clone();
            let t = now.as_secs_f64();
            let m = ctx.metrics();
            m.push_series("fm.total_mem_mb", t, total.memory_mb() as f64);
            m.push_series("fm.planned_mem_mb", t, planned.memory_mb() as f64);
            m.push_series("fm.total_cpu_milli", t, total.cpu_milli() as f64);
            m.push_series("fm.planned_cpu_milli", t, planned.cpu_milli() as f64);
            m.push_series(
                "fm.waiting_entries",
                t,
                engine.waiting_entries() as f64,
            );
        }
    }

    /// Once-per-window metrics rollup (Section 3.4's "roll-up manner"
    /// applied to observability): folds the master's own scheduler readings
    /// into the shared [`ClusterView`], evaluates the SLO watchdog, and
    /// turns each raise/clear transition into a typed trace event — plus a
    /// flight-recorder dump on raises, so every breach comes with the
    /// timeline that led into it.
    fn metrics_tick(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let now = ctx.now().as_secs_f64();
        let engine = self.engine.as_ref().unwrap();
        let total = engine.total_capacity();
        let planned = engine.planned().clone();
        let (free, stranded, largest) = engine.free_summary(FRAG_PROBE_MEM_MB);
        let sched = self.sched_win.merged();
        // Both totals come from checkpointed hard state, so they carry
        // across master epochs: every accepted submit takes one app id,
        // never reused, and a job leaves `jobs` exactly when it finishes.
        let submitted = u64::from(self.next_app);
        let rollup = MasterRollup {
            t_s: now,
            jobs_per_sec: self.jobs_done_win.rate_per_sec(now),
            jobs_submitted_total: submitted,
            jobs_finished_total: submitted - self.jobs.len() as u64,
            sched_p50_s: sched.quantile(0.5),
            sched_p95_s: sched.quantile(0.95),
            sched_p99_s: sched.quantile(0.99),
            sched_count_win: sched.count(),
            total_cpu_milli: total.cpu_milli(),
            total_mem_mb: total.memory_mb(),
            planned_cpu_milli: planned.cpu_milli(),
            planned_mem_mb: planned.memory_mb(),
            waiting_entries: engine.waiting_entries() as u64,
            free_mem_mb: free,
            stranded_free_mem_mb: stranded,
            largest_free_mem_mb: largest,
            master_epoch: self.epoch,
        };
        let watchdog = &mut self.watchdog;
        let pending_age_s = self.cfg.metrics.pending_age_s;
        let transitions: Vec<SloAlert> = self.hub.update(|v| {
            v.apply_rollup(rollup);
            let tr = watchdog.evaluate(pending_age_s, v, now);
            v.apply_alerts(&tr);
            tr
        });
        for a in &transitions {
            // Alerts are cluster-wide conditions, not per-job causality.
            ctx.trace_as(
                TraceId::NONE,
                TraceEvent::SloAlert {
                    rule: a.rule.name(),
                    raised: a.raised,
                    value: a.value as f32,
                    threshold: a.threshold as f32,
                },
            );
            ctx.metrics().count(
                if a.raised {
                    "fm.slo_raised"
                } else {
                    "fm.slo_cleared"
                },
                1,
            );
            if a.raised {
                ctx.flight_dump(a.rule.dump_reason());
            }
        }
    }

    // ------------------------------------------------------------------
    // Per-message handlers
    // ------------------------------------------------------------------

    fn on_agent_hello(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        from: ActorId,
        machine: MachineId,
        total: fuxi_proto::ResourceVec,
    ) {
        self.agents[machine.0 as usize] = Some(from);
        let now = ctx.now();
        if let Some(bl) = self.blacklist.as_mut() {
            let tr = bl.on_heartbeat(now, machine, &fuxi_proto::NodeHealthReport::healthy());
            if let Some(tr) = tr {
                self.apply_transitions(ctx, vec![tr]);
            }
        }
        let engine = self.engine.as_mut().unwrap();
        let brings_capacity = engine.capacity_of(machine).is_zero()
            && !self
                .blacklist
                .as_ref()
                .map(|b| b.is_excluded(machine))
                .unwrap_or(false);
        if brings_capacity {
            let t = std::time::Instant::now();
            engine.node_up(machine, total);
            self.record_sched(ctx, t);
            ctx.metrics().count("fm.agents_joined", 1);
        }
        // Tell a restarted agent what is on the books for its machine.
        let allocations = self.engine.as_ref().unwrap().allocations_on(machine);
        ctx.send(from, Msg::AgentCapacitySnapshot { allocations });
        if self.is_active() {
            self.flush_engine(ctx);
            if brings_capacity {
                // Jobs submitted before any agent was known (cold start)
                // start now, not on the next roll-up.
                self.launch_waiting_jms(ctx);
            }
        }
    }

    fn on_request_update(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        from: ActorId,
        app: AppId,
        seq: u64,
        deltas: Vec<RequestDelta>,
    ) {
        ctx.metrics().count("fm.request_updates", 1);
        let rx = self.req_rx.entry(app).or_default();
        match rx.accept(seq) {
            SeqCheck::Apply => {
                // §3.4 batch mode without a fixed tick: the first delta since
                // the last flush arms a flush behind whatever is already
                // queued, and every delta that arrives before it fires merges
                // into the same batch. At light load a delta waits for no
                // batch period (live: for the next edge of the runtime's
                // timer wheel); under load the batch is as large as the
                // backlog.
                if self.pending_deltas.is_empty() {
                    ctx.timer(SimDuration::ZERO, TIMER_BATCH);
                }
                let per_unit = self.pending_deltas.entry(app).or_default();
                for d in deltas {
                    match per_unit.get_mut(&d.unit) {
                        Some(existing) => existing.merge(&d),
                        None => {
                            per_unit.insert(d.unit, d);
                        }
                    }
                }
            }
            SeqCheck::Duplicate => {
                ctx.metrics().count("fm.dup_deltas_dropped", 1);
            }
            SeqCheck::Gap => {
                ctx.metrics().count("fm.request_gaps", 1);
                ctx.send(from, Msg::RequestSyncNeeded { app });
            }
        }
    }

    fn on_full_request_sync(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        from: ActorId,
        app: AppId,
        units: Vec<fuxi_proto::request::ScheduleUnitDef>,
        states: Vec<fuxi_proto::request::RequestState>,
    ) {
        self.am_addr.insert(app, from);
        self.apps_seen.insert(app);
        self.pending_deltas.remove(&app);
        self.req_rx.entry(app).or_default().synced();
        let group = self
            .app_to_job
            .get(&app)
            .and_then(|j| self.jobs.get(j))
            .map(|j| j.desc.quota_group)
            .unwrap_or(QuotaGroupId(0));
        let t = std::time::Instant::now();
        self.engine
            .as_mut()
            .unwrap()
            .full_request_sync(app, group, units, states);
        self.record_sched(ctx, t);
        // Answer with the authoritative grant snapshot and restart grant
        // numbering from this baseline — but never from a half-rebuilt
        // book: during rebuild the snapshot would be empty and the AM would
        // wrongly tear down every worker. Deferred to finish_rebuild.
        if self.role != Role::Rebuilding {
            self.send_full_grant_sync(ctx, app, from);
        }
        if self.is_active() {
            self.flush_engine(ctx);
        }
    }

    /// Sends `am` the authoritative grants of `app` and restarts grant
    /// numbering from that baseline.
    fn send_full_grant_sync(&mut self, ctx: &mut Ctx<'_, Msg>, app: AppId, am: ActorId) {
        let mut per_unit: BTreeMap<UnitId, Vec<(MachineId, u64)>> = BTreeMap::new();
        for (unit, m, _, count) in self.engine.as_ref().unwrap().app_grants(app) {
            if unit != MASTER_UNIT {
                per_unit.entry(unit).or_default().push((m, count));
            }
        }
        self.grant_tx.entry(app).or_default().reset();
        ctx.send(am, Msg::FullGrantSync { snapshot: per_unit.into_iter().collect() });
    }
}

impl Actor<Msg> for FuxiMaster {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        ctx.send(
            self.lock_svc,
            Msg::LockAcquire {
                name: FUXI_MASTER.to_owned(),
                ttl_s: self.cfg.lease_ttl.as_secs_f64(),
            },
        );
        ctx.timer(self.cfg.keepalive_interval, TIMER_KEEPALIVE);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: ActorId, msg: Msg) {
        // Wall-clock cost of the whole handler (Table 2's per-message
        // processing overhead comes from these spans).
        let t_handler = std::time::Instant::now();
        match msg {
            Msg::LockGranted { .. }
                if self.role == Role::Standby => {
                    self.become_primary(ctx);
                }
            Msg::LockLost { .. } => {
                // A primary that lost its lease must stop acting: another
                // master owns the cluster now.
                ctx.metrics().count("fm.lock_lost", 1);
                ctx.trace(TraceEvent::MasterLockLost { actor: ctx.id().0 });
                self.naming.deregister(FUXI_MASTER, ctx.id());
                ctx.kill_self();
            }
            _ if self.role == Role::Standby => {
                // Standby holds no state; peers discover the primary via
                // naming, so anything arriving here is stale. Drop it.
                ctx.metrics().count("fm.standby_dropped", 1);
            }
            // In-band aggregation: agents and JobMasters push compact
            // windowed readings over the same transport as heartbeats.
            // Counters in the report are cumulative, so a lost or
            // reordered report only delays the view, never skews it.
            // (With the plane disabled the report falls through to the
            // catch-all and is dropped.)
            Msg::MetricsReport { report } if self.cfg.metrics.enabled => {
                let now = ctx.now().as_secs_f64();
                self.hub.update(|v| v.apply_report(now, &report));
                ctx.metrics().count("fm.metrics_reports", 1);
            }
            Msg::SubmitJob { job, desc, client } => self.submit_job(ctx, job, desc, client),
            Msg::StopJob { job } => {
                if let Some(JmState::Running { actor, .. }) = self.jobs.get(&job).map(|j| j.jm) {
                    ctx.send(actor, Msg::StopJob { job });
                }
            }
            Msg::JobFinished {
                job,
                app,
                success,
                message,
            } => self.job_finished(ctx, job, app, success, message),
            Msg::AgentHeartbeat { machine, health } => {
                self.agents[machine.0 as usize] = Some(from);
                let now = ctx.now();
                if let Some(bl) = self.blacklist.as_mut() {
                    if let Some(tr) = bl.on_heartbeat(now, machine, &health) {
                        self.apply_transitions(ctx, vec![tr]);
                    }
                }
            }
            Msg::AgentAllocationReport {
                machine,
                total,
                allocations,
                app_masters,
            } => {
                self.agents[machine.0 as usize] = Some(from);
                // Re-learn where application masters live (prevents the new
                // primary from starting duplicates).
                for &(app, actor) in &app_masters {
                    if let Some((_, j)) = job_of_app(&self.app_to_job, &mut self.jobs, app) {
                        if !matches!(j.jm, JmState::Running { .. }) {
                            j.jm = JmState::Running { machine, actor };
                        }
                        self.apps_seen.insert(app);
                    }
                }
                if self.role == Role::Rebuilding {
                    let engine = self.engine.as_mut().unwrap();
                    // Hard state decides which apps exist: a row of an app
                    // with no job record is stale, and adopting it would
                    // hold capacity that nothing ever frees.
                    let live = allocations.into_iter().filter(|a| self.app_to_job.contains_key(&a.0));
                    for (app, unit, res, count) in live {
                        engine.adopt_allocation(app, unit, res, machine, count);
                        self.apps_seen.insert(app);
                    }
                    let t = std::time::Instant::now();
                    self.engine.as_mut().unwrap().node_up(machine, total);
                    self.record_sched(ctx, t);
                    if let Some(bl) = self.blacklist.as_mut() {
                        bl.on_heartbeat(
                            ctx.now(),
                            machine,
                            &fuxi_proto::NodeHealthReport::healthy(),
                        );
                    }
                } else {
                    // Outside a rebuild the master's books are authoritative.
                    // This is how an agent joins (boot, its own restart) and
                    // how its envelope is repaired: admit the machine and
                    // answer with what is on the books for it.
                    self.on_agent_hello(ctx, from, machine, total);
                }
            }
            Msg::AppMasterStarted { app, actor, machine } => {
                let running = JmState::Running { machine, actor };
                let job = job_of_app(&self.app_to_job, &mut self.jobs, app);
                // (An agent answers a repeated `StartAppMaster` again.)
                if let Some((job, j)) = job.filter(|(_, j)| j.jm != running) {
                    j.jm = running;
                    let dt = ctx.now().since(j.submitted_at).as_secs_f64();
                    ctx.metrics().record("fm.jm_start_overhead_s", dt);
                    ctx.trace_as(
                        TraceId::from_job(job.0),
                        TraceEvent::JmStarted {
                            app: app.0,
                            machine: machine.0,
                        },
                    );
                }
            }
            Msg::AppMasterStartFailed { app, reason: _ } => {
                if let Some((job, j)) = job_of_app(&self.app_to_job, &mut self.jobs, app) {
                    if let JmState::Launching { machine: m, .. } = j.jm {
                        j.jm = JmState::Waiting;
                        j.launch_avoid.insert(m);
                        self.engine
                            .as_mut()
                            .unwrap()
                            .return_grant(app, MASTER_UNIT, m, 1);
                        self.flush_engine(ctx);
                    }
                    if self.is_active() {
                        self.launch_jm(ctx, job);
                    }
                }
            }
            Msg::AppMasterExited { app, machine } => {
                if let Some((job, j)) = job_of_app(&self.app_to_job, &mut self.jobs, app) {
                    j.jm = JmState::Waiting;
                    ctx.trace_as(
                        TraceId::from_job(job.0),
                        TraceEvent::JmExited {
                            app: app.0,
                            machine: machine.0,
                        },
                    );
                    self.engine
                        .as_mut()
                        .unwrap()
                        .return_grant(app, MASTER_UNIT, machine, 1);
                    self.flush_engine(ctx);
                    if self.is_active() {
                        ctx.metrics().count("fm.jm_restarts", 1);
                        self.launch_jm(ctx, job);
                    }
                }
            }
            Msg::AmAttach { app, units } => {
                self.am_addr.insert(app, from);
                self.apps_seen.insert(app);
                let group = self
                    .app_to_job
                    .get(&app)
                    .and_then(|j| self.jobs.get(j))
                    .map(|j| j.desc.quota_group)
                    .unwrap_or(QuotaGroupId(0));
                self.engine.as_mut().unwrap().attach_app(app, group, units);
            }
            Msg::RequestUpdate { app, seq, deltas } => {
                self.on_request_update(ctx, from, app, seq, deltas)
            }
            Msg::ReturnGrant {
                app,
                unit,
                machine,
                count,
            } => {
                // Urgent class: applied immediately so freed resources turn
                // over without waiting for the batch timer.
                ctx.metrics().count("fm.returns", 1);
                let t = std::time::Instant::now();
                self.engine.as_mut().unwrap().return_grant(app, unit, machine, count);
                self.record_sched(ctx, t);
                self.flush_engine(ctx);
            }
            Msg::FullRequestSync {
                app,
                units,
                states,
                held: _,
            } => self.on_full_request_sync(ctx, from, app, units, states),
            Msg::GrantSyncNeeded { app } => self.send_full_grant_sync(ctx, app, from),
            Msg::AmDetach { app } => {
                let t = std::time::Instant::now();
                self.engine.as_mut().unwrap().detach_app(app);
                self.record_sched(ctx, t);
                self.flush_engine(ctx);
                self.am_addr.remove(&app);
                self.req_rx.remove(&app);
                self.grant_tx.remove(&app);
                self.pending_deltas.remove(&app);
            }
            Msg::BadMachineReport { app, machine } => {
                let now = ctx.now();
                if let Some(bl) = self.blacklist.as_mut() {
                    if let Some(tr) = bl.report_mark(now, app, machine) {
                        self.apply_transitions(ctx, vec![tr]);
                    }
                }
            }
            _ => {}
        }
        ctx.span(SpanKind::MsgHandler, t_handler.elapsed().as_secs_f64());
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, tag: u64) {
        match tag {
            TIMER_KEEPALIVE => {
                ctx.send(
                    self.lock_svc,
                    Msg::LockKeepalive {
                        name: FUXI_MASTER.to_owned(),
                    },
                );
                // A standby keeps trying to acquire (covers the lost-grant
                // race where the lock service granted to a dead standby).
                if self.role == Role::Standby {
                    ctx.send(
                        self.lock_svc,
                        Msg::LockAcquire {
                            name: FUXI_MASTER.to_owned(),
                            ttl_s: self.cfg.lease_ttl.as_secs_f64(),
                        },
                    );
                }
                ctx.timer(self.cfg.keepalive_interval, TIMER_KEEPALIVE);
            }
            TIMER_BATCH if self.role != Role::Standby => self.flush_batches(ctx),
            TIMER_ROLLUP
                if self.role != Role::Standby => {
                    self.rollup(ctx);
                    ctx.timer(ROLLUP_INTERVAL, TIMER_ROLLUP);
                }
            TIMER_REBUILD_DONE => self.finish_rebuild(ctx),
            TIMER_METRICS
                if self.role != Role::Standby => {
                    self.metrics_tick(ctx);
                    ctx.timer(SimDuration::from_secs_f64(DEFAULT_WINDOW_S), TIMER_METRICS);
                }
            _ => {}
        }
    }
}
