//! The FuxiAgent actor.

use crate::enforce::{pick_overload_victim, Envelope, ProcUsage, Sandbox};
use crate::ProcMeta;
use fuxi_apsara::naming::MasterWatch;
use fuxi_apsara::NameRegistry;
use fuxi_proto::msg::{AppDescription, WorkerSpec};
use fuxi_proto::{
    AppId, FailReason, JobId, MachineId, Msg, NodeHealthReport, ResourceVec, StartFailure, UnitId,
    WorkerId,
};
use fuxi_sim::{Actor, ActorId, Ctx, FlowKind, FlowSpec, SimDuration, TraceEvent, TraceId};
use rand::Rng;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Everything a factory needs to construct an application-master actor.
pub struct MasterLaunch {
    /// Application id.
    pub app: AppId,
    /// Job id.
    pub job: JobId,
    /// Task description.
    pub desc: AppDescription,
    /// Machine this applies to.
    pub machine: MachineId,
}

/// Everything a factory needs to construct a worker actor.
pub struct WorkerLaunch {
    /// Launch specification of the worker.
    pub spec: WorkerSpec,
    /// Machine this applies to.
    pub machine: MachineId,
}

/// Builds the application-master actor for a job type — the simulation
/// counterpart of exec'ing the downloaded master package.
pub type MasterFactory = Arc<dyn Fn(&MasterLaunch) -> Box<dyn Actor<Msg> + Send> + Send + Sync>;

/// Builds a worker actor — the counterpart of exec'ing the worker binary.
pub type WorkerFactory = Arc<dyn Fn(&WorkerLaunch) -> Box<dyn Actor<Msg> + Send> + Send + Sync>;

/// The heartbeat interval.
const HEARTBEAT_INTERVAL: SimDuration = SimDuration::from_secs(2);
/// Process-liveness and overload sweep cadence.
const SWEEP_INTERVAL: SimDuration = SimDuration::from_secs(1);
/// Grace the application master gets to act on a `CapacityWarning`
/// before the agent kills a process itself.
const CAPACITY_GRACE: SimDuration = SimDuration::from_secs(3);
/// Machine load (usage / capacity on the hottest dimension) above which
/// the overload kill rule engages.
const OVERLOAD_THRESHOLD: f64 = 1.05;

const TIMER_HB: u64 = 1;
const TIMER_SWEEP: u64 = 2;
const TIMER_PARKED: u64 = 3;
/// Cold start only: another look for a master while none is registered.
const TIMER_RESOLVE: u64 = 4;
const GRACE_BASE: u64 = 1 << 32;
/// Heartbeats between periodic envelope refreshes from the master (repairs
/// any drift from lost CapacityNotify messages).
const ENVELOPE_REFRESH_BEATS: u32 = 15;

/// How often a parked start is retried before it fails for capacity.
const PARK_RETRIES: u32 = 3;
const PARK_INTERVAL: SimDuration = SimDuration::from_millis(500);

/// One worker this agent was asked to start, from `StartWorker` (or
/// adoption) until it stops, fails or exits: the row is inserted once and
/// removed once, whatever stage it has reached.
#[derive(Debug)]
struct WorkerRt {
    spec: WorkerSpec,
    /// Causal trace captured when the launch request arrived. Downloads and
    /// retry timers reset the ambient trace, so it is stored, not inherited.
    trace: TraceId,
    stage: Stage,
}

#[derive(Debug, Clone, Copy)]
enum Stage {
    /// The request arrived before the matching `CapacityNotify` (the
    /// FM→AM→FA path can beat the FM→FA path): retried `attempts` times so
    /// far, failed for capacity after [`PARK_RETRIES`].
    Parked { attempts: u32 },
    /// Within the envelope; waiting for its app's binary download.
    Fetching,
    /// The process runs.
    Running(ActorId),
}

/// A download in flight, by flow tag.
enum PendingLaunch {
    Master { launch: MasterLaunch, trace: TraceId },
    /// The worker binary of an app; every `Fetching` row of the app waits
    /// for it.
    WorkerBinary(AppId),
}

/// The per-machine agent actor.
pub struct FuxiAgent {
    machine: MachineId,
    total: ResourceVec,
    /// Push an [`fuxi_sim::obs::AgentReport`] to the master on each
    /// heartbeat (the in-band metrics channel; follows the master's
    /// metrics-plane switch).
    report_metrics: bool,
    naming: NameRegistry,
    master_factory: MasterFactory,
    worker_factory: WorkerFactory,
    fm: Option<ActorId>,
    master_watch: MasterWatch,
    envelope: Envelope,
    workers: BTreeMap<WorkerId, WorkerRt>,
    jms: BTreeMap<AppId, (ActorId, JobId, ResourceVec)>,
    sandbox: Sandbox,
    pending: BTreeMap<u64, PendingLaunch>,
    next_tag: u64,
    launch_failures_since_hb: u32,
    beats: u32,
    /// Apps whose worker binary is already on local disk: container reuse
    /// means one download per (machine, app), not one per worker.
    binary_cache: BTreeSet<AppId>,
    /// Cumulative counters mirrored into each metrics report. Cumulative —
    /// not per-interval — so a dropped report never loses events: the
    /// master diffs successive values.
    worker_starts: u64,
    worker_exits: u64,
    launch_failures_total: u64,
}

impl FuxiAgent {
    /// Creates a new instance with the given configuration.
    pub fn new(
        machine: MachineId,
        total: ResourceVec,
        report_metrics: bool,
        naming: NameRegistry,
        master_factory: MasterFactory,
        worker_factory: WorkerFactory,
    ) -> Self {
        Self {
            machine,
            total,
            report_metrics,
            naming,
            master_factory,
            worker_factory,
            fm: None,
            master_watch: MasterWatch::default(),
            envelope: Envelope::new(),
            workers: BTreeMap::new(),
            jms: BTreeMap::new(),
            sandbox: Sandbox::default(),
            pending: BTreeMap::new(),
            next_tag: 1,
            launch_failures_since_hb: 0,
            beats: 0,
            binary_cache: BTreeSet::new(),
            worker_starts: 0,
            worker_exits: 0,
            launch_failures_total: 0,
        }
    }

    fn m(&self) -> u32 {
        self.machine.0
    }

    // ------------------------------------------------------------------
    // Master liaison
    // ------------------------------------------------------------------

    fn send_allocation_report(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if let Some(fm) = self.fm {
            ctx.send(
                fm,
                Msg::AgentAllocationReport {
                    machine: self.machine,
                    total: self.total.clone(),
                    allocations: self.envelope.report(),
                    app_masters: self.jms.iter().map(|(&app, &(a, _, _))| (app, a)).collect(),
                    jm_launches: (self.pending.values())
                        .filter_map(|p| match p {
                            PendingLaunch::Master { launch, .. } => Some(launch.app),
                            PendingLaunch::WorkerBinary(_) => None,
                        })
                        .collect(),
                },
            );
        }
    }

    fn resolve_master(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let current = self.naming.master();
        if current != self.fm {
            self.fm = current;
            // A (possibly new) master: report what this machine runs so a
            // rebuilding master reconstructs soft state (Figure 7).
            self.send_allocation_report(ctx);
        }
    }

    fn any_parked(&self) -> bool {
        self.workers.values().any(|w| matches!(w.stage, Stage::Parked { .. }))
    }

    /// The rows whose process runs.
    fn running(&self) -> impl Iterator<Item = &WorkerRt> {
        self.workers.values().filter(|w| matches!(w.stage, Stage::Running(_)))
    }

    /// What the machine's processes consume right now: each worker's real
    /// usage plus the JobMasters' reservations.
    fn usage(&self) -> ResourceVec {
        let mut usage = ResourceVec::ZERO;
        for w in self.running() {
            usage.add(&proc_usage(&w.spec).usage());
        }
        for (_, _, res) in self.jms.values() {
            usage.add(res);
        }
        usage
    }

    fn health(&mut self, ctx: &mut Ctx<'_, Msg>, usage: &ResourceVec) -> NodeHealthReport {
        let report = NodeHealthReport {
            disk_ok_ratio: if ctx.launch_ok(self.m()) { 1.0 } else { 0.4 },
            load: self.total.max_physical_load(usage),
            net_utilization: 0.0,
            recent_launch_failures: self.launch_failures_since_hb,
            speed_factor: ctx.machine_speed(self.m()),
        };
        // Fold the interval counter into the cumulative total the metrics
        // reports carry, then reset it for the next health interval.
        self.launch_failures_total += u64::from(self.launch_failures_since_hb);
        self.launch_failures_since_hb = 0;
        report
    }

    /// Builds and pushes the in-band metrics report (one per heartbeat).
    fn send_metrics_report(&mut self, ctx: &mut Ctx<'_, Msg>, usage: &ResourceVec, load: f64) {
        let Some(fm) = self.fm else { return };
        let report = fuxi_sim::obs::AgentReport {
            machine: self.m(),
            t_s: ctx.now().as_secs_f64(),
            total_cpu_milli: self.total.cpu_milli(),
            total_mem_mb: self.total.memory_mb(),
            used_cpu_milli: usage.cpu_milli(),
            used_mem_mb: usage.memory_mb(),
            workers: self.running().count() as u32,
            worker_starts: self.worker_starts,
            worker_exits: self.worker_exits,
            launch_failures: self.launch_failures_total,
            load,
        };
        ctx.send(
            fm,
            Msg::MetricsReport {
                report: fuxi_sim::obs::MetricsReport::Agent(report),
            },
        );
    }

    // ------------------------------------------------------------------
    // Launching
    // ------------------------------------------------------------------

    fn begin_download(&mut self, ctx: &mut Ctx<'_, Msg>, size_mb: f64, launch: PendingLaunch) {
        let tag = self.next_tag;
        self.next_tag += 1;
        self.pending.insert(tag, launch);
        // Binary packages are pulled from a (replicated) package store; the
        // paper attributes most of the 11.84 s worker start overhead to this
        // download (~400 MB). We model it as a transfer from a random
        // machine — contention with job traffic is real.
        let n = ctx.n_machines() as u32;
        let src = ctx.rng().gen_range(0..n);
        let kind = if src == self.m() {
            FlowKind::DiskRead { machine: self.m() }
        } else {
            FlowKind::Transfer {
                src,
                dst: self.m(),
            }
        };
        ctx.start_flow(FlowSpec {
            kind,
            size_mb,
            tag,
        });
    }

    fn finish_download(&mut self, ctx: &mut Ctx<'_, Msg>, tag: u64, failed: bool) {
        let Some(launch) = self.pending.remove(&tag) else {
            return;
        };
        match launch {
            PendingLaunch::Master { launch, trace } => {
                // Restore the causal context the request arrived under: the
                // spawn below hands it to the JobMaster's `on_start`, and
                // every reply to the FuxiMaster inherits it.
                ctx.set_trace(trace);
                let app = launch.app;
                if failed || !ctx.launch_ok(self.m()) {
                    self.launch_failures_since_hb += 1;
                    if let Some(fm) = self.fm {
                        ctx.send(
                            fm,
                            Msg::AppMasterStartFailed {
                                app,
                                reason: "launch failed".into(),
                            },
                        );
                    }
                    return;
                }
                let actor = ctx.spawn(Some(self.m()), (self.master_factory)(&launch));
                self.track_master(ctx, app, actor, launch.job, launch.desc.master_resource);
                if let Some(fm) = self.fm {
                    ctx.send(
                        fm,
                        Msg::AppMasterStarted {
                            app,
                            actor,
                            machine: self.machine,
                        },
                    );
                }
            }
            PendingLaunch::WorkerBinary(app) => {
                let ok = !failed && ctx.launch_ok(self.m());
                if ok {
                    self.binary_cache.insert(app);
                }
                // Only the rows still here: a worker stopped while its
                // binary was in flight starts nothing (the binary stays).
                let waiting: Vec<WorkerId> = (self.workers.iter())
                    .filter(|(_, w)| w.spec.app == app && matches!(w.stage, Stage::Fetching))
                    .map(|(&id, _)| id)
                    .collect();
                for worker in waiting {
                    if ok {
                        self.spawn_worker(ctx, worker);
                    } else {
                        self.fail_launch(ctx, worker, StartFailure::Machine);
                    }
                }
            }
        }
    }

    /// Moves a parked row forward if the envelope now has room for it:
    /// to a running process when its app's binary is on local disk, else
    /// behind the one download of it (one per app per machine — the local
    /// package cache every production agent keeps). Returns `false` while
    /// the row stays parked.
    fn try_start(&mut self, ctx: &mut Ctx<'_, Msg>, worker: WorkerId) -> bool {
        let spec = &self.workers[&worker].spec;
        let (app, unit, size) = (spec.app, spec.unit, spec.binary_mb);
        // Resource capacity ensurance: only start within the envelope.
        if self.running_count(app, unit) >= self.envelope.allowed(app, unit) {
            return false;
        }
        if !ctx.launch_ok(self.m()) {
            self.fail_launch(ctx, worker, StartFailure::Machine);
        } else if self.binary_cache.contains(&app) {
            self.spawn_worker(ctx, worker);
        } else {
            self.workers.get_mut(&worker).expect("looked up above").stage = Stage::Fetching;
            let fetching = |p: &PendingLaunch| matches!(p, PendingLaunch::WorkerBinary(a) if *a == app);
            if !self.pending.values().any(fetching) {
                self.begin_download(ctx, size, PendingLaunch::WorkerBinary(app));
            }
        }
        true
    }

    /// The one way a launch fails: the row goes and the worker's master
    /// hears why.
    fn fail_launch(&mut self, ctx: &mut Ctx<'_, Msg>, worker: WorkerId, reason: StartFailure) {
        let rt = self.workers.remove(&worker).expect("only rows on the books fail");
        match reason {
            StartFailure::Machine => {
                self.launch_failures_since_hb += 1;
                ctx.metrics().count("fa.worker_launch_failed", 1);
            }
            StartFailure::Capacity => ctx.metrics().count("fa.start_rejected_capacity", 1),
        }
        ctx.send_traced(
            rt.spec.master,
            Msg::WorkerStartFailed { worker, machine: self.machine, reason },
            rt.trace,
        );
    }

    /// Starts the process of a row that waited (parked, or for its binary).
    fn spawn_worker(&mut self, ctx: &mut Ctx<'_, Msg>, worker: WorkerId) {
        let rt = self.workers.remove(&worker).expect("only rows on the books are started");
        self.launch_worker(ctx, rt.spec, rt.trace);
    }

    /// Starts a worker process. Its master hears of it from the worker
    /// itself (`WorkerRegister`), as in the paper's workflow.
    fn launch_worker(&mut self, ctx: &mut Ctx<'_, Msg>, spec: WorkerSpec, trace: TraceId) {
        // The worker actor's `on_start` belongs to the job's causal chain.
        ctx.set_trace(trace);
        let launch = WorkerLaunch {
            spec: spec.clone(),
            machine: self.machine,
        };
        let actor = ctx.spawn(Some(self.m()), (self.worker_factory)(&launch));
        ctx.trace(TraceEvent::WorkerStarted {
            app: spec.app.0,
            worker: spec.worker.0,
            machine: self.m(),
        });
        self.track_worker(ctx, spec, actor, trace);
        self.worker_starts += 1;
    }

    /// Takes a running worker onto the books: the one bookkeeping path for
    /// a process this agent launched and for one it adopted.
    fn track_worker(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        spec: WorkerSpec,
        actor: ActorId,
        trace: TraceId,
    ) {
        self.sandbox.create(spec.app, spec.worker);
        plan(ctx, &spec.limit, 1.0);
        self.workers.insert(spec.worker, WorkerRt { spec, trace, stage: Stage::Running(actor) });
    }

    /// [`Self::track_worker`]'s counterpart for an application master.
    fn track_master(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        app: AppId,
        actor: ActorId,
        job: JobId,
        res: ResourceVec,
    ) {
        plan(ctx, &res, 1.0);
        self.jms.insert(app, (actor, job, res));
    }

    /// Workers of `(app, unit)` that count against its envelope: running
    /// or fetching, not parked.
    fn running_count(&self, app: AppId, unit: UnitId) -> u64 {
        (self.workers.values())
            .filter(|w| w.spec.app == app && w.spec.unit == unit)
            .filter(|w| !matches!(w.stage, Stage::Parked { .. }))
            .count() as u64
    }

    /// The one way off the books for a row that did not fail to launch:
    /// removes it at whatever stage it is and, if its process ran, takes
    /// that away too and records the `worker_exited` event. Returns the row
    /// so callers can tell its master under the trace it was launched with.
    fn drop_worker(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        worker: WorkerId,
        kill_actor: bool,
        reason: &'static str,
    ) -> Option<WorkerRt> {
        let rt = self.workers.remove(&worker)?;
        if let Stage::Running(actor) = rt.stage {
            self.worker_exits += 1;
            if kill_actor {
                ctx.kill(actor);
            }
            self.sandbox.destroy(worker);
            plan(ctx, &rt.spec.limit, -1.0);
            ctx.trace_as(
                rt.trace,
                TraceEvent::WorkerExited {
                    app: rt.spec.app.0,
                    worker: worker.0,
                    machine: self.m(),
                    reason,
                },
            );
        }
        Some(rt)
    }

    /// Drops a worker the agent itself killed and tells its master.
    fn kill_worker(&mut self, ctx: &mut Ctx<'_, Msg>, worker: WorkerId) {
        let rt = self.drop_worker(ctx, worker, true, "killed").expect("victims are rows");
        let exited = Msg::WorkerExited {
            app: rt.spec.app,
            worker,
            machine: self.machine,
            reason: FailReason::Killed,
        };
        ctx.send_traced(rt.spec.master, exited, rt.trace);
    }

    // ------------------------------------------------------------------
    // Enforcement
    // ------------------------------------------------------------------

    /// Resource-capacity ensurance after a capacity decrease: warn the AM,
    /// then (on the grace timer) kill newest workers of the app until the
    /// envelope holds.
    fn check_capacity(&mut self, ctx: &mut Ctx<'_, Msg>, app: AppId) {
        let mut over = ResourceVec::ZERO;
        let mut any_over = false;
        let mut units: BTreeMap<UnitId, &ResourceVec> = BTreeMap::new();
        for w in self.workers.values().filter(|w| w.spec.app == app) {
            units.insert(w.spec.unit, &w.spec.limit);
        }
        for (unit, limit) in units {
            let allowed = self.envelope.allowed(app, unit);
            let running = self.running_count(app, unit);
            if running > allowed {
                any_over = true;
                over.add_scaled(limit, running - allowed);
            }
        }
        if any_over {
            // Warn whoever masters this app's workers (any of them).
            if let Some(w) = self.workers.values().find(|w| w.spec.app == app) {
                ctx.send(
                    w.spec.master,
                    Msg::CapacityWarning {
                        app,
                        machine: self.machine,
                        over,
                    },
                );
            }
            ctx.timer(CAPACITY_GRACE, GRACE_BASE + app.0 as u64);
        }
    }

    fn enforce_capacity(&mut self, ctx: &mut Ctx<'_, Msg>, app: AppId) {
        // Grace expired: "when the resource capacity decreases and
        // application master does not choose one process to stop, FuxiAgent
        // will kill one process of this application compulsorily."
        loop {
            // The newest (highest id) worker of a unit over its envelope.
            let victim = (self.workers.iter().rev())
                .filter(|(_, w)| w.spec.app == app && !matches!(w.stage, Stage::Parked { .. }))
                .find(|(_, w)| self.running_count(app, w.spec.unit) > self.envelope.allowed(app, w.spec.unit))
                .map(|(&id, _)| id);
            let Some(worker) = victim else { break };
            ctx.metrics().count("fa.capacity_kills", 1);
            self.kill_worker(ctx, worker);
        }
    }

    fn sweep(&mut self, ctx: &mut Ctx<'_, Msg>) {
        // 1) Process liveness: restart crashed workers, report dead JMs.
        let crashed: Vec<WorkerId> = (self.workers.iter())
            .filter(|(_, w)| matches!(w.stage, Stage::Running(a) if !ctx.alive(a)))
            .map(|(&id, _)| id)
            .collect();
        for worker in crashed {
            let WorkerRt { spec, trace, .. } =
                self.drop_worker(ctx, worker, false, "crashed").expect("just listed");
            ctx.metrics().count("fa.worker_crashes", 1);
            if ctx.launch_ok(self.m()) {
                // "FuxiAgent watches the worker's status and restarts it if
                // it crashes": in place; the master learns the new address
                // from the fresh process's registration.
                self.launch_worker(ctx, spec, trace);
            } else {
                ctx.send_traced(
                    spec.master,
                    Msg::WorkerExited {
                        app: spec.app,
                        worker,
                        machine: self.machine,
                        reason: FailReason::Crashed,
                    },
                    trace,
                );
            }
        }
        // launch_worker leaves the last restarted worker's trace ambient;
        // the sweeps below tag their sends explicitly.
        ctx.set_trace(TraceId::NONE);
        let dead_jms: Vec<AppId> = self
            .jms
            .iter()
            .filter(|(_, (a, _, _))| !ctx.alive(*a))
            .map(|(&app, _)| app)
            .collect();
        for app in dead_jms {
            let (_, job, res) = self.jms.remove(&app).unwrap();
            plan(ctx, &res, -1.0);
            if let Some(fm) = self.fm {
                ctx.send_traced(
                    fm,
                    Msg::AppMasterExited {
                        app,
                        machine: self.machine,
                    },
                    TraceId::from_job(job.0),
                );
            }
        }
        // 2) Overload: kill the worst offender until load is acceptable.
        loop {
            let procs: Vec<ProcUsage> = self.running().map(|w| proc_usage(&w.spec)).collect();
            let mut usage = ResourceVec::ZERO;
            for p in &procs {
                usage.add(&p.usage());
            }
            if self.total.max_physical_load(&usage) <= OVERLOAD_THRESHOLD {
                break;
            }
            let Some(victim) = pick_overload_victim(&procs) else {
                break;
            };
            ctx.metrics().count("fa.overload_kills", 1);
            self.kill_worker(ctx, victim);
        }
    }

    // ------------------------------------------------------------------
    // Failover adoption
    // ------------------------------------------------------------------

    /// A restarted agent adopts processes already running on its machine
    /// ("existing running tasks will be adopted rather than being killed").
    fn adopt(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let mut adopted_apps: Vec<(AppId, ActorId)> = Vec::new();
        for (actor, meta) in ctx.procs_on(self.m()) {
            let Some(meta) = ProcMeta::decode(&meta) else {
                continue;
            };
            match meta {
                ProcMeta::Worker(spec) => {
                    adopted_apps.push((spec.app, spec.master));
                    // Adopted from a pre-restart agent: the launch trace
                    // did not survive the process boundary.
                    self.track_worker(ctx, spec, actor, TraceId::NONE);
                }
                ProcMeta::JobMaster { app, job, resource } => {
                    self.track_master(ctx, app, actor, job, resource);
                }
            }
        }
        if !self.workers.is_empty() {
            ctx.metrics().count("fa.adopted_workers", self.workers.len() as u64);
        }
        // Reconcile with each app's master ("then requests the full worker
        // lists from each corresponding application master").
        adopted_apps.sort();
        adopted_apps.dedup();
        for (app, master) in adopted_apps {
            ctx.send(
                master,
                Msg::WorkerListQuery {
                    app,
                    machine: self.machine,
                },
            );
        }
    }
}

/// Moves the machine's planned-resource gauges (Figure 10's FA_planned)
/// by `sign` × `res`.
fn plan(ctx: &mut Ctx<'_, Msg>, res: &ResourceVec, sign: f64) {
    let m = ctx.metrics();
    m.gauge_add("fa.planned_mem_mb", sign * res.memory_mb() as f64);
    m.gauge_add("fa.planned_cpu_milli", sign * res.cpu_milli() as f64);
}

fn proc_usage(spec: &WorkerSpec) -> ProcUsage {
    ProcUsage {
        worker: spec.worker,
        limit: spec.limit.clone(),
        usage_factor: spec.usage_factor,
    }
}

impl Actor<Msg> for FuxiAgent {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        self.naming
            .register(&format!("agent/{}", self.machine), ctx.id());
        self.adopt(ctx);
        // Booted before the election: look again shortly (TIMER_RESOLVE)
        // rather than a heartbeat interval from now. Either way the first
        // contact is what every later one is: the allocation report.
        if self.master_watch.master_or_watch(&self.naming, ctx, TIMER_RESOLVE).is_some() {
            self.resolve_master(ctx);
        }
        ctx.timer(HEARTBEAT_INTERVAL, TIMER_HB);
        ctx.timer(SWEEP_INTERVAL, TIMER_SWEEP);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, _from: ActorId, msg: Msg) {
        match msg {
            Msg::StartAppMaster { app, job, desc } => {
                // The master repeats a launch it has heard nothing of. One
                // this agent completed is answered again; one still
                // downloading answers when it is done. Never a second start.
                if let Some(&(actor, _, _)) = self.jms.get(&app) {
                    if let Some(fm) = self.fm {
                        ctx.send(fm, Msg::AppMasterStarted { app, actor, machine: self.machine });
                    }
                    return;
                }
                let fetching = |p: &PendingLaunch| matches!(p, PendingLaunch::Master { launch, .. } if launch.app == app);
                if self.pending.values().any(fetching) {
                    return;
                }
                if !ctx.launch_ok(self.m()) {
                    self.launch_failures_since_hb += 1;
                    if let Some(fm) = self.fm {
                        ctx.send(
                            fm,
                            Msg::AppMasterStartFailed {
                                app,
                                reason: "machine cannot launch processes".into(),
                            },
                        );
                    }
                    return;
                }
                let size = desc.master_package_mb;
                self.begin_download(
                    ctx,
                    size,
                    PendingLaunch::Master {
                        launch: MasterLaunch {
                            app,
                            job,
                            desc,
                            machine: self.machine,
                        },
                        trace: ctx.trace_id(),
                    },
                );
            }
            Msg::StartWorker { spec } => {
                // The request carries the job's trace on its envelope; pin
                // it now — the launch may detour through a download flow.
                let trace = ctx.trace_id();
                let worker = spec.worker;
                let timer_armed = self.any_parked();
                self.workers.insert(worker, WorkerRt { spec, trace, stage: Stage::Parked { attempts: 0 } });
                if !self.try_start(ctx, worker) {
                    // The grant notification may still be in flight; stay
                    // parked and retry before declaring failure.
                    ctx.metrics().count("fa.start_parked_capacity", 1);
                    if !timer_armed {
                        ctx.timer(PARK_INTERVAL, TIMER_PARKED);
                    }
                }
            }
            Msg::StopWorker { app: _, worker } => {
                self.drop_worker(ctx, worker, true, "stopped");
            }
            Msg::CapacityNotify { changes } => {
                for c in changes {
                    self.envelope.apply(c.app, c.unit, c.unit_resource, c.delta);
                    if c.delta < 0 {
                        self.check_capacity(ctx, c.app);
                    }
                }
            }
            Msg::AgentCapacitySnapshot { allocations } => {
                self.envelope.replace(allocations);
            }
            Msg::WorkerListReply {
                app,
                machine: _,
                workers,
            } => {
                // Kill adopted workers the master no longer expects.
                let stale: Vec<WorkerId> = self
                    .workers
                    .iter()
                    .filter(|(id, w)| w.spec.app == app && !workers.contains(id))
                    .map(|(&id, _)| id)
                    .collect();
                for w in stale {
                    ctx.metrics().count("fa.stale_workers_killed", 1);
                    self.drop_worker(ctx, w, true, "stale");
                }
            }
            Msg::FlowDone { tag, failed } => self.finish_download(ctx, tag, failed),
            // A new primary asks for this machine's report now rather than
            // at the next heartbeat.
            Msg::MasterElected => self.resolve_master(ctx),
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, tag: u64) {
        match tag {
            TIMER_HB => {
                self.resolve_master(ctx);
                let usage = self.usage();
                let health = self.health(ctx, &usage);
                let load = health.load;
                if let Some(fm) = self.fm {
                    ctx.send(
                        fm,
                        Msg::AgentHeartbeat {
                            machine: self.machine,
                            health,
                        },
                    );
                }
                if self.report_metrics {
                    self.send_metrics_report(ctx, &usage, load);
                }
                self.beats += 1;
                if self.beats.is_multiple_of(ENVELOPE_REFRESH_BEATS) {
                    // Periodic envelope repair: the master answers with an
                    // authoritative AgentCapacitySnapshot.
                    self.send_allocation_report(ctx);
                }
                ctx.timer(HEARTBEAT_INTERVAL, TIMER_HB);
            }
            TIMER_RESOLVE => {
                let cap = HEARTBEAT_INTERVAL;
                if self.master_watch.look_again(&self.naming, ctx, TIMER_RESOLVE, cap).is_some() {
                    // What the next heartbeat would have done.
                    self.resolve_master(ctx);
                }
            }
            TIMER_SWEEP => {
                self.sweep(ctx);
                ctx.timer(SWEEP_INTERVAL, TIMER_SWEEP);
            }
            TIMER_PARKED => {
                let parked: Vec<(WorkerId, u32)> = (self.workers.iter())
                    .filter_map(|(&id, w)| match w.stage {
                        Stage::Parked { attempts } => Some((id, attempts)),
                        _ => None,
                    })
                    .collect();
                for (worker, attempts) in parked {
                    if self.try_start(ctx, worker) {
                        continue;
                    }
                    if attempts >= PARK_RETRIES {
                        self.fail_launch(ctx, worker, StartFailure::Capacity);
                    } else {
                        let w = self.workers.get_mut(&worker).expect("still parked");
                        w.stage = Stage::Parked { attempts: attempts + 1 };
                    }
                }
                if self.any_parked() {
                    ctx.timer(PARK_INTERVAL, TIMER_PARKED);
                }
            }
            t if t >= GRACE_BASE => {
                let app = AppId((t - GRACE_BASE) as u32);
                self.enforce_capacity(ctx, app);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuxi_sim::{Actor as SimActor, SimTime, World, WorldConfig};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Sink actor standing in for the FuxiMaster / application master.
    struct Sink {
        log: Rc<RefCell<Vec<Msg>>>,
    }
    impl SimActor<Msg> for Sink {
        fn on_message(&mut self, _: &mut Ctx<'_, Msg>, _: ActorId, msg: Msg) {
            self.log.borrow_mut().push(msg);
        }
    }

    /// Inert worker actor the factory produces.
    struct NopWorker;
    impl SimActor<Msg> for NopWorker {
        fn on_message(&mut self, _: &mut Ctx<'_, Msg>, _: ActorId, _: Msg) {}
    }

    fn factories() -> (MasterFactory, WorkerFactory) {
        let mf: MasterFactory = Arc::new(|_launch| Box::new(NopWorker));
        let wf: WorkerFactory = Arc::new(|_launch| Box::new(NopWorker));
        (mf, wf)
    }

    /// Runs the agent under test and keeps it reachable afterwards.
    struct Probe(Rc<RefCell<FuxiAgent>>);
    impl SimActor<Msg> for Probe {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
            self.0.borrow_mut().on_start(ctx);
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: ActorId, msg: Msg) {
            self.0.borrow_mut().on_message(ctx, from, msg);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, tag: u64) {
            self.0.borrow_mut().on_timer(ctx, tag);
        }
    }

    struct Harness {
        world: World<Msg>,
        agent: ActorId,
        state: Rc<RefCell<FuxiAgent>>,
        master_log: Rc<RefCell<Vec<Msg>>>,
        am: ActorId,
        am_log: Rc<RefCell<Vec<Msg>>>,
    }

    fn setup() -> Harness {
        let mut world: World<Msg> = World::new(WorldConfig::uniform(4, 2, 3));
        let naming = NameRegistry::new();
        let master_log = Rc::new(RefCell::new(Vec::new()));
        let fm = world.spawn(None, Box::new(Sink { log: master_log.clone() }));
        naming.register(fuxi_apsara::naming::FUXI_MASTER, fm);
        let am_log = Rc::new(RefCell::new(Vec::new()));
        let am = world.spawn(None, Box::new(Sink { log: am_log.clone() }));
        let (mf, wf) = factories();
        let state = Rc::new(RefCell::new(FuxiAgent::new(
            MachineId(1),
            ResourceVec::cores_mb(12, 96 * 1024),
            true,
            naming,
            mf,
            wf,
        )));
        let agent = world.spawn(Some(1), Box::new(Probe(state.clone())));
        Harness {
            world,
            agent,
            state,
            master_log,
            am,
            am_log,
        }
    }

    fn spec(h: &Harness, worker: u64, usage_factor: f64) -> WorkerSpec {
        WorkerSpec {
            app: AppId(1),
            worker: WorkerId(worker),
            unit: UnitId(0),
            limit: ResourceVec::new(2000, 8192),
            binary_mb: 10.0,
            master: h.am,
            usage_factor,
        }
    }

    fn capacity_change(count: i64) -> fuxi_proto::CapacityChange {
        fuxi_proto::CapacityChange {
            app: AppId(1),
            unit: UnitId(0),
            unit_resource: ResourceVec::new(2000, 8192),
            delta: count,
        }
    }

    fn grant_capacity(h: &mut Harness, count: i64) {
        h.world.send_external(
            h.agent,
            Msg::CapacityNotify { changes: vec![capacity_change(count)] },
        );
    }

    /// Worker processes the agent started, by worker id (the agent tells
    /// nobody: a real worker registers with its master itself).
    fn started(h: &Harness) -> Vec<u64> {
        (h.world.tracer().records.iter())
            .filter_map(|r| match r.event {
                TraceEvent::WorkerStarted { worker, .. } => Some(worker),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn agent_reports_in_and_heartbeats() {
        let mut h = setup();
        h.world.run_until(SimTime::from_secs(10));
        let log = h.master_log.borrow();
        // The join message is the allocation report (there is no hello).
        assert!(matches!(
            log.first(),
            Some(Msg::AgentAllocationReport { machine: MachineId(1), allocations, .. })
                if allocations.is_empty()
        ));
        let beats = log
            .iter()
            .filter(|m| matches!(m, Msg::AgentHeartbeat { .. }))
            .count();
        assert!(beats >= 4, "2s heartbeats over 10s: {beats}");
    }

    #[test]
    fn capacity_ensurance_starts_only_within_envelope() {
        let mut h = setup();
        grant_capacity(&mut h, 1);
        h.world.send_external(h.agent, Msg::StartWorker { spec: spec(&h, 1, 0.4) });
        h.world.send_external(h.agent, Msg::StartWorker { spec: spec(&h, 2, 0.4) });
        h.world.run_until(SimTime::from_secs(10));
        let log = h.am_log.borrow();
        let failed: Vec<_> = log
            .iter()
            .filter_map(|m| match m {
                Msg::WorkerStartFailed { reason, .. } => Some(*reason),
                _ => None,
            })
            .collect();
        assert_eq!(started(&h).len(), 1, "only one container granted");
        assert_eq!(failed, [StartFailure::Capacity], "the second is rejected after park retries");
    }

    #[test]
    fn parked_start_succeeds_when_capacity_arrives_late() {
        let mut h = setup();
        // StartWorker beats the CapacityNotify (the FM→AM→FA race).
        h.world.send_external(h.agent, Msg::StartWorker { spec: spec(&h, 1, 0.4) });
        h.world.at(SimTime::from_millis(400), |_w| {});
        let agent = h.agent;
        h.world.at(SimTime::from_millis(400), move |w| {
            w.send_external(
                agent,
                Msg::CapacityNotify { changes: vec![capacity_change(1)] },
            );
        });
        h.world.run_until(SimTime::from_secs(10));
        assert_eq!(started(&h), [1], "parked request retried and succeeded: {:?}", h.am_log.borrow());
    }

    #[test]
    fn launch_failure_reported_when_machine_broken() {
        let mut h = setup();
        h.world.set_launch_ok(1, false);
        grant_capacity(&mut h, 1);
        h.world.send_external(h.agent, Msg::StartWorker { spec: spec(&h, 1, 0.4) });
        h.world.run_until(SimTime::from_secs(5));
        assert!(h
            .am_log
            .borrow()
            .iter()
            .any(|m| matches!(m, Msg::WorkerStartFailed { .. })));
        // The sickness shows up in heartbeat health telemetry.
        let log = h.master_log.borrow();
        let sick = log.iter().any(|m| match m {
            Msg::AgentHeartbeat { health, .. } => {
                health.recent_launch_failures > 0 || health.disk_ok_ratio < 1.0
            }
            _ => false,
        });
        assert!(sick, "health report reflects launch failures");
    }

    #[test]
    fn overload_kills_worst_offender() {
        let mut h = setup();
        grant_capacity(&mut h, 6);
        // 6 workers × {2c, 8GB} limits on a 12c/96GB machine; usage factor
        // 1.2 → 14.4 cores used > 1.05 × 12: overloaded.
        for i in 1..=6 {
            h.world
                .send_external(h.agent, Msg::StartWorker { spec: spec(&h, i, 1.2) });
        }
        h.world.run_until(SimTime::from_secs(15));
        let log = h.am_log.borrow();
        let killed = log
            .iter()
            .filter(|m| matches!(m, Msg::WorkerExited { reason: FailReason::Killed, .. }))
            .count();
        assert!(killed >= 1, "overload policy killed someone");
        assert_eq!(
            h.world.metrics().counter("fa.overload_kills"),
            killed as u64
        );
    }

    #[test]
    fn capacity_decrease_enforced_after_grace() {
        let mut h = setup();
        grant_capacity(&mut h, 2);
        h.world.send_external(h.agent, Msg::StartWorker { spec: spec(&h, 1, 0.4) });
        h.world.send_external(h.agent, Msg::StartWorker { spec: spec(&h, 2, 0.4) });
        h.world.run_until(SimTime::from_secs(5));
        // FuxiMaster revokes one container; the AM (our sink) ignores the
        // warning, so the agent kills one worker after the grace period.
        grant_capacity(&mut h, -1);
        h.world.run_until(SimTime::from_secs(15));
        let log = h.am_log.borrow();
        assert!(log.iter().any(|m| matches!(m, Msg::CapacityWarning { .. })),
            "AM was warned first");
        assert!(
            log.iter()
                .any(|m| matches!(m, Msg::WorkerExited { reason: FailReason::Killed, .. })),
            "compulsory kill after grace: {log:?}"
        );
        assert_eq!(h.world.metrics().counter("fa.capacity_kills"), 1);
    }

    #[test]
    fn binary_cache_downloads_once_per_app() {
        let mut h = setup();
        grant_capacity(&mut h, 4);
        for i in 1..=4 {
            h.world
                .send_external(h.agent, Msg::StartWorker { spec: spec(&h, i, 0.4) });
        }
        h.world.run_until(SimTime::from_secs(10));
        assert_eq!(started(&h).len(), 4);
        // One flow for the shared binary (plus none for the cached starts).
        assert_eq!(h.world.metrics().counter("flow.started"), 1);
    }

    /// A voluntary return, as the JobMaster and FuxiMaster send it: the
    /// JobMaster stops the worker, then the master's books shrink and the
    /// agent hears the change. Nothing of the app is left on the agent —
    /// no worker, no envelope row — and no warning went out for it.
    #[test]
    fn returned_container_leaves_no_envelope_row() {
        let mut h = setup();
        grant_capacity(&mut h, 1);
        h.world.send_external(h.agent, Msg::StartWorker { spec: spec(&h, 1, 0.4) });
        h.world.run_until(SimTime::from_secs(5));
        assert_eq!(started(&h), [1]);
        assert_eq!(h.state.borrow().envelope.rows(), 1);
        h.world.send_external(h.agent, Msg::StopWorker { app: AppId(1), worker: WorkerId(1) });
        grant_capacity(&mut h, -1);
        h.world.run_until(SimTime::from_secs(10));
        let agent = h.state.borrow();
        assert!(agent.workers.is_empty());
        assert_eq!(agent.envelope.rows(), 0, "a row at zero is gone");
        assert!(agent.envelope.report().is_empty());
        let warned = h.am_log.borrow().iter().any(|m| matches!(m, Msg::CapacityWarning { .. }));
        assert!(!warned, "a return is not a revocation");
    }

    /// A worker stopped while its own binary download is in flight starts
    /// nothing and holds nothing; the download still completes, so the next
    /// start of the app needs no second one.
    #[test]
    fn stop_while_fetching_starts_nothing() {
        let mut h = setup();
        grant_capacity(&mut h, 1);
        h.world.send_external(h.agent, Msg::StartWorker { spec: spec(&h, 1, 0.4) });
        let agent = h.agent;
        h.world.at(SimTime::from_millis(5), move |w| {
            w.send_external(agent, Msg::StopWorker { app: AppId(1), worker: WorkerId(1) });
        });
        h.world.run_until(SimTime::from_secs(10));
        assert!(started(&h).is_empty(), "no worker process");
        let last_report = (h.master_log.borrow().iter().rev())
            .find_map(|m| match m {
                Msg::MetricsReport { report: fuxi_sim::obs::MetricsReport::Agent(a) } => Some(*a),
                _ => None,
            })
            .expect("the agent reports on every heartbeat");
        assert_eq!((last_report.workers, last_report.used_cpu_milli), (0, 0));
        assert_eq!(h.world.metrics().counter("flow.started"), 1);
        // The binary is on disk: the next start is immediate.
        h.world.send_external(h.agent, Msg::StartWorker { spec: spec(&h, 2, 0.4) });
        h.world.run_until(SimTime::from_secs(11));
        assert_eq!(started(&h), [2]);
        assert_eq!(h.world.metrics().counter("flow.started"), 1, "no second download");
    }
}
