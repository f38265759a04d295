//! The JobMaster actor: DAG-level task scheduling, resource negotiation
//! with FuxiMaster, worker-container management, and user-transparent
//! failover via snapshots (paper Sections 4.2–4.4).
//!
//! The hierarchical model of Figure 8: one JobMaster object per job doing
//! high-level task scheduling; one [`TaskMaster`] object per task doing
//! fine-grained instance scheduling; TaskWorker actors executing instances.

use crate::blacklist::{Escalation, JobBlacklist};
use crate::dag::TaskGraph;
use crate::desc::JobDesc;
use crate::snapshot::JobSnapshot;
use crate::task_master::{AssignmentOut, Attempt, InstState, InstanceRt, TWorker, TaskMaster};
use fuxi_agent::ProcMeta;
use fuxi_apsara::{NameRegistry, PanguHandle, StoreHandle};
use fuxi_proto::msg::{SeqCheck, SeqReceiver, SeqSender, WorkerSpec};
use fuxi_proto::request::{GrantDelta, RequestDelta, RequestState, ScheduleUnitDef};
use fuxi_proto::topology::Topology;
use fuxi_proto::{
    AppId, InstanceOutcome, JobId, MachineId, Msg, Priority, ResourceVec, StartFailure, TaskId,
    UnitId, WorkerId,
};
use fuxi_sim::{Actor, ActorId, Ctx, SimDuration, TraceEvent, TraceId};
use rand::Rng;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// JobMaster tuning.
#[derive(Debug, Clone)]
pub struct JobMasterConfig {
    /// Per-launch process startup cost (binary load, JVM/sandbox init)
    /// charged before a worker registers with its master. Zero by default;
    /// the container-reuse ablation sets it to expose the cost a
    /// launch-per-task (YARN-style) policy pays on every instance.
    pub startup_overhead_s: f64,
    /// Fuxi's task/container separation (Section 3.2.3). When false, the
    /// JobMaster behaves like YARN: every finished instance returns its
    /// container and a fresh request/grant/download cycle precedes the next
    /// one ("the node manager always reclaims back the resources ... the
    /// resource manager has to conduct additional rounds of rescheduling").
    /// The ablation benchmarks flip this.
    pub container_reuse: bool,
}

impl Default for JobMasterConfig {
    fn default() -> Self {
        Self {
            startup_overhead_s: 0.0,
            container_reuse: true,
        }
    }
}

/// Periodic full-state safety sync with FuxiMaster (also how a new
/// primary is discovered after master failover).
const FULL_SYNC_INTERVAL: SimDuration = SimDuration::from_secs(5);
/// Housekeeping cadence: backup scans, worker reconciliation, snapshot
/// flushes.
const HOUSEKEEPING_INTERVAL: SimDuration = SimDuration::from_secs(2);
/// How long a restarted JobMaster collects worker status before
/// resuming scheduling.
const RECOVERY_WINDOW: SimDuration = SimDuration::from_secs(2);

const TIMER_HOUSEKEEPING: u64 = 1;
const TIMER_FULL_SYNC: u64 = 2;
const TIMER_RECOVERY_DONE: u64 = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JmState {
    Recovering,
    Running,
    Done,
}

/// The JobMaster actor.
pub struct JobMaster {
    app: AppId,
    job: JobId,
    cfg: JobMasterConfig,
    naming: NameRegistry,
    store: StoreHandle,
    pangu: PanguHandle,
    topo: Arc<Topology>,
    payload: String,
    master_resource: ResourceVec,
    fm: Option<ActorId>,
    state: JmState,
    graph: Option<TaskGraph>,
    job_desc: Option<JobDesc>,
    tms: Vec<Option<TaskMaster>>,
    finished_tasks: BTreeSet<TaskId>,
    started_tasks: BTreeSet<TaskId>,
    blacklist: JobBlacklist,
    // AM-side protocol state (the mirror of FuxiMaster's view).
    req_states: BTreeMap<UnitId, RequestState>,
    ledger: fuxi_proto::request::GrantLedger,
    tx: SeqSender,
    rx: SeqReceiver,
    // Worker management. A worker's row is its task's `TWorker`; this is
    // only the index to it. A worker enters both in `start_worker` (or
    // `recover`) and leaves both in `forget_worker`.
    next_worker: u64,
    worker_task: BTreeMap<WorkerId, TaskId>,
    launch_failures: BTreeMap<MachineId, u32>,
    snapshot_dirty: bool,
    attached: bool,
    /// `(mem MB, cpu milli)` this job last added to the `am.obtained_*`
    /// gauges (Figure 10's application-obtained resources).
    obtained: (f64, f64),
    /// Push a [`fuxi_sim::obs::JobReport`] to FuxiMaster on the
    /// housekeeping cadence (the in-band metrics channel; follows the
    /// master's metrics-plane switch).
    report_metrics: bool,
}

impl JobMaster {
    #[allow(clippy::too_many_arguments)]
    /// Creates a new instance with the given configuration.
    pub fn new(
        app: AppId,
        job: JobId,
        cfg: JobMasterConfig,
        naming: NameRegistry,
        store: StoreHandle,
        pangu: PanguHandle,
        topo: Arc<Topology>,
        payload: String,
        master_resource: ResourceVec,
        report_metrics: bool,
    ) -> Self {
        Self {
            app,
            job,
            cfg,
            naming,
            store,
            pangu,
            topo,
            payload,
            master_resource,
            fm: None,
            state: JmState::Running,
            graph: None,
            job_desc: None,
            tms: Vec::new(),
            finished_tasks: BTreeSet::new(),
            started_tasks: BTreeSet::new(),
            blacklist: JobBlacklist::default(),
            req_states: BTreeMap::new(),
            ledger: Default::default(),
            tx: SeqSender::new(),
            rx: SeqReceiver::new(),
            // Worker ids are cluster-unique: agents track workers from many
            // apps in one table.
            next_worker: ((app.0 as u64) << 32) | 1,
            worker_task: BTreeMap::new(),
            launch_failures: BTreeMap::new(),
            snapshot_dirty: false,
            attached: false,
            obtained: (0.0, 0.0),
            report_metrics,
        }
    }

    fn unit_of(task: TaskId) -> UnitId {
        UnitId(task.0)
    }

    /// Flat instance id for trace events: `(task << 32) | index`.
    fn inst_id(i: fuxi_proto::InstanceId) -> u64 {
        ((i.task.0 as u64) << 32) | i.index as u64
    }

    fn task_of(unit: UnitId) -> TaskId {
        TaskId(unit.0)
    }

    // ------------------------------------------------------------------
    // FM liaison
    // ------------------------------------------------------------------

    fn attach(&mut self, ctx: &mut Ctx<'_, Msg>) {
        self.fm = self.naming.master();
        let Some(fm) = self.fm else { return };
        let units: Vec<ScheduleUnitDef> = self.req_states.values().map(|s| s.def.clone()).collect();
        ctx.send(fm, Msg::AmAttach { app: self.app, units });
        self.attached = true;
        self.send_full_sync(ctx);
    }

    fn send_full_sync(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let Some(fm) = self.fm else { return };
        let units: Vec<ScheduleUnitDef> = self.req_states.values().map(|s| s.def.clone()).collect();
        let states: Vec<RequestState> = self.req_states.values().cloned().collect();
        ctx.send(
            fm,
            Msg::FullRequestSync {
                app: self.app,
                units,
                states,
                held: self.ledger.snapshot(),
            },
        );
        // The receiver re-baselines; restart delta numbering.
        self.tx.reset();
    }

    fn send_deltas(&mut self, ctx: &mut Ctx<'_, Msg>, deltas: Vec<RequestDelta>) {
        if deltas.iter().all(|d| d.is_empty()) {
            return;
        }
        // Keep the mirror in lock-step with what we tell FuxiMaster.
        for d in &deltas {
            if let Some(st) = self.req_states.get_mut(&d.unit) {
                st.apply(d);
            }
        }
        if let Some(fm) = self.fm {
            let seq = self.tx.next();
            ctx.send(
                fm,
                Msg::RequestUpdate {
                    app: self.app,
                    seq,
                    deltas,
                },
            );
        }
    }

    // ------------------------------------------------------------------
    // Task lifecycle
    // ------------------------------------------------------------------

    fn parse_and_build(&mut self) -> Result<(), String> {
        let desc = JobDesc::parse(&self.payload)?;
        let graph = TaskGraph::build(&desc)?;
        self.tms = Vec::new();
        self.tms.resize_with(graph.len(), || None);
        self.graph = Some(graph);
        self.job_desc = Some(desc);
        Ok(())
    }

    fn task_desc(&self, task: TaskId) -> crate::desc::TaskDesc {
        let g = self.graph.as_ref().unwrap();
        let name = &g.task(task).name;
        self.job_desc.as_ref().expect("parsed at start").tasks[name].clone()
    }

    /// Builds a started task: its TaskMaster — per-instance DFS chunks,
    /// shuffle reads from finished upstream tasks, jittered and size-driven
    /// compute time — and its ScheduleUnit. The only construction path: a
    /// fresh JobMaster uses the result as is ([`Self::start_task`]), a
    /// restarted one overlays its snapshot on it ([`Self::recover`]).
    fn build_task(&mut self, ctx: &mut Ctx<'_, Msg>, task: TaskId) -> &mut TaskMaster {
        self.started_tasks.insert(task);
        let desc = self.task_desc(task);
        let node = self.graph.as_ref().unwrap().task(task).clone();
        let n = desc.instances.max(1);
        // DFS inputs: chunks round-robined over instances.
        let mut chunk_lists: Vec<Vec<fuxi_apsara::pangu::Chunk>> =
            (0..n).map(|_| Vec::new()).collect();
        for pattern in &node.input_files {
            for file in self.pangu.matching(pattern) {
                if let Some(f) = self.pangu.file(&file) {
                    for (i, chunk) in f.chunks.into_iter().enumerate() {
                        chunk_lists[i % n as usize].push(chunk);
                    }
                }
            }
        }
        // Shuffle inputs from finished upstream tasks.
        let shuffle = self.shuffle_reads_for(&node.upstream, n);
        let mut instances = Vec::with_capacity(n as usize);
        for i in 0..n {
            let jitter = if desc.duration_jitter > 0.0 {
                let j = desc.duration_jitter.min(0.99);
                1.0 + ctx.rng().gen_range(-j..=j)
            } else {
                1.0
            };
            let input_mb: f64 = chunk_lists[i as usize].iter().map(|c| c.size_mb).sum::<f64>()
                + shuffle.iter().map(|&(_, mb)| mb).sum::<f64>();
            let data_compute = if desc.data_driven {
                input_mb / desc.compute_mb_per_s.max(1e-6)
            } else {
                0.0
            };
            instances.push(InstanceRt {
                input_chunks: std::mem::take(&mut chunk_lists[i as usize]),
                shuffle_reads: shuffle.clone(),
                compute_s: (desc.duration_s * jitter + data_compute).max(0.001),
                state: InstState::Pending,
                attempts: vec![],
                next_attempt: 0,
                backups_launched: 0,
                output_machine: None,
                runtime_s: None,
            });
        }
        let unit = Self::unit_of(task);
        let def = ScheduleUnitDef::new(
            unit,
            Priority(desc.priority),
            ResourceVec::new((desc.cpu * 1000.0) as u64, desc.memory_mb),
        );
        self.req_states.insert(unit, RequestState::new(def));
        self.tms[task.0 as usize].insert(TaskMaster::new(task, desc, instances))
    }

    /// Starts a task whose upstream tasks have all finished: builds it and
    /// asks FuxiMaster for its containers.
    fn start_task(&mut self, ctx: &mut Ctx<'_, Msg>, task: TaskId) {
        if self.started_tasks.contains(&task) {
            return;
        }
        let tm = self.build_task(ctx, task);
        // Request containers: cluster want = worker cap, with locality
        // hints spread across the machines holding the most input chunks
        // (an even spread keeps workers near data on *all* of them instead
        // of packing the first few hinted machines).
        let cap = tm.desc.worker_cap() as i64;
        let raw_hints = tm.locality_hints(16);
        let per_machine = (cap / raw_hints.len().max(1) as i64).max(1);
        let hints: Vec<(MachineId, i64)> = raw_hints
            .into_iter()
            .map(|(m, c)| (m, (c as i64).min(per_machine)))
            .collect();
        let unit = Self::unit_of(task);
        if let Some(fm) = self.fm {
            let units = vec![self.req_states[&unit].def.clone()];
            ctx.send(fm, Msg::AmAttach { app: self.app, units });
        }
        let delta = RequestDelta {
            unit,
            machine: hints,
            rack: vec![],
            cluster: cap,
            avoid_add: self.blacklist.job_level().iter().copied().collect(),
            avoid_remove: vec![],
        };
        self.send_deltas(ctx, vec![delta]);
        self.snapshot_dirty = true;
        ctx.metrics().count("jm.tasks_started", 1);
    }

    /// Aggregated per-source-machine shuffle reads for one downstream
    /// instance, capped at `SHUFFLE_FANOUT_CAP` distinct sources.
    fn shuffle_reads_for(&self, upstream: &[TaskId], n_instances: u32) -> Vec<(MachineId, f64)> {
        /// Cap on distinct shuffle source machines per downstream instance
        /// (larger fan-ins are sampled and rescaled; bounds memory at
        /// GraySort scale).
        const SHUFFLE_FANOUT_CAP: usize = 64;
        let mut per_machine: BTreeMap<MachineId, f64> = BTreeMap::new();
        for &u in upstream {
            if let Some(tm) = self.tms[u.0 as usize].as_ref() {
                for inst in &tm.instances {
                    if let Some(m) = inst.output_machine {
                        *per_machine.entry(m).or_insert(0.0) += tm.desc.output_mb_per_instance;
                    }
                }
            }
        }
        if per_machine.is_empty() {
            return Vec::new();
        }
        let total: f64 = per_machine.values().sum();
        let share = total / n_instances as f64;
        let cap = SHUFFLE_FANOUT_CAP;
        let entries: Vec<(MachineId, f64)> = per_machine.into_iter().collect();
        if entries.len() <= cap {
            entries
                .into_iter()
                .map(|(m, mb)| (m, mb / total * share))
                .collect()
        } else {
            // Sample every k-th source and rescale so volume is preserved.
            let k = entries.len().div_ceil(cap);
            let sampled: Vec<(MachineId, f64)> =
                entries.into_iter().step_by(k).collect();
            let sampled_total: f64 = sampled.iter().map(|&(_, mb)| mb).sum();
            sampled
                .into_iter()
                .map(|(m, mb)| (m, mb / sampled_total * share))
                .collect()
        }
    }

    fn finish_task(&mut self, ctx: &mut Ctx<'_, Msg>, task: TaskId) {
        self.finished_tasks.insert(task);
        ctx.metrics().count("jm.tasks_finished", 1);
        // Cancel leftover demand and release all containers of this task.
        let unit = Self::unit_of(task);
        if let Some(st) = self.req_states.get(&unit) {
            let mut delta = RequestDelta {
                unit,
                cluster: -(st.wants.cluster() as i64),
                ..Default::default()
            };
            for (m, c) in st.wants.machines() {
                delta.machine.push((m, -(c as i64)));
            }
            for (r, c) in st.wants.racks() {
                delta.rack.push((r, -(c as i64)));
            }
            self.send_deltas(ctx, vec![delta]);
        }
        let workers: Vec<WorkerId> = self.tms[task.0 as usize]
            .as_ref()
            .map(|tm| tm.workers.keys().copied().collect())
            .unwrap_or_default();
        for w in workers {
            self.release_worker(ctx, w);
        }
        // Materialise declared outputs in the DFS so chained jobs see them.
        let node = self.graph.as_ref().unwrap().task(task).clone();
        if !node.output_files.is_empty() {
            let tm = self.tms[task.0 as usize].as_ref().unwrap();
            let total_mb = tm.desc.output_mb_per_instance * tm.total_instances() as f64;
            for f in &node.output_files {
                let name = f.strip_prefix("pangu://").unwrap_or(f);
                self.pangu.create(name, total_mb.max(1.0), 256.0, 3, &self.topo);
            }
        }
        // Start the next wave.
        let ready = self
            .graph
            .as_ref()
            .unwrap()
            .ready_tasks(&self.finished_tasks, &self.started_tasks);
        for t in ready {
            self.start_task(ctx, t);
        }
        self.snapshot_dirty = true;
        if self.finished_tasks.len() == self.graph.as_ref().unwrap().len() {
            self.complete(ctx, true, "completed".into());
        }
    }

    fn complete(&mut self, ctx: &mut Ctx<'_, Msg>, success: bool, message: String) {
        if self.state == JmState::Done {
            return;
        }
        self.state = JmState::Done;
        // Stop anything still running.
        let all_workers: Vec<WorkerId> = self.worker_task.keys().copied().collect();
        for w in all_workers {
            self.release_worker(ctx, w);
        }
        if let Some(fm) = self.fm {
            ctx.send(fm, Msg::AmDetach { app: self.app });
            ctx.send(
                fm,
                Msg::JobFinished {
                    job: self.job,
                    app: self.app,
                    success,
                    message,
                },
            );
        }
        JobSnapshot::delete(&self.store, self.job);
        // Account our gauge contributions away before dying.
        self.set_obtained_gauge(ctx, 0.0, 0.0);
        ctx.kill_self();
    }

    // ------------------------------------------------------------------
    // Grants & workers
    // ------------------------------------------------------------------

    fn obtained_totals(&self) -> (f64, f64) {
        let mut mem = 0.0;
        let mut cpu = 0.0;
        for unit in self.req_states.keys() {
            if let Some(st) = self.req_states.get(unit) {
                let total = self.ledger.total(*unit) as f64;
                mem += total * st.def.resource.memory_mb() as f64;
                cpu += total * st.def.resource.cpu_milli() as f64;
            }
        }
        mem += self.master_resource.memory_mb() as f64;
        cpu += self.master_resource.cpu_milli() as f64;
        (mem, cpu)
    }

    /// Moves this job's share of the cluster-wide `am.obtained_*` gauges to
    /// `(mem, cpu)`. The share is remembered here, not read back from the
    /// metrics sink: live, the sink is taken on every periodic flush.
    fn set_obtained_gauge(&mut self, ctx: &mut Ctx<'_, Msg>, mem: f64, cpu: f64) {
        let (cur_mem, cur_cpu) = std::mem::replace(&mut self.obtained, (mem, cpu));
        let m = ctx.metrics();
        m.gauge_add("am.obtained_mem_mb", mem - cur_mem);
        m.gauge_add("am.obtained_cpu_milli", cpu - cur_cpu);
    }

    fn refresh_obtained_gauge(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let (mem, cpu) = self.obtained_totals();
        self.set_obtained_gauge(ctx, mem, cpu);
    }

    fn apply_grant_deltas(&mut self, ctx: &mut Ctx<'_, Msg>, grants: Vec<GrantDelta>) {
        for g in &grants {
            let unit = g.unit;
            for &(m, delta) in &g.changes {
                if delta >= 0 {
                    if let Some(st) = self.req_states.get_mut(&unit) {
                        st.wants.satisfied_on(&self.topo, m, delta as u64);
                    }
                } else if let Some(st) = self.req_states.get_mut(&unit) {
                    // Revocation: demand returns at cluster level.
                    st.wants.revoked((-delta) as u64);
                }
            }
            self.ledger.apply(g);
        }
        self.refresh_obtained_gauge(ctx);
        // Turn ledger state into running workers.
        let tasks: BTreeSet<TaskId> = grants.iter().map(|g| Self::task_of(g.unit)).collect();
        for task in tasks {
            self.reconcile_workers(ctx, task);
        }
    }

    /// Makes the task's live workers match the ledger: start missing ones,
    /// retire extras (the revocation path: "application master might react
    /// to the message by terminating the corresponding worker").
    fn reconcile_workers(&mut self, ctx: &mut Ctx<'_, Msg>, task: TaskId) {
        if self.state != JmState::Running || self.finished_tasks.contains(&task) {
            return;
        }
        let Some(tm) = self.tms[task.0 as usize].as_ref() else {
            return;
        };
        let unit = Self::unit_of(task);
        let desired: BTreeMap<MachineId, u64> = self.ledger.machines(unit).collect();
        let current = tm.worker_counts();
        let mut to_start: Vec<(MachineId, u64)> = Vec::new();
        let mut to_stop: Vec<(MachineId, u64)> = Vec::new();
        for (&m, &want) in &desired {
            let have = current.get(&m).copied().unwrap_or(0);
            if want > have {
                to_start.push((m, want - have));
            }
        }
        for (&m, &have) in &current {
            let want = desired.get(&m).copied().unwrap_or(0);
            if have > want {
                to_stop.push((m, have - want));
            }
        }
        for (m, n) in to_start {
            for _ in 0..n {
                self.start_worker(ctx, task, m);
            }
        }
        for (m, n) in to_stop {
            // Idle workers go first; busy ones requeue their instance.
            let tm = self.tms[task.0 as usize].as_ref().unwrap();
            let mut victims: Vec<WorkerId> = tm
                .workers_on(m)
                .into_iter()
                .filter(|w| tm.workers[w].busy.is_none())
                .collect();
            let busy: Vec<WorkerId> = tm
                .workers_on(m)
                .into_iter()
                .filter(|w| !victims.contains(w))
                .collect();
            victims.extend(busy);
            for w in victims.into_iter().take(n as usize) {
                self.stop_worker(ctx, w);
            }
        }
        self.assign_work(ctx, task);
    }

    fn start_worker(&mut self, ctx: &mut Ctx<'_, Msg>, task: TaskId, m: MachineId) {
        /// Fraction of its limit each worker actually consumes (the paper
        /// observed ~40% real memory usage against scheduled amounts).
        const USAGE_FACTOR: f64 = 0.4;
        let Some(agent) = self.naming.lookup(&format!("agent/{m}")) else {
            return; // retried at next reconciliation
        };
        let tm = self.tms[task.0 as usize].as_mut().unwrap();
        let worker = WorkerId(self.next_worker);
        self.next_worker += 1;
        let unit = Self::unit_of(task);
        let spec = WorkerSpec {
            app: self.app,
            worker,
            unit,
            limit: self.req_states[&unit].def.resource.clone(),
            binary_mb: tm.desc.binary_mb,
            master: ctx.id(),
            usage_factor: USAGE_FACTOR,
        };
        tm.add_worker(worker, m, ctx.now());
        self.worker_task.insert(worker, task);
        ctx.trace(TraceEvent::WorkerLaunchRequested {
            app: self.app.0,
            worker: worker.0,
            machine: m.0,
        });
        ctx.send(agent, Msg::StartWorker { spec });
        ctx.metrics().count("jm.workers_requested", 1);
    }

    /// The one way out of the books: drops the worker's index entry and its
    /// row, requeueing an instance it was running. `None` for a worker
    /// already forgotten, so a late message about one changes nothing.
    fn forget_worker(&mut self, worker: WorkerId) -> Option<(TaskId, TWorker)> {
        let tm = self.task_master_of(worker)?;
        let found = (tm.task, tm.remove_worker(worker).expect("an indexed worker has a row"));
        self.worker_task.remove(&worker);
        self.snapshot_dirty = true;
        Some(found)
    }

    /// Forgets a worker and has its agent stop it, at whatever stage of the
    /// launch it is. The grant is not returned (a revocation already took
    /// it from the ledger; otherwise reconciliation starts a replacement).
    fn stop_worker(&mut self, ctx: &mut Ctx<'_, Msg>, worker: WorkerId) -> Option<(TaskId, TWorker)> {
        let (task, row) = self.forget_worker(worker)?;
        if let Some(agent) = self.naming.lookup(&format!("agent/{}", row.machine)) {
            ctx.send(agent, Msg::StopWorker { app: self.app, worker });
        }
        Some((task, row))
    }

    /// Stops a worker *and* returns its container to FuxiMaster (the
    /// voluntary-return path: "when a worker is no longer needed").
    fn release_worker(&mut self, ctx: &mut Ctx<'_, Msg>, worker: WorkerId) {
        if let Some((task, row)) = self.stop_worker(ctx, worker) {
            self.return_container(ctx, Self::unit_of(task), row.machine);
        }
    }

    /// Gives one container on `machine` back to FuxiMaster, if the ledger
    /// still holds one there.
    fn return_container(&mut self, ctx: &mut Ctx<'_, Msg>, unit: UnitId, machine: MachineId) {
        if self.ledger.held(unit, machine) > 0 {
            self.ledger.apply(&GrantDelta::revoke(unit, machine, 1));
            if let Some(fm) = self.fm {
                ctx.send(fm, Msg::ReturnGrant { app: self.app, unit, machine, count: 1 });
            }
        }
        self.refresh_obtained_gauge(ctx);
    }

    /// The TaskMaster holding `worker`'s row, if the worker is on the books.
    fn task_master_of(&mut self, worker: WorkerId) -> Option<&mut TaskMaster> {
        let task = *self.worker_task.get(&worker)?;
        self.tms[task.0 as usize].as_mut()
    }

    /// Workers on the books whose row satisfies `pred`, in id order.
    fn workers_where(&self, pred: impl Fn(&TWorker) -> bool) -> Vec<WorkerId> {
        (self.worker_task.iter())
            .filter(|&(w, task)| self.tms[task.0 as usize].as_ref().is_some_and(|tm| pred(&tm.workers[w])))
            .map(|(&w, _)| w)
            .collect()
    }

    /// The worker books agree: the index and the TaskMasters' rows name the
    /// same workers, and each TaskMaster's busy rows are the attempts its
    /// instances list.
    fn books_agree(&self) -> bool {
        let rows = || self.tms.iter().flatten();
        rows().map(|tm| tm.workers.len()).sum::<usize>() == self.worker_task.len()
            && rows().all(|tm| {
                tm.books_agree() && tm.workers.keys().all(|w| self.worker_task.get(w) == Some(&tm.task))
            })
    }

    fn assign_work(&mut self, ctx: &mut Ctx<'_, Msg>, task: TaskId) {
        if self.state != JmState::Running {
            return;
        }
        let Some(tm) = self.tms[task.0 as usize].as_mut() else {
            return;
        };
        let out = tm.try_assign(ctx.now(), &self.blacklist);
        self.dispatch_assignments(ctx, out);
    }

    fn dispatch_assignments(&mut self, ctx: &mut Ctx<'_, Msg>, out: Vec<AssignmentOut>) {
        for a in out {
            ctx.trace(TraceEvent::InstanceAssigned {
                instance: Self::inst_id(a.instance),
                attempt: a.attempt,
                worker: a.worker.0,
            });
            ctx.send(
                a.actor,
                Msg::AssignInstance { instance: a.instance, attempt: a.attempt, work: a.work },
            );
            self.snapshot_dirty = true;
        }
    }

    /// Retires idle workers a draining task no longer needs.
    fn maybe_shrink(&mut self, ctx: &mut Ctx<'_, Msg>, task: TaskId) {
        /// Idle workers kept as backup-instance capacity while a task drains.
        const IDLE_SPARES: usize = 1;
        let Some(tm) = self.tms[task.0 as usize].as_ref() else {
            return;
        };
        if tm.pending_count() > 0 || tm.is_complete() {
            return;
        }
        let idle = tm.idle_workers();
        if idle.len() > IDLE_SPARES {
            let surplus = idle.len() - IDLE_SPARES;
            for w in idle.into_iter().take(surplus) {
                self.release_worker(ctx, w);
            }
        }
    }

    // ------------------------------------------------------------------
    // Instance events
    // ------------------------------------------------------------------

    fn on_instance_finished(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        worker: WorkerId,
        instance: fuxi_proto::InstanceId,
        attempt: u32,
        outcome: InstanceOutcome,
        runtime_s: f64,
    ) {
        let task = instance.task;
        if self.tms.len() <= task.0 as usize {
            return;
        }
        let Some(tm) = self.tms[task.0 as usize].as_mut() else {
            return;
        };
        self.snapshot_dirty = true;
        match outcome {
            InstanceOutcome::Success => {
                let was_done = tm
                    .instances
                    .get(instance.index as usize)
                    .map(|i| i.state == InstState::Done)
                    .unwrap_or(true);
                // Table 2's "instance running overhead": the difference
                // between the instance runtime as observed here and as
                // reported by the worker.
                let am_started = tm
                    .instances
                    .get(instance.index as usize)
                    .and_then(|i| i.attempts.iter().find(|a| a.attempt == attempt))
                    .map(|a| a.started);
                let losers = tm.attempt_succeeded(worker, instance.index, attempt, runtime_s);
                if was_done {
                    // Duplicate delivery of an already-recorded result.
                    return;
                }
                if let Some(s) = am_started {
                    let am_runtime = ctx.now().since(s).as_secs_f64();
                    ctx.metrics()
                        .record("am.instance_overhead_s", (am_runtime - runtime_s).max(0.0));
                }
                ctx.trace(TraceEvent::InstanceFinished {
                    instance: Self::inst_id(instance),
                    attempt,
                    ok: true,
                });
                for (lw, li, la) in losers {
                    if let Some(actor) = tm.workers.get(&lw).and_then(|w| w.actor) {
                        ctx.send(actor, Msg::KillInstance { instance: li, attempt: la });
                    }
                    ctx.metrics().count("jm.backup_losers_killed", 1);
                }
                ctx.metrics().count("jm.instances_finished", 1);
                if tm.is_complete() {
                    self.finish_task(ctx, task);
                    return;
                }
                if !self.cfg.container_reuse {
                    // YARN-mode ablation: give the container back and
                    // re-request capacity for the remaining work.
                    let pending = tm.pending_count();
                    self.release_worker(ctx, worker);
                    if pending > 0 {
                        let delta = RequestDelta {
                            unit: Self::unit_of(task),
                            cluster: 1,
                            ..Default::default()
                        };
                        self.send_deltas(ctx, vec![delta]);
                    }
                    return;
                }
                self.assign_work(ctx, task);
                self.maybe_shrink(ctx, task);
            }
            InstanceOutcome::Failed(reason) => {
                let real_failure = tm.attempt_failed(worker, instance.index, attempt);
                let machine = tm.workers.get(&worker).map(|w| w.machine);
                if real_failure {
                    ctx.trace(TraceEvent::InstanceFinished {
                        instance: Self::inst_id(instance),
                        attempt,
                        ok: false,
                    });
                }
                if real_failure && reason != fuxi_proto::FailReason::Killed {
                    ctx.metrics().count("jm.instance_failures", 1);
                    if let Some(m) = machine {
                        self.record_suspect(ctx, task, instance.index, m);
                    }
                }
                self.assign_work(ctx, task);
            }
        }
    }

    fn record_suspect(&mut self, ctx: &mut Ctx<'_, Msg>, task: TaskId, instance: u32, m: MachineId) {
        match self.blacklist.record_failure(task, instance, m) {
            Escalation::Instance => {}
            Escalation::Task => {
                // "No longer be used by this task": avoid in future
                // requests and retire workers already there.
                let delta = RequestDelta {
                    unit: Self::unit_of(task),
                    avoid_add: vec![m],
                    ..Default::default()
                };
                self.send_deltas(ctx, vec![delta]);
                let victims: Vec<WorkerId> = self.tms[task.0 as usize]
                    .as_ref()
                    .map(|tm| tm.workers_on(m))
                    .unwrap_or_default();
                for w in victims {
                    self.release_worker(ctx, w);
                }
                ctx.metrics().count("jm.task_blacklists", 1);
            }
            Escalation::Job => {
                if let Some(fm) = self.fm {
                    ctx.send(fm, Msg::BadMachineReport { app: self.app, machine: m });
                }
                ctx.metrics().count("jm.job_blacklists", 1);
            }
        }
    }

    // ------------------------------------------------------------------
    // Snapshots & recovery
    // ------------------------------------------------------------------

    fn build_snapshot(&self) -> JobSnapshot {
        let started = || self.tms.iter().flatten();
        JobSnapshot {
            job: self.job,
            tasks: started()
                .map(|tm| tm.snapshot(self.finished_tasks.contains(&tm.task)))
                .collect(),
            workers: started()
                .flat_map(|tm| {
                    tm.workers.iter().map(|(&w, tw)| (w, tm.task, tw.machine, tw.actor))
                })
                .collect(),
            next_worker: self.next_worker,
        }
    }

    fn flush_snapshot(&mut self) {
        if self.snapshot_dirty && self.state == JmState::Running {
            self.build_snapshot().save(&self.store);
            self.snapshot_dirty = false;
        }
    }

    /// Rebuilds state after a JobMaster restart: every task the snapshot
    /// saw started is built the way a fresh JobMaster builds it — in
    /// topological order, so shuffle inputs resolve against the restored
    /// upstream outputs — and overlaid with what the snapshot knows.
    fn recover(&mut self, ctx: &mut Ctx<'_, Msg>, snap: JobSnapshot) {
        self.state = JmState::Recovering;
        ctx.metrics().count("jm.recoveries", 1);
        self.next_worker = snap.next_worker;
        let order = self.graph.as_ref().unwrap().topo_order().expect("validated");
        for task in order {
            let Some(ts) = snap.tasks.iter().find(|ts| ts.task == task) else { continue };
            self.build_task(ctx, task).restore(ts);
            if ts.finished {
                self.finished_tasks.insert(task);
            }
        }
        // Contact the workers the snapshot remembers ("collect the status
        // from TaskWorker"); confirmations arrive as WorkerStatusReply.
        for &(worker, task, machine, actor) in &snap.workers {
            if self.finished_tasks.contains(&task) {
                continue;
            }
            let Some(tm) = self.tms[task.0 as usize].as_mut() else { continue };
            // On the books, but silent until it answers this JobMaster.
            tm.add_worker(worker, machine, ctx.now());
            self.worker_task.insert(worker, task);
            if let Some(a) = actor {
                ctx.send(a, Msg::WorkerStatusQuery);
            }
        }
        ctx.timer(RECOVERY_WINDOW, TIMER_RECOVERY_DONE);
    }

    fn finish_recovery(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if self.state != JmState::Recovering {
            return;
        }
        self.state = JmState::Running;
        // Workers that never replied are taken for gone — and stopped, in
        // case one is not; the full sync below re-baselines grants with
        // FuxiMaster.
        for w in self.workers_where(|row| row.actor.is_none()) {
            self.stop_worker(ctx, w);
        }
        // Recompute outstanding demand: cap minus what we actually have.
        for (unit, st) in self.req_states.iter_mut() {
            let task = Self::task_of(*unit);
            if self.finished_tasks.contains(&task) {
                continue;
            }
            if let Some(tm) = self.tms[task.0 as usize].as_ref() {
                if !tm.is_complete() {
                    let cap = tm.desc.worker_cap() as u64;
                    let have = tm.workers.len() as u64;
                    st.wants = fuxi_proto::request::WantLevels::anywhere(cap.saturating_sub(have));
                }
            }
        }
        self.attach(ctx);
        // Resume assigning to confirmed-idle workers.
        let tasks: Vec<TaskId> = self.started_tasks.iter().copied().collect();
        for t in tasks {
            if !self.finished_tasks.contains(&t) {
                self.assign_work(ctx, t);
            }
        }
        // The job may already have been complete before the crash.
        if self.graph.is_some() && self.finished_tasks.len() == self.graph.as_ref().unwrap().len() {
            self.complete(ctx, true, "completed".into());
        }
        ctx.metrics().count("jm.recovery_done", 1);
    }

    /// Pushes the in-band metrics report to the current master. Instance
    /// counters are cumulative, so a report lost to failover or reordering
    /// only delays the cluster view, never skews it.
    fn send_metrics_report(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let Some(fm) = self.fm else { return };
        let mut report = fuxi_sim::obs::JobReport {
            app: self.app.0,
            job: self.job.0,
            t_s: ctx.now().as_secs_f64(),
            tasks_total: self.graph.as_ref().map_or(0, |g| g.len() as u32),
            tasks_finished: self.finished_tasks.len() as u32,
            ..Default::default()
        };
        for tm in self.tms.iter().flatten() {
            report.instances_total += tm.total_instances();
            report.instances_running += tm.running_count();
            report.instances_finished += tm.finished;
            report.workers_active += tm.workers.len() as u64;
            report.pending_instances += tm.pending_count() as u64;
        }
        ctx.send(
            fm,
            Msg::MetricsReport {
                report: fuxi_sim::obs::MetricsReport::Job(report),
            },
        );
    }
}

/// Worker launch failures on one machine before the job avoids it.
const LAUNCH_FAILURES_TO_AVOID: u32 = 2;
/// How long to wait for a requested worker to register before assuming
/// its start was lost and retrying. Must exceed worst-case binary
/// download times under load.
const WORKER_START_TIMEOUT_S: f64 = 300.0;

// Every handler ends with the worker books in agreement.
impl Actor<Msg> for JobMaster {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        self.start(ctx);
        debug_assert!(self.books_agree(), "after start");
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: ActorId, msg: Msg) {
        self.handle_message(ctx, from, msg);
        debug_assert!(self.books_agree(), "after a message");
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, tag: u64) {
        self.handle_timer(ctx, tag);
        debug_assert!(self.books_agree(), "after timer {tag}");
    }
}

impl JobMaster {
    fn start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        // Everything this actor does belongs to its job's causal chain —
        // re-establish it here and at every entry point below, since timers
        // arrive with no ambient trace.
        ctx.set_trace(TraceId::from_job(self.job.0));
        let meta = ProcMeta::JobMaster {
            app: self.app,
            job: self.job,
            resource: self.master_resource.clone(),
        };
        ctx.register_proc(meta.encode());
        self.fm = self.naming.master();
        if let Err(e) = self.parse_and_build() {
            ctx.metrics().count("jm.desc_rejected", 1);
            self.complete(ctx, false, e);
            return;
        }
        ctx.timer(HOUSEKEEPING_INTERVAL, TIMER_HOUSEKEEPING);
        ctx.timer(FULL_SYNC_INTERVAL, TIMER_FULL_SYNC);
        if let Some(snap) = JobSnapshot::load(&self.store, self.job) {
            self.recover(ctx, snap);
            return;
        }
        self.attach(ctx);
        let ready = self
            .graph
            .as_ref()
            .unwrap()
            .ready_tasks(&self.finished_tasks, &self.started_tasks);
        for t in ready {
            self.start_task(ctx, t);
        }
        self.flush_snapshot();
    }

    fn handle_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: ActorId, msg: Msg) {
        if self.state == JmState::Done {
            return;
        }
        ctx.set_trace(TraceId::from_job(self.job.0));
        match msg {
            Msg::GrantUpdate { seq, grants } => match self.rx.accept(seq) {
                SeqCheck::Apply => self.apply_grant_deltas(ctx, grants),
                SeqCheck::Duplicate => {
                    ctx.metrics().count("jm.dup_grants_dropped", 1);
                }
                SeqCheck::Gap => {
                    ctx.metrics().count("jm.grant_gaps", 1);
                    if let Some(fm) = self.fm {
                        ctx.send(fm, Msg::GrantSyncNeeded { app: self.app });
                    }
                }
            },
            Msg::FullGrantSync { snapshot } => {
                self.rx.synced();
                // Diff old → new and apply as deltas so workers reconcile.
                let old = self.ledger.snapshot();
                let mut deltas: Vec<GrantDelta> = Vec::new();
                let to_map = |rows: &[(UnitId, Vec<(MachineId, u64)>)]| {
                    let mut m: BTreeMap<(UnitId, MachineId), u64> = BTreeMap::new();
                    for (u, per) in rows {
                        for &(mach, c) in per {
                            m.insert((*u, mach), c);
                        }
                    }
                    m
                };
                let old_m = to_map(&old);
                let new_m = to_map(&snapshot);
                let keys: BTreeSet<(UnitId, MachineId)> =
                    old_m.keys().chain(new_m.keys()).copied().collect();
                for (u, mach) in keys {
                    let o = old_m.get(&(u, mach)).copied().unwrap_or(0) as i64;
                    let n = new_m.get(&(u, mach)).copied().unwrap_or(0) as i64;
                    if n != o {
                        deltas.push(GrantDelta {
                            unit: u,
                            changes: vec![(mach, n - o)],
                        });
                    }
                }
                if !deltas.is_empty() {
                    self.apply_grant_deltas(ctx, deltas);
                }
            }
            Msg::RequestSyncNeeded { .. } => self.send_full_sync(ctx),
            Msg::WorkerRegister {
                app: _,
                worker,
                machine,
            } => {
                // The worker's own announcement is the only one. From a
                // worker already forgotten (stopped while it started) it is
                // ignored: the agent has been told to stop it.
                if let Some(tm) = self.task_master_of(worker) {
                    let task = tm.task;
                    let row = tm.workers.get_mut(&worker).expect("an indexed worker has a row");
                    if row.actor.is_none() {
                        let dt = ctx.now().since(row.requested_at).as_secs_f64();
                        ctx.metrics().record("am.worker_start_overhead_s", dt);
                    }
                    row.actor = Some(from);
                    row.machine = machine;
                    // A registration always comes from a *fresh* process. If
                    // the TaskMaster thought this worker was mid-instance, that
                    // attempt died with the old process (agent restarted it):
                    // requeue it.
                    if let Some((idx, attempt)) = row.busy.take() {
                        tm.abandon_attempt(idx, attempt);
                        ctx.metrics().count("jm.attempts_lost_on_restart", 1);
                    }
                    self.assign_work(ctx, task);
                }
            }
            Msg::WorkerStartFailed {
                worker,
                machine,
                reason,
            } => {
                ctx.metrics().count("jm.worker_start_failures", 1);
                // Capacity races are scheduling noise, not machine faults:
                // only real launch failures feed the blacklist.
                let avoid = reason == StartFailure::Machine && {
                    let fails = self.launch_failures.entry(machine).or_insert(0);
                    *fails += 1;
                    *fails >= LAUNCH_FAILURES_TO_AVOID
                };
                // The agent keeps no row for a failed launch: nothing to stop.
                if let Some((task, _)) = self.forget_worker(worker) {
                    let unit = Self::unit_of(task);
                    // Give the container back and re-ask for one elsewhere.
                    self.return_container(ctx, unit, machine);
                    let delta = RequestDelta {
                        unit,
                        cluster: 1,
                        avoid_add: if avoid { vec![machine] } else { vec![] },
                        ..Default::default()
                    };
                    self.send_deltas(ctx, vec![delta]);
                    if avoid {
                        if let Some(fm) = self.fm {
                            ctx.send(
                                fm,
                                Msg::BadMachineReport {
                                    app: self.app,
                                    machine,
                                },
                            );
                        }
                    }
                }
            }
            Msg::WorkerExited {
                app: _,
                worker,
                machine: _,
                reason: _,
            } => {
                // The process died (enforcement kill or unrestartable
                // crash); its container may still be granted — reconcile
                // starts a replacement if so.
                if let Some((task, _)) = self.forget_worker(worker) {
                    self.reconcile_workers(ctx, task);
                }
            }
            Msg::InstanceFinished {
                worker,
                instance,
                attempt,
                outcome,
                runtime_s,
            } => self.on_instance_finished(ctx, worker, instance, attempt, outcome, runtime_s),
            Msg::InstanceReport { .. } => {
                // Progress feeds the status query path only.
            }
            Msg::WorkerStatusReply {
                app: _,
                worker,
                machine,
                running,
            } => {
                // Recovery confirmation from a surviving worker.
                if let Some(tm) = self.task_master_of(worker) {
                    let row = tm.workers.get_mut(&worker).expect("an indexed worker has a row");
                    row.actor = Some(from);
                    row.machine = machine;
                    if let Some((inst, attempt, _)) = running {
                        if inst.task == tm.task
                            && (inst.index as usize) < tm.instances.len()
                            && tm.instances[inst.index as usize].state != InstState::Done
                        {
                            // Re-adopt the running attempt untouched —
                            // "during the absence of JobMaster process,
                            // all the workers are still running the
                            // instances without interruption".
                            let i = &mut tm.instances[inst.index as usize];
                            i.state = InstState::Running;
                            i.attempts.push(Attempt {
                                attempt,
                                worker,
                                machine,
                                started: ctx.now(),
                                confirmed: true,
                            });
                            i.next_attempt = i.next_attempt.max(attempt + 1);
                            row.busy = Some((inst.index, attempt));
                        }
                    }
                }
            }
            Msg::WorkerListQuery { app: _, machine } => {
                // A restarted agent reconciling adopted processes.
                let workers = self.workers_where(|row| row.machine == machine);
                ctx.send(from, Msg::WorkerListReply { app: self.app, machine, workers });
            }
            Msg::CapacityWarning { app: _, machine, .. } => {
                // Act before the agent kills blindly: retire one idle (or
                // any) worker on that machine.
                let here = |busy_too: bool| {
                    self.workers_where(|row| row.machine == machine && (busy_too || row.busy.is_none()))
                };
                let victim = here(false).last().copied().or_else(|| here(true).first().copied());
                if let Some(w) = victim {
                    self.stop_worker(ctx, w);
                }
            }
            Msg::StopJob { .. } => {
                self.complete(ctx, false, "stopped by user".into());
            }
            _ => {}
        }
    }

    fn handle_timer(&mut self, ctx: &mut Ctx<'_, Msg>, tag: u64) {
        if self.state == JmState::Done {
            return;
        }
        ctx.set_trace(TraceId::from_job(self.job.0));
        match tag {
            TIMER_HOUSEKEEPING => {
                if self.state == JmState::Running {
                    // Workers that never came up (lost StartWorker, or its
                    // registration lost for good): stop them and let
                    // reconciliation retry.
                    let now = ctx.now();
                    let stuck = self.workers_where(|row| {
                        row.actor.is_none()
                            && now.since(row.requested_at).as_secs_f64() > WORKER_START_TIMEOUT_S
                    });
                    for w in stuck {
                        ctx.metrics().count("jm.worker_start_timeouts", 1);
                        self.stop_worker(ctx, w);
                    }
                    let tasks: Vec<TaskId> = self.started_tasks.iter().copied().collect();
                    for task in tasks {
                        if self.finished_tasks.contains(&task) {
                            continue;
                        }
                        self.reconcile_workers(ctx, task);
                        // Backup (speculative) instances for stragglers.
                        let now = ctx.now();
                        if let Some(tm) = self.tms[task.0 as usize].as_mut() {
                            let out = tm.backup_scan(now, &self.blacklist);
                            if !out.is_empty() {
                                ctx.metrics().count("jm.backups_launched", out.len() as u64);
                            }
                            self.dispatch_assignments(ctx, out);
                        }
                    }
                    self.flush_snapshot();
                }
                if self.report_metrics && self.state != JmState::Done {
                    self.send_metrics_report(ctx);
                }
                ctx.timer(HOUSEKEEPING_INTERVAL, TIMER_HOUSEKEEPING);
            }
            TIMER_FULL_SYNC => {
                if self.state == JmState::Running {
                    let current = self.naming.master();
                    if current != self.fm || !self.attached {
                        // Master failover: re-attach and re-send everything
                        // (Figure 7's AM side).
                        self.attach(ctx);
                    } else {
                        self.send_full_sync(ctx);
                    }
                }
                ctx.timer(FULL_SYNC_INTERVAL, TIMER_FULL_SYNC);
            }
            TIMER_RECOVERY_DONE => self.finish_recovery(ctx),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::desc::{Endpoint, PipeDesc, TaskDesc};
    use fuxi_proto::topology::{MachineSpec, TopologyBuilder};
    use fuxi_sim::{SimTime, World, WorldConfig};
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;

    /// Runs a closure under a live `Ctx`: the builder draws from its RNG.
    struct WithCtx<F>(Option<F>);
    impl<F: FnOnce(&mut Ctx<'_, Msg>)> Actor<Msg> for WithCtx<F> {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
            (self.0.take().expect("started once"))(ctx);
        }
        fn on_message(&mut self, _: &mut Ctx<'_, Msg>, _: ActorId, _: Msg) {}
    }

    fn pipe(source: Endpoint, destination: Endpoint) -> PipeDesc {
        PipeDesc { source, destination }
    }
    fn file(pattern: &str) -> Endpoint {
        Endpoint { file_pattern: Some(pattern.into()), access_point: None }
    }
    fn port(ap: &str) -> Endpoint {
        Endpoint { file_pattern: None, access_point: Some(ap.into()) }
    }

    fn tm(jm: &JobMaster, task: TaskId) -> &TaskMaster {
        jm.tms[task.0 as usize].as_ref().expect("task was built")
    }

    /// A recovered JobMaster's tasks are the cold-built ones plus what the
    /// snapshot knows: same chunks, shuffle reads and size-driven compute
    /// time, for a task fed from the DFS and for one fed by a shuffle.
    #[test]
    fn recovered_tasks_equal_the_cold_built_ones() {
        let topo = Arc::new(TopologyBuilder::new().uniform(2, 2, MachineSpec::default()).build());
        let pangu = PanguHandle::new(7);
        // Six chunks over four maps: the round-robin is uneven.
        pangu.create("in/part-0", 6.0 * 256.0, 256.0, 3, &topo);
        let map = TaskDesc {
            data_driven: true,
            output_mb_per_instance: 32.0,
            ..TaskDesc::synthetic(4, 1.0)
        };
        let reduce = TaskDesc { data_driven: true, ..TaskDesc::synthetic(2, 2.0) };
        let desc = JobDesc {
            tasks: [("map".to_owned(), map), ("reduce".to_owned(), reduce)].into(),
            pipes: vec![
                pipe(file("pangu://in/*"), port("map:input")),
                pipe(port("map:shuffle"), port("reduce:shuffle")),
            ],
        };
        let store = StoreHandle::new();
        let new_jm = move || {
            let mut jm = JobMaster::new(
                AppId(1),
                JobId(1),
                JobMasterConfig::default(),
                NameRegistry::new(),
                store.clone(),
                pangu.clone(),
                topo.clone(),
                desc.to_json(),
                ResourceVec::cores_mb(1, 2048),
                false,
            );
            jm.parse_and_build().expect("valid description");
            jm
        };
        let ran = Rc::new(Cell::new(false));
        let ran_in = ran.clone();
        let scenario = move |ctx: &mut Ctx<'_, Msg>| {
            // What a restarted JobMaster makes of `cold`'s state, through
            // the store as in production.
            let recovered = |ctx: &mut Ctx<'_, Msg>, cold: &JobMaster| {
                cold.build_snapshot().save(&cold.store);
                let mut jm = new_jm();
                let snap = JobSnapshot::load(&jm.store, jm.job).expect("just saved");
                jm.recover(ctx, snap);
                jm
            };
            let mut cold = new_jm();
            let graph = cold.graph.as_ref().unwrap();
            let (map, reduce) = (graph.by_name("map").unwrap(), graph.by_name("reduce").unwrap());

            // Started, nothing has run: equal field for field.
            cold.start_task(ctx, map);
            let rec = recovered(ctx, &cold);
            assert_eq!(tm(&rec, map).instances, tm(&cold, map).instances);
            assert_eq!(tm(&rec, map).instances[0].compute_s, 1.0 + 512.0 / 100.0);
            assert_eq!(tm(&rec, map).instances[3].compute_s, 1.0 + 256.0 / 100.0);
            assert_eq!(tm(&rec, map).pending_count(), 4);
            assert_eq!(tm(&rec, map).locality_hints(16), tm(&cold, map).locality_hints(16));
            assert_eq!(rec.req_states[&UnitId(map.0)].def, cold.req_states[&UnitId(map.0)].def);
            assert!(rec.tms[reduce.0 as usize].is_none(), "not started, not built");

            // Every map instance runs on a machine of its own; the reduce
            // starts on their outputs.
            let t = cold.tms[map.0 as usize].as_mut().unwrap();
            for w in 0..4 {
                t.add_worker(WorkerId(w), MachineId(w as u32), ctx.now());
                t.workers.get_mut(&WorkerId(w)).unwrap().actor = Some(ctx.id());
            }
            for a in t.try_assign(ctx.now(), &cold.blacklist) {
                t.attempt_succeeded(a.worker, a.instance.index, a.attempt, 3.5);
                t.remove_worker(a.worker);
            }
            cold.finish_task(ctx, map);
            let rec = recovered(ctx, &cold);
            assert!(rec.finished_tasks.contains(&map));
            assert_eq!(tm(&rec, reduce).instances, tm(&cold, reduce).instances);
            assert_eq!(tm(&rec, reduce).instances[0].shuffle_reads.len(), 4);
            assert_eq!(tm(&rec, reduce).instances[0].compute_s, 2.0 + 64.0 / 100.0);
            assert_eq!(tm(&rec, reduce).pending_count(), 2);
            // The finished task: done where it ran, nothing left to assign
            // (attempt numbering of a done instance is not carried).
            for (r, c) in tm(&rec, map).instances.iter().zip(&tm(&cold, map).instances) {
                assert_eq!(
                    (r.compute_s, &r.input_chunks, r.state, r.output_machine, r.runtime_s),
                    (c.compute_s, &c.input_chunks, c.state, c.output_machine, c.runtime_s)
                );
                assert_eq!(r.state, InstState::Done);
            }
            assert_eq!(tm(&rec, map).pending_count(), 0);
            assert!(tm(&rec, map).is_complete());
            ran_in.set(true);
        };
        let mut world: World<Msg> = World::new(WorldConfig::uniform(4, 2, 5));
        world.spawn(Some(0), Box::new(WithCtx(Some(scenario))));
        world.run_until(SimTime::from_secs(1));
        assert!(ran.get(), "the scenario ran");
    }

    /// Logs what it hears; a late worker's stand-in also says `hello` first.
    struct Stub {
        log: Rc<RefCell<Vec<Msg>>>,
        hello: Option<(ActorId, Msg)>,
    }
    impl Actor<Msg> for Stub {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
            if let Some((to, msg)) = self.hello.take() {
                ctx.send(to, msg);
            }
        }
        fn on_message(&mut self, _: &mut Ctx<'_, Msg>, _: ActorId, msg: Msg) {
            self.log.borrow_mut().push(msg);
        }
    }

    /// Runs the JobMaster under test and keeps it reachable afterwards.
    struct Probe(Rc<RefCell<JobMaster>>);
    impl Actor<Msg> for Probe {
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

    /// A one-task job whose JobMaster holds one container on machine 1 and
    /// has asked that machine's agent (a stub) for `worker`: requested, not
    /// yet registered.
    struct Rig {
        world: World<Msg>,
        jm: Rc<RefCell<JobMaster>>,
        jm_id: ActorId,
        agent_log: Rc<RefCell<Vec<Msg>>>,
        worker: WorkerId,
    }

    const M1: MachineId = MachineId(1);

    fn grant(seq: u64, delta: i64) -> Msg {
        Msg::GrantUpdate { seq, grants: vec![GrantDelta { unit: UnitId(0), changes: vec![(M1, delta)] }] }
    }

    fn one_requested_worker() -> Rig {
        let mut world: World<Msg> = World::new(WorldConfig::uniform(4, 2, 5));
        let naming = NameRegistry::new();
        let stub = |log: &Rc<RefCell<Vec<Msg>>>| Box::new(Stub { log: log.clone(), hello: None });
        let fm = world.spawn(None, stub(&Rc::default()));
        naming.register(fuxi_apsara::naming::FUXI_MASTER, fm);
        let agent_log = Rc::new(RefCell::new(Vec::new()));
        let agent = world.spawn(Some(M1.0), stub(&agent_log));
        naming.register(&format!("agent/{M1}"), agent);
        let desc = JobDesc {
            tasks: [("t".to_owned(), TaskDesc::synthetic(2, 5.0))].into(),
            pipes: vec![],
        };
        let jm = Rc::new(RefCell::new(JobMaster::new(
            AppId(1),
            JobId(1),
            JobMasterConfig::default(),
            naming,
            StoreHandle::new(),
            PanguHandle::new(7),
            Arc::new(TopologyBuilder::new().uniform(2, 2, MachineSpec::default()).build()),
            desc.to_json(),
            ResourceVec::cores_mb(1, 2048),
            false,
        )));
        let jm_id = world.spawn(Some(0), Box::new(Probe(jm.clone())));
        world.run_until(SimTime::from_millis(100));
        world.send_external(jm_id, grant(1, 1));
        world.run_until(SimTime::from_millis(200));
        let requested: Vec<WorkerId> = (agent_log.borrow().iter())
            .filter_map(|m| match m {
                Msg::StartWorker { spec } => Some(spec.worker),
                _ => None,
            })
            .collect();
        assert_eq!(requested.len(), 1, "one container, one worker requested");
        Rig { world, jm, jm_id, agent_log, worker: requested[0] }
    }

    fn rows(jm: &JobMaster) -> usize {
        jm.tms.iter().flatten().map(|tm| tm.workers.len()).sum()
    }

    /// A worker that exits before it ever registered takes its start clock
    /// with it: nothing is left for the housekeeping loop to time out.
    #[test]
    fn exit_before_register_leaves_no_clock() {
        let mut r = one_requested_worker();
        let (jm_id, worker) = (r.jm_id, r.worker);
        r.world.at(SimTime::from_secs(1), move |w| {
            let reason = fuxi_proto::FailReason::Killed;
            w.send_external(jm_id, Msg::WorkerExited { app: AppId(1), worker, machine: M1, reason });
        });
        // The container goes too, so no replacement is waiting to start.
        r.world.at(SimTime::from_secs(2), move |w| w.send_external(jm_id, grant(2, -1)));
        r.world.run_until(SimTime::from_secs(400));
        assert_eq!(r.world.metrics().counter("jm.worker_start_timeouts"), 0);
        assert_eq!((r.jm.borrow().worker_task.len(), rows(&r.jm.borrow())), (0, 0));
    }

    /// A worker stopped between `StartWorker` and its registration is gone
    /// from the books; when it registers after all it is given nothing and
    /// is not taken back.
    #[test]
    fn late_announcement_of_a_stopped_worker_is_ignored() {
        let mut r = one_requested_worker();
        let (jm_id, worker) = (r.jm_id, r.worker);
        r.world.at(SimTime::from_secs(1), move |w| w.send_external(jm_id, grant(2, -1)));
        let worker_log = Rc::new(RefCell::new(Vec::new()));
        let log = worker_log.clone();
        r.world.at(SimTime::from_secs(2), move |w| {
            let hello = Msg::WorkerRegister { app: AppId(1), worker, machine: M1 };
            w.spawn(Some(M1.0), Box::new(Stub { log, hello: Some((jm_id, hello)) }));
        });
        r.world.run_until(SimTime::from_secs(10));
        let stopped = |m: &Msg| matches!(m, Msg::StopWorker { worker: w, .. } if *w == worker);
        assert!(r.agent_log.borrow().iter().any(stopped), "the agent was told to stop it");
        assert!(worker_log.borrow().is_empty(), "it was sent {:?}", worker_log.borrow());
        let jm = r.jm.borrow();
        assert_eq!((jm.worker_task.len(), rows(&jm)), (0, 0), "no index entry, no row");
        assert_eq!(tm(&jm, TaskId(0)).pending_count(), 2, "both instances still wait for a worker");
    }
}
