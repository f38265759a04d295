//! One boot path, three engines.
//!
//! Everything the simulated [`crate::Cluster`], the threaded
//! `fuxi_rt::LiveCluster` and the per-process `fuxi_node::LiveNode` have in
//! common lives here, once: the machine [`Topology`] derived from a
//! [`ClusterConfig`], the [`Shared`] handles and factories every role is
//! built from, the submitting `Client` actor, the [`JobLog`] it writes
//! and the harnesses read, and [`boot_groups`], which walks a
//! [`DeployTopology`](crate::DeployTopology)'s [`ActorGroup`]s in spec
//! order. The only engine-specific thing is [`Spawn`].

use crate::deploy::ActorGroup;
use crate::harness::{ClusterConfig, JobState, SubmitOpts};
use fuxi_agent::{FuxiAgent, MasterFactory, MasterLaunch, WorkerFactory, WorkerLaunch};
use fuxi_apsara::naming::MasterWatch;
use fuxi_apsara::{LockService, NameRegistry, PanguHandle, StoreHandle};
use fuxi_core::master::FuxiMaster;
use fuxi_job::job_master::JobMaster;
use fuxi_job::worker::TaskWorker;
use fuxi_job::JobDesc;
use fuxi_proto::msg::AppDescription;
use fuxi_proto::topology::{Topology, TopologyBuilder};
use fuxi_proto::{JobId, MachineId, Msg, ResourceVec};
use fuxi_sim::obs::MetricsHub;
use fuxi_sim::{Actor, ActorId, Ctx, MachineConfig, SimDuration, TraceId, World};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

type BoxedActor = Box<dyn Actor<Msg> + Send>;

/// The one thing that differs between engines: how an actor comes alive.
/// Implemented for the sim [`World`] here and for `fuxi_rt::LiveRuntime`
/// in `fuxi-rt`.
pub trait Spawn {
    /// Starts `actor`, optionally placed on a machine; returns its address.
    fn spawn(&mut self, machine: Option<u32>, actor: BoxedActor) -> ActorId;
}

impl Spawn for World<Msg> {
    fn spawn(&mut self, machine: Option<u32>, actor: BoxedActor) -> ActorId {
        World::spawn(self, machine, actor)
    }
}

/// The machine topology of `cfg`: exactly `n_machines`, as full racks plus
/// a remainder rack. Identical in every engine and every process.
pub fn machine_topology(cfg: &ClusterConfig) -> Arc<Topology> {
    let mut b = TopologyBuilder::new().uniform(
        cfg.n_machines / cfg.rack_size,
        cfg.rack_size,
        cfg.machine_spec.clone(),
    );
    let rem = cfg.n_machines % cfg.rack_size;
    if rem > 0 {
        b = b.add_rack(vec![cfg.machine_spec.clone(); rem]);
    }
    Arc::new(b.build())
}

/// Handles and factories every role is wired from, built once per process
/// from the config. Apsara handles are `Arc`-backed: clones share state.
pub struct Shared {
    /// The configuration everything below was derived from.
    pub cfg: ClusterConfig,
    /// Name service.
    pub naming: NameRegistry,
    /// Checkpoint store.
    pub store: StoreHandle,
    /// DFS model.
    pub pangu: PanguHandle,
    /// Cluster metrics view. Every master shares it, so a promoted standby
    /// inherits the pending-age clocks and alert history of its predecessor.
    pub hub: MetricsHub,
    /// Machine topology.
    pub topo: Arc<Topology>,
    /// What the client has seen of every submitted job.
    pub jobs: JobLog,
    master_factory: MasterFactory,
    worker_factory: WorkerFactory,
}

impl Shared {
    /// Builds the handles and the JobMaster/TaskWorker factories — the
    /// counterpart of downloaded binaries.
    pub fn new(cfg: &ClusterConfig) -> Self {
        let topo = machine_topology(cfg);
        let naming = NameRegistry::new();
        let store = StoreHandle::new();
        let pangu = PanguHandle::new(cfg.seed.wrapping_mul(31).wrapping_add(7));
        let startup_overhead_s = cfg.jm.startup_overhead_s;
        let worker_factory: WorkerFactory = Arc::new(move |launch: &WorkerLaunch| {
            Box::new(TaskWorker::from_spec(&launch.spec, startup_overhead_s))
        });
        let jm = (cfg.jm.clone(), naming.clone(), store.clone(), pangu.clone(), topo.clone());
        // The metrics plane has one switch: reporters follow the master's.
        let report_metrics = cfg.master.metrics.enabled;
        let master_factory: MasterFactory = Arc::new(move |launch: &MasterLaunch| {
            let (jm_cfg, naming, store, pangu, topo) = jm.clone();
            let desc = &launch.desc;
            Box::new(JobMaster::new(
                launch.app, launch.job, jm_cfg, naming, store, pangu, topo,
                desc.payload.clone(), desc.master_resource.clone(), report_metrics,
            ))
        });
        Self {
            hub: MetricsHub::default(),
            cfg: cfg.clone(),
            naming,
            store,
            pangu,
            topo,
            jobs: JobLog::default(),
            master_factory,
            worker_factory,
        }
    }

    /// Per-machine rack and bandwidth figures the engines are sized from.
    pub fn machine_configs(&self) -> Vec<MachineConfig> {
        let topo = &self.topo;
        topo.machines()
            .map(|m| MachineConfig {
                rack: topo.rack_of(m).0,
                disk_bw_mbps: topo.spec(m).disk_bw_mbps,
                net_bw_mbps: topo.spec(m).net_bw_mbps,
            })
            .collect()
    }

    /// A FuxiMaster (primary or standby — election through `lock` decides).
    pub fn master(&self, lock: ActorId) -> BoxedActor {
        Box::new(FuxiMaster::new(
            self.cfg.master.clone(),
            (*self.topo).clone(),
            self.naming.clone(),
            self.store.clone(),
            lock,
            self.hub.clone(),
        ))
    }

    /// The FuxiAgent of machine `m`.
    pub fn agent(&self, m: MachineId) -> BoxedActor {
        Box::new(FuxiAgent::new(
            m,
            self.topo.spec(m).resources.clone(),
            self.cfg.master.metrics.enabled,
            self.naming.clone(),
            self.master_factory.clone(),
            self.worker_factory.clone(),
        ))
    }
}

/// Addresses of what one [`boot_groups`] call spawned.
#[derive(Debug, Default)]
pub struct Booted {
    /// The lock service, if hosted here.
    pub lock: Option<ActorId>,
    /// FuxiMasters, in spawn order.
    pub masters: Vec<ActorId>,
    /// Agent per machine (index = machine id; `ActorId::NONE` where the
    /// machine's agent is hosted elsewhere).
    pub agents: Vec<ActorId>,
    /// The client, if hosted here.
    pub client: Option<ActorId>,
}

/// Spawns `groups` on `engine` in order — which fixes actor ids and, in
/// the sim, every RNG draw. Masters are pointed at `lock_id` (the lock
/// service may live in another process); `on_spawn(group, k, id)` sees
/// every actor as it lands.
pub fn boot_groups<'a>(
    engine: &mut impl Spawn,
    shared: &Shared,
    groups: impl IntoIterator<Item = &'a ActorGroup>,
    lock_id: ActorId,
    mut on_spawn: impl FnMut(usize, u32, ActorId),
) -> Booted {
    let mut b = Booted {
        agents: vec![ActorId::NONE; shared.cfg.n_machines],
        ..Booted::default()
    };
    for (gi, group) in groups.into_iter().enumerate() {
        let mut put = |k: u32, machine: Option<u32>, actor: BoxedActor| {
            let id = engine.spawn(machine, actor);
            on_spawn(gi, k, id);
            id
        };
        match *group {
            ActorGroup::LockService => {
                b.lock = Some(put(0, None, Box::new(LockService::with_defaults())));
            }
            ActorGroup::Master => b.masters.push(put(0, None, shared.master(lock_id))),
            ActorGroup::Agents { first, count } => {
                for k in 0..count {
                    let m = MachineId(first + k);
                    b.agents[m.0 as usize] = put(k, Some(m.0), shared.agent(m));
                }
            }
            ActorGroup::Client => {
                let client = Client {
                    naming: shared.naming.clone(),
                    jobs: shared.jobs.clone(),
                    pending: BTreeMap::new(),
                    master_watch: MasterWatch::default(),
                };
                b.client = Some(put(0, None, Box::new(client)));
            }
        }
    }
    b
}

#[derive(Default)]
struct JobLogInner {
    jobs: Mutex<BTreeMap<JobId, JobState>>,
    allocated: AtomicU32,
    finished: AtomicUsize,
    duplicate_finishes: AtomicU64,
}

/// The job ledger: allocates ids, builds submissions, and holds what the
/// `Client` actor observed. Clones share one ledger; the harness methods
/// (`submit`, `job_state`, `finished_count`, ...) are delegations to it.
#[derive(Clone, Default)]
pub struct JobLog(Arc<JobLogInner>);

impl JobLog {
    fn map(&self) -> MutexGuard<'_, BTreeMap<JobId, JobState>> {
        self.0.jobs.lock().expect("a thread panicked while holding the job log")
    }

    /// Allocates the next job id and builds the submission for `client`.
    /// The engine delivers it with `send_external_traced(client, msg,
    /// TraceId::from_job(job.0))`: the causal trace opens there, and
    /// everything downstream inherits it via the delivery envelopes.
    pub fn submission(&self, client: ActorId, desc: &JobDesc, opts: &SubmitOpts) -> (JobId, Msg) {
        let job = JobId(self.0.allocated.fetch_add(1, Ordering::Relaxed) + 1);
        let desc = AppDescription {
            app_type: "fuxi_job".to_owned(),
            quota_group: opts.quota_group,
            priority: opts.priority,
            master_resource: ResourceVec::cores_mb(1, 2048),
            master_package_mb: opts.master_package_mb,
            payload: desc.to_json(),
        };
        (job, Msg::SubmitJob { job, desc, client })
    }

    /// Job state as the client observed it.
    pub fn state(&self, job: JobId) -> Option<JobState> {
        self.map().get(&job).cloned()
    }

    /// `Some((success, finish_time_s))` once the job is terminal.
    pub fn done(&self, job: JobId) -> Option<(bool, f64)> {
        self.map().get(&job)?.done.as_ref().map(|&(ok, t, _)| (ok, t))
    }

    /// Number of jobs in a terminal state: one atomic load, which is what
    /// lets the sim evaluate "n jobs done" after every event. The `Acquire`
    /// pairs with the client's `Release` increment, made after the job's
    /// entry is written: whoever sees the count finds those jobs terminal.
    pub fn finished_count(&self) -> usize {
        self.0.finished.load(Ordering::Acquire)
    }

    /// All jobs and their client-observed states, by id.
    pub fn all(&self) -> Vec<(JobId, JobState)> {
        self.map().iter().map(|(&j, s)| (j, s.clone())).collect()
    }

    /// Terminal notifications for jobs that were already terminal. Must
    /// stay 0: exactly-once completion is the invariant failover preserves.
    pub fn duplicate_finishes(&self) -> u64 {
        self.0.duplicate_finishes.load(Ordering::Relaxed)
    }

    /// Blocks until `n` jobs are terminal or `timeout` passes; returns how
    /// many finished. Wall-clock engines only.
    pub fn wait_n_done(&self, n: usize, timeout: Duration) -> usize {
        let start = Instant::now();
        while self.finished_count() < n && start.elapsed() < timeout {
            std::thread::sleep(Duration::from_millis(10));
        }
        self.finished_count()
    }
}

/// The client actor: submits jobs to the current master (retrying across
/// failovers) and records outcomes in the [`JobLog`].
struct Client {
    naming: NameRegistry,
    jobs: JobLog,
    pending: BTreeMap<JobId, AppDescription>,
    master_watch: MasterWatch,
}

/// Resubmission period for jobs no master has acknowledged yet.
const RETRY: SimDuration = SimDuration(2_000_000);
const TIMER_RETRY: u64 = 1;
/// Another look for a master, armed by a submission that found none.
const TIMER_RESOLVE: u64 = 2;

impl Client {
    /// (Re)submits every unacknowledged job to `fm`. Each one re-opens the
    /// job's causal trace, so a post-failover resubmit joins the same chain
    /// as the original.
    fn submit_pending(&self, ctx: &mut Ctx<'_, Msg>, fm: ActorId) {
        let client = ctx.id();
        for (&job, desc) in &self.pending {
            let submit = Msg::SubmitJob { job, desc: desc.clone(), client };
            ctx.send_traced(fm, submit, TraceId::from_job(job.0));
        }
    }
}

impl Actor<Msg> for Client {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        ctx.timer(RETRY, TIMER_RETRY);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, _from: ActorId, msg: Msg) {
        let now_s = ctx.now().as_secs_f64();
        match msg {
            Msg::SubmitJob { job, desc, .. } => {
                let submitted = JobState { submitted_s: now_s, ..Default::default() };
                self.jobs.map().entry(job).or_insert(submitted);
                self.pending.insert(job, desc.clone());
                // No master yet (cold start): the job waits in `pending`
                // for TIMER_RESOLVE, not for a whole RETRY period.
                if let Some(fm) = self.master_watch.master_or_watch(&self.naming, ctx, TIMER_RESOLVE) {
                    let client = ctx.id();
                    ctx.send(fm, Msg::SubmitJob { job, desc, client });
                }
            }
            Msg::JobAccepted { job, .. } => {
                if let Some(st) = self.jobs.map().get_mut(&job) {
                    st.accepted = true;
                }
                self.pending.remove(&job);
            }
            Msg::JobFinished { job, success, message, .. } => {
                // Terminal, whether or not the ack ever arrived: a
                // resubmission now would run the job a second time.
                self.pending.remove(&job);
                if let Some(st) = self.jobs.map().get_mut(&job) {
                    let first = st.done.is_none();
                    st.done = Some((success, now_s, message));
                    if first {
                        self.jobs.0.finished.fetch_add(1, Ordering::Release);
                    } else {
                        self.jobs.0.duplicate_finishes.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, tag: u64) {
        if tag == TIMER_RESOLVE {
            if let Some(fm) = self.master_watch.look_again(&self.naming, ctx, TIMER_RESOLVE, RETRY) {
                self.submit_pending(ctx, fm);
            }
            return;
        }
        // Retry unaccepted submissions (master may have failed over).
        if let Some(fm) = self.naming.master() {
            self.submit_pending(ctx, fm);
        }
        ctx.timer(RETRY, TIMER_RETRY);
    }
}
