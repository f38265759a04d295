//! Cluster construction and control.

use crate::boot::{boot_groups, Shared};
use crate::deploy::DeployTopology;
use fuxi_apsara::{NameRegistry, PanguHandle, StoreHandle};
use fuxi_core::master::MasterConfig;
use fuxi_job::job_master::JobMasterConfig;
use fuxi_job::JobDesc;
use fuxi_proto::topology::{MachineSpec, Topology};
use fuxi_proto::{JobId, MachineId, Msg, Priority, QuotaGroupId};
use fuxi_sim::{
    Actor, ActorId, Ctx, NetConfig, SimDuration, SimTime, TraceId, TracerConfig, World,
    WorldConfig,
};
use std::sync::Arc;

/// Cluster-wide configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of machines in the cluster.
    pub n_machines: usize,
    /// Machines per rack.
    pub rack_size: usize,
    /// Hardware description of every machine.
    pub machine_spec: MachineSpec,
    /// Deterministic RNG seed.
    pub seed: u64,
    /// Network latency/loss model.
    pub net: NetConfig,
    /// FuxiMaster configuration.
    pub master: MasterConfig,
    /// JobMaster configuration applied to every job.
    pub jm: JobMasterConfig,
    /// Spawn a hot-standby FuxiMaster alongside the primary.
    pub standby_master: bool,
    /// Sampling interval for the utilization series (Figure 10).
    pub sample_interval: SimDuration,
    /// Observability configuration (tracer, flight recorder).
    pub obs: TracerConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            n_machines: 20,
            rack_size: 5,
            machine_spec: MachineSpec::default(),
            seed: 1,
            net: NetConfig::default(),
            master: MasterConfig::default(),
            jm: JobMasterConfig::default(),
            standby_master: false,
            sample_interval: SimDuration::from_secs(1),
            obs: TracerConfig::default(),
        }
    }
}

/// Submission options.
#[derive(Debug, Clone)]
pub struct SubmitOpts {
    /// Scheduling priority.
    pub priority: Priority,
    /// Quota group the job bills against.
    pub quota_group: QuotaGroupId,
    /// Master binary package size, MB.
    pub master_package_mb: f64,
}

impl Default for SubmitOpts {
    fn default() -> Self {
        Self {
            priority: Priority::DEFAULT,
            quota_group: QuotaGroupId(0),
            master_package_mb: 100.0,
        }
    }
}

/// Client-observed job state.
#[derive(Debug, Clone, Default)]
pub struct JobState {
    /// Submission time, seconds.
    pub submitted_s: f64,
    /// Whether FuxiMaster acknowledged the submission.
    pub accepted: bool,
    /// Terminal state: (success, finish time, message).
    pub done: Option<(bool, f64, String)>,
}

/// Samples shared gauges into the Figure 10 time series.
struct Sampler {
    interval: SimDuration,
}

impl Actor<Msg> for Sampler {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        ctx.timer(self.interval, 1);
    }
    fn on_message(&mut self, _: &mut Ctx<'_, Msg>, _: ActorId, _: Msg) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, _tag: u64) {
        let t = ctx.now().as_secs_f64();
        let m = ctx.metrics();
        for g in [
            "am.obtained_mem_mb",
            "am.obtained_cpu_milli",
            "fa.planned_mem_mb",
            "fa.planned_cpu_milli",
        ] {
            let v = m.gauge(g);
            m.push_series(g, t, v);
        }
        ctx.timer(self.interval, 1);
    }
}

/// A fully wired simulated Fuxi cluster.
pub struct Cluster {
    /// The simulated world everything runs in.
    pub world: World<Msg>,
    /// Shared name service.
    pub naming: NameRegistry,
    /// Shared cluster metrics view (the scrape endpoint and `fuxitop`
    /// read this; the primary master writes it). Survives failover for
    /// the same reason the name registry does.
    pub hub: fuxi_sim::obs::MetricsHub,
    /// Shared checkpoint store.
    pub store: StoreHandle,
    /// Shared DFS model.
    pub pangu: PanguHandle,
    /// Cluster topology.
    pub topo: Arc<Topology>,
    /// Lock-service actor.
    pub lock: ActorId,
    /// FuxiMaster actors spawned (primary and standbys).
    pub masters: Vec<ActorId>,
    /// Agent actor per machine (index = machine id).
    pub agents: Vec<ActorId>,
    /// Submitting client's actor address.
    pub client: ActorId,
    shared: Shared,
}

impl Cluster {
    /// Boots [`DeployTopology::single_process`] under the sim kernel, plus
    /// the sim-only utilization sampler. Spawn order — lock, master(s),
    /// agents, client, sampler — fixes actor ids and RNG draws.
    pub fn new(cfg: ClusterConfig) -> Self {
        let deploy = DeployTopology::single_process(cfg);
        let cfg = &deploy.cluster;
        let shared = Shared::new(cfg);
        let mut world: World<Msg> = World::new(WorldConfig {
            machines: shared.machine_configs(),
            net: cfg.net.clone(),
            seed: cfg.seed,
            obs: cfg.obs.clone(),
        });
        let groups = &deploy.nodes[0].actors;
        let b = boot_groups(&mut world, &shared, groups, deploy.lock_id().id, |_, _, _| {});
        let interval = cfg.sample_interval;
        world.spawn(None, Box::new(Sampler { interval }));
        Self {
            world,
            naming: shared.naming.clone(),
            hub: shared.hub.clone(),
            store: shared.store.clone(),
            pangu: shared.pangu.clone(),
            topo: shared.topo.clone(),
            lock: b.lock.expect("single_process hosts the lock service"),
            masters: b.masters,
            agents: b.agents,
            client: b.client.expect("single_process hosts the client"),
            shared,
        }
    }

    // ------------------------------------------------------------------
    // Jobs (delegations to the shared `JobLog`)
    // ------------------------------------------------------------------

    /// Submits a job description; returns its id.
    pub fn submit(&mut self, desc: &JobDesc, opts: &SubmitOpts) -> JobId {
        let (job, msg) = self.shared.jobs.submission(self.client, desc, opts);
        self.world.send_external_traced(self.client, msg, TraceId::from_job(job.0));
        job
    }

    /// Job state.
    pub fn job_state(&self, job: JobId) -> Option<JobState> {
        self.shared.jobs.state(job)
    }

    /// `Some((success, finish_time_s))` once the job reached a terminal
    /// state.
    pub fn job_done(&self, job: JobId) -> Option<(bool, f64)> {
        self.shared.jobs.done(job)
    }

    /// Finished count.
    pub fn finished_count(&self) -> usize {
        self.shared.jobs.finished_count()
    }

    /// All jobs.
    pub fn all_jobs(&self) -> Vec<(JobId, JobState)> {
        self.shared.jobs.all()
    }

    /// Duplicate terminal job notifications the client saw (0 = the
    /// exactly-once completion invariant held across failovers).
    pub fn duplicate_finishes(&self) -> u64 {
        self.shared.jobs.duplicate_finishes()
    }

    // ------------------------------------------------------------------
    // Running
    // ------------------------------------------------------------------

    /// Run until.
    pub fn run_until(&mut self, t: SimTime) {
        self.world.run_until(t);
    }

    /// Run for.
    pub fn run_for(&mut self, d: SimDuration) {
        self.world.run_for(d);
    }

    /// Runs until the job finishes or the deadline passes.
    pub fn run_until_job_done(&mut self, job: JobId, deadline: SimTime) -> Option<(bool, f64)> {
        let jobs = self.shared.jobs.clone();
        self.world.run_until_cond(deadline, move |_| jobs.done(job).is_some());
        self.job_done(job)
    }

    /// Runs until a metrics counter reaches `n` or the deadline passes.
    pub fn run_until_counter(&mut self, name: &'static str, n: u64, deadline: SimTime) -> u64 {
        self.world
            .run_until_cond(deadline, move |w| w.metrics().counter(name) >= n);
        self.world.metrics().counter(name)
    }

    /// Runs until `n` jobs have finished or the deadline passes; returns
    /// how many finished.
    pub fn run_until_n_done(&mut self, n: usize, deadline: SimTime) -> usize {
        let jobs = self.shared.jobs.clone();
        self.world.run_until_cond(deadline, move |_| jobs.finished_count() >= n);
        self.finished_count()
    }

    // ------------------------------------------------------------------
    // Failover & fault controls
    // ------------------------------------------------------------------

    /// The actor currently holding the master role.
    pub fn current_master(&self) -> Option<ActorId> {
        self.naming.master()
    }

    /// Kills the current primary FuxiMaster (the paper's
    /// FuxiMasterFailure fault).
    pub fn kill_primary_master(&mut self) {
        if let Some(fm) = self.naming.master() {
            self.world.kill_actor(fm);
        }
    }

    /// Kills only the agent process on `m` (workers survive — the agent
    /// failover scenario). Returns the old agent actor.
    pub fn kill_agent(&mut self, m: MachineId) -> ActorId {
        let old = self.agents[m.0 as usize];
        self.world.kill_actor(old);
        old
    }

    /// Starts a new agent on `m` (it adopts surviving processes).
    pub fn respawn_agent(&mut self, m: MachineId) -> ActorId {
        let a = self.world.spawn(Some(m.0), self.shared.agent(m));
        self.agents[m.0 as usize] = a;
        a
    }

    /// Machine the current JobMaster of `job` runs on, located via the
    /// machines' process tables (test helper).
    pub fn find_jobmaster(&self, job: JobId) -> Option<(MachineId, ActorId)> {
        for m in self.topo.machines() {
            if !self.world.machine_up(m.0) {
                continue;
            }
            for (actor, meta) in self.world.procs_on(m.0) {
                if let Some(fuxi_agent::ProcMeta::JobMaster { job: j, .. }) =
                    fuxi_agent::ProcMeta::decode(&meta)
                {
                    if j == job {
                        return Some((m, actor));
                    }
                }
            }
        }
        None
    }

    /// Worker actors of `job`'s app currently alive on `m` (test helper).
    pub fn workers_on(&self, m: MachineId) -> Vec<ActorId> {
        self.world
            .procs_on(m.0)
            .into_iter()
            .filter(|(_, meta)| {
                matches!(
                    fuxi_agent::ProcMeta::decode(meta),
                    Some(fuxi_agent::ProcMeta::Worker(_))
                )
            })
            .map(|(a, _)| a)
            .collect()
    }
}
