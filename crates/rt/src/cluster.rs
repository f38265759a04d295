//! A fully wired *live* Fuxi cluster: `fuxi_cluster::boot` — the same
//! wiring, client and job ledger the simulated harness boots — spawned on
//! the pool threads of a [`LiveRuntime`] instead of the kernel.
//!
//! It takes the harness's [`ClusterConfig`]/[`SubmitOpts`]/[`JobState`]
//! types, so a scenario can be expressed once and run on either engine
//! (the sim↔live parity test does exactly that).

use crate::runtime::{LiveRuntime, RuntimeConfig};
use fuxi_apsara::{NameRegistry, PanguHandle, StoreHandle};
use fuxi_cluster::boot::{boot_groups, JobLog, Shared, Spawn};
use fuxi_cluster::deploy::{ActorGroup, DeployTopology};
use fuxi_cluster::{ClusterConfig, JobState, SubmitOpts};
use fuxi_job::JobDesc;
use fuxi_proto::topology::Topology;
use fuxi_proto::{JobId, MachineId, Msg};
use fuxi_sim::{Actor, ActorId, Metrics, TraceId, Tracer};
use std::sync::Arc;
use std::time::Duration;

impl Spawn for LiveRuntime<Msg> {
    fn spawn(&mut self, machine: Option<u32>, actor: Box<dyn Actor<Msg> + Send>) -> ActorId {
        LiveRuntime::spawn(self, machine, actor)
    }
}

/// A runtime sized for `shared`'s machines, numbering actors from
/// `actor_base`; its clock thread samples mailbox depths into the same view
/// the masters publish to.
pub fn live_runtime(shared: &Shared, seed: u64, actor_base: u32) -> LiveRuntime<Msg> {
    let rt = LiveRuntime::new(RuntimeConfig {
        machines: shared.machine_configs(),
        seed,
        obs: shared.cfg.obs.clone(),
        actor_base,
        ..RuntimeConfig::default()
    });
    rt.attach_hub(shared.hub.clone());
    rt
}

/// A fully wired live Fuxi cluster.
pub struct LiveCluster {
    /// The live runtime everything runs in.
    pub rt: LiveRuntime<Msg>,
    /// Shared name service.
    pub naming: NameRegistry,
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
    /// Shared cluster metrics view — what the scrape endpoint serves.
    pub hub: fuxi_sim::obs::MetricsHub,
    jobs: JobLog,
}

impl LiveCluster {
    /// Boots [`DeployTopology::single_process`] — the layout the simulated
    /// harness boots — on the live runtime.
    pub fn new(cfg: ClusterConfig) -> Self {
        Self::from_topology(DeployTopology::single_process(cfg))
    }

    /// Boots every actor group of `deploy` — whatever node it is assigned
    /// to — inside **one** process and one runtime. The multi-process
    /// runner (`fuxi-node`) boots the same topology one node at a time.
    pub fn from_topology(deploy: DeployTopology) -> Self {
        let cfg = &deploy.cluster;
        let shared = Shared::new(cfg);
        let mut rt = live_runtime(&shared, cfg.seed, 0);

        // Flattened, every node's groups share window 0, so the lock
        // service sits at the count of actors spawned before it.
        let groups = || deploy.nodes.iter().flat_map(|n| &n.actors);
        let before_lock = groups().take_while(|g| **g != ActorGroup::LockService);
        let lock_id = ActorId(before_lock.map(ActorGroup::len).sum());
        let b = boot_groups(&mut rt, &shared, groups(), lock_id, |_, _, _| {});

        Self {
            rt,
            naming: shared.naming,
            store: shared.store,
            pangu: shared.pangu,
            topo: shared.topo,
            lock: b.lock.expect("validated: one lock service"),
            masters: b.masters,
            agents: b.agents,
            client: b.client.expect("validated: one client"),
            hub: shared.hub,
            jobs: shared.jobs,
        }
    }

    /// Starts the HTTP scrape endpoint on `addr` (e.g. `"127.0.0.1:9090"`)
    /// serving this cluster's view; returns the bound address.
    pub fn serve_metrics(&self, addr: &str) -> std::io::Result<std::net::SocketAddr> {
        crate::scrape::serve(self.hub.clone(), addr)
    }

    /// Submits a job description; returns its id immediately.
    pub fn submit(&mut self, desc: &JobDesc, opts: &SubmitOpts) -> JobId {
        let (job, msg) = self.jobs.submission(self.client, desc, opts);
        self.rt.send_external_traced(self.client, msg, TraceId::from_job(job.0));
        job
    }

    /// Job state as the client observed it.
    pub fn job_state(&self, job: JobId) -> Option<JobState> {
        self.jobs.state(job)
    }

    /// `Some((success, finish_time_s))` once the job reached a terminal
    /// state.
    pub fn job_done(&self, job: JobId) -> Option<(bool, f64)> {
        self.jobs.done(job)
    }

    /// Number of jobs in a terminal state.
    pub fn finished_count(&self) -> usize {
        self.jobs.finished_count()
    }

    /// All jobs and their client-observed states.
    pub fn all_jobs(&self) -> Vec<(JobId, JobState)> {
        self.jobs.all()
    }

    /// Blocks until `n` jobs are terminal or `timeout` passes; returns how
    /// many finished.
    pub fn wait_n_done(&self, n: usize, timeout: Duration) -> usize {
        self.jobs.wait_n_done(n, timeout)
    }

    /// Duplicate terminal job notifications the client saw (0 = the
    /// exactly-once completion invariant held across failovers).
    pub fn duplicate_finishes(&self) -> u64 {
        self.jobs.duplicate_finishes()
    }

    /// The actor currently holding the master role.
    pub fn current_master(&self) -> Option<ActorId> {
        self.naming.master()
    }

    /// Kills the current primary FuxiMaster (the paper's
    /// FuxiMasterFailure fault) — live, mid-run.
    pub fn kill_primary_master(&self) {
        if let Some(fm) = self.naming.master() {
            self.rt.kill_actor(fm);
        }
    }

    /// Takes a machine down (NodeDown fault).
    pub fn kill_machine(&self, m: MachineId) {
        self.rt.kill_machine(m.0);
    }

    /// Stops the cluster and returns the merged metrics and tracer.
    pub fn shutdown(self) -> (Metrics, Tracer) {
        self.rt.shutdown()
    }
}
