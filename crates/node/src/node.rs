//! `LiveNode`: one deployment node — one OS process — of a topology.
//!
//! Boots a [`fuxi_rt::LiveRuntime`] whose actor ids live in this node's
//! window, runs `fuxi_cluster::boot::boot_groups` over exactly the actor
//! groups the [`DeployTopology`] assigns here, and wires the node
//! supervisor (hub or leaf) so every other id in the topology stays
//! routable. `fuxi_rt::LiveCluster::from_topology` boots the same
//! topology, all nodes at once, in a single process.

use crate::supervisor::{HubSupervisor, LeafConfig, LeafSupervisor};
use fuxi_apsara::{NameRegistry, StoreHandle};
use fuxi_cluster::boot::{boot_groups, JobLog, Shared};
use fuxi_cluster::deploy::{DeployTopology, NodeRole};
use fuxi_cluster::{JobState, SubmitOpts};
use fuxi_job::JobDesc;
use fuxi_proto::topology::Topology;
use fuxi_proto::{JobId, Msg, WireError};
use fuxi_rt::{live_runtime, LiveRuntime};
use fuxi_sim::{ActorId, TraceId};
use std::sync::Arc;
use std::time::Duration;

enum Supervisor {
    Hub(HubSupervisor),
    Leaf(LeafSupervisor),
}

/// One booted deployment node.
pub struct LiveNode {
    /// The node's runtime (actor ids windowed by node index).
    pub rt: LiveRuntime<Msg>,
    /// This process's name-service replica.
    pub naming: NameRegistry,
    /// This process's checkpoint-store replica.
    pub store: StoreHandle,
    /// Per-process metrics view (masters publish here; the scrape
    /// endpoint of *this* process serves it).
    pub hub_metrics: fuxi_sim::obs::MetricsHub,
    /// Machine topology (identical in every process).
    pub topo: Arc<Topology>,
    /// The deployment this node belongs to.
    pub deploy: DeployTopology,
    /// This node's index.
    pub node_index: usize,
    supervisor: Supervisor,
    jobs: JobLog,
    client: Option<ActorId>,
}

impl LiveNode {
    /// Boots node `node_index` of `deploy`. For a leaf, `hub_addr` is the
    /// hub's *actual* address (the topology may have been built with
    /// `":0"`); for the hub it overrides the spec's listen address when
    /// given.
    pub fn boot(
        deploy: DeployTopology,
        node_index: usize,
        hub_addr: Option<&str>,
    ) -> Result<LiveNode, WireError> {
        let cfg = &deploy.cluster;
        let spec = &deploy.nodes[node_index];
        let shared = Shared::new(cfg);
        let seed = cfg.seed ^ (node_index as u64) << 56;
        let mut rt = live_runtime(&shared, seed, deploy.actor_base(node_index));

        // The supervisor goes up before any actor: router out, injector
        // in, liveness oracle, replication watchers. An actor's very first
        // send (a master's `LockAcquire`) and write then wait in the
        // outbound queue for the link, not for the sender's next timer.
        let inject = rt.remote_injector();
        let (naming, store) = (shared.naming.clone(), shared.store.clone());
        let mut supervisor = match spec.role {
            NodeRole::Hub => {
                let listen = hub_addr
                    .map(str::to_owned)
                    .or_else(|| spec.addr.clone())
                    .unwrap_or_else(|| "127.0.0.1:0".to_owned());
                let hub = HubSupervisor::bind(&listen, &spec.name, naming, store, inject)?;
                rt.set_remote_router(hub.router());
                rt.set_remote_alive(hub.remote_alive());
                Supervisor::Hub(hub)
            }
            NodeRole::Leaf => {
                let addr = hub_addr
                    .map(str::to_owned)
                    .or_else(|| deploy.nodes[deploy.hub_index()].addr.clone())
                    .expect("leaf needs the hub address");
                let cfg = LeafConfig::new(&spec.name, node_index as u32);
                let leaf = LeafSupervisor::dial(&addr, cfg, naming, store, inject);
                rt.set_remote_router(leaf.router());
                rt.set_remote_alive(leaf.remote_alive());
                Supervisor::Leaf(leaf)
            }
        };

        // Ids must land exactly where the topology computed them, or
        // cross-process addressing would silently break.
        let lock_id = deploy.lock_id().id;
        let b = boot_groups(&mut rt, &shared, &spec.actors, lock_id, |gi, k, id| {
            assert_eq!(id, deploy.actor_id(node_index, gi, k), "actor placement");
        });
        // This node's actors exist: peers may talk to them.
        match &mut supervisor {
            Supervisor::Hub(hub) => hub.admit_peers(),
            Supervisor::Leaf(leaf) => leaf.admit(),
        }
        let Shared { naming, store, hub: hub_metrics, topo, jobs, .. } = shared;

        Ok(LiveNode {
            rt,
            naming,
            store,
            hub_metrics,
            topo,
            deploy,
            node_index,
            supervisor,
            jobs,
            client: b.client,
        })
    }

    /// The hub's bound listen address (hub nodes only).
    pub fn hub_addr(&self) -> Option<std::net::SocketAddr> {
        match &self.supervisor {
            Supervisor::Hub(h) => Some(h.addr()),
            Supervisor::Leaf(_) => None,
        }
    }

    /// Hub: blocks until leaves `1..=n` connected. Leaf: blocks until the
    /// hub link is up (`n` ignored).
    pub fn wait_connected(&self, n: u32, timeout: Duration) -> bool {
        match &self.supervisor {
            Supervisor::Hub(h) => h.wait_peers(n, timeout),
            Supervisor::Leaf(l) => l.wait_connected(timeout),
        }
    }

    /// Fault injection (leaf only): hard-close the hub link mid-flight.
    pub fn sever_link(&self) {
        if let Supervisor::Leaf(l) = &self.supervisor {
            l.sever();
        }
    }

    /// Hub frame-relay counters `(relayed, dropped, accepted)`; zeros on
    /// leaves.
    pub fn hub_stats(&self) -> (u64, u64, u64) {
        match &self.supervisor {
            Supervisor::Hub(h) => h.stats(),
            Supervisor::Leaf(_) => (0, 0, 0),
        }
    }

    /// Messages from peers that reached this leaf while it booted, held
    /// until its actors existed (0 for hubs).
    pub fn held_at_boot(&self) -> u64 {
        match &self.supervisor {
            Supervisor::Hub(_) => 0,
            Supervisor::Leaf(l) => l.released_at_admit(),
        }
    }

    /// Leaf reconnect count (0 for hubs).
    pub fn reconnects(&self) -> u64 {
        match &self.supervisor {
            Supervisor::Hub(_) => 0,
            Supervisor::Leaf(l) => l.reconnects(),
        }
    }

    /// Starts the HTTP scrape endpoint serving this process's metrics.
    pub fn serve_metrics(&self, addr: &str) -> std::io::Result<std::net::SocketAddr> {
        fuxi_rt::scrape::serve(self.hub_metrics.clone(), addr)
    }

    /// Submits a job (client-hosting nodes only); returns its id.
    pub fn submit(&mut self, desc: &JobDesc, opts: &SubmitOpts) -> JobId {
        let client = self.client.expect("this node hosts no client");
        let (job, msg) = self.jobs.submission(client, desc, opts);
        self.rt.send_external_traced(client, msg, TraceId::from_job(job.0));
        job
    }

    /// Job state as the client observed it (nothing on client-less nodes).
    pub fn job_state(&self, job: JobId) -> Option<JobState> {
        self.jobs.state(job)
    }

    /// Number of jobs in a terminal state.
    pub fn finished_count(&self) -> usize {
        self.jobs.finished_count()
    }

    /// All jobs and their client-observed states.
    pub fn all_jobs(&self) -> Vec<(JobId, JobState)> {
        self.jobs.all()
    }

    /// Blocks until `n` jobs are terminal or `timeout` passes.
    pub fn wait_n_done(&self, n: usize, timeout: Duration) -> usize {
        self.jobs.wait_n_done(n, timeout)
    }

    /// The current master according to this process's naming replica.
    pub fn current_master(&self) -> Option<ActorId> {
        self.naming.master()
    }

    /// Duplicate terminal job notifications the client saw (0 = the
    /// exactly-once completion invariant held across failovers).
    pub fn duplicate_finishes(&self) -> u64 {
        self.jobs.duplicate_finishes()
    }
}
