//! Deployment topology: which process hosts which actor group.
//!
//! One config surface for every execution mode. A [`DeployTopology`] lists
//! the [`NodeSpec`]s of a cluster — hub plus leaves — and each spec names
//! the [`ActorGroup`]s that node hosts. Every engine hands those groups to
//! the one [`crate::boot::boot_groups`]: the sim [`crate::Cluster`] and
//! `fuxi_rt::LiveCluster` boot all of them in one world/runtime; the
//! multi-process runner (`fuxi-node`) boots one OS process per node, each
//! over its own node's groups, and connects them over the versioned wire
//! protocol.
//!
//! Actor addressing is deterministic: node `i` numbers its actors from
//! `ActorId::node_base(i)` in spec order, so every process can compute the
//! address of every actor in the cluster from the topology alone — no
//! discovery round is needed before the name service comes up.

use crate::harness::ClusterConfig;
use fuxi_proto::MachineId;
use fuxi_sim::ActorId;

/// How a node participates in the star overlay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeRole {
    /// The rendezvous process: listens for peers, relays leaf↔leaf
    /// frames, and rebroadcasts name/store replication updates.
    Hub,
    /// A peer process that dials the hub (with reconnect supervision).
    Leaf,
}

/// One actor group a node can host. Groups spawn in the order they appear
/// in the [`NodeSpec`], which fixes their actor ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ActorGroup {
    /// The lease-lock service driving master election.
    LockService,
    /// One FuxiMaster (primary or hot standby — election decides which).
    Master,
    /// FuxiAgents for machines `first .. first + count` (one per machine,
    /// spawned in machine order). JobMasters and workers launched on those
    /// machines live in the same process.
    Agents {
        /// First machine id in the range.
        first: u32,
        /// Number of consecutive machines.
        count: u32,
    },
    /// The submitting client (records job outcomes).
    Client,
}

impl ActorGroup {
    /// Number of actors this group spawns.
    pub fn len(&self) -> u32 {
        match self {
            ActorGroup::Agents { count, .. } => *count,
            _ => 1,
        }
    }

    /// True when the group spawns no actors.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One OS process (or one slice of a single-process cluster).
#[derive(Debug, Clone)]
pub struct NodeSpec {
    /// Human-readable node name (appears in HELLO and logs).
    pub name: String,
    /// Hub or leaf.
    pub role: NodeRole,
    /// Hub: the listen address. Leaf: ignored (leaves dial the hub's
    /// address). `None` means the topology only runs single-process.
    pub addr: Option<String>,
    /// Actor groups hosted here, in spawn order.
    pub actors: Vec<ActorGroup>,
}

impl NodeSpec {
    /// A hub node.
    pub fn hub(name: &str) -> Self {
        Self {
            name: name.to_owned(),
            role: NodeRole::Hub,
            addr: None,
            actors: Vec::new(),
        }
    }

    /// A leaf node.
    pub fn leaf(name: &str) -> Self {
        Self {
            name: name.to_owned(),
            role: NodeRole::Leaf,
            addr: None,
            actors: Vec::new(),
        }
    }

    /// Sets the listen address (hub only).
    pub fn at(mut self, addr: &str) -> Self {
        self.addr = Some(addr.to_owned());
        self
    }

    /// Appends an actor group.
    pub fn with(mut self, group: ActorGroup) -> Self {
        self.actors.push(group);
        self
    }
}

/// Address of one spawned actor within a topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlacedActor {
    /// Which node hosts it.
    pub node: usize,
    /// Its globally routable id.
    pub id: ActorId,
}

/// A full deployment: the shared [`ClusterConfig`] plus the node layout.
#[derive(Debug, Clone)]
pub struct DeployTopology {
    /// Cluster-wide knobs (machine count, seeds, component configs).
    pub cluster: ClusterConfig,
    /// Node layout. Exactly one node must be the [`NodeRole::Hub`].
    pub nodes: Vec<NodeSpec>,
}

impl DeployTopology {
    /// Starts a builder around `cluster`.
    pub fn builder(cluster: ClusterConfig) -> DeployBuilder {
        DeployBuilder {
            topo: Self {
                cluster,
                nodes: Vec::new(),
            },
        }
    }

    /// The canonical all-in-one layout every single-process harness uses:
    /// lock service, primary master (+ optional hot standby), one agent
    /// per machine, client — in that spawn order, which fixes every actor
    /// id (and, in the sim, every RNG draw).
    pub fn single_process(cluster: ClusterConfig) -> Self {
        let n_machines = cluster.n_machines as u32;
        let standby = cluster.standby_master;
        let mut node = NodeSpec::hub("all-in-one").with(ActorGroup::LockService);
        node = node.with(ActorGroup::Master);
        if standby {
            node = node.with(ActorGroup::Master);
        }
        node = node
            .with(ActorGroup::Agents {
                first: 0,
                count: n_machines,
            })
            .with(ActorGroup::Client);
        Self::builder(cluster).node(node).build()
    }

    /// The standard 4-process layout `fuxi-node` runs: node 0 (hub/driver)
    /// hosts the lock service and client; node 1 the primary master; node
    /// 2 the hot standby; node 3 the agent fleet.
    /// Which master is "primary" is decided by lock election, not layout.
    pub fn distributed(mut cluster: ClusterConfig, hub_addr: &str) -> Self {
        cluster.standby_master = true;
        let n_machines = cluster.n_machines as u32;
        Self::builder(cluster)
            .node(
                NodeSpec::hub("driver")
                    .at(hub_addr)
                    .with(ActorGroup::LockService)
                    .with(ActorGroup::Client),
            )
            .node(NodeSpec::leaf("master-a").with(ActorGroup::Master))
            .node(NodeSpec::leaf("master-b").with(ActorGroup::Master))
            .node(NodeSpec::leaf("agents").with(ActorGroup::Agents {
                first: 0,
                count: n_machines,
            }))
            .build()
    }

    /// Index of the hub node.
    pub fn hub_index(&self) -> usize {
        self.nodes
            .iter()
            .position(|n| n.role == NodeRole::Hub)
            .expect("topology has a hub")
    }

    /// First actor id node `node` assigns. Single-process engines ignore
    /// windows (everything lands in window 0); the multi-process runner
    /// gives each node its own id window.
    pub fn actor_base(&self, node: usize) -> u32 {
        ActorId::node_base(node as u32)
    }

    /// Id of the `k`-th actor of group `group` on node `node`, under
    /// multi-process (windowed) addressing.
    pub fn actor_id(&self, node: usize, group: usize, k: u32) -> ActorId {
        let spec = &self.nodes[node];
        let offset: u32 = spec.actors[..group].iter().map(ActorGroup::len).sum();
        ActorId(self.actor_base(node) + offset + k)
    }

    /// `(node, group)` indices of every group `want` accepts, in node order.
    fn find_groups<'a>(
        &'a self,
        want: impl Fn(&ActorGroup) -> bool + 'a,
    ) -> impl Iterator<Item = (usize, usize)> + 'a {
        let nodes = self.nodes.iter().enumerate();
        nodes
            .flat_map(|(ni, node)| (0..node.actors.len()).map(move |gi| (ni, gi)))
            .filter(move |&(ni, gi)| want(&self.nodes[ni].actors[gi]))
    }

    fn placed(&self, (node, group): (usize, usize)) -> PlacedActor {
        PlacedActor {
            node,
            id: self.actor_id(node, group, 0),
        }
    }

    /// The lock service's address (windowed).
    pub fn lock_id(&self) -> PlacedActor {
        let mut at = self.find_groups(|g| matches!(g, ActorGroup::LockService));
        self.placed(at.next().expect("build() checked: one lock service"))
    }

    /// Every master's address (windowed), in node order.
    pub fn master_ids(&self) -> Vec<PlacedActor> {
        self.find_groups(|g| matches!(g, ActorGroup::Master))
            .map(|at| self.placed(at))
            .collect()
    }

    /// The client's address (windowed).
    pub fn client_id(&self) -> PlacedActor {
        let mut at = self.find_groups(|g| matches!(g, ActorGroup::Client));
        self.placed(at.next().expect("build() checked: one client"))
    }

    /// Agent addresses (windowed) keyed by machine.
    pub fn agent_ids(&self) -> Vec<(MachineId, PlacedActor)> {
        let mut out = Vec::new();
        for (ni, gi) in self.find_groups(|g| matches!(g, ActorGroup::Agents { .. })) {
            if let ActorGroup::Agents { first, count } = self.nodes[ni].actors[gi] {
                for k in 0..count {
                    out.push((
                        MachineId(first + k),
                        PlacedActor {
                            node: ni,
                            id: self.actor_id(ni, gi, k),
                        },
                    ));
                }
            }
        }
        out
    }
}

/// Builder for [`DeployTopology`].
pub struct DeployBuilder {
    topo: DeployTopology,
}

impl DeployBuilder {
    /// Appends a node.
    pub fn node(mut self, spec: NodeSpec) -> Self {
        self.topo.nodes.push(spec);
        self
    }

    /// Validates and returns the topology. Everything the boot path and the
    /// `*_id()` lookups index without checking is checked here, once, with a
    /// message naming the offending node or group: exactly one hub, lock
    /// service and client; at least one master; `Agents` ranges that stay
    /// inside `cluster.n_machines` and cover every machine exactly once.
    pub fn build(self) -> DeployTopology {
        let t = self.topo;
        let hubs = t.nodes.iter().filter(|n| n.role == NodeRole::Hub).count();
        assert_eq!(hubs, 1, "a topology needs exactly one hub node");
        assert!(
            t.nodes.len() < 256,
            "node index must fit the actor-id window bits"
        );
        let hosts = |want: &ActorGroup| -> Vec<&str> {
            let at = t.find_groups(|g| g == want);
            at.map(|(ni, _)| t.nodes[ni].name.as_str()).collect()
        };
        for (what, group) in [
            ("lock service", ActorGroup::LockService),
            ("client", ActorGroup::Client),
        ] {
            let on = hosts(&group);
            assert!(
                on.len() == 1,
                "a topology needs exactly one {what}, found {} (on nodes {on:?})",
                on.len()
            );
        }
        assert!(
            !hosts(&ActorGroup::Master).is_empty(),
            "a topology needs at least one master"
        );
        let n = t.cluster.n_machines;
        let mut owner: Vec<Option<&str>> = vec![None; n];
        for node in &t.nodes {
            for group in &node.actors {
                let ActorGroup::Agents { first, count } = *group else {
                    continue;
                };
                let (first, end) = (first as usize, first as usize + count as usize);
                assert!(
                    end <= n,
                    "node {:?}: agents {first}..{end} run past cluster.n_machines = {n}",
                    node.name
                );
                for (m, slot) in owner.iter_mut().enumerate().take(end).skip(first) {
                    if let Some(other) = slot.replace(&node.name) {
                        panic!(
                            "machine {m} has two agents: the ranges on nodes {other:?} and {:?} overlap",
                            node.name
                        );
                    }
                }
            }
        }
        if let Some(m) = owner.iter().position(Option::is_none) {
            panic!("machine {m} is covered by no agents group");
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_process_layout_matches_historical_spawn_order() {
        let cfg = ClusterConfig {
            n_machines: 3,
            standby_master: true,
            ..ClusterConfig::default()
        };
        let t = DeployTopology::single_process(cfg);
        assert_eq!(t.nodes.len(), 1);
        let groups = &t.nodes[0].actors;
        assert!(matches!(groups[0], ActorGroup::LockService));
        assert!(matches!(groups[1], ActorGroup::Master));
        assert!(matches!(groups[2], ActorGroup::Master));
        assert!(matches!(groups[3], ActorGroup::Agents { first: 0, count: 3 }));
        assert!(matches!(groups[4], ActorGroup::Client));
        // Flattened (window 0) ids are sequential: lock=0, masters 1..2,
        // agents 3..5, client 6.
        assert_eq!(t.lock_id().id, ActorId(0));
        assert_eq!(t.client_id().id, ActorId(6));
    }

    #[test]
    fn distributed_layout_windows_ids_by_node() {
        let cfg = ClusterConfig {
            n_machines: 4,
            ..ClusterConfig::default()
        };
        let t = DeployTopology::distributed(cfg, "127.0.0.1:0");
        assert_eq!(t.nodes.len(), 4);
        assert_eq!(t.hub_index(), 0);
        assert_eq!(t.lock_id().id, ActorId(0));
        assert_eq!(t.client_id().id, ActorId(1));
        let masters = t.master_ids();
        assert_eq!(masters[0].id, ActorId(ActorId::node_base(1)));
        assert_eq!(masters[1].id, ActorId(ActorId::node_base(2)));
        let agents = t.agent_ids();
        assert_eq!(agents.len(), 4);
        assert_eq!(agents[0].1.id, ActorId(ActorId::node_base(3)));
        assert_eq!(agents[3].1.id, ActorId(ActorId::node_base(3) + 3));
        assert_eq!(agents[3].1.id.node_index(), 3);
    }

    #[test]
    #[should_panic(expected = "exactly one hub")]
    fn topology_requires_a_hub() {
        DeployTopology::builder(ClusterConfig::default())
            .node(NodeSpec::leaf("a"))
            .build();
    }

    use ActorGroup::{Client, LockService, Master};

    fn agents(first: u32, count: u32) -> ActorGroup {
        ActorGroup::Agents { first, count }
    }

    /// Builds a 4-machine topology: `hub` groups on the hub "h", `leaf`
    /// groups on the leaf "l".
    fn build(hub: &[ActorGroup], leaf: &[ActorGroup]) -> DeployTopology {
        let cfg = ClusterConfig {
            n_machines: 4,
            ..ClusterConfig::default()
        };
        let fill = |node: NodeSpec, groups: &[ActorGroup]| {
            groups.iter().cloned().fold(node, NodeSpec::with)
        };
        DeployTopology::builder(cfg)
            .node(fill(NodeSpec::hub("h"), hub))
            .node(fill(NodeSpec::leaf("l"), leaf))
            .build()
    }

    #[test]
    fn well_formed_split_topology_builds() {
        let t = build(&[LockService, Client, agents(2, 2)], &[Master, agents(0, 2)]);
        assert_eq!(t.agent_ids().len(), 4);
        assert_eq!(t.master_ids().len(), 1);
    }

    #[test]
    #[should_panic(expected = "exactly one lock service, found 0")]
    fn topology_requires_a_lock_service() {
        build(&[Client], &[Master, agents(0, 4)]);
    }

    #[test]
    #[should_panic(expected = "exactly one lock service, found 2 (on nodes [\"h\", \"l\"])")]
    fn topology_rejects_two_lock_services() {
        build(&[LockService, Client], &[LockService, Master, agents(0, 4)]);
    }

    #[test]
    #[should_panic(expected = "exactly one client, found 0")]
    fn topology_requires_a_client() {
        build(&[LockService], &[Master, agents(0, 4)]);
    }

    #[test]
    #[should_panic(expected = "exactly one client, found 2 (on nodes [\"h\", \"h\"])")]
    fn topology_rejects_two_clients() {
        build(&[LockService, Client, Client], &[Master, agents(0, 4)]);
    }

    #[test]
    #[should_panic(expected = "at least one master")]
    fn topology_requires_a_master() {
        build(&[LockService, Client], &[agents(0, 4)]);
    }

    #[test]
    #[should_panic(expected = "node \"l\": agents 2..5 run past cluster.n_machines = 4")]
    fn topology_rejects_agents_past_the_last_machine() {
        build(&[LockService, Client, agents(0, 2)], &[Master, agents(2, 3)]);
    }

    #[test]
    #[should_panic(expected = "machine 1 has two agents: the ranges on nodes \"h\" and \"l\" overlap")]
    fn topology_rejects_overlapping_agent_ranges() {
        build(&[LockService, Client, agents(0, 2)], &[Master, agents(1, 3)]);
    }

    #[test]
    #[should_panic(expected = "machine 2 is covered by no agents group")]
    fn topology_rejects_an_uncovered_machine() {
        build(&[LockService, Client, agents(0, 2)], &[Master, agents(3, 1)]);
    }
}
