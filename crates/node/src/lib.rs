#![warn(missing_docs)]
//! # fuxi-node
//!
//! Real multi-process Fuxi deployment. One `fuxi-node` process hosts one
//! actor group of a [`fuxi_cluster::DeployTopology`] — master, hot
//! standby, agent fleet, or the hub (lock service + client) — and the
//! processes talk over the versioned wire protocol from
//! `fuxi_proto::wire` via `fuxi_rt`'s [`fuxi_rt::Transport`].
//!
//! * [`supervisor`] — connection supervision: hub accept/relay loops,
//!   leaf dial loop with jittered backoff and session epochs, and the
//!   name/store replication plane;
//! * [`node`] — [`node::LiveNode`]: boots one topology node inside this
//!   process and wires its runtime to the supervisor.
//!
//! The `fuxi-node` binary runs one node per OS process (see the README
//! quickstart); `tests/distributed.rs` SIGKILLs the one hosting the
//! elected master and watches the standby in another process take over.

pub mod node;
pub mod supervisor;

pub use node::LiveNode;
pub use supervisor::{backoff_delay, HubSupervisor, LeafConfig, LeafSupervisor};

use fuxi_cluster::{ClusterConfig, DeployTopology};

/// The standard 4-node topology `fuxi-node` runs (hub, master A, master B,
/// agent fleet) over `machines` machines with the default component
/// configs. Every process of a deployment must compute it from the same
/// `machines` and `seed`: actor addressing derives from the topology,
/// never from negotiation. `hub` is the hub's listen address; leaves
/// dial the address they are given instead.
pub fn standard_topology(machines: usize, seed: u64, hub: &str) -> DeployTopology {
    let cfg = ClusterConfig { n_machines: machines, seed, ..ClusterConfig::default() };
    DeployTopology::distributed(cfg, hub)
}
