//! `fuxi-node` — run one node of a multi-process Fuxi cluster.
//!
//! The standard 4-node layout (see `fuxi_node::standard_topology`):
//!
//! ```text
//! fuxi-node --index 0 --listen 127.0.0.1:7700 --machines 20   # hub: lock + client
//! fuxi-node --index 1 --hub 127.0.0.1:7700    --machines 20   # master A
//! fuxi-node --index 2 --hub 127.0.0.1:7700    --machines 20   # master B (standby)
//! fuxi-node --index 3 --hub 127.0.0.1:7700    --machines 20   # agent fleet
//! ```
//!
//! Every process must be started with the same `--machines`/`--seed` so
//! they compute identical topologies (actor addressing is derived from
//! the topology, not negotiated).

use fuxi_node::{standard_topology, LiveNode};
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: fuxi-node --index N [--listen ADDR | --hub ADDR] \
         [--machines N] [--seed N] [--metrics ADDR]"
    );
    std::process::exit(2);
}

fn main() {
    let mut index: Option<usize> = None;
    let mut listen: Option<String> = None;
    let mut hub: Option<String> = None;
    let mut machines = 20usize;
    let mut seed = 1u64;
    let mut metrics: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = || args.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--index" => index = val().parse().ok(),
            "--listen" => listen = Some(val()),
            "--hub" => hub = Some(val()),
            "--machines" => machines = val().parse().unwrap_or_else(|_| usage()),
            "--seed" => seed = val().parse().unwrap_or_else(|_| usage()),
            "--metrics" => metrics = Some(val()),
            _ => usage(),
        }
    }
    let Some(index) = index else { usage() };

    let hub_spec = listen.clone().unwrap_or_else(|| "127.0.0.1:7700".to_owned());
    let deploy = standard_topology(machines, seed, &hub_spec);
    if index >= deploy.nodes.len() {
        eprintln!(
            "fuxi-node: index {index} out of range (topology has {} nodes)",
            deploy.nodes.len()
        );
        std::process::exit(2);
    }

    let addr_override = if index == deploy.hub_index() {
        listen.as_deref()
    } else {
        Some(hub.as_deref().unwrap_or_else(|| usage()))
    };
    let node = match LiveNode::boot(deploy, index, addr_override) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("fuxi-node: boot failed: {e}");
            std::process::exit(1);
        }
    };
    let name = &node.deploy.nodes[index].name;
    if let Some(addr) = node.hub_addr() {
        println!("fuxi-node[{index} {name}]: listening on {addr}");
    } else {
        println!("fuxi-node[{index} {name}]: dialing hub");
    }
    if let Some(maddr) = metrics {
        match node.serve_metrics(&maddr) {
            Ok(bound) => println!("fuxi-node[{index} {name}]: metrics on http://{bound}/metrics"),
            Err(e) => eprintln!("fuxi-node[{index} {name}]: metrics bind failed: {e}"),
        }
    }

    // The node runs until killed; all work happens on actor/supervisor
    // threads. Print a liveness line occasionally so operators see state.
    loop {
        std::thread::sleep(Duration::from_secs(30));
        let master = node
            .current_master()
            .map(|m| m.to_string())
            .unwrap_or_else(|| "-".to_owned());
        println!("fuxi-node[{index} {name}]: up; master={master}");
    }
}
