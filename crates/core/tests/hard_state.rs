//! Hard state as a real `FuxiMaster` writes it: the actor runs on the sim
//! kernel next to a lock service, the test reads the store it was given.

use fuxi_apsara::{LockService, NameRegistry, StoreHandle};
use fuxi_core::{FuxiMaster, HardState, MasterConfig};
use fuxi_obs::MetricsHub;
use fuxi_proto::topology::{MachineSpec, TopologyBuilder};
use fuxi_proto::{AppId, MachineId, Msg};
use fuxi_sim::{ActorId, SimDuration, World, WorldConfig};

/// An elected primary over 20 agent-less machines, and its store.
fn primary() -> (World<Msg>, ActorId, StoreHandle) {
    let mut world: World<Msg> = World::new(WorldConfig::uniform(20, 5, 1));
    let topo = TopologyBuilder::new().uniform(4, 5, MachineSpec::default()).build();
    let (cfg, store) = (MasterConfig::default(), StoreHandle::new());
    let lock = world.spawn(None, Box::new(LockService::with_defaults()));
    let hub = MetricsHub::new(cfg.metrics.window_s);
    let fm = FuxiMaster::new(cfg, topo, NameRegistry::new(), store.clone(), lock, hub);
    let fm = world.spawn(None, Box::new(fm));
    world.run_for(SimDuration::from_secs(1));
    assert_eq!(world.metrics().counter("fm.became_primary"), 1);
    (world, fm, store)
}

/// The blacklist is hard state, so its record follows the transition — a
/// failover before the next job event must not restore the old list.
#[test]
fn blacklist_record_is_written_when_a_transition_is_applied() {
    let (mut world, fm, store) = primary();
    for app in [1, 2] {
        let report = Msg::BadMachineReport { app: AppId(app), machine: MachineId(7) };
        world.send_external(fm, report);
    }
    world.run_for(SimDuration::from_secs(1));
    assert_eq!(world.metrics().counter("fm.machines_excluded"), 1);
    assert_eq!(HardState::load(&store).blacklist, vec![(7, 2)], "recorded before any job event");
}
