//! Event-driven fair-share disk/network flow model.
//!
//! Bulk data movement (map-phase disk reads, shuffle fetches, output writes)
//! is modelled as *flows* over per-machine resources: disk bandwidth, NIC
//! egress and NIC ingress. Each resource shares its capacity equally among
//! the flows using it; a flow's rate is the minimum share across the
//! resources it touches (a standard conservative approximation of max-min
//! fairness). Rates are recomputed only when the set of flows on an affected
//! resource changes, so cost scales with contention changes, not with time.
//!
//! This is the substitute for the paper's real hardware (12×2 TB spindles,
//! 2×1 GbE per node): throughput-shaped experiments such as GraySort
//! (Table 4) exercise real contention, stragglers and locality effects.

use crate::actor::ActorId;
use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

/// What a flow consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowKind {
    /// Sequential read from a machine's local disks.
    DiskRead {
        /// Machine whose disks are read.
        machine: u32,
    },
    /// Sequential write to a machine's local disks.
    DiskWrite {
        /// Machine whose disks are written.
        machine: u32,
    },
    /// Pure network transfer `src -> dst` (uses src egress + dst ingress).
    Transfer {
        /// Sending machine.
        src: u32,
        /// Receiving machine.
        dst: u32,
    },
    /// Remote read: disk at `src`, then the network to `dst`.
    RemoteRead {
        /// Machine whose disk holds the data.
        src: u32,
        /// Machine reading it.
        dst: u32,
    },
}

/// A request to start a flow. Completion is delivered to the starting actor
/// as `M::flow_done(tag, failed)`.
#[derive(Debug, Clone, Copy)]
pub struct FlowSpec {
    /// What the flow consumes.
    pub kind: FlowKind,
    /// Bytes to move, in megabytes.
    pub size_mb: f64,
    /// Correlation tag.
    pub tag: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ResKey {
    machine: u32,
    kind: ResVariety,
}

impl ResKey {
    /// Where the resource sits in `FlowNet::resources`.
    fn slot(self) -> usize {
        self.machine as usize * 3 + self.kind as usize
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ResVariety {
    Disk = 0,
    NetOut = 1,
    NetIn = 2,
}

#[derive(Debug)]
struct ResState {
    cap: f64,
    /// The flows sharing this resource, in no particular order (a flow uses
    /// a resource at most once).
    flows: Vec<u64>,
}

/// Hashes the integer keys of the flow tables with a multiply. SipHash's
/// defence against chosen keys buys nothing for keys the program makes
/// itself (flow ids, actor ids) and costs more than the rest of a lookup.
/// Nothing iterates these maps in an order that reaches a result.
#[derive(Debug, Default, Clone, Copy)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }
}

type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

#[derive(Debug)]
struct Flow {
    owner: ActorId,
    tag: u64,
    remaining_mb: f64,
    rate: f64,
    last_update: SimTime,
    version: u64,
    uses: [Option<ResKey>; 3],
}

/// A finished flow, to be turned into a message by the world.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowDone {
    /// Actor that started the flow.
    pub owner: ActorId,
    /// Correlation tag.
    pub tag: u64,
    /// True when the flow was aborted by a machine failure.
    pub failed: bool,
}

/// The flow network. Owned by the world; actors reach it through `Ctx`.
#[derive(Debug, Default)]
pub struct FlowNet {
    /// Every machine's disk, NIC egress and NIC ingress, by `ResKey::slot`.
    resources: Vec<ResState>,
    flows: IdMap<u64, Flow>,
    /// Min-heap of predicted completions `(finish_us, version, flow_id)`.
    /// Entries are lazily invalidated via the per-flow version counter.
    heap: BinaryHeap<Reverse<(u64, u64, u64)>>,
    /// owner → its live flows, so an owner's exit costs its own flows, not
    /// every flow in the cluster. An owner with none has no entry.
    by_owner: IdMap<ActorId, Vec<u64>>,
    /// Scratch for `reprice_resources` (kept to avoid an allocation a call).
    affected: Vec<u64>,
    /// Flow ids are handed out in start order and never reused: a tie on
    /// `(finish_us, version)` in the completion heap breaks on the id.
    next_id: u64,
}

impl FlowNet {
    /// Creates a new instance with the given configuration.
    pub fn new(disk_bw: Vec<f64>, net_bw: Vec<f64>) -> Self {
        assert_eq!(disk_bw.len(), net_bw.len());
        let resources = (disk_bw.iter().zip(&net_bw))
            .flat_map(|(&disk, &net)| [disk, net, net])
            .map(|bw| ResState { cap: bw.max(1e-9), flows: Vec::new() })
            .collect();
        Self {
            resources,
            flows: IdMap::default(),
            heap: BinaryHeap::new(),
            by_owner: IdMap::default(),
            affected: Vec::new(),
            next_id: 0,
        }
    }

    /// Active flows.
    pub fn active_flows(&self) -> usize {
        self.flows.len()
    }

    fn uses_of(kind: FlowKind) -> [Option<ResKey>; 3] {
        match kind {
            FlowKind::DiskRead { machine } | FlowKind::DiskWrite { machine } => [
                Some(ResKey {
                    machine,
                    kind: ResVariety::Disk,
                }),
                None,
                None,
            ],
            FlowKind::Transfer { src, dst } => [
                Some(ResKey {
                    machine: src,
                    kind: ResVariety::NetOut,
                }),
                Some(ResKey {
                    machine: dst,
                    kind: ResVariety::NetIn,
                }),
                None,
            ],
            FlowKind::RemoteRead { src, dst } => [
                Some(ResKey {
                    machine: src,
                    kind: ResVariety::Disk,
                }),
                Some(ResKey {
                    machine: src,
                    kind: ResVariety::NetOut,
                }),
                Some(ResKey {
                    machine: dst,
                    kind: ResVariety::NetIn,
                }),
            ],
        }
    }

    /// Starts a flow; returns immediately-completed flows (zero-size flows
    /// complete at once rather than generating degenerate heap entries).
    pub fn start(&mut self, now: SimTime, owner: ActorId, spec: FlowSpec) -> Option<FlowDone> {
        if spec.size_mb <= 0.0 {
            return Some(FlowDone {
                owner,
                tag: spec.tag,
                failed: false,
            });
        }
        let id = self.next_id;
        self.next_id += 1;
        let uses = Self::uses_of(spec.kind);
        for key in uses.iter().flatten() {
            self.resources[key.slot()].flows.push(id);
        }
        self.by_owner.entry(owner).or_default().push(id);
        self.flows.insert(
            id,
            Flow {
                owner,
                tag: spec.tag,
                remaining_mb: spec.size_mb,
                rate: 0.0,
                last_update: now,
                version: 0,
                uses,
            },
        );
        self.reprice_resources(now, uses);
        None
    }

    /// Recomputes rates for every flow touching any of `keys`, each once.
    /// The order does not matter: a reprice reads only the resources'
    /// flow counts, which it does not change.
    fn reprice_resources(&mut self, now: SimTime, keys: [Option<ResKey>; 3]) {
        let mut affected = std::mem::take(&mut self.affected);
        for key in keys.iter().flatten() {
            affected.extend_from_slice(&self.resources[key.slot()].flows);
        }
        affected.sort_unstable();
        affected.dedup();
        for &id in &affected {
            self.reprice_flow(now, id);
        }
        affected.clear();
        self.affected = affected;
    }

    fn reprice_flow(&mut self, now: SimTime, id: u64) {
        let Some(flow) = self.flows.get_mut(&id) else {
            return;
        };
        // Settle progress at the old rate.
        let elapsed = now.since(flow.last_update).as_secs_f64();
        let mut rate = f64::INFINITY;
        for key in flow.uses.iter().flatten() {
            let rs = &self.resources[key.slot()];
            rate = rate.min(rs.cap / rs.flows.len().max(1) as f64);
        }
        flow.remaining_mb = (flow.remaining_mb - flow.rate * elapsed).max(0.0);
        flow.last_update = now;
        flow.rate = rate;
        flow.version += 1;
        let finish_s = flow.remaining_mb / rate.max(1e-9);
        let finish = now + crate::time::SimDuration::from_secs_f64(finish_s);
        self.heap.push(Reverse((finish.as_micros(), flow.version, id)));
        // Every reprice leaves the flow's previous entry behind. Once they
        // outnumber the live ones, drop them all: the heap's order among
        // live entries, all that is ever popped, does not change.
        if self.heap.len() > 2 * self.flows.len() + 64 {
            let flows = &self.flows;
            self.heap.retain(|&Reverse((_, version, id))| flows.get(&id).is_some_and(|f| f.version == version));
        }
    }

    /// Earliest valid predicted completion.
    pub fn next_completion(&mut self) -> Option<SimTime> {
        while let Some(&Reverse((t, version, id))) = self.heap.peek() {
            match self.flows.get(&id) {
                Some(f) if f.version == version => return Some(SimTime(t)),
                _ => {
                    self.heap.pop();
                }
            }
        }
        None
    }

    /// Completes every flow whose predicted finish is ≤ `now`.
    pub fn advance(&mut self, now: SimTime) -> Vec<FlowDone> {
        let mut done = Vec::new();
        while let Some(&Reverse((t, version, id))) = self.heap.peek() {
            if SimTime(t) > now {
                break;
            }
            self.heap.pop();
            let valid = matches!(self.flows.get(&id), Some(f) if f.version == version);
            if !valid {
                continue;
            }
            let flow = self.remove_flow(now, id);
            done.push(FlowDone {
                owner: flow.owner,
                tag: flow.tag,
                failed: false,
            });
        }
        done
    }

    fn remove_flow(&mut self, now: SimTime, id: u64) -> Flow {
        let flow = self.flows.remove(&id).expect("flow exists");
        if let Some(owned) = self.by_owner.get_mut(&flow.owner) {
            if let Some(at) = owned.iter().position(|&f| f == id) {
                owned.swap_remove(at);
            }
            if owned.is_empty() {
                self.by_owner.remove(&flow.owner);
            }
        }
        for key in flow.uses.iter().flatten() {
            let sharing = &mut self.resources[key.slot()].flows;
            if let Some(at) = sharing.iter().position(|&f| f == id) {
                sharing.swap_remove(at);
            }
        }
        self.reprice_resources(now, flow.uses);
        flow
    }

    /// Fails every flow touching machine `m` (machine death), in the order
    /// the flows were started: the notifications become messages, and a run
    /// must not depend on the map's hash order.
    pub fn fail_machine(&mut self, now: SimTime, m: u32) -> Vec<FlowDone> {
        let here = m as usize * 3..m as usize * 3 + 3;
        let mut victims: Vec<u64> = (self.resources[here].iter()).flat_map(|rs| rs.flows.iter().copied()).collect();
        victims.sort_unstable();
        victims.dedup();
        let mut done = Vec::with_capacity(victims.len());
        for id in victims {
            let flow = self.remove_flow(now, id);
            done.push(FlowDone {
                owner: flow.owner,
                tag: flow.tag,
                failed: true,
            });
        }
        done
    }

    /// Cancels every flow owned by `owner` without notification (the owner
    /// died or no longer cares). The survivors end up repriced the same
    /// whatever order the victims leave in.
    pub fn cancel_owned_by(&mut self, now: SimTime, owner: ActorId) {
        let Some(victims) = self.by_owner.remove(&owner) else {
            return;
        };
        for id in victims {
            self.remove_flow(now, id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    fn net2() -> FlowNet {
        // two machines, 100 MB/s disk, 50 MB/s NIC
        FlowNet::new(vec![100.0, 100.0], vec![50.0, 50.0])
    }

    fn spec(kind: FlowKind, size_mb: f64, tag: u64) -> FlowSpec {
        FlowSpec { kind, size_mb, tag }
    }

    #[test]
    fn single_disk_read_takes_size_over_cap() {
        let mut n = net2();
        let t0 = SimTime::ZERO;
        assert!(n
            .start(t0, ActorId(1), spec(FlowKind::DiskRead { machine: 0 }, 200.0, 7))
            .is_none());
        let finish = n.next_completion().unwrap();
        assert!((finish.as_secs_f64() - 2.0).abs() < 1e-6, "finish={finish}");
        let done = n.advance(finish);
        assert_eq!(done, vec![FlowDone { owner: ActorId(1), tag: 7, failed: false }]);
        assert_eq!(n.active_flows(), 0);
    }

    #[test]
    fn two_flows_share_the_disk() {
        let mut n = net2();
        let t0 = SimTime::ZERO;
        n.start(t0, ActorId(1), spec(FlowKind::DiskRead { machine: 0 }, 100.0, 1));
        n.start(t0, ActorId(2), spec(FlowKind::DiskRead { machine: 0 }, 100.0, 2));
        // Each gets 50 MB/s -> both finish at t=2s.
        let finish = n.next_completion().unwrap();
        assert!((finish.as_secs_f64() - 2.0).abs() < 1e-6);
        let done = n.advance(finish);
        assert_eq!(done.len(), 2);
    }

    #[test]
    fn departure_speeds_up_survivor() {
        let mut n = net2();
        let t0 = SimTime::ZERO;
        n.start(t0, ActorId(1), spec(FlowKind::DiskRead { machine: 0 }, 50.0, 1));
        n.start(t0, ActorId(2), spec(FlowKind::DiskRead { machine: 0 }, 200.0, 2));
        // Flow 1 finishes at t=1s (50 MB at 50 MB/s). Flow 2 then has
        // 150 MB left at 100 MB/s -> finishes at t=2.5s.
        let f1 = n.next_completion().unwrap();
        assert!((f1.as_secs_f64() - 1.0).abs() < 1e-6);
        n.advance(f1);
        let f2 = n.next_completion().unwrap();
        assert!((f2.as_secs_f64() - 2.5).abs() < 1e-6, "f2 = {f2}");
    }

    #[test]
    fn transfer_is_bottlenecked_by_nic() {
        let mut n = net2();
        n.start(
            SimTime::ZERO,
            ActorId(1),
            spec(FlowKind::Transfer { src: 0, dst: 1 }, 100.0, 1),
        );
        // 50 MB/s NIC -> 2s.
        assert!((n.next_completion().unwrap().as_secs_f64() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn remote_read_uses_disk_and_both_nics() {
        let mut n = net2();
        let t0 = SimTime::ZERO;
        // A competing local read halves the disk share (50), but NIC share
        // (50) equals it; add a second transfer out of m0 to squeeze egress.
        n.start(t0, ActorId(9), spec(FlowKind::DiskRead { machine: 0 }, 1e9, 0));
        n.start(t0, ActorId(8), spec(FlowKind::Transfer { src: 0, dst: 1 }, 1e9, 0));
        n.start(
            t0,
            ActorId(1),
            spec(FlowKind::RemoteRead { src: 0, dst: 1 }, 50.0, 5),
        );
        // disk share = 50, egress share = 25, ingress share = 25 -> 25 MB/s -> 2s.
        let f = n.next_completion().unwrap();
        assert!((f.as_secs_f64() - 2.0).abs() < 1e-6, "f = {f}");
    }

    #[test]
    fn machine_failure_fails_touching_flows() {
        let mut n = net2();
        let t0 = SimTime::ZERO;
        n.start(t0, ActorId(1), spec(FlowKind::Transfer { src: 0, dst: 1 }, 100.0, 1));
        n.start(t0, ActorId(2), spec(FlowKind::DiskRead { machine: 1 }, 100.0, 2));
        let done = n.fail_machine(SimTime::from_secs(1), 1);
        assert_eq!(done.len(), 2);
        assert!(done.iter().all(|d| d.failed));
        assert_eq!(n.active_flows(), 0);
    }

    #[test]
    fn machine_failure_notifies_in_start_order() {
        for _ in 0..20 {
            // Victims are gathered from the machine's resource lists, in no set order.
            let mut n = net2();
            for owner in 0..8 {
                n.start(SimTime::ZERO, ActorId(owner), spec(FlowKind::DiskRead { machine: 1 }, 100.0, 0));
            }
            let owners: Vec<u32> = n.fail_machine(SimTime::from_secs(1), 1).iter().map(|d| d.owner.0).collect();
            assert_eq!(owners, [0, 1, 2, 3, 4, 5, 6, 7]);
        }
    }

    #[test]
    fn zero_size_flow_completes_immediately() {
        let mut n = net2();
        let done = n
            .start(SimTime::ZERO, ActorId(1), spec(FlowKind::DiskRead { machine: 0 }, 0.0, 3))
            .unwrap();
        assert_eq!(done.tag, 3);
        assert!(!done.failed);
    }

    #[test]
    fn cancel_owned_by_removes_silently() {
        let mut n = net2();
        let t0 = SimTime::ZERO;
        n.start(t0, ActorId(1), spec(FlowKind::DiskRead { machine: 0 }, 100.0, 1));
        n.start(t0, ActorId(1), spec(FlowKind::DiskRead { machine: 1 }, 100.0, 3));
        n.start(t0, ActorId(2), spec(FlowKind::DiskRead { machine: 0 }, 100.0, 2));
        let rate_of_2 = |n: &FlowNet| n.flows.values().find(|f| f.owner == ActorId(2)).unwrap().rate;
        assert_eq!(rate_of_2(&n), 50.0, "owners 1 and 2 share disk 0");
        n.cancel_owned_by(t0 + SimDuration::from_secs(1), ActorId(1));
        assert_eq!(n.active_flows(), 1, "both of owner 1's flows are gone");
        assert_eq!(rate_of_2(&n), 100.0, "the survivor's rate doubles");
        // survivor got repriced at t=1 with 50MB left at full 100 MB/s.
        let f = n.next_completion().unwrap();
        assert!((f.as_secs_f64() - 1.5).abs() < 1e-6, "f = {f}");
        assert_eq!(n.advance(f), vec![FlowDone { owner: ActorId(2), tag: 2, failed: false }]);
        assert!(n.by_owner.is_empty(), "the owner index is empty with the net");
    }

    #[test]
    fn progress_is_settled_on_reprice() {
        let mut n = net2();
        let t0 = SimTime::ZERO;
        n.start(t0, ActorId(1), spec(FlowKind::DiskRead { machine: 0 }, 100.0, 1));
        // At t=0.5 add contention: 50 MB already moved, 50 left at 50 MB/s -> 1.5s.
        n.start(
            SimTime::from_secs_f64(0.5),
            ActorId(2),
            spec(FlowKind::DiskRead { machine: 0 }, 1000.0, 2),
        );
        let f = n.next_completion().unwrap();
        assert!((f.as_secs_f64() - 1.5).abs() < 1e-6, "f = {f}");
    }

    /// The owner index, read back: owner → its flow ids, sorted.
    fn indexed(n: &FlowNet) -> BTreeMap<u32, BTreeSet<u64>> {
        (n.by_owner.iter()).map(|(o, ids)| (o.0, ids.iter().copied().collect())).collect()
    }

    /// The same, by a scan of every live flow.
    fn scanned(n: &FlowNet) -> BTreeMap<u32, BTreeSet<u64>> {
        let mut out: BTreeMap<u32, BTreeSet<u64>> = BTreeMap::new();
        for (&id, f) in &n.flows {
            out.entry(f.owner.0).or_default().insert(id);
        }
        out
    }

    /// Replays `ops` on a 4-machine net: `(op, a, b, c)` starts a flow,
    /// advances time, cancels an owner or fails a machine. Every cancel
    /// must remove exactly the flows a scan finds for the owner, the index
    /// must agree with a scan after every op, and nothing is left at the end.
    fn owner_index_replay(ops: &[(u8, u32, u32, u32)]) -> proptest::TestCaseResult {
        let mut n = FlowNet::new(vec![100.0; 4], vec![50.0; 4]);
        let mut now = SimTime::ZERO;
        for &(op, a, b, c) in ops {
            let owner = ActorId(a % 5);
            let (m1, m2) = (b % 4, c % 4);
            match op {
                0..=3 => {
                    let kind = match op {
                        0 => FlowKind::DiskRead { machine: m1 },
                        1 => FlowKind::DiskWrite { machine: m1 },
                        2 => FlowKind::Transfer { src: m1, dst: m2 },
                        _ => FlowKind::RemoteRead { src: m1, dst: m2 },
                    };
                    n.start(now, owner, spec(kind, f64::from(c % 400), 0));
                }
                4 => {
                    now += SimDuration::from_millis(u64::from(c % 3_000));
                    n.advance(now);
                }
                5 => {
                    let before = scanned(&n);
                    let owned = before.get(&owner.0).cloned().unwrap_or_default();
                    n.cancel_owned_by(now, owner);
                    let mut expect = before;
                    expect.remove(&owner.0);
                    prop_assert_eq!(scanned(&n), expect);
                    prop_assert!(owned.iter().all(|id| !n.flows.contains_key(id)));
                }
                _ => {
                    n.fail_machine(now, m1);
                }
            }
            prop_assert_eq!(indexed(&n), scanned(&n));
        }
        for o in 0..5 {
            n.cancel_owned_by(now, ActorId(o));
        }
        prop_assert_eq!(n.active_flows(), 0);
        prop_assert!(n.by_owner.is_empty(), "the index leaks {:?}", n.by_owner);
        Ok(())
    }

    proptest! {
        #[test]
        fn owner_index_matches_a_full_scan(
            ops in prop::collection::vec((0u8..7, 0u32..1_000, 0u32..1_000, 0u32..10_000), 1..200),
        ) {
            owner_index_replay(&ops)?;
        }
    }
}
