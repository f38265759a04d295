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
use std::collections::{BinaryHeap, HashMap, HashSet};

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

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ResKey {
    machine: u32,
    kind: ResVariety,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ResVariety {
    Disk,
    NetOut,
    NetIn,
}

#[derive(Debug)]
struct ResState {
    cap: f64,
    flows: HashSet<u64>,
}

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
    resources: HashMap<ResKey, ResState>,
    flows: HashMap<u64, Flow>,
    /// Min-heap of predicted completions `(finish_us, version, flow_id)`.
    /// Entries are lazily invalidated via the per-flow version counter.
    heap: BinaryHeap<Reverse<(u64, u64, u64)>>,
    next_id: u64,
    disk_bw: Vec<f64>,
    net_bw: Vec<f64>,
}

impl FlowNet {
    /// Creates a new instance with the given configuration.
    pub fn new(disk_bw: Vec<f64>, net_bw: Vec<f64>) -> Self {
        assert_eq!(disk_bw.len(), net_bw.len());
        Self {
            resources: HashMap::new(),
            flows: HashMap::new(),
            heap: BinaryHeap::new(),
            next_id: 0,
            disk_bw,
            net_bw,
        }
    }

    /// Active flows.
    pub fn active_flows(&self) -> usize {
        self.flows.len()
    }

    fn res_state(&mut self, key: ResKey) -> &mut ResState {
        let disk_bw = &self.disk_bw;
        let net_bw = &self.net_bw;
        self.resources.entry(key).or_insert_with(|| {
            let bw = match key.kind {
                ResVariety::Disk => disk_bw[key.machine as usize],
                ResVariety::NetOut | ResVariety::NetIn => net_bw[key.machine as usize],
            };
            ResState {
                cap: bw.max(1e-9),
                flows: HashSet::new(),
            }
        })
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
        let mut touched = Vec::with_capacity(3);
        for key in uses.iter().flatten() {
            self.res_state(*key).flows.insert(id);
            touched.push(*key);
        }
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
        self.reprice_resources(now, &touched);
        None
    }

    /// Recomputes rates for every flow touching any of `keys`.
    fn reprice_resources(&mut self, now: SimTime, keys: &[ResKey]) {
        let mut affected: HashSet<u64> = HashSet::new();
        for key in keys {
            if let Some(rs) = self.resources.get(key) {
                affected.extend(rs.flows.iter().copied());
            }
        }
        for id in affected {
            self.reprice_flow(now, id);
        }
    }

    fn share_of(&self, key: ResKey) -> f64 {
        let rs = &self.resources[&key];
        rs.cap / rs.flows.len().max(1) as f64
    }

    fn reprice_flow(&mut self, now: SimTime, id: u64) {
        let Some(flow) = self.flows.get(&id) else {
            return;
        };
        // Settle progress at the old rate.
        let elapsed = now.since(flow.last_update).as_secs_f64();
        let mut rate = f64::INFINITY;
        for key in flow.uses.iter().flatten() {
            rate = rate.min(self.share_of(*key));
        }
        let flow = self.flows.get_mut(&id).unwrap();
        flow.remaining_mb = (flow.remaining_mb - flow.rate * elapsed).max(0.0);
        flow.last_update = now;
        flow.rate = rate;
        flow.version += 1;
        let finish_s = flow.remaining_mb / rate.max(1e-9);
        let finish = now + crate::time::SimDuration::from_secs_f64(finish_s);
        self.heap
            .push(Reverse((finish.as_micros(), flow.version, id)));
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
        let mut touched = Vec::with_capacity(3);
        for key in flow.uses.iter().flatten() {
            if let Some(rs) = self.resources.get_mut(key) {
                rs.flows.remove(&id);
                touched.push(*key);
            }
        }
        self.reprice_resources(now, &touched);
        flow
    }

    /// Fails every flow touching machine `m` (machine death), in the order
    /// the flows were started: the notifications become messages, and a run
    /// must not depend on the map's hash order.
    pub fn fail_machine(&mut self, now: SimTime, m: u32) -> Vec<FlowDone> {
        let mut victims: Vec<u64> = self
            .flows
            .iter()
            .filter(|(_, f)| {
                f.uses
                    .iter()
                    .flatten()
                    .any(|k| k.machine == m)
            })
            .map(|(&id, _)| id)
            .collect();
        victims.sort_unstable();
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
    /// died or no longer cares).
    pub fn cancel_owned_by(&mut self, now: SimTime, owner: ActorId) {
        let victims: Vec<u64> = self
            .flows
            .iter()
            .filter(|(_, f)| f.owner == owner)
            .map(|(&id, _)| id)
            .collect();
        for id in victims {
            self.remove_flow(now, id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

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
            // A fresh net each time: a fresh hash seed.
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
        n.start(t0, ActorId(2), spec(FlowKind::DiskRead { machine: 0 }, 100.0, 2));
        n.cancel_owned_by(t0 + SimDuration::from_secs(1), ActorId(1));
        assert_eq!(n.active_flows(), 1);
        // survivor got repriced at t=1 with 50MB left at full 100 MB/s.
        let f = n.next_completion().unwrap();
        assert!((f.as_secs_f64() - 1.5).abs() < 1e-6, "f = {f}");
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
}
