//! The TaskMaster: fine-grained instance scheduling within one task
//! (paper Section 4.4).
//!
//! "When the JobMaster intends to execute a task, an individual TaskMaster
//! object is created. The TaskMaster will conduct the fine-grained instance
//! scheduling to determine which worker to execute each instance. ...
//! a) instances will be scheduled to the worker with the most local input
//! data; b) instances are scheduled to available workers uniformly ...
//! c) the scheduling is performed incrementally by scanning only the
//! unassigned instances each time."
//!
//! A TaskMaster is a plain object owned by the JobMaster actor (exactly the
//! paper's hierarchical model, Figure 8); TaskWorkers are actors.

use crate::backup::{should_backup, RuntimeStats};
use crate::blacklist::JobBlacklist;
use crate::desc::TaskDesc;
use crate::snapshot::TaskSnapshot;
use fuxi_apsara::pangu::Chunk;
use fuxi_proto::{InstanceId, InstanceWork, MachineId, TaskId, WorkerId};
use fuxi_sim::{ActorId, SimTime};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Instance lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum InstState {
    /// Pending.
    Pending = 0,
    /// Running.
    Running = 1,
    /// Done.
    Done = 2,
}

// Manual (not derived) so the serialised form is the discriminant, not the
// variant's name: a job snapshot holds one of these per instance.
impl serde::Serialize for InstState {
    fn to_value(&self) -> serde::Value {
        serde::Value::UInt(*self as u64)
    }
}

impl serde::Deserialize for InstState {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        match u8::from_value(v)? {
            0 => Ok(InstState::Pending),
            1 => Ok(InstState::Running),
            2 => Ok(InstState::Done),
            n => Err(serde::DeError::custom(format_args!("no instance state {n}"))),
        }
    }
}

/// One live attempt of an instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Attempt {
    /// Attempt number.
    pub attempt: u32,
    /// Worker id.
    pub worker: WorkerId,
    /// Machine this applies to.
    pub machine: MachineId,
    /// When the attempt started.
    pub started: SimTime,
    /// Confirmed alive (used during JobMaster recovery).
    pub confirmed: bool,
}

/// Runtime state of one instance.
#[derive(Debug, PartialEq)]
pub struct InstanceRt {
    /// Input chunks (for DFS-fed tasks); the preferred replica is chosen
    /// per-worker at assignment time.
    pub input_chunks: Vec<Chunk>,
    /// Shuffle reads (for downstream tasks): `(source machine, MB)`.
    pub shuffle_reads: Vec<(MachineId, f64)>,
    /// Pre-sampled compute seconds for this instance.
    pub compute_s: f64,
    /// Lifecycle state.
    pub state: InstState,
    /// Live attempts (more than one during a backup race).
    pub attempts: Vec<Attempt>,
    /// Next attempt number to hand out.
    pub next_attempt: u32,
    /// Backup attempts launched so far.
    pub backups_launched: u32,
    /// Where the winning attempt ran (its output lives there).
    pub output_machine: Option<MachineId>,
    /// Runtime of the winning attempt, seconds.
    pub runtime_s: Option<f64>,
}

/// One worker container from the moment the JobMaster asks an agent for it
/// to the moment it is forgotten: the whole row the job keeps about it.
#[derive(Debug)]
pub struct TWorker {
    /// Machine this applies to.
    pub machine: MachineId,
    /// Currently executing (instance index, attempt).
    pub busy: Option<(u32, u32)>,
    /// Where the worker answers, once it has spoken (`WorkerRegister`, or
    /// `WorkerStatusReply` to a restarted JobMaster). Only a worker that
    /// has spoken is given instances.
    pub actor: Option<ActorId>,
    /// When the container was requested (start overhead, start timeout).
    pub requested_at: SimTime,
}

/// An assignment decision: send `AssignInstance(work)` to `actor`.
#[derive(Debug)]
pub struct AssignmentOut {
    /// Worker id.
    pub worker: WorkerId,
    /// Where the worker answers.
    pub actor: ActorId,
    /// Instance id.
    pub instance: InstanceId,
    /// Attempt number.
    pub attempt: u32,
    /// The work to execute.
    pub work: InstanceWork,
}

/// The per-task instance scheduler.
pub struct TaskMaster {
    /// Task id.
    pub task: TaskId,
    /// Task description.
    pub desc: TaskDesc,
    /// Per-instance runtime state.
    pub instances: Vec<InstanceRt>,
    /// Unassigned instance indexes (incremental scan: assigned instances
    /// are never rescanned).
    pending: VecDeque<u32>,
    /// machine → instance indexes preferring it (local input data).
    prefer: BTreeMap<MachineId, Vec<u32>>,
    /// Worker containers assigned to this task.
    pub workers: BTreeMap<WorkerId, TWorker>,
    /// Runtimes of finished instances.
    pub stats: RuntimeStats,
    /// Instances completed so far.
    pub finished: u64,
}

impl TaskMaster {
    /// Creates a new instance with the given configuration.
    pub fn new(task: TaskId, desc: TaskDesc, instances: Vec<InstanceRt>) -> Self {
        let mut prefer: BTreeMap<MachineId, Vec<u32>> = BTreeMap::new();
        let mut pending = VecDeque::new();
        for (i, inst) in instances.iter().enumerate() {
            if inst.state == InstState::Pending {
                pending.push_back(i as u32);
            }
            for chunk in &inst.input_chunks {
                for &m in &chunk.replicas {
                    prefer.entry(m).or_default().push(i as u32);
                }
            }
        }
        Self {
            task,
            desc,
            instances,
            pending,
            prefer,
            workers: BTreeMap::new(),
            stats: RuntimeStats::default(),
            finished: 0,
        }
    }

    /// Total instances.
    pub fn total_instances(&self) -> u64 {
        self.instances.len() as u64
    }

    /// Is complete.
    pub fn is_complete(&self) -> bool {
        self.finished == self.total_instances()
    }

    /// Pending count.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Running count.
    pub fn running_count(&self) -> u64 {
        self.instances
            .iter()
            .filter(|i| i.state == InstState::Running)
            .count() as u64
    }

    /// The machines this task would like workers on, with counts — the
    /// locality hints for the resource request (top `cap` machines by
    /// local-chunk count).
    pub fn locality_hints(&self, cap: usize) -> Vec<(MachineId, u64)> {
        let mut counts: Vec<(MachineId, u64)> = self
            .prefer
            .iter()
            .map(|(&m, v)| (m, v.len() as u64))
            .collect();
        counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        counts.truncate(cap);
        counts
    }

    // ------------------------------------------------------------------
    // Snapshot & restore
    // ------------------------------------------------------------------

    /// What a restarted JobMaster cannot work out again: which instances
    /// are done, where their output lives and how long they ran, and the
    /// attempts now running.
    pub fn snapshot(&self, finished: bool) -> TaskSnapshot {
        let mut snap = TaskSnapshot {
            task: self.task,
            finished,
            instance_status: self.instances.iter().map(|i| i.state).collect(),
            outputs: Vec::new(),
            running: Vec::new(),
        };
        for (idx, inst) in self.instances.iter().enumerate() {
            if let (InstState::Done, Some(m)) = (inst.state, inst.output_machine) {
                snap.outputs.push((idx as u32, m, inst.runtime_s.unwrap_or(0.0)));
            }
            for a in &inst.attempts {
                snap.running.push((idx as u32, a.attempt, a.worker));
            }
        }
        snap
    }

    /// Overlays a snapshot on a freshly built task, before anything is
    /// assigned: done instances are done again, attempt numbering resumes
    /// past every attempt the snapshot saw. Instances that were running
    /// stay pending unless a live worker confirms them during the
    /// JobMaster's recovery window.
    pub fn restore(&mut self, snap: &TaskSnapshot) {
        for (inst, &state) in self.instances.iter_mut().zip(&snap.instance_status) {
            if state == InstState::Done {
                inst.state = InstState::Done;
                self.finished += 1;
            }
        }
        for &(idx, machine, runtime_s) in &snap.outputs {
            if let Some(inst) = self.instances.get_mut(idx as usize) {
                inst.output_machine = Some(machine);
                inst.runtime_s = Some(runtime_s);
                self.stats.record(runtime_s);
            }
        }
        for &(idx, attempt, _) in &snap.running {
            if let Some(inst) = self.instances.get_mut(idx as usize) {
                inst.next_attempt = inst.next_attempt.max(attempt + 1);
            }
        }
        let instances = &self.instances;
        self.pending.retain(|&i| instances[i as usize].state == InstState::Pending);
    }

    // ------------------------------------------------------------------
    // Worker lifecycle
    // ------------------------------------------------------------------

    /// Takes a container requested at `now` onto the books. It gets no
    /// instance until it has spoken.
    pub fn add_worker(&mut self, worker: WorkerId, machine: MachineId, now: SimTime) {
        let row = TWorker { machine, busy: None, actor: None, requested_at: now };
        self.workers.insert(worker, row);
    }

    /// Removes a worker's row and returns it; an instance it was running is
    /// requeued.
    pub fn remove_worker(&mut self, worker: WorkerId) -> Option<TWorker> {
        let w = self.workers.remove(&worker)?;
        if let Some((idx, attempt)) = w.busy {
            self.abandon_attempt(idx, attempt);
        }
        Some(w)
    }

    /// Marks one attempt dead; requeues the instance when no live attempts
    /// remain and it is not done. Returns the instance index if requeued.
    pub fn abandon_attempt(&mut self, idx: u32, attempt: u32) -> Option<u32> {
        let inst = &mut self.instances[idx as usize];
        inst.attempts.retain(|a| a.attempt != attempt);
        if inst.state == InstState::Done {
            return None;
        }
        if inst.attempts.is_empty() {
            inst.state = InstState::Pending;
            self.pending.push_back(idx);
            Some(idx)
        } else {
            None
        }
    }

    /// Workers currently on `machine`.
    pub fn workers_on(&self, machine: MachineId) -> Vec<WorkerId> {
        self.workers
            .iter()
            .filter(|(_, w)| w.machine == machine)
            .map(|(&id, _)| id)
            .collect()
    }

    /// Per-machine live worker counts (for grant reconciliation).
    pub fn worker_counts(&self) -> BTreeMap<MachineId, u64> {
        let mut out = BTreeMap::new();
        for w in self.workers.values() {
            *out.entry(w.machine).or_insert(0) += 1;
        }
        out
    }

    /// Idle workers that have spoken.
    pub fn idle_workers(&self) -> Vec<WorkerId> {
        self.workers
            .iter()
            .filter(|(_, w)| w.actor.is_some() && w.busy.is_none())
            .map(|(&id, _)| id)
            .collect()
    }

    /// The invariant between `workers` and `instances`: the busy rows are
    /// exactly the live attempts the instances list.
    pub fn books_agree(&self) -> bool {
        let busy: BTreeSet<(WorkerId, u32, u32)> = (self.workers.iter())
            .filter_map(|(&w, row)| row.busy.map(|(idx, attempt)| (w, idx, attempt)))
            .collect();
        let listed: BTreeSet<(WorkerId, u32, u32)> = (self.instances.iter().enumerate())
            .flat_map(|(idx, inst)| inst.attempts.iter().map(move |a| (a.worker, idx as u32, a.attempt)))
            .collect();
        busy == listed
    }

    // ------------------------------------------------------------------
    // Instance scheduling
    // ------------------------------------------------------------------

    /// Assigns pending instances to idle workers: local-preferring, then
    /// anything unassigned. Returns the assignments to send.
    pub fn try_assign(&mut self, now: SimTime, bl: &JobBlacklist) -> Vec<AssignmentOut> {
        let mut out = Vec::new();
        let idle = self.idle_workers();
        for worker in idle {
            if self.pending.is_empty() {
                break;
            }
            let machine = self.workers[&worker].machine;
            if bl.task_avoids(self.task, machine) {
                continue; // JobMaster will retire this worker
            }
            let Some(idx) = self.pick_instance_for(machine, bl) else {
                continue;
            };
            out.push(self.assign(now, worker, idx));
        }
        out
    }

    /// Picks an unassigned instance for a worker on `machine`: prefer one
    /// with a local input replica; fall back to FIFO.
    fn pick_instance_for(&mut self, machine: MachineId, bl: &JobBlacklist) -> Option<u32> {
        // Local candidates: lazily skip entries that are no longer pending
        // (incremental scan — each entry is visited at most once here).
        if let Some(local) = self.prefer.get_mut(&machine) {
            while let Some(idx) = local.pop() {
                if self.instances[idx as usize].state == InstState::Pending {
                    // Remove from the FIFO lazily via the state check below.
                    self.instances[idx as usize].state = InstState::Running;
                    return Some(idx);
                }
            }
        }
        // Global FIFO of unassigned instances, with a light locality
        // preference: among the first few pending entries, prefer an
        // *orphan* (no replica on any machine where this task has a
        // worker) so instances with a live local home are left for it —
        // the cheap cousin of delay scheduling.
        let homes: BTreeSet<MachineId> = self.workers.values().map(|w| w.machine).collect();
        let mut skipped = Vec::new();
        let mut fallback: Option<u32> = None;
        let mut found = None;
        let mut scanned = 0;
        while let Some(idx) = self.pending.pop_front() {
            let inst = &self.instances[idx as usize];
            if inst.state != InstState::Pending {
                continue; // already taken via a prefer list
            }
            if bl.instance_avoid_set(self.task, idx).contains(&machine) {
                skipped.push(idx);
                continue;
            }
            scanned += 1;
            let has_local_home = inst
                .input_chunks
                .iter()
                .flat_map(|c| c.replicas.iter())
                .any(|r| homes.contains(r));
            if !has_local_home || scanned > 16 {
                found = Some(idx);
                break;
            }
            // It has a local home elsewhere; hold it back unless nothing
            // better turns up.
            if fallback.is_none() {
                fallback = Some(idx);
            } else {
                skipped.push(idx);
            }
        }
        if found.is_none() {
            found = fallback.take();
        } else if let Some(fb) = fallback.take() {
            skipped.push(fb);
        }
        for idx in skipped {
            self.pending.push_back(idx);
        }
        if let Some(idx) = found {
            self.instances[idx as usize].state = InstState::Running;
        }
        found
    }

    fn assign(&mut self, now: SimTime, worker: WorkerId, idx: u32) -> AssignmentOut {
        let w = self.workers.get_mut(&worker).expect("assignments go to workers on the books");
        let (machine, actor) = (w.machine, w.actor.expect("and only to one that has spoken"));
        let inst = &mut self.instances[idx as usize];
        let attempt = inst.next_attempt;
        inst.next_attempt += 1;
        inst.state = InstState::Running;
        inst.attempts.push(Attempt {
            attempt,
            worker,
            machine,
            started: now,
            confirmed: true,
        });
        let work = Self::build_work(&self.desc, inst, machine, idx);
        w.busy = Some((idx, attempt));
        AssignmentOut {
            worker,
            actor,
            instance: InstanceId::new(self.task, idx),
            attempt,
            work,
        }
    }

    /// Materialises the InstanceWork for execution on `machine`: each input
    /// chunk is read from its closest replica ("instances will be scheduled
    /// to the worker with the most local input data" — and read locally
    /// when they are).
    fn build_work(desc: &TaskDesc, inst: &InstanceRt, machine: MachineId, idx: u32) -> InstanceWork {
        let mut reads: Vec<(MachineId, f64)> = Vec::new();
        for chunk in &inst.input_chunks {
            let src = chunk
                .replicas
                .iter()
                .copied()
                .find(|&r| r == machine)
                .or_else(|| chunk.replicas.first().copied())
                .unwrap_or(machine);
            reads.push((src, chunk.size_mb));
        }
        // Stagger shuffle fetch order per instance: if every reducer pulled
        // sources in the same order, they would convoy on the same few
        // senders and waste most of the fabric (the classic randomized-
        // shuffle-fetch trick, done deterministically here).
        let mut shuffle = inst.shuffle_reads.clone();
        if !shuffle.is_empty() {
            let n = shuffle.len();
            shuffle.rotate_left(idx as usize % n);
        }
        reads.extend(shuffle);
        InstanceWork {
            compute_s: inst.compute_s,
            reads,
            write_mb: desc.output_mb_per_instance,
            use_flows: desc.data_driven,
            fetch_fanout: desc.fetch_fanout,
        }
    }

    /// Handles a successful attempt. Returns the attempts to kill (backup
    /// losers) as `(worker, instance, attempt)`.
    pub fn attempt_succeeded(
        &mut self,
        worker: WorkerId,
        idx: u32,
        attempt: u32,
        runtime_s: f64,
    ) -> Vec<(WorkerId, InstanceId, u32)> {
        if let Some(w) = self.workers.get_mut(&worker) {
            if w.busy == Some((idx, attempt)) {
                w.busy = None;
            }
        }
        let task = self.task;
        let inst = &mut self.instances[idx as usize];
        let mut losers = Vec::new();
        if inst.state == InstState::Done {
            // A backup race already decided; nothing more to do.
            inst.attempts.retain(|a| a.attempt != attempt);
            return losers;
        }
        let machine = inst
            .attempts
            .iter()
            .find(|a| a.attempt == attempt)
            .map(|a| a.machine);
        inst.state = InstState::Done;
        inst.output_machine = machine;
        inst.runtime_s = Some(runtime_s);
        for a in &inst.attempts {
            if a.attempt != attempt {
                losers.push((a.worker, InstanceId::new(task, idx), a.attempt));
            }
        }
        inst.attempts.clear();
        for &(loser_worker, _, _) in &losers {
            if let Some(w) = self.workers.get_mut(&loser_worker) {
                w.busy = None;
            }
        }
        self.finished += 1;
        self.stats.record(runtime_s);
        losers
    }

    /// Handles a failed attempt. Returns `true` if this was a real failure
    /// that should be recorded in the blacklist (machine suspect).
    pub fn attempt_failed(&mut self, worker: WorkerId, idx: u32, attempt: u32) -> bool {
        if let Some(w) = self.workers.get_mut(&worker) {
            if w.busy == Some((idx, attempt)) {
                w.busy = None;
            }
        }
        let done = self.instances[idx as usize].state == InstState::Done;
        self.abandon_attempt(idx, attempt);
        !done
    }

    // ------------------------------------------------------------------
    // Backup instances
    // ------------------------------------------------------------------

    /// Scans for long-tail instances and launches backups on idle workers
    /// (different machine than the running attempt). Returns assignments.
    pub fn backup_scan(&mut self, now: SimTime, bl: &JobBlacklist) -> Vec<AssignmentOut> {
        if !self.pending.is_empty() {
            return Vec::new();
        }
        let mut out = Vec::new();
        let idle = self.idle_workers();
        let mut idle_iter = idle.into_iter();
        for idx in 0..self.instances.len() as u32 {
            let (started, machines, backups) = {
                let inst = &self.instances[idx as usize];
                if inst.state != InstState::Running || inst.attempts.is_empty() {
                    continue;
                }
                (
                    inst.attempts[0].started,
                    inst.attempts.iter().map(|a| a.machine).collect::<BTreeSet<_>>(),
                    inst.backups_launched,
                )
            };
            if !should_backup(
                now,
                started,
                self.finished,
                self.total_instances(),
                &self.stats,
                self.desc.normal_time_s,
                backups,
            ) {
                continue;
            }
            // Need an idle worker on a *different* machine.
            let candidate = loop {
                match idle_iter.next() {
                    Some(w) => {
                        let m = self.workers[&w].machine;
                        if !machines.contains(&m) && !bl.task_avoids(self.task, m) {
                            break Some(w);
                        }
                    }
                    None => break None,
                }
            };
            let Some(worker) = candidate else { break };
            self.instances[idx as usize].backups_launched += 1;
            out.push(self.assign(now, worker, idx));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blacklist::JobBlacklist;

    fn inst(chunks_on: &[u32], compute_s: f64) -> InstanceRt {
        InstanceRt {
            input_chunks: chunks_on
                .iter()
                .map(|&m| Chunk {
                    size_mb: 64.0,
                    replicas: vec![MachineId(m)],
                })
                .collect(),
            shuffle_reads: vec![],
            compute_s,
            state: InstState::Pending,
            attempts: vec![],
            next_attempt: 0,
            backups_launched: 0,
            output_machine: None,
            runtime_s: None,
        }
    }

    fn tm(instances: Vec<InstanceRt>) -> TaskMaster {
        TaskMaster::new(TaskId(0), TaskDesc::synthetic(instances.len() as u32, 10.0), instances)
    }

    fn bl() -> JobBlacklist {
        JobBlacklist::default()
    }

    /// A worker that was requested and has registered.
    fn up(t: &mut TaskMaster, worker: u64, machine: u32) {
        t.add_worker(WorkerId(worker), MachineId(machine), SimTime::ZERO);
        t.workers.get_mut(&WorkerId(worker)).unwrap().actor = Some(ActorId(worker as u32));
    }

    #[test]
    fn assigns_local_instance_first() {
        let mut t = tm(vec![inst(&[1], 10.0), inst(&[2], 10.0), inst(&[3], 10.0)]);
        up(&mut t, 10, 2);
        let out = t.try_assign(SimTime::ZERO, &bl());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].instance.index, 1, "instance with data on m2 preferred");
        // The read resolves to the local replica.
        assert_eq!(out[0].work.reads, vec![(MachineId(2), 64.0)]);
    }

    #[test]
    fn falls_back_to_fifo_when_no_local_data() {
        let mut t = tm(vec![inst(&[7], 10.0), inst(&[8], 10.0)]);
        up(&mut t, 1, 0);
        let out = t.try_assign(SimTime::ZERO, &bl());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].instance.index, 0, "FIFO order");
        // Remote read from the chunk's replica.
        assert_eq!(out[0].work.reads, vec![(MachineId(7), 64.0)]);
    }

    #[test]
    fn container_reuse_runs_many_instances_through_one_worker() {
        let mut t = tm((0..5).map(|_| inst(&[], 1.0)).collect());
        up(&mut t, 1, 0);
        let mut done = 0;
        let mut now = SimTime::ZERO;
        for round in 0..5 {
            let out = t.try_assign(now, &bl());
            assert_eq!(out.len(), 1, "round {round}");
            let a = &out[0];
            let losers = t.attempt_succeeded(a.worker, a.instance.index, a.attempt, 1.0);
            assert!(losers.is_empty());
            done += 1;
            now += fuxi_sim::SimDuration::from_secs(1);
        }
        assert_eq!(done, 5);
        assert!(t.is_complete());
        assert_eq!(t.workers.len(), 1, "one container executed all 5 instances");
    }

    #[test]
    fn failed_attempt_requeues_and_blacklist_avoids_machine() {
        let mut t = tm(vec![inst(&[], 1.0)]);
        let mut b = JobBlacklist::default();
        up(&mut t, 1, 4);
        let out = t.try_assign(SimTime::ZERO, &b);
        assert_eq!(out.len(), 1);
        assert!(t.attempt_failed(WorkerId(1), 0, 0));
        b.record_failure(TaskId(0), 0, MachineId(4));
        assert_eq!(t.pending_count(), 1);
        // Same worker on the failing machine: instance avoids it now.
        let out = t.try_assign(SimTime::ZERO, &b);
        assert!(out.is_empty(), "instance-level blacklist holds");
        // A worker elsewhere picks it up.
        up(&mut t, 2, 5);
        let out = t.try_assign(SimTime::ZERO, &b);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].attempt, 1, "second attempt");
    }

    #[test]
    fn remove_worker_requeues_running_instance() {
        let mut t = tm(vec![inst(&[], 1.0)]);
        up(&mut t, 1, 0);
        let out = t.try_assign(SimTime::ZERO, &bl());
        assert_eq!(out.len(), 1);
        assert_eq!(t.running_count(), 1);
        let row = t.remove_worker(WorkerId(1)).expect("on the books");
        assert_eq!(row.busy, Some((0, 0)), "it was running instance 0");
        assert_eq!(t.pending_count(), 1);
        assert_eq!(t.running_count(), 0);
    }

    #[test]
    fn backup_launches_on_other_machine_and_first_wins() {
        let mut t = tm((0..10).map(|_| inst(&[], 10.0)).collect());
        for i in 0..10u64 {
            up(&mut t, i, i as u32);
        }
        let out = t.try_assign(SimTime::ZERO, &bl());
        assert_eq!(out.len(), 10);
        // 9 finish fast; instance 9 straggles.
        for a in &out {
            if a.instance.index != 9 {
                t.attempt_succeeded(a.worker, a.instance.index, a.attempt, 10.0);
            }
        }
        assert_eq!(t.finished, 9);
        // At t=50 (elapsed 50 > 2×10) a backup must fire on a different machine.
        let backups = t.backup_scan(SimTime::from_secs(50), &bl());
        assert_eq!(backups.len(), 1);
        let b = &backups[0];
        assert_eq!(b.instance.index, 9);
        let orig_machine = MachineId(9);
        let backup_machine = t.workers[&b.worker].machine;
        assert_ne!(backup_machine, orig_machine);
        // No duplicate backups on the next scan.
        assert!(t.backup_scan(SimTime::from_secs(60), &bl()).is_empty());
        // Backup finishes first: original attempt must be killed.
        let losers = t.attempt_succeeded(b.worker, 9, b.attempt, 5.0);
        assert_eq!(losers.len(), 1);
        assert_eq!(losers[0].2, 0, "original attempt is the loser");
        assert!(t.is_complete());
        // The loser reporting later is a no-op.
        let more = t.attempt_succeeded(losers[0].0, 9, losers[0].2, 99.0);
        assert!(more.is_empty());
        assert_eq!(t.finished, 10);
    }

    #[test]
    fn locality_hints_rank_by_chunk_count() {
        let t = tm(vec![inst(&[1, 2], 1.0), inst(&[2], 1.0), inst(&[2, 3], 1.0)]);
        let hints = t.locality_hints(2);
        assert_eq!(hints[0], (MachineId(2), 3));
        assert_eq!(hints.len(), 2);
    }

    #[test]
    fn worker_counts_by_machine() {
        let mut t = tm(vec![inst(&[], 1.0)]);
        t.add_worker(WorkerId(1), MachineId(3), SimTime::ZERO);
        t.add_worker(WorkerId(2), MachineId(3), SimTime::ZERO);
        t.add_worker(WorkerId(3), MachineId(4), SimTime::ZERO);
        let counts = t.worker_counts();
        assert_eq!(counts[&MachineId(3)], 2);
        assert_eq!(counts[&MachineId(4)], 1);
        assert_eq!(t.workers_on(MachineId(3)).len(), 2);
    }
}
