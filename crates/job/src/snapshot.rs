//! JobMaster snapshots (paper §4.3.1(3)).
//!
//! "For failover, JobMaster exports a snapshot of all instances' status.
//! The snapshot exporting is performed by the event of any instance status
//! change, thus it brings in very little overhead ... This kind of job
//! snapshot is also light-weighted since only the status like 'Running' is
//! recorded."
//!
//! Status changes mark the snapshot dirty; a short coalescing timer writes
//! it, bounding overhead for tasks with tens of thousands of instances
//! while preserving the event-driven semantics.
//!
//! A snapshot holds only what a restarted JobMaster cannot work out again
//! from the job description and the DFS: which instances are done and
//! where their output lives, the attempt numbers handed out, and the
//! workers to ask. Everything else is rebuilt by the one task builder a
//! fresh JobMaster uses, and [`TaskMaster::restore`] overlays these rows
//! on the result. Rows are in the protocol's own id types (transparent on
//! the wire) and stay tuples, so a row costs its numbers and nothing else.
//!
//! [`TaskMaster::restore`]: crate::task_master::TaskMaster::restore

use crate::task_master::InstState;
use fuxi_apsara::StoreHandle;
use fuxi_proto::{JobId, MachineId, TaskId, WorkerId};
use fuxi_sim::ActorId;
use serde::{Deserialize, Serialize};

/// One started task's snapshotted state.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct TaskSnapshot {
    /// Task id.
    pub task: TaskId,
    /// Every instance is done and the task's containers were released.
    pub finished: bool,
    /// One status byte per instance.
    pub instance_status: Vec<InstState>,
    /// `(instance, machine, runtime_s)` for done instances — where the
    /// output lives (downstream shuffle inputs are rebuilt from it) and
    /// how long the winning attempt ran.
    pub outputs: Vec<(u32, MachineId, f64)>,
    /// `(instance, attempt, worker)` for running attempts.
    pub running: Vec<(u32, u32, WorkerId)>,
}

/// The whole job snapshot.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct JobSnapshot {
    /// Job id.
    pub job: JobId,
    /// The tasks started so far.
    pub tasks: Vec<TaskSnapshot>,
    /// `(worker, task, machine, actor)` — live containers and how to reach
    /// them for status collection after a restart (no actor: the worker's
    /// address was not yet known).
    pub workers: Vec<(WorkerId, TaskId, MachineId, Option<ActorId>)>,
    /// Worker-id allocator state, so restarts never reuse an id.
    pub next_worker: u64,
}

impl JobSnapshot {
    fn key(job: JobId) -> String {
        format!("jobsnap/{}", job.0)
    }

    /// Save.
    pub fn save(&self, store: &StoreHandle) {
        store.put_json(&Self::key(self.job), self);
    }

    /// Load.
    pub fn load(store: &StoreHandle, job: JobId) -> Option<JobSnapshot> {
        store.get_json(&Self::key(job))
    }

    /// Delete.
    pub fn delete(store: &StoreHandle, job: JobId) {
        store.delete(&Self::key(job));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> JobSnapshot {
        JobSnapshot {
            job: JobId(7),
            tasks: vec![TaskSnapshot {
                task: TaskId(0),
                finished: false,
                instance_status: vec![InstState::Done, InstState::Running, InstState::Pending],
                outputs: vec![(0, MachineId(12), 30.5)],
                running: vec![(1, 0, WorkerId(42))],
            }],
            workers: vec![
                (WorkerId(42), TaskId(0), MachineId(12), Some(ActorId(901))),
                (WorkerId(43), TaskId(0), MachineId(3), None),
            ],
            next_worker: 44,
        }
    }

    #[test]
    fn save_load_delete_roundtrip() {
        let store = StoreHandle::new();
        let snap = sample();
        snap.save(&store);
        assert_eq!(JobSnapshot::load(&store, JobId(7)), Some(snap));
        assert_eq!(JobSnapshot::load(&store, JobId(8)), None);
        JobSnapshot::delete(&store, JobId(7));
        assert_eq!(JobSnapshot::load(&store, JobId(7)), None);
    }

    #[test]
    fn snapshot_is_lightweight() {
        // 10k instances must serialize to ~1 status byte each plus running
        // rows, not full instance descriptions.
        let store = StoreHandle::new();
        let snap = JobSnapshot {
            job: JobId(1),
            tasks: vec![TaskSnapshot {
                task: TaskId(0),
                finished: false,
                instance_status: vec![InstState::Done; 10_000],
                outputs: Vec::new(), // trimmed for the size check
                running: vec![],
            }],
            workers: vec![],
            next_worker: 0,
        };
        snap.save(&store);
        assert!(
            store.bytes_written() < 60_000,
            "10k instances ≈ {}B — must stay tens of KB",
            store.bytes_written()
        );
    }
}
