//! Job-level multi-level blacklist (paper Section 4.3.2, bottom-up).
//!
//! "If one instance is reported failed on a machine, the machine will be
//! added into the instance's blacklist. If a machine is marked as bad
//! machine by a certain number of instances, this machine will be added
//! into task's blacklist and no longer be used by this task." The JobMaster
//! additionally escalates task-level marks to FuxiMaster, which aggregates
//! across jobs (handled in `fuxi-core::blacklist`).

use fuxi_proto::{MachineId, TaskId};
use std::collections::{BTreeMap, BTreeSet};

/// Distinct instances that must fail on a machine before the *task*
/// blacklists it.
const INSTANCE_MARKS_TO_TASK: usize = 3;
/// Distinct tasks that must blacklist a machine before the *job* reports it
/// to FuxiMaster.
const TASK_MARKS_TO_JOB: usize = 1;

/// What a recorded failure escalated to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Escalation {
    /// Instance-level only.
    Instance,
    /// The task now blacklists the machine.
    Task,
    /// The job now considers the machine bad (report to FuxiMaster).
    Job,
}

/// The per-job blacklist state, shared by all of a job's TaskMasters.
#[derive(Debug, Default)]
pub struct JobBlacklist {
    /// (task, machine) → distinct failing instance indexes.
    instance_marks: BTreeMap<(TaskId, MachineId), BTreeSet<u32>>,
    /// task → machines it blacklisted.
    task_level: BTreeMap<TaskId, BTreeSet<MachineId>>,
    /// machines the whole job considers bad.
    job_level: BTreeSet<MachineId>,
}

impl JobBlacklist {
    /// Records that `instance` of `task` failed on `machine`; returns the
    /// highest level the mark escalated to.
    pub fn record_failure(&mut self, task: TaskId, instance: u32, machine: MachineId) -> Escalation {
        let marks = self.instance_marks.entry((task, machine)).or_default();
        marks.insert(instance);
        if marks.len() < INSTANCE_MARKS_TO_TASK {
            return Escalation::Instance;
        }
        let newly_task = self.task_level.entry(task).or_default().insert(machine);
        if !newly_task {
            return Escalation::Instance; // already task-blacklisted
        }
        let tasks_marking = self
            .task_level
            .iter()
            .filter(|(_, ms)| ms.contains(&machine))
            .count();
        if tasks_marking >= TASK_MARKS_TO_JOB && self.job_level.insert(machine) {
            Escalation::Job
        } else {
            Escalation::Task
        }
    }

    /// `true` if `task` must not schedule on `machine` ("no longer be used
    /// by this task"), considering both task and job level.
    pub fn task_avoids(&self, task: TaskId, machine: MachineId) -> bool {
        self.job_level.contains(&machine)
            || self
                .task_level
                .get(&task)
                .map(|ms| ms.contains(&machine))
                .unwrap_or(false)
    }

    /// Machines a specific instance must avoid on retry (its own failure
    /// history plus the escalated levels).
    pub fn instance_avoid_set(&self, task: TaskId, instance: u32) -> BTreeSet<MachineId> {
        let mut set: BTreeSet<MachineId> = self
            .instance_marks
            .iter()
            .filter(|(&(t, _), insts)| t == task && insts.contains(&instance))
            .map(|(&(_, m), _)| m)
            .collect();
        if let Some(task_ms) = self.task_level.get(&task) {
            set.extend(task_ms.iter().copied());
        }
        set.extend(self.job_level.iter().copied());
        set
    }

    /// Job level.
    pub fn job_level(&self) -> &BTreeSet<MachineId> {
        &self.job_level
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escalates_instance_to_task_to_job() {
        let mut b = JobBlacklist::default();
        let m = MachineId(5);
        for i in 1..INSTANCE_MARKS_TO_TASK as u32 {
            assert_eq!(b.record_failure(TaskId(0), i, m), Escalation::Instance);
        }
        assert!(!b.task_avoids(TaskId(0), m));
        // The next *distinct* instance failing trips the task level, and
        // the first task to blacklist a machine reports it for the job.
        let last = INSTANCE_MARKS_TO_TASK as u32;
        assert_eq!(b.record_failure(TaskId(0), last, m), Escalation::Job);
        assert!(b.task_avoids(TaskId(0), m));
        assert!(b.task_avoids(TaskId(2), m), "job level covers all tasks");
        assert!(b.job_level().contains(&m));
        // Another task blacklisting the same machine is task-level only:
        // the job already reported it.
        for i in 1..last {
            assert_eq!(b.record_failure(TaskId(1), i, m), Escalation::Instance);
        }
        assert_eq!(b.record_failure(TaskId(1), last, m), Escalation::Task);
    }

    #[test]
    fn repeated_failures_of_same_instance_count_once() {
        let mut b = JobBlacklist::default();
        let m = MachineId(0);
        assert_eq!(b.record_failure(TaskId(0), 1, m), Escalation::Instance);
        assert_eq!(
            b.record_failure(TaskId(0), 1, m),
            Escalation::Instance,
            "same instance retrying does not escalate"
        );
        assert!(!b.task_avoids(TaskId(0), m));
    }

    #[test]
    fn instance_avoid_set_accumulates_levels() {
        let mut b = JobBlacklist::default();
        b.record_failure(TaskId(0), 3, MachineId(1));
        let set = b.instance_avoid_set(TaskId(0), 3);
        assert!(set.contains(&MachineId(1)));
        assert!(!set.contains(&MachineId(2)));
        // Task-level entries apply to every instance of the task.
        for i in 4..4 + INSTANCE_MARKS_TO_TASK as u32 {
            b.record_failure(TaskId(0), i, MachineId(2));
        }
        let set = b.instance_avoid_set(TaskId(0), 3);
        assert!(set.contains(&MachineId(2)));
        // Other instances don't inherit instance-level marks.
        let other = b.instance_avoid_set(TaskId(0), 9);
        assert!(!other.contains(&MachineId(1)));
        assert!(other.contains(&MachineId(2)));
    }
}
