//! Hard/soft state separation and the FuxiMaster checkpoint (paper §4.3.1).
//!
//! "In order to reduce the overhead of state bookkeeping and accelerate
//! state restoration, we separate the states into hard states and soft
//! states. Only hard states such as job description and cluster-level
//! machine blacklist are recorded by a light-weighted checkpoint. The
//! checkpoint is conducted only when the job is submitted or stopped. The
//! soft states are collected from all FuxiAgents and application masters at
//! runtime during FuxiMaster failover."
//!
//! Hard state is **records**, not a blob: whatever the checkpoint store
//! holds under the `fuxi-master/` prefix, in the protocol's own types.
//!
//! | record    | holds                                   | written                       |
//! |-----------|-----------------------------------------|-------------------------------|
//! | job       | one live job ([`JobRecord`])            | put at submit, deleted at stop |
//! | allocator | the next app id to hand out             | put at submit, after the job   |
//! | blacklist | `(machine, reason-tag)` pairs           | rewritten per transition       |
//!
//! A checkpoint is therefore O(one job), and the node supervisors replicate
//! that one record, not the world. Only this module knows the key layout.
//!
//! A submit is two writes and a master can die between any two, so
//! [`HardState::load`] is safe for every prefix of a handler's write
//! sequence: a job record without its allocator bump still reserves its
//! app id (the larger of the stored allocator and 1 + the largest live app
//! id wins, and `load` writes that back so a later stop cannot free it),
//! and a stopped job has no record, so it is never shown.
//!
//! Everything else — grants, wants, free pools, locality-tree contents — is
//! *soft*: reconstructed from `AgentAllocationReport` and
//! `FullRequestSync` messages during rebuild (Figure 7).

use fuxi_apsara::StoreHandle;
use fuxi_proto::msg::AppDescription;
use fuxi_proto::{AppId, JobId};
use fuxi_sim::ActorId;
use serde::{Deserialize, Serialize};

const JOB_PREFIX: &str = "fuxi-master/job/";
const BLACKLIST: &str = "fuxi-master/blacklist";
const NEXT_APP: &str = "fuxi-master/next-app";

/// One live job as the checkpoint remembers it.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct JobRecord {
    /// Job id.
    pub job: JobId,
    /// Application id.
    pub app: AppId,
    /// Submitting client's actor address.
    pub client: ActorId,
    /// The job description as submitted.
    pub desc: AppDescription,
}

/// The FuxiMaster hard state, as a new primary loads it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HardState {
    /// Every live job, by job id.
    pub jobs: Vec<JobRecord>,
    /// `(machine, reason-tag)` pairs from the cluster blacklist.
    pub blacklist: Vec<(u32, u8)>,
    /// App-id allocator, so a restart never reuses an app id.
    pub next_app: u32,
}

fn job_key(job: JobId) -> String {
    format!("{JOB_PREFIX}{}", job.0)
}

impl HardState {
    /// Job submit: the job's own record, then the allocator past its app
    /// id — in that order, which is the one [`HardState::load`] is safe
    /// under.
    pub fn job_submitted(store: &StoreHandle, rec: &JobRecord) {
        store.put_json(&job_key(rec.job), rec);
        store.put_json(NEXT_APP, &(rec.app.0 + 1));
    }

    /// Job stop: the job's record goes, nothing else is touched.
    pub fn job_stopped(store: &StoreHandle, job: JobId) {
        store.delete(&job_key(job));
    }

    /// Blacklist transition: the whole (small) list, rewritten.
    pub fn blacklist_changed(store: &StoreHandle, blacklist: &[(u32, u8)]) {
        store.put_json(BLACKLIST, &blacklist);
    }

    /// Keys of the live job records (empty on a quiescent cluster).
    pub fn job_keys(store: &StoreHandle) -> Vec<String> {
        store.keys_with_prefix(JOB_PREFIX)
    }

    /// Loads what the records say; an empty store is a cold start.
    pub fn load(store: &StoreHandle) -> HardState {
        let mut jobs: Vec<JobRecord> = Self::job_keys(store)
            .iter()
            .filter_map(|key| store.get_json(key))
            .collect();
        jobs.sort_by_key(|rec| rec.job);
        let stored = store.get_json(NEXT_APP).unwrap_or(0);
        let next_app = jobs.iter().map(|rec| rec.app.0 + 1).fold(stored, u32::max);
        if next_app > stored {
            // The submit that wrote the newest job record never got to
            // its second write; finish it.
            store.put_json(NEXT_APP, &next_app);
        }
        HardState {
            jobs,
            blacklist: store.get_json(BLACKLIST).unwrap_or_default(),
            next_app,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuxi_proto::{Priority, QuotaGroupId, ResourceVec};
    use std::sync::{Arc, Mutex};

    fn record(job: u32, app: u32) -> JobRecord {
        JobRecord {
            job: JobId(job),
            app: AppId(app),
            client: ActorId(42),
            desc: AppDescription {
                app_type: "fuxi_job".into(),
                quota_group: QuotaGroupId(3),
                priority: Priority(7),
                master_resource: ResourceVec::new(1500, 4096),
                master_package_mb: 250.0,
                payload: "{\"Tasks\":{}}".to_owned(),
            },
        }
    }

    /// A submit cut short after `writes` of its store writes (taken, in
    /// order, from a real `job_submitted`): the store as a master that
    /// died there left it.
    fn submit(store: &StoreHandle, rec: &JobRecord, writes: usize) {
        let (scratch, log) = (StoreHandle::new(), Arc::new(Mutex::new(Vec::new())));
        let sink = Arc::clone(&log);
        scratch.set_watcher(Box::new(move |key, value| {
            sink.lock().unwrap().push((key.to_owned(), value.map(<[u8]>::to_vec)));
        }));
        HardState::job_submitted(&scratch, rec);
        assert_eq!(log.lock().unwrap().len(), 2, "a submit is two writes");
        for (key, value) in log.lock().unwrap().iter().take(writes) {
            store.apply_remote(key, value.clone());
        }
    }

    #[test]
    fn records_roundtrip() {
        let store = StoreHandle::new();
        // Written out of id order, and past job 9 so key order ≠ id order.
        for (job, app) in [(12, 7), (3, 8)] {
            HardState::job_submitted(&store, &record(job, app));
        }
        HardState::blacklist_changed(&store, &[(5, 2)]);
        let back = HardState::load(&store);
        let want = HardState {
            jobs: vec![record(3, 8), record(12, 7)],
            blacklist: vec![(5, 2)],
            next_app: 9,
        };
        assert_eq!(back, want);
        assert_eq!(HardState::job_keys(&store).len(), 2);
    }

    #[test]
    fn missing_checkpoint_is_cold_start() {
        let store = StoreHandle::new();
        assert_eq!(HardState::load(&store), HardState::default());
        assert_eq!(store.bytes_written(), 0, "a cold start has nothing to repair");
    }

    #[test]
    fn every_prefix_of_a_submit_and_of_a_stop_loads_safely() {
        // Two jobs are live; a third submit dies after 0, 1 or 2 writes.
        for done in 0..=2 {
            let store = StoreHandle::new();
            HardState::job_submitted(&store, &record(1, 0));
            HardState::job_submitted(&store, &record(2, 1));
            let third = record(3, 2);
            submit(&store, &third, done);
            let hard = HardState::load(&store);
            let live: Vec<u32> = hard.jobs.iter().map(|r| r.job.0).collect();
            assert_eq!(live, if done == 0 { vec![1, 2] } else { vec![1, 2, 3] });
            for rec in &hard.jobs {
                assert!(hard.next_app > rec.app.0, "{done} writes: app {} would be reused", rec.app.0);
            }
            // The stop of the newest job is one delete: before it the job
            // is live, after it the job is gone — and its app id stays
            // taken even when the allocator write was the one lost.
            HardState::job_stopped(&store, third.job);
            let after = HardState::load(&store);
            assert_eq!(after.jobs.iter().map(|r| r.job.0).collect::<Vec<_>>(), vec![1, 2]);
            assert_eq!(after.next_app, hard.next_app, "{done} writes: allocator moved back");
        }
    }

    #[test]
    fn a_job_event_writes_one_record_not_the_world() {
        // Hard state must not balloon with cluster size or with the number
        // of live jobs: one more submit and one stop touch one job's record.
        let store = StoreHandle::new();
        for i in 0..200 {
            HardState::job_submitted(&store, &record(i, i));
        }
        let before = store.bytes_written();
        HardState::job_submitted(&store, &record(200, 200));
        HardState::job_stopped(&store, JobId(17));
        let delta = store.bytes_written() - before;
        assert!(delta < 1_000, "one submit + one stop among 200 live jobs wrote {delta} B");
        assert_eq!(HardState::load(&store).jobs.len(), 200);
    }
}
