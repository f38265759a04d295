//! Reliable checkpoint store.
//!
//! Backed by Pangu in production; modelled as always-available shared state
//! here. FuxiMaster's hard-state records ("only hard states such as job
//! description and cluster-level machine blacklist are recorded by a
//! light-weighted checkpoint" — one record per live job, see
//! `fuxi_core::state`) and JobMaster snapshots live in it and survive any
//! actor or machine failure.
//!
//! One type, [`StoreHandle`]: a cloneable handle over one locked map.
//! Values are opaque bytes; `put_json`/`get_json` are the one value
//! encoding every writer uses. `bytes_written` is kept so tests can verify
//! the *lightweight* claim — a checkpoint touches one job's record, a
//! snapshot is written only on instance status change. A multi-process
//! deployment keeps one replica per process: a [`StoreWatcher`] sees every
//! local mutation (under the store's lock, so peers see them in the order
//! they were made), `apply_remote` applies a peer's, and `resync` re-seeds
//! a replica that was away.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// Observer invoked on every *local* mutation of the store:
/// `(key, Some(bytes))` for a put, `(key, None)` for a delete. The node
/// supervisor installs one to replicate checkpoints to peers, so a
/// standby master in another process can rebuild from them on takeover.
pub type StoreWatcher = Box<dyn Fn(&str, Option<&[u8]>) + Send>;

#[derive(Default)]
struct Inner {
    data: BTreeMap<String, Vec<u8>>,
    bytes_written: u64,
    watcher: Option<StoreWatcher>,
}

impl Inner {
    fn apply(&mut self, key: &str, value: Option<Vec<u8>>) {
        match value {
            Some(v) => {
                self.bytes_written += v.len() as u64;
                self.data.insert(key.to_owned(), v);
            }
            None => {
                self.data.remove(key);
            }
        }
    }

    /// A local mutation: shown to the watcher and applied, as one step.
    fn mutate(&mut self, key: &str, value: Option<Vec<u8>>) {
        if let Some(w) = self.watcher.as_ref() {
            w(key, value.as_deref());
        }
        self.apply(key, value);
    }
}

/// Cloneable handle to the shared checkpoint store. `Arc<Mutex>`-backed
/// so one handle serves the kernel and the live runtime alike.
#[derive(Clone, Default)]
pub struct StoreHandle {
    inner: Arc<Mutex<Inner>>,
}

impl std::fmt::Debug for StoreHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.lock();
        f.debug_struct("StoreHandle")
            .field("keys", &inner.data.keys())
            .field("bytes_written", &inner.bytes_written)
            .finish_non_exhaustive()
    }
}

impl StoreHandle {
    /// Creates a new instance with the given configuration.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().expect("a thread panicked while holding the store")
    }

    /// Put.
    pub fn put(&self, key: &str, value: Vec<u8>) {
        self.lock().mutate(key, Some(value));
    }

    /// Put json.
    pub fn put_json<T: serde::Serialize>(&self, key: &str, value: &T) {
        let bytes = serde_json::to_vec(value).expect("checkpoint serialization");
        self.put(key, bytes);
    }

    /// Get.
    pub fn get(&self, key: &str) -> Option<Vec<u8>> {
        self.lock().data.get(key).cloned()
    }

    /// Get json.
    pub fn get_json<T: serde::de::DeserializeOwned>(&self, key: &str) -> Option<T> {
        self.get(key)
            .and_then(|bytes| serde_json::from_slice(&bytes).ok())
    }

    /// Delete.
    pub fn delete(&self, key: &str) {
        self.lock().mutate(key, None);
    }

    /// Keys with a given prefix (e.g. all job records).
    pub fn keys_with_prefix(&self, prefix: &str) -> Vec<String> {
        let inner = self.lock();
        inner.data.keys().filter(|k| k.starts_with(prefix)).cloned().collect()
    }

    /// Bytes written.
    pub fn bytes_written(&self) -> u64 {
        self.lock().bytes_written
    }

    /// Installs the replication watcher fired on local mutations.
    pub fn set_watcher(&self, watcher: StoreWatcher) {
        self.lock().watcher = Some(watcher);
    }

    /// Applies an update received from a peer process without firing the
    /// watcher (replicated writes must not echo back onto the wire).
    pub fn apply_remote(&self, key: &str, value: Option<Vec<u8>>) {
        self.lock().apply(key, value);
    }

    /// Full snapshot of all entries (seeds a peer's replica at handshake).
    pub fn dump(&self) -> Vec<(String, Vec<u8>)> {
        let inner = self.lock();
        inner.data.iter().map(|(k, v)| (k.clone(), v.clone())).collect()
    }

    /// Makes this replica equal to a peer's snapshot — a key the snapshot
    /// lacks was deleted while this process was away — plus `unsent()`,
    /// this process's own updates the peer has not seen yet. `unsent` runs
    /// under the store's lock, where the watcher also runs, so no local
    /// mutation can fall between the snapshot and the overlay. Fires no
    /// watcher.
    pub fn resync(
        &self,
        snapshot: Vec<(String, Vec<u8>)>,
        unsent: impl FnOnce() -> Vec<(String, Option<Vec<u8>>)>,
    ) {
        let mut inner = self.lock();
        inner.data = snapshot.into_iter().collect();
        for (key, value) in unsent() {
            inner.apply(&key, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};

    #[test]
    fn put_get_delete() {
        let s = StoreHandle::new();
        assert_eq!(s.get("a"), None);
        s.put("a", vec![1, 2]);
        assert_eq!(s.get("a"), Some(vec![1, 2]));
        s.delete("a");
        assert_eq!(s.get("a"), None);
    }

    #[test]
    fn json_roundtrip() {
        #[derive(Serialize, Deserialize, PartialEq, Debug)]
        struct Ck {
            jobs: Vec<u32>,
        }
        let s = StoreHandle::new();
        s.put_json("ck", &Ck { jobs: vec![1, 2, 3] });
        let back: Ck = s.get_json("ck").unwrap();
        assert_eq!(back, Ck { jobs: vec![1, 2, 3] });
        assert!(s.get_json::<Ck>("missing").is_none());
    }

    #[test]
    fn prefix_listing_and_counters() {
        let s = StoreHandle::new();
        s.put("job/1", vec![0]);
        s.put("job/2", vec![0; 10]);
        s.put("blacklist", vec![0]);
        assert_eq!(s.keys_with_prefix("job/"), vec!["job/1", "job/2"]);
        assert_eq!(s.bytes_written(), 12);
    }

    #[test]
    fn resync_replaces_the_replica_and_keeps_unsent_local_updates() {
        let s = StoreHandle::new();
        s.put("gone-at-peer", vec![1]);
        s.put("unsent-put", vec![2]);
        s.put("stale", vec![3]);
        s.set_watcher(Box::new(|_, _| panic!("a resync is not a local mutation")));
        s.resync(
            vec![("stale".into(), vec![30]), ("unsent-delete".into(), vec![4]), ("new-at-peer".into(), vec![5])],
            || vec![("unsent-put".into(), Some(vec![2])), ("unsent-delete".into(), None)],
        );
        let want = vec![("new-at-peer".to_owned(), vec![5]), ("stale".to_owned(), vec![30]), ("unsent-put".to_owned(), vec![2])];
        assert_eq!(s.dump(), want);
    }

    #[test]
    fn handles_share_state() {
        let a = StoreHandle::new();
        let b = a.clone();
        a.put("k", vec![9]);
        assert_eq!(b.get("k"), Some(vec![9]));
    }
}
