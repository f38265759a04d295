//! Name service: well-known service names → current actor addresses.
//!
//! After a FuxiMaster failover the new primary registers itself under
//! `"fuxi-master"`; agents and application masters re-resolve on their next
//! heartbeat. Lookups are modelled as instantaneous shared state — in real
//! Apsara clients cache name resolutions, and the failover-visible latency
//! comes from lock leases and heartbeat intervals, which *are* simulated.
//!
//! At cold start nothing is registered yet. Whoever needs the master then
//! looks again promptly ([`MasterWatch`]) instead of on its next period.

use fuxi_sim::{ActorId, Ctx, KernelMsg, SimDuration};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// Well-known name of the FuxiMaster service.
pub const FUXI_MASTER: &str = "fuxi-master";

/// Observer invoked on every *local* mutation of the name table:
/// `(name, Some(id))` for a registration, `(name, None)` for a removal.
/// The node supervisor installs one to replicate updates to peers.
pub type NameWatcher = Box<dyn Fn(&str, Option<ActorId>) + Send>;

/// A cloneable handle to the shared name table. `Arc<Mutex>`-backed so the
/// same handle serves both the single-threaded kernel and the live
/// multi-threaded runtime. In a multi-process deployment each process has
/// its own replica; a [`NameWatcher`] broadcasts local mutations (under
/// the table's lock, so peers see them in the order they were made),
/// [`NameRegistry::apply_remote`] applies peer updates without re-firing
/// the watcher (no echo loops), and [`NameRegistry::resync`] re-seeds a
/// replica that was away.
#[derive(Clone, Default)]
pub struct NameRegistry {
    inner: Arc<Mutex<Inner>>,
}

#[derive(Default)]
struct Inner {
    names: BTreeMap<String, ActorId>,
    watcher: Option<NameWatcher>,
}

impl Inner {
    fn apply(&mut self, name: &str, id: Option<ActorId>) {
        match id {
            Some(id) => self.names.insert(name.to_owned(), id),
            None => self.names.remove(name),
        };
    }

    /// A local mutation: applied, then shown to the watcher.
    fn mutate(&mut self, name: &str, id: Option<ActorId>) {
        self.apply(name, id);
        if let Some(w) = self.watcher.as_ref() {
            w(name, id);
        }
    }
}

impl std::fmt::Debug for NameRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NameRegistry")
            .field("names", &self.lock().names)
            .finish_non_exhaustive()
    }
}

impl NameRegistry {
    /// Creates a new instance with the given configuration.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().expect("a thread panicked while holding the name table")
    }

    /// Registers (or replaces) the address for `name`.
    pub fn register(&self, name: &str, id: ActorId) {
        self.lock().mutate(name, Some(id));
    }

    /// Removes a registration if `id` still owns it.
    pub fn deregister(&self, name: &str, id: ActorId) {
        let mut inner = self.lock();
        if inner.names.get(name) == Some(&id) {
            inner.mutate(name, None);
        }
    }

    /// Installs the replication watcher fired on local mutations.
    pub fn set_watcher(&self, watcher: NameWatcher) {
        self.lock().watcher = Some(watcher);
    }

    /// Applies an update received from a peer process: same effect as
    /// `register`/`deregister` but never fires the watcher, so replicated
    /// updates don't echo back onto the wire.
    pub fn apply_remote(&self, name: &str, id: Option<ActorId>) {
        self.lock().apply(name, id);
    }

    /// Full snapshot of the table (seeds a peer's replica at handshake).
    pub fn dump(&self) -> Vec<(String, ActorId)> {
        self.lock().names.iter().map(|(k, v)| (k.clone(), *v)).collect()
    }

    /// Makes this replica equal to a peer's snapshot — a name the snapshot
    /// lacks was removed while this process was away — plus `unsent()`,
    /// this process's own updates the peer has not seen yet. `unsent` runs
    /// under the table's lock, where the watcher also runs, so no local
    /// mutation can fall between the snapshot and the overlay. Fires no
    /// watcher.
    pub fn resync(
        &self,
        snapshot: Vec<(String, ActorId)>,
        unsent: impl FnOnce() -> Vec<(String, Option<ActorId>)>,
    ) {
        let mut inner = self.lock();
        inner.names = snapshot.into_iter().collect();
        for (name, id) in unsent() {
            inner.apply(&name, id);
        }
    }

    /// Resolves a name.
    pub fn lookup(&self, name: &str) -> Option<ActorId> {
        self.lock().names.get(name).copied()
    }

    /// Resolves the FuxiMaster address.
    pub fn master(&self) -> Option<ActorId> {
        self.lookup(FUXI_MASTER)
    }
}

/// Prompt re-resolution of [`FUXI_MASTER`] for an actor that found nobody
/// registered under it: looks again after 10 ms, then at doubling intervals
/// up to the actor's own period (`cap` — its heartbeat or retry timer,
/// which stays the fallback), and stops once a master is there. Nothing is
/// scheduled while a master is known.
#[derive(Debug, Default)]
pub struct MasterWatch {
    /// Delay of the look now scheduled; `None` when none is.
    scheduled: Option<SimDuration>,
}

impl MasterWatch {
    const FIRST_LOOK: SimDuration = SimDuration(10_000);

    /// Resolves the master; when there is none, makes sure timer `tag` is
    /// scheduled on `ctx` for another look ([`MasterWatch::look_again`]).
    pub fn master_or_watch<M: KernelMsg>(
        &mut self,
        naming: &NameRegistry,
        ctx: &mut Ctx<'_, M>,
        tag: u64,
    ) -> Option<ActorId> {
        let master = naming.master();
        if master.is_none() && self.scheduled.is_none() {
            self.scheduled = Some(Self::FIRST_LOOK);
            ctx.timer(Self::FIRST_LOOK, tag);
        }
        master
    }

    /// Timer `tag` fired: resolves again, and re-arms `tag` at twice the
    /// last delay (at most `cap`) while there is still no master.
    pub fn look_again<M: KernelMsg>(
        &mut self,
        naming: &NameRegistry,
        ctx: &mut Ctx<'_, M>,
        tag: u64,
        cap: SimDuration,
    ) -> Option<ActorId> {
        let master = naming.master();
        self.scheduled = match master {
            Some(_) => None,
            None => {
                let last = self.scheduled.unwrap_or(Self::FIRST_LOOK);
                let next = SimDuration((last.0 * 2).min(cap.0));
                ctx.timer(next, tag);
                Some(next)
            }
        };
        master
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_lookup_replace() {
        let reg = NameRegistry::new();
        assert_eq!(reg.master(), None);
        reg.register(FUXI_MASTER, ActorId(1));
        assert_eq!(reg.master(), Some(ActorId(1)));
        reg.register(FUXI_MASTER, ActorId(2));
        assert_eq!(reg.master(), Some(ActorId(2)));
    }

    #[test]
    fn deregister_only_by_owner() {
        let reg = NameRegistry::new();
        reg.register("svc", ActorId(1));
        reg.deregister("svc", ActorId(9));
        assert_eq!(reg.lookup("svc"), Some(ActorId(1)));
        reg.deregister("svc", ActorId(1));
        assert_eq!(reg.lookup("svc"), None);
    }

    #[test]
    fn resync_replaces_the_replica_and_keeps_unsent_local_updates() {
        let reg = NameRegistry::new();
        reg.register("gone-at-peer", ActorId(1));
        reg.register("unsent", ActorId(2));
        reg.set_watcher(Box::new(|_, _| panic!("a resync is not a local mutation")));
        reg.resync(
            vec![("new-at-peer".into(), ActorId(3)), ("unsent-removal".into(), ActorId(4))],
            || vec![("unsent".into(), Some(ActorId(2))), ("unsent-removal".into(), None)],
        );
        let want = vec![("new-at-peer".to_owned(), ActorId(3)), ("unsent".to_owned(), ActorId(2))];
        assert_eq!(reg.dump(), want);
    }

    #[test]
    fn handles_share_state() {
        let a = NameRegistry::new();
        let b = a.clone();
        a.register("x", ActorId(7));
        assert_eq!(b.lookup("x"), Some(ActorId(7)));
    }
}
