#![warn(missing_docs)]
//! # fuxi-apsara
//!
//! The Apsara substrate services Fuxi depends on (paper Section 2.1):
//!
//! * [`lock`] — the lease-based distributed **lock service** used for
//!   FuxiMaster hot-standby election ("these two masters are mutually
//!   excluded by using a distributed lock on the Apsara lock service").
//!   Implemented as a simulated actor so lease-expiry timing shapes failover
//!   latency exactly as in production.
//! * [`naming`] — a **name service** resolving well-known service names
//!   (e.g. `"fuxi-master"`) to current actor addresses. Modelled as shared
//!   state (clients cache name lookups in real Apsara too; the interesting
//!   failover timing lives in the lock leases and heartbeats, not here).
//! * [`pangu`] — a model of the **Pangu distributed file system**: files
//!   split into chunks, replicas placed across machines and racks. Supplies
//!   the data-locality information that drives locality-tree scheduling and
//!   the GraySort experiment.
//! * [`store`] — a reliable **checkpoint store** (Pangu-backed in
//!   production) holding FuxiMaster hard state and JobMaster snapshots.

pub mod lock;
pub mod naming;
pub mod pangu;
pub mod store;

pub use lock::LockService;
pub use naming::NameRegistry;
pub use pangu::{Chunk, PanguFile, PanguFs, PanguHandle};
pub use store::StoreHandle;
