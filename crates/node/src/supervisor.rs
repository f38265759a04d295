//! Connection supervision for the star overlay.
//!
//! One process is the **hub** (it hosts the lock service in the standard
//! layout, so it is the natural rendezvous); every other node is a
//! **leaf** that dials the hub. The supervisor owns all sockets and
//! threads; actor code never sees a connection, only `ActorId`s.
//!
//! Responsibilities:
//!
//! * **Routing** — a leaf sends every non-local message to the hub; the
//!   hub delivers window-0 destinations locally and relays the rest to
//!   the owning peer. Messages for unreachable peers are dropped (actor
//!   protocols already tolerate loss: heartbeats repeat, submissions
//!   retry, the request/grant channels detect gaps and full-sync).
//! * **Replication** — local name-service and checkpoint-store mutations
//!   are broadcast (`NameUpdate`/`StorePut` frames); the hub applies and
//!   rebroadcasts to every other peer, so each process converges on the
//!   same replica. Replicated applies never re-fire the watcher, so
//!   updates cannot echo.
//! * **Supervision** — a leaf reconnects with jittered exponential
//!   backoff and a bumped `session_epoch`; the HELLO-ACK carries full
//!   name/store snapshots, which *replace* the leaf's replicas — a key
//!   the hub no longer has was deleted while the leaf was away — with the
//!   leaf's own queued-but-unsent updates on top. Peer liveness
//!   (`connection up`) feeds `ctx.alive`, which is what lets the lease
//!   lock expire a SIGKILLed master's lease and pass the lock to the
//!   standby.
//!
//! A supervisor is started *before* its node's actors, so every local
//! send and write is in an outbound queue from the first actor on; the
//! hub admits peers ([`HubSupervisor::admit_peers`]), and a leaf delivers
//! inbound messages ([`LeafSupervisor::admit`]), only once the node's own
//! actors exist to answer them.

use fuxi_apsara::{NameRegistry, StoreHandle};
use fuxi_proto::wire::{self, Hello, HelloAck, NameUpdate, RoutedMsg, StoreUpdate};
use fuxi_proto::{FrameType, Msg, PROTO_VERSION};
use fuxi_rt::{Frame, TcpTransport, Transport, TransportListener};
use fuxi_sim::ActorId;
use std::collections::{BTreeMap, VecDeque};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Inbound delivery into the local runtime (`LiveRuntime::remote_injector`).
pub type Inject = Arc<dyn Fn(ActorId, ActorId, Msg) + Send + Sync>;

type OutFrame = (FrameType, Vec<u8>);

fn encode<T: serde::Serialize>(payload: &T) -> Vec<u8> {
    wire::encode_payload(PROTO_VERSION, payload).expect("wire encode")
}

/// Replicates every local mutation of the two tables: `emit` is handed
/// the encoded update frame (under the table's lock — it must only queue).
fn watch_replicas(
    naming: &NameRegistry,
    store: &StoreHandle,
    emit: impl Fn(FrameType, Vec<u8>) + Clone + Send + 'static,
) {
    let out = emit.clone();
    naming.set_watcher(Box::new(move |name, id| {
        out(FrameType::NameUpdate, encode(&NameUpdate { name: name.to_owned(), id }));
    }));
    store.set_watcher(Box::new(move |key, value| {
        let value = value.map(<[u8]>::to_vec);
        emit(FrameType::StorePut, encode(&StoreUpdate { key: key.to_owned(), value }));
    }));
}

/// Applies a peer's replication frame to the local replicas (no watcher
/// fires, so it cannot echo). `false` for anything else.
fn apply_update(naming: &NameRegistry, store: &StoreHandle, frame: &Frame) -> bool {
    let (v, payload) = (PROTO_VERSION, &frame.payload);
    match frame.frame_type {
        FrameType::NameUpdate => wire::decode_payload::<NameUpdate>(v, payload)
            .map(|u| naming.apply_remote(&u.name, u.id))
            .is_ok(),
        FrameType::StorePut => wire::decode_payload::<StoreUpdate>(v, payload)
            .map(|u| store.apply_remote(&u.key, u.value))
            .is_ok(),
        _ => false,
    }
}

/// Jittered exponential backoff: `base * 2^attempt`, capped at `max`,
/// then scaled by a pseudo-random factor in `[0.5, 1.5)`. The jitter
/// source is a tiny splitmix over (seed, attempt) — deterministic enough
/// to test, spread enough to avoid thundering-herd redials.
pub fn backoff_delay(base: Duration, max: Duration, attempt: u32, seed: u64) -> Duration {
    let exp = base.saturating_mul(1u32 << attempt.min(6));
    let capped = exp.min(max);
    let mut z = seed
        .wrapping_add(u64::from(attempt))
        .wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    let frac = ((z >> 40) as f64) / ((1u64 << 24) as f64); // [0,1)
    capped.mul_f64(0.5 + frac)
}

// ---------------------------------------------------------------------
// Hub
// ---------------------------------------------------------------------

struct PeerLink {
    epoch: u64,
    up: Arc<AtomicBool>,
    tx: mpsc::Sender<OutFrame>,
}

struct HubInner {
    node: String,
    naming: NameRegistry,
    store: StoreHandle,
    inject: Inject,
    peers: Mutex<BTreeMap<u32, PeerLink>>,
    relayed: AtomicU64,
    dropped: AtomicU64,
    accepted: AtomicU64,
}

impl HubInner {
    fn peer_up(&self, node_index: u32) -> bool {
        let peers = self.peers.lock().unwrap();
        peers.get(&node_index).is_some_and(|p| p.up.load(Ordering::Acquire))
    }

    fn send_to(&self, node_index: u32, ft: FrameType, payload: Vec<u8>) {
        let peers = self.peers.lock().unwrap();
        match peers.get(&node_index) {
            Some(p) if p.up.load(Ordering::Acquire) => {
                if p.tx.send((ft, payload)).is_err() {
                    self.dropped.fetch_add(1, Ordering::Relaxed);
                }
            }
            _ => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn broadcast_except(&self, skip: Option<u32>, ft: FrameType, payload: &[u8]) {
        let peers = self.peers.lock().unwrap();
        for (&idx, p) in peers.iter() {
            if Some(idx) == skip || !p.up.load(Ordering::Acquire) {
                continue;
            }
            let _ = p.tx.send((ft, payload.to_vec()));
        }
    }

    fn dispatch(&self, src: u32, frame: Frame) {
        match frame.frame_type {
            FrameType::Msg => {
                let Ok(to) = wire::routed_to(PROTO_VERSION, &frame.payload) else {
                    return;
                };
                if to.node_index() == 0 {
                    let routed = wire::decode_payload::<RoutedMsg>(PROTO_VERSION, &frame.payload);
                    if let Ok(RoutedMsg { from, to, msg }) = routed {
                        (self.inject)(from, to, msg);
                    }
                } else {
                    // Relay the raw payload unchanged — no decode, no
                    // re-encode.
                    self.relayed.fetch_add(1, Ordering::Relaxed);
                    self.send_to(to.node_index(), FrameType::Msg, frame.payload);
                }
            }
            // Applied here first, then passed on: what a peer is told, a
            // later snapshot of ours also holds.
            _ => {
                if apply_update(&self.naming, &self.store, &frame) {
                    self.broadcast_except(Some(src), frame.frame_type, &frame.payload);
                }
            }
        }
    }

    /// Opens peer `hello.node_index`'s outbound queue (`None` for a stale
    /// duplicate dial). From here on every relay and broadcast reaches it.
    fn enrol(&self, hello: &Hello) -> Option<(Arc<AtomicBool>, mpsc::Receiver<OutFrame>)> {
        let up = Arc::new(AtomicBool::new(true));
        let (tx, rx) = mpsc::channel::<OutFrame>();
        let mut peers = self.peers.lock().unwrap();
        if let Some(old) = peers.get(&hello.node_index) {
            if old.epoch >= hello.session_epoch {
                return None;
            }
            old.up.store(false, Ordering::Release);
        }
        let link = PeerLink { epoch: hello.session_epoch, up: Arc::clone(&up), tx };
        peers.insert(hello.node_index, link);
        Some((up, rx))
    }

    fn serve(
        self: &Arc<Self>,
        hello: Hello,
        transport: TcpTransport,
        up: Arc<AtomicBool>,
        rx: mpsc::Receiver<OutFrame>,
    ) {
        self.accepted.fetch_add(1, Ordering::Relaxed);

        // Writer: drains the peer's outbound queue onto the socket.
        let mut writer = transport.try_clone_box().expect("clone transport");
        let wup = Arc::clone(&up);
        std::thread::Builder::new()
            .name(format!("hub-tx-{}", hello.node))
            .spawn(move || {
                while let Ok(first) = rx.recv() {
                    let batch = burst(first, rx.try_iter());
                    if writer.send_batch(&batch).is_err() {
                        wup.store(false, Ordering::Release);
                        break;
                    }
                }
            })
            .expect("spawn hub writer");

        // Reader: dispatches inbound frames until the connection dies.
        let inner = Arc::clone(self);
        let src = hello.node_index;
        let mut reader = transport;
        std::thread::Builder::new()
            .name(format!("hub-rx-{}", hello.node))
            .spawn(move || {
                while let Ok(Some(frame)) = reader.recv() {
                    inner.dispatch(src, frame);
                }
                up.store(false, Ordering::Release);
            })
            .expect("spawn hub reader");
    }

    /// Accepts peers forever. A peer is enrolled *before* the snapshot for
    /// its HELLO-ACK is taken, so an update is in the snapshot, in the
    /// peer's queue, or (harmlessly, in order) both — never in neither.
    fn accept_loop(self: Arc<Self>, listener: TransportListener) {
        loop {
            let mut enrolled = None;
            let accepted = listener.accept_handshake(|hello| {
                enrolled = Some(self.enrol(hello).ok_or("stale session epoch")?);
                Ok(HelloAck {
                    node: self.node.clone(),
                    names: self.naming.dump(),
                    store: self.store.dump(),
                })
            });
            match (accepted, enrolled) {
                (Ok((transport, hello)), Some((up, rx))) => self.serve(hello, transport, up, rx),
                // The ack never left: nobody will drain that queue.
                (Err(_), Some((up, _))) => up.store(false, Ordering::Release),
                // Version mismatches and handshake garbage are already
                // answered with HELLO-REJECT inside accept_handshake;
                // just keep accepting.
                _ => {}
            }
        }
    }
}

/// The hub half of the overlay: accepts peers, relays, rebroadcasts.
pub struct HubSupervisor {
    inner: Arc<HubInner>,
    addr: SocketAddr,
    /// Held until [`HubSupervisor::admit_peers`] hands it to the accept loop.
    listener: Option<TransportListener>,
}

impl HubSupervisor {
    /// [`HubSupervisor::bind`], admitting peers at once: for a hub with no
    /// actors of its own to start first.
    pub fn start(
        addr: &str,
        node: &str,
        naming: NameRegistry,
        store: StoreHandle,
        inject: Inject,
    ) -> Result<HubSupervisor, fuxi_proto::WireError> {
        let mut hub = Self::bind(addr, node, naming, store, inject)?;
        hub.admit_peers();
        Ok(hub)
    }

    /// Binds `addr` and starts replicating local mutations; peers queue in
    /// the listen backlog until [`HubSupervisor::admit_peers`]. `inject`
    /// delivers frames addressed to this (window-0) process into its
    /// runtime.
    pub fn bind(
        addr: &str,
        node: &str,
        naming: NameRegistry,
        store: StoreHandle,
        inject: Inject,
    ) -> Result<HubSupervisor, fuxi_proto::WireError> {
        let listener = TransportListener::bind(addr)?;
        let bound = listener.local_addr();
        let inner = Arc::new(HubInner {
            node: node.to_owned(),
            naming: naming.clone(),
            store: store.clone(),
            inject,
            peers: Mutex::new(BTreeMap::new()),
            relayed: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            accepted: AtomicU64::new(0),
        });

        // Local mutations replicate to every peer.
        let hub = Arc::clone(&inner);
        watch_replicas(&naming, &store, move |ft, payload| hub.broadcast_except(None, ft, &payload));

        Ok(HubSupervisor { inner, addr: bound, listener: Some(listener) })
    }

    /// Starts the accept loop (once; later calls do nothing).
    pub fn admit_peers(&mut self) {
        if let Some(listener) = self.listener.take() {
            let inner = Arc::clone(&self.inner);
            std::thread::Builder::new()
                .name("hub-accept".to_owned())
                .spawn(move || inner.accept_loop(listener))
                .expect("spawn hub accept loop");
        }
    }

    /// The bound listen address (resolves `:0` to the real port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Outbound router for the hub's runtime: window-`i` destinations go
    /// to peer `i`'s queue.
    pub fn router(&self) -> Box<dyn Fn(ActorId, ActorId, Msg) + Send + Sync> {
        let inner = Arc::clone(&self.inner);
        Box::new(move |from, to, msg| {
            let payload = encode(&RoutedMsg { from, to, msg });
            inner.send_to(to.node_index(), FrameType::Msg, payload);
        })
    }

    /// Liveness oracle: a remote actor is alive while its node's
    /// connection is up. This is the failure detector the lease lock
    /// leans on after a SIGKILL.
    pub fn remote_alive(&self) -> Box<dyn Fn(ActorId) -> bool + Send + Sync> {
        let inner = Arc::clone(&self.inner);
        Box::new(move |id| inner.peer_up(id.node_index()))
    }

    /// Blocks until peers `1..=n` are all connected or `timeout` passes.
    pub fn wait_peers(&self, n: u32, timeout: Duration) -> bool {
        let start = Instant::now();
        while start.elapsed() < timeout {
            if (1..=n).all(|i| self.inner.peer_up(i)) {
                return true;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        false
    }

    /// (relayed, dropped, accepted) frame counters.
    pub fn stats(&self) -> (u64, u64, u64) {
        (
            self.inner.relayed.load(Ordering::Relaxed),
            self.inner.dropped.load(Ordering::Relaxed),
            self.inner.accepted.load(Ordering::Relaxed),
        )
    }
}

// ---------------------------------------------------------------------
// Leaf
// ---------------------------------------------------------------------

struct LeafInner {
    naming: NameRegistry,
    store: StoreHandle,
    inject: Inject,
    up: AtomicBool,
    reconnects: AtomicU64,
    /// The live socket, for fault injection (`sever`).
    current: Mutex<Option<std::net::TcpStream>>,
    /// Inbound messages that arrived before [`LeafSupervisor::admit`], in
    /// order; `None` once admitted. A message delivered while the node
    /// still spawns its actors could spawn one of its own (an agent starts
    /// a JobMaster) and take an id the topology gave a later boot actor.
    held: Mutex<Option<Vec<Frame>>>,
    /// How many held messages [`LeafSupervisor::admit`] released.
    released: AtomicU64,
}

impl LeafInner {
    fn dispatch(&self, frame: Frame) {
        match frame.frame_type {
            FrameType::Msg => match self.held().as_mut() {
                Some(held) => held.push(frame),
                None => self.inject(&frame),
            },
            _ => {
                apply_update(&self.naming, &self.store, &frame);
            }
        }
    }

    fn held(&self) -> std::sync::MutexGuard<'_, Option<Vec<Frame>>> {
        self.held.lock().expect("a thread panicked while holding the held messages")
    }

    fn inject(&self, frame: &Frame) {
        if let Ok(r) = wire::decode_payload::<RoutedMsg>(PROTO_VERSION, &frame.payload) {
            (self.inject)(r.from, r.to, r.msg);
        }
    }
}

/// The replication updates of one frame type among queued frames, decoded.
fn queued<T: serde::de::DeserializeOwned>(
    frames: &VecDeque<OutFrame>,
    ft: FrameType,
) -> impl Iterator<Item = T> + '_ {
    let of_type = frames.iter().filter(move |(t, _)| *t == ft);
    of_type.filter_map(|(_, payload)| wire::decode_payload(PROTO_VERSION, payload).ok())
}

/// Who a leaf says it is when it dials the hub.
#[derive(Debug, Clone)]
pub struct LeafConfig {
    /// Node name for HELLO (diagnostics).
    pub node: String,
    /// This node's topology index (owns id window `index << 24`).
    pub node_index: u32,
}

impl LeafConfig {
    /// A leaf named `node` at topology index `node_index`.
    pub fn new(node: &str, node_index: u32) -> Self {
        Self { node: node.to_owned(), node_index }
    }
}

/// Most frames one write takes: a writer sends what queued behind the
/// frame it woke for in the same write, up to this many frames or
/// [`MAX_BURST_BYTES`]. A write buffer the allocator hands out from its
/// heap and takes back, rather than one it maps and unmaps (or, having
/// raised its threshold after such an unmap, keeps).
const MAX_BURST: usize = 256;
const MAX_BURST_BYTES: usize = 32 * 1024;

/// `first` and what is already queued behind it, in order, up to
/// [`MAX_BURST`] frames of at most [`MAX_BURST_BYTES`] in all.
fn burst(first: OutFrame, mut queued: impl Iterator<Item = OutFrame>) -> Vec<OutFrame> {
    let mut bytes = first.1.len();
    let mut batch = vec![first];
    while batch.len() < MAX_BURST && bytes < MAX_BURST_BYTES {
        let Some(frame) = queued.next() else { break };
        bytes += frame.1.len();
        batch.push(frame);
    }
    batch
}

/// Initial redial delay.
const BACKOFF_BASE: Duration = Duration::from_millis(50);
/// Redial delay cap.
const BACKOFF_MAX: Duration = Duration::from_secs(2);

/// The leaf half: one supervised connection to the hub.
pub struct LeafSupervisor {
    inner: Arc<LeafInner>,
    out_tx: mpsc::Sender<OutFrame>,
}

impl LeafSupervisor {
    /// [`LeafSupervisor::dial`], delivering inbound messages at once: for a
    /// leaf with no actors of its own to start first.
    pub fn start(
        hub_addr: &str,
        cfg: LeafConfig,
        naming: NameRegistry,
        store: StoreHandle,
        inject: Inject,
    ) -> LeafSupervisor {
        let leaf = Self::dial(hub_addr, cfg, naming, store, inject);
        leaf.admit();
        leaf
    }

    /// Starts the dial loop against `hub_addr`. Outbound frames queue
    /// while disconnected and drain after the next successful handshake,
    /// so brief hub outages lose nothing that was already queued. Inbound
    /// messages wait, in order, for [`LeafSupervisor::admit`]; name and
    /// store updates apply as they arrive.
    pub fn dial(
        hub_addr: &str,
        cfg: LeafConfig,
        naming: NameRegistry,
        store: StoreHandle,
        inject: Inject,
    ) -> LeafSupervisor {
        let (out_tx, out_rx) = mpsc::channel::<OutFrame>();
        let inner = Arc::new(LeafInner {
            naming: naming.clone(),
            store: store.clone(),
            inject,
            up: AtomicBool::new(false),
            reconnects: AtomicU64::new(0),
            current: Mutex::new(None),
            held: Mutex::new(Some(Vec::new())),
            released: AtomicU64::new(0),
        });

        // Local mutations replicate up to the hub (which rebroadcasts).
        let tx = out_tx.clone();
        watch_replicas(&naming, &store, move |ft, payload| {
            let _ = tx.send((ft, payload));
        });

        let loop_inner = Arc::clone(&inner);
        let hub_addr = hub_addr.to_owned();
        let actor_base = ActorId::node_base(cfg.node_index);
        std::thread::Builder::new()
            .name(format!("leaf-{}", cfg.node))
            .spawn(move || {
                let (mut attempt, mut epoch) = (0u32, 0u64);
                // Frames taken off the queue by a re-sync, not yet sent.
                let mut unsent: VecDeque<OutFrame> = VecDeque::new();
                loop {
                    epoch += 1;
                    let hello = Hello {
                        node: cfg.node.clone(),
                        node_index: cfg.node_index,
                        actor_base,
                        session_epoch: epoch,
                    };
                    let (mut transport, ack) = match TcpTransport::connect(&hub_addr, &hello) {
                        Ok(ok) => ok,
                        Err(_) => {
                            attempt += 1;
                            std::thread::sleep(backoff_delay(
                                BACKOFF_BASE,
                                BACKOFF_MAX,
                                attempt,
                                u64::from(cfg.node_index) << 32 | u64::from(attempt),
                            ));
                            continue;
                        }
                    };
                    attempt = 0;
                    if epoch > 1 {
                        loop_inner.reconnects.fetch_add(1, Ordering::Relaxed);
                    }
                    *loop_inner.current.lock().unwrap() = transport.stream().try_clone().ok();

                    // Re-sync: the hub's snapshot replaces both replicas
                    // and our own unsent updates go back on top. Each
                    // replica collects them under its own lock, where its
                    // watcher also queues, so no local write falls between
                    // its snapshot and its overlay.
                    loop_inner.naming.resync(ack.names, || {
                        unsent.extend(out_rx.try_iter());
                        let updates = queued::<NameUpdate>(&unsent, FrameType::NameUpdate);
                        updates.map(|u| (u.name, u.id)).collect()
                    });
                    loop_inner.store.resync(ack.store, || {
                        unsent.extend(out_rx.try_iter());
                        let updates = queued::<StoreUpdate>(&unsent, FrameType::StorePut);
                        updates.map(|u| (u.key, u.value)).collect()
                    });

                    // Reader on a clone; writer (this thread) drains the
                    // outbound queue until either side loses the socket.
                    let Ok(mut reader) = transport.try_clone_box() else {
                        continue;
                    };
                    loop_inner.up.store(true, Ordering::Release);
                    let rd_inner = Arc::clone(&loop_inner);
                    let reader_thread = std::thread::Builder::new()
                        .name(format!("leaf-rx-{}", cfg.node))
                        .spawn(move || {
                            while let Ok(Some(frame)) = reader.recv() {
                                rd_inner.dispatch(frame);
                            }
                            rd_inner.up.store(false, Ordering::Release);
                        })
                        .expect("spawn leaf reader");

                    while loop_inner.up.load(Ordering::Acquire) {
                        let first = match unsent.pop_front() {
                            Some(frame) => frame,
                            None => match out_rx.recv_timeout(Duration::from_millis(50)) {
                                Ok(frame) => frame,
                                Err(mpsc::RecvTimeoutError::Timeout) => continue,
                                Err(mpsc::RecvTimeoutError::Disconnected) => return,
                            },
                        };
                        let resent = std::iter::from_fn(|| unsent.pop_front());
                        let batch = burst(first, resent.chain(out_rx.try_iter()));
                        if transport.send_batch(&batch).is_err() {
                            loop_inner.up.store(false, Ordering::Release);
                            // How much of the write arrived is unknown. A
                            // message may be lost (as any message to an
                            // unreachable peer is), but a replica update
                            // goes again after the re-sync: applying one
                            // twice changes nothing. Back at the front, so
                            // that no older value lands after a newer one.
                            let updates = batch.into_iter().filter(|(ft, _)| *ft != FrameType::Msg);
                            for update in updates.rev() {
                                unsent.push_front(update);
                            }
                        }
                    }
                    drop(transport); // closes our half; unblocks the reader
                    let _ = reader_thread.join();
                }
            })
            .expect("spawn leaf dial loop");

        LeafSupervisor { inner, out_tx }
    }

    /// Delivers the messages held since [`LeafSupervisor::dial`], in
    /// arrival order, and every later one as it arrives (once; later calls
    /// do nothing). The reader waits on the lock meanwhile, so nothing
    /// overtakes the held messages.
    pub fn admit(&self) {
        let mut held = self.inner.held();
        let frames = held.take().unwrap_or_default();
        self.inner.released.fetch_add(frames.len() as u64, Ordering::Relaxed);
        for frame in frames {
            self.inner.inject(&frame);
        }
    }

    /// Messages that arrived before [`LeafSupervisor::admit`] and were
    /// held until it.
    pub fn released_at_admit(&self) -> u64 {
        self.inner.released.load(Ordering::Relaxed)
    }

    /// Outbound router for this leaf's runtime: everything non-local goes
    /// through the hub.
    pub fn router(&self) -> Box<dyn Fn(ActorId, ActorId, Msg) + Send + Sync> {
        let tx = self.out_tx.clone();
        Box::new(move |from, to, msg| {
            let payload = encode(&RoutedMsg { from, to, msg });
            let _ = tx.send((FrameType::Msg, payload));
        })
    }

    /// Liveness oracle: any remote id is presumed alive while the hub
    /// link is up (the hub answers for its peers).
    pub fn remote_alive(&self) -> Box<dyn Fn(ActorId) -> bool + Send + Sync> {
        let inner = Arc::clone(&self.inner);
        Box::new(move |_id| inner.up.load(Ordering::Acquire))
    }

    /// Successful re-handshakes after the first (supervision metric).
    pub fn reconnects(&self) -> u64 {
        self.inner.reconnects.load(Ordering::Relaxed)
    }

    /// Fault injection: hard-closes the current socket (both directions),
    /// as if the peer was killed mid-heartbeat. The dial loop notices and
    /// reconnects with a bumped session epoch.
    pub fn sever(&self) {
        if let Some(s) = self.inner.current.lock().unwrap().take() {
            let _ = s.shutdown(std::net::Shutdown::Both);
        }
    }

    /// Blocks until the hub link is up or `timeout` passes.
    pub fn wait_connected(&self, timeout: Duration) -> bool {
        let start = Instant::now();
        while start.elapsed() < timeout {
            if self.inner.up.load(Ordering::Acquire) {
                return true;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        false
    }
}
