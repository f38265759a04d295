//! The live runtime: every actor on its own OS thread, timers on a real
//! clock, mailboxes as bounded queues that grow as they fill.
//!
//! The same actor code that runs under the deterministic kernel runs here
//! unchanged — handlers see a [`Ctx`] whose live backend is implemented by
//! `ThreadCtx` below. What changes is the execution substrate:
//!
//! * **Delivery** is one [`crate::mailbox`] per actor. A given sender's
//!   messages to a given destination arrive in send order (the kernel's
//!   per-source FIFO guarantee, restricted to each destination pair); there
//!   is no global order across destinations.
//! * **Timers** live in a hashed [`TimerWheel`] owned by one clock thread,
//!   which also drives the shared [`FlowNet`] I/O model on wall time.
//! * **Observability** is per-thread: each actor thread owns a `Metrics`
//!   and a `Tracer` (so the hot path takes no locks), folded into the
//!   runtime's sinks periodically and, in full, when the actor exits.
//! * **Lifetime**: an actor's thread is detached and reaps itself when its
//!   loop ends — observability folded, registry entry gone, stack
//!   unmapped — so the registry holds live actors only and a runtime can
//!   spawn for as long as it likes. Ids are never reused.
//!
//! Determinism is deliberately traded away: two runs of the same workload
//! interleave differently. The sim↔live parity test pins down what must
//! still agree — terminal job outcomes, not schedules.

use crate::mailbox::{mailbox, MailboxReceiver, MailboxSender, PushOutcome};
use crate::timer::TimerWheel;
use fuxi_sim::{
    Actor, ActorId, FlowDone, FlowNet, FlowSpec, KernelMsg, LiveCtxOps, MachineConfig, Metrics, SimDuration,
    SimTime,
};
use fuxi_sim::{Ctx, TracerConfig};
use fuxi_obs::{SpanKind, TraceEvent, TraceId, Tracer};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::any::Any;
use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Live-runtime construction parameters.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Hardware description per machine (same shape the kernel takes).
    pub machines: Vec<MachineConfig>,
    /// Seed from which every actor thread's RNG is derived.
    pub seed: u64,
    /// Observability configuration applied to each per-thread tracer.
    pub obs: TracerConfig,
    /// Mailbox bound: senders park (and are counted) beyond this depth.
    pub mailbox_capacity: usize,
    /// Timer-wheel granularity: a timer fires at the first tick edge at or
    /// after its deadline. The default (10 ms) is wide enough that the
    /// control-plane work one timer sets off (a batch flush: grant, worker
    /// start, assignment, up to the next timer) finishes inside the tick,
    /// even across processes, so a job's path is a count of ticks and does
    /// not stretch with the host's load. At 2 ms that work spills over tick
    /// edges by chance, and light-load throughput varies ±8 % from run to
    /// run.
    pub timer_tick: Duration,
    /// How often each actor thread folds its private metrics into the
    /// runtime-global sink (and the clock thread samples mailbox depths).
    /// Sub-second values make the scrape endpoint near-live; the shutdown
    /// merge still catches whatever accumulated since the last flush.
    pub metrics_flush: Duration,
    /// First actor id this runtime assigns (`node_index <<`
    /// [`ACTOR_WINDOW_SHIFT`]). In a multi-process deployment every node
    /// numbers its actors inside its own window, so an [`ActorId`] is
    /// globally routable; ids outside this runtime's window go to the
    /// remote router (or count as dead when none is installed).
    pub actor_base: u32,
}

/// Width of one node's actor-id window: ids `base .. base + 2^24` are
/// local to the node whose base is `node_index << 24` (canonically
/// defined on [`ActorId`]).
pub const ACTOR_WINDOW_SHIFT: u32 = ActorId::NODE_WINDOW_SHIFT;

/// `true` when two ids live in the same node window.
#[inline]
pub fn same_window(a: u32, b: u32) -> bool {
    (a >> ACTOR_WINDOW_SHIFT) == (b >> ACTOR_WINDOW_SHIFT)
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            machines: Vec::new(),
            seed: 1,
            obs: TracerConfig::default(),
            mailbox_capacity: 8192,
            timer_tick: Duration::from_millis(10),
            metrics_flush: Duration::from_secs(1),
            actor_base: 0,
        }
    }
}

/// Callback delivering a message whose destination lives in another
/// process: `(from, to, msg)`. Installed by the node supervisor.
pub type RemoteRouter<M> = Box<dyn Fn(ActorId, ActorId, M) + Send + Sync>;

/// Liveness oracle for non-local actor ids (typically "is the owning
/// peer's connection up"). Installed by the node supervisor.
pub type RemoteAlive = Box<dyn Fn(ActorId) -> bool + Send + Sync>;

/// What lands in an actor's mailbox.
enum Envelope<M> {
    /// Run `on_start` under the spawner's trace.
    Start { trace: TraceId },
    /// Deliver a message; the envelope carries the causal trace like the
    /// kernel's delivery events do.
    Msg {
        from: ActorId,
        msg: M,
        trace: TraceId,
    },
    /// Fire `on_timer(tag)`.
    Timer { tag: u64 },
    /// Terminate the actor thread.
    Kill,
}

/// Commands to the clock thread.
enum ClockCmd<M> {
    Timer {
        actor: ActorId,
        delay: SimDuration,
        tag: u64,
    },
    DelayedSend {
        from: ActorId,
        to: ActorId,
        msg: M,
        delay: SimDuration,
        trace: TraceId,
    },
    StartFlow {
        owner: ActorId,
        spec: FlowSpec,
    },
    CancelFlows {
        owner: ActorId,
    },
    /// `owner` left the registry: its flows stop and its unfired timers go.
    Forget {
        owner: ActorId,
    },
    FailMachine {
        m: u32,
    },
    SetIoSpeed {
        m: u32,
        factor: f64,
    },
    Shutdown,
}

/// What the wheel holds: a due timer or a due delayed delivery. The
/// message is boxed: every wheel entry is as large as the largest variant,
/// and the wheel's slots keep the capacity of their busiest tick.
enum Due<M> {
    Timer { actor: ActorId, tag: u64 },
    Send {
        from: ActorId,
        to: ActorId,
        msg: Box<M>,
        trace: TraceId,
    },
}

struct ActorSlot<M> {
    sender: MailboxSender<Envelope<M>>,
    machine: Option<u32>,
}

/// The live actors, by id. An entry leaves when its actor is killed or its
/// thread ends, whichever is first; `next` only grows, so a dead id stays
/// dead.
struct Registry<M> {
    next: u32,
    live: BTreeMap<u32, ActorSlot<M>>,
    /// Set by `shutdown`: actors spawned from then on are born dead, so
    /// that what `shutdown` waits for cannot grow behind its back.
    closed: bool,
}

struct MachineState {
    up: bool,
    speed: f64,
    launch_ok: bool,
    procs: BTreeMap<ActorId, Vec<u8>>,
}

/// State shared by every thread of one runtime.
struct Shared<M: KernelMsg + Send> {
    epoch: Instant,
    cfg: RuntimeConfig,
    registry: RwLock<Registry<M>>,
    /// Actor threads that have not finished reaping themselves; `shutdown`
    /// waits on `all_reaped` for it to reach zero.
    running: Mutex<usize>,
    all_reaped: Condvar,
    /// First panic of an actor thread, for `shutdown` to re-raise.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Deepest mailbox of any exited actor (live ones carry their own).
    hwm_exited: AtomicUsize,
    machines: RwLock<Vec<MachineState>>,
    clock_tx: Sender<ClockCmd<M>>,
    /// Runtime-global sinks: fault events, external sends, and what every
    /// actor thread folds in (periodically, and in full when it is reaped).
    metrics: Mutex<Metrics>,
    tracer: Mutex<Tracer>,
    /// Cluster metrics view, if a harness attached one: the clock thread
    /// samples mailbox pressure into it.
    hub: Mutex<Option<fuxi_obs::MetricsHub>>,
    /// Outbound path for destinations in other processes.
    remote_router: RwLock<Option<RemoteRouter<M>>>,
    /// Liveness oracle for remote ids (`ctx.alive` on a peer's actor).
    remote_alive: RwLock<Option<RemoteAlive>>,
}

impl<M: KernelMsg + Send + 'static> Shared<M> {
    fn now(&self) -> SimTime {
        SimTime(self.epoch.elapsed().as_micros() as u64)
    }

    /// `true` when `id` belongs to this runtime's actor-id window.
    fn is_local(&self, id: ActorId) -> bool {
        same_window(id.0, self.cfg.actor_base)
    }

    /// The mailbox of a live local actor. The sender is cloned under the
    /// read lock and used outside it (a parked push must never hold the
    /// registry lock).
    fn sender_of(&self, id: ActorId) -> Option<MailboxSender<Envelope<M>>> {
        let registry = self.registry.read().unwrap();
        registry.live.get(&id.0).map(|s| s.sender.clone())
    }

    /// Hands a message for a non-local destination to the remote router.
    /// Only plain messages cross process boundaries — timers, kills and
    /// spawns are strictly node-local. Returns the push verdict.
    fn route_remote(&self, to: ActorId, env: Envelope<M>) -> PushOutcome {
        if to == ActorId::NONE {
            return PushOutcome::Dead; // pre-registration placeholder, never routable
        }
        if let Envelope::Msg { from, msg, .. } = env {
            let router = self.remote_router.read().unwrap();
            if let Some(route) = router.as_ref() {
                route(from, to, msg);
                return PushOutcome::Sent;
            }
        }
        PushOutcome::Dead
    }

    /// Delivers `env`, parking the caller while a local mailbox is full.
    fn push_envelope(&self, to: ActorId, env: Envelope<M>) -> PushOutcome {
        if !self.is_local(to) {
            return self.route_remote(to, env);
        }
        match self.sender_of(to) {
            Some(tx) => tx.push(env),
            None => PushOutcome::Dead,
        }
    }

    /// Non-blocking delivery used by the clock thread: remote envelopes are
    /// routed (never parked), local ones try the mailbox and hand the
    /// envelope back on a full box so the caller can retry next tick.
    fn try_deliver(&self, to: ActorId, env: Envelope<M>) -> Result<(), Envelope<M>> {
        if !self.is_local(to) {
            self.route_remote(to, env);
            return Ok(());
        }
        match self.sender_of(to) {
            Some(tx) => tx.push_nonblocking(env).map(|_| ()),
            None => Ok(()),
        }
    }

    /// Everything the clock thread owes an actor goes through here: a full
    /// mailbox puts the envelope on the backlog for the next tick (counted
    /// as `rt.clock_parked`) instead of parking every timer in the runtime.
    fn clock_deliver(&self, backlog: &mut Vec<(ActorId, Envelope<M>)>, to: ActorId, env: Envelope<M>) {
        if let Err(env) = self.try_deliver(to, env) {
            self.metrics.lock().unwrap().count("rt.clock_parked", 1);
            backlog.push((to, env));
        }
    }

    /// A flow completion, told to the flow's owner.
    fn clock_flow_done(&self, backlog: &mut Vec<(ActorId, Envelope<M>)>, done: FlowDone) {
        let msg = M::flow_done(done.tag, done.failed);
        let env = Envelope::Msg { from: done.owner, msg, trace: TraceId::NONE };
        self.clock_deliver(backlog, done.owner, env);
    }

    fn spawn(self: &Arc<Self>, machine: Option<u32>, actor: Box<dyn Actor<M> + Send>, trace: TraceId) -> ActorId {
        let (tx, rx, _) = mailbox(self.cfg.mailbox_capacity);
        // First in the box, before anyone can learn the id.
        tx.push_control(Envelope::Start { trace });
        let id = {
            let mut registry = self.registry.write().unwrap();
            assert!(registry.next < (1 << ACTOR_WINDOW_SHIFT), "actor-id window exhausted");
            let id = ActorId(self.cfg.actor_base + registry.next);
            registry.next += 1;
            if registry.closed {
                return id;
            }
            registry.live.insert(id.0, ActorSlot { sender: tx, machine });
            id
        };
        self.metrics.lock().unwrap().count("rt.actors_spawned", 1);
        *self.running.lock().unwrap() += 1;
        let shared = Arc::clone(self);
        // Detached: the thread reaps itself (`actor_thread`), so its stack
        // is unmapped when the actor ends, not when the runtime does.
        std::thread::Builder::new()
            .name(format!("fuxi-{id}"))
            .spawn(move || actor_thread(shared, id, machine, actor, rx))
            .expect("spawn actor thread");
        id
    }

    /// Takes `id` out of the registry, the process table, the flow model and
    /// the timer wheel. `None` when it was not (or no longer) registered.
    fn unregister(&self, id: ActorId) -> Option<ActorSlot<M>> {
        let slot = self.registry.write().unwrap().live.remove(&id.0)?;
        if let Some(m) = slot.machine {
            self.machines.write().unwrap()[m as usize].procs.remove(&id);
        }
        let _ = self.clock_tx.send(ClockCmd::Forget { owner: id });
        Some(slot)
    }

    fn kill(&self, id: ActorId) {
        // (Remote actors are killed by their own node: never registered here.)
        if let Some(slot) = self.unregister(id) {
            // A control envelope: never refused, and behind whatever was
            // sent before the kill.
            slot.sender.push_control(Envelope::Kill);
        }
    }

    fn alive(&self, id: ActorId) -> bool {
        if !self.is_local(id) {
            // A peer's actor is presumed alive while its connection is up;
            // with no supervisor installed, remote ids are dead (matches
            // the old out-of-range behaviour).
            return self
                .remote_alive
                .read()
                .unwrap()
                .as_ref()
                .is_some_and(|f| f(id));
        }
        self.registry.read().unwrap().live.contains_key(&id.0)
    }

    fn machine_of(&self, id: ActorId) -> Option<u32> {
        self.registry.read().unwrap().live.get(&id.0)?.machine
    }

    /// Samples mailbox pressure over the live actors: total and deepest
    /// backlog, the sticky high-water mark (exited actors included), the
    /// live-actor count, and — when a hub is attached — the cluster view's
    /// mailbox fields.
    fn sample_mailboxes(&self) {
        let mut total = 0usize;
        let mut deepest = 0usize;
        let mut hwm = self.hwm_exited.load(Ordering::Relaxed);
        let live = {
            let registry = self.registry.read().unwrap();
            for s in registry.live.values() {
                let g = s.sender.gauges();
                hwm = hwm.max(g.hwm());
                total += g.depth();
                deepest = deepest.max(g.depth());
            }
            registry.live.len()
        };
        {
            let mut metrics = self.metrics.lock().unwrap();
            metrics.gauge_set("rt.mailbox_depth", total as f64);
            metrics.gauge_set("rt.mailbox_depth_max", deepest as f64);
            metrics.gauge_max("rt.mailbox_hwm", hwm as f64);
            metrics.gauge_set("rt.actors_live", live as f64);
        }
        let hub = self.hub.lock().unwrap().clone();
        if let Some(hub) = hub {
            hub.update(|v| {
                v.mailbox_depth = total as u64;
                v.mailbox_hwm = v.mailbox_hwm.max(hwm as u64);
            });
        }
    }
}

/// Body of an actor's dedicated, detached thread: runs the event loop
/// until the actor is killed (or panics), then reaps the actor — folds
/// everything its thread recorded into the runtime's sinks, takes it out
/// of the registry, closes its mailbox — and reports the thread gone.
fn actor_thread<M: KernelMsg + Send + 'static>(
    shared: Arc<Shared<M>>,
    id: ActorId,
    machine: Option<u32>,
    mut actor: Box<dyn Actor<M> + Send>,
    rx: MailboxReceiver<Envelope<M>>,
) {
    let obs = shared.cfg.obs.clone();
    let mut tc = ThreadCtx {
        id,
        machine,
        clock_tx: shared.clock_tx.clone(),
        rng: SmallRng::seed_from_u64(
            shared.cfg.seed.wrapping_add(u64::from(id.0).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        ),
        shared,
        metrics: Metrics::new(),
        tracer: Tracer::new(obs),
        current_trace: TraceId::NONE,
    };
    // The actor is dropped inside the guard too: a panicking `Drop` must
    // not skip the reaping below.
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        actor_loop(&mut tc, actor.as_mut(), &rx);
        drop(actor);
    }));
    let ThreadCtx { shared, metrics, tracer, .. } = tc;
    if let Err(payload) = outcome {
        shared.panic.lock().unwrap().get_or_insert(payload);
    }
    shared.unregister(id); // already gone unless the loop ended by panic
    shared.hwm_exited.fetch_max(rx.gauges().hwm(), Ordering::Relaxed);
    drop(rx); // closes the box: late and parked senders see a dead actor
    shared.tracer.lock().unwrap().extend(tracer);
    {
        // One critical section, so whoever reads `rt.actors_reaped` also
        // reads everything the reaped actors recorded.
        let mut sink = shared.metrics.lock().unwrap();
        sink.merge(&metrics);
        sink.count("rt.actors_reaped", 1);
    }
    let mut running = shared.running.lock().unwrap();
    *running -= 1;
    if *running == 0 {
        shared.all_reaped.notify_all();
    }
}

/// One actor's event loop: until `Kill`.
fn actor_loop<M: KernelMsg + Send + 'static>(
    tc: &mut ThreadCtx<M>,
    actor: &mut (dyn Actor<M> + Send),
    rx: &MailboxReceiver<Envelope<M>>,
) {
    let id = tc.id;
    let flush_every = tc.shared.cfg.metrics_flush;
    // Stagger each thread's flush phase across the interval: hundreds of
    // actors started in the same instant would otherwise all hit the
    // shared sink's mutex in the same tick, which on a small host can
    // stall time-critical actors (e.g. the master's lease keepalive).
    let phase = flush_every.mul_f64(f64::from(id.0 % 64) / 64.0);
    let mut last_flush = Instant::now().checked_sub(phase).unwrap_or_else(Instant::now);
    while let Ok(env) = rx.recv() {
        rx.gauges().on_pop();
        match env {
            Envelope::Start { trace } => {
                tc.current_trace = trace;
                actor.on_start(&mut Ctx::for_live(tc, id));
            }
            Envelope::Msg { from, msg, trace } => {
                tc.current_trace = trace;
                actor.on_message(&mut Ctx::for_live(tc, id), from, msg);
            }
            Envelope::Timer { tag } => {
                // Like the kernel: timer-driven activity has no inherited
                // causal context unless the actor re-establishes it.
                tc.current_trace = TraceId::NONE;
                actor.on_timer(&mut Ctx::for_live(tc, id), tag);
            }
            Envelope::Kill => break,
        }
        // Periodic flush: fold this thread's private metrics into the
        // runtime-global sink so live scrapes see near-current data
        // instead of waiting for the actor to exit. Safe because actor
        // code only uses additive instruments (counters, gauge deltas,
        // histograms) whose merge is take-and-sum.
        if flush_every > Duration::ZERO && last_flush.elapsed() >= flush_every {
            let m = std::mem::take(&mut tc.metrics);
            tc.shared.metrics.lock().unwrap().merge(&m);
            last_flush = Instant::now();
        }
    }
}

/// The live backend of a [`Ctx`]: one per actor thread, owning that
/// thread's RNG, metrics, and tracer.
struct ThreadCtx<M: KernelMsg + Send + 'static> {
    /// This thread's actor and its placement. Kept here because a killed
    /// actor leaves the registry at once but still drains what was queued
    /// before the kill, and must go on knowing where it runs.
    id: ActorId,
    machine: Option<u32>,
    shared: Arc<Shared<M>>,
    clock_tx: Sender<ClockCmd<M>>,
    rng: SmallRng,
    metrics: Metrics,
    tracer: Tracer,
    current_trace: TraceId,
}

impl<M: KernelMsg + Send + 'static> LiveCtxOps<M> for ThreadCtx<M> {
    fn now(&self) -> SimTime {
        self.shared.now()
    }

    fn send(&mut self, from: ActorId, to: ActorId, msg: M, extra: SimDuration, trace: TraceId) {
        self.metrics.count("net.sent", 1);
        if extra > SimDuration::ZERO {
            let _ = self.clock_tx.send(ClockCmd::DelayedSend {
                from,
                to,
                msg,
                delay: extra,
                trace,
            });
            return;
        }
        match self.shared.push_envelope(to, Envelope::Msg { from, msg, trace }) {
            PushOutcome::Sent => {}
            PushOutcome::SentParked => self.metrics.count("rt.mailbox_parked", 1),
            PushOutcome::Dead => self.metrics.count("net.to_dead", 1),
        }
    }

    fn timer(&mut self, actor: ActorId, delay: SimDuration, tag: u64) {
        let _ = self.clock_tx.send(ClockCmd::Timer { actor, delay, tag });
    }

    fn spawn(&mut self, machine: Option<u32>, actor: Box<dyn Actor<M> + Send>) -> ActorId {
        self.shared.spawn(machine, actor, self.current_trace)
    }

    fn kill(&mut self, id: ActorId) {
        self.shared.kill(id);
    }

    fn alive(&self, id: ActorId) -> bool {
        self.shared.alive(id)
    }

    fn machine_of(&self, id: ActorId) -> Option<u32> {
        if id == self.id {
            return self.machine;
        }
        self.shared.machine_of(id)
    }

    fn machine_up(&self, m: u32) -> bool {
        self.shared
            .machines
            .read()
            .unwrap()
            .get(m as usize)
            .is_some_and(|s| s.up)
    }

    fn machine_speed(&self, m: u32) -> f64 {
        self.shared
            .machines
            .read()
            .unwrap()
            .get(m as usize)
            .map_or(1.0, |s| s.speed)
    }

    fn launch_ok(&self, m: u32) -> bool {
        self.shared
            .machines
            .read()
            .unwrap()
            .get(m as usize)
            .is_some_and(|s| s.launch_ok)
    }

    fn rack_of(&self, m: u32) -> u32 {
        self.shared.cfg.machines[m as usize].rack
    }

    fn n_machines(&self) -> usize {
        self.shared.cfg.machines.len()
    }

    fn register_proc(&mut self, id: ActorId, meta: Vec<u8>) {
        // Through the registry, not `self.machine`: a killed actor still
        // draining its mailbox must not re-enter the process table.
        if let Some(m) = self.shared.machine_of(id) {
            self.shared.machines.write().unwrap()[m as usize]
                .procs
                .insert(id, meta);
        }
    }

    fn procs_on(&self, m: u32) -> Vec<(ActorId, Vec<u8>)> {
        self.shared.machines.read().unwrap()[m as usize]
            .procs
            .iter()
            .map(|(&a, meta)| (a, meta.clone()))
            .collect()
    }

    fn start_flow(&mut self, owner: ActorId, spec: FlowSpec) {
        let _ = self.clock_tx.send(ClockCmd::StartFlow { owner, spec });
    }

    fn cancel_flows_of(&mut self, owner: ActorId) {
        let _ = self.clock_tx.send(ClockCmd::CancelFlows { owner });
    }

    fn rng(&mut self) -> &mut SmallRng {
        &mut self.rng
    }

    fn metrics(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    fn trace_id(&self) -> TraceId {
        self.current_trace
    }

    fn set_trace(&mut self, trace: TraceId) {
        self.current_trace = trace;
    }

    fn trace_event_as(&mut self, actor: ActorId, trace: TraceId, event: TraceEvent) {
        let t = self.shared.now().as_secs_f64();
        self.tracer.record(t, actor.0, trace, event);
    }

    fn span(&mut self, actor: ActorId, kind: SpanKind, wall_s: f64) {
        let t = self.shared.now().as_secs_f64();
        let trace = self.current_trace;
        self.tracer.span(t, actor.0, trace, kind, wall_s);
    }

    fn flight_dump(&mut self, reason: &'static str) {
        let t = self.shared.now().as_secs_f64();
        self.tracer.dump(t, reason);
    }

    fn tracer(&self) -> &Tracer {
        &self.tracer
    }
}

/// The clock thread: hashed timer wheel plus the shared flow model, both
/// driven by wall time. Deliveries it owes to full mailboxes are retried on
/// the next tick rather than blocking (a stuck actor must not stall every
/// timer in the runtime).
fn clock_thread<M: KernelMsg + Send + 'static>(
    shared: Arc<Shared<M>>,
    rx: Receiver<ClockCmd<M>>,
) {
    let tick_us = shared.cfg.timer_tick.as_micros().max(100) as u64;
    let mut wheel: TimerWheel<Due<M>> = TimerWheel::new(512, tick_us);
    // Each actor's armed ticks (fired ones pruned as it arms more), so that
    // forgetting an actor touches only its own slots.
    let mut armed: HashMap<ActorId, Vec<u64>> = HashMap::new();
    let disk_bw: Vec<f64> = shared.cfg.machines.iter().map(|m| m.disk_bw_mbps).collect();
    let net_bw: Vec<f64> = shared.cfg.machines.iter().map(|m| m.net_bw_mbps).collect();
    let mut flows = FlowNet::new(disk_bw, net_bw);
    let mut backlog: Vec<(ActorId, Envelope<M>)> = Vec::new();
    let sample_every = shared.cfg.metrics_flush;
    let mut last_sample = Instant::now();
    // The wheel ticks on multiples of `tick_us` of the host's real-time
    // clock: a timer fires at the first edge at or after its deadline,
    // whenever other traffic happened to wake this thread, and every
    // runtime on the host (one per process of a deployment) shares the
    // edges. `grid` is runtime time on that scale.
    let phase_us = {
        let now = shared.now().0;
        let real = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_micros() as u64);
        (real % tick_us + tick_us - now % tick_us) % tick_us
    };
    let grid = |t: SimTime| SimTime(t.0 + phase_us);

    loop {
        let now = shared.now();
        let mut next = SimTime((grid(now).0 / tick_us + 1) * tick_us - phase_us);
        if let Some(fc) = flows.next_completion() {
            if fc < next {
                next = fc.max(now);
            }
        }
        let wait = Duration::from_micros((next.0.saturating_sub(now.0)).max(100));
        let mut shutdown = false;
        let mut first = match rx.recv_timeout(wait) {
            Ok(cmd) => Some(cmd),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => return,
        };
        // Drain whatever queued up behind the first command.
        loop {
            let Some(cmd) = first.take() else { break };
            let now = shared.now();
            match cmd {
                ClockCmd::Shutdown => shutdown = true,
                // A timer armed by an actor already gone (killed while it
                // drained its mailbox) could only ever fire into the void.
                ClockCmd::Timer { actor, delay, tag } if shared.alive(actor) => {
                    let tick = wheel.arm(grid(now), delay, Due::Timer { actor, tag });
                    let ticks = armed.entry(actor).or_default();
                    ticks.retain(|&t| t > grid(now).0 / tick_us);
                    ticks.push(tick);
                }
                ClockCmd::Timer { .. } => {}
                ClockCmd::DelayedSend {
                    from,
                    to,
                    msg,
                    delay,
                    trace,
                } => {
                    let due = Due::Send {
                        from,
                        to,
                        msg: Box::new(msg),
                        trace,
                    };
                    wheel.arm(grid(now), delay, due);
                }
                ClockCmd::StartFlow { owner, spec } => {
                    // A degenerate (zero-size) flow completes immediately.
                    if let Some(done) = flows.start(now, owner, spec) {
                        shared.clock_flow_done(&mut backlog, done);
                    }
                }
                ClockCmd::CancelFlows { owner } => flows.cancel_owned_by(now, owner),
                ClockCmd::Forget { owner } => {
                    flows.cancel_owned_by(now, owner);
                    let mine = |d: &Due<M>| matches!(d, Due::Timer { actor, .. } if *actor == owner);
                    for tick in armed.remove(&owner).unwrap_or_default() {
                        wheel.cancel(tick, mine);
                    }
                }
                ClockCmd::FailMachine { m } => {
                    for done in flows.fail_machine(now, m) {
                        shared.clock_flow_done(&mut backlog, done);
                    }
                }
                ClockCmd::SetIoSpeed { m, factor } => flows.set_speed(now, m, factor),
            }
            first = rx.try_recv().ok();
        }
        if shutdown {
            return;
        }

        let now = shared.now();
        // Retry deliveries parked on full mailboxes.
        if !backlog.is_empty() {
            let pending = std::mem::take(&mut backlog);
            for (to, env) in pending {
                if let Err(env) = shared.try_deliver(to, env) {
                    backlog.push((to, env));
                }
            }
        }
        for due in wheel.expire(grid(now)) {
            let (to, env) = match due {
                Due::Timer { actor, tag } => (actor, Envelope::Timer { tag }),
                Due::Send {
                    from, to, msg, trace,
                } => (to, Envelope::Msg { from, msg: *msg, trace }),
            };
            shared.clock_deliver(&mut backlog, to, env);
        }
        for done in flows.advance(now) {
            shared.clock_flow_done(&mut backlog, done);
        }
        // Queue pressure is live state, not a shutdown summary: sample
        // depths on the flush cadence so a mid-run spike is visible in the
        // gauges and the cluster view.
        if sample_every > Duration::ZERO && last_sample.elapsed() >= sample_every {
            shared.sample_mailboxes();
            shared.metrics.lock().unwrap().gauge_set("rt.timers_armed", wheel.len() as f64);
            last_sample = Instant::now();
        }
    }
}

/// A running live world. Dropping it without [`LiveRuntime::shutdown`]
/// leaves the threads running; call `shutdown` to stop them and collect
/// the merged observability streams.
pub struct LiveRuntime<M: KernelMsg + Send + 'static> {
    shared: Arc<Shared<M>>,
    clock: Option<JoinHandle<()>>,
}

impl<M: KernelMsg + Send + 'static> LiveRuntime<M> {
    /// Boots the runtime: machine table, clock thread, no actors yet.
    pub fn new(cfg: RuntimeConfig) -> Self {
        let (clock_tx, clock_rx) = std::sync::mpsc::channel();
        let machines = cfg
            .machines
            .iter()
            .map(|_| MachineState {
                up: true,
                speed: 1.0,
                launch_ok: true,
                procs: BTreeMap::new(),
            })
            .collect();
        let shared = Arc::new(Shared {
            epoch: Instant::now(),
            cfg,
            registry: RwLock::new(Registry { next: 0, live: BTreeMap::new(), closed: false }),
            running: Mutex::new(0),
            all_reaped: Condvar::new(),
            panic: Mutex::new(None),
            hwm_exited: AtomicUsize::new(0),
            machines: RwLock::new(machines),
            clock_tx,
            metrics: Mutex::new(Metrics::new()),
            tracer: Mutex::new(Tracer::default()),
            hub: Mutex::new(None),
            remote_router: RwLock::new(None),
            remote_alive: RwLock::new(None),
        });
        let clock = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("fuxi-clock".into())
                .spawn(move || clock_thread(shared, clock_rx))
                .expect("spawn clock thread")
        };
        LiveRuntime {
            shared,
            clock: Some(clock),
        }
    }

    /// Wall-clock time since the runtime epoch.
    pub fn now(&self) -> SimTime {
        self.shared.now()
    }

    /// Spawns an actor on its own thread, optionally placed on a machine.
    pub fn spawn(&self, machine: Option<u32>, actor: Box<dyn Actor<M> + Send>) -> ActorId {
        self.shared.spawn(machine, actor, TraceId::NONE)
    }

    /// Injects a message from outside the world under `trace`.
    pub fn send_external_traced(&self, to: ActorId, msg: M, trace: TraceId) {
        self.shared.metrics.lock().unwrap().count("net.sent", 1);
        let _ = self.shared.push_envelope(
            to,
            Envelope::Msg {
                from: ActorId::NONE,
                msg,
                trace,
            },
        );
    }

    /// Injects an untraced external message.
    pub fn send_external(&self, to: ActorId, msg: M) {
        self.send_external_traced(to, msg, TraceId::NONE);
    }

    /// Delivers a message that arrived from a peer process, preserving the
    /// remote sender's address. The node supervisor's inbound path.
    pub fn route_in(&self, from: ActorId, to: ActorId, msg: M) {
        self.shared.metrics.lock().unwrap().count("net.remote_in", 1);
        let _ = self.shared.push_envelope(
            to,
            Envelope::Msg {
                from,
                msg,
                trace: TraceId::NONE,
            },
        );
    }

    /// A detached [`LiveRuntime::route_in`] handle the node supervisor's
    /// reader threads can own without borrowing the runtime.
    pub fn remote_injector(&self) -> Arc<dyn Fn(ActorId, ActorId, M) + Send + Sync> {
        let shared = Arc::clone(&self.shared);
        Arc::new(move |from, to, msg| {
            shared.metrics.lock().unwrap().count("net.remote_in", 1);
            let _ = shared.push_envelope(
                to,
                Envelope::Msg {
                    from,
                    msg,
                    trace: TraceId::NONE,
                },
            );
        })
    }

    /// Terminates one actor (its thread exits after draining its mailbox).
    pub fn kill_actor(&self, id: ActorId) {
        self.shared.kill(id);
    }

    /// `true` while `id`'s thread is accepting messages.
    pub fn alive(&self, id: ActorId) -> bool {
        self.shared.alive(id)
    }

    /// `true` if machine `m` is up.
    pub fn machine_up(&self, m: u32) -> bool {
        self.shared.machines.read().unwrap()[m as usize].up
    }

    /// Machine `m`'s process table.
    pub fn procs_on(&self, m: u32) -> Vec<(ActorId, Vec<u8>)> {
        self.shared.machines.read().unwrap()[m as usize]
            .procs
            .iter()
            .map(|(&a, meta)| (a, meta.clone()))
            .collect()
    }

    /// Takes machine `m` down: every actor placed on it dies, its process
    /// table clears, and flows touching it fail (the NodeDown fault).
    pub fn kill_machine(&self, m: u32) {
        {
            let mut machines = self.shared.machines.write().unwrap();
            machines[m as usize].up = false;
            machines[m as usize].procs.clear();
        }
        let victims: Vec<ActorId> = {
            let registry = self.shared.registry.read().unwrap();
            let on_m = registry.live.iter().filter(|(_, s)| s.machine == Some(m));
            on_m.map(|(&id, _)| ActorId(id)).collect()
        };
        for id in victims {
            self.shared.kill(id);
        }
        let _ = self.shared.clock_tx.send(ClockCmd::FailMachine { m });
        let t = self.shared.now().as_secs_f64();
        self.shared.metrics.lock().unwrap().count("fault.node_down", 1);
        self.shared.tracer.lock().unwrap().record(
            t,
            u32::MAX,
            TraceId::NONE,
            TraceEvent::NodeDown { machine: m },
        );
    }

    /// Degrades (or restores) machine `m`'s compute and I/O speed by
    /// `factor` — the paper's slow-node fault, live. Running flows are
    /// re-paced from now; new worker startups scale via `machine_speed`.
    pub fn set_io_speed(&self, m: u32, factor: f64) {
        self.shared.machines.write().unwrap()[m as usize].speed = factor;
        let _ = self.shared.clock_tx.send(ClockCmd::SetIoSpeed { m, factor });
    }

    /// Records mailbox pressure and the live-actor count into the runtime
    /// metrics (the clock thread does this periodically on `metrics_flush`
    /// cadence; this forces one sample now).
    pub fn record_mailbox_gauges(&self) {
        self.shared.sample_mailboxes();
    }

    /// Attaches a cluster metrics hub: the clock thread's mailbox sampler
    /// starts feeding the view's `mailbox_depth`/`mailbox_hwm` fields.
    pub fn attach_hub(&self, hub: fuxi_obs::MetricsHub) {
        *self.shared.hub.lock().unwrap() = Some(hub);
    }

    /// First actor id this runtime assigns.
    pub fn actor_base(&self) -> u32 {
        self.shared.cfg.actor_base
    }

    /// Installs the outbound path for messages addressed outside this
    /// runtime's actor-id window (the node supervisor's send queue).
    pub fn set_remote_router(&self, route: RemoteRouter<M>) {
        *self.shared.remote_router.write().unwrap() = Some(route);
    }

    /// Installs the liveness oracle consulted by `ctx.alive` for remote
    /// ids. Without one, remote actors read as dead — which is exactly
    /// what the lock service must see when a peer process is gone.
    pub fn set_remote_alive(&self, alive: RemoteAlive) {
        *self.shared.remote_alive.write().unwrap() = Some(alive);
    }

    /// A clone of the runtime-global metrics as of now. Exited actors are
    /// in it in full; with periodic per-thread flushes (`metrics_flush`)
    /// only the last sub-interval of each live actor thread is missing.
    pub fn metrics_snapshot(&self) -> Metrics {
        self.shared.metrics.lock().unwrap().clone()
    }

    /// Stops everything: kills the live actors, waits until every actor
    /// thread has reaped itself, and returns the runtime-global metrics and
    /// tracer — by then holding every record of every actor that ever ran,
    /// the trace time-ordered. Re-raises the first actor panic, however
    /// long ago that actor was reaped.
    pub fn shutdown(mut self) -> (Metrics, Tracer) {
        self.record_mailbox_gauges();
        let live = {
            let mut registry = self.shared.registry.write().unwrap();
            registry.closed = true;
            std::mem::take(&mut registry.live)
        };
        for slot in live.into_values() {
            slot.sender.push_control(Envelope::Kill);
        }
        let _ = self.shared.clock_tx.send(ClockCmd::Shutdown);
        if let Some(clock) = self.clock.take() {
            let _ = clock.join();
        }
        let mut running = self.shared.running.lock().unwrap();
        while *running > 0 {
            running = self.shared.all_reaped.wait(running).unwrap();
        }
        drop(running);
        // A panicked actor thread must not vanish into a clean shutdown —
        // re-raise so callers (tests, the benchmark) fail.
        if let Some(payload) = self.shared.panic.lock().unwrap().take() {
            resume_unwind(payload);
        }
        let metrics = std::mem::take(&mut *self.shared.metrics.lock().unwrap());
        let mut tracer = std::mem::take(&mut *self.shared.tracer.lock().unwrap());
        tracer.sort_by_time();
        (metrics, tracer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[derive(Debug)]
    enum TMsg {
        Ping(u64),
        Pong(u64),
        FlowDone { tag: u64, failed: bool },
    }

    impl KernelMsg for TMsg {
        fn flow_done(tag: u64, failed: bool) -> Self {
            TMsg::FlowDone { tag, failed }
        }
    }

    fn two_machine_cfg() -> RuntimeConfig {
        RuntimeConfig {
            machines: vec![
                MachineConfig {
                    rack: 0,
                    disk_bw_mbps: 100.0,
                    net_bw_mbps: 100.0,
                },
                MachineConfig {
                    rack: 0,
                    disk_bw_mbps: 100.0,
                    net_bw_mbps: 100.0,
                },
            ],
            ..RuntimeConfig::default()
        }
    }

    /// Echoes pings back; counts what it saw into a shared atomic.
    struct Echo {
        seen: Arc<AtomicU64>,
    }
    impl Actor<TMsg> for Echo {
        fn on_message(&mut self, ctx: &mut Ctx<'_, TMsg>, from: ActorId, msg: TMsg) {
            if let TMsg::Ping(n) = msg {
                self.seen.fetch_add(1, Ordering::SeqCst);
                ctx.send(from, TMsg::Pong(n));
            }
        }
    }

    /// Sends `n` pings, checks pongs arrive in send order (per-source FIFO).
    struct Pinger {
        peer: ActorId,
        n: u64,
        next_expected: u64,
        ordered: Arc<AtomicU64>,
    }
    impl Actor<TMsg> for Pinger {
        fn on_start(&mut self, ctx: &mut Ctx<'_, TMsg>) {
            for i in 0..self.n {
                ctx.send(self.peer, TMsg::Ping(i));
            }
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_, TMsg>, _from: ActorId, msg: TMsg) {
            if let TMsg::Pong(n) = msg {
                if n == self.next_expected {
                    self.next_expected += 1;
                    self.ordered.store(self.next_expected, Ordering::SeqCst);
                }
            }
        }
    }

    fn wait_for(cond: impl Fn() -> bool, timeout: Duration) -> bool {
        let start = Instant::now();
        while start.elapsed() < timeout {
            if cond() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        cond()
    }

    #[test]
    fn ping_pong_preserves_per_source_order() {
        let rt: LiveRuntime<TMsg> = LiveRuntime::new(two_machine_cfg());
        let seen = Arc::new(AtomicU64::new(0));
        let ordered = Arc::new(AtomicU64::new(0));
        let echo = rt.spawn(None, Box::new(Echo { seen: seen.clone() }));
        let n = 500;
        rt.spawn(
            None,
            Box::new(Pinger {
                peer: echo,
                n,
                next_expected: 0,
                ordered: ordered.clone(),
            }),
        );
        assert!(
            wait_for(|| ordered.load(Ordering::SeqCst) == n, Duration::from_secs(10)),
            "pongs arrived out of order or not at all: {}",
            ordered.load(Ordering::SeqCst)
        );
        assert_eq!(seen.load(Ordering::SeqCst), n);
        let (metrics, _tracer) = rt.shutdown();
        // Pinger's n pings + echo's n pongs.
        assert!(metrics.counter("net.sent") >= 2 * n);
        assert_eq!(metrics.counter("rt.actors_spawned"), 2);
    }

    /// Timer-driven counter actor.
    struct Ticker {
        fired: Arc<AtomicU64>,
    }
    impl Actor<TMsg> for Ticker {
        fn on_start(&mut self, ctx: &mut Ctx<'_, TMsg>) {
            ctx.timer(SimDuration::from_millis(5), 7);
        }
        fn on_message(&mut self, _: &mut Ctx<'_, TMsg>, _: ActorId, _: TMsg) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_, TMsg>, tag: u64) {
            assert_eq!(tag, 7);
            if self.fired.fetch_add(1, Ordering::SeqCst) < 4 {
                ctx.timer(SimDuration::from_millis(5), 7);
            }
        }
    }

    #[test]
    fn timers_fire_on_wall_clock() {
        let rt: LiveRuntime<TMsg> = LiveRuntime::new(two_machine_cfg());
        let fired = Arc::new(AtomicU64::new(0));
        rt.spawn(None, Box::new(Ticker { fired: fired.clone() }));
        assert!(
            wait_for(|| fired.load(Ordering::SeqCst) >= 5, Duration::from_secs(10)),
            "only {} timer fires",
            fired.load(Ordering::SeqCst)
        );
        rt.shutdown();
    }

    /// Starts one disk flow and records the completion.
    struct FlowUser {
        done: Arc<AtomicU64>,
    }
    impl Actor<TMsg> for FlowUser {
        fn on_start(&mut self, ctx: &mut Ctx<'_, TMsg>) {
            ctx.start_flow(FlowSpec {
                kind: fuxi_sim::FlowKind::DiskWrite { machine: 0 },
                size_mb: 0.5,
                tag: 42,
            });
        }
        fn on_message(&mut self, _: &mut Ctx<'_, TMsg>, _: ActorId, msg: TMsg) {
            if let TMsg::FlowDone { tag, failed } = msg {
                assert_eq!(tag, 42);
                assert!(!failed);
                self.done.fetch_add(1, Ordering::SeqCst);
            }
        }
    }

    #[test]
    fn flows_complete_on_wall_clock() {
        let rt: LiveRuntime<TMsg> = LiveRuntime::new(two_machine_cfg());
        let done = Arc::new(AtomicU64::new(0));
        rt.spawn(Some(0), Box::new(FlowUser { done: done.clone() }));
        // 0.5 MB at 100 MB/s = 5 ms.
        assert!(
            wait_for(|| done.load(Ordering::SeqCst) == 1, Duration::from_secs(10)),
            "flow completion never arrived"
        );
        rt.shutdown();
    }

    #[test]
    fn kill_machine_kills_placed_actors_only() {
        let rt: LiveRuntime<TMsg> = LiveRuntime::new(two_machine_cfg());
        let seen = Arc::new(AtomicU64::new(0));
        let on0 = rt.spawn(Some(0), Box::new(Echo { seen: seen.clone() }));
        let on1 = rt.spawn(Some(1), Box::new(Echo { seen: seen.clone() }));
        let free = rt.spawn(None, Box::new(Echo { seen: seen.clone() }));
        rt.kill_machine(0);
        assert!(wait_for(|| !rt.alive(on0), Duration::from_secs(5)));
        assert!(rt.alive(on1));
        assert!(rt.alive(free));
        assert!(!rt.machine_up(0));
        assert!(rt.machine_up(1));
        let (metrics, tracer) = rt.shutdown();
        assert_eq!(metrics.counter("fault.node_down"), 1);
        assert!(tracer
            .records
            .iter()
            .any(|r| matches!(r.event, TraceEvent::NodeDown { machine: 0 })));
    }

    /// Records one counter and one trace event, then exits.
    struct OneShot;
    impl Actor<TMsg> for OneShot {
        fn on_start(&mut self, ctx: &mut Ctx<'_, TMsg>) {
            ctx.metrics().count("test.one_shot", 1);
            ctx.trace(TraceEvent::NodeDown { machine: 77 });
            ctx.kill_self();
        }
        fn on_message(&mut self, _: &mut Ctx<'_, TMsg>, _: ActorId, _: TMsg) {}
    }

    fn reaped(rt: &LiveRuntime<TMsg>) -> u64 {
        rt.metrics_snapshot().counter("rt.actors_reaped")
    }

    #[test]
    fn exited_actor_is_reaped_at_once_and_counted_exactly_once() {
        let rt: LiveRuntime<TMsg> = LiveRuntime::new(two_machine_cfg());
        let seen = Arc::new(AtomicU64::new(0));
        let stays = rt.spawn(None, Box::new(Echo { seen }));
        let gone = rt.spawn(Some(1), Box::new(OneShot));
        assert!(wait_for(|| reaped(&rt) == 1, Duration::from_secs(5)));
        // Mid-run, long before shutdown: its records are in the sinks, it is
        // out of the registry, and its id is dead for good.
        assert_eq!(rt.metrics_snapshot().counter("test.one_shot"), 1);
        assert!(!rt.alive(gone) && rt.alive(stays));
        rt.send_external(gone, TMsg::Ping(0));
        rt.record_mailbox_gauges();
        assert_eq!(rt.metrics_snapshot().gauge("rt.actors_live"), 1.0);
        assert!(rt.spawn(None, Box::new(OneShot)).0 > gone.0, "ids are never reused");
        let (metrics, tracer) = rt.shutdown();
        assert_eq!(metrics.counter("test.one_shot"), 2);
        assert_eq!(metrics.counter("rt.actors_spawned"), 3);
        assert_eq!(metrics.counter("rt.actors_reaped"), 3);
        let is_mark = |r: &&fuxi_obs::TraceRecord| {
            r.actor == gone.0 && matches!(r.event, TraceEvent::NodeDown { machine: 77 })
        };
        assert_eq!(tracer.records.iter().filter(is_mark).count(), 1);
        assert!(tracer.records.windows(2).all(|w| w[0].t_s <= w[1].t_s), "trace is time-ordered");
    }

    /// When an [`ArmsLong`] actor exits.
    #[derive(Clone, Copy, PartialEq)]
    enum Exit {
        Never,
        /// Once the clock has armed its timers (the short one fired).
        AfterArming,
        /// Before it arms them, as a killed actor still draining would.
        BeforeArming,
    }

    /// Arms a minute-long timer and a short one.
    struct ArmsLong(Exit);
    impl Actor<TMsg> for ArmsLong {
        fn on_start(&mut self, ctx: &mut Ctx<'_, TMsg>) {
            if self.0 == Exit::BeforeArming {
                ctx.kill_self();
            }
            ctx.timer(SimDuration::from_secs(60), 1);
            ctx.timer(SimDuration::from_millis(5), 2);
        }
        fn on_message(&mut self, _: &mut Ctx<'_, TMsg>, _: ActorId, _: TMsg) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_, TMsg>, tag: u64) {
            if tag == 2 && self.0 == Exit::AfterArming {
                ctx.kill_self();
            }
        }
    }

    #[test]
    fn a_reaped_actor_leaves_no_timers_behind() {
        let cfg = RuntimeConfig { metrics_flush: Duration::from_millis(10), ..two_machine_cfg() };
        let rt: LiveRuntime<TMsg> = LiveRuntime::new(cfg);
        rt.spawn(None, Box::new(ArmsLong(Exit::Never)));
        // 2,000 short-lived actors, in waves so threads stay few.
        for wave in 1..=20 {
            let exit = if wave % 2 == 0 { Exit::AfterArming } else { Exit::BeforeArming };
            for _ in 0..100 {
                rt.spawn(None, Box::new(ArmsLong(exit)));
            }
            assert!(wait_for(|| reaped(&rt) == wave * 100, Duration::from_secs(10)));
        }
        let armed = || rt.metrics_snapshot().gauge("rt.timers_armed");
        assert!(
            wait_for(|| armed() == 1.0, Duration::from_secs(5)),
            "{} timers armed with one live actor",
            armed()
        );
        rt.shutdown();
    }

    fn real_time_us() -> u64 {
        let since = std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH);
        since.unwrap().as_micros() as u64
    }

    /// Re-arms a 7 ms timer each time one fires, and reports the real time
    /// of every firing.
    struct GridProbe(std::sync::mpsc::Sender<u64>);
    impl Actor<TMsg> for GridProbe {
        fn on_start(&mut self, ctx: &mut Ctx<'_, TMsg>) {
            ctx.timer(SimDuration::from_millis(7), 0);
        }
        fn on_message(&mut self, _: &mut Ctx<'_, TMsg>, _: ActorId, _: TMsg) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_, TMsg>, _: u64) {
            if self.0.send(real_time_us()).is_ok() {
                ctx.timer(SimDuration::from_millis(7), 0);
            }
        }
    }

    #[test]
    fn timers_fire_on_edges_of_the_real_time_tick_grid() {
        let tick_us = 50_000;
        let cfg = RuntimeConfig {
            timer_tick: Duration::from_micros(tick_us),
            ..two_machine_cfg()
        };
        // Start the runtime half a tick off the real-time grid, where a
        // wheel ticking from its own epoch would put its edges.
        let wait_us = (tick_us * 3 / 2 - real_time_us() % tick_us) % tick_us;
        std::thread::sleep(Duration::from_micros(wait_us));
        let rt: LiveRuntime<TMsg> = LiveRuntime::new(cfg);
        let (tx, rx) = std::sync::mpsc::channel();
        rt.spawn(None, Box::new(GridProbe(tx)));
        let fired = || {
            let at = rx.recv_timeout(Duration::from_secs(5));
            at.expect("timer fired")
        };
        let mut past_edge: Vec<u64> = (0..8).map(|_| fired() % tick_us).collect();
        drop(rx);
        rt.shutdown();
        // Such a wheel fires half a tick past the real edges; on the grid
        // only the clock thread's wake-up is late.
        past_edge.sort_unstable();
        assert!(
            past_edge[4] < tick_us / 5,
            "fired {past_edge:?} µs past a tick edge"
        );
    }

    struct Panicker;
    impl Actor<TMsg> for Panicker {
        fn on_start(&mut self, _: &mut Ctx<'_, TMsg>) {
            panic!("actor blew up");
        }
        fn on_message(&mut self, _: &mut Ctx<'_, TMsg>, _: ActorId, _: TMsg) {}
    }

    #[test]
    fn panic_of_a_long_reaped_actor_is_re_raised_by_shutdown() {
        let rt: LiveRuntime<TMsg> = LiveRuntime::new(two_machine_cfg());
        let bad = rt.spawn(None, Box::new(Panicker));
        assert!(wait_for(|| reaped(&rt) == 1, Duration::from_secs(5)));
        assert!(!rt.alive(bad), "a panicked actor leaves the registry");
        // The runtime carries on; the payload waits in `Shared`.
        let fired = Arc::new(AtomicU64::new(0));
        rt.spawn(None, Box::new(Ticker { fired: fired.clone() }));
        assert!(wait_for(|| fired.load(Ordering::SeqCst) >= 5, Duration::from_secs(10)));
        let payload = catch_unwind(AssertUnwindSafe(|| rt.shutdown())).expect_err("shutdown must re-raise");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"actor blew up"));
    }

    /// Blocks inside `on_start` until the test opens the gate, so that its
    /// mailbox fills behind it; counts what it is delivered afterwards.
    struct Gated {
        gate: std::sync::mpsc::Receiver<()>,
        flows: u64,
        seen: Arc<AtomicU64>,
    }
    impl Actor<TMsg> for Gated {
        fn on_start(&mut self, ctx: &mut Ctx<'_, TMsg>) {
            for tag in 0..self.flows {
                // Zero-size: the clock thread owes the completion at once.
                let kind = fuxi_sim::FlowKind::DiskWrite { machine: 0 };
                ctx.start_flow(FlowSpec { kind, size_mb: 0.0, tag });
            }
            self.gate.recv().unwrap();
        }
        fn on_message(&mut self, _: &mut Ctx<'_, TMsg>, _: ActorId, _: TMsg) {
            self.seen.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn tiny_mailboxes(capacity: usize) -> RuntimeConfig {
        RuntimeConfig { mailbox_capacity: capacity, ..two_machine_cfg() }
    }

    #[test]
    fn kill_reaches_an_actor_whose_mailbox_is_full() {
        let rt: LiveRuntime<TMsg> = LiveRuntime::new(tiny_mailboxes(2));
        let (open, gate) = std::sync::mpsc::channel();
        let seen = Arc::new(AtomicU64::new(0));
        let id = rt.spawn(None, Box::new(Gated { gate, flows: 0, seen: seen.clone() }));
        rt.send_external(id, TMsg::Ping(1));
        rt.send_external(id, TMsg::Ping(2)); // the box is at its bound
        rt.kill_actor(id);
        assert!(!rt.alive(id));
        open.send(()).unwrap();
        // The kill sat behind both pings, and was not dropped.
        assert!(wait_for(|| reaped(&rt) == 1, Duration::from_secs(5)), "kill was lost");
        assert_eq!(seen.load(Ordering::SeqCst), 2);
        rt.shutdown();
    }

    #[test]
    fn clock_keeps_ticking_while_it_owes_flow_completions_to_a_full_mailbox() {
        let rt: LiveRuntime<TMsg> = LiveRuntime::new(tiny_mailboxes(1));
        let (open, gate) = std::sync::mpsc::channel();
        let seen = Arc::new(AtomicU64::new(0));
        rt.spawn(Some(0), Box::new(Gated { gate, flows: 4, seen: seen.clone() }));
        // One completion fits; the other three must wait on the backlog, not
        // hold up this actor's timers.
        let fired = Arc::new(AtomicU64::new(0));
        rt.spawn(None, Box::new(Ticker { fired: fired.clone() }));
        assert!(
            wait_for(|| fired.load(Ordering::SeqCst) >= 5, Duration::from_secs(5)),
            "the clock thread parked on a full mailbox"
        );
        assert_eq!(seen.load(Ordering::SeqCst), 0);
        open.send(()).unwrap();
        assert!(wait_for(|| seen.load(Ordering::SeqCst) == 4, Duration::from_secs(5)));
        let (metrics, _) = rt.shutdown();
        assert!(metrics.counter("rt.clock_parked") >= 3);
    }

    #[test]
    fn shutdown_merges_thread_metrics() {
        let rt: LiveRuntime<TMsg> = LiveRuntime::new(two_machine_cfg());
        let seen = Arc::new(AtomicU64::new(0));
        let echo = rt.spawn(None, Box::new(Echo { seen: seen.clone() }));
        rt.send_external(echo, TMsg::Ping(1));
        assert!(wait_for(|| seen.load(Ordering::SeqCst) == 1, Duration::from_secs(5)));
        let (metrics, _) = rt.shutdown();
        // External send + echo's pong (to a dead ActorId::NONE).
        assert!(metrics.counter("net.sent") >= 2);
        assert!(metrics.gauge("rt.mailbox_hwm") >= 0.0);
    }
}
