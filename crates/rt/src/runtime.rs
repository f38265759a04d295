//! The live runtime: every actor a task on one fixed pool of threads,
//! timers on a real clock, mailboxes as bounded queues that grow as they
//! fill.
//!
//! The same actor code that runs under the deterministic kernel runs here
//! unchanged — handlers see a [`Ctx`] over `ActorCtx` below, the live
//! implementation of [`CtxOps`]. What changes is the execution substrate:
//!
//! * **Execution** is one scheduler: a pool of
//!   `std::thread::available_parallelism()` threads (two at least) runs
//!   every actor, however many there are. A push to an idle actor puts it
//!   on a shared run queue; a pool thread takes it off, runs a turn of up
//!   to 64 envelopes from its mailbox, and puts it back at the tail if
//!   more are queued. An actor runs on one thread at a time and sees its
//!   own mailbox in order. A handler that blocks holds its pool thread
//!   (see [`LiveRuntime::spawn`]).
//! * **Delivery** is one [`crate::mailbox`] per actor, whose lock also
//!   holds the actor's run state. A given sender's messages to a given
//!   destination arrive in send order (the kernel's per-source FIFO
//!   guarantee, restricted to each destination pair); there is no global
//!   order across destinations. A pool thread never waits on a full
//!   mailbox: an actor's send to one goes in past the bound, and the sender
//!   is *muted* — not run again until the destination's depth falls below
//!   its bound, when the destination's pop wakes it.
//! * **Timers** with a delay live in a hashed [`TimerWheel`] owned by one
//!   clock thread, which also drives the shared [`FlowNet`] I/O model on
//!   wall time. A zero-delay timer never reaches the clock: like `Start`
//!   and `Kill` it is a control envelope on the actor's own mailbox, so it
//!   fires behind whatever is already queued — the kernel's "same instant,
//!   after the backlog".
//! * **Observability** is per-actor: each actor owns a `Metrics` and a
//!   `Tracer` (so the hot path takes no locks), folded into the runtime's
//!   sinks periodically and, in full, when the actor exits.
//! * **Lifetime**: an actor is reaped by the pool thread that runs its
//!   `Kill` — observability folded, registry entry gone, mailbox closed,
//!   actor dropped — so the registry holds live actors only and a runtime
//!   can spawn for as long as it likes. Ids are never reused.
//!
//! Determinism is deliberately traded away: two runs of the same workload
//! interleave differently. The sim↔live parity test pins down what must
//! still agree — terminal job outcomes, not schedules.

use crate::mailbox::{mailbox, AtFull, MailboxGauges, MailboxReceiver, MailboxSender, PushOutcome};
use crate::timer::TimerWheel;
use fuxi_sim::{
    Actor, ActorId, CtxOps, FlowDone, FlowNet, FlowSpec, KernelMsg, MachineConfig, Metrics, SimDuration,
    SimTime,
};
use fuxi_sim::{Ctx, TracerConfig};
use fuxi_obs::{SpanKind, TraceEvent, TraceId, Tracer};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::any::Any;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::task::{Wake, Waker};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Live-runtime construction parameters.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Hardware description per machine (same shape the kernel takes).
    pub machines: Vec<MachineConfig>,
    /// Seed from which every actor's RNG is derived.
    pub seed: u64,
    /// Observability configuration applied to each per-actor tracer.
    pub obs: TracerConfig,
    /// Mailbox bound: beyond this depth a sending thread parks and a
    /// sending actor is muted (both counted as `rt.mailbox_parked`).
    pub mailbox_capacity: usize,
    /// Timer-wheel granularity: a timer with a non-zero delay fires at the
    /// first tick edge at or after its deadline (a zero delay skips the
    /// wheel and fires behind the actor's backlog). The default (10 ms) is
    /// wide enough that the control-plane work one timer sets off (an
    /// instance's completion: report, batch flush, grant, worker start,
    /// assignment, up to the next timer) finishes inside the tick, even
    /// across processes, so a job's path is a count of ticks and does not
    /// stretch with the host's load. At 2 ms that work spills over tick
    /// edges by chance, and light-load throughput varies ±8 % from run to
    /// run.
    pub timer_tick: Duration,
    /// How often each actor folds its private metrics into the
    /// runtime-global sink (checked at the end of each of its turns on the
    /// pool, so an idle actor folds at its next turn or when it is reaped),
    /// and how often the clock thread samples mailbox depths. Sub-second
    /// values make the scrape endpoint near-live; the shutdown merge still
    /// catches whatever accumulated since the last flush.
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
    /// Reap the actor.
    Kill,
}

/// A timer with a delay, armed at `at` and waiting for the clock thread
/// to put it on the wheel.
struct NewTimer {
    actor: ActorId,
    at: SimTime,
    delay: SimDuration,
    tag: u64,
}

/// Commands to the clock thread.
enum ClockCmd {
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
    Shutdown,
}

struct ActorSlot<M: KernelMsg + Send + 'static> {
    task: Arc<Task<M>>,
    machine: Option<u32>,
}

/// The live actors, by id. An entry leaves when its actor is killed or
/// reaped, whichever is first; ids only grow, so a dead id stays dead.
struct Registry<M: KernelMsg + Send + 'static> {
    live: BTreeMap<u32, ActorSlot<M>>,
    /// Set by `shutdown`: actors spawned from then on are born dead, so
    /// that what `shutdown` waits for cannot grow behind its back.
    closed: bool,
}

struct MachineState {
    up: bool,
    procs: BTreeMap<ActorId, Vec<u8>>,
}

/// State shared by every thread of one runtime.
struct Shared<M: KernelMsg + Send + 'static> {
    epoch: Instant,
    cfg: RuntimeConfig,
    /// The next actor id, as an offset into this runtime's window.
    next_id: AtomicU32,
    registry: RwLock<Registry<M>>,
    /// Actors not yet reaped; `shutdown` waits on `all_reaped` for it to
    /// reach zero.
    running: Mutex<usize>,
    all_reaped: Condvar,
    /// First panic of an actor, for `shutdown` to re-raise.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Deepest mailbox of any exited actor (live ones carry their own).
    hwm_exited: AtomicUsize,
    machines: RwLock<Vec<MachineState>>,
    clock_tx: Sender<ClockCmd>,
    /// Timers armed since the clock thread last woke. Arming one does not
    /// wake it: no timer can fire before the next tick edge, where the
    /// clock wakes anyway and wheels these first, each from the instant it
    /// was armed.
    new_timers: Mutex<Vec<NewTimer>>,
    /// Runtime-global sinks: fault events, external sends, and what every
    /// actor folds in (periodically, and in full when it is reaped).
    metrics: Mutex<Metrics>,
    tracer: Mutex<Tracer>,
    /// Cluster metrics view, if a harness attached one: the clock thread
    /// samples mailbox pressure into it.
    hub: Mutex<Option<fuxi_obs::MetricsHub>>,
    /// Outbound path for destinations in other processes.
    remote_router: RwLock<Option<RemoteRouter<M>>>,
    /// Liveness oracle for remote ids (`ctx.alive` on a peer's actor).
    remote_alive: RwLock<Option<RemoteAlive>>,
    /// Where actors with envelopes to handle wait for a pool thread.
    runq: Arc<RunQueue<M>>,
}

impl<M: KernelMsg + Send + 'static> Shared<M> {
    fn now(&self) -> SimTime {
        SimTime(self.epoch.elapsed().as_micros() as u64)
    }

    /// `true` when `id` belongs to this runtime's actor-id window.
    fn is_local(&self, id: ActorId) -> bool {
        same_window(id.0, self.cfg.actor_base)
    }

    /// The task of a live local actor, cloned under the read lock and used
    /// outside it (a parked push must never hold the registry lock).
    fn task_of(&self, id: ActorId) -> Option<Arc<Task<M>>> {
        let registry = self.registry.read().unwrap();
        registry.live.get(&id.0).map(|s| Arc::clone(&s.task))
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

    /// Delivers `env` from a thread outside the pool, parking the caller
    /// while a local mailbox is full.
    fn push_envelope(&self, to: ActorId, env: Envelope<M>) -> PushOutcome {
        if !self.is_local(to) {
            return self.route_remote(to, env);
        }
        match self.task_of(to) {
            Some(task) => task.push(env, AtFull::Park),
            None => PushOutcome::Dead,
        }
    }

    /// Puts a control envelope on a live local actor's own mailbox: never
    /// refused, never waited for, behind whatever is queued, and dropped
    /// once the actor is unregistered.
    fn push_control(&self, id: ActorId, env: Envelope<M>) {
        if let Some(task) = self.task_of(id) {
            task.push(env, AtFull::Pass);
        }
    }

    /// A flow completion, told to the flow's owner.
    fn flow_done(&self, done: FlowDone) {
        let msg = M::flow_done(done.tag, done.failed);
        self.push_control(done.owner, Envelope::Msg { from: done.owner, msg, trace: TraceId::NONE });
    }

    fn spawn(self: &Arc<Self>, machine: Option<u32>, actor: Box<dyn Actor<M> + Send>, trace: TraceId) -> ActorId {
        let n = self.next_id.fetch_add(1, Ordering::Relaxed);
        assert!(n < (1 << ACTOR_WINDOW_SHIFT), "actor-id window exhausted");
        let id = ActorId(self.cfg.actor_base + n);
        let (tx, rx, _) = mailbox(self.cfg.mailbox_capacity);
        // First in the box, before anyone can learn the id; it leaves the
        // task queued, for this spawn to put on the run queue.
        tx.send(Envelope::Start { trace }, AtFull::Pass);
        let task = Arc::new(Task {
            tx,
            body: Mutex::new(Some(Body::new(self, id, machine, actor, rx))),
            runq: Arc::clone(&self.runq),
        });
        let registered = {
            let mut registry = self.registry.write().unwrap();
            if !registry.closed {
                registry.live.insert(id.0, ActorSlot { task: Arc::clone(&task), machine });
                // Counted before anyone can kill it: its reaping must find
                // it counted.
                *self.running.lock().unwrap() += 1;
            }
            !registry.closed
        };
        if registered {
            self.metrics.lock().unwrap().count("rt.actors_spawned", 1);
            self.runq.push(task);
        }
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
            slot.task.push(Envelope::Kill, AtFull::Pass);
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
                let g = s.task.tx.gauges();
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

/// Most envelopes an actor handles in one turn on a pool thread before it
/// goes back to the tail of the run queue, so that one busy actor (a
/// master at saturation) cannot keep a pool thread from everyone else.
const TURN: usize = 64;

/// The pool's shared run queue: actors with envelopes to handle, in the
/// order they became ready.
struct RunQueue<M: KernelMsg + Send + 'static> {
    state: Mutex<RunState<M>>,
    ready: Condvar,
}

struct RunState<M: KernelMsg + Send + 'static> {
    tasks: VecDeque<Arc<Task<M>>>,
    /// Pool threads waiting on `ready`: a push signals only when one is.
    idle: usize,
    /// Set by `shutdown` once every actor is reaped.
    stopped: bool,
}

impl<M: KernelMsg + Send + 'static> RunQueue<M> {
    fn new() -> Self {
        let state = RunState { tasks: VecDeque::new(), idle: 0, stopped: false };
        RunQueue { state: Mutex::new(state), ready: Condvar::new() }
    }

    fn push(&self, task: Arc<Task<M>>) {
        let wake = {
            let mut state = self.state.lock().unwrap();
            state.tasks.push_back(task);
            state.idle > 0
        };
        if wake {
            self.ready.notify_one();
        }
    }

    /// The next ready actor, waiting for one; `None` once stopped.
    fn pop(&self) -> Option<Arc<Task<M>>> {
        let mut state = self.state.lock().unwrap();
        loop {
            if let Some(task) = state.tasks.pop_front() {
                return Some(task);
            }
            if state.stopped {
                return None;
            }
            state.idle += 1;
            state = self.ready.wait(state).unwrap();
            state.idle -= 1;
        }
    }

    fn stop(&self) {
        self.state.lock().unwrap().stopped = true;
        self.ready.notify_all();
    }
}

/// Body of a pool thread: runs turns of whatever actor is ready next.
fn pool_thread<M: KernelMsg + Send + 'static>(runq: Arc<RunQueue<M>>) {
    while let Some(task) = runq.pop() {
        task.run();
    }
}

/// One actor as the pool sees it: its mailbox, whose lock also holds the
/// task's run state (idle, queued or running, muted), and the actor itself.
///
/// A task is on the run queue at most once: it is queued only by whoever
/// moved its run state to queued inside the mailbox's lock — a push to an
/// idle task, a push that fills a muted task's own box, the wake of a
/// muted task — or by the pool thread whose turn ends with envelopes still
/// queued, which leaves the state queued. Each of those is one critical
/// section on the one lock, so a push and a turn end cannot both miss, or
/// both take, the task.
struct Task<M: KernelMsg + Send + 'static> {
    tx: MailboxSender<Envelope<M>>,
    /// The actor and what it owns; `None` once reaped. Only the pool
    /// thread running the task's turn locks it.
    body: Mutex<Option<Body<M>>>,
    runq: Arc<RunQueue<M>>,
}

/// How a turn ended.
enum TurnEnd<M: KernelMsg + Send + 'static> {
    /// Out of envelopes or out of turn.
    Yield,
    /// A handler overfilled this mailbox: wait for room in it.
    Muted(Arc<MailboxGauges<Envelope<M>>>),
    /// `Kill`, or a handler panicked: reap the actor.
    Exit,
}

impl<M: KernelMsg + Send + 'static> Task<M> {
    /// Pushes `env`, meeting a full mailbox as `at_full` says, and queues
    /// the task when the push leaves that to the pusher. A full mailbox
    /// ends a mute — others wait on this actor, so it must run (which is
    /// what keeps muting free of deadlock: every muted actor waits on a
    /// full box, and a full box's actor is never left muted).
    fn push(self: &Arc<Self>, env: Envelope<M>, at_full: AtFull) -> PushOutcome {
        let (sent, queue) = self.tx.send(env, at_full);
        if queue {
            self.runq.push(Arc::clone(self));
        }
        sent
    }

    /// One turn on the calling pool thread.
    fn run(self: Arc<Self>) {
        let mut body = self.body.lock().unwrap();
        // `None` once reaped: the box is closed and the run state stays
        // queued, so it is never queued again.
        let Some(end) = body.as_mut().map(Body::turn) else { return };
        let mailbox = self.tx.gauges();
        let again = match end {
            TurnEnd::Exit => {
                let reaped = body.take().expect("a body to reap");
                drop(body);
                reaped.reap();
                false
            }
            TurnEnd::Muted(dest) => {
                drop(body);
                // Muted before it registers on `dest` under that box's
                // lock, so a wake that follows the registration finds it
                // muted. An actor whose own box is full runs on instead.
                let muted = mailbox.mute();
                if muted {
                    dest.wake_when_room(Waker::from(Arc::clone(&self)));
                }
                !muted
            }
            TurnEnd::Yield => {
                drop(body);
                mailbox.end_turn()
            }
        };
        if again {
            self.runq.push(Arc::clone(&self)); // at the tail
        }
    }
}

impl<M: KernelMsg + Send + 'static> Wake for Task<M> {
    fn wake(self: Arc<Self>) {
        if self.tx.gauges().unmute() {
            self.runq.push(Arc::clone(&self));
        }
    }
}

/// An actor and everything it owns, lent to whichever pool thread runs
/// its turn.
struct Body<M: KernelMsg + Send + 'static> {
    actor: Box<dyn Actor<M> + Send>,
    rx: MailboxReceiver<Envelope<M>>,
    ctx: ActorCtx<M>,
    last_flush: Instant,
}

impl<M: KernelMsg + Send + 'static> Body<M> {
    fn new(
        shared: &Arc<Shared<M>>,
        id: ActorId,
        machine: Option<u32>,
        actor: Box<dyn Actor<M> + Send>,
        rx: MailboxReceiver<Envelope<M>>,
    ) -> Self {
        // Stagger each actor's flush phase across the interval: hundreds
        // of actors started in the same instant would otherwise all fold
        // their metrics in the same tick, a burst of merges on the shared
        // sink that holds up time-critical actors (e.g. the master's lease
        // keepalive) queued behind it on the pool.
        let phase = shared.cfg.metrics_flush.mul_f64(f64::from(id.0 % 64) / 64.0);
        let ctx = ActorCtx {
            id,
            machine,
            clock_tx: shared.clock_tx.clone(),
            rng: SmallRng::seed_from_u64(
                shared.cfg.seed.wrapping_add(u64::from(id.0).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            ),
            shared: Arc::clone(shared),
            metrics: Metrics::new(),
            tracer: Tracer::new(shared.cfg.obs.clone()),
            current_trace: TraceId::NONE,
            overfilled: None,
        };
        let last_flush = Instant::now().checked_sub(phase).unwrap_or_else(Instant::now);
        Body { actor, rx, ctx, last_flush }
    }

    /// Handles up to [`TURN`] envelopes; stops early at `Kill`, at a
    /// panic, and after a handler that overfilled a mailbox.
    fn turn(&mut self) -> TurnEnd<M> {
        let mut end = TurnEnd::Yield;
        for _ in 0..TURN {
            let Some(env) = self.rx.pop() else { break };
            let Body { actor, ctx, .. } = self;
            match catch_unwind(AssertUnwindSafe(|| ctx.handle(actor.as_mut(), env))) {
                Ok(true) => {}
                Ok(false) => return TurnEnd::Exit,
                Err(payload) => {
                    self.ctx.shared.panic.lock().unwrap().get_or_insert(payload);
                    return TurnEnd::Exit;
                }
            }
            if let Some(dest) = self.ctx.overfilled.take() {
                end = TurnEnd::Muted(dest);
                break;
            }
        }
        self.flush_if_due();
        end
    }

    /// Periodic flush: folds this actor's private metrics into the
    /// runtime-global sink so live scrapes see near-current data instead
    /// of waiting for the actor to exit. Safe because actor code only uses
    /// additive instruments (counters, gauge deltas, histograms) whose
    /// merge is take-and-sum.
    fn flush_if_due(&mut self) {
        let every = self.ctx.shared.cfg.metrics_flush;
        if every > Duration::ZERO && self.last_flush.elapsed() >= every {
            let m = std::mem::take(&mut self.ctx.metrics);
            self.ctx.shared.metrics.lock().unwrap().merge(&m);
            self.last_flush = Instant::now();
        }
    }

    /// Reaps the actor: drops it, takes it out of the registry, closes its
    /// mailbox (parked senders see a dead actor, muted ones wake), folds
    /// everything it recorded into the runtime's sinks, and reports it gone.
    fn reap(self) {
        let Body { actor, rx, ctx, .. } = self;
        let ActorCtx { id, shared, metrics, tracer, .. } = ctx;
        // A panicking `Drop` must not skip the reaping below.
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| drop(actor))) {
            shared.panic.lock().unwrap().get_or_insert(payload);
        }
        shared.unregister(id); // already gone unless the actor ended by panic
        shared.hwm_exited.fetch_max(rx.gauges().hwm(), Ordering::Relaxed);
        drop(rx);
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
}

/// The live side of the actor contract: one per actor, owning that actor's
/// RNG, metrics, and tracer.
struct ActorCtx<M: KernelMsg + Send + 'static> {
    /// This actor and its placement. Kept here because a killed actor
    /// leaves the registry at once but still drains what was queued before
    /// the kill, and must go on knowing where it runs.
    id: ActorId,
    machine: Option<u32>,
    shared: Arc<Shared<M>>,
    clock_tx: Sender<ClockCmd>,
    rng: SmallRng,
    metrics: Metrics,
    tracer: Tracer,
    current_trace: TraceId,
    /// The last mailbox this actor's current handler pushed past its bound:
    /// the actor is muted on it when the handler returns.
    overfilled: Option<Arc<MailboxGauges<Envelope<M>>>>,
}

impl<M: KernelMsg + Send + 'static> ActorCtx<M> {
    /// Runs the handler `env` calls for; `false` at `Kill`.
    fn handle(&mut self, actor: &mut (dyn Actor<M> + Send), env: Envelope<M>) -> bool {
        let id = self.id;
        match env {
            Envelope::Start { trace } => {
                self.current_trace = trace;
                actor.on_start(&mut Ctx::new(self, id));
            }
            Envelope::Msg { from, msg, trace } => {
                self.current_trace = trace;
                actor.on_message(&mut Ctx::new(self, id), from, msg);
            }
            Envelope::Timer { tag } => {
                // Like the kernel: timer-driven activity has no inherited
                // causal context unless the actor re-establishes it.
                self.current_trace = TraceId::NONE;
                actor.on_timer(&mut Ctx::new(self, id), tag);
            }
            Envelope::Kill => return false,
        }
        true
    }
}

impl<M: KernelMsg + Send + 'static> CtxOps<M> for ActorCtx<M> {
    fn now(&self) -> SimTime {
        self.shared.now()
    }

    /// Never waits: a full local mailbox takes the message past its bound,
    /// and this actor is muted on it once the handler returns.
    fn send(&mut self, from: ActorId, to: ActorId, msg: M, trace: TraceId) {
        self.metrics.count("net.sent", 1);
        let env = Envelope::Msg { from, msg, trace };
        let sent = if !self.shared.is_local(to) {
            self.shared.route_remote(to, env)
        } else if let Some(task) = self.shared.task_of(to) {
            let sent = task.push(env, AtFull::Overflow);
            if sent == PushOutcome::SentParked {
                self.overfilled = Some(Arc::clone(task.tx.gauges()));
            }
            sent
        } else {
            PushOutcome::Dead
        };
        match sent {
            PushOutcome::Sent => {}
            PushOutcome::SentParked => self.metrics.count("rt.mailbox_parked", 1),
            PushOutcome::Dead => self.metrics.count("net.to_dead", 1),
        }
    }

    /// A zero delay is the kernel's "same instant, after the backlog": the
    /// timer goes straight onto the actor's own mailbox, behind whatever is
    /// queued, and never waits for a wheel edge. It is a control push (it
    /// must not mute an actor on its own box), and an actor no longer
    /// registered drops it, as `ClockCmd::Forget` drops its wheel timers.
    fn timer(&mut self, actor: ActorId, delay: SimDuration, tag: u64) {
        if delay == SimDuration::ZERO {
            self.shared.push_control(actor, Envelope::Timer { tag });
            return;
        }
        let at = self.shared.now();
        self.shared.new_timers.lock().unwrap().push(NewTimer { actor, at, delay, tag });
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

    /// Live machines have no slow-machine fault: every one runs at 1.0.
    fn machine_speed(&self, _m: u32) -> f64 {
        1.0
    }

    /// Live machines have no partial-worker fault: launches succeed
    /// wherever the machine is up.
    fn launch_ok(&self, m: u32) -> bool {
        self.machine_up(m)
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

    /// A zero-size flow (a download of an empty package) is done the
    /// moment it starts, so, as in the kernel, its completion goes
    /// straight onto the owner's mailbox behind the backlog instead of
    /// through the clock thread, by the zero-delay timer's rule.
    fn start_flow(&mut self, owner: ActorId, spec: FlowSpec) {
        if spec.size_mb <= 0.0 {
            let msg = M::flow_done(spec.tag, false);
            self.shared.push_control(owner, Envelope::Msg { from: owner, msg, trace: self.current_trace });
            return;
        }
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
/// driven by wall time. What it owes an actor — a timer's expiry, a flow's
/// completion — is a control push: past a full mailbox's bound, never
/// waited for (a stuck actor must not stall every timer in the runtime),
/// and bounded per actor by the timers and flows it armed.
fn clock_thread<M: KernelMsg + Send + 'static>(
    shared: Arc<Shared<M>>,
    rx: Receiver<ClockCmd>,
) {
    let tick_us = shared.cfg.timer_tick.as_micros().max(100) as u64;
    // Each entry is a timer, `(actor, tag)`.
    let mut wheel: TimerWheel<(ActorId, u64)> = TimerWheel::new(512, tick_us);
    // Each actor's armed ticks (fired ones pruned as it arms more), so that
    // forgetting an actor touches only its own slots.
    let mut armed: HashMap<ActorId, Vec<u64>> = HashMap::new();
    let disk_bw: Vec<f64> = shared.cfg.machines.iter().map(|m| m.disk_bw_mbps).collect();
    let net_bw: Vec<f64> = shared.cfg.machines.iter().map(|m| m.net_bw_mbps).collect();
    let mut flows = FlowNet::new(disk_bw, net_bw);
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
        while let Some(cmd) = first.take() {
            let now = shared.now();
            match cmd {
                ClockCmd::Shutdown => shutdown = true,
                ClockCmd::StartFlow { owner, spec } => {
                    // (`start_flow` completes a zero-size flow itself.)
                    if let Some(done) = flows.start(now, owner, spec) {
                        shared.flow_done(done);
                    }
                }
                ClockCmd::CancelFlows { owner } => flows.cancel_owned_by(now, owner),
                ClockCmd::Forget { owner } => {
                    flows.cancel_owned_by(now, owner);
                    for tick in armed.remove(&owner).unwrap_or_default() {
                        wheel.cancel(tick, |&(actor, _)| actor == owner);
                    }
                }
                ClockCmd::FailMachine { m } => {
                    for done in flows.fail_machine(now, m) {
                        shared.flow_done(done);
                    }
                }
            }
            first = rx.try_recv().ok();
        }
        if shutdown {
            return;
        }

        let now = shared.now();
        let new_timers = std::mem::take(&mut *shared.new_timers.lock().unwrap());
        for NewTimer { actor, at, delay, tag } in new_timers {
            // A timer armed by an actor already gone (killed while it
            // drained its mailbox) could only ever fire into the void.
            if shared.alive(actor) {
                let tick = wheel.arm(grid(at), delay, (actor, tag));
                let ticks = armed.entry(actor).or_default();
                ticks.retain(|&t| t > grid(now).0 / tick_us);
                ticks.push(tick);
            }
        }
        for (actor, tag) in wheel.expire(grid(now)) {
            shared.push_control(actor, Envelope::Timer { tag });
        }
        for done in flows.advance(now) {
            shared.flow_done(done);
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

/// A running live world: a pool of threads that runs every actor, and a
/// clock thread. Dropping it without [`LiveRuntime::shutdown`] leaves the
/// threads running; call `shutdown` to stop them and collect the merged
/// observability streams.
pub struct LiveRuntime<M: KernelMsg + Send + 'static> {
    shared: Arc<Shared<M>>,
    clock: Option<JoinHandle<()>>,
    pool: Vec<JoinHandle<()>>,
}

impl<M: KernelMsg + Send + 'static> LiveRuntime<M> {
    /// Boots the runtime: machine table, clock thread, and a pool of
    /// `std::thread::available_parallelism()` threads (two at least, so
    /// that one handler that blocks cannot stop the world); no actors yet.
    pub fn new(cfg: RuntimeConfig) -> Self {
        let (clock_tx, clock_rx) = std::sync::mpsc::channel();
        let machines = cfg
            .machines
            .iter()
            .map(|_| MachineState {
                up: true,
                procs: BTreeMap::new(),
            })
            .collect();
        let shared = Arc::new(Shared {
            epoch: Instant::now(),
            cfg,
            next_id: AtomicU32::new(0),
            registry: RwLock::new(Registry { live: BTreeMap::new(), closed: false }),
            running: Mutex::new(0),
            all_reaped: Condvar::new(),
            panic: Mutex::new(None),
            hwm_exited: AtomicUsize::new(0),
            machines: RwLock::new(machines),
            clock_tx,
            new_timers: Mutex::new(Vec::new()),
            metrics: Mutex::new(Metrics::new()),
            tracer: Mutex::new(Tracer::default()),
            hub: Mutex::new(None),
            remote_router: RwLock::new(None),
            remote_alive: RwLock::new(None),
            runq: Arc::new(RunQueue::new()),
        });
        let clock = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("fuxi-clock".into())
                .spawn(move || clock_thread(shared, clock_rx))
                .expect("spawn clock thread")
        };
        let threads = std::thread::available_parallelism().map_or(2, |n| n.get()).max(2);
        let pool = (0..threads)
            .map(|i| {
                let runq = Arc::clone(&shared.runq);
                std::thread::Builder::new()
                    .name(format!("fuxi-pool-{i}"))
                    .spawn(move || pool_thread(runq))
                    .expect("spawn pool thread")
            })
            .collect();
        LiveRuntime {
            shared,
            clock: Some(clock),
            pool,
        }
    }

    /// Threads in the pool that runs every actor.
    pub fn pool_threads(&self) -> usize {
        self.pool.len()
    }

    /// Wall-clock time since the runtime epoch.
    pub fn now(&self) -> SimTime {
        self.shared.now()
    }

    /// Spawns an actor, optionally placed on a machine. It runs on the
    /// runtime's pool, one turn at a time, never on two threads at once.
    ///
    /// A handler that blocks — on a channel, a lock held across handlers,
    /// a sleep — holds its pool thread for as long as it blocks, and with it
    /// every actor that thread would have run. No production actor blocks;
    /// a test actor may, for as long as the pool's other thread is enough.
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

    /// Delivers messages that arrived from a peer process, preserving the
    /// remote sender's address: the node supervisor's inbound path, as a
    /// handle its reader threads can own without borrowing the runtime.
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

    /// Terminates one actor (it is reaped after it drains what was queued
    /// before the kill).
    pub fn kill_actor(&self, id: ActorId) {
        self.shared.kill(id);
    }

    /// `true` while `id` is registered: spawned, and neither killed nor
    /// reaped. Messages to it are accepted.
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
    /// in it in full; with periodic per-actor flushes (`metrics_flush`)
    /// only what each live actor recorded since its last flush is missing.
    pub fn metrics_snapshot(&self) -> Metrics {
        self.shared.metrics.lock().unwrap().clone()
    }

    /// Stops everything: kills the live actors, waits until every actor
    /// has been reaped, stops the pool, and returns the runtime-global metrics and
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
            slot.task.push(Envelope::Kill, AtFull::Pass);
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
        self.shared.runq.stop();
        for thread in self.pool.drain(..) {
            let _ = thread.join();
        }
        // A panicked actor must not vanish into a clean shutdown —
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
        // 2,000 short-lived actors, in waves.
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

    /// Sends itself three pings, then arms a zero-delay timer; reports each
    /// handler it runs, and the instant of the timer.
    struct Backlogged(std::sync::mpsc::Sender<(String, Instant)>);
    impl Actor<TMsg> for Backlogged {
        fn on_start(&mut self, ctx: &mut Ctx<'_, TMsg>) {
            for n in 0..3 {
                ctx.send(ctx.id(), TMsg::Ping(n));
            }
            ctx.timer(SimDuration::ZERO, 9);
        }
        fn on_message(&mut self, _: &mut Ctx<'_, TMsg>, _: ActorId, msg: TMsg) {
            let _ = self.0.send((format!("{msg:?}"), Instant::now()));
        }
        fn on_timer(&mut self, _: &mut Ctx<'_, TMsg>, tag: u64) {
            let _ = self.0.send((format!("timer {tag}"), Instant::now()));
        }
    }

    #[test]
    fn a_zero_delay_timer_fires_after_the_backlog_without_waiting_for_a_tick() {
        // A one-second wheel: a timer that went through it would wait for
        // the next edge, up to a second away.
        let cfg = RuntimeConfig { timer_tick: Duration::from_secs(1), ..two_machine_cfg() };
        let rt: LiveRuntime<TMsg> = LiveRuntime::new(cfg);
        let (tx, rx) = std::sync::mpsc::channel();
        let start = Instant::now();
        rt.spawn(None, Box::new(Backlogged(tx)));
        let seen: Vec<(String, Instant)> = (0..4)
            .map(|_| rx.recv_timeout(Duration::from_secs(5)).expect("handler ran"))
            .collect();
        rt.shutdown();
        let order: Vec<&str> = seen.iter().map(|(what, _)| what.as_str()).collect();
        assert_eq!(order, ["Ping(0)", "Ping(1)", "Ping(2)", "timer 9"]);
        let fired_after = seen[3].1 - start;
        assert!(fired_after < Duration::from_millis(200), "fired {fired_after:?} after start");
    }

    /// Sends itself a ping, then starts a zero-size flow; reports both.
    struct EmptyDownload(std::sync::mpsc::Sender<(String, Instant)>);
    impl Actor<TMsg> for EmptyDownload {
        fn on_start(&mut self, ctx: &mut Ctx<'_, TMsg>) {
            ctx.send(ctx.id(), TMsg::Ping(0));
            let kind = fuxi_sim::FlowKind::DiskRead { machine: 0 };
            ctx.start_flow(FlowSpec { kind, size_mb: 0.0, tag: 4 });
        }
        fn on_message(&mut self, _: &mut Ctx<'_, TMsg>, _: ActorId, msg: TMsg) {
            let _ = self.0.send((format!("{msg:?}"), Instant::now()));
        }
    }

    #[test]
    fn a_zero_size_flow_completes_behind_the_backlog_at_once() {
        let cfg = RuntimeConfig { timer_tick: Duration::from_secs(1), ..two_machine_cfg() };
        let rt: LiveRuntime<TMsg> = LiveRuntime::new(cfg);
        let (tx, rx) = std::sync::mpsc::channel();
        let start = Instant::now();
        rt.spawn(Some(0), Box::new(EmptyDownload(tx)));
        let seen: Vec<(String, Instant)> = (0..2)
            .map(|_| rx.recv_timeout(Duration::from_secs(5)).expect("handler ran"))
            .collect();
        rt.shutdown();
        let order: Vec<&str> = seen.iter().map(|(what, _)| what.as_str()).collect();
        assert_eq!(order, ["Ping(0)", "FlowDone { tag: 4, failed: false }"]);
        let done_after = seen[1].1 - start;
        assert!(done_after < Duration::from_millis(200), "done {done_after:?} after start");
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
                // A byte: the clock thread owes the completion at its next
                // turn. (A zero-size flow never reaches the clock.)
                let kind = fuxi_sim::FlowKind::DiskWrite { machine: 0 };
                ctx.start_flow(FlowSpec { kind, size_mb: 1e-6, tag });
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
        let gated = rt.spawn(Some(0), Box::new(Gated { gate, flows: 4, seen: seen.clone() }));
        // The four completions go past the bound of one; none may hold up
        // this actor's timers.
        let fired = Arc::new(AtomicU64::new(0));
        rt.spawn(None, Box::new(Ticker { fired: fired.clone() }));
        assert!(
            wait_for(|| fired.load(Ordering::SeqCst) >= 5, Duration::from_secs(5)),
            "the clock thread stalled on a full mailbox"
        );
        let depth = rt.shared.task_of(gated).expect("gated is live").tx.gauges().depth();
        assert!(depth >= 1, "the box was not full while the ticker fired");
        assert_eq!(seen.load(Ordering::SeqCst), 0);
        open.send(()).unwrap();
        assert!(
            wait_for(|| seen.load(Ordering::SeqCst) == 4, Duration::from_secs(5)),
            "{} of 4 flow completions arrived",
            seen.load(Ordering::SeqCst)
        );
        rt.shutdown();
        assert_eq!(seen.load(Ordering::SeqCst), 4);
    }

    /// Sends one ping to `to`, a full box, which mutes it, and arms a
    /// zero-delay timer on itself, which it can run only once unmuted;
    /// counts that timer.
    struct Overfiller {
        to: ActorId,
        ran: Arc<AtomicU64>,
    }
    impl Actor<TMsg> for Overfiller {
        fn on_start(&mut self, ctx: &mut Ctx<'_, TMsg>) {
            ctx.send(self.to, TMsg::Ping(0));
            ctx.timer(SimDuration::ZERO, 0);
        }
        fn on_message(&mut self, _: &mut Ctx<'_, TMsg>, _: ActorId, _: TMsg) {}
        fn on_timer(&mut self, _: &mut Ctx<'_, TMsg>, _: u64) {
            self.ran.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// A box of two is full, a thread is parked on it and two actors are
    /// muted on it; then its actor is killed. The kill sits behind the
    /// backlog: when the actor drains it, the room that makes releases the
    /// waiters, or the close does if they see it first. When the handler
    /// that held the box up panics instead, the actor leaves the box full
    /// and only the close releases them: the thread's push is `Dead`. Either
    /// way the push returns and both muted actors run their next handler.
    #[test]
    fn closing_a_full_box_releases_its_parked_thread_and_muted_actors() {
        for panics in [false, true] {
            let rt: LiveRuntime<TMsg> = LiveRuntime::new(tiny_mailboxes(2));
            let (open, gate) = std::sync::mpsc::channel();
            let seen = Arc::new(AtomicU64::new(0));
            let full = rt.spawn(None, Box::new(Gated { gate, flows: 0, seen: seen.clone() }));
            rt.send_external(full, TMsg::Ping(1));
            rt.send_external(full, TMsg::Ping(2));
            let waiters = {
                let task = rt.shared.task_of(full).expect("live");
                let gauges = Arc::clone(task.tx.gauges());
                move || gauges.waiters()
            };
            let (pushed_tx, pushed) = std::sync::mpsc::channel();
            let shared = Arc::clone(&rt.shared);
            let parked = std::thread::spawn(move || {
                let env = Envelope::Msg { from: ActorId::NONE, msg: TMsg::Ping(3), trace: TraceId::NONE };
                let _ = pushed_tx.send(shared.push_envelope(full, env));
            });
            assert!(wait_for(|| waiters().0 == 1, Duration::from_secs(5)), "the thread never parked");
            let ran = Arc::new(AtomicU64::new(0));
            for _ in 0..2 {
                rt.spawn(None, Box::new(Overfiller { to: full, ran: ran.clone() }));
            }
            assert!(
                wait_for(|| waiters() == (1, 2), Duration::from_secs(5)),
                "waiters {:?}, not one thread and two actors",
                waiters()
            );
            rt.kill_actor(full);
            if panics {
                drop(open); // `Gated` unwraps the closed gate
            } else {
                open.send(()).unwrap();
            }
            let sent = pushed.recv_timeout(Duration::from_secs(5)).expect("the parked thread never returned");
            parked.join().unwrap();
            assert!(
                wait_for(|| ran.load(Ordering::SeqCst) == 2, Duration::from_secs(5)),
                "{} of 2 muted actors ran again",
                ran.load(Ordering::SeqCst)
            );
            let down = catch_unwind(AssertUnwindSafe(|| rt.shutdown()));
            assert_eq!(down.is_err(), panics, "shutdown re-raises the panic, and only it");
            if panics {
                assert_eq!(sent, PushOutcome::Dead, "released by the close");
                assert_eq!(seen.load(Ordering::SeqCst), 0);
            } else {
                assert_ne!(sent, PushOutcome::Sent, "the box was full");
                assert_eq!(seen.load(Ordering::SeqCst), 4, "the kill came after the backlog");
            }
        }
    }

    /// Sends `total` pings to `sink`, a few per handler (the next few go
    /// out from a zero-delay timer), and checks the pongs come back in
    /// order.
    struct Flooder {
        sink: ActorId,
        total: u64,
        sent: u64,
        next_pong: u64,
        done: Arc<AtomicU64>,
        disorder: Arc<AtomicU64>,
    }
    impl Flooder {
        fn burst(&mut self, ctx: &mut Ctx<'_, TMsg>) {
            for _ in 0..4 {
                if self.sent < self.total {
                    ctx.send(self.sink, TMsg::Ping(self.sent));
                    self.sent += 1;
                }
            }
            if self.sent < self.total {
                ctx.timer(SimDuration::ZERO, 0);
            }
        }
    }
    impl Actor<TMsg> for Flooder {
        fn on_start(&mut self, ctx: &mut Ctx<'_, TMsg>) {
            self.burst(ctx);
        }
        fn on_message(&mut self, _: &mut Ctx<'_, TMsg>, _: ActorId, msg: TMsg) {
            if let TMsg::Pong(n) = msg {
                if n != self.next_pong {
                    self.disorder.fetch_add(1, Ordering::SeqCst);
                }
                self.next_pong = n + 1;
                if self.next_pong == self.total {
                    self.done.fetch_add(1, Ordering::SeqCst);
                }
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, TMsg>, _: u64) {
            self.burst(ctx);
        }
    }

    /// Spends a few microseconds on each ping, then answers it; checks each
    /// source's pings arrive in order.
    struct SlowSink {
        next: HashMap<ActorId, u64>,
        disorder: Arc<AtomicU64>,
    }
    impl Actor<TMsg> for SlowSink {
        fn on_message(&mut self, ctx: &mut Ctx<'_, TMsg>, from: ActorId, msg: TMsg) {
            if let TMsg::Ping(n) = msg {
                let next = self.next.entry(from).or_insert(0);
                if n != *next {
                    self.disorder.fetch_add(1, Ordering::SeqCst);
                }
                *next = n + 1;
                let busy = Instant::now();
                while busy.elapsed() < Duration::from_micros(5) {
                    std::hint::spin_loop();
                }
                ctx.send(from, TMsg::Pong(n));
            }
        }
    }

    /// Three actors flood one slow one through mailboxes of two, and it
    /// answers each of them through theirs: every box is full most of the
    /// time, in both directions. A pool thread that waited on a full box
    /// would wedge this (two flooders waiting on the sink leave no thread
    /// for it; the sink waiting on a flooder's box closes the cycle even
    /// with threads to spare). With muting, everything arrives, in order.
    #[test]
    fn actors_flooding_full_mailboxes_both_ways_do_not_wedge_the_pool() {
        const FLOODERS: u64 = 3;
        const PINGS: u64 = 2_000;
        let rt: LiveRuntime<TMsg> = LiveRuntime::new(tiny_mailboxes(2));
        let (done, disorder) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
        let sink = rt.spawn(None, Box::new(SlowSink { next: HashMap::new(), disorder: disorder.clone() }));
        for _ in 0..FLOODERS {
            rt.spawn(
                None,
                Box::new(Flooder {
                    sink,
                    total: PINGS,
                    sent: 0,
                    next_pong: 0,
                    done: done.clone(),
                    disorder: disorder.clone(),
                }),
            );
        }
        assert!(
            wait_for(|| done.load(Ordering::SeqCst) == FLOODERS, Duration::from_secs(30)),
            "wedged: {} of {FLOODERS} flooders got all {PINGS} pongs back",
            done.load(Ordering::SeqCst)
        );
        assert_eq!(disorder.load(Ordering::SeqCst), 0, "a source's messages arrived out of order");
        let (metrics, _) = rt.shutdown();
        assert!(metrics.counter("rt.mailbox_parked") > 0, "no mailbox ever filled");
    }

    /// Exits in `on_start` or waits to be killed; counts its drop.
    struct Counted {
        exits: bool,
        _probe: Arc<()>,
        dropped: Arc<AtomicU64>,
    }
    impl Actor<TMsg> for Counted {
        fn on_start(&mut self, ctx: &mut Ctx<'_, TMsg>) {
            if self.exits {
                ctx.kill_self();
            }
        }
        fn on_message(&mut self, _: &mut Ctx<'_, TMsg>, _: ActorId, _: TMsg) {}
    }
    impl Drop for Counted {
        fn drop(&mut self) {
            self.dropped.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// An actor's context holds the runtime (`ctx.shared` → registry →
    /// mailbox → actor): every way out — exiting, a kill, the shutdown's
    /// kill — must still drop the actor and everything it holds.
    #[test]
    fn the_pool_drops_every_actor_it_ran() {
        let rt: LiveRuntime<TMsg> = LiveRuntime::new(two_machine_cfg());
        let probe = Arc::new(());
        let dropped = Arc::new(AtomicU64::new(0));
        let ids: Vec<ActorId> = (0..1_000)
            .map(|i| {
                let actor = Counted { exits: i % 2 == 0, _probe: probe.clone(), dropped: dropped.clone() };
                rt.spawn(None, Box::new(actor))
            })
            .collect();
        assert!(wait_for(|| dropped.load(Ordering::SeqCst) == 500, Duration::from_secs(10)));
        // Half of the survivors by kill, the other half by the shutdown.
        for &id in ids.iter().skip(1).step_by(4) {
            rt.kill_actor(id);
        }
        rt.shutdown();
        assert_eq!(dropped.load(Ordering::SeqCst), 1_000);
        assert_eq!(Arc::strong_count(&probe), 1, "an actor outlived the shutdown");
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
