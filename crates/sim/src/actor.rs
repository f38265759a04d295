//! Actors: the unit of concurrency in the simulated cluster.
//!
//! Every Fuxi component (FuxiMaster, FuxiAgent, JobMaster, TaskWorker, lock
//! service, clients) is an [`Actor`]: single-threaded state machines that
//! react to messages and timers through a [`Ctx`] handle onto the world.
//! Actors may be *placed* on a machine — then they die with it — or be
//! placeless services.
//!
//! A [`Ctx`] is backed by one of two execution engines: the deterministic
//! discrete-event kernel in this crate, or a live multi-threaded runtime
//! (`fuxi-rt`) that implements [`LiveCtxOps`]. Actor code is written once
//! against [`Ctx`] and runs unchanged on both.

use crate::event::{EventKind, KernelMsg};
use crate::flow::FlowSpec;
use crate::time::{SimDuration, SimTime};
use crate::world::WorldCore;
use fuxi_obs::{Metrics, SpanKind, TraceEvent, TraceId, Tracer};
use rand::rngs::SmallRng;
use std::fmt;

/// Address of an actor. Never reused within one world, so a stale address
/// reliably refers to a dead actor (messages to it are counted and dropped).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ActorId(pub u32);

impl ActorId {
    /// A placeholder address that is never alive (used before registration).
    pub const NONE: ActorId = ActorId(u32::MAX);

    /// Width of one deployment node's actor-id window. In a multi-process
    /// cluster, node `i` numbers its actors from `i << NODE_WINDOW_SHIFT`,
    /// so any [`ActorId`] is globally routable: the high bits name the
    /// owning process, the low bits its local slot.
    pub const NODE_WINDOW_SHIFT: u32 = 24;

    /// First actor id owned by deployment node `node_index`.
    pub const fn node_base(node_index: u32) -> u32 {
        node_index << Self::NODE_WINDOW_SHIFT
    }

    /// Deployment-node index encoded in this id's high bits (0 for every
    /// id in a single-process cluster).
    pub const fn node_index(self) -> u32 {
        self.0 >> Self::NODE_WINDOW_SHIFT
    }
}

impl fmt::Display for ActorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

// Manual (not derived) so the wire form is a bare integer: actor addresses
// appear in nearly every routed message and pay for compactness.
impl serde::Serialize for ActorId {
    fn to_value(&self) -> serde::Value {
        serde::Value::UInt(u64::from(self.0))
    }
}

impl serde::Deserialize for ActorId {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        <u32 as serde::Deserialize>::from_value(v).map(ActorId)
    }
}

/// Behaviour of one simulated component.
pub trait Actor<M: KernelMsg> {
    /// Called once when the actor comes to life (after spawn).
    fn on_start(&mut self, _ctx: &mut Ctx<'_, M>) {}

    /// Called for each delivered message.
    fn on_message(&mut self, ctx: &mut Ctx<'_, M>, from: ActorId, msg: M);

    /// Called when a timer set via [`Ctx::timer`] fires. Timers cannot be
    /// cancelled; actors discard stale ones by tag/generation convention.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_, M>, _tag: u64) {}
}

/// The engine-facing half of a live (wall-clock, multi-threaded) context.
///
/// `fuxi-rt` implements this for its per-actor thread state; the kernel
/// never does — the simulated side dispatches straight into [`WorldCore`]
/// so the hot path stays a single predictable branch.
///
/// Methods that act *as* the current actor take the acting [`ActorId`]
/// explicitly because one implementation may serve a handler for any actor.
pub trait LiveCtxOps<M: KernelMsg> {
    /// Wall-clock time since the runtime epoch, as a [`SimTime`].
    fn now(&self) -> SimTime;
    /// Sends `msg` from `from` to `to` under `trace`, after `extra` delay.
    fn send(&mut self, from: ActorId, to: ActorId, msg: M, extra: SimDuration, trace: TraceId);
    /// Arms a timer firing `on_timer(tag)` on `actor` after `delay`.
    fn timer(&mut self, actor: ActorId, delay: SimDuration, tag: u64);
    /// Spawns a new actor thread, optionally placed on a machine.
    fn spawn(&mut self, machine: Option<u32>, actor: Box<dyn Actor<M> + Send>) -> ActorId;
    /// Terminates `id`.
    fn kill(&mut self, id: ActorId);
    /// `true` if `id` refers to a live actor.
    fn alive(&self, id: ActorId) -> bool;
    /// The machine a live actor is placed on.
    fn machine_of(&self, id: ActorId) -> Option<u32>;
    /// `true` if machine `m` is up.
    fn machine_up(&self, m: u32) -> bool;
    /// Execution speed factor of machine `m`.
    fn machine_speed(&self, m: u32) -> f64;
    /// `true` if process launches currently succeed on machine `m`.
    fn launch_ok(&self, m: u32) -> bool;
    /// Rack of machine `m`.
    fn rack_of(&self, m: u32) -> u32;
    /// Number of machines.
    fn n_machines(&self) -> usize;
    /// Registers `id` in its machine's process table.
    fn register_proc(&mut self, id: ActorId, meta: Vec<u8>);
    /// Reads machine `m`'s process table.
    fn procs_on(&self, m: u32) -> Vec<(ActorId, Vec<u8>)>;
    /// Starts a data flow owned by `owner`.
    fn start_flow(&mut self, owner: ActorId, spec: FlowSpec);
    /// Cancels all incomplete flows owned by `owner`.
    fn cancel_flows_of(&mut self, owner: ActorId);
    /// Per-thread RNG.
    fn rng(&mut self) -> &mut SmallRng;
    /// Per-thread metrics sink (merged into the runtime's at shutdown).
    fn metrics(&mut self) -> &mut Metrics;
    /// The causal trace of the handler currently running.
    fn trace_id(&self) -> TraceId;
    /// Re-establishes the causal trace for the rest of the handler.
    fn set_trace(&mut self, trace: TraceId);
    /// Records a typed trace event attributed to `actor` under `trace`.
    fn trace_event_as(&mut self, actor: ActorId, trace: TraceId, event: TraceEvent);
    /// Records a completed span under the current trace.
    fn span(&mut self, actor: ActorId, kind: SpanKind, wall_s: f64);
    /// Forces a flight-recorder dump.
    fn flight_dump(&mut self, reason: &'static str);
    /// Read access to the per-thread tracer.
    fn tracer(&self) -> &Tracer;
}

/// Which engine a [`Ctx`] dispatches into.
pub(crate) enum CtxBackend<'a, M: KernelMsg> {
    /// The deterministic discrete-event kernel.
    Sim(&'a mut WorldCore<M>),
    /// A live wall-clock runtime (one object per actor thread).
    Live(&'a mut dyn LiveCtxOps<M>),
}

/// The handle through which an actor acts on the world. Borrowed for the
/// duration of one handler invocation.
pub struct Ctx<'a, M: KernelMsg> {
    pub(crate) backend: CtxBackend<'a, M>,
    pub(crate) self_id: ActorId,
}

impl<'a, M: KernelMsg> Ctx<'a, M> {
    /// Wraps a live-runtime context so handlers written against [`Ctx`]
    /// run on real threads. The kernel builds its own contexts internally.
    pub fn for_live(ops: &'a mut dyn LiveCtxOps<M>, self_id: ActorId) -> Self {
        Ctx {
            backend: CtxBackend::Live(ops),
            self_id,
        }
    }

    /// Current time: simulated in the kernel, wall-clock-since-epoch live.
    #[inline]
    pub fn now(&self) -> SimTime {
        match &self.backend {
            CtxBackend::Sim(core) => core.time,
            CtxBackend::Live(ops) => ops.now(),
        }
    }

    /// This actor's address.
    #[inline]
    pub fn id(&self) -> ActorId {
        self.self_id
    }

    /// The machine this actor is placed on, if any.
    pub fn self_machine(&self) -> Option<u32> {
        match &self.backend {
            CtxBackend::Sim(core) => core.machine_of(self.self_id),
            CtxBackend::Live(ops) => ops.machine_of(self.self_id),
        }
    }

    /// Sends `msg` to `to` with modelled network latency.
    pub fn send(&mut self, to: ActorId, msg: M) {
        match &mut self.backend {
            CtxBackend::Sim(core) => core.send_from(self.self_id, to, msg),
            CtxBackend::Live(ops) => {
                let trace = ops.trace_id();
                ops.send(self.self_id, to, msg, SimDuration::ZERO, trace);
            }
        }
    }

    /// Sends `msg` to `to` after an explicit extra delay (e.g. modelling
    /// local processing time before the reply goes out).
    pub fn send_after(&mut self, delay: SimDuration, to: ActorId, msg: M) {
        match &mut self.backend {
            CtxBackend::Sim(core) => core.send_from_after(self.self_id, to, msg, delay),
            CtxBackend::Live(ops) => {
                let trace = ops.trace_id();
                ops.send(self.self_id, to, msg, delay, trace);
            }
        }
    }

    /// Arms a timer that fires `on_timer(tag)` after `delay`.
    pub fn timer(&mut self, delay: SimDuration, tag: u64) {
        match &mut self.backend {
            CtxBackend::Sim(core) => {
                let at = core.time + delay;
                core.queue.push(
                    at,
                    EventKind::Timer {
                        actor: self.self_id,
                        tag,
                    },
                );
            }
            CtxBackend::Live(ops) => ops.timer(self.self_id, delay, tag),
        }
    }

    /// Spawns a new actor, optionally placed on a machine. The spawned
    /// actor's `on_start` runs after the current handler returns. Returns
    /// the new actor's address immediately so it can be communicated.
    ///
    /// The `Send` bound exists for the live runtime, where the new actor
    /// moves to its own OS thread; in the kernel it coerces away.
    pub fn spawn(&mut self, machine: Option<u32>, actor: Box<dyn Actor<M> + Send>) -> ActorId {
        match &mut self.backend {
            CtxBackend::Sim(core) => core.queue_spawn(machine, actor),
            CtxBackend::Live(ops) => ops.spawn(machine, actor),
        }
    }

    /// Terminates another actor after the current handler returns.
    pub fn kill(&mut self, id: ActorId) {
        match &mut self.backend {
            CtxBackend::Sim(core) => core.queue_kill(id),
            CtxBackend::Live(ops) => ops.kill(id),
        }
    }

    /// Terminates this actor after the current handler returns.
    pub fn kill_self(&mut self) {
        let id = self.self_id;
        match &mut self.backend {
            CtxBackend::Sim(core) => core.queue_kill(id),
            CtxBackend::Live(ops) => ops.kill(id),
        }
    }

    /// `true` if `id` refers to a live actor.
    pub fn alive(&self, id: ActorId) -> bool {
        match &self.backend {
            CtxBackend::Sim(core) => core.actor_alive(id),
            CtxBackend::Live(ops) => ops.alive(id),
        }
    }

    /// The machine a live actor is placed on.
    pub fn machine_of(&self, id: ActorId) -> Option<u32> {
        match &self.backend {
            CtxBackend::Sim(core) => core.machine_of(id),
            CtxBackend::Live(ops) => ops.machine_of(id),
        }
    }

    /// `true` if machine `m` is up.
    pub fn machine_up(&self, m: u32) -> bool {
        match &self.backend {
            CtxBackend::Sim(core) => core.machine_up(m),
            CtxBackend::Live(ops) => ops.machine_up(m),
        }
    }

    /// The execution speed factor of machine `m` (1.0 nominal; SlowMachine
    /// faults lower it).
    pub fn machine_speed(&self, m: u32) -> f64 {
        match &self.backend {
            CtxBackend::Sim(core) => core.machine_speed(m),
            CtxBackend::Live(ops) => ops.machine_speed(m),
        }
    }

    /// `true` if process launches currently succeed on machine `m`
    /// (PartialWorkerFailure faults turn this off).
    pub fn launch_ok(&self, m: u32) -> bool {
        match &self.backend {
            CtxBackend::Sim(core) => core.launch_ok(m),
            CtxBackend::Live(ops) => ops.launch_ok(m),
        }
    }

    /// Rack of machine `m` (from the world's configuration).
    pub fn rack_of(&self, m: u32) -> u32 {
        match &self.backend {
            CtxBackend::Sim(core) => core.rack_of(m),
            CtxBackend::Live(ops) => ops.rack_of(m),
        }
    }

    /// Number of machines in the world.
    pub fn n_machines(&self) -> usize {
        match &self.backend {
            CtxBackend::Sim(core) => core.n_machines(),
            CtxBackend::Live(ops) => ops.n_machines(),
        }
    }

    /// Registers this actor in its machine's process table with opaque
    /// metadata — the simulation equivalent of appearing in `/proc`, which
    /// is how a restarted FuxiAgent adopts running workers (Section 4.3.1).
    pub fn register_proc(&mut self, meta: Vec<u8>) {
        let id = self.self_id;
        match &mut self.backend {
            CtxBackend::Sim(core) => core.register_proc(id, meta),
            CtxBackend::Live(ops) => ops.register_proc(id, meta),
        }
    }

    /// Reads machine `m`'s process table.
    pub fn procs_on(&self, m: u32) -> Vec<(ActorId, Vec<u8>)> {
        match &self.backend {
            CtxBackend::Sim(core) => core.procs_on(m),
            CtxBackend::Live(ops) => ops.procs_on(m),
        }
    }

    /// Starts a data flow. Completion arrives as `M::flow_done(tag, failed)`
    /// addressed to this actor.
    pub fn start_flow(&mut self, spec: FlowSpec) {
        let id = self.self_id;
        match &mut self.backend {
            CtxBackend::Sim(core) => core.start_flow(id, spec),
            CtxBackend::Live(ops) => ops.start_flow(id, spec),
        }
    }

    /// Cancels all flows this actor started that have not completed
    /// (no completion message will arrive for them).
    pub fn cancel_own_flows(&mut self) {
        let id = self.self_id;
        match &mut self.backend {
            CtxBackend::Sim(core) => core.cancel_flows_of(id),
            CtxBackend::Live(ops) => ops.cancel_flows_of(id),
        }
    }

    /// Deterministic per-world RNG (per-thread in the live runtime).
    pub fn rng(&mut self) -> &mut SmallRng {
        match &mut self.backend {
            CtxBackend::Sim(core) => &mut core.rng,
            CtxBackend::Live(ops) => ops.rng(),
        }
    }

    /// The world's metrics sink (per-thread live, folded into the runtime's
    /// sink when the actor exits).
    pub fn metrics(&mut self) -> &mut Metrics {
        match &mut self.backend {
            CtxBackend::Sim(core) => &mut core.metrics,
            CtxBackend::Live(ops) => ops.metrics(),
        }
    }

    // --- observability -----------------------------------------------------

    /// The causal trace under which this handler runs: inherited from the
    /// delivered message (or from the spawner for `on_start`), `NONE` for
    /// timer-driven activity unless [`Ctx::set_trace`] re-establishes it.
    #[inline]
    pub fn trace_id(&self) -> TraceId {
        match &self.backend {
            CtxBackend::Sim(core) => core.current_trace,
            CtxBackend::Live(ops) => ops.trace_id(),
        }
    }

    /// Re-establishes the causal context for the rest of this handler:
    /// subsequent sends, spawns, and trace events carry `trace`. Actors
    /// with a durable causal identity (a JobMaster belongs to exactly one
    /// job) call this at the top of timer handlers.
    #[inline]
    pub fn set_trace(&mut self, trace: TraceId) {
        match &mut self.backend {
            CtxBackend::Sim(core) => core.current_trace = trace,
            CtxBackend::Live(ops) => ops.set_trace(trace),
        }
    }

    /// Sends `msg` under an explicit trace (overriding the inherited one) —
    /// used where one handler acts for many causal chains, e.g. the
    /// FuxiMaster flushing batched grants for several jobs.
    pub fn send_traced(&mut self, to: ActorId, msg: M, trace: TraceId) {
        let id = self.self_id;
        match &mut self.backend {
            CtxBackend::Sim(core) => {
                core.send_from_traced(id, to, msg, SimDuration::ZERO, trace)
            }
            CtxBackend::Live(ops) => ops.send(id, to, msg, SimDuration::ZERO, trace),
        }
    }

    /// Records a typed trace event under the current trace.
    #[inline]
    pub fn trace(&mut self, event: TraceEvent) {
        let id = self.self_id;
        match &mut self.backend {
            CtxBackend::Sim(core) => core.trace_event(id, event),
            CtxBackend::Live(ops) => {
                let trace = ops.trace_id();
                ops.trace_event_as(id, trace, event);
            }
        }
    }

    /// Records a typed trace event under an explicit trace.
    #[inline]
    pub fn trace_as(&mut self, trace: TraceId, event: TraceEvent) {
        let id = self.self_id;
        match &mut self.backend {
            CtxBackend::Sim(core) => core.trace_event_as(id, trace, event),
            CtxBackend::Live(ops) => ops.trace_event_as(id, trace, event),
        }
    }

    /// Records a completed span: `wall_s` of measured wall-clock work at
    /// the current simulated time.
    pub fn span(&mut self, kind: SpanKind, wall_s: f64) {
        let id = self.self_id;
        match &mut self.backend {
            CtxBackend::Sim(core) => {
                let t_s = core.time.as_secs_f64();
                let trace = core.current_trace;
                core.tracer.span(t_s, id.0, trace, kind, wall_s);
            }
            CtxBackend::Live(ops) => ops.span(id, kind, wall_s),
        }
    }

    /// Forces a flight-recorder dump (invariant violations, failover).
    pub fn flight_dump(&mut self, reason: &'static str) {
        match &mut self.backend {
            CtxBackend::Sim(core) => {
                let t_s = core.time.as_secs_f64();
                core.tracer.dump(t_s, reason);
            }
            CtxBackend::Live(ops) => ops.flight_dump(reason),
        }
    }

    /// Read access to the tracer (rarely needed by actors).
    pub fn tracer(&self) -> &Tracer {
        match &self.backend {
            CtxBackend::Sim(core) => &core.tracer,
            CtxBackend::Live(ops) => ops.tracer(),
        }
    }
}
