//! Actors: the unit of concurrency in the simulated cluster.
//!
//! Every Fuxi component (FuxiMaster, FuxiAgent, JobMaster, TaskWorker, lock
//! service, clients) is an [`Actor`]: single-threaded state machines that
//! react to messages and timers through a [`Ctx`] handle onto the world.
//! Actors may be *placed* on a machine — then they die with it — or be
//! placeless services.
//!
//! The contract between an actor and its engine is one trait, [`CtxOps`],
//! with two implementations: the deterministic discrete-event kernel's
//! [`WorldCore`](crate::world::WorldCore) in this crate, and the live
//! multi-threaded runtime's per-thread context in `fuxi-rt`. A [`Ctx`] is
//! that trait object plus the acting actor's id; actor code is written once
//! against [`Ctx`] and runs unchanged on both engines.

use crate::event::KernelMsg;
use crate::flow::FlowSpec;
use crate::time::{SimDuration, SimTime};
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

/// What an actor can do to the world: the engine half of a [`Ctx`].
///
/// Implemented by the kernel's [`WorldCore`](crate::world::WorldCore) and
/// by `fuxi-rt`'s per-actor context, and nowhere else. Methods that act
/// *as* an actor take the acting [`ActorId`] explicitly because one
/// implementation may serve the handlers of every actor.
pub trait CtxOps<M: KernelMsg> {
    /// Current time: simulated in the kernel, wall-clock since the runtime
    /// epoch live.
    fn now(&self) -> SimTime;
    /// Sends `msg` from `from` to `to` under `trace`.
    fn send(&mut self, from: ActorId, to: ActorId, msg: M, trace: TraceId);
    /// Arms a timer firing `on_timer(tag)` on `actor` after `delay`.
    fn timer(&mut self, actor: ActorId, delay: SimDuration, tag: u64);
    /// Spawns a new actor, optionally placed on a machine, under the
    /// current trace.
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
    /// The RNG: one per world in the kernel, one per thread live.
    fn rng(&mut self) -> &mut SmallRng;
    /// The metrics sink: the world's, or the thread's (merged into the
    /// runtime's as it runs and when the actor exits).
    fn metrics(&mut self) -> &mut Metrics;
    /// The causal trace of the handler currently running.
    fn trace_id(&self) -> TraceId;
    /// Re-establishes the causal trace for the rest of the handler.
    fn set_trace(&mut self, trace: TraceId);
    /// Records a typed trace event attributed to `actor` under `trace`.
    fn trace_event_as(&mut self, actor: ActorId, trace: TraceId, event: TraceEvent);
    /// Records a completed span attributed to `actor` under the current
    /// trace.
    fn span(&mut self, actor: ActorId, kind: SpanKind, wall_s: f64);
    /// Forces a flight-recorder dump.
    fn flight_dump(&mut self, reason: &'static str);
    /// Read access to the tracer.
    fn tracer(&self) -> &Tracer;
}

/// The handle through which an actor acts on the world. Borrowed for the
/// duration of one handler invocation.
pub struct Ctx<'a, M: KernelMsg> {
    ops: &'a mut dyn CtxOps<M>,
    self_id: ActorId,
}

impl<'a, M: KernelMsg> Ctx<'a, M> {
    /// The context of one handler run by `self_id` on engine `ops`.
    pub fn new(ops: &'a mut dyn CtxOps<M>, self_id: ActorId) -> Self {
        Ctx { ops, self_id }
    }

    /// Current time: simulated in the kernel, wall-clock-since-epoch live.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.ops.now()
    }

    /// This actor's address.
    #[inline]
    pub fn id(&self) -> ActorId {
        self.self_id
    }

    /// The machine this actor is placed on, if any.
    pub fn self_machine(&self) -> Option<u32> {
        self.ops.machine_of(self.self_id)
    }

    /// Sends `msg` to `to` with modelled network latency.
    pub fn send(&mut self, to: ActorId, msg: M) {
        let trace = self.ops.trace_id();
        self.ops.send(self.self_id, to, msg, trace);
    }

    /// Arms a timer that fires `on_timer(tag)` after `delay`.
    pub fn timer(&mut self, delay: SimDuration, tag: u64) {
        self.ops.timer(self.self_id, delay, tag);
    }

    /// Spawns a new actor, optionally placed on a machine. The spawned
    /// actor's `on_start` runs after the current handler returns. Returns
    /// the new actor's address immediately so it can be communicated.
    ///
    /// The `Send` bound exists for the live runtime, where the new actor
    /// runs on whichever pool thread takes its turn; in the kernel it
    /// coerces away.
    pub fn spawn(&mut self, machine: Option<u32>, actor: Box<dyn Actor<M> + Send>) -> ActorId {
        self.ops.spawn(machine, actor)
    }

    /// Terminates another actor after the current handler returns.
    pub fn kill(&mut self, id: ActorId) {
        self.ops.kill(id);
    }

    /// Terminates this actor after the current handler returns.
    pub fn kill_self(&mut self) {
        self.ops.kill(self.self_id);
    }

    /// `true` if `id` refers to a live actor.
    pub fn alive(&self, id: ActorId) -> bool {
        self.ops.alive(id)
    }

    /// The machine a live actor is placed on.
    pub fn machine_of(&self, id: ActorId) -> Option<u32> {
        self.ops.machine_of(id)
    }

    /// `true` if machine `m` is up.
    pub fn machine_up(&self, m: u32) -> bool {
        self.ops.machine_up(m)
    }

    /// The execution speed factor of machine `m` (1.0 nominal; SlowMachine
    /// faults lower it).
    pub fn machine_speed(&self, m: u32) -> f64 {
        self.ops.machine_speed(m)
    }

    /// `true` if process launches currently succeed on machine `m`
    /// (PartialWorkerFailure faults turn this off).
    pub fn launch_ok(&self, m: u32) -> bool {
        self.ops.launch_ok(m)
    }

    /// Rack of machine `m` (from the world's configuration).
    pub fn rack_of(&self, m: u32) -> u32 {
        self.ops.rack_of(m)
    }

    /// Number of machines in the world.
    pub fn n_machines(&self) -> usize {
        self.ops.n_machines()
    }

    /// Registers this actor in its machine's process table with opaque
    /// metadata — the simulation equivalent of appearing in `/proc`, which
    /// is how a restarted FuxiAgent adopts running workers (Section 4.3.1).
    pub fn register_proc(&mut self, meta: Vec<u8>) {
        self.ops.register_proc(self.self_id, meta);
    }

    /// Reads machine `m`'s process table.
    pub fn procs_on(&self, m: u32) -> Vec<(ActorId, Vec<u8>)> {
        self.ops.procs_on(m)
    }

    /// Starts a data flow. Completion arrives as `M::flow_done(tag, failed)`
    /// addressed to this actor.
    pub fn start_flow(&mut self, spec: FlowSpec) {
        self.ops.start_flow(self.self_id, spec);
    }

    /// Cancels all flows this actor started that have not completed
    /// (no completion message will arrive for them).
    pub fn cancel_own_flows(&mut self) {
        self.ops.cancel_flows_of(self.self_id);
    }

    /// Deterministic per-world RNG (per-thread in the live runtime).
    pub fn rng(&mut self) -> &mut SmallRng {
        self.ops.rng()
    }

    /// The world's metrics sink (per-thread live, folded into the runtime's
    /// sink when the actor exits).
    pub fn metrics(&mut self) -> &mut Metrics {
        self.ops.metrics()
    }

    // --- observability -----------------------------------------------------

    /// The causal trace under which this handler runs: inherited from the
    /// delivered message (or from the spawner for `on_start`), `NONE` for
    /// timer-driven activity unless [`Ctx::set_trace`] re-establishes it.
    #[inline]
    pub fn trace_id(&self) -> TraceId {
        self.ops.trace_id()
    }

    /// Re-establishes the causal context for the rest of this handler:
    /// subsequent sends, spawns, and trace events carry `trace`. Actors
    /// with a durable causal identity (a JobMaster belongs to exactly one
    /// job) call this at the top of timer handlers.
    #[inline]
    pub fn set_trace(&mut self, trace: TraceId) {
        self.ops.set_trace(trace);
    }

    /// Sends `msg` under an explicit trace (overriding the inherited one) —
    /// used where one handler acts for many causal chains, e.g. the
    /// FuxiMaster flushing batched grants for several jobs.
    pub fn send_traced(&mut self, to: ActorId, msg: M, trace: TraceId) {
        self.ops.send(self.self_id, to, msg, trace);
    }

    /// Records a typed trace event under the current trace.
    #[inline]
    pub fn trace(&mut self, event: TraceEvent) {
        let trace = self.ops.trace_id();
        self.ops.trace_event_as(self.self_id, trace, event);
    }

    /// Records a typed trace event under an explicit trace.
    #[inline]
    pub fn trace_as(&mut self, trace: TraceId, event: TraceEvent) {
        self.ops.trace_event_as(self.self_id, trace, event);
    }

    /// Records a completed span: `wall_s` of measured wall-clock work at
    /// the current time.
    pub fn span(&mut self, kind: SpanKind, wall_s: f64) {
        self.ops.span(self.self_id, kind, wall_s);
    }

    /// Forces a flight-recorder dump (invariant violations, failover).
    pub fn flight_dump(&mut self, reason: &'static str) {
        self.ops.flight_dump(reason);
    }

    /// Read access to the tracer (rarely needed by actors).
    pub fn tracer(&self) -> &Tracer {
        self.ops.tracer()
    }
}
