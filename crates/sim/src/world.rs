//! The world: machines, actors, the event loop, and fault operations.

use crate::actor::{Actor, ActorId, Ctx, CtxOps};
use crate::event::{EventKind, EventQueue, KernelMsg};
use crate::flow::{FlowDone, FlowNet, FlowSpec};
use crate::net;
use crate::time::{SimDuration, SimTime};
use fuxi_obs::{Metrics, SpanKind, TraceEvent, TraceId, Tracer, TracerConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// Static description of one simulated machine.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Rack index.
    pub rack: u32,
    /// Aggregate disk bandwidth, MB/s.
    pub disk_bw_mbps: f64,
    /// NIC bandwidth per direction, MB/s.
    pub net_bw_mbps: f64,
}

/// World construction parameters.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Hardware description per machine.
    pub machines: Vec<MachineConfig>,
    /// Probability a message is silently dropped (chaos testing only).
    pub drop_prob: f64,
    /// Deterministic RNG seed.
    pub seed: u64,
    /// Observability configuration (tracer, flight recorder).
    pub obs: TracerConfig,
}

impl WorldConfig {
    /// A uniform cluster: `n` machines spread over racks of `rack_size`.
    pub fn uniform(n: usize, rack_size: usize, seed: u64) -> Self {
        let machines = (0..n)
            .map(|i| MachineConfig {
                rack: (i / rack_size.max(1)) as u32,
                disk_bw_mbps: 1200.0,
                net_bw_mbps: 250.0,
            })
            .collect();
        Self {
            machines,
            drop_prob: 0.0,
            seed,
            obs: TracerConfig::default(),
        }
    }
}

struct MachineState {
    rack: u32,
    up: bool,
    speed: f64,
    launch_ok: bool,
    /// Process table: live placed actors and their registered metadata.
    /// BTreeMap keeps kill-iteration deterministic.
    procs: BTreeMap<ActorId, Vec<u8>>,
}

#[derive(Clone, Copy)]
struct ActorMeta {
    alive: bool,
    machine: Option<u32>,
}

/// Everything in the world except the actor behaviours themselves; this
/// split lets a running actor borrow the core mutably through [`Ctx`].
pub struct WorldCore<M: KernelMsg> {
    time: SimTime,
    queue: EventQueue<M>,
    meta: Vec<ActorMeta>,
    machines: Vec<MachineState>,
    rng: SmallRng,
    /// Metrics sink shared by every actor.
    pub metrics: Metrics,
    drop_prob: f64,
    flows: FlowNet,
    flows_dirty: bool,
    flow_tick_at: Option<SimTime>,
    spawn_queue: Vec<(ActorId, Box<dyn Actor<M>>, TraceId)>,
    kill_queue: Vec<ActorId>,
    /// Last scheduled delivery time per *source*: all sends from one actor
    /// deliver in send order, even across destinations. This is stronger
    /// than per-(from, to) channel FIFO and matches a single-threaded
    /// sender draining one outbound queue: the incremental protocol's
    /// "delivered and processed in the same order as generated" requirement
    /// (paper §3.1) holds for everything one component emits, so a service
    /// announcing "A lost the lock" before "B holds the lock" can never be
    /// observed in the opposite order, even by observers on different
    /// machines. Races between *different* sources remain.
    channel_clock: std::collections::HashMap<ActorId, SimTime>,
    /// The observability sink: typed trace events, spans, flight rings.
    pub tracer: Tracer,
    /// The causal trace of the message currently being dispatched; sends
    /// and trace events inherit it unless overridden via `Ctx`.
    current_trace: TraceId,
    /// Total events dispatched by [`World::step`]; the numerator of the
    /// end-to-end `sim_events_per_sec` throughput benchmark.
    events_processed: u64,
}

impl<M: KernelMsg> WorldCore<M> {
    fn relation(&self, a: ActorId, b: ActorId) -> (bool, bool) {
        match (self.machine_of_any(a), self.machine_of_any(b)) {
            (Some(ma), Some(mb)) => (ma == mb, self.rack_of(ma) == self.rack_of(mb)),
            // Placeless services are "one hop away": same-rack class.
            _ => (false, true),
        }
    }

    /// Machine of an actor even if it just died (for latency of in-flight
    /// sends during teardown).
    fn machine_of_any(&self, id: ActorId) -> Option<u32> {
        self.meta.get(id.0 as usize).and_then(|m| m.machine)
    }

    /// Allocates `actor`'s id; it joins the world (and its `on_start` runs)
    /// when the current handler returns. Unlike [`CtxOps::spawn`], the
    /// actor need not be `Send`: harnesses spawn through [`World::spawn`].
    fn queue_spawn(&mut self, machine: Option<u32>, actor: Box<dyn Actor<M>>) -> ActorId {
        let id = ActorId(self.meta.len() as u32);
        self.meta.push(ActorMeta {
            alive: true,
            machine,
        });
        // The spawned actor's `on_start` runs under the trace active at
        // spawn time, so processes launched on behalf of a job inherit its
        // causal chain.
        self.spawn_queue.push((id, actor, self.current_trace));
        id
    }

    fn deliver_flow_done(&mut self, done: FlowDone) {
        if self.alive(done.owner) {
            self.queue.push(
                self.time,
                EventKind::Deliver {
                    to: done.owner,
                    from: done.owner,
                    msg: M::flow_done(done.tag, done.failed),
                    // Tick-driven completions have no dispatch context, so
                    // this is NONE; owners with a durable causal identity
                    // re-establish it via `Ctx::set_trace`.
                    trace: self.current_trace,
                },
            );
        }
    }
}

/// The kernel's side of the actor contract. Spawns and kills take effect
/// when the current handler returns ([`World::step`] drains them).
impl<M: KernelMsg> CtxOps<M> for WorldCore<M> {
    #[inline]
    fn now(&self) -> SimTime {
        self.time
    }

    fn send(&mut self, from: ActorId, to: ActorId, msg: M, trace: TraceId) {
        self.metrics.count("net.sent", 1);
        if net::dropped(self.drop_prob, &mut self.rng) {
            self.metrics.count("net.dropped", 1);
            return;
        }
        let (same_machine, same_rack) = self.relation(from, to);
        let latency = net::sample_latency(&mut self.rng, same_machine, same_rack);
        let mut at = self.time + latency;
        // Per-source FIFO: never deliver before an earlier send from the
        // same source (see `channel_clock`).
        let clock = self.channel_clock.entry(from).or_insert(SimTime::ZERO);
        if at <= *clock {
            at = *clock + SimDuration::from_micros(1);
        }
        *clock = at;
        // Bound channel-clock memory: entries older than any possible
        // in-flight latency can never constrain future sends.
        if self.channel_clock.len() > 1_000_000 {
            let horizon = SimTime(self.time.0.saturating_sub(10_000));
            self.channel_clock.retain(|_, &mut t| t >= horizon);
        }
        self.queue
            .push(at, EventKind::Deliver { to, from, msg, trace });
    }

    fn timer(&mut self, actor: ActorId, delay: SimDuration, tag: u64) {
        self.queue.push(self.time + delay, EventKind::Timer { actor, tag });
    }

    fn spawn(&mut self, machine: Option<u32>, actor: Box<dyn Actor<M> + Send>) -> ActorId {
        self.queue_spawn(machine, actor)
    }

    fn kill(&mut self, id: ActorId) {
        if self.alive(id) {
            self.meta[id.0 as usize].alive = false;
            self.kill_queue.push(id);
        }
    }

    fn alive(&self, id: ActorId) -> bool {
        self.meta.get(id.0 as usize).map(|m| m.alive).unwrap_or(false)
    }

    fn machine_of(&self, id: ActorId) -> Option<u32> {
        self.meta
            .get(id.0 as usize)
            .filter(|m| m.alive)
            .and_then(|m| m.machine)
    }

    fn machine_up(&self, m: u32) -> bool {
        self.machines.get(m as usize).map(|s| s.up).unwrap_or(false)
    }

    fn machine_speed(&self, m: u32) -> f64 {
        self.machines.get(m as usize).map(|s| s.speed).unwrap_or(0.0)
    }

    fn launch_ok(&self, m: u32) -> bool {
        self.machines
            .get(m as usize)
            .map(|s| s.up && s.launch_ok)
            .unwrap_or(false)
    }

    fn rack_of(&self, m: u32) -> u32 {
        self.machines[m as usize].rack
    }

    fn n_machines(&self) -> usize {
        self.machines.len()
    }

    fn register_proc(&mut self, id: ActorId, meta: Vec<u8>) {
        if let Some(m) = self.machine_of(id) {
            self.machines[m as usize].procs.insert(id, meta);
        }
    }

    fn procs_on(&self, m: u32) -> Vec<(ActorId, Vec<u8>)> {
        self.machines[m as usize]
            .procs
            .iter()
            .map(|(&id, meta)| (id, meta.clone()))
            .collect()
    }

    fn start_flow(&mut self, owner: ActorId, spec: FlowSpec) {
        self.metrics.count("flow.started", 1);
        if let Some(done) = self.flows.start(self.time, owner, spec) {
            self.deliver_flow_done(done);
        }
        self.flows_dirty = true;
    }

    fn cancel_flows_of(&mut self, owner: ActorId) {
        self.flows.cancel_owned_by(self.time, owner);
        self.flows_dirty = true;
    }

    fn rng(&mut self) -> &mut SmallRng {
        &mut self.rng
    }

    fn metrics(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    #[inline]
    fn trace_id(&self) -> TraceId {
        self.current_trace
    }

    #[inline]
    fn set_trace(&mut self, trace: TraceId) {
        self.current_trace = trace;
    }

    fn trace_event_as(&mut self, actor: ActorId, trace: TraceId, event: TraceEvent) {
        let t_s = self.time.as_secs_f64();
        self.tracer.record(t_s, actor.0, trace, event);
    }

    fn span(&mut self, actor: ActorId, kind: SpanKind, wall_s: f64) {
        let t_s = self.time.as_secs_f64();
        self.tracer.span(t_s, actor.0, self.current_trace, kind, wall_s);
    }

    fn flight_dump(&mut self, reason: &'static str) {
        let t_s = self.time.as_secs_f64();
        self.tracer.dump(t_s, reason);
    }

    fn tracer(&self) -> &Tracer {
        &self.tracer
    }
}

/// The complete simulated world.
pub struct World<M: KernelMsg> {
    core: WorldCore<M>,
    actors: Vec<Option<Box<dyn Actor<M>>>>,
}

impl<M: KernelMsg> World<M> {
    /// Creates a new instance with the given configuration.
    pub fn new(cfg: WorldConfig) -> Self {
        let machines: Vec<MachineState> = cfg
            .machines
            .iter()
            .map(|m| MachineState {
                rack: m.rack,
                up: true,
                speed: 1.0,
                launch_ok: true,
                procs: BTreeMap::new(),
            })
            .collect();
        let disk_bw = cfg.machines.iter().map(|m| m.disk_bw_mbps).collect();
        let net_bw = cfg.machines.iter().map(|m| m.net_bw_mbps).collect();
        Self {
            core: WorldCore {
                time: SimTime::ZERO,
                queue: EventQueue::new(),
                meta: Vec::new(),
                machines,
                rng: SmallRng::seed_from_u64(cfg.seed),
                metrics: Metrics::new(),
                drop_prob: cfg.drop_prob,
                flows: FlowNet::new(disk_bw, net_bw),
                flows_dirty: false,
                flow_tick_at: None,
                spawn_queue: Vec::new(),
                kill_queue: Vec::new(),
                channel_clock: std::collections::HashMap::new(),
                tracer: Tracer::new(cfg.obs),
                current_trace: TraceId::NONE,
                events_processed: 0,
            },
            actors: Vec::new(),
        }
    }

    /// Now.
    pub fn now(&self) -> SimTime {
        self.core.time
    }

    /// Total events dispatched by [`World::step`] so far.
    pub fn events_processed(&self) -> u64 {
        self.core.events_processed
    }

    /// Metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.core.metrics
    }

    /// Metrics mut.
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.core.metrics
    }

    /// The world's trace/span/flight-recorder sink.
    pub fn tracer(&self) -> &Tracer {
        &self.core.tracer
    }

    /// N machines.
    pub fn n_machines(&self) -> usize {
        self.core.n_machines()
    }

    /// Machine up.
    pub fn machine_up(&self, m: u32) -> bool {
        self.core.machine_up(m)
    }

    /// Actor alive.
    pub fn actor_alive(&self, id: ActorId) -> bool {
        self.core.alive(id)
    }

    /// Reads machine `m`'s process table (the simulation's `/proc`) from
    /// outside the event loop — used by harnesses and tests.
    pub fn procs_on(&self, m: u32) -> Vec<(ActorId, Vec<u8>)> {
        self.core.procs_on(m)
    }

    /// Spawns an actor from outside the event loop (world setup). `on_start`
    /// runs immediately.
    pub fn spawn(&mut self, machine: Option<u32>, actor: Box<dyn Actor<M>>) -> ActorId {
        let id = self.core.queue_spawn(machine, actor);
        self.drain_spawns_and_kills();
        id
    }

    /// Sends a message into the world from a synthetic external source.
    pub fn send_external(&mut self, to: ActorId, msg: M) {
        let trace = self.core.current_trace;
        self.core.send(ActorId::NONE, to, msg, trace);
    }

    /// Sends a message into the world from a synthetic external source,
    /// opening a causal trace that downstream handlers inherit.
    pub fn send_external_traced(&mut self, to: ActorId, msg: M, trace: TraceId) {
        self.core.send(ActorId::NONE, to, msg, trace);
    }

    /// Schedules a control closure to run at `time` (fault scripts, scenario
    /// steps).
    pub fn at(&mut self, time: SimTime, f: impl FnOnce(&mut World<M>) + 'static) {
        let t = time.max(self.core.time);
        self.core.queue.push(t, EventKind::Control(Box::new(f)));
    }

    /// Terminates an actor immediately.
    pub fn kill_actor(&mut self, id: ActorId) {
        self.core.kill(id);
        self.drain_spawns_and_kills();
    }

    /// Takes machine `m` down: every actor placed on it dies, its process
    /// table clears, and all flows touching it fail (NodeDown fault).
    pub fn kill_machine(&mut self, m: u32) {
        self.core.machines[m as usize].up = false;
        let victims: Vec<ActorId> = self.core.machines[m as usize].procs.keys().copied().collect();
        // Also actors placed on m that never registered a proc entry.
        let unregistered: Vec<ActorId> = self
            .core
            .meta
            .iter()
            .enumerate()
            .filter(|(_, meta)| meta.alive && meta.machine == Some(m))
            .map(|(i, _)| ActorId(i as u32))
            .collect();
        for id in victims.into_iter().chain(unregistered) {
            self.core.kill(id);
        }
        self.drain_spawns_and_kills();
        let fails = self.core.flows.fail_machine(self.core.time, m);
        for done in fails {
            self.core.deliver_flow_done(done);
        }
        self.core.flows_dirty = true;
        self.schedule_flow_tick();
        self.core.metrics.count("fault.node_down", 1);
        // Feeds the flight recorder's node-down storm detector.
        self.core
            .trace_event_as(ActorId::NONE, TraceId::NONE, TraceEvent::NodeDown { machine: m });
    }

    /// Brings machine `m` back up (empty: the harness respawns its agent).
    pub fn restart_machine(&mut self, m: u32) {
        let ms = &mut self.core.machines[m as usize];
        ms.up = true;
        ms.speed = 1.0;
        ms.launch_ok = true;
        ms.procs.clear();
        self.core
            .trace_event_as(ActorId::NONE, TraceId::NONE, TraceEvent::NodeUp { machine: m });
    }

    /// Applies a SlowMachine fault: *compute* on `m` runs at `factor` (the
    /// paper mocked slowdown with sleep intervals in the worker program —
    /// a CPU-side fault). Disk and NIC keep their bandwidth.
    pub fn set_machine_speed(&mut self, m: u32, factor: f64) {
        self.core.machines[m as usize].speed = factor;
    }

    /// Applies/clears a PartialWorkerFailure fault: worker launches on `m`
    /// fail while `ok` is false.
    pub fn set_launch_ok(&mut self, m: u32, ok: bool) {
        self.core.machines[m as usize].launch_ok = ok;
    }

    /// Runs one event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some(ev) = self.core.queue.pop() else {
            return false;
        };
        debug_assert!(ev.time >= self.core.time, "time must be monotone");
        self.core.time = ev.time;
        self.core.events_processed += 1;
        match ev.kind {
            EventKind::Deliver { to, from, msg, trace } => {
                self.core.current_trace = trace;
                // Only an undelivered message counts: a timer of a dead
                // actor is dropped silently, as the live runtime forgets it.
                if !self.dispatch(to, |actor, ctx| actor.on_message(ctx, from, msg)) {
                    self.core.metrics.count("net.to_dead", 1);
                }
                self.core.current_trace = TraceId::NONE;
            }
            EventKind::Timer { actor, tag } => {
                // Timer-driven activity has no inherited causal context.
                self.core.current_trace = TraceId::NONE;
                self.dispatch(actor, |a, ctx| a.on_timer(ctx, tag));
            }
            EventKind::FlowTick => {
                self.core.current_trace = TraceId::NONE;
                if self.core.flow_tick_at == Some(self.core.time) {
                    self.core.flow_tick_at = None;
                }
                let done = self.core.flows.advance(self.core.time);
                for d in done {
                    self.core.deliver_flow_done(d);
                }
                self.core.flows_dirty = true;
            }
            EventKind::Control(f) => {
                f(self);
            }
        }
        self.drain_spawns_and_kills();
        if self.core.flows_dirty {
            self.core.flows_dirty = false;
            self.schedule_flow_tick();
        }
        true
    }

    /// Runs `f` on a live actor; false when `id` is dead.
    fn dispatch(
        &mut self,
        id: ActorId,
        f: impl FnOnce(&mut dyn Actor<M>, &mut Ctx<'_, M>),
    ) -> bool {
        if !self.core.alive(id) {
            return false;
        }
        let slot = id.0 as usize;
        let Some(mut actor) = self.actors.get_mut(slot).and_then(Option::take) else {
            return true;
        };
        {
            f(actor.as_mut(), &mut Ctx::new(&mut self.core, id));
        }
        // The handler may have killed its own actor; only restore if alive.
        if self.core.alive(id) {
            self.actors[slot] = Some(actor);
        }
        true
    }

    fn drain_spawns_and_kills(&mut self) {
        loop {
            // Kills first so a kill+respawn in one handler settles cleanly.
            while let Some(id) = self.core.kill_queue.pop() {
                let slot = id.0 as usize;
                if slot < self.actors.len() {
                    self.actors[slot] = None;
                }
                if let Some(m) = self.core.meta[slot].machine {
                    self.core.machines[m as usize].procs.remove(&id);
                }
                self.core.flows.cancel_owned_by(self.core.time, id);
                self.core.flows_dirty = true;
            }
            let Some((id, actor, trace)) = self.core.spawn_queue.pop() else {
                break;
            };
            let slot = id.0 as usize;
            if self.actors.len() <= slot {
                self.actors.resize_with(slot + 1, || None);
            }
            self.actors[slot] = Some(actor);
            // on_start may spawn/kill more; the outer loop drains those too.
            // It runs under the trace captured at spawn time.
            self.core.current_trace = trace;
            self.dispatch(id, |a, ctx| a.on_start(ctx));
            self.core.current_trace = TraceId::NONE;
        }
        if self.core.flows_dirty {
            self.core.flows_dirty = false;
            self.schedule_flow_tick();
        }
    }

    fn schedule_flow_tick(&mut self) {
        if let Some(next) = self.core.flows.next_completion() {
            let need = match self.core.flow_tick_at {
                Some(cur) => next < cur,
                None => true,
            };
            if need {
                self.core.flow_tick_at = Some(next);
                self.core.queue.push(next, EventKind::FlowTick);
            }
        }
    }

    /// Runs until simulated `deadline` (events at exactly `deadline` run).
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(t) = self.core.queue.peek_time() {
            if t > deadline {
                break;
            }
            self.step();
        }
        self.core.time = self.core.time.max(deadline);
    }

    /// Runs for `d` more simulated time.
    pub fn run_for(&mut self, d: SimDuration) {
        let deadline = self.core.time + d;
        self.run_until(deadline);
    }

    /// Runs until `pred` returns true (checked after every event) or the
    /// deadline passes. Returns `true` if the predicate fired.
    pub fn run_until_cond(
        &mut self,
        deadline: SimTime,
        mut pred: impl FnMut(&World<M>) -> bool,
    ) -> bool {
        loop {
            if pred(self) {
                return true;
            }
            match self.core.queue.peek_time() {
                Some(t) if t <= deadline => {
                    self.step();
                }
                _ => return pred(self),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[derive(Debug, Clone, PartialEq)]
    enum TMsg {
        Ping(u32),
        Pong(u32),
        FlowDone { tag: u64, failed: bool },
    }

    impl KernelMsg for TMsg {
        fn flow_done(tag: u64, failed: bool) -> Self {
            TMsg::FlowDone { tag, failed }
        }
    }

    /// Replies Pong(n+1) to every Ping(n).
    struct Echo;
    impl Actor<TMsg> for Echo {
        fn on_message(&mut self, ctx: &mut Ctx<'_, TMsg>, from: ActorId, msg: TMsg) {
            if let TMsg::Ping(n) = msg {
                ctx.send(from, TMsg::Pong(n + 1));
            }
        }
    }

    /// Records everything it receives into a shared log.
    struct Recorder {
        log: Rc<RefCell<Vec<(f64, TMsg)>>>,
    }
    impl Actor<TMsg> for Recorder {
        fn on_message(&mut self, ctx: &mut Ctx<'_, TMsg>, _from: ActorId, msg: TMsg) {
            self.log.borrow_mut().push((ctx.now().as_secs_f64(), msg));
        }
    }

    fn world(n: usize) -> World<TMsg> {
        World::new(WorldConfig::uniform(n, 4, 42))
    }

    #[test]
    fn request_reply_roundtrip_with_latency() {
        let mut w = world(8);
        let echo = w.spawn(Some(0), Box::new(Echo));
        let log = Rc::new(RefCell::new(Vec::new()));
        struct Client {
            echo: ActorId,
            log: Rc<RefCell<Vec<(f64, TMsg)>>>,
        }
        impl Actor<TMsg> for Client {
            fn on_start(&mut self, ctx: &mut Ctx<'_, TMsg>) {
                ctx.send(self.echo, TMsg::Ping(1));
            }
            fn on_message(&mut self, ctx: &mut Ctx<'_, TMsg>, _from: ActorId, msg: TMsg) {
                self.log.borrow_mut().push((ctx.now().as_secs_f64(), msg));
            }
        }
        w.spawn(
            Some(7),
            Box::new(Client {
                echo,
                log: log.clone(),
            }),
        );
        w.run_until(SimTime::from_secs(1));
        let log = log.borrow();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].1, TMsg::Pong(2));
        // Cross-rack roundtrip: two latencies in [300, 800]us.
        assert!(log[0].0 >= 600e-6 && log[0].0 <= 1700e-6, "t = {}", log[0].0);
    }

    #[test]
    fn same_seed_same_schedule() {
        let run = || {
            let mut w = world(8);
            let echo = w.spawn(Some(0), Box::new(Echo));
            let log = Rc::new(RefCell::new(Vec::new()));
            let rec = w.spawn(
                Some(5),
                Box::new(Recorder { log: log.clone() }),
            );
            for i in 0..20 {
                w.at(SimTime::from_millis(i * 10), move |w| {
                    w.send_external(echo, TMsg::Ping(i as u32));
                });
            }
            // echo replies go to NONE; also ping recorder directly
            for i in 0..20 {
                w.at(SimTime::from_millis(5 + i * 10), move |w| {
                    w.send_external(rec, TMsg::Ping(i as u32));
                });
            }
            w.run_until(SimTime::from_secs(2));
            let out = log.borrow().clone();
            out
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn timers_fire_in_order() {
        struct Timed {
            log: Rc<RefCell<Vec<u64>>>,
        }
        impl Actor<TMsg> for Timed {
            fn on_start(&mut self, ctx: &mut Ctx<'_, TMsg>) {
                ctx.timer(SimDuration::from_millis(30), 3);
                ctx.timer(SimDuration::from_millis(10), 1);
                ctx.timer(SimDuration::from_millis(20), 2);
            }
            fn on_message(&mut self, _: &mut Ctx<'_, TMsg>, _: ActorId, _: TMsg) {}
            fn on_timer(&mut self, _ctx: &mut Ctx<'_, TMsg>, tag: u64) {
                self.log.borrow_mut().push(tag);
            }
        }
        let mut w = world(2);
        let log = Rc::new(RefCell::new(Vec::new()));
        w.spawn(None, Box::new(Timed { log: log.clone() }));
        w.run_until(SimTime::from_secs(1));
        assert_eq!(*log.borrow(), vec![1, 2, 3]);
    }

    /// Replies like `Echo` and has a timer pending from its start.
    struct ArmedEcho;
    impl Actor<TMsg> for ArmedEcho {
        fn on_start(&mut self, ctx: &mut Ctx<'_, TMsg>) {
            ctx.timer(SimDuration::from_millis(500), 1);
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, TMsg>, from: ActorId, msg: TMsg) {
            Echo.on_message(ctx, from, msg);
        }
        fn on_timer(&mut self, _: &mut Ctx<'_, TMsg>, _: u64) {
            unreachable!("the actor is dead before its timer is due");
        }
    }

    /// The message is counted as undelivered; the dead actor's timer is
    /// dropped without a count, as the live runtime drops it.
    #[test]
    fn kill_machine_kills_placed_actors_and_drops_messages() {
        let mut w = world(4);
        let echo = w.spawn(Some(2), Box::new(ArmedEcho));
        assert!(w.actor_alive(echo));
        w.kill_machine(2);
        assert!(!w.actor_alive(echo));
        assert!(!w.machine_up(2));
        w.send_external(echo, TMsg::Ping(0));
        w.run_until(SimTime::from_secs(1));
        assert_eq!(w.metrics().counter("net.to_dead"), 1);
    }

    #[test]
    fn flow_completion_reaches_owner() {
        struct Io {
            log: Rc<RefCell<Vec<(f64, TMsg)>>>,
        }
        impl Actor<TMsg> for Io {
            fn on_start(&mut self, ctx: &mut Ctx<'_, TMsg>) {
                ctx.start_flow(FlowSpec {
                    kind: crate::flow::FlowKind::DiskRead { machine: 1 },
                    size_mb: 1200.0, // exactly 1 second at 1200 MB/s
                    tag: 42,
                });
            }
            fn on_message(&mut self, ctx: &mut Ctx<'_, TMsg>, _: ActorId, msg: TMsg) {
                self.log.borrow_mut().push((ctx.now().as_secs_f64(), msg));
            }
        }
        let mut w = world(4);
        let log = Rc::new(RefCell::new(Vec::new()));
        w.spawn(Some(1), Box::new(Io { log: log.clone() }));
        w.run_until(SimTime::from_secs(5));
        let log = log.borrow();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].1, TMsg::FlowDone { tag: 42, failed: false });
        assert!((log[0].0 - 1.0).abs() < 1e-3, "t = {}", log[0].0);
    }

    #[test]
    fn flow_fails_when_machine_dies() {
        struct Io {
            log: Rc<RefCell<Vec<TMsg>>>,
        }
        impl Actor<TMsg> for Io {
            fn on_start(&mut self, ctx: &mut Ctx<'_, TMsg>) {
                ctx.start_flow(FlowSpec {
                    kind: crate::flow::FlowKind::Transfer { src: 1, dst: 2 },
                    size_mb: 1e6,
                    tag: 9,
                });
            }
            fn on_message(&mut self, _: &mut Ctx<'_, TMsg>, _: ActorId, msg: TMsg) {
                self.log.borrow_mut().push(msg);
            }
        }
        let mut w = world(4);
        let log = Rc::new(RefCell::new(Vec::new()));
        // Owner on m3, transfer between m1 and m2; killing m2 fails the flow
        // but the owner survives to hear about it.
        w.spawn(Some(3), Box::new(Io { log: log.clone() }));
        w.at(SimTime::from_secs(1), |w| w.kill_machine(2));
        w.run_until(SimTime::from_secs(3));
        assert_eq!(*log.borrow(), vec![TMsg::FlowDone { tag: 9, failed: true }]);
    }

    #[test]
    fn spawned_actor_dies_with_self_kill() {
        struct OneShot;
        impl Actor<TMsg> for OneShot {
            fn on_message(&mut self, ctx: &mut Ctx<'_, TMsg>, _: ActorId, _: TMsg) {
                ctx.kill_self();
            }
        }
        let mut w = world(2);
        let a = w.spawn(Some(0), Box::new(OneShot));
        w.send_external(a, TMsg::Ping(0));
        w.run_until(SimTime::from_secs(1));
        assert!(!w.actor_alive(a));
    }

    #[test]
    fn proc_table_tracks_registration_and_death() {
        struct Proc;
        impl Actor<TMsg> for Proc {
            fn on_start(&mut self, ctx: &mut Ctx<'_, TMsg>) {
                ctx.register_proc(vec![1, 2, 3]);
            }
            fn on_message(&mut self, _: &mut Ctx<'_, TMsg>, _: ActorId, _: TMsg) {}
        }
        let mut w = world(2);
        let a = w.spawn(Some(1), Box::new(Proc));
        type ProcsOut = Rc<RefCell<Vec<(ActorId, Vec<u8>)>>>;
        struct Reader {
            out: ProcsOut,
        }
        impl Actor<TMsg> for Reader {
            fn on_message(&mut self, ctx: &mut Ctx<'_, TMsg>, _: ActorId, _: TMsg) {
                *self.out.borrow_mut() = ctx.procs_on(1);
            }
        }
        let out = Rc::new(RefCell::new(Vec::new()));
        let r = w.spawn(Some(1), Box::new(Reader { out: out.clone() }));
        w.send_external(r, TMsg::Ping(0));
        w.run_until(SimTime::from_secs(1));
        assert_eq!(*out.borrow(), vec![(a, vec![1, 2, 3])]);
        w.kill_actor(a);
        w.send_external(r, TMsg::Ping(0));
        w.run_until(SimTime::from_secs(2));
        assert!(out.borrow().is_empty(), "dead procs must be removed");
    }

    #[test]
    fn control_events_run_at_scheduled_time() {
        let mut w = world(2);
        let hit = Rc::new(RefCell::new(0.0));
        let h = hit.clone();
        w.at(SimTime::from_secs(3), move |w| {
            *h.borrow_mut() = w.now().as_secs_f64();
        });
        w.run_until(SimTime::from_secs(10));
        assert_eq!(*hit.borrow(), 3.0);
        assert_eq!(w.now(), SimTime::from_secs(10), "run_until advances clock");
    }

    #[test]
    fn run_until_cond_stops_early() {
        let mut w = world(2);
        for i in 1..100u64 {
            w.at(SimTime::from_secs(i), |_| {});
        }
        let fired = w.run_until_cond(SimTime::from_secs(1000), |w| {
            w.now() >= SimTime::from_secs(5)
        });
        assert!(fired);
        assert!(w.now() < SimTime::from_secs(7));
    }
}
