//! The event queue: a hierarchical calendar queue ordered by `(time, seq)`.
//! The per-event sequence number makes simultaneous events deterministic.
//!
//! # Calendar queue
//!
//! A binary heap pays O(log n) sift-copies per operation over the whole
//! backlog. The calendar queue splits events into a near-term **window**
//! (a small heap holding everything below a time horizon) and a hashed
//! wheel of **tick slots** (unordered vectors, one push per far event).
//! Far events cost O(1) to insert and are migrated to the window one tick
//! at a time as the horizon advances, so the heap only ever contains the
//! events of the current tick neighbourhood — the same shape as the
//! runtime's `TimerWheel`, but deterministic: total order is exactly
//! `(time, seq)`, i.e. FIFO within a tick.
//!
//! Determinism rules: `seq` is assigned at push, strictly increasing;
//! the window heap orders by `(time, seq)`; slot migration moves *whole
//! ticks*, so no slot event can ever order before a window event. A plain
//! `(time, seq)` binary heap lives in this file's test module as the
//! reference model, and two differential proptests pin the calendar to a
//! byte-identical pop stream.
//!
//! # Envelope arena
//!
//! `Deliver` payloads (the message plus addressing/trace metadata) live in
//! a slab arena and are referenced from queued events by a `u32` handle:
//! sift and migration operations move 32-byte events regardless of message
//! size, and freed slots are recycled, so a steady-state world allocates
//! nothing for event traffic.

use crate::actor::ActorId;
use crate::time::SimTime;
use fuxi_obs::TraceId;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// The one requirement the kernel places on the message type: the flow
/// subsystem must be able to fabricate I/O-completion messages addressed to
/// the actor that started the flow.
pub trait KernelMsg: std::fmt::Debug + 'static {
    /// A message reporting that flow `tag` finished (`failed = true` when the
    /// flow was aborted by a machine failure).
    fn flow_done(tag: u64, failed: bool) -> Self;
}

/// A scripted control step run against the whole world.
pub(crate) type ControlFn<M> = Box<dyn FnOnce(&mut crate::world::World<M>)>;

pub(crate) enum EventKind<M: KernelMsg> {
    /// Deliver `msg` from `from` to `to`. The delivery envelope carries the
    /// causal trace id, so trace propagation needs no protocol-level fields:
    /// a handler's sends inherit the trace of the message being handled.
    Deliver {
        to: ActorId,
        from: ActorId,
        msg: M,
        trace: TraceId,
    },
    /// Fire actor `actor`'s timer carrying `tag`.
    Timer { actor: ActorId, tag: u64 },
    /// Advance the flow model.
    FlowTick,
    /// Run a control closure against the whole world (fault injection,
    /// scripted scenario steps).
    Control(ControlFn<M>),
}

pub(crate) struct Event<M: KernelMsg> {
    pub time: SimTime,
    /// Push-order sequence number; the tie-break within a timestamp. Part of
    /// the popped event's identity (the differential kernel tests compare
    /// it), though the world only dispatches on `time` and `kind`.
    #[allow(dead_code)]
    pub seq: u64,
    pub kind: EventKind<M>,
}

/// A `Deliver` payload parked in the arena while its event is queued.
struct Envelope<M> {
    to: ActorId,
    from: ActorId,
    msg: M,
    trace: TraceId,
}

/// Slab arena of delivery envelopes with a recycled free list.
struct EnvelopeArena<M> {
    slots: Vec<Option<Envelope<M>>>,
    free: Vec<u32>,
}

impl<M> EnvelopeArena<M> {
    fn new() -> Self {
        Self {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    fn insert(&mut self, env: Envelope<M>) -> u32 {
        match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = Some(env);
                i
            }
            None => {
                self.slots.push(Some(env));
                (self.slots.len() - 1) as u32
            }
        }
    }

    fn take(&mut self, i: u32) -> Envelope<M> {
        let env = self.slots[i as usize].take().expect("live envelope handle");
        self.free.push(i);
        env
    }
}

/// The queued form of an event: fixed-size, with `Deliver` payloads
/// replaced by arena handles.
struct QEvent<M: KernelMsg> {
    time: SimTime,
    seq: u64,
    kind: QueuedKind<M>,
}

enum QueuedKind<M: KernelMsg> {
    Deliver(u32),
    Timer { actor: ActorId, tag: u64 },
    FlowTick,
    Control(ControlFn<M>),
}

impl<M: KernelMsg> PartialEq for QEvent<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<M: KernelMsg> Eq for QEvent<M> {}

impl<M: KernelMsg> PartialOrd for QEvent<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<M: KernelMsg> Ord for QEvent<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest event.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Calendar tick width. One tick of simulated time shares a slot visit.
const TICK_US: u64 = 1_000;
/// Hashed wheel size: tick `t` lands in slot `t % N_SLOTS`.
const N_SLOTS: usize = 256;

/// The calendar: near-term window heap + hashed far-tick slots.
///
/// Invariants: `horizon_us` is a multiple of [`TICK_US`]; every window
/// event has `time < horizon_us`; every slot event has `time >=
/// horizon_us`. A nonempty window's front is therefore the global
/// `(time, seq)` minimum.
struct Calendar<M: KernelMsg> {
    window: BinaryHeap<QEvent<M>>,
    slots: Vec<Vec<QEvent<M>>>,
    horizon_us: u64,
    /// Events currently parked in `slots`.
    in_slots: usize,
}

impl<M: KernelMsg> Calendar<M> {
    fn new() -> Self {
        Self {
            window: BinaryHeap::with_capacity(1024),
            slots: (0..N_SLOTS).map(|_| Vec::new()).collect(),
            horizon_us: 0,
            in_slots: 0,
        }
    }

    fn push(&mut self, ev: QEvent<M>) {
        if ev.time.0 < self.horizon_us {
            // Inside the current horizon (including same-tick pushes during
            // a drain): straight into the ordered window.
            self.window.push(ev);
        } else {
            let tick = ev.time.0 / TICK_US;
            self.slots[(tick % N_SLOTS as u64) as usize].push(ev);
            self.in_slots += 1;
        }
    }

    /// Refills the window from the slots when it runs dry, migrating whole
    /// ticks in horizon order. A full fruitless wheel round means the next
    /// `N_SLOTS` ticks are empty; the horizon then jumps straight to the
    /// earliest occupied tick instead of walking empty rounds.
    fn ensure_window(&mut self) {
        while self.window.is_empty() && self.in_slots > 0 {
            let mut moved = false;
            for _ in 0..N_SLOTS {
                let tick = self.horizon_us / TICK_US;
                let idx = (tick % N_SLOTS as u64) as usize;
                self.horizon_us = (tick + 1) * TICK_US;
                let slot = &mut self.slots[idx];
                let mut i = 0;
                while i < slot.len() {
                    if slot[i].time.0 / TICK_US == tick {
                        self.window.push(slot.swap_remove(i));
                        self.in_slots -= 1;
                        moved = true;
                    } else {
                        i += 1;
                    }
                }
                if moved {
                    break;
                }
            }
            if !moved {
                let min_tick = self
                    .slots
                    .iter()
                    .flatten()
                    .map(|e| e.time.0 / TICK_US)
                    .min()
                    .expect("in_slots > 0 implies an occupied slot");
                self.horizon_us = min_tick * TICK_US;
            }
        }
    }

    fn pop(&mut self) -> Option<QEvent<M>> {
        self.ensure_window();
        self.window.pop()
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        self.ensure_window();
        self.window.peek().map(|e| e.time)
    }
}

/// The kernel's event queue: total order by `(time, seq)`, with `Deliver`
/// payloads parked in the envelope arena.
pub(crate) struct EventQueue<M: KernelMsg> {
    arena: EnvelopeArena<M>,
    calendar: Calendar<M>,
    next_seq: u64,
}

impl<M: KernelMsg> EventQueue<M> {
    pub fn new() -> Self {
        Self {
            arena: EnvelopeArena::new(),
            calendar: Calendar::new(),
            next_seq: 0,
        }
    }

    pub fn push(&mut self, time: SimTime, kind: EventKind<M>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let kind = match kind {
            EventKind::Deliver { to, from, msg, trace } => QueuedKind::Deliver(
                self.arena.insert(Envelope { to, from, msg, trace }),
            ),
            EventKind::Timer { actor, tag } => QueuedKind::Timer { actor, tag },
            EventKind::FlowTick => QueuedKind::FlowTick,
            EventKind::Control(f) => QueuedKind::Control(f),
        };
        self.calendar.push(QEvent { time, seq, kind });
    }

    pub fn pop(&mut self) -> Option<Event<M>> {
        let ev = self.calendar.pop()?;
        let kind = match ev.kind {
            QueuedKind::Deliver(i) => {
                let Envelope { to, from, msg, trace } = self.arena.take(i);
                EventKind::Deliver { to, from, msg, trace }
            }
            QueuedKind::Timer { actor, tag } => EventKind::Timer { actor, tag },
            QueuedKind::FlowTick => EventKind::FlowTick,
            QueuedKind::Control(f) => EventKind::Control(f),
        };
        Some(Event {
            time: ev.time,
            seq: ev.seq,
            kind,
        })
    }

    /// Time of the next event. `&mut`: the calendar may migrate a tick
    /// into its window to answer.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.calendar.peek_time()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[derive(Debug)]
    struct NoMsg;
    impl KernelMsg for NoMsg {
        fn flow_done(_: u64, _: bool) -> Self {
            NoMsg
        }
    }

    fn timer_ev(actor: u32) -> EventKind<NoMsg> {
        EventKind::Timer {
            actor: ActorId(actor),
            tag: 0,
        }
    }

    fn tag_of(kind: &EventKind<NoMsg>) -> u32 {
        match kind {
            EventKind::Timer { actor, .. } => actor.0,
            _ => unreachable!(),
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q: EventQueue<NoMsg> = EventQueue::new();
        q.push(SimTime::from_secs(3), timer_ev(3));
        q.push(SimTime::from_secs(1), timer_ev(1));
        q.push(SimTime::from_secs(2), timer_ev(2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| e.time.as_micros() / 1_000_000)
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q: EventQueue<NoMsg> = EventQueue::new();
        for i in 0..10u32 {
            q.push(SimTime::from_secs(1), timer_ev(i));
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|e| tag_of(&e.kind))
            .collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn peek_time_matches_next_pop() {
        let mut q: EventQueue<NoMsg> = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_secs(7), timer_ev(0));
        q.push(SimTime::from_secs(4), timer_ev(1));
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(4)));
        assert_eq!(q.pop().map(|e| e.time), Some(SimTime::from_secs(4)));
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(7)));
        assert_eq!(q.pop().map(|e| e.time), Some(SimTime::from_secs(7)));
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn same_tick_pushes_during_drain_stay_fifo() {
        // Pushing at the exact time being drained (flow completions do
        // this) must deliver after everything already queued at that time.
        let mut q: EventQueue<NoMsg> = EventQueue::new();
        q.push(SimTime::from_micros(500), timer_ev(0));
        q.push(SimTime::from_micros(500), timer_ev(1));
        let first = q.pop().unwrap();
        assert_eq!(tag_of(&first.kind), 0);
        q.push(first.time, timer_ev(2));
        assert_eq!(tag_of(&q.pop().unwrap().kind), 1);
        assert_eq!(tag_of(&q.pop().unwrap().kind), 2);
    }

    #[test]
    fn sparse_horizon_jumps_over_empty_rounds() {
        // Events hours apart: the fruitless-round jump must find them
        // without walking millions of empty ticks.
        let mut q: EventQueue<NoMsg> = EventQueue::new();
        q.push(SimTime::from_secs(3), timer_ev(0));
        q.push(SimTime::from_secs(7200), timer_ev(1));
        q.push(SimTime::from_secs(10_000), timer_ev(2));
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|e| tag_of(&e.kind))
            .collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn envelope_arena_recycles_slots() {
        #[derive(Debug)]
        #[allow(dead_code)]
        struct Big([u64; 8]);
        impl KernelMsg for Big {
            fn flow_done(_: u64, _: bool) -> Self {
                Big([0; 8])
            }
        }
        let mut q: EventQueue<Big> = EventQueue::new();
        for round in 0..50u64 {
            for i in 0..4u64 {
                q.push(
                    SimTime::from_micros(round * 10 + i),
                    EventKind::Deliver {
                        to: ActorId(0),
                        from: ActorId(1),
                        msg: Big([round; 8]),
                        trace: TraceId::NONE,
                    },
                );
            }
            for _ in 0..4 {
                q.pop().unwrap();
            }
        }
        // 4 in-flight envelopes max; the slab never grows past that.
        assert!(q.arena.slots.len() <= 4, "slab grew: {}", q.arena.slots.len());
    }

    type Popped = (u64, u64, u32);

    /// The calendar queue's `(time, seq, tag)` pop stream for an op tape.
    fn calendar_stream(ops: &[(u32, u8)]) -> Vec<Popped> {
        drive(
            EventQueue::<NoMsg>::new(),
            |q, at, tag| q.push(SimTime(at), timer_ev(tag)),
            |q| q.pop().map(|ev| (ev.time.0, ev.seq, tag_of(&ev.kind))),
            ops,
        )
    }

    /// The same from the reference model: the original kernel's queue, a
    /// binary min-heap on `(time, seq)` with `seq` assigned at push.
    fn reference_stream(ops: &[(u32, u8)]) -> Vec<Popped> {
        drive(
            (BinaryHeap::new(), 0u64),
            |(heap, seq), at, tag| {
                heap.push(std::cmp::Reverse((at, *seq, tag)));
                *seq += 1;
            },
            |(heap, _)| heap.pop().map(|r| r.0),
            ops,
        )
    }

    /// Drives one queue through an op tape: pushes at `now + dt`, pops
    /// (advancing `now`), and same-tick storm re-pushes at pop time. The
    /// resulting `(time, seq, tag)` stream must be identical for the
    /// calendar and the reference heap.
    fn drive<Q>(
        mut q: Q,
        push_tag: fn(&mut Q, u64, u32),
        pop_tag: fn(&mut Q) -> Option<Popped>,
        ops: &[(u32, u8)],
    ) -> Vec<Popped> {
        let mut now = 0u64;
        let mut tag = 0u32;
        let mut out = Vec::new();
        for &(dt, kind) in ops {
            match kind % 4 {
                // Near and far pushes (dt spans sub-tick to many ticks).
                0 | 1 => {
                    push_tag(&mut q, now + dt as u64, tag);
                    tag += 1;
                }
                2 => {
                    if let Some(ev) = pop_tag(&mut q) {
                        now = ev.0;
                        out.push(ev);
                    }
                }
                // Pop, then a same-time storm push (drain re-entry).
                _ => {
                    if let Some(ev) = pop_tag(&mut q) {
                        now = ev.0;
                        out.push(ev);
                        push_tag(&mut q, now, tag);
                        tag += 1;
                    }
                }
            }
        }
        while let Some(ev) = pop_tag(&mut q) {
            out.push(ev);
        }
        out
    }

    proptest! {
        /// The calendar and the reference heap produce byte-identical
        /// event streams on random schedules, including same-tick storms.
        #[test]
        fn calendar_matches_heap_kernel(
            ops in prop::collection::vec((0u32..50_000, 0u8..4), 1..300),
        ) {
            prop_assert_eq!(calendar_stream(&ops), reference_stream(&ops));
        }

        /// Same property when every event lands within a handful of ticks
        /// (dense storms exercising FIFO-within-tick and drain re-pushes).
        #[test]
        fn calendar_matches_heap_in_tick_storms(
            ops in prop::collection::vec((0u32..2_500, 0u8..4), 1..300),
        ) {
            prop_assert_eq!(calendar_stream(&ops), reference_stream(&ops));
        }
    }
}
