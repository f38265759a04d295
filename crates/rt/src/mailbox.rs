//! Per-actor mailboxes: a queue bounded by its depth, with backpressure
//! accounting, all under one lock.
//!
//! One `Mutex` guards everything a mailbox is: the `VecDeque` of values
//! (which allocates on its first push, so an idle box allocates nothing
//! for it whatever its bound), the depth and high-water mark, whether the
//! box is closed, the threads blocked on it, the wakers of the actors muted
//! on it, and the run state of the task that drains it. A push, a pop, the
//! end of a turn, a mute and the close are each one critical section, and
//! the box's one `Condvar` is where its threads block, so no wake-up is
//! lost for the plainest of reasons: whoever waits and whoever wakes hold
//! the same lock. A muted actor's waker is woken only once the lock is
//! released (waking it takes the lock of the actor's own box), so no thread
//! ever holds two mailboxes' locks.
//!
//! What a sender does when the box is full is the `AtFull` it pushes with,
//! and every stall is counted (`rt.mailbox_parked`), so overload shows up
//! in metrics instead of as silent unbounded queues:
//!
//! * **A thread** (`AtFull::Park`, [`MailboxSender::push`]: external
//!   injection, the node supervisors' inbound readers) parks on the condvar
//!   until a pop frees a slot.
//! * **An actor** (`AtFull::Overflow`) never waits: it runs on a pool
//!   thread shared with every other actor, and two pool threads parked on
//!   one full box would leave nothing to drain it. Its value goes in past
//!   the bound, and the runtime *mutes* the sender instead (the Pony
//!   runtime's backpressure): it is not run again until it is woken through
//!   [`MailboxGauges::wake_when_room`], which the first pop that leaves the
//!   box below its bound does. An actor whose own box is full is never left
//!   muted, since others wait on it.
//! * **A control value** (`AtFull::Pass`: an actor's start, its kill, its
//!   timers and its flow completions) goes in past the bound and never
//!   stalls: the queue can always take it, and each actor's share of them
//!   is bounded by the timers and flows it armed.
//!
//! Values leave in push order, so each sender's arrive in the order it sent
//! them. A closed box (its receiver dropped) answers every push with
//! [`PushOutcome::Dead`]. Thread pushes never take the depth past the
//! bound; actor pushes overshoot it by at most what the senders muted on
//! the box sent in their last handler, and control values by their number.

use std::collections::VecDeque;
use std::sync::mpsc::RecvError;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::task::Waker;

/// Where the task that drains a box stands. Only the runtime's tasks read
/// it; a push moves it, and tells the pusher when that leaves the task to
/// be queued by the pusher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Run {
    /// Neither queued nor running: the next push queues it.
    Idle,
    /// On the run queue or running a turn: a push leaves it alone.
    Queued,
    /// Waiting for room in a box it overfilled: its wake queues it, and so
    /// does a push that fills its own box (others wait on it).
    Muted,
}

struct State<T> {
    queue: VecDeque<T>,
    /// Values queued, plus values received and not yet reported by
    /// [`MailboxGauges::on_pop`].
    depth: usize,
    hwm: usize,
    /// Set when the receiver is dropped: pushes answer `Dead`.
    closed: bool,
    /// Live senders; `recv` ends once there are none and the queue is
    /// empty.
    senders: usize,
    /// Threads blocked on the condvar: senders waiting for room, the
    /// receiver waiting for a value. They share it, so every signal wakes
    /// all of them.
    parked: usize,
    /// Wakers of muted actors, woken by the first pop that leaves the box
    /// below its bound, or by the close.
    muted: Vec<Waker>,
    run: Run,
}

/// One mailbox: its queue, depth counters and waiters under one lock, and
/// the condvar its threads block on.
pub struct MailboxGauges<T> {
    capacity: usize,
    state: Mutex<State<T>>,
    cond: Condvar,
}

impl<T> MailboxGauges<T> {
    /// Current queue depth.
    pub fn depth(&self) -> usize {
        self.lock().depth
    }

    /// Highest depth ever observed.
    pub fn hwm(&self) -> usize {
        self.lock().hwm
    }

    /// Called by the draining thread after each receive: frees the value's
    /// slot, wakes the parked threads, if any, and — once the box is below
    /// its bound — every muted actor.
    pub fn on_pop(&self) {
        let muted = self.free_slot(&mut self.lock());
        wake_all(muted);
    }

    /// Wakes `waker` once this box has room: at the first pop that leaves
    /// it below its bound, when it closes, or at once if it has room now.
    /// A waker may be woken more than once.
    pub fn wake_when_room(&self, waker: Waker) {
        let mut state = self.lock();
        if state.closed || state.depth < self.capacity {
            drop(state);
            waker.wake();
        } else {
            state.muted.push(waker);
        }
    }

    /// Ends a turn of the task: `true` while values are queued, and it goes
    /// back on the run queue; otherwise it is idle.
    pub(crate) fn end_turn(&self) -> bool {
        let mut state = self.lock();
        if state.queue.is_empty() {
            state.run = Run::Idle;
        }
        !state.queue.is_empty()
    }

    /// Mutes the task at the end of a turn, unless its own box is full:
    /// others wait on it, so it runs on (`false`: the caller queues it
    /// again). A muted task registers on the box it overfilled only after
    /// this, so that a wake that follows the registration finds it muted.
    pub(crate) fn mute(&self) -> bool {
        let mut state = self.lock();
        let mute = state.depth < self.capacity;
        if mute {
            state.run = Run::Muted;
        }
        mute
    }

    /// Ends a mute: `true` when the task was muted, and the caller queues
    /// it.
    pub(crate) fn unmute(&self) -> bool {
        let mut state = self.lock();
        let muted = state.run == Run::Muted;
        if muted {
            state.run = Run::Queued;
        }
        muted
    }

    /// `(parked threads, muted actors)`.
    #[cfg(test)]
    pub(crate) fn waiters(&self) -> (usize, usize) {
        let state = self.lock();
        (state.parked, state.muted.len())
    }

    /// Frees a slot: signals the parked threads and, once the box is below
    /// its bound, hands back the muted actors' wakers to wake outside the
    /// lock.
    fn free_slot(&self, state: &mut State<T>) -> Vec<Waker> {
        state.depth -= 1;
        self.signal(state);
        if state.depth < self.capacity {
            std::mem::take(&mut state.muted)
        } else {
            Vec::new()
        }
    }

    fn signal(&self, state: &State<T>) {
        if state.parked > 0 {
            self.cond.notify_all();
        }
    }

    /// Blocks on the condvar, counted as parked.
    fn park<'a>(&self, mut state: MutexGuard<'a, State<T>>) -> MutexGuard<'a, State<T>> {
        state.parked += 1;
        state = self.cond.wait(state).unwrap_or_else(PoisonError::into_inner);
        state.parked -= 1;
        state
    }

    /// The state stays consistent at every point where a panic can leave a
    /// critical section, so a poisoned lock is still valid — and the close
    /// runs in a `Drop`, which must not panic.
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Outcome of a mailbox push, for the sender's accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// Enqueued without waiting.
    Sent,
    /// Enqueued on a full mailbox: after parking ([`MailboxSender::push`]),
    /// or past the bound, for the sender to be muted.
    SentParked,
    /// The receiving actor is gone.
    Dead,
}

/// What a push does when the box is full (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AtFull {
    /// Wait for room: a thread outside the pool.
    Park,
    /// Go in past the bound, reported as `SentParked`: an actor, which the
    /// runtime mutes.
    Overflow,
    /// Go in past the bound, reported as `Sent`: a control value.
    Pass,
}

/// Sending half of a mailbox.
pub struct MailboxSender<T> {
    shared: Arc<MailboxGauges<T>>,
}

impl<T> Clone for MailboxSender<T> {
    fn clone(&self) -> Self {
        self.shared.lock().senders += 1;
        MailboxSender { shared: Arc::clone(&self.shared) }
    }
}

impl<T> Drop for MailboxSender<T> {
    fn drop(&mut self) {
        let mut state = self.shared.lock();
        state.senders -= 1;
        if state.senders == 0 {
            self.shared.signal(&state);
        }
    }
}

impl<T> MailboxSender<T> {
    /// Enqueues `v`, blocking only when the mailbox is full.
    pub fn push(&self, v: T) -> PushOutcome {
        self.send(v, AtFull::Park).0
    }

    /// Enqueues `v`, meeting a full box as `at_full` says. The flag is
    /// `true` when the push leaves the receiving task to be queued by the
    /// caller: it was idle, or muted with its own box now full.
    pub(crate) fn send(&self, v: T, at_full: AtFull) -> (PushOutcome, bool) {
        let g = &*self.shared;
        let mut state = g.lock();
        let mut sent = PushOutcome::Sent;
        while !state.closed && state.depth >= g.capacity && at_full != AtFull::Pass {
            sent = PushOutcome::SentParked;
            if at_full == AtFull::Overflow {
                break;
            }
            state = g.park(state);
        }
        if state.closed {
            return (PushOutcome::Dead, false);
        }
        state.queue.push_back(v);
        state.depth += 1;
        state.hwm = state.hwm.max(state.depth);
        let queue = state.run == Run::Idle || (state.run == Run::Muted && state.depth >= g.capacity);
        if queue {
            state.run = Run::Queued;
        }
        g.signal(&state);
        (sent, queue)
    }

    /// The mailbox's depth gauges.
    pub fn gauges(&self) -> &Arc<MailboxGauges<T>> {
        &self.shared
    }
}

/// Receiving half of a mailbox. Dropping it closes the box: queued values
/// are dropped, parked senders return [`PushOutcome::Dead`] and muted ones
/// wake.
pub struct MailboxReceiver<T> {
    shared: Arc<MailboxGauges<T>>,
}

impl<T> MailboxReceiver<T> {
    /// Blocks for the next value; `Err` once every sender is gone and the
    /// queue is empty. The caller reports the pop with
    /// [`MailboxGauges::on_pop`].
    pub fn recv(&self) -> Result<T, RecvError> {
        let g = &*self.shared;
        let mut state = g.lock();
        loop {
            if let Some(v) = state.queue.pop_front() {
                return Ok(v);
            }
            if state.senders == 0 {
                return Err(RecvError);
            }
            state = g.park(state);
        }
    }

    /// The next value if one is queued; never blocks. The caller reports
    /// the pop with [`MailboxGauges::on_pop`].
    pub fn try_recv(&self) -> Option<T> {
        self.shared.lock().queue.pop_front()
    }

    /// [`MailboxReceiver::try_recv`] and [`MailboxGauges::on_pop`] in one
    /// critical section: how the pool drains a task's box.
    pub(crate) fn pop(&self) -> Option<T> {
        let g = &*self.shared;
        let mut state = g.lock();
        let v = state.queue.pop_front()?;
        let muted = g.free_slot(&mut state);
        drop(state);
        wake_all(muted);
        Some(v)
    }

    /// The mailbox's depth gauges.
    pub fn gauges(&self) -> &MailboxGauges<T> {
        &self.shared
    }
}

impl<T> Drop for MailboxReceiver<T> {
    fn drop(&mut self) {
        let g = &*self.shared;
        let mut state = g.lock();
        state.closed = true;
        g.signal(&state);
        let queued = std::mem::take(&mut state.queue);
        let muted = std::mem::take(&mut state.muted);
        drop(state);
        drop(queued); // a value's own `Drop` runs outside the lock
        wake_all(muted);
    }
}

fn wake_all(wakers: Vec<Waker>) {
    for waker in wakers {
        waker.wake();
    }
}

/// Drains the mailbox until every sender is gone.
pub struct IntoIter<T>(MailboxReceiver<T>);

impl<T> Iterator for IntoIter<T> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        self.0.recv().ok()
    }
}

impl<T> IntoIterator for MailboxReceiver<T> {
    type Item = T;
    type IntoIter = IntoIter<T>;
    fn into_iter(self) -> IntoIter<T> {
        IntoIter(self)
    }
}

/// Creates a mailbox bounded at `capacity` values; returns the sender, the
/// receiver for whoever drains it, and the shared gauges. Nothing is
/// allocated for the queue until the first push.
pub fn mailbox<T>(capacity: usize) -> (MailboxSender<T>, MailboxReceiver<T>, Arc<MailboxGauges<T>>) {
    let state = State {
        queue: VecDeque::new(),
        depth: 0,
        hwm: 0,
        closed: false,
        senders: 1,
        parked: 0,
        muted: Vec::new(),
        run: Run::Idle,
    };
    let shared = Arc::new(MailboxGauges { capacity, state: Mutex::new(state), cond: Condvar::new() });
    (
        MailboxSender { shared: Arc::clone(&shared) },
        MailboxReceiver { shared: Arc::clone(&shared) },
        shared,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    fn overflow<T>(tx: &MailboxSender<T>, v: T) -> PushOutcome {
        tx.send(v, AtFull::Overflow).0
    }

    fn control<T>(tx: &MailboxSender<T>, v: T) -> PushOutcome {
        tx.send(v, AtFull::Pass).0
    }

    #[test]
    fn depth_and_hwm_track_pushes_and_pops() {
        let (tx, rx, g) = mailbox::<u32>(8);
        assert_eq!(tx.push(1), PushOutcome::Sent);
        assert_eq!(tx.push(2), PushOutcome::Sent);
        assert_eq!(g.depth(), 2);
        assert_eq!(g.hwm(), 2);
        rx.recv().unwrap();
        g.on_pop();
        assert_eq!(g.depth(), 1);
        assert_eq!(g.hwm(), 2, "hwm is sticky");
        assert_eq!(rx.pop(), Some(2));
        assert_eq!(g.depth(), 0, "pop reports itself");
    }

    #[test]
    fn push_to_dropped_receiver_is_dead() {
        let (tx, rx, _) = mailbox::<u32>(1);
        drop(rx);
        assert_eq!(tx.push(1), PushOutcome::Dead);
    }

    #[test]
    fn full_mailbox_parks_then_delivers() {
        let (tx, rx, g) = mailbox::<u32>(1);
        assert_eq!(tx.push(1), PushOutcome::Sent);
        let t = std::thread::spawn(move || tx.push(2));
        while g.waiters().0 == 0 {
            std::thread::yield_now();
        }
        assert_eq!(rx.recv().unwrap(), 1);
        g.on_pop();
        assert_eq!(t.join().unwrap(), PushOutcome::SentParked);
        assert_eq!(rx.recv().unwrap(), 2);
    }

    #[test]
    fn dead_pushes_leave_depth_at_zero() {
        let (tx, rx, g) = mailbox::<u32>(1);
        drop(rx);
        assert_eq!(tx.push(1), PushOutcome::Dead);
        assert_eq!(overflow(&tx, 2), PushOutcome::Dead);
        assert_eq!(control(&tx, 3), PushOutcome::Dead);
        assert_eq!(g.depth(), 0);
    }

    #[test]
    fn control_push_passes_a_full_box_and_keeps_its_place() {
        let (tx, rx, g) = mailbox::<u32>(1);
        assert_eq!(tx.push(1), PushOutcome::Sent);
        assert_eq!(control(&tx, 2), PushOutcome::Sent);
        assert_eq!(control(&tx, 3), PushOutcome::Sent);
        assert_eq!(g.depth(), 3);
        assert_eq!(rx.recv().unwrap(), 1);
        assert_eq!(rx.recv().unwrap(), 2);
        assert_eq!(rx.recv().unwrap(), 3);
    }

    #[test]
    fn sender_parked_on_a_full_box_is_released_when_the_receiver_drops() {
        let (tx, rx, g) = mailbox::<u32>(1);
        assert_eq!(tx.push(1), PushOutcome::Sent);
        let t = std::thread::spawn(move || tx.push(2));
        // The push can only end through the close: nobody pops.
        while g.waiters().0 == 0 {
            std::thread::yield_now();
        }
        drop(rx);
        assert_eq!(t.join().unwrap(), PushOutcome::Dead);
    }

    #[test]
    fn a_receiver_blocked_on_an_empty_box_ends_with_the_last_sender() {
        let (tx, rx, g) = mailbox::<u32>(1);
        let tx2 = tx.clone();
        let t = std::thread::spawn(move || rx.into_iter().collect::<Vec<_>>());
        while g.waiters().0 == 0 {
            std::thread::yield_now();
        }
        assert_eq!(tx.push(1), PushOutcome::Sent);
        drop(tx);
        // One sender is still there: the receiver waits on.
        std::thread::sleep(Duration::from_millis(20));
        assert!(!t.is_finished());
        drop(tx2);
        assert_eq!(t.join().unwrap(), [1]);
    }

    #[test]
    fn overflow_push_passes_the_bound_and_says_so() {
        let (tx, rx, g) = mailbox::<u32>(1);
        assert_eq!(overflow(&tx, 1), PushOutcome::Sent);
        assert_eq!(overflow(&tx, 2), PushOutcome::SentParked);
        assert_eq!(g.depth(), 2);
        drop(rx);
        assert_eq!(overflow(&tx, 3), PushOutcome::Dead);
    }

    /// Counts its wakes.
    struct WakeCount(AtomicUsize);
    impl std::task::Wake for WakeCount {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn a_muted_sender_wakes_once_the_box_is_below_its_bound() {
        let (tx, rx, g) = mailbox::<u32>(2);
        let wakes = Arc::new(WakeCount(AtomicUsize::new(0)));
        let woken = || wakes.0.load(Ordering::SeqCst);
        // Room now: woken at once.
        g.wake_when_room(Waker::from(wakes.clone()));
        assert_eq!(woken(), 1);
        for v in 0..3 {
            overflow(&tx, v);
        }
        g.wake_when_room(Waker::from(wakes.clone()));
        rx.pop().unwrap(); // depth 2: still at the bound
        assert_eq!(woken(), 1);
        rx.pop().unwrap(); // depth 1
        assert_eq!(woken(), 2);
        // Closing the box wakes whoever still waits on it.
        overflow(&tx, 3);
        g.wake_when_room(Waker::from(wakes.clone()));
        assert_eq!(woken(), 2);
        drop(rx);
        assert_eq!(woken(), 3);
    }

    /// The task's run state, one transition at a time: a push queues an
    /// idle task and leaves a queued one alone; a turn that ends with
    /// values queued goes again; a muted task is queued by its wake or by a
    /// push that fills its own box, and a task whose box is full is never
    /// muted.
    #[test]
    fn a_push_queues_the_task_only_when_nobody_else_will() {
        let (tx, rx, g) = mailbox::<u32>(3);
        assert_eq!(tx.send(1, AtFull::Pass), (PushOutcome::Sent, true), "idle: queue it");
        assert_eq!(tx.send(2, AtFull::Pass), (PushOutcome::Sent, false), "already queued");
        rx.pop();
        assert!(g.end_turn(), "a value is left: go again");
        rx.pop();
        assert!(!g.end_turn(), "drained: idle");
        assert_eq!(tx.send(3, AtFull::Overflow), (PushOutcome::Sent, true));
        assert!(g.mute(), "room in its own box: muted");
        assert!(!tx.send(4, AtFull::Overflow).1, "muted, and its box not full");
        assert!(tx.send(5, AtFull::Overflow).1, "its box is full: others wait on it");
        assert!(!g.unmute(), "no longer muted");
        assert!(!g.mute(), "its box is full: never muted");
        rx.pop();
        rx.pop();
        assert!(g.mute());
        assert!(g.unmute(), "the wake queues it");
        assert!(!g.unmute(), "once");
    }

    /// Producers push while the test thread plays the pool: it runs a turn
    /// only when handed the task by a push or a turn end that said so. A
    /// lost wake-up leaves values queued with nobody to run the task (the
    /// hand-off times out); a task queued twice shows up as a second
    /// hand-off while a turn runs.
    #[test]
    fn the_task_is_queued_once_and_never_forgotten() {
        const PRODUCERS: u64 = 4;
        const PER_PRODUCER: u64 = 5_000;
        let (tx, rx, g) = mailbox::<u64>(8);
        let (runq_tx, runq) = std::sync::mpsc::channel::<()>();
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|_| {
                let (tx, runq_tx) = (tx.clone(), runq_tx.clone());
                std::thread::spawn(move || {
                    for i in 0..PER_PRODUCER {
                        if tx.send(i, AtFull::Overflow).1 {
                            runq_tx.send(()).unwrap();
                        }
                    }
                })
            })
            .collect();
        let mut got = 0;
        while got < PRODUCERS * PER_PRODUCER {
            runq.recv_timeout(Duration::from_secs(10)).expect("a wake-up was lost");
            assert!(runq.try_recv().is_err(), "the task was queued twice");
            for _ in 0..64 {
                match rx.pop() {
                    Some(_) => got += 1,
                    None => break,
                }
            }
            if g.end_turn() {
                runq_tx.send(()).unwrap();
            }
        }
        for t in producers {
            t.join().unwrap();
        }
        assert_eq!(g.depth(), 0);
    }

    /// Four producers race into a box far smaller than what they send, so
    /// most pushes park; each producer's values must still arrive in the
    /// order it sent them, none lost, and depth must never pass the bound.
    #[test]
    fn many_producers_keep_per_source_fifo_through_a_small_box() {
        const PRODUCERS: u64 = 4;
        const PER_PRODUCER: u64 = 5_000;
        const CAP: usize = 8;
        let (tx, rx, g) = mailbox::<(u64, u64)>(CAP);
        let start = Arc::new(std::sync::Barrier::new(PRODUCERS as usize));
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let (tx, start) = (tx.clone(), start.clone());
                std::thread::spawn(move || {
                    start.wait();
                    (0..PER_PRODUCER)
                        .filter(|&i| tx.push((p, i)) == PushOutcome::SentParked)
                        .count()
                })
            })
            .collect();
        drop(tx);
        let mut next = [0u64; PRODUCERS as usize];
        for (p, i) in rx {
            assert!(g.depth() <= CAP, "depth {} past the bound", g.depth());
            g.on_pop();
            assert_eq!(i, next[p as usize], "producer {p} out of order");
            next[p as usize] += 1;
        }
        assert_eq!(next, [PER_PRODUCER; PRODUCERS as usize]);
        let parked: usize = producers.into_iter().map(|t| t.join().unwrap()).sum();
        assert!(parked > 0, "a box of {CAP} never filled");
        assert_eq!(g.depth(), 0);
        assert!(g.hwm() <= CAP);
    }
}
