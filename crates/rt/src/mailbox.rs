//! Per-actor mailboxes: a queue that grows as it fills, bounded by its own
//! depth gauge, with backpressure accounting.
//!
//! The queue is std's unbounded `mpsc::channel()` — a linked list of
//! 31-slot blocks that allocates on first use and keeps each sender's
//! messages in send order — so an idle mailbox costs a few hundred bytes
//! whatever its bound. The bound is enforced in front of it: a sender first
//! reserves a slot by compare-and-increment on [`MailboxGauges`]' `depth`
//! and sends only once it holds one. What a sender does when the box is
//! full depends on what it is, and every such stall is counted
//! (`rt.mailbox_parked`), so overload shows up in metrics instead of as
//! silent unbounded queues:
//!
//! * **A thread** ([`MailboxSender::push`]: external injection, the node
//!   supervisors' inbound readers) parks on a condvar until the receiver's
//!   [`MailboxGauges::on_pop`] frees a slot.
//! * **An actor** ([`MailboxSender::push_overflow`]) never waits: it runs
//!   on a pool thread shared with every other actor, and two pool threads
//!   parked on one full box would leave nothing to drain it. Its value
//!   goes in past the bound, and the runtime *mutes* the sender instead
//!   (the Pony runtime's backpressure): it is not run again until it is
//!   woken through [`MailboxGauges::wake_when_room`], which the receiver's
//!   `on_pop` does once the depth falls below the bound. An actor whose own
//!   box is full is never left muted, since others wait on it.
//! * **The clock thread** ([`MailboxSender::push_nonblocking`]) takes the
//!   value back and retries on its next tick.
//!
//! `depth` counts reservations, so it is never below the number of queued
//! values. Thread and clock pushes never take it past the bound; actor
//! pushes overshoot it by at most what the senders muted on the box sent
//! in their last handler. Control values ([`MailboxSender::push_control`]:
//! an actor's start, its kill and the zero-delay timers it arms on itself)
//! skip the reservation too — the queue can always take them.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvError, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::task::Waker;

/// Shared depth counters of one mailbox, and where the senders that found
/// it full wait: parked threads on a condvar, muted actors as wakers.
#[derive(Debug)]
pub struct MailboxGauges {
    capacity: usize,
    depth: AtomicUsize,
    hwm: AtomicUsize,
    /// Senders parked in [`MailboxGauges::reserve_parking`]; `on_pop` takes
    /// the lock and signals only when this is non-zero.
    waiters: AtomicUsize,
    /// Set when the receiver is dropped, so parked senders give up.
    closed: AtomicBool,
    lock: Mutex<()>,
    room: Condvar,
    /// Wakers of muted senders, woken by the first pop that leaves the box
    /// below its bound (or by `close`).
    muted: Mutex<Vec<Waker>>,
    /// `true` while `muted` may be non-empty, so `on_pop` takes its lock
    /// only when someone is waiting.
    any_muted: AtomicBool,
}

impl MailboxGauges {
    /// Current queue depth.
    pub fn depth(&self) -> usize {
        self.depth.load(Ordering::SeqCst)
    }

    /// `true` when the depth is at or past the bound.
    pub fn full(&self) -> bool {
        self.depth() >= self.capacity
    }

    /// Highest depth ever observed.
    pub fn hwm(&self) -> usize {
        self.hwm.load(Ordering::Relaxed)
    }

    /// Takes a slot if the box is below its bound. The slot is taken BEFORE
    /// the channel send: the receiver can only observe (and release) a value
    /// whose reservation already happened, so depth never underflows.
    fn try_reserve(&self) -> bool {
        let mut d = self.depth.load(Ordering::SeqCst);
        while d < self.capacity {
            match self
                .depth
                .compare_exchange_weak(d, d + 1, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => {
                    self.hwm.fetch_max(d + 1, Ordering::Relaxed);
                    return true;
                }
                Err(now) => d = now,
            }
        }
        false
    }

    /// Takes a slot whatever the depth (control values).
    fn reserve_unbounded(&self) {
        let d = self.depth.fetch_add(1, Ordering::SeqCst) + 1;
        self.hwm.fetch_max(d, Ordering::Relaxed);
    }

    /// Waits for a slot; `false` when the receiver went away instead.
    ///
    /// No wake-up is lost: the waiter announces itself (`waiters`, under the
    /// lock) before it re-checks `depth`, and `on_pop` lowers `depth` before
    /// it reads `waiters`, both `SeqCst`. Either the popper sees the waiter
    /// and signals it under the lock, or the waiter sees the freed slot.
    fn reserve_parking(&self) -> bool {
        let mut guard = self.parking_lock();
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let reserved = loop {
            if self.closed.load(Ordering::SeqCst) {
                break false;
            }
            if self.try_reserve() {
                break true;
            }
            guard = self
                .room
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        };
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        reserved
    }

    /// Called by the draining thread after each receive: frees the value's
    /// slot, wakes one parked sender, if any, and — once the box is below
    /// its bound — every muted one.
    pub fn on_pop(&self) {
        let depth = self.depth.fetch_sub(1, Ordering::SeqCst) - 1;
        if self.waiters.load(Ordering::SeqCst) > 0 {
            let _guard = self.parking_lock();
            self.room.notify_one();
        }
        if depth < self.capacity && self.any_muted.load(Ordering::SeqCst) {
            self.wake_muted();
        }
    }

    /// Wakes `waker` once this box has room: at the first pop that leaves
    /// it below its bound, when it closes, or at once if it has room now.
    ///
    /// No wake-up is lost: the registration raises `any_muted` before it
    /// re-checks the depth, and `on_pop` lowers the depth before it reads
    /// `any_muted`, both `SeqCst`. Either the popper sees the waker, or the
    /// registration sees the room. A waker may be woken more than once.
    pub fn wake_when_room(&self, waker: Waker) {
        {
            let mut muted = self.muted_lock();
            muted.push(waker);
            self.any_muted.store(true, Ordering::SeqCst);
        }
        if !self.full() || self.closed.load(Ordering::SeqCst) {
            self.wake_muted();
        }
    }

    fn wake_muted(&self) {
        let wakers = {
            let mut muted = self.muted_lock();
            self.any_muted.store(false, Ordering::SeqCst);
            std::mem::take(&mut *muted)
        };
        for waker in wakers {
            waker.wake();
        }
    }

    fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        {
            let _guard = self.parking_lock();
            self.room.notify_all();
        }
        self.wake_muted();
    }

    fn muted_lock(&self) -> MutexGuard<'_, Vec<Waker>> {
        self.muted.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The lock guards no data (`()`), so a poisoned one is still valid —
    /// and `close` runs in a `Drop`, which must not panic.
    fn parking_lock(&self) -> MutexGuard<'_, ()> {
        self.lock.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Outcome of a mailbox push, for the sender's accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// Enqueued without waiting.
    Sent,
    /// Enqueued on a full mailbox: after parking ([`MailboxSender::push`]),
    /// or past the bound, for the sender to be muted
    /// ([`MailboxSender::push_overflow`]).
    SentParked,
    /// The receiving actor is gone.
    Dead,
}

/// Sending half of a mailbox.
#[derive(Debug)]
pub struct MailboxSender<T> {
    tx: Sender<T>,
    gauges: Arc<MailboxGauges>,
}

// Manual impl: a derive would wrongly require `T: Clone`.
impl<T> Clone for MailboxSender<T> {
    fn clone(&self) -> Self {
        MailboxSender {
            tx: self.tx.clone(),
            gauges: self.gauges.clone(),
        }
    }
}

impl<T> MailboxSender<T> {
    /// Sends under a slot already reserved; gives the slot back if the
    /// receiver is gone.
    fn send_reserved(&self, v: T, sent: PushOutcome) -> PushOutcome {
        if self.tx.send(v).is_ok() {
            sent
        } else {
            self.gauges.on_pop(); // nobody will pop it: give the slot back
            PushOutcome::Dead
        }
    }

    /// Enqueues `v`, blocking only when the mailbox is full.
    pub fn push(&self, v: T) -> PushOutcome {
        if self.gauges.try_reserve() {
            self.send_reserved(v, PushOutcome::Sent)
        } else if self.gauges.reserve_parking() {
            self.send_reserved(v, PushOutcome::SentParked)
        } else {
            PushOutcome::Dead
        }
    }

    /// Enqueues `v` without ever blocking, past the bound if the box is
    /// full, which it reports as [`PushOutcome::SentParked`]: the caller is
    /// an actor on a pool thread, which the runtime mutes instead of
    /// parking (see the module docs).
    pub fn push_overflow(&self, v: T) -> PushOutcome {
        if self.gauges.try_reserve() {
            self.send_reserved(v, PushOutcome::Sent)
        } else {
            self.gauges.reserve_unbounded();
            self.send_reserved(v, PushOutcome::SentParked)
        }
    }

    /// Enqueues `v` without ever blocking (the clock thread uses this so a
    /// stuck actor cannot stall every timer in the runtime). `Err` returns
    /// the value on a full mailbox for the caller to retry later.
    pub fn push_nonblocking(&self, v: T) -> Result<PushOutcome, T> {
        if self.gauges.try_reserve() {
            Ok(self.send_reserved(v, PushOutcome::Sent))
        } else if self.gauges.closed.load(Ordering::SeqCst) {
            Ok(PushOutcome::Dead)
        } else {
            Err(v)
        }
    }

    /// Enqueues a control value past the bound: it is never refused and
    /// never waits, and it is delivered behind everything pushed before it.
    pub fn push_control(&self, v: T) -> PushOutcome {
        self.gauges.reserve_unbounded();
        self.send_reserved(v, PushOutcome::Sent)
    }

    /// The mailbox's depth gauges.
    pub fn gauges(&self) -> &Arc<MailboxGauges> {
        &self.gauges
    }
}

/// Receiving half of a mailbox. Dropping it closes the box: queued values
/// are dropped and parked senders return [`PushOutcome::Dead`].
#[derive(Debug)]
pub struct MailboxReceiver<T> {
    rx: Receiver<T>,
    gauges: Arc<MailboxGauges>,
}

impl<T> MailboxReceiver<T> {
    /// Blocks for the next value; `Err` once every sender is gone and the
    /// queue is empty. The caller reports the pop with
    /// [`MailboxGauges::on_pop`].
    pub fn recv(&self) -> Result<T, RecvError> {
        self.rx.recv()
    }

    /// The next value if one is queued; never blocks. The caller reports
    /// the pop with [`MailboxGauges::on_pop`].
    pub fn try_recv(&self) -> Option<T> {
        self.rx.try_recv().ok()
    }

    /// The mailbox's depth gauges.
    pub fn gauges(&self) -> &MailboxGauges {
        &self.gauges
    }
}

impl<T> Drop for MailboxReceiver<T> {
    fn drop(&mut self) {
        self.gauges.close();
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
pub fn mailbox<T>(capacity: usize) -> (MailboxSender<T>, MailboxReceiver<T>, Arc<MailboxGauges>) {
    let (tx, rx) = std::sync::mpsc::channel();
    let gauges = Arc::new(MailboxGauges {
        capacity,
        depth: AtomicUsize::new(0),
        hwm: AtomicUsize::new(0),
        waiters: AtomicUsize::new(0),
        closed: AtomicBool::new(false),
        lock: Mutex::new(()),
        room: Condvar::new(),
        muted: Mutex::new(Vec::new()),
        any_muted: AtomicBool::new(false),
    });
    (
        MailboxSender {
            tx,
            gauges: gauges.clone(),
        },
        MailboxReceiver {
            rx,
            gauges: gauges.clone(),
        },
        gauges,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

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
    }

    #[test]
    fn nonblocking_push_reports_full() {
        let (tx, _rx, _) = mailbox::<u32>(1);
        assert_eq!(tx.push_nonblocking(1), Ok(PushOutcome::Sent));
        assert_eq!(tx.push_nonblocking(2), Err(2));
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
        std::thread::sleep(std::time::Duration::from_millis(20));
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
        assert_eq!(tx.push_nonblocking(2), Ok(PushOutcome::Dead));
        assert_eq!(tx.push_control(3), PushOutcome::Dead);
        assert_eq!(g.depth(), 0);
    }

    #[test]
    fn control_push_passes_a_full_box_and_keeps_its_place() {
        let (tx, rx, g) = mailbox::<u32>(1);
        assert_eq!(tx.push(1), PushOutcome::Sent);
        assert_eq!(tx.push_nonblocking(2), Err(2));
        assert_eq!(tx.push_control(3), PushOutcome::Sent);
        assert_eq!(g.depth(), 2);
        assert_eq!(rx.recv().unwrap(), 1);
        assert_eq!(rx.recv().unwrap(), 3);
    }

    #[test]
    fn sender_parked_on_a_full_box_is_released_when_the_receiver_drops() {
        let (tx, rx, g) = mailbox::<u32>(1);
        assert_eq!(tx.push(1), PushOutcome::Sent);
        let t = std::thread::spawn(move || tx.push(2));
        // The push can only end through `close`: nobody pops.
        while g.waiters.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        drop(rx);
        assert_eq!(t.join().unwrap(), PushOutcome::Dead);
    }

    #[test]
    fn overflow_push_passes_the_bound_and_says_so() {
        let (tx, rx, g) = mailbox::<u32>(1);
        assert_eq!(tx.push_overflow(1), PushOutcome::Sent);
        assert_eq!(tx.push_overflow(2), PushOutcome::SentParked);
        assert_eq!(g.depth(), 2);
        assert!(g.full());
        drop(rx);
        assert_eq!(tx.push_overflow(3), PushOutcome::Dead);
    }

    /// Counts its wakes.
    struct Wakes(AtomicUsize);
    impl std::task::Wake for Wakes {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn a_muted_sender_wakes_once_the_box_is_below_its_bound() {
        let (tx, rx, g) = mailbox::<u32>(2);
        let wakes = Arc::new(Wakes(AtomicUsize::new(0)));
        let woken = || wakes.0.load(Ordering::SeqCst);
        // Room now: woken at once.
        g.wake_when_room(Waker::from(wakes.clone()));
        assert_eq!(woken(), 1);
        for v in 0..3 {
            tx.push_overflow(v);
        }
        g.wake_when_room(Waker::from(wakes.clone()));
        rx.recv().unwrap();
        g.on_pop(); // depth 2: still at the bound
        assert_eq!(woken(), 1);
        rx.recv().unwrap();
        g.on_pop(); // depth 1
        assert_eq!(woken(), 2);
        // Closing the box wakes whoever still waits on it.
        tx.push_overflow(3);
        g.wake_when_room(Waker::from(wakes.clone()));
        assert_eq!(woken(), 2);
        drop(rx);
        assert_eq!(woken(), 3);
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
