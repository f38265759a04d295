//! Hashed timer wheel for the live runtime's clock thread.
//!
//! `ctx.timer` in a live actor becomes an entry here; the clock thread
//! ticks the wheel at a fixed granularity and fires whatever expired.
//! Insertion and expiry are O(1) amortised — the wheel hashes each
//! deadline into `slots[tick % n]`, so a slot holds every entry whose
//! deadline lands on that tick *in any round*; expiry filters by the
//! stored absolute tick.

use fuxi_sim::{SimDuration, SimTime};

/// A hashed timer wheel holding payloads of type `T`.
#[derive(Debug)]
pub struct TimerWheel<T> {
    slots: Vec<Vec<(u64, T)>>,
    tick_us: u64,
    /// Last tick fully expired.
    cur_tick: u64,
    len: usize,
}

impl<T> TimerWheel<T> {
    /// A wheel of `n_slots` buckets at `tick_us` microseconds per tick.
    pub fn new(n_slots: usize, tick_us: u64) -> Self {
        assert!(n_slots > 0 && tick_us > 0);
        TimerWheel {
            slots: (0..n_slots).map(|_| Vec::new()).collect(),
            tick_us,
            cur_tick: 0,
            len: 0,
        }
    }

    /// Tick granularity.
    pub fn tick(&self) -> SimDuration {
        SimDuration::from_micros(self.tick_us)
    }

    /// Number of armed timers.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no timer is armed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Arms a timer firing at `now + delay` (rounded up to the next tick,
    /// and never before a tick the wheel already expired). Returns that
    /// tick, which [`TimerWheel::cancel`] takes.
    pub fn arm(&mut self, now: SimTime, delay: SimDuration, payload: T) -> u64 {
        let at_us = now.0.saturating_add(delay.0);
        let tick = at_us.div_ceil(self.tick_us).max(self.cur_tick + 1);
        let slot = (tick % self.slots.len() as u64) as usize;
        self.slots[slot].push((tick, payload));
        self.len += 1;
        tick
    }

    /// Drops the timers armed for `tick` whose payload matches `pred`;
    /// returns how many. Touches that tick's slot only.
    pub fn cancel(&mut self, tick: u64, mut pred: impl FnMut(&T) -> bool) -> usize {
        let n = self.slots.len() as u64;
        let bucket = &mut self.slots[(tick % n) as usize];
        let before = bucket.len();
        bucket.retain(|(t, p)| *t != tick || !pred(p));
        let dropped = before - bucket.len();
        self.len -= dropped;
        dropped
    }

    /// Fires every timer with a deadline at or before `now`; returns their
    /// payloads in deadline order.
    pub fn expire(&mut self, now: SimTime) -> Vec<T> {
        let now_tick = now.0 / self.tick_us;
        if now_tick <= self.cur_tick || self.len == 0 {
            self.cur_tick = self.cur_tick.max(now_tick);
            return Vec::new();
        }
        let n = self.slots.len() as u64;
        let mut fired: Vec<(u64, T)> = Vec::new();
        // Visit each slot at most once even if we slept through many rounds.
        let span = (now_tick - self.cur_tick).min(n);
        for t in self.cur_tick + 1..=self.cur_tick + span {
            let slot = (t % n) as usize;
            let bucket = &mut self.slots[slot];
            let mut i = 0;
            while i < bucket.len() {
                if bucket[i].0 <= now_tick {
                    fired.push(bucket.swap_remove(i));
                } else {
                    i += 1;
                }
            }
        }
        self.cur_tick = now_tick;
        self.len -= fired.len();
        fired.sort_by_key(|&(t, _)| t);
        fired.into_iter().map(|(_, p)| p).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime(us)
    }
    fn d(us: u64) -> SimDuration {
        SimDuration(us)
    }

    #[test]
    fn fires_in_deadline_order() {
        let mut w: TimerWheel<u32> = TimerWheel::new(8, 1000);
        w.arm(t(0), d(5_000), 5);
        w.arm(t(0), d(2_000), 2);
        w.arm(t(0), d(9_000), 9);
        assert_eq!(w.expire(t(1_000)), vec![]);
        assert_eq!(w.expire(t(6_000)), vec![2, 5]);
        assert_eq!(w.len(), 1);
        assert_eq!(w.expire(t(20_000)), vec![9]);
        assert!(w.is_empty());
    }

    #[test]
    fn multi_round_entries_wait_their_round() {
        // 4 slots: a 10-tick delay wraps 2.5 rounds.
        let mut w: TimerWheel<&str> = TimerWheel::new(4, 1000);
        w.arm(t(0), d(10_000), "late");
        w.arm(t(0), d(2_000), "early");
        assert_eq!(w.expire(t(4_000)), vec!["early"]);
        assert_eq!(w.expire(t(9_000)), Vec::<&str>::new());
        assert_eq!(w.expire(t(10_000)), vec!["late"]);
    }

    #[test]
    fn zero_delay_rounds_to_next_tick() {
        let mut w: TimerWheel<u8> = TimerWheel::new(8, 1000);
        w.expire(t(3_000));
        w.arm(t(3_000), d(0), 1);
        assert_eq!(w.expire(t(3_999)), vec![]);
        assert_eq!(w.expire(t(4_000)), vec![1]);
    }

    #[test]
    fn cancel_drops_only_the_matching_timers_of_one_tick() {
        // 4 slots: ticks 2 and 6 share a slot.
        let mut w: TimerWheel<(char, u32)> = TimerWheel::new(4, 1000);
        let t2 = w.arm(t(0), d(2_000), ('a', 1));
        w.arm(t(0), d(2_000), ('b', 1));
        let t6 = w.arm(t(0), d(6_000), ('a', 2));
        assert_eq!((t2, t6), (2, 6));
        assert_eq!(w.cancel(t2, |p| p.0 == 'a'), 1);
        assert_eq!(w.cancel(t2, |p| p.0 == 'a'), 0);
        assert_eq!(w.len(), 2);
        assert_eq!(w.expire(t(10_000)), vec![('b', 1), ('a', 2)]);
        assert!(w.is_empty());
    }

    #[test]
    fn long_sleep_visits_every_slot_once() {
        let mut w: TimerWheel<u32> = TimerWheel::new(4, 1000);
        for i in 0..12u32 {
            w.arm(t(0), d(u64::from(i) * 1000 + 500), i);
        }
        // Sleep far past everything: all fire, in order, exactly once.
        let fired = w.expire(t(1_000_000));
        assert_eq!(fired, (0..12).collect::<Vec<_>>());
        assert!(w.is_empty());
    }
}
