//! Fixed-width windowed time-series: the storage format of the live
//! metrics plane.
//!
//! A [`Ring`] folds observations into fixed-width time windows (1 s by
//! default) and retains the most recent `retain` windows (60 by default)
//! in a ring buffer of per-window [`Aggregate`]s. Windows are keyed by
//! their **absolute** index `floor(t / width)`, not by a ring position,
//! which makes [`Ring::merge`] associative and commutative: merging rings
//! in any order yields the same ring as recording the interleaved stream
//! into a single ring (the property the proptests in `metrics.rs` pin
//! down). It is the one ring in the repo: [`WindowRing`] is a ring of
//! [`WindowAgg`]s plus running totals over the whole stream, and
//! [`WindowedHistogram`](crate::metrics::WindowedHistogram) is a ring of
//! [`Histogram`](crate::metrics::Histogram)s.
//!
//! Everything here is plain-`std` and dependency-free so the same types
//! serve the deterministic simulator (sim seconds) and the live runtime
//! (wall seconds since the runtime epoch).

/// Default window width, seconds.
pub const DEFAULT_WINDOW_S: f64 = 1.0;
/// Default number of windows retained (one minute at 1 s windows).
pub const DEFAULT_RETAIN: usize = 60;

/// Aggregates of all observations that landed in one window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowAgg {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values (the windowed *counter* reading).
    pub sum: f64,
    /// Smallest observed value.
    pub min: f64,
    /// Largest observed value.
    pub max: f64,
    /// Most recent observed value (the windowed *gauge* reading).
    pub last: f64,
    /// Timestamp of `last`. Ties resolve to the larger value so merge
    /// stays commutative even for same-instant observations.
    pub last_t: f64,
}

impl Default for WindowAgg {
    fn default() -> Self {
        WindowAgg {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            last: 0.0,
            last_t: f64::NEG_INFINITY,
        }
    }
}

impl WindowAgg {
    /// Folds one observation in.
    pub fn observe(&mut self, t_s: f64, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        if (t_s, v) >= (self.last_t, self.last) {
            self.last_t = t_s;
            self.last = v;
        }
    }

    /// Combines two aggregates of the same window. Commutative and
    /// associative: `last` is resolved by lexicographic `(last_t, last)`
    /// maximum rather than call order.
    pub fn merge(&mut self, other: &WindowAgg) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        if (other.last_t, other.last) >= (self.last_t, self.last) {
            self.last_t = other.last_t;
            self.last = other.last;
        }
    }
}

/// What a [`Ring`] keeps per window.
pub trait Aggregate: Clone + Default {
    /// Observations folded in; windows with none are never reported.
    fn count(&self) -> u64;
    /// Combines two aggregates of the same window. Must be associative
    /// and commutative for [`Ring::merge`] to be.
    fn merge(&mut self, other: &Self);
}

impl Aggregate for WindowAgg {
    fn count(&self) -> u64 {
        self.count
    }
    fn merge(&mut self, other: &WindowAgg) {
        WindowAgg::merge(self, other);
    }
}

/// A ring of the most recent `retain` windows, each an `A`.
#[derive(Debug, Clone, PartialEq)]
pub struct Ring<A> {
    width_s: f64,
    retain: usize,
    /// Highest absolute window index observed so far (`None` when empty).
    head: Option<i64>,
    /// `slots[idx.rem_euclid(retain)]` holds the aggregate for absolute
    /// window `idx` iff the stored index matches; stale entries are
    /// ignored and lazily overwritten.
    slots: Vec<(i64, A)>,
}

impl<A: Aggregate> Ring<A> {
    /// Ring with the given window width (seconds) and retention count.
    pub fn new(width_s: f64, retain: usize) -> Self {
        let retain = retain.max(1);
        Ring {
            width_s: if width_s > 0.0 { width_s } else { DEFAULT_WINDOW_S },
            retain,
            head: None,
            slots: vec![(i64::MIN, A::default()); retain],
        }
    }

    /// Window width, seconds.
    pub fn width_s(&self) -> f64 {
        self.width_s
    }

    /// Absolute window index of timestamp `t_s`.
    pub fn index_of(&self, t_s: f64) -> i64 {
        (t_s / self.width_s).floor() as i64
    }

    fn slot_mut(&mut self, idx: i64) -> &mut A {
        let pos = idx.rem_euclid(self.retain as i64) as usize;
        let slot = &mut self.slots[pos];
        if slot.0 != idx {
            *slot = (idx, A::default());
        }
        &mut slot.1
    }

    /// Is `idx` a populated window inside the retention that ends at `head`?
    fn live(&self, head: i64, (idx, agg): &(i64, A)) -> bool {
        *idx != i64::MIN && *idx > head - self.retain as i64 && agg.count() > 0
    }

    /// The aggregate of the window containing `t_s`, for recording into;
    /// advances the head. `None` when `t_s` is older than the retention
    /// horizon: such an observation is assigned no window.
    pub fn window_mut(&mut self, t_s: f64) -> Option<&mut A> {
        let idx = self.index_of(t_s);
        let head = self.head.map_or(idx, |h| h.max(idx));
        self.head = Some(head);
        (idx > head - self.retain as i64).then(|| self.slot_mut(idx))
    }

    /// Merges another ring recorded with the same width/retention.
    /// Associative and commutative; see the module docs. Own windows that
    /// fall out of retention because `other` advanced the head need no
    /// reset: `live` hides them and `slot_mut` overwrites them.
    pub fn merge(&mut self, other: &Self) {
        debug_assert_eq!(self.width_s, other.width_s, "window width mismatch");
        let Some(head) = self.head.max(other.head) else { return };
        self.head = Some(head);
        for slot in &other.slots {
            if self.live(head, slot) {
                self.slot_mut(slot.0).merge(&slot.1);
            }
        }
    }

    /// Populated windows within retention, ascending by absolute index.
    pub fn windows(&self) -> Vec<(i64, &A)> {
        let Some(head) = self.head else { return Vec::new() };
        let mut out: Vec<(i64, &A)> = self
            .slots
            .iter()
            .filter(|slot| self.live(head, slot))
            .map(|(idx, agg)| (*idx, agg))
            .collect();
        out.sort_by_key(|(idx, _)| *idx);
        out
    }
}

/// A [`Ring`] of [`WindowAgg`]s plus running stream totals: the windowed
/// counter/gauge series.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowRing {
    ring: Ring<WindowAgg>,
    /// Observations ever recorded (including ones older than retention).
    pub total_count: u64,
    /// Sum of every value ever recorded.
    pub total_sum: f64,
}

impl Default for WindowRing {
    fn default() -> Self {
        WindowRing::new(DEFAULT_WINDOW_S, DEFAULT_RETAIN)
    }
}

impl WindowRing {
    /// Ring with the given window width (seconds) and retention count.
    pub fn new(width_s: f64, retain: usize) -> WindowRing {
        WindowRing {
            ring: Ring::new(width_s, retain),
            total_count: 0,
            total_sum: 0.0,
        }
    }

    /// Records one observation at time `t_s`. Observations older than the
    /// retention horizon still count toward the stream totals but are not
    /// assigned a window.
    pub fn observe(&mut self, t_s: f64, v: f64) {
        self.total_count += 1;
        self.total_sum += v;
        if let Some(agg) = self.ring.window_mut(t_s) {
            agg.observe(t_s, v);
        }
    }

    /// Merges another ring recorded with the same width/retention.
    /// Associative and commutative; see the module docs.
    pub fn merge(&mut self, other: &WindowRing) {
        self.total_count += other.total_count;
        self.total_sum += other.total_sum;
        self.ring.merge(&other.ring);
    }

    /// Populated windows within retention, ascending by absolute index.
    pub fn windows(&self) -> Vec<(i64, WindowAgg)> {
        self.ring.windows().into_iter().map(|(idx, agg)| (idx, *agg)).collect()
    }

    /// Event rate per second over the retained **complete** windows — the
    /// window containing `now_s` is excluded since it is still filling.
    /// Counter-style rings (`observe` with deltas) get events/sec; returns
    /// 0 when no complete window is populated.
    pub fn rate_per_sec(&self, now_s: f64) -> f64 {
        let cur = self.ring.index_of(now_s);
        let ws = self.windows();
        let complete: Vec<&(i64, WindowAgg)> = ws.iter().filter(|(i, _)| *i < cur).collect();
        if complete.is_empty() {
            return 0.0;
        }
        // Span from the oldest complete window to `cur` so idle (empty)
        // windows dilute the rate instead of being skipped.
        let width_s = self.ring.width_s();
        let span = (cur - complete[0].0) as f64 * width_s;
        let sum: f64 = complete.iter().map(|(_, a)| a.sum).sum();
        sum / span.max(width_s)
    }

    /// Most recent gauge reading within retention (`last` of the newest
    /// populated window).
    pub fn latest(&self) -> Option<f64> {
        self.windows().last().map(|(_, a)| a.last)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_are_keyed_by_absolute_index() {
        let mut r = WindowRing::new(1.0, 4);
        r.observe(0.5, 10.0);
        r.observe(1.5, 20.0);
        r.observe(1.9, 30.0);
        let ws = r.windows();
        assert_eq!(ws.len(), 2);
        assert_eq!(ws[0].0, 0);
        assert_eq!(ws[1].0, 1);
        assert_eq!(ws[1].1.sum, 50.0);
        assert_eq!(ws[1].1.last, 30.0);
        assert_eq!(ws[1].1.min, 20.0);
    }

    #[test]
    fn old_windows_fall_out_of_retention() {
        let mut r = WindowRing::new(1.0, 3);
        r.observe(0.5, 1.0);
        r.observe(10.5, 1.0);
        let ws = r.windows();
        assert_eq!(ws.len(), 1, "window 0 must be evicted by window 10");
        assert_eq!(ws[0].0, 10);
        assert_eq!(r.total_count, 2, "totals still count evicted data");
    }

    #[test]
    fn merge_matches_single_stream() {
        let obs = [(0.2, 1.0), (0.9, 2.0), (1.1, 3.0), (2.7, 4.0), (2.8, 5.0)];
        let mut single = WindowRing::new(1.0, 8);
        for &(t, v) in &obs {
            single.observe(t, v);
        }
        let mut a = WindowRing::new(1.0, 8);
        let mut b = WindowRing::new(1.0, 8);
        for (i, &(t, v)) in obs.iter().enumerate() {
            if i % 2 == 0 { a.observe(t, v) } else { b.observe(t, v) }
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab.windows(), single.windows());
        assert_eq!(ba.windows(), single.windows());
        assert_eq!(ab.total_count, single.total_count);
    }

    #[test]
    fn merge_far_apart_heads_is_order_independent() {
        let mut old = WindowRing::new(1.0, 4);
        old.observe(0.5, 1.0);
        let mut new = WindowRing::new(1.0, 4);
        new.observe(100.5, 2.0);
        let mut a = old.clone();
        a.merge(&new);
        let mut b = new.clone();
        b.merge(&old);
        assert_eq!(a.windows(), b.windows());
        assert_eq!(a.windows().len(), 1, "stale window must drop either way");
        assert_eq!(a.total_count, 2);
    }

    #[test]
    fn rate_excludes_current_window() {
        let mut r = WindowRing::new(1.0, 60);
        for i in 0..10 {
            r.observe(i as f64 + 0.5, 5.0); // 5 events/s for 10s
        }
        let rate = r.rate_per_sec(9.5); // window 9 still filling
        assert!((rate - 5.0).abs() < 1e-9, "rate {rate}");
        assert_eq!(r.latest(), Some(5.0));
    }
}
