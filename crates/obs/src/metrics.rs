//! Metrics recording: counters, gauges, time series and log-bucketed
//! histograms in a mergeable [`Metrics`] sink, plus the windowed histogram
//! the master's rollup reads recent quantiles from.
//!
//! Every experiment binary reads its table/figure data out of the world's
//! [`Metrics`] sink after the run; the live runtime additionally merges
//! per-actor sinks into a shared one every flush interval so the same
//! data is readable *during* the run. Everything in a sink is additive;
//! windowed series are not kept here but owned directly by their one
//! reader (the master's rollup, the cluster view).

use std::collections::{BTreeMap, HashMap};

use serde::{Deserialize, Serialize};

use crate::window::{Aggregate, Ring};

/// A log-bucketed latency/size histogram with exact count/sum/min/max.
/// Buckets are powers of `2^(1/4)` (≈19% wide), giving percentile estimates
/// within a few percent across nine orders of magnitude — plenty for the
/// paper's "average 0.88 ms, peak below 3 ms" style of claims.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

const BUCKETS: usize = 160; // covers [1e-9, ~1e3) with 4 buckets per octave
const SCALE: f64 = 4.0; // buckets per doubling

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates a new instance with the given configuration.
    pub fn new() -> Self {
        Self {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn bucket_of(v: f64) -> usize {
        if v <= 1e-9 {
            return 0;
        }
        let idx = ((v / 1e-9).log2() * SCALE).floor() as isize;
        idx.clamp(0, BUCKETS as isize - 1) as usize
    }

    /// Lower bound of bucket `i`.
    fn bucket_value(i: usize) -> f64 {
        1e-9 * 2f64.powf(i as f64 / SCALE)
    }

    /// Record.
    pub fn record(&mut self, v: f64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of containers.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Min.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Max.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Approximate quantile `q` in [0, 1]: linearly interpolated within the
    /// winning bucket (assuming a uniform distribution inside it), rather
    /// than returning the bucket's upper bound — the latter biased every
    /// estimate upward by up to one full ≈19%-wide bucket.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= target {
                let lo = Self::bucket_value(i);
                let hi = Self::bucket_value(i + 1);
                // Rank position inside this bucket, in (0, 1].
                let frac = (target - seen) as f64 / c as f64;
                return (lo + frac * (hi - lo)).min(self.max).max(self.min);
            }
            seen += c;
        }
        self.max
    }

    /// Merge.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl Aggregate for Histogram {
    fn count(&self) -> u64 {
        self.count
    }
    fn merge(&mut self, other: &Histogram) {
        Histogram::merge(self, other);
    }
}

/// A [`Ring`] of per-window [`Histogram`]s — the live plane's source for
/// *recent* latency quantiles (e.g. the sched-p99 watchdog rule), as
/// opposed to the run-lifetime histogram.
pub type WindowedHistogram = Ring<Histogram>;

impl Ring<Histogram> {
    /// Records `v` into the window containing `t_s`. Values older than
    /// the retention horizon are dropped.
    pub fn record(&mut self, t_s: f64, v: f64) {
        if let Some(h) = self.window_mut(t_s) {
            h.record(v);
        }
    }

    /// One histogram merging every retained window — quantiles over the
    /// last ~minute rather than the whole run.
    pub fn merged(&self) -> Histogram {
        let mut out = Histogram::new();
        for (_, h) in self.windows() {
            out.merge(h);
        }
        out
    }
}

/// The per-world metrics sink.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    counters: HashMap<String, u64>,
    gauges: HashMap<String, f64>,
    series: HashMap<String, Vec<(f64, f64)>>,
    histograms: HashMap<String, Histogram>,
}

/// Applies `f` to `map[name]`, inserted as `V::default()` on first sight.
/// An existing key costs one lookup and no allocation: the owned `String`
/// is built only on a miss.
fn upsert<V: Default>(map: &mut HashMap<String, V>, name: &str, f: impl FnOnce(&mut V)) {
    match map.get_mut(name) {
        Some(v) => f(v),
        None => f(map.entry(name.to_owned()).or_default()),
    }
}

impl Metrics {
    /// Creates a new instance with the given configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments counter `name` by `by`.
    pub fn count(&mut self, name: &str, by: u64) {
        upsert(&mut self.counters, name, |c| *c += by);
    }

    /// Counter.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Adds `delta` (may be negative) to gauge `name`. Gauges let many
    /// actors maintain one cluster-wide quantity (e.g. the paper's
    /// `AM_obtained` / `FA_planned` curves) that a sampler turns into a
    /// series.
    pub fn gauge_add(&mut self, name: &str, delta: f64) {
        upsert(&mut self.gauges, name, |g| *g += delta);
    }

    /// Gauge.
    pub fn gauge(&self, name: &str) -> f64 {
        self.gauges.get(name).copied().unwrap_or(0.0)
    }

    /// Appends `(t_seconds, value)` to time series `name`.
    pub fn push_series(&mut self, name: &str, t_s: f64, v: f64) {
        upsert(&mut self.series, name, |s| s.push((t_s, v)));
    }

    /// Series.
    pub fn series(&self, name: &str) -> &[(f64, f64)] {
        self.series.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Records `v` into histogram `name`.
    pub fn record(&mut self, name: &str, v: f64) {
        upsert(&mut self.histograms, name, |h| h.record(v));
    }

    /// Histogram.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Time-weighted mean of a series: the trapezoid integral of `v` over
    /// `t` divided by the covered span. Unlike a per-point mean, bursts of
    /// dense sampling don't over-weight the sampled value.
    pub fn series_mean(&self, name: &str) -> f64 {
        trapezoid_mean(self.series(name))
    }

    /// [`Metrics::series_mean`] over the samples with `t` in `[from_s,
    /// to_s]` (steady-state windows).
    pub fn series_mean_window(&self, name: &str, from_s: f64, to_s: f64) -> f64 {
        let pts: Vec<(f64, f64)> = self
            .series(name)
            .iter()
            .filter(|&&(t, _)| t >= from_s && t <= to_s)
            .copied()
            .collect();
        trapezoid_mean(&pts)
    }

    /// Counters.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Sets gauge `name` to an absolute value (sampled quantities like
    /// mailbox depths, where deltas from many writers make no sense).
    pub fn gauge_set(&mut self, name: &str, v: f64) {
        self.gauges.insert(name.to_owned(), v);
    }

    /// Sets gauge `name` to `v` if `v` exceeds the current value — a
    /// high-water mark across many reporting threads.
    pub fn gauge_max(&mut self, name: &str, v: f64) {
        let g = self.gauges.entry(name.to_owned()).or_insert(f64::NEG_INFINITY);
        if v > *g {
            *g = v;
        }
    }

    /// Merges another sink into this one: counters and gauges add,
    /// histograms merge bucket-wise, series concatenate (re-sorted by
    /// time so exports stay monotone). The live runtime gives every actor
    /// thread its own `Metrics` and folds them together at shutdown.
    pub fn merge(&mut self, other: &Metrics) {
        for (k, &v) in &other.counters {
            upsert(&mut self.counters, k, |c| *c += v);
        }
        for (k, &v) in &other.gauges {
            upsert(&mut self.gauges, k, |g| *g += v);
        }
        for (k, pts) in &other.series {
            upsert(&mut self.series, k, |s| {
                s.extend_from_slice(pts);
                s.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
            });
        }
        for (k, h) in &other.histograms {
            upsert(&mut self.histograms, k, |mine| mine.merge(h));
        }
    }
}

/// What a [`Metrics`] serializes as: every counter and gauge, each
/// histogram summarised (count/mean/min/max/p50/p95/p99) and each series
/// by its length and time-weighted mean, keys sorted so the snapshot is
/// deterministic.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Snapshot {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, HistogramSummary>,
    series: BTreeMap<String, SeriesSummary>,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct HistogramSummary {
    count: u64,
    mean: f64,
    min: f64,
    max: f64,
    p50: f64,
    p95: f64,
    p99: f64,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct SeriesSummary {
    points: usize,
    mean: f64,
}

impl Serialize for Metrics {
    fn to_value(&self) -> serde::Value {
        fn sorted<V, T>(map: &HashMap<String, V>, f: impl Fn(&str, &V) -> T) -> BTreeMap<String, T> {
            map.iter().map(|(k, v)| (k.clone(), f(k, v))).collect()
        }
        Snapshot {
            counters: sorted(&self.counters, |_, &c| c),
            gauges: sorted(&self.gauges, |_, &g| g),
            histograms: sorted(&self.histograms, |_, h| HistogramSummary {
                count: h.count(),
                mean: h.mean(),
                min: h.min(),
                max: h.max(),
                p50: h.quantile(0.5),
                p95: h.quantile(0.95),
                p99: h.quantile(0.99),
            }),
            series: sorted(&self.series, |k, pts| SeriesSummary {
                points: pts.len(),
                mean: self.series_mean(k),
            }),
        }
        .to_value()
    }
}

/// The trapezoid integral of `v` over `t` divided by the covered span; the
/// plain mean when every sample shares one instant.
fn trapezoid_mean(s: &[(f64, f64)]) -> f64 {
    match s.len() {
        0 => 0.0,
        1 => s[0].1,
        _ => {
            let span = s[s.len() - 1].0 - s[0].0;
            if span <= 0.0 {
                return s.iter().map(|&(_, v)| v).sum::<f64>() / s.len() as f64;
            }
            let area: f64 = s
                .windows(2)
                .map(|w| 0.5 * (w[0].1 + w[1].1) * (w[1].0 - w[0].0))
                .sum();
            area / span
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::WindowRing;

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::new();
        m.count("msgs", 1);
        m.count("msgs", 2);
        assert_eq!(m.counter("msgs"), 3);
        assert_eq!(m.counter("absent"), 0);
    }

    #[test]
    fn series_append_and_mean() {
        let mut m = Metrics::new();
        m.push_series("util", 0.0, 10.0);
        m.push_series("util", 1.0, 20.0);
        assert_eq!(m.series("util").len(), 2);
        assert!((m.series_mean("util") - 15.0).abs() < 1e-12);
    }

    #[test]
    fn series_mean_is_time_weighted() {
        let mut m = Metrics::new();
        // v=0 for 10 s, then a burst of v=100 samples within 1 s: a
        // per-point mean is dragged to 50, the trapezoid mean stays low.
        m.push_series("u", 0.0, 0.0);
        m.push_series("u", 10.0, 0.0);
        m.push_series("u", 10.5, 100.0);
        m.push_series("u", 11.0, 100.0);
        let w = m.series_mean("u");
        // Integral: 0*10 + 50*0.5 + 100*0.5 = 75 over 11 s ≈ 6.82.
        assert!((w - 75.0 / 11.0).abs() < 1e-9, "weighted = {w}");
    }

    #[test]
    fn series_mean_degenerate_cases() {
        let mut m = Metrics::new();
        assert_eq!(m.series_mean("none"), 0.0);
        m.push_series("one", 3.0, 42.0);
        assert_eq!(m.series_mean("one"), 42.0);
        m.push_series("same_t", 1.0, 10.0);
        m.push_series("same_t", 1.0, 30.0);
        assert!((m.series_mean("same_t") - 20.0).abs() < 1e-12);
    }

    #[test]
    fn series_mean_window_filters() {
        let mut m = Metrics::new();
        for t in 0..10 {
            m.push_series("x", t as f64, t as f64);
        }
        let mean = m.series_mean_window("x", 5.0, 9.0);
        assert!((mean - 7.0).abs() < 1e-9);
        assert_eq!(m.series_mean_window("missing", 0.0, 1.0), 0.0);
    }

    #[test]
    fn series_mean_window_is_time_weighted() {
        // 10 at t=0..10, then a burst of 50-valued samples in the last
        // second. A per-point mean would say 30; the signal spent 10x as
        // long at 10 as at 50.
        let mut m = Metrics::new();
        m.push_series("u", 0.0, 10.0);
        m.push_series("u", 10.0, 10.0);
        m.push_series("u", 10.0, 50.0);
        m.push_series("u", 11.0, 50.0);
        let mean = m.series_mean_window("u", 0.0, 11.0);
        let expected = (10.0 * 10.0 + 1.0 * 50.0) / 11.0;
        assert!((mean - expected).abs() < 1e-9, "mean = {mean}");
        // Degenerate: single point in window.
        assert_eq!(m.series_mean_window("u", 10.5, 11.5), 50.0);
    }

    #[test]
    fn histogram_basic_stats() {
        let mut h = Histogram::new();
        for v in [1.0, 2.0, 3.0, 4.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert!((h.mean() - 2.5).abs() < 1e-12);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 4.0);
    }

    #[test]
    fn histogram_quantiles_are_close() {
        let mut h = Histogram::new();
        for i in 1..=1000 {
            h.record(i as f64 * 1e-3); // 1ms .. 1s
        }
        let p50 = h.quantile(0.5);
        assert!(p50 > 0.4 && p50 < 0.65, "p50 = {p50}");
        let p99 = h.quantile(0.99);
        assert!(p99 > 0.9 && p99 <= 1.01, "p99 = {p99}");
        assert!(h.quantile(1.0) <= 1.0 + 1e-9);
    }

    #[test]
    fn histogram_merge_combines_counts() {
        let mut a = Histogram::new();
        a.record(0.001);
        let mut b = Histogram::new();
        b.record(0.1);
        b.record(0.2);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max(), 0.2);
        assert_eq!(a.min(), 0.001);
    }

    #[test]
    fn merge_combines_all_sinks() {
        let mut a = Metrics::new();
        a.count("msgs", 2);
        a.gauge_add("g", 1.0);
        a.record("lat", 0.001);
        a.push_series("s", 1.0, 10.0);
        let mut b = Metrics::new();
        b.count("msgs", 3);
        b.count("only_b", 1);
        b.gauge_add("g", 0.5);
        b.record("lat", 0.002);
        b.push_series("s", 0.5, 5.0);
        a.merge(&b);
        assert_eq!(a.counter("msgs"), 5);
        assert_eq!(a.counter("only_b"), 1);
        assert!((a.gauge("g") - 1.5).abs() < 1e-12);
        assert_eq!(a.histogram("lat").unwrap().count(), 2);
        // Series re-sorted by time after concatenation.
        assert_eq!(a.series("s"), &[(0.5, 5.0), (1.0, 10.0)]);
    }

    #[test]
    fn gauge_set_and_max() {
        let mut m = Metrics::new();
        m.gauge_set("depth", 7.0);
        m.gauge_set("depth", 3.0);
        assert_eq!(m.gauge("depth"), 3.0);
        m.gauge_max("hwm", 5.0);
        m.gauge_max("hwm", 2.0);
        assert_eq!(m.gauge("hwm"), 5.0);
    }

    #[test]
    fn metrics_histogram_via_record() {
        let mut m = Metrics::new();
        m.record("lat", 0.5);
        m.record("lat", 1.5);
        assert_eq!(m.histogram("lat").unwrap().count(), 2);
        assert!(m.histogram("none").is_none());
    }

    #[test]
    fn empty_histogram_is_sane() {
        let h = Histogram::new();
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
    }

    /// The snapshot through text and back: every kind of reading, keys
    /// sorted, and a key that needs escaping intact.
    #[test]
    fn snapshot_round_trips_with_sorted_keys() {
        let mut m = Metrics::new();
        m.count("b", 2);
        m.count("evil\"key\\with\nspecials", 7);
        m.count("a", 1);
        m.gauge_add("g", 1.5);
        m.record("lat", 0.001);
        m.push_series("s", 0.0, 1.0);
        m.push_series("s", 1.0, 3.0);
        let text = serde_json::to_string(&m).unwrap();
        assert_eq!(text, serde_json::to_string(&m).unwrap(), "snapshot must be deterministic");
        assert!(text.starts_with(r#"{"counters":{"a":1,"b":2,"evil\"key\\with\nspecials":7},"#), "{text}");
        let back: Snapshot = serde_json::from_str(&text).unwrap();
        assert_eq!(back.counters["evil\"key\\with\nspecials"], 7);
        assert_eq!(back.gauges["g"], 1.5);
        assert_eq!((back.histograms["lat"].count, back.histograms["lat"].max), (1, 0.001));
        assert_eq!((back.series["s"].points, back.series["s"].mean), (2, 2.0));
    }

    /// An infinite gauge is written as `null` and reads back as NaN: the
    /// snapshot still parses.
    #[test]
    fn an_infinite_gauge_still_renders_a_snapshot_that_parses() {
        let mut m = Metrics::new();
        m.gauge_add("inf", f64::INFINITY);
        m.count("c", 1);
        let text = serde_json::to_string(&m).unwrap();
        assert!(text.contains(r#""gauges":{"inf":null}"#), "{text}");
        let back: Snapshot = serde_json::from_str(&text).unwrap();
        assert!(back.gauges["inf"].is_nan());
        assert_eq!(back.counters["c"], 1);
    }

    /// Exact sample quantile with the same rank convention as
    /// `Histogram::quantile` (ceil(q*n), 1-based).
    fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
        let n = sorted.len();
        let rank = (q.clamp(0.0, 1.0) * n as f64).ceil().max(1.0) as usize;
        sorted[rank.min(n) - 1]
    }

    // Property test: for random samples and random q, the interpolated
    // histogram quantile stays within one ~19% bucket of the exact sample
    // quantile — both land in the same bucket by construction, so the ratio
    // is bounded by one bucket width (2^(1/4) ≈ 1.19) in either direction.
    use proptest::prelude::*;
    proptest! {
        #[test]
        fn quantile_interpolation_tracks_exact_quantiles(
            vals in prop::collection::vec(1e-6f64..10.0f64, 1..200),
            q in 0.0f64..1.0f64,
        ) {
            let mut h = Histogram::new();
            for &v in &vals {
                h.record(v);
            }
            let mut sorted = vals.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let exact = exact_quantile(&sorted, q);
            let est = h.quantile(q);
            prop_assert!(
                est / exact > 1.0 / 1.20 && est / exact < 1.20,
                "q={} exact={} est={}", q, exact, est
            );
        }
    }

    #[test]
    fn merge_combines_windows() {
        let (mut ar, mut ah) = (WindowRing::new(1.0, 60), WindowedHistogram::new(1.0, 60));
        ar.observe(0.5, 1.0);
        ah.record(0.5, 0.001);
        let (mut br, mut bh) = (WindowRing::new(1.0, 60), WindowedHistogram::new(1.0, 60));
        br.observe(0.6, 2.0);
        br.observe(1.6, 4.0);
        bh.record(1.5, 0.002);
        ar.merge(&br);
        ah.merge(&bh);
        assert_eq!(ar.total_count, 3);
        let ws = ar.windows();
        assert_eq!(ws.len(), 2);
        assert_eq!(ws[0].1.sum, 3.0);
        assert_eq!(ws[1].1.sum, 4.0);
        assert_eq!(ah.merged().count(), 2);
    }

    // Property: splitting one observation stream across any number of
    // rings and merging them back — in any order, with or without windows
    // falling out of retention on the way — yields the same windows,
    // histograms, and totals as recording the stream into a single ring.
    // This is the invariant that lets per-shard rings be folded at any
    // cadence instead of only once at the end.
    proptest! {
        #[test]
        fn window_merge_any_order_equals_single_stream(
            obs in prop::collection::vec((0.0f64..30.0f64, -5.0f64..5.0f64, 0u8..3u8), 1..120),
            order_seed in 0usize..4usize,
            retain in 4usize..64usize,
        ) {
            let order = [[0usize, 1, 2], [2, 0, 1], [1, 2, 0], [2, 1, 0]][order_seed];
            let fresh = || (WindowRing::new(1.0, retain), WindowedHistogram::new(1.0, retain));
            let (mut sw, mut sh) = fresh();
            let mut parts = [fresh(), fresh(), fresh()];
            for (i, &(t, v, _)) in obs.iter().enumerate() {
                sw.observe(t, v);
                sh.record(t, v.abs().max(1e-6));
                parts[i % 3].0.observe(t, v);
                parts[i % 3].1.record(t, v.abs().max(1e-6));
            }
            let (mut mw, mut mh) = fresh();
            for &p in &order {
                mw.merge(&parts[p].0);
                mh.merge(&parts[p].1);
            }
            // Window sets and order-insensitive aggregates must be exactly
            // equal; sums only up to FP addition-order noise.
            let (svw, mvw) = (sw.windows(), mw.windows());
            prop_assert_eq!(svw.len(), mvw.len());
            for ((si, sa), (mi, ma)) in svw.iter().zip(&mvw) {
                prop_assert_eq!(si, mi);
                prop_assert_eq!(sa.count, ma.count);
                prop_assert!((sa.sum - ma.sum).abs() < 1e-9);
                prop_assert_eq!(sa.min, ma.min);
                prop_assert_eq!(sa.max, ma.max);
                prop_assert_eq!(sa.last, ma.last);
                prop_assert_eq!(sa.last_t, ma.last_t);
            }
            prop_assert_eq!(sw.total_count, mw.total_count);
            prop_assert!((sw.total_sum - mw.total_sum).abs() < 1e-6);
            prop_assert_eq!(sh.merged().count(), mh.merged().count());
            prop_assert_eq!(sh.merged().quantile(0.99), mh.merged().quantile(0.99));
        }

        #[test]
        fn histogram_merge_is_order_independent(
            vals in prop::collection::vec(1e-6f64..100.0f64, 1..100),
            split in 1usize..4usize,
        ) {
            let mut single = Histogram::new();
            let mut parts = vec![Histogram::new(); split + 1];
            for (i, &v) in vals.iter().enumerate() {
                single.record(v);
                parts[i % (split + 1)].record(v);
            }
            // Forward and reverse merge orders must agree with each other
            // and with the single stream.
            let mut fwd = Histogram::new();
            for p in &parts {
                fwd.merge(p);
            }
            let mut rev = Histogram::new();
            for p in parts.iter().rev() {
                rev.merge(p);
            }
            for h in [&fwd, &rev] {
                prop_assert_eq!(h.count(), single.count());
                prop_assert!((h.sum() - single.sum()).abs() < 1e-9);
                prop_assert_eq!(h.min(), single.min());
                prop_assert_eq!(h.max(), single.max());
                for q in [0.5, 0.95, 0.99] {
                    prop_assert_eq!(h.quantile(q), single.quantile(q));
                }
            }
        }
    }

    #[test]
    fn quantile_interpolates_below_bucket_upper_bound() {
        // All mass in one bucket: the old implementation returned the
        // bucket's upper bound for every q; interpolation must spread
        // estimates across the bucket and bound them by the true extremes.
        let mut h = Histogram::new();
        for _ in 0..1000 {
            h.record(0.00100);
        }
        for q in [0.01, 0.5, 0.99] {
            let v = h.quantile(q);
            assert!((v - 0.001).abs() < 1e-12, "q={q} -> {v}");
        }
    }
}
