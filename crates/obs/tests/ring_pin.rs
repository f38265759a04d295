//! Pins the generic window ring to the two rings it replaced.
//!
//! The constants below were recorded from `WindowRing` (then a standalone
//! ring in `obs/src/window.rs`) and `WindowedHistogram` (then a second
//! copy of that ring in `sim/src/metrics.rs`) on the commit *before* both
//! became `Ring<A>`. The tape runs 64 observations over ~20 s through
//! 0.5 s windows with 6 retained, so it evicts, records out of order
//! inside retention (every 16th observation 1.3 s late) and drops
//! observations older than the horizon (every 16th, 9 s late). If this
//! fails, the ring's behaviour drifted: do not re-record the constants.

use fuxi_obs::{WindowAgg, WindowRing, WindowedHistogram};

fn tape() -> Vec<(f64, f64)> {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut t = 0.0f64;
    let mut out = Vec::new();
    for i in 0..64u32 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let step = ((x >> 33) % 700) as f64 / 1000.0;
        let v = (((x >> 20) % 5000) + 1) as f64 * 1e-4;
        t += step;
        let at = match i % 16 {
            7 => t - 1.3,
            15 => t - 9.0,
            _ => t,
        };
        out.push((at.max(0.0), v));
    }
    out
}

const END_S: f64 = 20.273;
const HIST_WINDOWS: [(i64, u64); 6] = [(35, 2), (36, 4), (37, 1), (38, 1), (39, 2), (40, 1)];
const Q50: f64 = 0.3494252083456031;
const Q99: f64 = 0.4686;
const RATE: f64 = 1.04536;
const LATEST: f64 = 0.3408;

fn agg(count: u64, sum: f64, min: f64, max: f64, last: f64, last_t: f64) -> WindowAgg {
    WindowAgg { count, sum, min, max, last, last_t }
}

fn ring_windows() -> Vec<(i64, WindowAgg)> {
    vec![
        (35, agg(2, 0.7165, 0.2479, 0.4686, 0.4686, 17.868000000000002)),
        (36, agg(4, 1.6227, 0.325, 0.4647, 0.4647, 18.470000000000002)),
        (37, agg(1, 0.027, 0.027, 0.027, 0.027, 18.734)),
        (38, agg(1, 0.0056, 0.0056, 0.0056, 0.0056, 19.328000000000003)),
        (39, agg(2, 0.2416, 0.0071, 0.23450000000000001, 0.23450000000000001, 19.654)),
        (40, agg(1, 0.3408, 0.3408, 0.3408, 0.3408, 20.273)),
    ]
}

fn check(wh: &WindowedHistogram, wr: &WindowRing) {
    let hw: Vec<(i64, u64)> = wh.windows().iter().map(|(i, h)| (*i, h.count())).collect();
    assert_eq!(hw, HIST_WINDOWS);
    assert_eq!(wh.merged().count(), 11);
    assert_eq!(wh.merged().quantile(0.5), Q50);
    assert_eq!(wh.merged().quantile(0.99), Q99);
    assert_eq!(wr.windows(), ring_windows());
    assert_eq!(wr.rate_per_sec(END_S), RATE);
    assert_eq!(wr.latest(), Some(LATEST));
    assert_eq!(wr.total_count, 64);
}

#[test]
fn one_stream_matches_the_recorded_rings() {
    let (mut wh, mut wr) = (WindowedHistogram::new(0.5, 6), WindowRing::new(0.5, 6));
    for (t, v) in tape() {
        wh.record(t, v);
        wr.observe(t, v);
    }
    check(&wh, &wr);
    assert_eq!(wr.total_sum, 15.9207);
}

#[test]
fn two_merged_halves_match_the_recorded_rings() {
    let mut wh = [WindowedHistogram::new(0.5, 6), WindowedHistogram::new(0.5, 6)];
    let mut wr = [WindowRing::new(0.5, 6), WindowRing::new(0.5, 6)];
    for (i, (t, v)) in tape().into_iter().enumerate() {
        wh[i % 2].record(t, v);
        wr[i % 2].observe(t, v);
    }
    let (mut h, mut r) = (wh[1].clone(), wr[1].clone());
    h.merge(&wh[0]);
    r.merge(&wr[0]);
    check(&h, &r);
}
