//! Writes `BENCH_sched.json`: machine-readable medians (ns/decision) for the
//! scheduler hot-path benches at 1,000 and 5,000 machines, with the
//! hierarchical fit index on (`*_indexed`) and off (`*_naive`,
//! `reference_mode`) so the speedup ratio is measured in one binary on one
//! machine, not stitched from two checkouts.
//!
//! Usage:
//! `cargo run --release -p fuxi-bench --bin bench_snapshot [--check] [out.json]`
//! Set `CRITERION_QUICK=1` for a fast low-confidence pass.
//!
//! Every entry carries provenance (machine count; the snapshot header
//! records `quick_mode` and the git revision) so a committed
//! BENCH_sched.json says exactly what was measured. With `--check` the
//! binary is a CI perf gate: it exits non-zero if the fit index loses to
//! the naive scan (`naive_over_indexed < 1.0`) on any `sched_free_up_*` or
//! `sched_delta_*` bench.
//!
//! The snapshot also measures end-to-end kernel throughput
//! (`sim_events_per_sec`: a 5k-machine × 100k-job event storm), runs the
//! §5.2 synthetic experiment in interleaved pairs — tracing off and on —
//! and records the Figure 9 decision-time medians of both legs, and the
//! untraced legs' simulator speed (`sim_stack_events_per_sec`: events per
//! wall second of the whole stack — master, agents, JobMasters, workers,
//! flows — under the kernel, set-up excluded). It exits
//! non-zero if the median of the per-pair traced/untraced ratios exceeds
//! 1.05, and writes a `trace_sample.jsonl` (next to the output file) from
//! a traced run for CI artifact upload / `trace_dump` smoke tests.
//!
//! A second set of pairs does the same for the live metrics plane
//! (windowed series + in-band reports + master rollup) off vs on, with the
//! same 5% budget on the scheduling median (`metrics_plane_overhead`).

use criterion::{black_box, Criterion};
use fuxi_bench::json::{fixed, obj, text, uint, Value};
use fuxi_bench::tracetool::export_jsonl;
use fuxi_bench::{scenarios, Args, SyntheticRun};
use fuxi_sim::obs::MetricsPlaneConfig;
use fuxi_sim::{SimDuration, TracerConfig};
use fuxi_core::scheduler::{LocalityTree, QueueKey};
use fuxi_proto::request::RequestDelta;
use fuxi_proto::{AppId, MachineId, Priority, RackId, ResourceVec, UnitId};
use std::time::{Duration, Instant};

/// One scale's decision benches: free-up (return → decide → grant) and
/// request-delta (±1 demand, forcing a cluster-level placement attempt),
/// each with the fit index on and off.
fn run_scale(c: &mut Criterion, label: &str, n_racks: usize, per_rack: usize) {
    let n_machines = (n_racks * per_rack) as u64;
    for (mode, reference) in [("indexed", false), ("naive", true)] {
        c.bench_function(&format!("sched_free_up_{label}_{mode}"), |b| {
            let mut e = scenarios::fragmented_engine(n_racks, per_rack, reference);
            // Stride coprime with the machine count: frees land all over
            // the cluster relative to the rotating cursor.
            let stride = n_machines / 2 + 3;
            let mut i = 0u64;
            b.iter(|| {
                let m = MachineId(((i * stride) % n_machines) as u32);
                i += 1;
                e.return_grant(AppId(0), UnitId(0), m, 1);
                black_box(e.drain_events());
            });
        });
        c.bench_function(&format!("sched_delta_{label}_{mode}"), |b| {
            let mut e = scenarios::fragmented_engine(n_racks, per_rack, reference);
            let mut i = 0u32;
            b.iter(|| {
                let app = AppId(1 + i % 999);
                i += 1;
                e.apply_deltas(app, &[RequestDelta::cluster(UnitId(0), 1)]);
                e.apply_deltas(app, &[RequestDelta::cluster(UnitId(0), -1)]);
                e.drain_events();
            });
        });
    }
}

/// The locality-tree waiting-queue consult with 10k waiting.
fn run_tree(c: &mut Criterion) {
    let fp = ResourceVec::new(500, 2048);
    let mut t = LocalityTree::new();
    for i in 0..10_000u64 {
        let k = QueueKey {
            priority: Priority((i % 7) as u16 * 100),
            seq: i,
            app: AppId(i as u32),
            unit: UnitId(0),
        };
        t.enqueue_cluster(k, &fp);
        t.enqueue_machine(MachineId((i % 1000) as u32), k, &fp);
        t.enqueue_rack(RackId((i % 20) as u32), k, &fp);
    }
    let free = ResourceVec::cores_mb(12, 96 * 1024);
    c.bench_function("tree_candidates_10k_waiting", |b| {
        b.iter(|| black_box(t.candidates_for_machine(MachineId(5), RackId(5), black_box(&free), 64)));
    });
}

/// Pairs per overhead gate (3 under `CRITERION_QUICK=1`).
const OVERHEAD_PAIRS: usize = 9;
/// Simulated time one run of a pair advances before the other takes its
/// turn: ~7 ms of wall time.
const TURN: SimDuration = SimDuration::from_secs(5);

/// One overhead gate: the Figure 9 decision-time median of synthetic runs
/// with a feature off (`base`) and on (`with`), same seed and workload, in
/// interleaved pairs inside this process. The two runs of a pair take
/// turns every [`TURN`], the one that moves first alternating from pair to
/// pair, so drift (clock frequency, a neighbour's load) lands on both
/// alike; the gate reads the median of the per-pair ratios. (Pairs of
/// whole runs back to back, ~0.4 s each, still put 1.01-1.06 between
/// gates on an unchanged tree: more than the 5% budget can absorb.)
struct Overhead {
    /// Median over the pairs of each run's decision-time median, seconds.
    base_median_s: f64,
    with_median_s: f64,
    /// Decisions behind one `with` median.
    with_count: u64,
    /// Every pair's with / base ratio, in run order.
    ratios: Vec<f64>,
    /// Median of `ratios` — the feature's tax on the hot path.
    ratio: f64,
    /// Median over the pairs of the `base` run's simulator speed: events
    /// it processed per second of wall time spent advancing it (set-up
    /// excluded). With tracing off that is the whole sim stack's speed.
    base_events_per_s: f64,
    /// Events one `base` run processes after set-up, on how many machines.
    base_events: u64,
    machines: u64,
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn sched_median(run: &SyntheticRun) -> (f64, u64) {
    let h = run.cluster.world.metrics().histogram("fm.sched_s").expect("sched happened");
    (h.quantile(0.5), h.count())
}

/// Runs `pairs` pairs of the runs `base` and `with` build; returns the gate
/// and the last `with` run.
fn overhead(pairs: usize, base: impl Fn() -> SyntheticRun, with: impl Fn() -> SyntheticRun) -> (Overhead, SyntheticRun) {
    let mut medians = Vec::with_capacity(pairs);
    let mut base_speeds = Vec::with_capacity(pairs);
    let (mut base_events, mut machines) = (0, 0);
    let mut last = None;
    for i in 0..pairs {
        let (mut b, mut w) = (base(), with());
        let events0 = b.cluster.world.events_processed();
        // Wall time each run spends advancing: [base, with].
        let mut wall = [Duration::ZERO; 2];
        let order = if i % 2 == 0 { [0, 1] } else { [1, 0] };
        loop {
            let mut more = false;
            for leg in order {
                let run = if leg == 0 { &mut b } else { &mut w };
                let t = Instant::now();
                more |= run.advance(TURN);
                wall[leg] += t.elapsed();
            }
            if !more {
                break;
            }
        }
        base_events = b.cluster.world.events_processed() - events0;
        machines = b.cluster.agents.len() as u64;
        base_speeds.push(base_events as f64 / wall[0].as_secs_f64());
        medians.push((sched_median(&b), sched_median(&w)));
        last = Some(w);
    }
    let ratios: Vec<f64> = medians.iter().map(|(b, w)| w.0 / b.0.max(1e-12)).collect();
    let ovh = Overhead {
        base_median_s: median(medians.iter().map(|(b, _)| b.0).collect()),
        with_median_s: median(medians.iter().map(|(_, w)| w.0).collect()),
        with_count: medians[0].1 .1,
        ratio: median(ratios.clone()),
        ratios,
        base_events_per_s: median(base_speeds),
        base_events,
        machines,
    };
    (ovh, last.expect("at least one pair"))
}

fn synthetic_args(quick: bool) -> Args {
    Args {
        scale: if quick { 0.005 } else { 0.02 },
        duration_s: if quick { 120 } else { 300 },
        seed: 2014,
        trace_out: None,
    }
}

/// Tracing off vs on. Also returns the JSONL export of a traced run, for
/// artifacts and smoke tests.
fn measure_tracing_overhead(quick: bool, pairs: usize) -> (Overhead, String) {
    let args = synthetic_args(quick);
    let run = |enabled| SyntheticRun::new(&args, TracerConfig { enabled }, Default::default());
    let (ovh, traced) = overhead(pairs, || run(false), || run(true));
    (ovh, export_jsonl(traced.cluster.world.tracer()))
}

/// Metrics plane (windowed series, in-band reports, master rollup) off vs
/// on, tracing off in both runs so this isolates the plane alone. Also
/// returns the reports the master ingested in a plane-on run — proof the
/// "on" run exercised the aggregation path.
fn measure_plane_overhead(quick: bool, pairs: usize) -> (Overhead, u64) {
    let args = synthetic_args(quick);
    let untraced = || TracerConfig { enabled: false };
    let run = |enabled| SyntheticRun::new(&args, untraced(), MetricsPlaneConfig { enabled, ..Default::default() });
    let (ovh, on) = overhead(pairs, || run(false), || run(true));
    (ovh, on.cluster.hub.snapshot().reports_received)
}

/// Machine count behind a bench entry, from its label.
fn machines_of(name: &str) -> u64 {
    if name.contains("5k_machines") {
        5_000
    } else {
        // 1k-scale engines and the locality tree (1,000 machine queues).
        1_000
    }
}

/// Short git revision of the working tree, for snapshot provenance.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn main() {
    fuxi_bench::warn_if_debug();
    let mut check = false;
    let mut out_path = "BENCH_sched.json".to_owned();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--check" => check = true,
            other => out_path = other.to_owned(),
        }
    }
    let quick = std::env::var("CRITERION_QUICK").map(|v| v == "1").unwrap_or(false);
    let rev = git_rev();

    let mut c = Criterion::default();
    run_scale(&mut c, "1k_machines", 20, 50);
    run_scale(&mut c, "5k_machines", 100, 50);
    run_tree(&mut c);

    let benches = c
        .collected
        .iter()
        .map(|s| {
            obj([
                ("name", text(&s.name)),
                ("machines", uint(machines_of(&s.name))),
                ("median_ns", fixed(s.median_ns, 1)),
                ("mean_ns", fixed(s.mean_ns, 1)),
                ("p95_ns", fixed(s.p95_ns, 1)),
                ("iterations", uint(s.iterations)),
            ])
        })
        .collect();
    let pairs: Vec<(String, f64)> = c
        .collected
        .iter()
        .filter_map(|s| {
            let base = s.name.strip_suffix("_indexed")?;
            let naive = c.collected.iter().find(|n| n.name == format!("{base}_naive"))?;
            Some((base.to_owned(), naive.median_ns / s.median_ns))
        })
        .collect();

    println!("\nmeasuring end-to-end kernel throughput (event storm)...");
    let (storm_machines, storm_jobs) = if quick { (500, 10_000) } else { (5_000, 100_000) };
    let storm = fuxi_bench::sim_storm::run_event_storm(storm_machines, storm_jobs, 2014);

    let n = if quick { 3 } else { OVERHEAD_PAIRS };
    println!("\nmeasuring fig9 tracing overhead ({n} interleaved pairs of synthetic runs)...");
    let (ovh, sample_jsonl) = measure_tracing_overhead(quick, n);

    println!("\nmeasuring metrics-plane overhead ({n} interleaved pairs of synthetic runs)...");
    let (plane, reports_received) = measure_plane_overhead(quick, n);
    let ratios = |o: &Overhead| Value::Array(o.ratios.iter().map(|&r| fixed(r, 4)).collect());

    let json = fuxi_bench::json::render(&obj([
        ("generated_by", text("bench_snapshot")),
        ("quick_mode", Value::Bool(quick)),
        ("git_rev", text(rev)),
        ("unit", text("ns_per_decision")),
        ("benches", Value::Array(benches)),
        (
            "naive_over_indexed",
            Value::Object(pairs.iter().map(|(base, r)| (base.clone(), fixed(*r, 2))).collect()),
        ),
        (
            "sim_events_per_sec",
            obj([
                ("machines", uint(storm.machines)),
                ("jobs", uint(storm.jobs)),
                ("events", uint(storm.events)),
                (
                    "calendar",
                    obj([
                        ("wall_s", fixed(storm.wall_s, 3)),
                        ("events_per_sec", uint(storm.events_per_sec.round() as u64)),
                    ]),
                ),
            ]),
        ),
        (
            "sim_stack_events_per_sec",
            obj([
                ("machines", uint(ovh.machines)),
                ("events", uint(ovh.base_events)),
                ("events_per_sec", uint(ovh.base_events_per_s.round() as u64)),
            ]),
        ),
        (
            "fig9_tracing_overhead",
            obj([
                ("untraced_median_s", fixed(ovh.base_median_s, 9)),
                ("traced_median_s", fixed(ovh.with_median_s, 9)),
                ("traced_decisions", uint(ovh.with_count)),
                ("pair_ratios", ratios(&ovh)),
                ("traced_over_untraced", fixed(ovh.ratio, 4)),
            ]),
        ),
        (
            "metrics_plane_overhead",
            obj([
                ("plane_off_median_s", fixed(plane.base_median_s, 9)),
                ("plane_on_median_s", fixed(plane.with_median_s, 9)),
                ("plane_on_decisions", uint(plane.with_count)),
                ("reports_received", uint(reports_received)),
                ("pair_ratios", ratios(&plane)),
                ("on_over_off", fixed(plane.ratio, 4)),
            ]),
        ),
    ]));

    std::fs::write(&out_path, &json).expect("write snapshot");
    let sample_path = std::path::Path::new(&out_path).with_file_name("trace_sample.jsonl");
    std::fs::write(&sample_path, &sample_jsonl).expect("write trace sample");
    println!("\nwrote {out_path}");
    println!("wrote {} ({} bytes)", sample_path.display(), sample_jsonl.len());
    for (base, ratio) in &pairs {
        println!("  {base}: naive/indexed = {ratio:.2}x");
    }
    println!(
        "  sim_events_per_sec ({} machines, {} jobs): {:.0}/s ({:.2}s)",
        storm.machines, storm.jobs, storm.events_per_sec, storm.wall_s
    );
    println!(
        "  sim_stack_events_per_sec ({} machines, untraced legs): {:.0}/s",
        ovh.machines,
        ovh.base_events_per_s
    );
    // The CI perf gate: the fit index must not lose its own hot paths, and
    // the end-to-end scenario must stay inside the 30 s wall budget.
    if check {
        let mut bad = false;
        for (base, ratio) in &pairs {
            if (base.starts_with("sched_free_up") || base.starts_with("sched_delta"))
                && *ratio < 1.0
            {
                eprintln!("FAIL: {base} naive/indexed = {ratio:.2}x < 1.0 — the fit index lost");
                bad = true;
            }
        }
        if !quick && storm.wall_s > 30.0 {
            eprintln!(
                "FAIL: 5k-machine × 100k-job event storm took {:.1}s (> 30s budget)",
                storm.wall_s
            );
            bad = true;
        }
        if bad {
            std::process::exit(1);
        }
    }
    println!(
        "  fig9 median: {:.2} us untraced vs {:.2} us traced ({:.1}% overhead: median of the pair ratios {:.3?}; {} decisions)",
        ovh.base_median_s * 1e6,
        ovh.with_median_s * 1e6,
        (ovh.ratio - 1.0) * 100.0,
        ovh.ratios,
        ovh.with_count
    );
    // The acceptance gate: tracing must not slow the decision path >5%.
    if ovh.ratio > 1.05 {
        eprintln!(
            "FAIL: tracing overhead {:.1}% exceeds the 5% budget on the fig9 median",
            (ovh.ratio - 1.0) * 100.0
        );
        std::process::exit(1);
    }
    println!(
        "  metrics plane median: {:.2} us off vs {:.2} us on ({:.1}% overhead: median of the pair ratios {:.3?}; {} reports ingested)",
        plane.base_median_s * 1e6,
        plane.with_median_s * 1e6,
        (plane.ratio - 1.0) * 100.0,
        plane.ratios,
        reports_received
    );
    assert!(reports_received > 0, "plane-on run must ingest at least one metrics report");
    // The acceptance gate: windowed metrics + in-band reports + rollup must
    // not slow the decision path >5% either.
    if plane.ratio > 1.05 {
        eprintln!(
            "FAIL: metrics-plane overhead {:.1}% exceeds the 5% budget on the sched median",
            (plane.ratio - 1.0) * 100.0
        );
        std::process::exit(1);
    }
}
