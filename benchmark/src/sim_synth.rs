//! `sim_synth`: the whole stack — FuxiMaster, scheduler engine, 1,000
//! FuxiAgents, JobMasters, TaskWorkers — under the deterministic kernel in
//! one thread, fed the paper's §5.2 WordCount/Terasort mix in a closed
//! loop. No `rt`, wire or node code runs, so this is where scheduler,
//! master, JobMaster and kernel work must show, and the bypass workload
//! for every runtime and wire change.
//!
//! One repetition simulates a fixed horizon in fixed slices, so the same
//! seed must give the same event count in every slice and the same finished
//! jobs every time: that determinism is the output check. Wall time is what
//! varies; the run repeats the repetition until `--seconds` of measured wall
//! time are spent — twice at least, three times at most — and reports, slice
//! by slice, the fastest execution.

use crate::layers::{self, LayerSample, RuntimeDump};
use crate::report::Measured;
use crate::stats;
use crate::RunOpts;
use fuxi_cluster::{Cluster, ClusterConfig, SubmitOpts};
use fuxi_proto::topology::MachineSpec;
use fuxi_proto::{JobId, ResourceVec};
use fuxi_sim::{SimDuration, SimTime, TracerConfig};
use fuxi_workloads::synthetic::SyntheticMix;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct SimParams {
    machines: usize,
    in_flight: usize,
    /// `SyntheticMix` scale: the paper's six (maps, reduces) shapes shrunk
    /// so that a few hundred jobs *finish* inside a repetition.
    mix_scale: f64,
    /// Instance duration range, s (the paper's 10–600 s shortened for the
    /// same reason).
    durations: (f64, f64),
    /// Simulated seconds of closed-loop ramp that count as set-up.
    warmup_sim_s: u64,
    /// Simulated seconds per slice and slices measured per repetition;
    /// sized so one repetition takes about 5 s on the 2-core box.
    slice_sim_s: u64,
    slices: usize,
    max_reps: usize,
}

impl SimParams {
    pub fn new(smoke: bool) -> Self {
        SimParams {
            machines: if smoke { 100 } else { 1000 },
            in_flight: if smoke { 20 } else { 200 },
            mix_scale: 0.05,
            durations: (1.0, 10.0),
            warmup_sim_s: if smoke { 10 } else { 30 },
            slice_sim_s: 10,
            slices: if smoke { 3 } else { 8 },
            max_reps: if smoke { 2 } else { 3 },
        }
    }
}

/// The paper's testbed node: 24 hardware threads, 96 GB.
fn config(p: &SimParams, traced: bool) -> ClusterConfig {
    ClusterConfig {
        n_machines: p.machines,
        rack_size: 50,
        machine_spec: MachineSpec {
            resources: ResourceVec::cores_mb(4, 16 * 1024),
            ..MachineSpec::default()
        },
        seed: 2014,
        obs: TracerConfig {
            enabled: traced,
            ..TracerConfig::default()
        },
        ..ClusterConfig::default()
    }
}

/// Keeps `in_flight` jobs running until simulated time `until`: a finished
/// job is replaced by the next one from the mix.
fn closed_loop(
    c: &mut Cluster,
    mix: &mut SyntheticMix,
    live: &mut Vec<JobId>,
    in_flight: usize,
    until: SimTime,
) {
    let opts = SubmitOpts::default();
    loop {
        live.retain(|j| c.job_done(*j).is_none());
        while live.len() < in_flight && c.world.now() < until {
            live.push(c.submit(&mix.next_job().desc, &opts));
        }
        if c.world.now() >= until {
            return;
        }
        let target = c.finished_count() + 1;
        c.run_until_n_done(target, until);
    }
}

/// What must repeat exactly for one seed.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    /// Events processed in each slice.
    events: Vec<u64>,
    submitted: usize,
    finished: usize,
}

struct Rep {
    setup_s: f64,
    /// `(wall, CPU)` seconds of each slice.
    slices: Vec<(f64, f64)>,
    fingerprint: Fingerprint,
    failed: u64,
    /// Job id → simulated latency, ms, of jobs that finished in the horizon.
    latency_ms: BTreeMap<u32, f64>,
    util_planned_mem: f64,
    layers: Option<LayerSample>,
}

fn one_rep(p: &SimParams, opts: &RunOpts) -> Rep {
    let me = std::process::id();
    let t0 = Instant::now();
    let mut c = Cluster::new(config(p, opts.traced));
    // Agents register and a master is elected before any job arrives.
    c.run_for(SimDuration::from_secs(10));
    let boot_s = t0.elapsed().as_secs_f64();
    let mut mix = SyntheticMix::new(opts.seed, p.mix_scale);
    mix.duration_range = p.durations;
    let mut live = Vec::new();
    let warm_until = c.world.now() + SimDuration::from_secs(p.warmup_sim_s);
    closed_loop(&mut c, &mut mix, &mut live, p.in_flight, warm_until);
    let setup_s = t0.elapsed().as_secs_f64();

    let t_sim0 = warm_until.as_secs_f64();
    let already_done = c.finished_count();
    let (mut until, mut slices, mut slice_events) = (warm_until, Vec::new(), Vec::new());
    for _ in 0..p.slices {
        until += SimDuration::from_secs(p.slice_sim_s);
        let (t, cpu0, ev0) = (
            Instant::now(),
            stats::cpu_seconds(me),
            c.world.events_processed(),
        );
        closed_loop(&mut c, &mut mix, &mut live, p.in_flight, until);
        slices.push((t.elapsed().as_secs_f64(), stats::cpu_seconds(me) - cpu0));
        slice_events.push(c.world.events_processed() - ev0);
    }
    let wall_s: f64 = slices.iter().map(|s| s.0).sum();
    let events: u64 = slice_events.iter().sum();

    let all = c.all_jobs();
    let mut latency_ms = BTreeMap::new();
    let mut failed = 0;
    for (id, st) in &all {
        match &st.done {
            Some((true, at, _)) if *at > t_sim0 => {
                latency_ms.insert(id.0, (at - st.submitted_s) * 1e3);
            }
            Some((false, ..)) => failed += 1,
            _ => {}
        }
    }
    let finished = c.finished_count() - already_done;
    let m = c.world.metrics();
    let planned: Vec<(f64, f64)> = m
        .series("fm.planned_mem_mb")
        .iter()
        .copied()
        .filter(|&(t, _)| t >= t_sim0)
        .collect();
    let area: f64 = planned
        .windows(2)
        .map(|w| 0.5 * (w[0].1 + w[1].1) * (w[1].0 - w[0].0))
        .sum();
    let span = planned.last().map_or(0.0, |l| l.0 - planned[0].0);
    let total_mem = m.series("fm.total_mem_mb").last().map_or(0.0, |s| s.1);
    let util_planned_mem = if span > 0.0 && total_mem > 0.0 {
        area / span / total_mem
    } else {
        0.0
    };

    let layers = opts.traced.then(|| {
        let view = c.hub.snapshot();
        let mut dump = RuntimeDump::new(m, c.world.tracer(), &view, 0.0);
        dump.snapshot_us = layers::time_snapshot(&c.hub);
        // Counters cover the cluster's whole life, so divide by every job
        // it finished; stages are taken over the measured jobs.
        let (mut s, _) = layers::fold(
            &[dump],
            c.finished_count() as u64,
            until.as_secs_f64(),
            &latency_ms,
            &BTreeMap::new(),
        );
        s.insert("cluster.boot_s", boot_s);
        // The sim's cluster is saturated throughout.
        let latencies: Vec<f64> = latency_ms.values().copied().collect();
        s.insert(
            "job_latency_saturated_p50_ms",
            stats::percentile(&latencies, 0.5),
        );
        s.insert("sim.stack.events_per_s", events as f64 / wall_s);
        s.insert("sim.stack.us_per_event", wall_s * 1e6 / events as f64);
        s.insert("sim.events_per_job", events as f64 / finished.max(1) as f64);
        s.insert("sim.util_planned_mem", util_planned_mem);
        s
    });
    Rep {
        setup_s,
        slices,
        fingerprint: Fingerprint {
            events: slice_events,
            submitted: all.len(),
            finished,
        },
        failed,
        latency_ms,
        util_planned_mem,
        layers,
    }
}

pub fn run(p: &SimParams, opts: &RunOpts) -> Measured {
    let mut out = Measured::default();
    let mut reps: Vec<Rep> = Vec::new();
    let mut measured_s = 0.0;
    while reps.len() < 2 || (measured_s < opts.seconds && reps.len() < p.max_reps) {
        let rep = one_rep(p, opts);
        let wall_s: f64 = rep.slices.iter().map(|s| s.0).sum();
        measured_s += wall_s;
        eprintln!(
            "sim_synth: rep {} set-up {:.2}s measured {wall_s:.2}s wall, {:?}, util {:.3}",
            reps.len(),
            rep.setup_s,
            rep.fingerprint,
            rep.util_planned_mem
        );
        reps.push(rep);
    }
    let first = &reps[0];
    for (i, r) in reps.iter().enumerate().skip(1) {
        if r.fingerprint != first.fingerprint {
            out.errors.push(format!(
                "repetition {i} of seed {} disagrees: {:?} vs {:?}",
                opts.seed, r.fingerprint, first.fingerprint
            ));
        }
    }
    if first.util_planned_mem <= 0.0 {
        out.errors.push("no utilisation series recorded".into());
    }
    out.attempted = first.fingerprint.submitted as u64;
    out.failed = first.failed;
    // Simulated latencies are identical in every repetition.
    out.latencies_ms = first.latency_ms.values().copied().collect();
    // Every repetition does exactly the same work in every slice, so
    // whatever one execution of a slice took beyond the fastest is the
    // shared host's interference, not the program's: wall-clock throughput
    // and CPU cost come from the fastest execution of each slice, summed.
    let fastest = |f: fn(&(f64, f64)) -> f64| -> f64 {
        (0..first.slices.len())
            .map(|i| {
                reps.iter()
                    .map(|r| f(&r.slices[i]))
                    .fold(f64::MAX, f64::min)
            })
            .sum()
    };
    let finished = first.fingerprint.finished.max(1) as f64;
    // What the simulated cluster gets done per second of its own time ...
    out.rates
        .push(finished / (p.slices as u64 * p.slice_sim_s) as f64);
    // ... and what the simulator gets done per second of ours.
    out.saturated_rates.push(finished / fastest(|s| s.0));
    out.cpu_ms_per_job.push(fastest(|s| s.1) * 1e3 / finished);
    // Set-up is the same work every time too; the fastest one reports.
    let setup_s = reps.iter().map(|r| r.setup_s).fold(f64::MAX, f64::min);
    out.setup_s.push(setup_s);
    for r in &mut reps {
        out.layer_samples.extend(r.layers.take());
    }
    out.peak_rss_mb = stats::vm_hwm_mb(std::process::id());
    out
}
