//! The closed-loop driver shared by the three live workloads, and the two
//! in-process ones: `live_null` and `live_failover`.
//!
//! Load comes from **one driver thread** in a **closed loop** (the paper's
//! §5.2 method: start a job when one finishes) with a fixed in-flight
//! count, so a slower system receives less load instead of a growing queue.

use crate::jobs::{JobGen, JobKind};
use crate::layers::{self, LayerSample, RuntimeDump};
use crate::report::Measured;
use crate::stats;
use crate::RunOpts;
use fuxi_cluster::{ClusterConfig, JobState, SubmitOpts};
use fuxi_job::JobDesc;
use fuxi_proto::JobId;
use fuxi_rt::LiveCluster;
use fuxi_sim::{SimDuration, TracerConfig};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// What the closed loop needs from a cluster, in-process or distributed.
pub trait JobSink {
    fn submit_job(&mut self, desc: &JobDesc, opts: &SubmitOpts);
    /// Jobs in a terminal state so far.
    fn finished(&self) -> usize;
    /// Every job in submission order with its client-observed state.
    fn jobs(&self) -> Vec<(JobId, JobState)>;
    /// The clock `JobState` times are on, seconds.
    fn now_s(&self) -> f64;
}

impl JobSink for LiveCluster {
    fn submit_job(&mut self, desc: &JobDesc, opts: &SubmitOpts) {
        self.submit(desc, opts);
    }
    fn finished(&self) -> usize {
        self.finished_count()
    }
    fn jobs(&self) -> Vec<(JobId, JobState)> {
        self.all_jobs()
    }
    fn now_s(&self) -> f64 {
        self.rt.now().as_secs_f64()
    }
}

/// When a closed-loop phase stops submitting.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After exactly this many jobs.
    Jobs(usize),
    /// After this much wall time; the in-flight jobs then drain.
    Window(Duration),
}

/// One closed-loop phase, as submitted.
#[derive(Debug)]
pub struct Phase {
    /// Index of the phase's first job in `JobSink::jobs()`.
    pub first: usize,
    pub submitted: usize,
    /// Cluster-clock time the phase began.
    pub t0_s: f64,
    /// How long the phase submitted for.
    pub open_s: f64,
    /// How long until every job of the phase was terminal (or it timed out).
    pub drained_s: f64,
    /// About once per [`BIN`] while the phase was submitting, from zero to
    /// `open_s`: the edges of the bins the run's medians are over.
    pub marks: Vec<Mark>,
    /// The hard deadline passed with jobs still open: a wedge.
    pub timed_out: bool,
}

/// Seconds on the cluster clock, CPU seconds of `cpu_pids` and seconds the
/// hypervisor stole from this machine, all since the phase began.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Mark {
    pub t_s: f64,
    pub cpu_s: f64,
    pub steal_s: f64,
}

/// Width of the bins a throughput phase is cut into. A live run's
/// throughput is the median over these bins, which a scheduling hiccup of
/// the shared host or one slow repetition cannot move the way it moves a
/// mean.
pub const BIN: Duration = Duration::from_secs(1);

/// Every phase begins with the cluster drained, so `first` jobs are done.
#[allow(clippy::too_many_arguments)]
pub fn closed_loop<S: JobSink>(
    sink: &mut S,
    gen: &mut JobGen,
    first: usize,
    in_flight: usize,
    stop: Stop,
    hard_deadline: Duration,
    cpu_pids: &[u32],
    mut tick: impl FnMut(&mut S, Duration),
) -> Phase {
    let opts = gen.submit_opts();
    let cpu = || cpu_pids.iter().map(|&p| stats::cpu_seconds(p)).sum::<f64>();
    let (t0, t0_s, cpu0, steal0) = (Instant::now(), sink.now_s(), cpu(), stats::steal_seconds());
    let mark = |sink: &S| Mark {
        t_s: sink.now_s() - t0_s,
        cpu_s: cpu() - cpu0,
        steal_s: stats::steal_seconds() - steal0,
    };
    let mut submitted = 0;
    let mut marks = vec![Mark::default()];
    let mut next_mark = BIN;
    let mut closed = false; // submitting has stopped
    let mut timed_out = false;
    loop {
        let elapsed = t0.elapsed();
        let done = sink.finished();
        let open = match stop {
            Stop::Jobs(n) => submitted < n,
            Stop::Window(w) => elapsed < w,
        };
        if open {
            let cap = match stop {
                Stop::Jobs(n) => n,
                Stop::Window(_) => usize::MAX,
            };
            while first + submitted - done < in_flight && submitted < cap {
                sink.submit_job(&gen.next_job(), &opts);
                submitted += 1;
            }
            if elapsed >= next_mark {
                marks.push(mark(sink));
                next_mark = elapsed + BIN;
            }
        } else {
            if !closed {
                closed = true;
                marks.push(mark(sink));
            }
            if done >= first + submitted {
                break;
            }
        }
        tick(sink, elapsed);
        if elapsed > hard_deadline {
            timed_out = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    if !closed {
        marks.push(mark(sink));
    }
    let last = marks.last().expect("starts non-empty");
    Phase {
        first,
        submitted,
        t0_s,
        open_s: last.t_s,
        drained_s: sink.now_s() - t0_s,
        marks,
        timed_out,
    }
}

/// The client's view of one phase's jobs.
#[derive(Debug, Default)]
pub struct PhaseJobs {
    /// Job id → latency, ms, for success-terminal jobs.
    pub latency_ms: BTreeMap<u32, f64>,
    /// `(completion time relative to the phase start in seconds, latency in
    /// ms)` of the same jobs.
    pub done: Vec<(f64, f64)>,
    /// Jobs not success-terminal.
    pub failed: u64,
}

pub fn phase_jobs(all: &[(JobId, JobState)], p: &Phase) -> PhaseJobs {
    let mut out = PhaseJobs::default();
    for (id, st) in &all[p.first..p.first + p.submitted] {
        match &st.done {
            Some((true, at, _)) => {
                let latency_ms = (at - st.submitted_s) * 1e3;
                out.latency_ms.insert(id.0, latency_ms);
                out.done.push((at - p.t0_s, latency_ms));
            }
            _ => out.failed += 1,
        }
    }
    out
}

/// What happened in one bin of a measured window.
#[derive(Debug, Clone, PartialEq)]
pub struct Bin {
    pub width_s: f64,
    pub cpu_s: f64,
    pub steal_s: f64,
    /// Latencies, ms, of the jobs that completed in the bin.
    pub latency_ms: Vec<f64>,
}

/// Cuts a window at its `marks` (see [`Phase::marks`]). A last bin under
/// half a [`BIN`] wide is merged into the one before it; completions of the
/// drain, after the last mark, belong to no bin.
pub fn bins(marks: &[Mark], done: &[(f64, f64)]) -> Vec<Bin> {
    let mut edges = marks.to_vec();
    if let [.., before, last] = edges[..] {
        if edges.len() > 2 && last.t_s - before.t_s < BIN.as_secs_f64() / 2.0 {
            edges.remove(edges.len() - 2);
        }
    }
    let mut out: Vec<Bin> = edges
        .windows(2)
        .map(|e| Bin {
            width_s: e[1].t_s - e[0].t_s,
            cpu_s: e[1].cpu_s - e[0].cpu_s,
            steal_s: e[1].steal_s - e[0].steal_s,
            latency_ms: Vec::new(),
        })
        .collect();
    for &(at, latency_ms) in done {
        // The bin whose right edge is the first one beyond `at`.
        let i = edges[1..].partition_point(|e| e.t_s <= at);
        if at >= 0.0 && i < out.len() {
            out[i].latency_ms.push(latency_ms);
        }
    }
    out
}

/// The bins a run's medians are taken over: those that completed a job,
/// less the ones from which the hypervisor stole a larger share of time
/// than from the median such bin. On a quiet host that is every bin; when
/// neighbours of the shared host are busy it is the quieter half.
pub fn quiet(bins: &[Bin]) -> Vec<&Bin> {
    let share = |b: &Bin| b.steal_s / b.width_s;
    let busy: Vec<&Bin> = bins.iter().filter(|b| !b.latency_ms.is_empty()).collect();
    let limit = stats::median(&busy.iter().map(|b| share(b)).collect::<Vec<_>>());
    busy.into_iter().filter(|b| share(b) <= limit).collect()
}

/// Failover clocks and the kill schedule.
#[derive(Debug, Clone, Copy)]
struct Failover {
    lease_s: f64,
    keepalive_s: f64,
    rebuild_s: f64,
    /// Kill the primary this far into the measured window (fraction).
    kill_at: f64,
}

/// Where light load and saturation are separate phases, the share of a
/// window's time the saturated phase gets; the light-load phase before it
/// runs a fixed number of jobs (about the rest at today's latency).
const SATURATED_SHARE: f64 = 0.75;

/// Sizing of an in-process live workload.
#[derive(Debug, Clone, Copy)]
pub struct LiveParams {
    pub kind: JobKind,
    pub machines: usize,
    pub rack: usize,
    pub in_flight: usize,
    pub warmup_jobs: usize,
    /// `(in flight, jobs)` of the light-load phase that latency and
    /// `jobs_per_s` are measured in, before the window saturates the cluster.
    /// `None`: the whole window is light load, and both come from it.
    pub light: Option<(usize, usize)>,
    /// Clusters booted per run; each contributes one set-up sample.
    pub setups: usize,
    /// How many of those also run a measured window (the last ones); the
    /// window is `--seconds ÷ measured`.
    pub measured: usize,
    failover: Option<Failover>,
}

impl LiveParams {
    /// Control-plane saturation. 128 in flight keeps demand (≈2 cores per
    /// job) under the 32 × 12-core cluster, so the control plane and not
    /// capacity queueing is measured; one cluster's life stays far under
    /// the ≈32 k actor spawns at which the runtime runs out of mappings.
    pub fn live_null(smoke: bool) -> Self {
        LiveParams {
            kind: JobKind::Null,
            machines: if smoke { 8 } else { 32 },
            rack: 8,
            in_flight: if smoke { 16 } else { 128 },
            warmup_jobs: if smoke { 8 } else { 50 },
            // Ten rounds of 16: 480 latency samples a run, 24 beyond p95.
            light: Some(if smoke { (4, 12) } else { (16, 160) }),
            setups: if smoke { 1 } else { 3 },
            measured: if smoke { 1 } else { 3 },
            failover: None,
        }
    }

    /// `live_null`'s jobs over four processes. 64 in flight: the deployment
    /// gets *slower* with more (~120 jobs/s at 64; probes saw ~50 at 128).
    pub fn dist_null(smoke: bool) -> Self {
        LiveParams {
            in_flight: if smoke { 8 } else { 64 },
            ..LiveParams::live_null(smoke)
        }
    }

    /// Sized with headroom (96 machines, 16 in flight): at 32 machines and
    /// 32 in flight the current code wedges after failover. The lease and
    /// rebuild window are shortened from the defaults (tuned for simulated
    /// hours) so kill → stall → recovery fits the measured window; the
    /// keepalive still fits four times into the lease, so a scheduling
    /// hiccup of the host does not cost the primary its lock early.
    pub fn live_failover(smoke: bool) -> Self {
        LiveParams {
            kind: JobKind::Paced,
            machines: if smoke { 16 } else { 96 },
            rack: 16,
            in_flight: if smoke { 4 } else { 16 },
            warmup_jobs: if smoke { 4 } else { 50 },
            light: None,
            setups: if smoke { 1 } else { 3 },
            measured: 1,
            failover: Some(if smoke {
                Failover {
                    lease_s: 0.8,
                    keepalive_s: 0.2,
                    rebuild_s: 0.5,
                    kill_at: 0.15,
                }
            } else {
                Failover {
                    lease_s: 2.0,
                    keepalive_s: 0.5,
                    rebuild_s: 3.0,
                    kill_at: 0.2,
                }
            }),
        }
    }

    /// Pure function of the parameters and the tracing switch: every
    /// process of a distributed run computes the same config.
    pub fn cluster_config(&self, traced: bool) -> ClusterConfig {
        let mut cfg = ClusterConfig {
            n_machines: self.machines,
            rack_size: self.rack.min(self.machines),
            seed: 2014,
            standby_master: self.failover.is_some(),
            obs: TracerConfig {
                enabled: traced,
                ..TracerConfig::default()
            },
            ..ClusterConfig::default()
        };
        if let Some(f) = self.failover {
            cfg.master.lease_ttl = SimDuration::from_secs_f64(f.lease_s);
            cfg.master.keepalive_interval = SimDuration::from_secs_f64(f.keepalive_s);
            cfg.master.rebuild_window = SimDuration::from_secs_f64(f.rebuild_s);
        }
        cfg
    }
}

/// A wedge becomes failed jobs, never a hang: every phase gives up after
/// three times its expected duration (never less than 20 s).
pub fn hard_deadline(expected: Duration) -> Duration {
    (expected * 3).max(Duration::from_secs(20))
}

/// Peak thread count of this process, sampled every 50 ms of a phase.
#[derive(Debug, Default)]
pub struct ThreadsPeak {
    sampled: Duration,
    pub peak: u64,
}

impl ThreadsPeak {
    pub fn sample(&mut self, elapsed: Duration) {
        if self.peak == 0 || elapsed >= self.sampled + Duration::from_millis(50) {
            self.sampled = elapsed;
            self.peak = self.peak.max(stats::threads_now());
        }
    }
}

/// Agents report once a second; after the last job, waiting this long lets
/// the final reports land so the residual is what the view settles at.
pub const REPORTS_SETTLE: Duration = Duration::from_millis(1500);

/// What the failover tick observed.
#[derive(Debug, Default)]
struct KillLog {
    /// (old master, cluster-clock time, wall instant) of the kill.
    killed: Option<(fuxi_sim::ActorId, f64, Instant)>,
    takeover_s: Option<f64>,
    /// Cluster-clock time the standby was first seen as master.
    takeover_at_s: Option<f64>,
}

impl KillLog {
    /// Kills the primary once `due`, then watches for the standby.
    fn tick(&mut self, c: &LiveCluster, due: bool) {
        match self.killed {
            None if due => {
                if let Some(fm) = c.current_master() {
                    self.killed = Some((fm, c.now_s(), Instant::now()));
                    c.kill_primary_master();
                }
            }
            Some((old, _, at))
                if self.takeover_s.is_none() && c.current_master().is_some_and(|m| m != old) =>
            {
                self.takeover_s = Some(at.elapsed().as_secs_f64());
                self.takeover_at_s = Some(c.now_s());
            }
            _ => {}
        }
    }
}

/// A repetition's cluster, just booted: which repetition, when its set-up
/// began, and how long the boot took.
pub struct Booted {
    pub rep: usize,
    pub t_setup: Instant,
    pub boot_s: f64,
}

/// What [`drive`] leaves for the caller to finish a repetition with.
pub struct Driven {
    /// The measured window and its jobs (measured repetitions only).
    pub measured: Option<(Phase, PhaseJobs)>,
    /// Job id → latency, ms, of the jobs run at light load.
    light_latency: BTreeMap<u32, f64>,
    threads_peak: u64,
    /// What the repetition's per-layer sample holds so far.
    pub sample: LayerSample,
    /// Traced, and the run's last repetition: the one whose residual counts.
    settle: bool,
}

/// One cluster's life after boot, the same for every live workload:
/// warm-up (which ends set-up), then — on the run's measured repetitions —
/// the window: a light-load phase for latency and `jobs_per_s`, then
/// `in_flight` jobs to saturate the cluster (one phase serves both where
/// the whole window is light), accounted into `out`. `tick` runs once per
/// poll of the last phase.
/// A wedge is accounted (its open jobs are `failed`) and then returned as
/// the error.
pub fn drive<S: JobSink>(
    sink: &mut S,
    p: &LiveParams,
    opts: &RunOpts,
    Booted {
        rep,
        t_setup,
        boot_s,
    }: Booted,
    pids: &[u32],
    out: &mut Measured,
    mut tick: impl FnMut(&mut S, Duration, Duration),
) -> Result<Driven, String> {
    const WARMUP_EXPECTED: Duration = Duration::from_secs(5);
    // The generator restarts per cluster so repetitions see one stream.
    let mut gen = JobGen::new(opts.seed, p.kind);
    let warm_in_flight = p.in_flight.min(16);
    let stop = Stop::Jobs(p.warmup_jobs);
    let deadline = hard_deadline(WARMUP_EXPECTED);
    let warm = closed_loop(
        sink,
        &mut gen,
        0,
        warm_in_flight,
        stop,
        deadline,
        pids,
        |_, _| {},
    );
    let setup_s = t_setup.elapsed().as_secs_f64();
    out.setup_s.push(setup_s);
    eprintln!("fuxi-benchmark: rep {rep} booted in {boot_s:.2}s, set up in {setup_s:.2}s");
    if warm.timed_out {
        return Err("warm-up wedged".into());
    }
    let mut d = Driven {
        measured: None,
        light_latency: BTreeMap::new(),
        threads_peak: 0,
        sample: LayerSample::new(),
        settle: opts.traced && rep + 1 == p.setups,
    };
    d.sample.insert("cluster.boot_s", boot_s);
    if rep < p.setups - p.measured {
        return Ok(d);
    }
    let mut next = warm.submitted;
    let mut window = Duration::from_secs_f64(opts.seconds / p.measured as f64);
    if let Some((in_flight, jobs)) = p.light {
        let stop = Stop::Jobs(jobs);
        let light = closed_loop(
            sink,
            &mut gen,
            next,
            in_flight,
            stop,
            deadline,
            pids,
            |_, _| {},
        );
        next += light.submitted;
        window = window.mul_f64(SATURATED_SHARE);
        let jobs = phase_jobs(&sink.jobs(), &light);
        out.attempted += light.submitted as u64;
        out.failed += jobs.failed;
        // A fixed number of jobs at a fixed concurrency, timed to the last
        // completion: no window edge cuts through a round of completions.
        out.rates.push(light.submitted as f64 / light.drained_s);
        d.light_latency = jobs.latency_ms;
        if light.timed_out {
            return Err("light-load phase wedged".into());
        }
    }
    let mut threads = ThreadsPeak::default();
    let phase = closed_loop(
        sink,
        &mut gen,
        next,
        p.in_flight,
        Stop::Window(window),
        hard_deadline(window),
        pids,
        |sink, elapsed| {
            if opts.traced {
                threads.sample(elapsed);
            }
            tick(sink, elapsed, window);
        },
    );
    d.threads_peak = threads.peak;
    let jobs = phase_jobs(&sink.jobs(), &phase);
    out.attempted += phase.submitted as u64;
    out.failed += jobs.failed;
    if p.light.is_none() {
        d.light_latency = jobs.latency_ms.clone();
    }
    out.latencies_ms.extend(d.light_latency.values());
    let bins = bins(&phase.marks, &jobs.done);
    // After a light-load phase the first bin is the ramp to `in_flight`.
    let ramp = usize::from(p.light.is_some() && bins.len() > 2);
    let steady = quiet(&bins[ramp..]);
    let jobs_in = |b: &Bin| b.latency_ms.len() as f64;
    out.cpu_ms_per_job
        .extend(steady.iter().map(|b| b.cpu_s * 1e3 / jobs_in(b)));
    if p.failover.is_some() {
        // The stall is the point: whole-window rate, not a median bin.
        let rate = bins.iter().map(jobs_in).sum::<f64>() / phase.open_s;
        out.rates.push(rate);
        out.saturated_rates.push(rate);
    } else {
        out.saturated_rates
            .extend(steady.iter().map(|b| jobs_in(b) / b.width_s));
    }
    if opts.traced {
        let saturated: Vec<f64> = jobs.latency_ms.values().copied().collect();
        d.sample.insert(
            "job_latency_saturated_p50_ms",
            stats::percentile(&saturated, 0.5),
        );
    }
    eprintln!(
        "fuxi-benchmark: rep {rep} by bin: ms {:.0?} jobs {:?} cpu ms {:.0?} steal ms {:.0?}",
        bins.iter().map(|b| b.width_s * 1e3).collect::<Vec<_>>(),
        bins.iter().map(|b| b.latency_ms.len()).collect::<Vec<_>>(),
        bins.iter().map(|b| b.cpu_s * 1e3).collect::<Vec<_>>(),
        bins.iter().map(|b| b.steal_s * 1e3).collect::<Vec<_>>(),
    );
    let wedge = phase.timed_out.then(|| {
        format!(
            "wedged with {} of {} jobs open at the hard deadline",
            jobs.failed, phase.submitted
        )
    });
    d.measured = Some((phase, jobs));
    wedge.map_or(Ok(d), Err)
}

impl Driven {
    /// Before the cluster's views are read for the last time: lets the
    /// final agent reports land when this repetition's residual counts.
    pub fn settle_reports(&self) {
        if self.settle {
            std::thread::sleep(REPORTS_SETTLE);
        }
    }

    /// Folds the dumps of every process of the cluster into this
    /// repetition's per-layer sample (traced, measured repetitions only).
    pub fn push_layers(
        mut self,
        dumps: &[RuntimeDump],
        finished: u64,
        life_s: f64,
        out: &mut Measured,
    ) {
        let Some((_, jobs)) = &self.measured else {
            return;
        };
        if self.settle {
            let residual = layers::residual_used_cpu_milli(dumps);
            self.sample
                .insert("core.master.residual_used_cpu_milli", residual);
        }
        let (s, check) = layers::fold(
            dumps,
            finished,
            life_s,
            &jobs.latency_ms,
            &self.light_latency,
        );
        self.sample.extend(s);
        self.sample
            .insert("rt.threads_peak", self.threads_peak as f64);
        let in_process = dumps.len() == 1;
        check_stage_sum(&check, in_process, &mut self.sample, &mut out.errors);
        out.layer_samples.push(self.sample);
    }
}

/// Runs `live_null` or `live_failover`.
pub fn run(p: &LiveParams, opts: &RunOpts) -> Measured {
    let mut out = Measured::default();
    let me = [std::process::id()];
    for rep in 0..p.setups {
        let t_setup = Instant::now();
        let mut c = LiveCluster::new(p.cluster_config(opts.traced));
        let boot_s = t_setup.elapsed().as_secs_f64();
        let booted = Booted {
            rep,
            t_setup,
            boot_s,
        };
        let mut kill = KillLog::default();
        let driven = drive(
            &mut c,
            p,
            opts,
            booted,
            &me,
            &mut out,
            |c, elapsed, window| {
                if let Some(f) = p.failover {
                    kill.tick(c, elapsed >= window.mul_f64(f.kill_at));
                }
            },
        );
        let mut driven = match driven {
            Ok(d) => Some(d),
            Err(e) => {
                out.errors.push(format!("rep {rep}: {e}"));
                None
            }
        };
        if let Some(Driven {
            measured: Some((phase, jobs)),
            sample,
            ..
        }) = &mut driven
        {
            if p.failover.is_some() {
                failover_sample(&kill, jobs, phase, sample, &mut out.errors);
            }
        }
        let (finished, life_s) = (c.finished_count() as u64, c.now_s());
        if let Some(d) = &driven {
            d.settle_reports();
        }
        let view = c.hub.snapshot();
        let snapshot_us = layers::time_snapshot(&c.hub);
        // Always shut down: it joins the actor threads and re-raises a panic.
        let (metrics, tracer) = c.shutdown();
        if let Some(d) = driven.filter(|_| opts.traced) {
            let mut dump = RuntimeDump::new(&metrics, &tracer, &view, 0.0);
            dump.snapshot_us = snapshot_us;
            d.push_layers(&[dump], finished, life_s, &mut out);
        }
    }
    out.peak_rss_mb = stats::vm_hwm_mb(me[0]);
    out
}

/// With nothing queueing (at light load) the event-derived stages must
/// account for what the client saw, within 5 % where client and master
/// share a process. Across processes the client's two hops through the hub
/// (`stage.client_hops_ms`, 6 % at 16 in flight) belong to no stage, so
/// there the share is reported and not held to a limit.
fn check_stage_sum(
    check: &layers::StageCheck,
    in_process: bool,
    sample: &mut LayerSample,
    errors: &mut Vec<String>,
) {
    sample.insert("stage.sum_over_client_latency", check.sum_over_latency_p50);
    if check.jobs == 0 {
        errors.push("traced run derived no complete stage breakdown".into());
    } else if in_process && (check.sum_over_latency_p50 - 1.0).abs() > 0.05 {
        errors.push(format!(
            "stages sum to {:.3} of the client-observed latency (over {} jobs)",
            check.sum_over_latency_p50, check.jobs
        ));
    }
}

fn failover_sample(
    kill: &KillLog,
    jobs: &PhaseJobs,
    phase: &Phase,
    sample: &mut LayerSample,
    errors: &mut Vec<String>,
) {
    let (Some((_, killed_at_s, _)), Some(takeover_s), Some(takeover_at_s)) =
        (kill.killed, kill.takeover_s, kill.takeover_at_s)
    else {
        errors.push("standby never took over after the master kill".into());
        return;
    };
    let (kill_rel, takeover_rel) = (killed_at_s - phase.t0_s, takeover_at_s - phase.t0_s);
    let mut done: Vec<f64> = jobs.done.iter().map(|d| d.0).collect();
    done.sort_by(f64::total_cmp);
    // The gap between consecutive completions that spans the kill.
    let before = done
        .iter()
        .copied()
        .filter(|&t| t <= kill_rel)
        .fold(0.0, f64::max);
    let after = done.iter().copied().find(|&t| t > kill_rel);
    let first_after_takeover = done.iter().copied().find(|&t| t > takeover_rel);
    let (Some(after), Some(resumed)) = (after, first_after_takeover) else {
        errors.push("no job completed after the master kill".into());
        return;
    };
    sample.insert("apsara.lock.takeover_s", takeover_s);
    sample.insert("core.master.grant_stall_s", after - before);
    sample.insert("core.master.rebuild_s", resumed - takeover_rel);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sink whose jobs finish a fixed number of polls after submission.
    struct FakeSink {
        polls: std::cell::Cell<u64>,
        jobs: Vec<(JobId, JobState, u64)>,
        stuck: bool,
    }

    impl JobSink for FakeSink {
        fn submit_job(&mut self, _: &JobDesc, _: &SubmitOpts) {
            let id = JobId(self.jobs.len() as u32 + 1);
            let st = JobState {
                submitted_s: self.now_s(),
                ..Default::default()
            };
            self.jobs.push((id, st, self.polls.get() + 3));
        }
        fn finished(&self) -> usize {
            self.polls.set(self.polls.get() + 1);
            if self.stuck {
                return 0;
            }
            self.jobs.iter().filter(|j| j.2 <= self.polls.get()).count()
        }
        fn jobs(&self) -> Vec<(JobId, JobState)> {
            self.jobs
                .iter()
                .map(|(id, st, due)| {
                    let mut st = st.clone();
                    if !self.stuck && *due <= self.polls.get() {
                        st.done = Some((true, *due as f64 * 1e-3, String::new()));
                    }
                    (*id, st)
                })
                .collect()
        }
        fn now_s(&self) -> f64 {
            self.polls.get() as f64 * 1e-3
        }
    }

    fn sink(stuck: bool) -> FakeSink {
        FakeSink {
            polls: std::cell::Cell::new(0),
            jobs: Vec::new(),
            stuck,
        }
    }

    #[test]
    fn closed_loop_keeps_in_flight_bounded_and_drains() {
        let mut s = sink(false);
        let mut gen = JobGen::new(1, JobKind::Null);
        let mut peak = 0;
        let p = closed_loop(
            &mut s,
            &mut gen,
            0,
            4,
            Stop::Jobs(20),
            Duration::from_secs(5),
            &[],
            |s, _| {
                let open = s.jobs().iter().filter(|j| j.1.done.is_none()).count();
                peak = peak.max(open);
            },
        );
        assert_eq!((p.submitted, p.timed_out), (20, false));
        assert!(peak <= 4, "in flight peaked at {peak}");
        let jobs = phase_jobs(&s.jobs(), &p);
        assert_eq!((jobs.latency_ms.len(), jobs.failed), (20, 0));
        // A second phase starts where the first ended.
        let p2 = closed_loop(
            &mut s,
            &mut gen,
            20,
            2,
            Stop::Jobs(5),
            Duration::from_secs(5),
            &[],
            |_, _| {},
        );
        assert_eq!((p2.first, p2.submitted), (20, 5));
        assert_eq!(phase_jobs(&s.jobs(), &p2).latency_ms.len(), 5);
    }

    #[test]
    fn a_wedge_becomes_failed_jobs_not_a_hang() {
        let mut s = sink(true);
        let mut gen = JobGen::new(1, JobKind::Null);
        let p = closed_loop(
            &mut s,
            &mut gen,
            0,
            3,
            Stop::Window(Duration::from_millis(20)),
            Duration::from_millis(60),
            &[],
            |_, _| {},
        );
        assert!(p.timed_out);
        assert_eq!(p.submitted, 3);
        assert_eq!(phase_jobs(&s.jobs(), &p).failed, 3);
    }

    #[test]
    fn bins_cover_the_window_and_ignore_the_drain() {
        let done = [0.1, 0.2, 0.9, 1.5, 2.99, 3.0, 3.4].map(|t| (t, t * 100.0));
        let mark = |(t_s, cpu_s): (f64, f64)| Mark {
            t_s,
            cpu_s,
            steal_s: cpu_s / 10.0,
        };
        let marks = [(0.0, 0.0), (1.0, 0.5), (2.0, 0.7), (3.0, 1.0)].map(mark);
        let b = bins(&marks, &done);
        let counts: Vec<usize> = b.iter().map(|b| b.latency_ms.len()).collect();
        assert_eq!(counts, [3, 1, 1]);
        assert_eq!(b[0].latency_ms, [10.0, 20.0, 90.0]);
        assert!((b[1].cpu_s - 0.2).abs() < 1e-12 && b[1].width_s == 1.0);
        // A sliver at the end joins the bin before it.
        let marks = [(0.0, 0.0), (1.0, 0.5), (2.0, 0.7), (2.1, 1.0)].map(mark);
        let b = bins(&marks, &done);
        let counts: Vec<usize> = b.iter().map(|b| b.latency_ms.len()).collect();
        assert_eq!(counts, [3, 1]);
        assert!((b[1].width_s - 1.1).abs() < 1e-12 && (b[1].cpu_s - 0.5).abs() < 1e-12);
        // A window shorter than a bin is one bin.
        let marks = [(0.0, 0.0), (0.4, 0.1)].map(mark);
        assert_eq!(bins(&marks, &done)[0].latency_ms.len(), 2);
    }

    #[test]
    fn quiet_bins_are_the_busy_ones_with_no_more_than_median_steal() {
        let bin = |steal_s: f64, jobs: usize| Bin {
            width_s: 1.0,
            cpu_s: 0.5,
            steal_s,
            latency_ms: vec![200.0; jobs],
        };
        // No steal anywhere: every bin that completed a job.
        let all = [bin(0.0, 5), bin(0.0, 0), bin(0.0, 7)];
        assert_eq!(quiet(&all).len(), 2);
        // Otherwise the quieter half; an idle bin's steal does not count.
        let some = [
            bin(0.3, 5),
            bin(0.0, 0),
            bin(0.1, 7),
            bin(0.2, 6),
            bin(0.05, 4),
        ];
        let kept: Vec<f64> = quiet(&some).iter().map(|b| b.steal_s).collect();
        assert_eq!(kept, [0.1, 0.05]);
        assert!(quiet(&[]).is_empty());
    }

    #[test]
    fn stall_is_the_completion_gap_spanning_the_kill() {
        let kill = KillLog {
            killed: Some((fuxi_sim::ActorId(1), 13.0, Instant::now())),
            takeover_s: Some(2.1),
            takeover_at_s: Some(15.1),
        };
        let phase = Phase {
            first: 0,
            submitted: 0,
            t0_s: 10.0,
            open_s: 15.0,
            drained_s: 15.2,
            marks: Vec::new(),
            timed_out: false,
        };
        let jobs = PhaseJobs {
            done: [9.0, 1.0, 2.9, 8.4, 2.0, 8.6].map(|t| (t, 200.0)).into(),
            ..Default::default()
        };
        let (mut s, mut errs) = (LayerSample::new(), Vec::new());
        failover_sample(&kill, &jobs, &phase, &mut s, &mut errs);
        assert!(errs.is_empty(), "{errs:?}");
        assert!((s["core.master.grant_stall_s"] - 5.5).abs() < 1e-9);
        assert!((s["core.master.rebuild_s"] - 3.3).abs() < 1e-9);
        assert_eq!(s["apsara.lock.takeover_s"], 2.1);
        failover_sample(&KillLog::default(), &jobs, &phase, &mut s, &mut errs);
        assert_eq!(errs.len(), 1);
    }
}
