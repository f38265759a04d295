//! # fuxi-bench
//!
//! Experiment binaries regenerating every table and figure of the paper's
//! evaluation (Section 5), plus criterion micro-benchmarks of the
//! scheduler hot paths. See DESIGN.md's experiment index for the mapping.
//!
//! All binaries accept `--scale <f>` (cluster/data scale relative to the
//! paper's 5,000-node testbed; defaults keep runs laptop-sized),
//! `--duration <s>` where applicable, and `--seed <n>`.

use fuxi_cluster::{Cluster, ClusterConfig};
use fuxi_proto::topology::MachineSpec;
use fuxi_proto::ResourceVec;
use fuxi_sim::SimDuration;
use fuxi_workloads::synthetic::SyntheticMix;

pub mod tracetool;

/// Common CLI arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub scale: f64,
    pub duration_s: u64,
    pub seed: u64,
    /// `--trace-out <dir>`: export the observability stream (JSONL event
    /// log, Chrome trace, metrics snapshot) of the run into a directory.
    pub trace_out: Option<String>,
}

impl Args {
    /// Parses `--scale`, `--duration`, `--seed` with the given defaults.
    pub fn parse(default_scale: f64, default_duration_s: u64) -> Args {
        let mut args = Args {
            scale: default_scale,
            duration_s: default_duration_s,
            seed: 2014,
            trace_out: None,
        };
        let argv: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i < argv.len() {
            match argv[i].as_str() {
                "--scale" => {
                    args.scale = argv.get(i + 1).and_then(|v| v.parse().ok()).unwrap_or(args.scale);
                    i += 2;
                }
                "--duration" => {
                    args.duration_s = argv
                        .get(i + 1)
                        .and_then(|v| v.parse().ok())
                        .unwrap_or(args.duration_s);
                    i += 2;
                }
                "--seed" => {
                    args.seed = argv.get(i + 1).and_then(|v| v.parse().ok()).unwrap_or(args.seed);
                    i += 2;
                }
                "--full" => {
                    args.scale = 1.0;
                    i += 1;
                }
                "--trace-out" => {
                    args.trace_out = argv.get(i + 1).cloned();
                    i += 2;
                }
                // Mode flags consumed by individual binaries.
                "--petasort" => {
                    i += 1;
                }
                other => {
                    eprintln!("ignoring unknown argument {other}");
                    i += 1;
                }
            }
        }
        args
    }
}

/// Warns when timing-sensitive experiments run without optimizations.
pub fn warn_if_debug() {
    #[cfg(debug_assertions)]
    eprintln!(
        "WARNING: debug build — wall-clock scheduling times (Figure 9) are \
         only meaningful with --release"
    );
}

/// The paper's testbed node for the synthetic experiment: 2×2.20 GHz 6-core
/// Xeon E5-2430 with hyper-threading (24 hardware threads — Figure 10(b)'s
/// CPU axis tops out near 120k cores over 5,000 nodes) and 96 GB memory.
pub fn synthetic_machine_spec() -> MachineSpec {
    MachineSpec {
        resources: ResourceVec::cores_mb(24, 96 * 1024),
        ..MachineSpec::default()
    }
}

/// Outcome of the §5.2 synthetic-workload experiment.
pub struct SyntheticOutcome {
    pub cluster: Cluster,
    pub stats: fuxi_cluster::SyntheticRunStats,
}

/// Runs the §5.2 experiment with tracing and the metrics plane on.
pub fn run_synthetic_experiment(args: &Args) -> SyntheticOutcome {
    let mut run = SyntheticRun::new(args, fuxi_sim::TracerConfig::default(), Default::default());
    while run.advance(SimDuration::from_secs(args.duration_s)) {}
    SyntheticOutcome { cluster: run.cluster, stats: run.closed_loop.stats }
}

/// The §5.2 experiment: `5000×scale` machines, `1000×scale` concurrent
/// jobs from the paper's WordCount/Terasort mix, for `duration_s` of
/// simulated time. Instance counts are unscaled so the demand-to-capacity
/// ratio matches the paper. It runs a slice of simulated time per
/// [`SyntheticRun::advance`]: `bench_snapshot` takes turns between a run
/// with tracing or the metrics plane off and one with it on.
/// (`plane.enabled = false` turns off the master rollup, report ingestion,
/// and the agent/JobMaster report senders together.)
pub struct SyntheticRun {
    pub cluster: Cluster,
    mix: SyntheticMix,
    closed_loop: fuxi_cluster::scenario::SyntheticLoop,
}

impl SyntheticRun {
    /// Boots the cluster and submits the first jobs.
    pub fn new(args: &Args, obs: fuxi_sim::TracerConfig, plane: fuxi_sim::obs::MetricsPlaneConfig) -> SyntheticRun {
        let machines = ((5000.0 * args.scale).round() as usize).max(20);
        let concurrent = ((1000.0 * args.scale).round() as usize).max(4);
        let mut cfg = ClusterConfig {
            n_machines: machines,
            rack_size: 50,
            machine_spec: synthetic_machine_spec(),
            seed: args.seed,
            obs,
            ..ClusterConfig::default()
        };
        cfg.master.metrics = plane;
        let mut cluster = Cluster::new(cfg);
        // Large jobs saturate the scaled cluster exactly as in the paper; cap
        // the per-job worker count so thousands of jobs share the cluster.
        let mut mix = SyntheticMix::new(args.seed, 1.0);
        let duration = SimDuration::from_secs(args.duration_s);
        let closed_loop = fuxi_cluster::scenario::SyntheticLoop::start(&mut cluster, &mut mix, concurrent, duration);
        SyntheticRun { cluster, mix, closed_loop }
    }

    /// Runs up to `slice` more simulated time; false once the run is over.
    pub fn advance(&mut self, slice: SimDuration) -> bool {
        self.closed_loop.advance(&mut self.cluster, &mut self.mix, slice)
    }
}

/// Formats a paper-vs-measured row.
pub fn row(label: &str, paper: &str, measured: &str) -> Vec<String> {
    vec![label.to_owned(), paper.to_owned(), measured.to_owned()]
}

/// Shared engine setups for the Figure 9 scheduling micro-benchmarks, used
/// by both the criterion benches and the `bench_snapshot` baseline binary.
pub mod scenarios {
    use fuxi_core::quota::QuotaManager;
    use fuxi_core::scheduler::{Engine, EngineConfig};
    use fuxi_proto::request::{RequestDelta, ScheduleUnitDef};
    use fuxi_proto::topology::{MachineSpec, TopologyBuilder};
    use fuxi_proto::{AppId, Priority, QuotaGroupId, ResourceVec, UnitId};

    /// The benchmark schedule unit: {0.5 CPU, 2 GB} — the paper's
    /// "{2CPU, 10GB} frees up" example scaled to pack 48 per machine.
    pub fn sched_unit() -> ResourceVec {
        ResourceVec::new(500, 2048)
    }

    fn build(n_racks: usize, per_rack: usize, cores: u64, reference: bool) -> Engine {
        let topo = TopologyBuilder::new()
            .uniform(n_racks, per_rack, MachineSpec {
                resources: ResourceVec::cores_mb(cores, 96 * 1024),
                ..MachineSpec::default()
            })
            .build();
        // Preemption off: these benches time the waiting-queue decision, and
        // app 0's urgency would otherwise evict the whole cluster at setup.
        let cfg = EngineConfig {
            enable_priority_preemption: false,
            enable_quota_preemption: false,
            reference_mode: reference,
            ..EngineConfig::default()
        };
        let mut e = Engine::new(topo, cfg, QuotaManager::new());
        let unit = sched_unit();
        let machines = (n_racks * per_rack) as u64;
        // Demand = 2× the 48-units-per-machine capacity, spread over 1,000
        // apps; app 0 is the most urgent waiter with unbounded demand.
        let per_app = (machines * 48 * 2 / 1000).max(1);
        for a in 0..1000u32 {
            let prio = if a == 0 { Priority(1) } else { Priority(1000) };
            e.attach_app(
                AppId(a),
                QuotaGroupId(0),
                vec![ScheduleUnitDef::new(UnitId(0), prio, unit.clone())],
            );
            let want = if a == 0 { 1_000_000 } else { per_app as i64 };
            e.apply_deltas(AppId(a), &[RequestDelta::cluster(UnitId(0), want)]);
        }
        e.drain_events();
        e
    }

    /// Exactly-full cluster: 24-core/96 GB machines where 48 × {0.5 CPU,
    /// 2 GB} units exhaust CPU and memory simultaneously. Every machine ends
    /// with zero free in both dimensions; the hot path is the return →
    /// decide → grant cycle.
    pub fn saturated_engine(n_racks: usize, per_rack: usize, reference: bool) -> Engine {
        build(n_racks, per_rack, 24, reference)
    }

    /// Fragmented saturation: 32-core/96 GB machines where memory exhausts
    /// after 48 units, stranding 8 CPU cores free on every machine. All
    /// machines stay nonempty but the unit never fits anywhere — the
    /// worst case for a naive free-machine scan (it walks its full
    /// `max_cluster_scan` budget and finds nothing) and the best case for
    /// the hierarchical fit index (one root rejection).
    pub fn fragmented_engine(n_racks: usize, per_rack: usize, reference: bool) -> Engine {
        build(n_racks, per_rack, 32, reference)
    }
}

/// The JSON emitter behind `BENCH_sched.json`: callers build a
/// [`serde_json::Value`] tree (object keys keep insertion order) and the
/// shim renders it, escaping included.
pub mod json {
    pub use serde_json::Value;

    /// An object from `(key, value)` pairs, in the order given.
    pub fn obj<const N: usize>(fields: [(&str, Value); N]) -> Value {
        Value::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// An unsigned count (`usize`, `u32` and `u64` all occur in callers).
    pub fn uint(n: impl TryInto<u64>) -> Value {
        Value::UInt(n.try_into().ok().expect("count fits in u64"))
    }

    /// `v` rounded to `places` decimals: artifact precision, not the 17
    /// digits a raw `f64` renders with.
    pub fn fixed(v: f64, places: i32) -> Value {
        let scale = 10f64.powi(places);
        Value::Float((v * scale).round() / scale)
    }

    /// A string.
    pub fn text(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// The tree as indented JSON text with a trailing newline.
    pub fn render(v: &Value) -> String {
        serde_json::to_string_pretty(v).expect("a Value tree always renders") + "\n"
    }
}

/// End-to-end kernel throughput: a cluster-sized world where a driver keeps
/// a window of jobs in flight over per-machine worker actors. Each job is
/// one submit delivery, one runtime timer, and one completion delivery, so
/// the scenario exercises exactly the event-queue hot path (pushes from
/// three sites, same-tick ties, far-future timers) with trivial handlers —
/// wall time measures the kernel, not the workload.
pub mod sim_storm {
    use fuxi_sim::{
        Actor, ActorId, Ctx, KernelMsg, SimDuration, SimTime, TracerConfig, World, WorldConfig,
    };
    use std::cell::Cell;
    use std::rc::Rc;

    #[derive(Debug)]
    enum StormMsg {
        Submit { job: u64 },
        Done,
        Flow,
    }

    impl KernelMsg for StormMsg {
        fn flow_done(_tag: u64, _failed: bool) -> Self {
            StormMsg::Flow
        }
    }

    /// Runs one job per `Submit`: a deterministic-duration timer, then a
    /// completion back to the driver.
    struct Worker {
        driver: ActorId,
    }

    impl Actor<StormMsg> for Worker {
        fn on_message(&mut self, ctx: &mut Ctx<'_, StormMsg>, from: ActorId, msg: StormMsg) {
            if let StormMsg::Submit { job } = msg {
                self.driver = from;
                // Job runtimes 1–200 ms, scattered deterministically so
                // completions land across many ticks (and frequently tie).
                ctx.timer(SimDuration::from_millis(1 + job.wrapping_mul(7919) % 200), job);
            }
        }

        fn on_timer(&mut self, ctx: &mut Ctx<'_, StormMsg>, _tag: u64) {
            ctx.send(self.driver, StormMsg::Done);
        }
    }

    /// Dispatches `total` jobs round-robin over the workers, keeping at
    /// most `window` in flight.
    struct Driver {
        workers: Vec<ActorId>,
        next_job: u64,
        total: u64,
        window: u64,
        done: Rc<Cell<u64>>,
    }

    impl Driver {
        fn dispatch(&mut self, ctx: &mut Ctx<'_, StormMsg>) {
            let job = self.next_job;
            self.next_job += 1;
            let to = self.workers[(job % self.workers.len() as u64) as usize];
            ctx.send(to, StormMsg::Submit { job });
        }
    }

    impl Actor<StormMsg> for Driver {
        fn on_start(&mut self, ctx: &mut Ctx<'_, StormMsg>) {
            for _ in 0..self.window.min(self.total) {
                self.dispatch(ctx);
            }
        }

        fn on_message(&mut self, ctx: &mut Ctx<'_, StormMsg>, _from: ActorId, msg: StormMsg) {
            if let StormMsg::Done = msg {
                self.done.set(self.done.get() + 1);
                if self.next_job < self.total {
                    self.dispatch(ctx);
                }
            }
        }
    }

    /// Outcome of one storm run.
    pub struct StormStats {
        pub machines: usize,
        pub jobs: u64,
        /// Kernel events dispatched (deliveries + timers).
        pub events: u64,
        pub wall_s: f64,
        pub events_per_sec: f64,
    }

    /// Runs `jobs` jobs over `machines` worker actors and measures
    /// wall-clock event throughput. Panics if any job is lost.
    pub fn run_event_storm(machines: usize, jobs: u64, seed: u64) -> StormStats {
        let mut cfg = WorldConfig::uniform(machines, 50, seed);
        cfg.obs = TracerConfig { enabled: false };
        let mut world: World<StormMsg> = World::new(cfg);
        let workers: Vec<ActorId> = (0..machines)
            .map(|m| {
                world.spawn(
                    Some(m as u32),
                    Box::new(Worker {
                        driver: ActorId::NONE,
                    }),
                )
            })
            .collect();
        let done = Rc::new(Cell::new(0u64));
        world.spawn(
            None,
            Box::new(Driver {
                workers,
                next_job: 0,
                total: jobs,
                window: 2_000,
                done: Rc::clone(&done),
            }),
        );
        let t0 = std::time::Instant::now();
        world.run_until(SimTime::MAX);
        let wall_s = t0.elapsed().as_secs_f64();
        assert_eq!(done.get(), jobs, "all jobs must complete");
        let events = world.events_processed();
        StormStats {
            machines,
            jobs,
            events,
            wall_s,
            events_per_sec: events as f64 / wall_s.max(1e-9),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_storm_completes_and_counts() {
        let s = sim_storm::run_event_storm(100, 2_000, 42);
        // ≥3 events per job: submit delivery, runtime timer, completion.
        assert!(s.events >= 3 * s.jobs, "{} events for {} jobs", s.events, s.jobs);
        let again = sim_storm::run_event_storm(100, 2_000, 42);
        assert_eq!(s.events, again.events, "same seed must process the same schedule");
    }

    #[test]
    fn synthetic_experiment_smoke() {
        // A tiny run must produce scheduling-time samples and utilization
        // series — the raw material of Fig 9 / Fig 10 / Table 2.
        let args = Args {
            scale: 0.005, // 25 machines, 5 concurrent jobs
            duration_s: 120,
            seed: 7,
            trace_out: None,
        };
        let out = run_synthetic_experiment(&args);
        let m = out.cluster.world.metrics();
        assert!(m.histogram("fm.sched_s").map(|h| h.count()).unwrap_or(0) > 10);
        assert!(!m.series("fm.planned_mem_mb").is_empty());
        assert!(!m.series("am.obtained_mem_mb").is_empty());
        assert!(out.stats.jobs_submitted >= 5);
    }
}
