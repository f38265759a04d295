//! The TaskWorker actor: a container process that registers with its
//! master and executes a stream of instances (container reuse,
//! Section 3.2.3: "once an application master receives a grant, it
//! explicitly controls its life-cycle and may reuse the container to run
//! multiple tasks").

use fuxi_agent::ProcMeta;
use fuxi_proto::msg::WorkerSpec;
use fuxi_proto::{FailReason, InstanceId, InstanceOutcome, InstanceWork, MachineId, Msg};
use fuxi_sim::{Actor, ActorId, Ctx, FlowKind, FlowSpec, SimDuration, SimTime, TraceId};

/// Worker tuning.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Progress-report cadence ("all TaskWorkers will periodically report
    /// their status including execution progresses").
    pub report_interval: SimDuration,
    /// Per-launch process startup cost (binary load, JVM/sandbox init)
    /// charged before the worker registers with its master. Zero by
    /// default; the container-reuse ablation sets it to expose the cost
    /// a launch-per-task (YARN-style) policy pays on every instance.
    pub startup_overhead_s: f64,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        Self {
            report_interval: SimDuration::from_secs(10),
            startup_overhead_s: 0.0,
        }
    }
}

const TIMER_REPORT: u64 = 1;
/// Fires once when a configured process-startup overhead elapses.
const TIMER_STARTUP: u64 = 2;
/// Compute completion timers carry the execution generation in the low
/// bits so stale timers from an aborted instance are ignored. (The write
/// phase needs none: its `FlowDone` drives it.)
const TIMER_COMPUTE_BASE: u64 = 1 << 32;

#[derive(Debug)]
enum Phase {
    /// Fetching remote/local inputs: remaining reads and in-flight count.
    Fetching { remaining: Vec<(MachineId, f64)>, active: u32 },
    Computing,
    Writing,
}

#[derive(Debug)]
struct Exec {
    instance: InstanceId,
    attempt: u32,
    work: InstanceWork,
    started: SimTime,
    phase: Phase,
}

/// Worker actor address.
pub struct TaskWorker {
    /// What the worker was launched with. `spec.master` is where it reports
    /// *now*: a restarted JobMaster's status query moves it.
    spec: WorkerSpec,
    cfg: WorkerConfig,
    current: Option<Exec>,
    /// Bumped on every assignment/abort; embedded in timers and flow tags.
    generation: u64,
    /// Last result, re-sent on report ticks until a new assignment
    /// implicitly acknowledges it (repairs lossy-network drops).
    unacked: Option<Msg>,
    ever_assigned: bool,
    /// The job's causal trace, captured at spawn (the agent launches the
    /// worker under it); re-pinned on timers so completion reports that
    /// fire from compute/flow timers stay on the chain.
    trace: TraceId,
}

impl TaskWorker {
    /// From spec.
    pub fn from_spec(spec: &WorkerSpec, cfg: WorkerConfig) -> Self {
        Self {
            spec: spec.clone(),
            cfg,
            current: None,
            generation: 0,
            unacked: None,
            ever_assigned: false,
            trace: TraceId::NONE,
        }
    }

    fn machine(&self, ctx: &Ctx<'_, Msg>) -> u32 {
        ctx.self_machine().expect("workers are placed on machines")
    }

    fn begin(&mut self, ctx: &mut Ctx<'_, Msg>, instance: InstanceId, attempt: u32, work: InstanceWork) {
        self.generation += 1;
        let my_machine = self.machine(ctx);
        let use_flows = work.use_flows && !work.reads.is_empty();
        let exec = Exec {
            instance,
            attempt,
            work: work.clone(),
            started: ctx.now(),
            phase: if use_flows {
                Phase::Fetching {
                    remaining: work.reads.clone(),
                    active: 0,
                }
            } else {
                Phase::Computing
            },
        };
        self.current = Some(exec);
        if use_flows {
            self.pump_fetches(ctx, my_machine);
        } else {
            // Synthetic mode: everything is folded into compute time.
            self.arm_compute(ctx);
        }
    }

    fn arm_compute(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let speed = ctx.machine_speed(self.machine(ctx)).max(1e-3);
        let exec = self.current.as_mut().expect("executing");
        exec.phase = Phase::Computing;
        let d = SimDuration::from_secs_f64(exec.work.compute_s / speed);
        ctx.timer(d, TIMER_COMPUTE_BASE | self.generation);
    }

    fn pump_fetches(&mut self, ctx: &mut Ctx<'_, Msg>, my_machine: u32) {
        let gen = self.generation;
        let Some(exec) = self.current.as_mut() else {
            return;
        };
        let fanout = exec.work.fetch_fanout.max(1);
        let mut to_start = Vec::new();
        if let Phase::Fetching { remaining, active } = &mut exec.phase {
            while *active < fanout {
                let Some((src, size_mb)) = remaining.pop() else {
                    break;
                };
                *active += 1;
                to_start.push((src, size_mb));
            }
            if to_start.is_empty() && *active == 0 {
                // Nothing left to fetch: move on to compute.
                self.arm_compute(ctx);
                return;
            }
        }
        for (src, size_mb) in to_start {
            let kind = if src.0 == my_machine {
                ctx.metrics().count("worker.local_reads", 1);
                FlowKind::DiskRead { machine: my_machine }
            } else {
                ctx.metrics().count("worker.remote_reads", 1);
                FlowKind::RemoteRead {
                    src: src.0,
                    dst: my_machine,
                }
            };
            ctx.start_flow(FlowSpec {
                kind,
                size_mb,
                tag: gen,
            });
        }
    }

    fn finish(&mut self, ctx: &mut Ctx<'_, Msg>, outcome: InstanceOutcome) {
        let Some(exec) = self.current.take() else {
            return;
        };
        self.generation += 1; // invalidate stale timers/flows
        ctx.cancel_own_flows();
        let runtime = ctx.now().since(exec.started).as_secs_f64();
        let msg = Msg::InstanceFinished {
            worker: self.spec.worker,
            instance: exec.instance,
            attempt: exec.attempt,
            outcome,
            runtime_s: runtime,
        };
        self.unacked = Some(msg.clone());
        ctx.send(self.spec.master, msg);
    }

    fn progress(&self, now: SimTime) -> f64 {
        let Some(exec) = &self.current else {
            return 0.0;
        };
        let elapsed = now.since(exec.started).as_secs_f64();
        let expected = exec.work.compute_s.max(0.001);
        (elapsed / expected).min(0.99)
    }
}

impl TaskWorker {
    /// The process is up: appear in the machine's process table (so a
    /// restarted agent can adopt this worker, Section 4.3.1) and register
    /// with the master.
    fn come_online(&mut self, ctx: &mut Ctx<'_, Msg>) {
        ctx.register_proc(ProcMeta::Worker(self.spec.clone()).encode());
        let machine = MachineId(self.machine(ctx));
        ctx.send(
            self.spec.master,
            Msg::WorkerRegister {
                app: self.spec.app,
                worker: self.spec.worker,
                machine,
            },
        );
        ctx.timer(self.cfg.report_interval, TIMER_REPORT);
    }
}

impl Actor<Msg> for TaskWorker {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        self.trace = ctx.trace_id();
        if self.cfg.startup_overhead_s > 0.0 {
            // Charge process startup before the worker becomes visible:
            // registration (and hence the first assignment) waits it out.
            let speed = ctx.machine_speed(self.machine(ctx)).max(1e-3);
            let d = SimDuration::from_secs_f64(self.cfg.startup_overhead_s / speed);
            ctx.timer(d, TIMER_STARTUP);
        } else {
            self.come_online(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: ActorId, msg: Msg) {
        if self.trace.is_some() {
            ctx.set_trace(self.trace);
        }
        match msg {
            Msg::AssignInstance {
                instance,
                attempt,
                work,
            } => {
                // A new assignment acknowledges any previous result.
                self.unacked = None;
                self.ever_assigned = true;
                if self.current.is_some() {
                    // Already busy (stale assignment after a race): refuse.
                    ctx.send(
                        self.spec.master,
                        Msg::InstanceFinished {
                            worker: self.spec.worker,
                            instance,
                            attempt,
                            outcome: InstanceOutcome::Failed(FailReason::Killed),
                            runtime_s: 0.0,
                        },
                    );
                    return;
                }
                self.begin(ctx, instance, attempt, work);
            }
            Msg::KillInstance { instance, attempt } => {
                let matches = self
                    .current
                    .as_ref()
                    .map(|e| e.instance == instance && e.attempt == attempt)
                    .unwrap_or(false);
                if matches {
                    self.finish(ctx, InstanceOutcome::Failed(FailReason::Killed));
                }
            }
            Msg::WorkerExit => {
                ctx.kill_self();
            }
            Msg::WorkerStatusQuery => {
                let running = self
                    .current
                    .as_ref()
                    .map(|e| (e.instance, e.attempt, self.progress(ctx.now())));
                let machine = MachineId(self.machine(ctx));
                ctx.send(
                    from,
                    Msg::WorkerStatusReply {
                        app: self.spec.app,
                        worker: self.spec.worker,
                        machine,
                        running,
                    },
                );
                // A status query comes from a restarted JobMaster: report
                // there from now on.
                self.spec.master = from;
            }
            Msg::FlowDone { tag, failed } => {
                if tag != self.generation {
                    return; // stale flow from an aborted instance
                }
                if failed {
                    self.finish(ctx, InstanceOutcome::Failed(FailReason::IoError));
                    return;
                }
                let my_machine = self.machine(ctx);
                let mut all_fetched = false;
                let mut write_done = false;
                match self.current.as_mut().map(|e| &mut e.phase) {
                    Some(Phase::Fetching { remaining, active }) => {
                        *active -= 1;
                        if remaining.is_empty() && *active == 0 {
                            all_fetched = true;
                        }
                    }
                    Some(Phase::Writing) => write_done = true,
                    _ => {}
                }
                if write_done {
                    self.finish(ctx, InstanceOutcome::Success);
                } else if all_fetched {
                    self.arm_compute(ctx);
                } else {
                    self.pump_fetches(ctx, my_machine);
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, tag: u64) {
        if self.trace.is_some() {
            ctx.set_trace(self.trace);
        }
        match tag {
            TIMER_STARTUP => {
                ctx.metrics().count("worker.startups_charged", 1);
                self.come_online(ctx);
            }
            TIMER_REPORT => {
                if let Some(exec) = &self.current {
                    let p = self.progress(ctx.now());
                    ctx.send(
                        self.spec.master,
                        Msg::InstanceReport {
                            worker: self.spec.worker,
                            instance: exec.instance,
                            attempt: exec.attempt,
                            progress: p,
                        },
                    );
                } else if let Some(msg) = self.unacked.clone() {
                    // The result may have been lost in transit; repeat it
                    // (the master handles duplicates idempotently).
                    ctx.send(self.spec.master, msg);
                } else if !self.ever_assigned {
                    // Registration may have been lost; repeat it.
                    let machine = MachineId(self.machine(ctx));
                    ctx.send(
                        self.spec.master,
                        Msg::WorkerRegister {
                            app: self.spec.app,
                            worker: self.spec.worker,
                            machine,
                        },
                    );
                }
                ctx.timer(self.cfg.report_interval, TIMER_REPORT);
            }
            t if t & TIMER_COMPUTE_BASE != 0 && (t & 0xFFFF_FFFF) == (self.generation & 0xFFFF_FFFF) => {
                // Compute finished; write output if modelled, else done.
                let (use_flows, write_mb) = self
                    .current
                    .as_ref()
                    .map(|e| (e.work.use_flows, e.work.write_mb))
                    .unwrap_or((false, 0.0));
                if use_flows && write_mb > 0.0 {
                    let m = self.machine(ctx);
                    if let Some(e) = self.current.as_mut() {
                        e.phase = Phase::Writing;
                    }
                    ctx.start_flow(FlowSpec {
                        kind: FlowKind::DiskWrite { machine: m },
                        size_mb: write_mb,
                        tag: self.generation,
                    });
                } else {
                    self.finish(ctx, InstanceOutcome::Success);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuxi_proto::{AppId, ResourceVec, UnitId, WorkerId};
    use fuxi_sim::{World, WorldConfig};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Shared `(time, message)` log of everything a master hears.
    type MsgLog = Rc<RefCell<Vec<(f64, Msg)>>>;

    /// Records everything a master would hear from its worker.
    struct StubMaster {
        log: MsgLog,
    }
    impl Actor<Msg> for StubMaster {
        fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, _from: ActorId, msg: Msg) {
            self.log.borrow_mut().push((ctx.now().as_secs_f64(), msg));
        }
    }

    fn setup() -> (World<Msg>, ActorId, ActorId, MsgLog) {
        let mut w: World<Msg> = World::new(WorldConfig::uniform(4, 2, 5));
        let log = Rc::new(RefCell::new(Vec::new()));
        let master = w.spawn(Some(0), Box::new(StubMaster { log: log.clone() }));
        let spec = WorkerSpec {
            app: AppId(1),
            worker: WorkerId(7),
            unit: UnitId(0),
            limit: ResourceVec::new(500, 2048),
            binary_mb: 0.0,
            master,
            usage_factor: 0.4,
        };
        let worker = w.spawn(
            Some(2),
            Box::new(TaskWorker::from_spec(&spec, WorkerConfig::default())),
        );
        (w, worker, master, log)
    }

    /// First-delivery view of results (the worker re-sends unacked results
    /// on report ticks until a new assignment acknowledges them, so a stub
    /// master that never reassigns sees duplicates — dedupe here).
    fn finished(log: &[(f64, Msg)]) -> Vec<(f64, InstanceId, u32, InstanceOutcome)> {
        let mut seen = std::collections::BTreeSet::new();
        log.iter()
            .filter_map(|(t, m)| match m {
                Msg::InstanceFinished {
                    instance,
                    attempt,
                    outcome,
                    ..
                } if seen.insert((*instance, *attempt)) => {
                    Some((*t, *instance, *attempt, *outcome))
                }
                _ => None,
            })
            .collect()
    }

    #[test]
    fn registers_then_executes_synthetic_instance() {
        let (mut w, worker, _master, log) = setup();
        w.run_until(fuxi_sim::SimTime::from_secs(1));
        assert!(
            log.borrow()
                .iter()
                .any(|(_, m)| matches!(m, Msg::WorkerRegister { worker: WorkerId(7), .. })),
            "worker registers on start"
        );
        w.send_external(
            worker,
            Msg::AssignInstance {
                instance: InstanceId::new(fuxi_proto::TaskId(0), 3),
                attempt: 0,
                work: InstanceWork {
                    compute_s: 10.0,
                    ..Default::default()
                },
            },
        );
        w.run_until(fuxi_sim::SimTime::from_secs(30));
        let fin = finished(&log.borrow());
        assert_eq!(fin.len(), 1);
        assert_eq!(fin[0].1.index, 3);
        assert!(matches!(fin[0].3, InstanceOutcome::Success));
        assert!((fin[0].0 - 11.0).abs() < 1.5, "ran ~10s: {}", fin[0].0);
    }

    #[test]
    fn slow_machine_stretches_compute() {
        let (mut w, worker, _master, log) = setup();
        w.set_machine_speed(2, 0.5);
        w.send_external(
            worker,
            Msg::AssignInstance {
                instance: InstanceId::new(fuxi_proto::TaskId(0), 0),
                attempt: 0,
                work: InstanceWork {
                    compute_s: 10.0,
                    ..Default::default()
                },
            },
        );
        w.run_until(fuxi_sim::SimTime::from_secs(60));
        let fin = finished(&log.borrow());
        assert_eq!(fin.len(), 1);
        assert!((fin[0].0 - 21.0).abs() < 2.0, "10s at half speed: {}", fin[0].0);
    }

    #[test]
    fn kill_instance_aborts_and_reports_killed() {
        let (mut w, worker, _master, log) = setup();
        let inst = InstanceId::new(fuxi_proto::TaskId(0), 0);
        w.send_external(
            worker,
            Msg::AssignInstance {
                instance: inst,
                attempt: 2,
                work: InstanceWork {
                    compute_s: 100.0,
                    ..Default::default()
                },
            },
        );
        w.at(fuxi_sim::SimTime::from_secs(5), move |w| {
            w.send_external(worker, Msg::KillInstance { instance: inst, attempt: 2 });
        });
        w.run_until(fuxi_sim::SimTime::from_secs(20));
        let fin = finished(&log.borrow());
        assert_eq!(fin.len(), 1);
        assert!(matches!(
            fin[0].3,
            InstanceOutcome::Failed(FailReason::Killed)
        ));
        assert!(fin[0].0 < 7.0, "aborted at ~5s, not 100s");
    }

    #[test]
    fn stale_kill_for_other_attempt_is_ignored() {
        let (mut w, worker, _master, log) = setup();
        let inst = InstanceId::new(fuxi_proto::TaskId(0), 0);
        w.send_external(
            worker,
            Msg::AssignInstance {
                instance: inst,
                attempt: 1,
                work: InstanceWork {
                    compute_s: 5.0,
                    ..Default::default()
                },
            },
        );
        // Kill names attempt 0 — must not touch the running attempt 1.
        w.send_external(worker, Msg::KillInstance { instance: inst, attempt: 0 });
        w.run_until(fuxi_sim::SimTime::from_secs(20));
        let fin = finished(&log.borrow());
        assert_eq!(fin.len(), 1);
        assert!(matches!(fin[0].3, InstanceOutcome::Success));
    }

    #[test]
    fn data_driven_instance_moves_real_flows() {
        let (mut w, worker, _master, log) = setup();
        w.send_external(
            worker,
            Msg::AssignInstance {
                instance: InstanceId::new(fuxi_proto::TaskId(0), 0),
                attempt: 0,
                work: InstanceWork {
                    compute_s: 1.0,
                    reads: vec![(MachineId(1), 250.0), (MachineId(2), 1200.0)],
                    write_mb: 1200.0,
                    use_flows: true,
                    fetch_fanout: 4,
                },
            },
        );
        w.run_until(fuxi_sim::SimTime::from_secs(60));
        let fin = finished(&log.borrow());
        assert_eq!(fin.len(), 1);
        assert!(matches!(fin[0].3, InstanceOutcome::Success));
        // remote 250MB at 250MB/s NIC ≈ 1s; local 1200MB disk ≈ 1s;
        // compute 1s; write 1200MB ≈ 1s → ≥ 3s total, well under 60.
        assert!(fin[0].0 > 2.0 && fin[0].0 < 20.0, "t = {}", fin[0].0);
        assert!(w.metrics().counter("flow.started") >= 3);
    }

    #[test]
    fn source_machine_death_fails_instance_with_io_error() {
        let (mut w, worker, _master, log) = setup();
        w.send_external(
            worker,
            Msg::AssignInstance {
                instance: InstanceId::new(fuxi_proto::TaskId(0), 0),
                attempt: 0,
                work: InstanceWork {
                    compute_s: 1.0,
                    reads: vec![(MachineId(1), 100_000.0)],
                    write_mb: 0.0,
                    use_flows: true,
                    fetch_fanout: 2,
                },
            },
        );
        w.at(fuxi_sim::SimTime::from_secs(5), |w| w.kill_machine(1));
        w.run_until(fuxi_sim::SimTime::from_secs(30));
        let fin = finished(&log.borrow());
        assert_eq!(fin.len(), 1);
        assert!(matches!(
            fin[0].3,
            InstanceOutcome::Failed(FailReason::IoError)
        ));
    }

    #[test]
    fn status_query_reports_running_instance_and_rehomes() {
        let (mut w, worker, _master, _log) = setup();
        w.send_external(
            worker,
            Msg::AssignInstance {
                instance: InstanceId::new(fuxi_proto::TaskId(0), 9),
                attempt: 1,
                work: InstanceWork {
                    compute_s: 100.0,
                    ..Default::default()
                },
            },
        );
        w.run_until(fuxi_sim::SimTime::from_secs(10));
        // A "restarted JobMaster" queries the worker and must receive the
        // running attempt (the worker rehomes its reporting to the asker).
        struct AskingMaster {
            target: ActorId,
            log: Rc<RefCell<Vec<Msg>>>,
        }
        impl Actor<Msg> for AskingMaster {
            fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
                ctx.send(self.target, Msg::WorkerStatusQuery);
            }
            fn on_message(&mut self, _: &mut Ctx<'_, Msg>, _: ActorId, msg: Msg) {
                self.log.borrow_mut().push(msg);
            }
        }
        let replies = Rc::new(RefCell::new(Vec::new()));
        w.spawn(
            Some(1),
            Box::new(AskingMaster {
                target: worker,
                log: replies.clone(),
            }),
        );
        w.run_until(fuxi_sim::SimTime::from_secs(15));
        let replies = replies.borrow();
        let reply = replies
            .iter()
            .find_map(|m| match m {
                Msg::WorkerStatusReply { running, .. } => Some(*running),
                _ => None,
            })
            .expect("worker answers status queries");
        let (inst, attempt, progress) = reply.expect("instance is running");
        assert_eq!(inst.index, 9);
        assert_eq!(attempt, 1);
        assert!(progress > 0.0 && progress < 1.0);
    }
}
