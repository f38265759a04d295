//! Isolated probes of single layers, timed from outside through public
//! functions only. A traced run executes the probes of the layers its
//! workload exercises; the others stay 0 in its output, which is the bypass
//! prediction made visible (`sim_synth` has no `rt.*`/`proto.wire.*`
//! numbers because no such code runs in it).
//!
//! Every probe takes the median of several short batches, so one scheduling
//! hiccup of the shared host does not decide the number.

use crate::jobs::{JobGen, JobKind};
use crate::layers::LayerSample;
use crate::stats;
use crate::wire_mix::{self, MixFrame};
use fuxi_apsara::{NameRegistry, StoreHandle};
use fuxi_core::quota::QuotaManager;
use fuxi_core::scheduler::{Engine, EngineConfig};
use fuxi_job::JobDesc;
use fuxi_node::{HubSupervisor, LeafConfig, LeafSupervisor};
use fuxi_proto::request::{RequestDelta, ScheduleUnitDef};
use fuxi_proto::topology::{MachineSpec, TopologyBuilder};
use fuxi_proto::wire::{Hello, HelloAck, RoutedMsg};
use fuxi_proto::{
    AppId, FrameType, MachineId, Msg, Priority, QuotaGroupId, ResourceVec, UnitId, PROTO_VERSION,
};
use fuxi_rt::mailbox::mailbox;
use fuxi_rt::{
    ChannelTransport, LiveRuntime, RuntimeConfig, TcpTransport, TimerWheel, Transport,
    TransportListener,
};
use fuxi_sim::{Actor, ActorId, Ctx, SimDuration, SimTime, TracerConfig, World, WorldConfig};
use std::hint::black_box;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Batches per probe; the median batch reports.
const BATCHES: usize = 5;

/// Median over `BATCHES` runs of `batch`, which returns its own per-op cost.
fn median_of(mut batch: impl FnMut() -> f64) -> f64 {
    let samples: Vec<f64> = (0..BATCHES).map(|_| batch()).collect();
    stats::median(&samples)
}

/// Runs the probes of `workload`'s layers. `errors` collects output-check
/// failures (a mix frame that does not round-trip, a lost probe message).
pub fn run(workload: &str, smoke: bool, errors: &mut Vec<String>) -> LayerSample {
    // Smoke runs shrink every batch; the numbers are then only a liveness
    // check of the probe code.
    let scale = if smoke { 20 } else { 1 };
    let mut s = LayerSample::new();
    sched(&mut s, scale);
    job_desc(&mut s, scale);
    if workload == "sim_synth" {
        kernel(&mut s, scale);
        return s;
    }
    mailbox_hop(&mut s, scale);
    runtime(&mut s, scale, errors);
    timer_wheel(&mut s, scale);
    if workload == "dist_null" {
        wire(&mut s, scale, errors);
        if let Err(e) = transports(&mut s, scale) {
            errors.push(format!("transport probe: {e}"));
        }
    }
    s
}

// ---------------------------------------------------------------------
// proto.wire
// ---------------------------------------------------------------------

fn wire(s: &mut LayerSample, scale: usize, errors: &mut Vec<String>) {
    // Each frame repeated by its weight: one pass over `frames` is 25.8
    // jobs' worth of traffic in the documented proportions.
    let frames: Vec<MixFrame> = wire_mix::mix()
        .into_iter()
        .flat_map(|(w, f)| std::iter::repeat_n(f, w as usize))
        .collect();
    let mut wire_errors = 0usize;
    let mut encoded = Vec::new();
    for f in &frames {
        match f.encode() {
            Ok(bytes) => {
                match MixFrame::decode(&bytes) {
                    Ok(back) if format!("{back:?}") == format!("{f:?}") => {}
                    _ => wire_errors += 1,
                }
                encoded.push(bytes);
            }
            Err(_) => wire_errors += 1,
        }
    }
    if wire_errors > 0 {
        errors.push(format!(
            "{wire_errors} frames of the wire mix did not round-trip"
        ));
    }
    let passes = (3 / scale).max(1);
    let n = (frames.len() * passes) as f64;
    let encode_ns = median_of(|| {
        let t = Instant::now();
        for _ in 0..passes {
            for f in &frames {
                wire_errors += usize::from(black_box(f.encode()).is_err());
            }
        }
        t.elapsed().as_nanos() as f64 / n
    });
    let decode_ns = median_of(|| {
        let t = Instant::now();
        for _ in 0..passes {
            for bytes in &encoded {
                wire_errors += usize::from(black_box(MixFrame::decode(bytes)).is_err());
            }
        }
        t.elapsed().as_nanos() as f64 / n
    });
    s.insert("proto.wire.encode_ns_per_msg", encode_ns);
    s.insert("proto.wire.decode_ns_per_msg", decode_ns);
    s.insert(
        "proto.wire.bytes_per_msg",
        encoded.iter().map(Vec::len).sum::<usize>() as f64 / encoded.len().max(1) as f64,
    );
    s.insert("proto.wire.errors", wire_errors as f64);
}

// ---------------------------------------------------------------------
// rt: mailbox, spawn, timers
// ---------------------------------------------------------------------

/// Two threads ping-pong one token through two mailboxes; a hop is one
/// push → pop across threads, wake-up included.
fn mailbox_hop(s: &mut LayerSample, scale: usize) {
    let round_trips = 20_000 / scale;
    let hop_ns = median_of(|| {
        let (to_b, b_rx, b_gauges) = mailbox::<u64>(8192);
        let (to_a, a_rx, a_gauges) = mailbox::<u64>(8192);
        let t = Instant::now();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                for v in b_rx {
                    b_gauges.on_pop();
                    to_a.push(v);
                }
            });
            for i in 0..round_trips as u64 {
                to_b.push(i);
                assert_eq!(a_rx.recv().ok(), Some(i), "token lost in the mailbox");
                a_gauges.on_pop();
            }
            drop(to_b);
        });
        t.elapsed().as_nanos() as f64 / (2 * round_trips) as f64
    });
    s.insert("rt.mailbox.hop_ns", hop_ns);
}

/// Reports its own start, then how late each of its timers fired.
struct TimerProbe {
    started: mpsc::Sender<()>,
    /// Delays to arm, ms; lateness (ms) of each goes out on `late`.
    delays_ms: Vec<u64>,
    late: mpsc::Sender<f64>,
    armed: Instant,
}

impl Actor<Msg> for TimerProbe {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let _ = self.started.send(());
        self.armed = Instant::now();
        for &d in &self.delays_ms {
            ctx.timer(SimDuration::from_millis(d), d);
        }
    }
    fn on_message(&mut self, _: &mut Ctx<'_, Msg>, _: ActorId, _: Msg) {}
    fn on_timer(&mut self, _: &mut Ctx<'_, Msg>, tag: u64) {
        let late = self.armed.elapsed().as_secs_f64() * 1e3 - tag as f64;
        let _ = self.late.send(late);
    }
}

/// `LiveRuntime::spawn` → `on_start` running on the new thread, and how
/// late an actor's timers fire (it arms *d*, observes *d′*).
fn runtime(s: &mut LayerSample, scale: usize, errors: &mut Vec<String>) {
    let rt: LiveRuntime<Msg> = LiveRuntime::new(RuntimeConfig {
        obs: TracerConfig {
            enabled: false,
            ..TracerConfig::default()
        },
        ..RuntimeConfig::default()
    });
    let (late_tx, late_rx) = mpsc::channel();
    let spawns = 200 / scale;
    let mut spawn_us = Vec::new();
    for _ in 0..spawns {
        let (tx, rx) = mpsc::channel();
        let t = Instant::now();
        rt.spawn(
            None,
            Box::new(TimerProbe {
                started: tx,
                delays_ms: Vec::new(),
                late: late_tx.clone(),
                armed: t,
            }),
        );
        match rx.recv_timeout(Duration::from_secs(5)) {
            Ok(()) => spawn_us.push(t.elapsed().as_secs_f64() * 1e6),
            Err(_) => errors.push("spawned actor never started".into()),
        }
    }
    s.insert("rt.spawn.actor_us", stats::median(&spawn_us));

    // 40 timers between 10 and 88 ms, odd and even ticks alike.
    let delays_ms: Vec<u64> = (0..40).map(|i| 10 + 2 * i).collect();
    let n = delays_ms.len();
    let (tx, _started) = mpsc::channel();
    rt.spawn(
        None,
        Box::new(TimerProbe {
            started: tx,
            delays_ms,
            late: late_tx,
            armed: Instant::now(),
        }),
    );
    let late: Vec<f64> = (0..n)
        .map_while(|_| late_rx.recv_timeout(Duration::from_secs(2)).ok())
        .collect();
    if late.len() < n {
        errors.push(format!(
            "{} of {n} probe timers never fired",
            n - late.len()
        ));
    }
    s.insert(
        "rt.timer.fire_lateness_ms_p50",
        stats::percentile(&late, 0.5),
    );
    rt.shutdown();
}

/// The wheel the clock thread owns: 512 slots at the runtime's 2 ms tick.
fn timer_wheel(s: &mut LayerSample, scale: usize) {
    let n = 100_000 / scale as u64;
    let mut arm_ns = Vec::new();
    let expire_ns = median_of(|| {
        let mut wheel: TimerWheel<u64> = TimerWheel::new(512, 2_000);
        let t = Instant::now();
        for i in 0..n {
            // Deadlines spread over two seconds, like heartbeat and
            // housekeeping timers of a busy cluster.
            wheel.arm(
                SimTime(0),
                SimDuration::from_micros(1 + (i * 7919) % 2_000_000),
                i,
            );
        }
        arm_ns.push(t.elapsed().as_nanos() as f64 / n as f64);
        let t = Instant::now();
        let mut fired = 0;
        let mut now_us = 0;
        while !wheel.is_empty() {
            now_us += 2_000;
            fired += black_box(wheel.expire(SimTime(now_us))).len() as u64;
        }
        assert_eq!(fired, n, "the wheel lost timers");
        t.elapsed().as_nanos() as f64 / n as f64
    });
    s.insert("rt.timer.arm_ns", stats::median(&arm_ns));
    s.insert("rt.timer.expire_ns", expire_ns);
}

// ---------------------------------------------------------------------
// rt.transport and node.hub
// ---------------------------------------------------------------------

fn heartbeat(from: ActorId, to: ActorId) -> RoutedMsg {
    RoutedMsg {
        from,
        to,
        msg: Msg::AgentHeartbeat {
            machine: MachineId(7),
            health: Default::default(),
        },
    }
}

/// Mean round trip, µs, of one `Msg` frame over a connected pair whose far
/// end echoes: encode → send → recv → decode, both ways.
fn echo_rtt_us(
    mut near: Box<dyn Transport>,
    mut far: Box<dyn Transport>,
    round_trips: usize,
) -> Result<f64, String> {
    let echo = std::thread::spawn(move || {
        while let Ok(Some(frame)) = far.recv() {
            if far.send(frame.frame_type, &frame.payload).is_err() {
                break;
            }
        }
    });
    let msg = heartbeat(ActorId(1), ActorId(2));
    let mut batch = || -> Result<f64, String> {
        let t = Instant::now();
        for _ in 0..round_trips {
            let payload =
                fuxi_proto::wire::encode_payload(PROTO_VERSION, &msg).map_err(|e| e.to_string())?;
            near.send(FrameType::Msg, &payload)
                .map_err(|e| e.to_string())?;
            let frame = near
                .recv()
                .map_err(|e| e.to_string())?
                .ok_or("echo closed")?;
            let back: RoutedMsg = fuxi_proto::wire::decode_payload(PROTO_VERSION, &frame.payload)
                .map_err(|e| e.to_string())?;
            black_box(back);
        }
        Ok(t.elapsed().as_secs_f64() * 1e6 / round_trips as f64)
    };
    let mut samples = Vec::new();
    for _ in 0..BATCHES {
        samples.push(batch()?);
    }
    let _ = near.send(FrameType::Bye, &[]);
    drop(near);
    let _ = echo.join();
    Ok(stats::median(&samples))
}

fn transports(s: &mut LayerSample, scale: usize) -> Result<(), String> {
    let round_trips = 2_000 / scale;
    let (a, b) = ChannelTransport::pair();
    s.insert(
        "rt.transport.channel_rtt_us",
        echo_rtt_us(Box::new(a), Box::new(b), round_trips)?,
    );

    let listener = TransportListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr();
    let accept = std::thread::spawn(move || {
        listener.accept_handshake(|_| {
            Ok(HelloAck {
                node: "probe-far".into(),
                names: Vec::new(),
                store: Vec::new(),
            })
        })
    });
    let hello = Hello {
        node: "probe-near".into(),
        node_index: 1,
        actor_base: ActorId::node_base(1),
        session_epoch: 1,
    };
    let (near, _ack) = TcpTransport::connect(addr, &hello).map_err(|e| e.to_string())?;
    let (far, _hello) = accept
        .join()
        .map_err(|_| "accept thread panicked")?
        .map_err(|e| e.to_string())?;
    let tcp_rtt_us = echo_rtt_us(Box::new(near), Box::new(far), round_trips)?;
    s.insert("rt.transport.tcp_rtt_us", tcp_rtt_us);

    let relay_rtt_us = relay_rtt_us(round_trips)?;
    // One way through the hub (two TCP hops, a routing decode, two writer
    // queues) minus one way over a direct connection.
    s.insert("node.hub.relay_added_us", (relay_rtt_us - tcp_rtt_us) / 2.0);
    Ok(())
}

/// Round trip leaf 1 → hub → leaf 2 → hub → leaf 1 through real
/// supervisors on loopback TCP.
fn relay_rtt_us(round_trips: usize) -> Result<f64, String> {
    type Routed = (ActorId, ActorId, Msg);
    let (at_a_tx, at_a) = mpsc::channel::<Routed>();
    let (at_b_tx, at_b) = mpsc::channel::<Routed>();
    let sink = |tx: mpsc::Sender<Routed>| -> fuxi_node::supervisor::Inject {
        let tx = std::sync::Mutex::new(tx);
        std::sync::Arc::new(move |from, to, msg| {
            let _ = tx.lock().expect("probe inject lock").send((from, to, msg));
        })
    };
    let hub = HubSupervisor::start(
        "127.0.0.1:0",
        "probe-hub",
        NameRegistry::new(),
        StoreHandle::new(),
        std::sync::Arc::new(|_, _, _| {}),
    )
    .map_err(|e| e.to_string())?;
    let addr = hub.addr().to_string();
    let leaf = |index: u32, inject| {
        LeafSupervisor::start(
            &addr,
            LeafConfig::new(&format!("probe-leaf-{index}"), index),
            NameRegistry::new(),
            StoreHandle::new(),
            inject,
        )
    };
    let (leaf_a, leaf_b) = (leaf(1, sink(at_a_tx)), leaf(2, sink(at_b_tx)));
    if !hub.wait_peers(2, Duration::from_secs(10)) {
        return Err("probe leaves never connected".into());
    }
    let (route_a, route_b) = (leaf_a.router(), leaf_b.router());
    // Leaf 2 sends everything straight back.
    std::thread::spawn(move || {
        for (from, to, msg) in at_b {
            route_b(to, from, msg);
        }
    });
    let (a, b) = (
        ActorId(ActorId::node_base(1) + 1),
        ActorId(ActorId::node_base(2) + 1),
    );
    let mut samples = Vec::new();
    for _ in 0..BATCHES {
        let t = Instant::now();
        for _ in 0..round_trips {
            route_a(a, b, heartbeat(a, b).msg);
            at_a.recv_timeout(Duration::from_secs(5))
                .map_err(|_| "relayed probe message lost")?;
        }
        samples.push(t.elapsed().as_secs_f64() * 1e6 / round_trips as f64);
    }
    leaf_a.sever();
    leaf_b.sever();
    Ok(stats::median(&samples))
}

// ---------------------------------------------------------------------
// core.sched: the isolated engine at 1,000 machines
// ---------------------------------------------------------------------

/// Exactly-full 1,000-machine cluster (24 cores / 96 GB, 48 × {0.5 CPU,
/// 2 GB} per machine), 1,000 apps with twice the capacity in demand; app 0
/// is the most urgent waiter, so a freed container comes straight back to
/// it — every iteration is one real decision (the Figure 9 cycle).
fn saturated_engine() -> Engine {
    let topo = TopologyBuilder::new()
        .uniform(
            20,
            50,
            MachineSpec {
                resources: ResourceVec::cores_mb(24, 96 * 1024),
                ..MachineSpec::default()
            },
        )
        .build();
    let cfg = EngineConfig {
        enable_priority_preemption: false,
        enable_quota_preemption: false,
        ..EngineConfig::default()
    };
    let mut e = Engine::new(topo, cfg, QuotaManager::new());
    let unit = ResourceVec::new(500, 2048);
    for a in 0..1000u32 {
        let prio = if a == 0 { Priority(1) } else { Priority(1000) };
        e.attach_app(
            AppId(a),
            QuotaGroupId(0),
            vec![ScheduleUnitDef::new(UnitId(0), prio, unit.clone())],
        );
        let want = if a == 0 { 1_000_000 } else { 96 };
        e.apply_deltas(AppId(a), &[RequestDelta::cluster(UnitId(0), want)]);
    }
    e.drain_events();
    e
}

fn sched(s: &mut LayerSample, scale: usize) {
    let n = 50_000 / scale as u32;
    let mut e = saturated_engine();
    let mut i = 0u32;
    let free_up_ns = median_of(|| {
        let t = Instant::now();
        for _ in 0..n {
            e.return_grant(AppId(0), UnitId(0), MachineId(i % 1000), 1);
            i += 1;
            black_box(e.drain_events());
        }
        t.elapsed().as_nanos() as f64 / f64::from(n)
    });
    let delta_ns = median_of(|| {
        let t = Instant::now();
        for _ in 0..n {
            let app = AppId(i % 1000);
            i += 1;
            e.apply_deltas(app, &[RequestDelta::cluster(UnitId(0), 1)]);
            e.apply_deltas(app, &[RequestDelta::cluster(UnitId(0), -1)]);
            black_box(e.drain_events());
        }
        t.elapsed().as_nanos() as f64 / f64::from(n)
    });
    s.insert("core.sched.free_up_ns", free_up_ns);
    s.insert("core.sched.delta_ns", delta_ns);
}

// ---------------------------------------------------------------------
// sim.kernel: bare event storm
// ---------------------------------------------------------------------

/// Passes a token to the next actor after a short timer; handlers do
/// nothing else, so wall time is the kernel's.
struct Storm {
    next: ActorId,
    hops_left: u64,
}

impl Actor<Msg> for Storm {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, _: ActorId, _: Msg) {
        if self.hops_left > 0 {
            self.hops_left -= 1;
            ctx.timer(
                SimDuration::from_micros(500 + u64::from(ctx.id().0) % 1_000),
                0,
            );
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, _: u64) {
        ctx.send(self.next, Msg::WorkerExit);
    }
}

fn kernel(s: &mut LayerSample, scale: usize) {
    let (actors, hops) = (1_000u32, 200 / scale as u64);
    let events_per_s = median_of(|| {
        let mut cfg = WorldConfig::uniform(actors as usize, 50, 7);
        cfg.obs = TracerConfig {
            enabled: false,
            ..TracerConfig::default()
        };
        let mut world: World<Msg> = World::new(cfg);
        // Ids are assigned in spawn order, so the ring is known up front.
        let ids: Vec<ActorId> = (0..actors)
            .map(|m| {
                world.spawn(
                    Some(m),
                    Box::new(Storm {
                        next: ActorId((m + 1) % actors),
                        hops_left: hops,
                    }),
                )
            })
            .collect();
        assert_eq!(ids[0], ActorId(0), "ring addressing assumes ids from 0");
        for id in &ids {
            world.send_external(*id, Msg::WorkerExit);
        }
        let t = Instant::now();
        world.run_until(SimTime::MAX);
        world.events_processed() as f64 / t.elapsed().as_secs_f64()
    });
    s.insert("sim.kernel.events_per_s", events_per_s);
}

// ---------------------------------------------------------------------
// job.desc
// ---------------------------------------------------------------------

fn job_desc(s: &mut LayerSample, scale: usize) {
    let n = 2_000 / scale;
    let desc = JobGen::new(2014, JobKind::Null).next_job();
    let json = desc.to_json();
    let to_json_us = median_of(|| {
        let t = Instant::now();
        for _ in 0..n {
            black_box(black_box(&desc).to_json());
        }
        t.elapsed().as_secs_f64() * 1e6 / n as f64
    });
    let parse_us = median_of(|| {
        let t = Instant::now();
        for _ in 0..n {
            black_box(JobDesc::parse(black_box(&json)).expect("own JSON parses"));
        }
        t.elapsed().as_secs_f64() * 1e6 / n as f64
    });
    s.insert("job.desc.to_json_us", to_json_us);
    s.insert("job.desc.parse_us", parse_us);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::PER_LAYER;

    /// The bypass predictions, as the probe sets: which layers report at
    /// all on which workload.
    #[test]
    fn probe_sets_follow_the_layers_each_workload_exercises() {
        let keys = |w: &str| {
            let mut errors = Vec::new();
            let s = run(w, true, &mut errors);
            assert!(errors.is_empty(), "{w}: {errors:?}");
            for (k, v) in &s {
                assert!(PER_LAYER.iter().any(|(n, ..)| n == k), "{k} undeclared");
                assert!(v.is_finite(), "{k} = {v}");
            }
            s
        };
        let sim = keys("sim_synth");
        assert!(
            sim.contains_key("sim.kernel.events_per_s")
                && sim.contains_key("core.sched.free_up_ns")
        );
        assert!(!sim
            .keys()
            .any(|k| k.starts_with("rt.") || k.starts_with("proto.") || k.starts_with("node.")));
        let live = keys("live_null");
        assert!(
            live.contains_key("rt.mailbox.hop_ns")
                && live.contains_key("rt.timer.fire_lateness_ms_p50")
        );
        assert!(!live
            .keys()
            .any(|k| k.starts_with("proto.") || k.starts_with("node.") || k.starts_with("sim.")));
        let dist = keys("dist_null");
        assert!(dist["proto.wire.bytes_per_msg"] > 1000.0 && dist["proto.wire.errors"] == 0.0);
        assert!(
            dist["rt.transport.tcp_rtt_us"] > 0.0 && dist.contains_key("node.hub.relay_added_us")
        );
    }
}
