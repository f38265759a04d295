//! Long-lived-runtime soak: far more actors than a process could ever hold
//! threads for come and go in ONE runtime, on its fixed pool. When each
//! actor was a thread and none was reaped before shutdown, every spawn left
//! a thread stack and a registry slot behind, and the process died near
//! 32 k spawns (`vm.max_map_count`).
//!
//! One test in this file on purpose: it reads process-wide `Threads:` and
//! `VmRSS:`, which tests running next to it in the same binary would move.
//! CI runs it at full size (`cargo test --release -p fuxi-rt`) under a
//! 60 s timeout, so a reintroduced leak fails fast instead of hanging.

use fuxi_rt::{LiveRuntime, RuntimeConfig};
use fuxi_sim::{Actor, ActorId, Ctx, KernelMsg};
use std::time::{Duration, Instant};

#[derive(Debug)]
struct Never;
impl KernelMsg for Never {
    fn flow_done(_: u64, _: bool) -> Self {
        Never
    }
}

/// Lives for exactly one `on_start`.
struct Mayfly;
impl Actor<Never> for Mayfly {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Never>) {
        ctx.metrics().count("soak.started", 1);
        ctx.kill_self();
    }
    fn on_message(&mut self, _: &mut Ctx<'_, Never>, _: ActorId, _: Never) {}
}

/// `Threads:` or `VmRSS:` (kB) of this process.
fn proc_status(key: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status
        .lines()
        .find(|l| l.starts_with(key))
        .expect("key in /proc/self/status");
    line.split_whitespace()
        .nth(1)
        .expect("value")
        .parse()
        .expect("number")
}

fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let start = Instant::now();
    while !cond() {
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "timed out waiting for {what}"
        );
        std::thread::sleep(Duration::from_micros(200));
    }
}

#[test]
fn a_hundred_thousand_actors_come_and_go_in_one_runtime() {
    // Three times past where the leak used to end the process; ~2 s in a
    // debug build, ~1 s in release.
    const ACTORS: u64 = 100_000;
    const WAVE: u64 = 64;

    let rt: LiveRuntime<Never> = LiveRuntime::new(RuntimeConfig::default());
    let base_threads = proc_status("Threads:"); // test harness + this test + clock + pool
    let base_rss_kb = proc_status("VmRSS:");
    let mut peak_threads = 0;
    let mut spawned = 0;
    while spawned < ACTORS {
        for _ in 0..WAVE.min(ACTORS - spawned) {
            rt.spawn(None, Box::new(Mayfly));
            spawned += 1;
        }
        peak_threads = peak_threads.max(proc_status("Threads:"));
        wait_until("the wave to be reaped", || {
            rt.metrics_snapshot().counter("rt.actors_reaped") == spawned
        });
    }
    assert!(
        peak_threads <= base_threads,
        "{peak_threads} threads at peak, {base_threads} before the first wave of {WAVE}: an actor got a thread"
    );
    let grown_kb = proc_status("VmRSS:").saturating_sub(base_rss_kb);
    assert!(
        grown_kb < 64 * 1024,
        "VmRSS grew {grown_kb} kB over {ACTORS} actors"
    );

    rt.record_mailbox_gauges();
    let live = rt.metrics_snapshot();
    assert_eq!(
        live.gauge("rt.actors_live"),
        0.0,
        "the registry holds live actors only"
    );
    assert_eq!(live.gauge("rt.mailbox_depth"), 0.0);
    let (metrics, _) = rt.shutdown();
    assert_eq!(metrics.counter("rt.actors_spawned"), ACTORS);
    assert_eq!(metrics.counter("rt.actors_reaped"), ACTORS);
    assert_eq!(
        metrics.counter("soak.started"),
        ACTORS,
        "a reaped actor's metrics were lost"
    );
    assert_eq!(metrics.gauge("rt.actors_live"), 0.0);
    assert_eq!(
        metrics.gauge("rt.mailbox_hwm"),
        1.0,
        "hwm outlives the actors that set it"
    );
}
