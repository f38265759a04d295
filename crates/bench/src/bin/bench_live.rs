//! Live-runtime throughput benchmark: stands up a full Fuxi stack on OS
//! threads (`fuxi-rt`), streams synthetic jobs through it, kills the
//! primary FuxiMaster mid-run, and writes `BENCH_live.json` with
//! jobs/sec, messages/sec, and scheduling-decision latency percentiles.
//!
//! Usage:
//! ```text
//! cargo run --release -p fuxi-bench --bin bench_live -- \
//!     [--machines 200] [--jobs 1000] [--seed 2014] [--concurrent 64] \
//!     [--timeout 600] [--out BENCH_live.json] [--no-kill] \
//!     [--serve 127.0.0.1:9464] [--snapshot-out BENCH_live_view.json]
//! ```
//!
//! `--serve` exposes the live cluster view over HTTP mid-run (`/metrics`
//! Prometheus text, `/json`) for scraping and `fuxitop`. The output JSON
//! embeds three cluster-view summaries — pre-kill, during failover, and
//! post-recovery — and the final full view is written to
//! `--snapshot-out`.
//!
//! `--distributed` runs the same failover story across real OS processes:
//! the driver becomes the hub node (lock service + client) of a
//! [`fuxi_cluster::DeployTopology`] and re-executes itself three times —
//! master A, master B (standby), agent fleet — each child a `LiveNode`
//! dialing back over the versioned wire protocol. Once the pipeline is
//! warm the driver SIGKILLs the child hosting the elected master, then
//! asserts the standby (in the *other* OS process) takes over, every job
//! still reaches a terminal state exactly once, and the surviving
//! master's `/metrics` + `/json` scrape endpoints answer cross-process.
//! Results go to `--out` and a failover flight dump to `--snapshot-out`
//! (default `BENCH_live_failover.json` in this mode).
//!
//! Exits non-zero when the run does not complete every job, when the
//! standby fails to take over after the master kill, when the kill raises
//! no SLO alert (the 4 s pending-age rule must trip during the grant
//! stall; single-process mode only), or on any actor panic (propagated at
//! shutdown).

use fuxi_bench::json::{fixed, obj, render, text, uint, Value};
use fuxi_cluster::{ClusterConfig, DeployTopology, SubmitOpts};
use fuxi_core::master::MasterConfig;
use fuxi_node::LiveNode;
use fuxi_rt::LiveCluster;
use fuxi_sim::SimDuration;
use fuxi_workloads::mapreduce::{wordcount_job, MapReduceParams};
use std::io::{BufRead, BufReader, Read, Write};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

struct LiveArgs {
    machines: usize,
    jobs: usize,
    seed: u64,
    concurrent: usize,
    timeout_s: u64,
    out: String,
    kill_master: bool,
    serve: Option<String>,
    snapshot_out: String,
    distributed: bool,
    dist_node: Option<usize>,
    dist_hub: Option<String>,
}

fn parse_args() -> LiveArgs {
    let argv: Vec<String> = std::env::args().collect();
    // Distributed defaults are sized for a CI smoke run (<60 s): fewer
    // machines, fewer (and smaller) jobs, and the flight dump replaces
    // the cluster-view snapshot as the side artifact.
    let distributed = argv.iter().any(|a| a == "--distributed");
    let mut a = if distributed {
        LiveArgs {
            machines: 12,
            jobs: 32,
            seed: 2014,
            concurrent: 8,
            timeout_s: 120,
            out: "BENCH_live.json".to_owned(),
            kill_master: true,
            serve: None,
            snapshot_out: "BENCH_live_failover.json".to_owned(),
            distributed: true,
            dist_node: None,
            dist_hub: None,
        }
    } else {
        LiveArgs {
            machines: 200,
            jobs: 1000,
            seed: 2014,
            concurrent: 64,
            timeout_s: 600,
            out: "BENCH_live.json".to_owned(),
            kill_master: true,
            serve: None,
            snapshot_out: "BENCH_live_view.json".to_owned(),
            distributed: false,
            dist_node: None,
            dist_hub: None,
        }
    };
    let mut i = 1;
    while i < argv.len() {
        let num = |j: usize| argv.get(j).and_then(|v| v.parse::<u64>().ok());
        match argv[i].as_str() {
            "--machines" => {
                a.machines = num(i + 1).map_or(a.machines, |v| v as usize);
                i += 2;
            }
            "--jobs" => {
                a.jobs = num(i + 1).map_or(a.jobs, |v| v as usize);
                i += 2;
            }
            "--seed" => {
                a.seed = num(i + 1).unwrap_or(a.seed);
                i += 2;
            }
            "--concurrent" => {
                a.concurrent = num(i + 1).map_or(a.concurrent, |v| v as usize);
                i += 2;
            }
            "--timeout" => {
                a.timeout_s = num(i + 1).unwrap_or(a.timeout_s);
                i += 2;
            }
            "--out" => {
                a.out = argv.get(i + 1).cloned().unwrap_or(a.out);
                i += 2;
            }
            "--no-kill" => {
                a.kill_master = false;
                i += 1;
            }
            "--serve" => {
                a.serve = argv.get(i + 1).cloned();
                i += 2;
            }
            "--snapshot-out" => {
                a.snapshot_out = argv.get(i + 1).cloned().unwrap_or(a.snapshot_out);
                i += 2;
            }
            "--distributed" => {
                i += 1; // pre-scanned above
            }
            "--dist-node" => {
                a.dist_node = num(i + 1).map(|v| v as usize);
                i += 2;
            }
            "--dist-hub" => {
                a.dist_hub = argv.get(i + 1).cloned();
                i += 2;
            }
            other => {
                eprintln!("ignoring unknown argument {other}");
                i += 1;
            }
        }
    }
    a
}

/// A small job so a thousand of them finish in CI time: 6 maps, 2
/// reduces, ~60 ms instances, a few MB of binary to keep the package
/// flow path exercised without dominating wall time.
fn live_job(seed: u64, i: usize) -> fuxi_job::JobDesc {
    wordcount_job(&MapReduceParams {
        maps: 6,
        reduces: 2,
        map_duration_s: 0.06,
        reduce_duration_s: 0.06,
        jitter: 0.2,
        max_workers: 4,
        binary_mb: 4.0,
        map_output_mb: 1.0,
        output_file: Some(format!("pangu://live/out-{seed}-{i}")),
        ..Default::default()
    })
}

/// Cluster config every process of a `--distributed` run computes
/// independently: it must be a pure function of (machines, seed) because
/// actor addressing derives from the topology, never from negotiation.
/// Tight failover clocks (1.5 s lease, 0.5 s keepalive) keep the SIGKILL
/// takeover inside a CI smoke budget.
fn dist_config(machines: usize, seed: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig {
        n_machines: machines,
        rack_size: 4.min(machines.max(1)),
        seed,
        ..ClusterConfig::default()
    };
    cfg.master.lease_ttl = SimDuration::from_secs_f64(1.5);
    cfg.master.keepalive_interval = SimDuration::from_secs_f64(0.5);
    cfg
}

/// Small jobs for the distributed smoke: 2 maps, 1 reduce, ~50 ms tasks.
fn dist_job(seed: u64, i: usize) -> fuxi_job::JobDesc {
    wordcount_job(&MapReduceParams {
        maps: 2,
        reduces: 1,
        map_duration_s: 0.05,
        reduce_duration_s: 0.05,
        jitter: 0.2,
        max_workers: 2,
        binary_mb: 1.0,
        map_output_mb: 0.2,
        output_file: Some(format!("pangu://dist/out-{seed}-{i}")),
        ..Default::default()
    })
}

/// Child-process mode (`--dist-node N --dist-hub ADDR`): boot one leaf
/// node of the distributed topology and run until the driver kills us or
/// our stdin pipe closes (orphan protection if the driver dies first).
fn run_dist_child(index: usize, hub: &str, machines: usize, seed: u64) -> ! {
    let deploy = DeployTopology::distributed(dist_config(machines, seed), hub);
    let name = deploy.nodes[index].name.clone();
    let node = match LiveNode::boot(deploy, index, Some(hub)) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("bench_live[{name}]: boot failed: {e}");
            std::process::exit(1);
        }
    };
    // Serve this process's metrics plane on an ephemeral port and tell
    // the driver where, so it can prove the scrape works cross-process.
    match node.serve_metrics("127.0.0.1:0") {
        Ok(bound) => {
            println!("DIST-METRICS {index} {bound}");
            let _ = std::io::stdout().flush();
        }
        Err(e) => eprintln!("bench_live[{name}]: metrics bind failed: {e}"),
    }
    // Block on stdin: EOF means the driver is gone. SIGKILL never reaches
    // this line — that is the point of the failover drill.
    let mut buf = [0u8; 64];
    loop {
        match std::io::stdin().read(&mut buf) {
            Ok(0) | Err(_) => std::process::exit(0),
            Ok(_) => {}
        }
    }
}

fn kill_children(children: &mut [Option<Child>]) {
    for c in children.iter_mut().flatten() {
        let _ = c.kill();
        let _ = c.wait();
    }
}

/// Minimal blocking HTTP GET against a scrape endpoint (status line +
/// full body; the server closes the connection after one response).
fn http_get(addr: &str, path: &str) -> std::io::Result<String> {
    let mut s = std::net::TcpStream::connect(addr)?;
    s.set_read_timeout(Some(Duration::from_secs(5)))?;
    write!(s, "GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n")?;
    let mut out = String::new();
    s.read_to_string(&mut out)?;
    Ok(out)
}

fn fail_distributed(children: &mut [Option<Child>], msg: &str) -> ! {
    kill_children(children);
    eprintln!("bench_live[distributed]: FAIL — {msg}");
    std::process::exit(1);
}

/// Driver mode (`--distributed`): this process is the hub node (lock
/// service + submitting client); masters and agents live in SIGKILL-able
/// child processes connected over the versioned wire protocol.
fn run_distributed(args: &LiveArgs) {
    let exe = std::env::current_exe().expect("current_exe");
    let deploy = DeployTopology::distributed(dist_config(args.machines, args.seed), "127.0.0.1:0");
    let n_leaves = deploy.nodes.len() - 1;
    let mut hub = LiveNode::boot(deploy.clone(), 0, None).expect("hub boots");
    let hub_addr = hub.hub_addr().expect("hub bound").to_string();
    eprintln!(
        "bench_live[distributed]: hub (lock+client) pid {} listening on {hub_addr}; \
         {} machines, {} jobs ({} in flight)",
        std::process::id(),
        args.machines,
        args.jobs,
        args.concurrent
    );
    if let Some(addr) = &args.serve {
        let bound = hub.serve_metrics(addr).expect("bind scrape endpoint");
        eprintln!("bench_live[distributed]: hub metrics on http://{bound}/metrics");
    }

    // Child i's metrics endpoint, reported over its stdout pipe.
    let metrics_addrs: Arc<Mutex<Vec<Option<String>>>> =
        Arc::new(Mutex::new(vec![None; deploy.nodes.len()]));
    let mut children: Vec<Option<Child>> = Vec::new();
    for i in 1..deploy.nodes.len() {
        let child = Command::new(&exe)
            .args([
                "--dist-node",
                &i.to_string(),
                "--dist-hub",
                &hub_addr,
                "--machines",
                &args.machines.to_string(),
                "--seed",
                &args.seed.to_string(),
            ])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn();
        let mut child = match child {
            Ok(c) => c,
            Err(e) => fail_distributed(&mut children, &format!("spawning node {i}: {e}")),
        };
        let out = child.stdout.take().expect("piped stdout");
        let map = Arc::clone(&metrics_addrs);
        std::thread::spawn(move || {
            for line in BufReader::new(out).lines().map_while(Result::ok) {
                if let Some(rest) = line.strip_prefix("DIST-METRICS ") {
                    if let Some((idx, addr)) = rest.split_once(' ') {
                        if let Ok(idx) = idx.parse::<usize>() {
                            if let Some(slot) = map.lock().unwrap().get_mut(idx) {
                                *slot = Some(addr.trim().to_owned());
                            }
                        }
                    }
                }
                eprintln!("  [node] {line}");
            }
        });
        eprintln!(
            "bench_live[distributed]: spawned node {i} ({}) pid {}",
            deploy.nodes[i].name,
            child.id()
        );
        children.push(Some(child));
    }

    if !hub.wait_connected(n_leaves as u32, Duration::from_secs(30)) {
        fail_distributed(&mut children, "child nodes never connected to the hub");
    }
    let start = Instant::now();
    let deadline = start + Duration::from_secs(args.timeout_s);
    // Wait for the cross-process election before pulling the trigger
    // later: the kill must target a *real* elected master.
    let first_master = loop {
        if let Some(m) = hub.current_master() {
            break m;
        }
        if Instant::now() > deadline {
            fail_distributed(&mut children, "no master elected across processes");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    eprintln!(
        "bench_live[distributed]: master a{} elected in node window {} at {:.1}s",
        first_master.0,
        first_master.node_index(),
        start.elapsed().as_secs_f64()
    );

    let mut submitted = 0usize;
    let kill_at = args.jobs / 4; // kill once the pipeline is warm
    let mut killed: Option<(fuxi_sim::ActorId, usize, Instant, f64, usize)> = None;
    let mut failover: Option<(fuxi_sim::ActorId, f64)> = None;
    let mut timed_out = false;
    while hub.finished_count() < args.jobs {
        while submitted < args.jobs && submitted - hub.finished_count() < args.concurrent {
            let desc = dist_job(args.seed, submitted);
            hub.submit(&desc, &SubmitOpts::default());
            submitted += 1;
        }
        if args.kill_master && killed.is_none() && hub.finished_count() >= kill_at {
            if let Some(m) = hub.current_master() {
                let victim_node = m.node_index() as usize;
                assert!(
                    victim_node >= 1 && victim_node < deploy.nodes.len(),
                    "master {m:?} not hosted by a child process"
                );
                let child = children[victim_node - 1]
                    .as_mut()
                    .expect("victim child still tracked");
                let pid = child.id();
                eprintln!(
                    "bench_live[distributed]: SIGKILL node {victim_node} ({}) pid {pid} \
                     hosting master a{} at {:.1}s ({} jobs done)",
                    deploy.nodes[victim_node].name,
                    m.0,
                    start.elapsed().as_secs_f64(),
                    hub.finished_count()
                );
                child.kill().expect("SIGKILL child");
                let _ = child.wait();
                children[victim_node - 1] = None;
                killed = Some((
                    m,
                    victim_node,
                    Instant::now(),
                    start.elapsed().as_secs_f64(),
                    pid as usize,
                ));
            }
        }
        if let Some((old, _, kill_wall, _, _)) = killed {
            if failover.is_none() {
                if let Some(now_master) = hub.current_master() {
                    if now_master != old {
                        let latency = kill_wall.elapsed().as_secs_f64();
                        eprintln!(
                            "bench_live[distributed]: standby a{} (node window {}) took over \
                             {latency:.2}s after SIGKILL",
                            now_master.0,
                            now_master.node_index()
                        );
                        failover = Some((now_master, latency));
                    }
                }
            }
        }
        if Instant::now() > deadline {
            timed_out = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let elapsed_s = start.elapsed().as_secs_f64();

    let all = hub.all_jobs();
    let completed = all.iter().filter(|(_, s)| s.done.is_some()).count();
    let failed = all
        .iter()
        .filter(|(_, s)| matches!(s.done, Some((false, _, _))))
        .count();
    let dup = hub.duplicate_finishes();
    let (relayed, dropped, accepted) = hub.hub_stats();

    // The metrics plane must answer from the surviving master's process.
    let scrape = failover.and_then(|(m, _)| {
        let node = m.node_index() as usize;
        let addr = metrics_addrs.lock().unwrap().get(node).cloned().flatten();
        addr.map(|addr| {
            let metrics_ok = http_get(&addr, "/metrics")
                .is_ok_and(|r| r.starts_with("HTTP/1.1 200") && r.contains("fuxi_"));
            let json_ok =
                http_get(&addr, "/json").is_ok_and(|r| r.starts_with("HTTP/1.1 200"));
            (node, addr, metrics_ok, json_ok)
        })
    });

    let per_sec = |n: f64| n / elapsed_s.max(1e-9);
    let failover_latency = failover.map_or(Value::Null, |(_, l)| fixed(l, 3));
    let json = render(&obj([
        ("mode", text("distributed")),
        ("processes", uint(deploy.nodes.len())),
        ("machines", uint(args.machines)),
        ("jobs", uint(args.jobs)),
        ("completed", uint(completed)),
        ("failed", uint(failed)),
        ("duplicate_finishes", uint(dup)),
        ("elapsed_s", fixed(elapsed_s, 3)),
        ("jobs_per_sec", fixed(per_sec(completed as f64), 3)),
        ("hub_relayed_frames", uint(relayed)),
        ("hub_relayed_per_sec", fixed(per_sec(relayed as f64), 1)),
        ("hub_dropped_frames", uint(dropped)),
        ("hub_connections_accepted", uint(accepted)),
        ("master_killed", Value::Bool(killed.is_some())),
        ("failover_recovered", Value::Bool(failover.is_some())),
        ("failover_latency_s", failover_latency.clone()),
        ("metrics_scrape_ok", Value::Bool(scrape.as_ref().is_some_and(|s| s.2))),
        ("json_scrape_ok", Value::Bool(scrape.as_ref().is_some_and(|s| s.3))),
    ]));
    std::fs::write(&args.out, &json).expect("write distributed results");

    // Failover flight dump: the kill/takeover timeline for post-mortems
    // (uploaded by the CI distributed-smoke job next to the results).
    let flight = render(&obj([
        ("hub_addr", text(&hub_addr)),
        ("hub_pid", uint(std::process::id())),
        ("nodes", Value::Array(deploy.nodes.iter().map(|n| text(&n.name)).collect())),
        ("killed_master_actor", killed.map_or(Value::Null, |(m, ..)| uint(m.0))),
        ("killed_node", killed.map_or(Value::Null, |(_, n, ..)| uint(n))),
        ("killed_pid", killed.map_or(Value::Null, |(.., pid)| uint(pid))),
        ("kill_at_s", killed.map_or(Value::Null, |(_, _, _, at, _)| fixed(at, 3))),
        ("new_master_actor", failover.map_or(Value::Null, |(m, _)| uint(m.0))),
        ("new_master_node", failover.map_or(Value::Null, |(m, _)| uint(m.node_index()))),
        ("failover_latency_s", failover_latency),
        ("scrape_addr", scrape.as_ref().map_or(Value::Null, |s| text(&s.1))),
    ]));
    std::fs::write(&args.snapshot_out, &flight).expect("write failover flight dump");
    println!("{json}");
    eprintln!(
        "bench_live[distributed]: wrote {} and {}",
        args.out, args.snapshot_out
    );
    kill_children(&mut children);

    if timed_out {
        eprintln!(
            "bench_live[distributed]: FAIL — timed out after {}s with {completed}/{} jobs done",
            args.timeout_s, args.jobs
        );
        std::process::exit(1);
    }
    if args.kill_master {
        let Some((new_master, _)) = failover else {
            eprintln!("bench_live[distributed]: FAIL — standby never took over after SIGKILL");
            std::process::exit(1);
        };
        let (old_master, victim_node, ..) = killed.expect("kill recorded");
        if new_master.node_index() as usize == victim_node {
            eprintln!(
                "bench_live[distributed]: FAIL — new master a{} lives in the killed \
                 process's window",
                new_master.0
            );
            std::process::exit(1);
        }
        assert_ne!(new_master, old_master);
        match &scrape {
            Some((node, addr, metrics_ok, json_ok)) => {
                if !metrics_ok || !json_ok {
                    eprintln!(
                        "bench_live[distributed]: FAIL — scrape of surviving master \
                         (node {node}, {addr}) failed: /metrics ok={metrics_ok} /json ok={json_ok}"
                    );
                    std::process::exit(1);
                }
            }
            None => {
                eprintln!(
                    "bench_live[distributed]: FAIL — surviving master never reported a \
                     metrics endpoint"
                );
                std::process::exit(1);
            }
        }
    }
    if completed < args.jobs {
        eprintln!(
            "bench_live[distributed]: FAIL — only {completed}/{} jobs completed",
            args.jobs
        );
        std::process::exit(1);
    }
    if dup != 0 {
        eprintln!("bench_live[distributed]: FAIL — {dup} duplicate job completions observed");
        std::process::exit(1);
    }
    eprintln!(
        "bench_live[distributed]: OK — {completed} jobs across {} processes, \
         failover in {:.2}s, 0 duplicates",
        deploy.nodes.len(),
        failover.map_or(0.0, |(_, l)| l)
    );
}

fn main() {
    let args = parse_args();
    // Hidden child mode: this invocation is one leaf node of a
    // `--distributed` run (re-executed by the driver below).
    if let (Some(index), Some(hubaddr)) = (args.dist_node, args.dist_hub.clone()) {
        run_dist_child(index, &hubaddr, args.machines, args.seed);
    }
    fuxi_bench::warn_if_debug();
    if args.distributed {
        run_distributed(&args);
        return;
    }
    // Short lease so the standby takes over within a few seconds of the
    // live master kill (defaults are tuned for simulated hours) — but not
    // so short that scheduling hiccups on an oversubscribed CI host cost
    // the primary its lease before the scripted kill: a spurious
    // self-fence leaves no standby for the real one.
    let mut master = MasterConfig {
        lease_ttl: SimDuration::from_secs_f64(3.0),
        keepalive_interval: SimDuration::from_secs_f64(1.0),
        ..MasterConfig::default()
    };
    // A master kill stalls granting for lease-loss (~3 s) + the 8 s
    // rebuild window; a 4 s pending-age SLO turns that stall into a
    // watchdog alert the run can assert on.
    master.metrics.rules.pending_age_s = 4.0;
    let mut c = LiveCluster::new(ClusterConfig {
        n_machines: args.machines,
        rack_size: 50.min(args.machines.max(1)),
        seed: args.seed,
        master,
        standby_master: true,
        ..ClusterConfig::default()
    });
    eprintln!(
        "bench_live: {} machines, {} jobs ({} in flight), master kill: {}",
        args.machines, args.jobs, args.concurrent, args.kill_master
    );
    if let Some(addr) = &args.serve {
        let bound = c.serve_metrics(addr).expect("bind scrape endpoint");
        eprintln!("bench_live: serving http://{bound}/metrics and http://{bound}/json");
    }

    let start = Instant::now();
    let deadline = start + Duration::from_secs(args.timeout_s);
    let mut submitted = 0usize;
    let kill_at = args.jobs / 4; // kill once the pipeline is warm
    let mut killed_master = None;
    let mut failover_recovered = !args.kill_master;
    let mut timed_out = false;
    // Cluster-view snapshots bracketing the failover: just before the
    // kill, when the standby takes over (mid-rebuild, granting still
    // stalled), and after the run drains.
    let mut view_pre_kill = None;
    let mut view_during_failover = None;

    while c.finished_count() < args.jobs {
        while submitted < args.jobs && submitted - c.finished_count() < args.concurrent {
            let desc = live_job(args.seed, submitted);
            c.submit(&desc, &SubmitOpts::default());
            submitted += 1;
        }
        if args.kill_master && killed_master.is_none() && c.finished_count() >= kill_at {
            killed_master = c.current_master();
            if let Some(fm) = killed_master {
                eprintln!(
                    "bench_live: killing primary master a{} at {:.1}s ({} jobs done)",
                    fm.0,
                    start.elapsed().as_secs_f64(),
                    c.finished_count()
                );
                view_pre_kill = Some(c.hub.snapshot());
                c.kill_primary_master();
            }
        }
        if let Some(old) = killed_master {
            if !failover_recovered {
                if let Some(now_master) = c.current_master() {
                    if now_master != old {
                        eprintln!(
                            "bench_live: standby a{} took over at {:.1}s",
                            now_master.0,
                            start.elapsed().as_secs_f64()
                        );
                        failover_recovered = true;
                        view_during_failover = Some(c.hub.snapshot());
                    }
                }
            }
        }
        if Instant::now() > deadline {
            timed_out = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let elapsed_s = start.elapsed().as_secs_f64();

    let all = c.all_jobs();
    let completed = all.iter().filter(|(_, s)| s.done.is_some()).count();
    let failed = all
        .iter()
        .filter(|(_, s)| matches!(s.done, Some((false, _, _))))
        .count();
    let view_post = c.hub.snapshot();
    let (metrics, _tracer) = c.shutdown();

    let msgs = metrics.counter("net.sent");
    let (p50, p99) = metrics
        .histogram("fm.sched_s")
        .map_or((0.0, 0.0), |h| (h.quantile(0.5), h.quantile(0.99)));
    // The view renders its own summary; embed it as a tree, not as text.
    let summary = |v: &fuxi_sim::obs::ClusterView| {
        serde_json::value_from_str(&v.summary_json()).expect("view summary is JSON")
    };
    let per_sec = |n: f64| n / elapsed_s.max(1e-9);
    let json = render(&obj([
        ("machines", uint(args.machines)),
        ("jobs", uint(args.jobs)),
        ("completed", uint(completed)),
        ("failed", uint(failed)),
        ("elapsed_s", fixed(elapsed_s, 3)),
        ("jobs_per_sec", fixed(per_sec(completed as f64), 3)),
        ("msgs_per_sec", fixed(per_sec(msgs as f64), 1)),
        ("sched_p50_s", fixed(p50, 6)),
        ("sched_p99_s", fixed(p99, 6)),
        ("mailbox_hwm", uint(metrics.gauge("rt.mailbox_hwm") as u64)),
        ("mailbox_parked", uint(metrics.counter("rt.mailbox_parked"))),
        ("master_killed", Value::Bool(killed_master.is_some())),
        ("failover_recovered", Value::Bool(failover_recovered)),
        ("slo_alerts_total", uint(view_post.alerts_total)),
        (
            "cluster_view",
            obj([
                ("pre_kill", view_pre_kill.as_ref().map_or(Value::Null, summary)),
                ("during_failover", view_during_failover.as_ref().map_or(Value::Null, summary)),
                ("post_recovery", summary(&view_post)),
            ]),
        ),
    ]));
    std::fs::write(&args.out, &json).expect("write BENCH_live.json");
    std::fs::write(&args.snapshot_out, view_post.to_json()).expect("write view snapshot");
    println!("{json}");
    eprintln!("bench_live: wrote {} and {}", args.out, args.snapshot_out);

    if timed_out {
        eprintln!(
            "bench_live: FAIL — timed out after {}s with {completed}/{} jobs done",
            args.timeout_s, args.jobs
        );
        std::process::exit(1);
    }
    if !failover_recovered {
        eprintln!("bench_live: FAIL — standby never took over after master kill");
        std::process::exit(1);
    }
    if completed < args.jobs {
        eprintln!("bench_live: FAIL — only {completed}/{} jobs completed", args.jobs);
        std::process::exit(1);
    }
    // The ~11 s grant stall (lease loss + rebuild) must have tripped the
    // 4 s pending-age SLO: a kill that raises no alert means the watchdog
    // or the report plane is broken.
    if killed_master.is_some() && view_post.alerts_total == 0 {
        eprintln!("bench_live: FAIL — master kill raised no SLO alert in the cluster view");
        std::process::exit(1);
    }
    if view_post.reports_received == 0 {
        eprintln!("bench_live: FAIL — master ingested zero metrics reports");
        std::process::exit(1);
    }
}
