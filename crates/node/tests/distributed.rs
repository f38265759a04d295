//! Multi-node cluster tests over real TCP. Most run every node in this
//! test process, each with its own runtime, connected through the hub's
//! listener; `sigkill` runs the masters and agents as `fuxi-node`
//! processes and kills one.

use fuxi_cluster::{ClusterConfig, DeployTopology, SubmitOpts};
use fuxi_node::LiveNode;
use fuxi_obs::ViewDoc;
use fuxi_sim::{ActorId, SimDuration};
use fuxi_workloads::mapreduce::{null_job, wordcount_job, MapReduceParams};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

fn test_config(seed: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig {
        n_machines: 6,
        rack_size: 3,
        seed,
        ..ClusterConfig::default()
    };
    // Tight failover clocks so the test stays fast: 1.5 s lease, 0.5 s
    // keepalive (well under the lease as the master config requires).
    cfg.master.lease_ttl = SimDuration::from_secs_f64(1.5);
    cfg.master.keepalive_interval = SimDuration::from_secs_f64(0.5);
    cfg
}

fn small_job(i: usize) -> fuxi_job::JobDesc {
    wordcount_job(&MapReduceParams {
        maps: 2,
        reduces: 1,
        map_duration_s: 0.05,
        reduce_duration_s: 0.05,
        jitter: 0.1,
        max_workers: 2,
        binary_mb: 1.0,
        map_output_mb: 0.2,
        output_file: Some(format!("pangu://dist/out-{i}")),
        ..Default::default()
    })
}

/// Boots the standard 4-node topology in-process: hub (lock + client),
/// master A, master B, agent fleet. Returns (hub, leaves).
fn boot_cluster(seed: u64) -> (LiveNode, Vec<LiveNode>) {
    boot_with(test_config(seed))
}

fn boot_with(cfg: ClusterConfig) -> (LiveNode, Vec<LiveNode>) {
    let deploy = DeployTopology::distributed(cfg, "127.0.0.1:0");
    let hub = LiveNode::boot(deploy.clone(), 0, None).expect("hub boots");
    let addr = hub.hub_addr().expect("hub bound").to_string();
    let leaves: Vec<LiveNode> = (1..deploy.nodes.len())
        .map(|i| LiveNode::boot(deploy.clone(), i, Some(&addr)).expect("leaf boots"))
        .collect();
    assert!(
        hub.wait_connected(leaves.len() as u32, Duration::from_secs(10)),
        "leaves failed to connect"
    );
    (hub, leaves)
}

fn wait_master(hub: &LiveNode, timeout: Duration) -> ActorId {
    let start = Instant::now();
    while start.elapsed() < timeout {
        if let Some(m) = hub.current_master() {
            return m;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("no master elected within {timeout:?}");
}

#[test]
fn distributed_cluster_completes_jobs_across_process_windows() {
    let (mut hub, _leaves) = boot_cluster(11);
    let master = wait_master(&hub, Duration::from_secs(10));
    // The elected master lives in a master node's id window, not the hub's.
    assert!(
        master.node_index() == 1 || master.node_index() == 2,
        "master {master:?} not in a master window"
    );
    const JOBS: usize = 8;
    for i in 0..JOBS {
        hub.submit(&small_job(i), &SubmitOpts::default());
    }
    let done = hub.wait_n_done(JOBS, Duration::from_secs(60));
    assert_eq!(done, JOBS, "jobs stalled in distributed mode");
    assert!(hub.all_jobs().iter().all(|(_, s)| s.done.as_ref().unwrap().0));
    assert_eq!(hub.duplicate_finishes(), 0);
}

#[test]
fn severed_agent_link_reconnects_and_reregisters_within_backoff_budget() {
    let (mut hub, leaves) = boot_cluster(12);
    wait_master(&hub, Duration::from_secs(10));
    let agents = &leaves[2]; // node 3: the agent fleet
    const JOBS: usize = 10;
    for i in 0..JOBS {
        hub.submit(&small_job(i), &SubmitOpts::default());
    }
    // Let some work start flowing, then kill the TCP peer mid-heartbeat.
    hub.wait_n_done(2, Duration::from_secs(30));
    agents.sever_link();
    // Backoff budget: base 50 ms, cap 2 s — reconnect must land well
    // inside a few seconds.
    let start = Instant::now();
    while agents.reconnects() == 0 && start.elapsed() < Duration::from_secs(10) {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(
        agents.reconnects() >= 1,
        "agent node did not reconnect within the backoff budget"
    );
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "reconnect took {:?}, over the backoff budget",
        start.elapsed()
    );
    // Re-registered agents keep heartbeating and the cluster drains every
    // job exactly once — no lost and no duplicated completions.
    let done = hub.wait_n_done(JOBS, Duration::from_secs(90));
    assert_eq!(done, JOBS, "jobs lost after reconnect");
    assert!(hub.all_jobs().iter().all(|(_, s)| s.done.as_ref().unwrap().0));
    assert_eq!(hub.duplicate_finishes(), 0, "duplicate allocations leaked");
}

/// The `fuxi-node` processes of a test, SIGKILLed and reaped on drop so a
/// failed assertion leaves no orphans.
struct Children(Vec<Child>);

impl Drop for Children {
    fn drop(&mut self) {
        for c in &mut self.0 {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

/// One blocking GET against a scrape endpoint: (status line + headers, body).
fn http_get(addr: &str, path: &str) -> std::io::Result<(String, String)> {
    let mut s = TcpStream::connect(addr)?;
    s.set_read_timeout(Some(Duration::from_secs(5)))?;
    write!(s, "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n")?;
    let mut buf = String::new();
    s.read_to_string(&mut buf)?;
    let (head, body) = buf.split_once("\r\n\r\n").unwrap_or((&buf, ""));
    Ok((head.to_owned(), body.to_owned()))
}

/// §4.3's failover across real OS boundaries. This process is the hub
/// (lock service + client); masters A and B and the agent fleet are
/// `fuxi-node` processes on the binary's own clocks (6 s lease, 2 s
/// keepalive, 8 s rebuild cap). A quarter of the way through 32 jobs
/// the process hosting the elected master is SIGKILLed: the standby in the
/// other process must take the lease within `lease_ttl + keepalive`, jobs
/// must complete again within 2 s of the takeover (the rebuild ends when
/// the agents and JobMasters have reported, not at the cap), every job
/// must end exactly once, and the new master's process must answer
/// `/metrics` and `/json` with reports from the agents' process in it.
#[test]
fn sigkill() {
    const MACHINES: usize = 12;
    const SEED: u64 = 2014;
    const JOBS: usize = 32;
    const IN_FLIGHT: usize = 8;
    let deploy = fuxi_node::standard_topology(MACHINES, SEED, "127.0.0.1:0");
    let mut hub = LiveNode::boot(deploy.clone(), 0, None).expect("hub boots");
    let hub_addr = hub.hub_addr().expect("hub bound").to_string();

    // Node i's stdout names its metrics address; everything else it
    // prints goes to the test's log.
    let (tx, rx) = mpsc::channel();
    let mut children = Children(Vec::new());
    for i in 1..deploy.nodes.len() {
        let mut child = Command::new(env!("CARGO_BIN_EXE_fuxi-node"))
            .args(["--index", &i.to_string(), "--hub", &hub_addr])
            .args(["--machines", &MACHINES.to_string(), "--seed", &SEED.to_string()])
            .args(["--metrics", "127.0.0.1:0"])
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn fuxi-node");
        let out = child.stdout.take().expect("piped stdout");
        children.0.push(child);
        let tx = tx.clone();
        std::thread::spawn(move || {
            for line in BufReader::new(out).lines().map_while(Result::ok) {
                eprintln!("  [node {i}] {line}");
                let addr = line.split_once("metrics on http://").and_then(|(_, a)| a.strip_suffix("/metrics"));
                if let Some(addr) = addr {
                    let _ = tx.send((i, addr.to_owned()));
                }
            }
        });
    }
    let mut metrics = vec![String::new(); deploy.nodes.len()];
    for _ in 1..deploy.nodes.len() {
        let (i, addr) = rx.recv_timeout(Duration::from_secs(30)).expect("a node never printed its metrics address");
        metrics[i] = addr;
    }
    assert!(hub.wait_connected(3, Duration::from_secs(30)), "nodes never connected to the hub");
    wait_master(&hub, Duration::from_secs(10));

    let mut submitted = 0;
    let mut killed: Option<(ActorId, Instant)> = None;
    let mut takeover: Option<(ActorId, Duration)> = None;
    // When the hub saw the takeover, with the jobs finished by then; and
    // how long after it the next job finished.
    let mut taken_over: Option<(Instant, usize)> = None;
    let mut resumed: Option<Duration> = None;
    let deadline = Instant::now() + Duration::from_secs(120);
    while hub.finished_count() < JOBS {
        assert!(Instant::now() < deadline, "{} of {JOBS} jobs terminal after 120 s", hub.finished_count());
        while submitted < JOBS && submitted - hub.finished_count() < IN_FLIGHT {
            hub.submit(&small_job(submitted), &SubmitOpts::default());
            submitted += 1;
        }
        if killed.is_none() && hub.finished_count() >= JOBS / 4 {
            let master = hub.current_master().expect("a master is registered");
            let victim = &mut children.0[master.node_index() as usize - 1];
            victim.kill().expect("SIGKILL the master's process");
            victim.wait().expect("reap it");
            killed = Some((master, Instant::now()));
        }
        if let (Some((old, at)), None) = (killed, takeover) {
            takeover = hub.current_master().filter(|&m| m != old).map(|m| (m, at.elapsed()));
            taken_over = takeover.map(|_| (Instant::now(), hub.finished_count()));
        }
        if let (Some((at, finished)), None) = (taken_over, resumed) {
            resumed = (hub.finished_count() > finished).then(|| at.elapsed());
        }
        std::thread::sleep(Duration::from_millis(5));
    }

    let (old, _) = killed.expect("the master was killed");
    let (new, latency) = takeover.expect("the standby never took over");
    eprintln!("SIGKILL of node {} ({old}): {new} in node {} took over after {latency:?}", old.node_index(), new.node_index());
    assert!(matches!(new.node_index(), 1 | 2), "new master {new:?} not in a master process");
    assert_ne!(new.node_index(), old.node_index(), "the new master lives in the killed process");
    let master = &deploy.cluster.master;
    let bound = (master.lease_ttl + master.keepalive_interval).as_secs_f64();
    assert!(latency.as_secs_f64() <= bound, "takeover took {latency:?}, over lease + keepalive ({bound} s)");
    let resumed = resumed.expect("no job finished after the takeover");
    let cap = master.rebuild_window.as_secs_f64();
    eprintln!("first job completion {resumed:?} after the takeover (rebuild cap {cap} s)");
    assert!(resumed <= Duration::from_secs(2), "jobs resumed {resumed:?} after the takeover: the rebuild ran to its cap");
    assert!(hub.all_jobs().iter().all(|(_, s)| s.done.as_ref().is_some_and(|d| d.0)), "a job failed");
    assert_eq!(hub.duplicate_finishes(), 0, "a job finished twice");

    // The surviving master's process serves the view it rebuilt from the
    // agents' reports (a report lands on the agents' heartbeat).
    let addr = &metrics[new.node_index() as usize];
    let (head, prom) = http_get(addr, "/metrics").expect("scrape /metrics");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(prom.contains("# TYPE fuxi_jobs_per_sec gauge"), "{prom}");
    let summary_ok = |v: &ViewDoc| v.summary.reports_received > 0 && !v.agents.is_empty();
    let start = Instant::now();
    let json = loop {
        let (head, body) = http_get(addr, "/json").expect("scrape /json");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        let v: ViewDoc = serde_json::from_str(&body).expect("/json parses");
        if summary_ok(&v) || start.elapsed() > Duration::from_secs(10) {
            break (v, body);
        }
        std::thread::sleep(Duration::from_millis(200));
    };
    assert!(summary_ok(&json.0), "no reports or agents in the new master's view: {}", json.1);
}

/// Cold start across process windows: the agents' node comes up before a
/// master is elected, and the jobs are submitted before the hub's naming
/// replica has heard of one. Nobody waits out a period for that — the
/// agents' 2 s heartbeat, the client's 2 s retry and the master's 5 s
/// roll-up used to add up to 5.8 s here.
#[test]
fn jobs_submitted_as_the_last_node_comes_up_are_accepted_within_a_second() {
    let (mut hub, _leaves) = boot_cluster(14);
    let up = Instant::now();
    const JOBS: usize = 16;
    let opts = SubmitOpts { master_package_mb: 0.0, ..SubmitOpts::default() };
    let jobs: Vec<_> = (0..JOBS).map(|i| hub.submit(&null_job(1 + i as u32 % 3), &opts)).collect();
    let accepted = |hub: &LiveNode| jobs.iter().any(|&j| hub.job_state(j).is_some_and(|s| s.accepted));
    while !accepted(&hub) && up.elapsed() < Duration::from_secs(10) {
        std::thread::sleep(Duration::from_millis(5));
    }
    let first_accept = up.elapsed();
    assert!(first_accept < Duration::from_secs(1), "first job accepted after {first_accept:?}");
    // ... and started, not parked until the roll-up finds the capacity the
    // agents brought.
    assert_eq!(hub.wait_n_done(JOBS, Duration::from_secs(60)), JOBS);
    let all_done = up.elapsed();
    assert!(all_done < Duration::from_millis(1500), "{JOBS} null jobs took {all_done:?} from a cold start");
    assert_eq!(hub.duplicate_finishes(), 0);
}

/// Every node's supervisor is up before its first actor, so a master's
/// first `LockAcquire` waits in the leaf's queue for the link instead of
/// being counted dead and retried on the keepalive (2 s by default, which
/// is what roughly one boot in five used to take).
#[test]
fn first_lock_acquire_is_never_dropped_at_boot() {
    for boot in 0..20 {
        let start = Instant::now();
        // The default clocks, not `test_config`'s: a dropped acquire costs 2 s.
        let cfg = ClusterConfig { n_machines: 6, rack_size: 3, seed: boot, ..ClusterConfig::default() };
        let (hub, leaves) = boot_with(cfg);
        wait_master(&hub, Duration::from_secs(10));
        let elected = start.elapsed();
        for node in leaves.into_iter().chain([hub]) {
            node.rt.shutdown();
        }
        assert!(elected < Duration::from_millis(500), "boot {boot}: election took {elected:?}");
    }
}

/// A reconnecting leaf takes the hub's snapshot *as* its replica: what
/// the hub no longer has was deleted while the leaf was away. (Merging
/// the snapshot in and re-announcing the result, as the leaf used to,
/// hands every record deleted during an outage back to the whole cluster
/// — and a resurrected job record is a finished job run again by the
/// next master.)
#[test]
fn records_deleted_while_a_leaf_was_away_stay_deleted() {
    let (mut hub, leaves) = boot_cluster(15);
    let master = wait_master(&hub, Duration::from_secs(10));
    let standby = &leaves[if master.node_index() == 1 { 1 } else { 0 }];
    const JOBS: usize = 10;
    for i in 0..JOBS {
        hub.submit(&small_job(i), &SubmitOpts::default());
    }
    let start = Instant::now();
    while hub.finished_count() < JOBS && start.elapsed() < Duration::from_secs(60) {
        standby.sever_link();
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(hub.finished_count(), JOBS, "jobs stalled");
    assert!(standby.reconnects() >= 10, "only {} reconnects: not the storm this test is about", standby.reconnects());
    assert!(standby.wait_connected(0, Duration::from_secs(10)), "standby never came back");

    // Replication is asynchronous: give the last deletes a moment.
    let leftovers = || -> Vec<String> {
        let replica = |n: &LiveNode| {
            let mut keys = fuxi_core::HardState::job_keys(&n.store);
            keys.extend(n.store.keys_with_prefix("jobsnap/"));
            keys.into_iter().map(|k| format!("{}:{k}", n.deploy.nodes[n.node_index].name)).collect::<Vec<_>>()
        };
        leaves.iter().chain([&hub]).flat_map(replica).collect()
    };
    let settle = Instant::now();
    while !leftovers().is_empty() && settle.elapsed() < Duration::from_secs(5) {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(leftovers(), Vec::<String>::new(), "deleted records came back");
    assert_eq!(hub.duplicate_finishes(), 0);
}

/// A leaf delivers nothing to its actors until they all exist. A message
/// that reached an agent while `boot_groups` was still spawning the fleet
/// started a JobMaster there, and the JobMaster took the id of an agent
/// not yet spawned: `LiveNode::boot`'s "actor placement" assert, in about
/// one `dist_null` run of fourteen. Here a bare hub sends the first agent
/// `StartAppMaster` without pause while the agents' node boots: boot must
/// place every agent where the topology says, and the held messages must
/// still arrive. Whether any message reaches the node mid-boot is a race
/// between its link coming up (a few ms) and the boot of its agents (256
/// take about 1 ms), so the boot is repeated, each time on a fresh hub and
/// with twice the agents up to 4,096, until one held a message.
#[test]
fn a_message_to_a_leaf_mid_boot_misplaces_no_actor() {
    use fuxi_apsara::{NameRegistry, StoreHandle};
    use fuxi_proto::msg::AppDescription;
    use fuxi_proto::{AppId, JobId, Msg};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    const MACHINES: usize = 256;
    const BOOTS: usize = 20;
    for boot in 0..BOOTS {
        let deploy = fuxi_node::standard_topology(MACHINES << boot.min(4), 16, "127.0.0.1:0");
        let (_, first_agent) = deploy.agent_ids()[0];
        let noop: fuxi_node::supervisor::Inject = Arc::new(|_, _, _| {});
        let hub = fuxi_node::HubSupervisor::start("127.0.0.1:0", "hub", NameRegistry::new(), StoreHandle::new(), noop)
            .expect("hub binds");
        let (route, from) = (hub.router(), deploy.client_id().id);
        let stop = Arc::new(AtomicBool::new(false));
        let sender = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let desc = AppDescription { master_package_mb: 0.0, ..AppDescription::default() };
                for job in 1.. {
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    route(from, first_agent.id, Msg::StartAppMaster { app: AppId(job), job: JobId(job), desc: desc.clone() });
                    std::thread::sleep(Duration::from_micros(100));
                }
            })
        };
        let agents = LiveNode::boot(deploy.clone(), first_agent.node, Some(&hub.addr().to_string())).expect("agents boot");
        if agents.held_at_boot() == 0 {
            // The link came up only after boot: nothing was sent mid-boot.
            stop.store(true, Ordering::Release);
            sender.join().expect("sender thread");
            agents.rt.shutdown();
            continue;
        }
        let machines = deploy.cluster.n_machines;
        eprintln!("boot {boot}, {machines} machines: {} messages held until the agents existed", agents.held_at_boot());
        let booted = Instant::now();
        let delivered = || agents.rt.metrics_snapshot().counter("net.remote_in");
        while delivered() == 0 && booted.elapsed() < Duration::from_secs(10) {
            std::thread::sleep(Duration::from_millis(5));
        }
        stop.store(true, Ordering::Release);
        sender.join().expect("sender thread");
        assert!(delivered() > 0, "the held messages never arrived");
        agents.rt.shutdown();
        return;
    }
    panic!("in {BOOTS} boots the link never came up mid-boot: nothing was held");
}
