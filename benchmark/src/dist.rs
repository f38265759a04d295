//! `dist_null`: the `live_null` jobs over `DeployTopology::distributed` —
//! this process is the hub (lock service + client); master-a, master-b and
//! the agent fleet are re-executions of this binary connected over real
//! TCP. Same actors as `live_null`, used differently: every master ↔ agent
//! ↔ JobMaster message pays wire encode → `Transport` → hub relay →
//! decode. No master is killed here (that is `live_failover`'s subject).

use crate::layers::{self, RuntimeDump};
use crate::live::{self, JobSink, LiveParams};
use crate::report::Measured;
use crate::stats;
use crate::RunOpts;
use fuxi_cluster::{DeployTopology, JobState, SubmitOpts};
use fuxi_job::JobDesc;
use fuxi_node::LiveNode;
use fuxi_proto::JobId;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ExitCode, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

impl JobSink for LiveNode {
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

/// Seconds between the unix epoch and `node`'s runtime epoch: the clock
/// every process of a run can convert to.
fn epoch_offset_s(node: &LiveNode) -> f64 {
    let unix = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0.0, |d| d.as_secs_f64());
    unix - node.rt.now().as_secs_f64()
}

/// Child mode: boot leaf `index` and serve until the driver asks for the
/// dump (`dump\n` on stdin), closes stdin (exit quietly — also the orphan
/// protection if the driver dies), or kills us.
pub fn child_main(p: &LiveParams, traced: bool, index: usize, hub_addr: &str) -> ExitCode {
    let deploy = DeployTopology::distributed(p.cluster_config(traced), hub_addr);
    if index == 0 || index >= deploy.nodes.len() {
        eprintln!("fuxi-benchmark: no leaf node {index} in the deployment");
        return ExitCode::from(2);
    }
    let node = match LiveNode::boot(deploy, index, Some(hub_addr)) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("fuxi-benchmark[node {index}]: boot failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let offset_s = epoch_offset_s(&node);
    let asked = std::io::stdin()
        .lines()
        .map_while(Result::ok)
        .any(|l| l.trim() == "dump");
    if !asked {
        return ExitCode::SUCCESS;
    }
    let reconnects = node.reconnects();
    let view = node.hub_metrics.snapshot();
    let snapshot_us = layers::time_snapshot(&node.hub_metrics);
    let (metrics, tracer) = node.rt.shutdown();
    let mut dump = RuntimeDump::new(&metrics, &tracer, &view, offset_s);
    dump.reconnects = reconnects;
    dump.snapshot_us = snapshot_us;
    let text = serde_json::to_string(&dump).expect("render dump");
    println!("DUMP {text}");
    ExitCode::SUCCESS
}

/// The leaf processes of one deployment. Dropping it — on any exit path,
/// including a panic unwinding through the driver — kills and reaps them.
pub struct Children {
    procs: Vec<Child>,
    /// Stdout lines of each child, forwarded by a reader thread.
    lines: Vec<mpsc::Receiver<String>>,
    readers: Vec<std::thread::JoinHandle<()>>,
}

impl Children {
    pub fn spawn(n_leaves: usize, hub_addr: &str, opts: &RunOpts) -> std::io::Result<Children> {
        let mut c = Children {
            procs: Vec::new(),
            lines: Vec::new(),
            readers: Vec::new(),
        };
        for i in 1..=n_leaves {
            let mut cmd = crate::rerun("dist_null", opts)?;
            cmd.args(["--child", &i.to_string(), "--hub", hub_addr])
                .stdin(Stdio::piped())
                .stdout(Stdio::piped());
            let mut child = cmd.spawn()?;
            let stdout = child.stdout.take().expect("piped stdout");
            c.procs.push(child);
            let (tx, rx) = mpsc::channel();
            c.lines.push(rx);
            c.readers.push(std::thread::spawn(move || {
                for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                    if tx.send(line).is_err() {
                        break;
                    }
                }
            }));
        }
        Ok(c)
    }

    fn pids(&self) -> Vec<u32> {
        self.procs.iter().map(Child::id).collect()
    }

    /// Asks every child for its dump; a child that does not answer in time
    /// is an error, not a hang.
    fn dumps(&mut self) -> Result<Vec<RuntimeDump>, String> {
        for p in &mut self.procs {
            let stdin = p.stdin.as_mut().ok_or("child stdin closed")?;
            stdin
                .write_all(b"dump\n")
                .and_then(|()| stdin.flush())
                .map_err(|e| e.to_string())?;
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut out = Vec::new();
        for (i, rx) in self.lines.iter().enumerate() {
            loop {
                let left = deadline.saturating_duration_since(Instant::now());
                let line = rx
                    .recv_timeout(left)
                    .map_err(|_| format!("node {} sent no dump", i + 1))?;
                if let Some(text) = line.strip_prefix("DUMP ") {
                    out.push(
                        serde_json::from_str(text).map_err(|e| format!("malformed dump: {e}"))?,
                    );
                    break;
                }
            }
        }
        Ok(out)
    }
}

impl Drop for Children {
    fn drop(&mut self) {
        for p in &mut self.procs {
            let _ = p.kill();
            let _ = p.wait();
        }
        for r in self.readers.drain(..) {
            let _ = r.join();
        }
    }
}

/// A booted four-process deployment: this process's hub node and the leaf
/// children, connected, with a master elected.
pub struct Deployment {
    pub hub: LiveNode,
    pub children: Children,
}

impl Deployment {
    /// `via` maps the hub's listen address to the one the children dial
    /// (the identity, or a tap in between for the wire census).
    pub fn boot(
        p: &LiveParams,
        opts: &RunOpts,
        via: impl FnOnce(String) -> Result<String, String>,
    ) -> Result<Deployment, String> {
        let deploy = DeployTopology::distributed(p.cluster_config(opts.traced), "127.0.0.1:0");
        let n_leaves = deploy.nodes.len() - 1;
        let hub = LiveNode::boot(deploy, 0, None).map_err(|e| format!("hub boot: {e}"))?;
        let hub_addr = hub.hub_addr().ok_or("hub has no listen address")?;
        let dial = via(hub_addr.to_string())?;
        let children = Children::spawn(n_leaves, &dial, opts).map_err(|e| format!("spawn: {e}"))?;
        if !hub.wait_connected(n_leaves as u32, Duration::from_secs(30)) {
            return Err("child nodes never connected to the hub".into());
        }
        let waiting = Instant::now();
        while hub.current_master().is_none() {
            if waiting.elapsed() > Duration::from_secs(20) {
                return Err("no master elected across processes".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Ok(Deployment { hub, children })
    }
}

pub fn run(p: &LiveParams, opts: &RunOpts) -> Measured {
    let mut out = Measured::default();
    for rep in 0..p.setups {
        if let Err(e) = one_rep(p, opts, rep, &mut out) {
            out.errors.push(format!("rep {rep}: {e}"));
        }
    }
    out
}

fn one_rep(p: &LiveParams, opts: &RunOpts, rep: usize, out: &mut Measured) -> Result<(), String> {
    let t_setup = Instant::now();
    let Deployment {
        mut hub,
        mut children,
    } = Deployment::boot(p, opts, Ok)?;
    let boot_s = t_setup.elapsed().as_secs_f64();
    let booted = live::Booted {
        rep,
        t_setup,
        boot_s,
    };
    let mut pids = vec![std::process::id()];
    pids.extend(children.pids());

    let mut driven = live::drive(&mut hub, p, opts, booted, &pids, out, |_, _, _| {})?;
    // Exactly-once completion must hold across processes too.
    let dup = hub.duplicate_finishes();
    if dup > 0 {
        out.failed += dup;
        out.errors
            .push(format!("rep {rep}: {dup} duplicate job completions"));
    }
    let rss = pids
        .iter()
        .map(|&pid| stats::vm_hwm_mb(pid))
        .fold(0.0, f64::max);
    out.peak_rss_mb = out.peak_rss_mb.max(rss);

    let (finished, life_s) = (hub.finished_count() as u64, hub.now_s());
    let (relayed, dropped, _accepted) = hub.hub_stats();
    let offset_s = epoch_offset_s(&hub);
    driven.settle_reports();
    let child_dumps = if opts.traced && driven.measured.is_some() {
        Some(children.dumps()?)
    } else {
        None
    };
    drop(children);
    let view = hub.hub_metrics.snapshot();
    let (metrics, tracer) = hub.rt.shutdown();
    if let Some(mut dumps) = child_dumps {
        dumps.push(RuntimeDump::new(&metrics, &tracer, &view, offset_s));
        let per_job = |n: u64| n as f64 / finished.max(1) as f64;
        driven
            .sample
            .insert("node.hub.relayed_per_job", per_job(relayed));
        driven
            .sample
            .insert("node.hub.dropped_frames", dropped as f64);
        driven.push_layers(&dumps, finished, life_s, out);
    }
    Ok(())
}
