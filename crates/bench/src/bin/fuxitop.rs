//! `fuxitop` — a `top(1)`-style live view of a Fuxi cluster, fed by the
//! scrape endpoint a `fuxi-node --metrics <addr>` process (or any
//! `LiveCluster::serve_metrics`) exposes.
//!
//! Usage:
//! ```text
//! cargo run --release -p fuxi-bench --bin fuxitop -- \
//!     [--addr 127.0.0.1:9464] [--interval 1.0] [--once]
//! ```
//!
//! Polls `GET /json`, parses it into the `ViewDoc` the endpoint writes,
//! and redraws a terminal dashboard: the master rollup line, utilisation,
//! scheduling latency percentiles, the busiest agents, the jobs with the
//! most pending instances, and any active SLO alerts. `--once` prints a
//! single frame without clearing the screen.

use fuxi_sim::obs::ViewDoc;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

struct TopArgs {
    addr: String,
    interval_s: f64,
    once: bool,
}

fn parse_args() -> TopArgs {
    let mut a = TopArgs { addr: "127.0.0.1:9464".to_owned(), interval_s: 1.0, once: false };
    let argv: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < argv.len() {
        match argv[i].as_str() {
            "--addr" => {
                a.addr = argv.get(i + 1).cloned().unwrap_or(a.addr);
                i += 2;
            }
            "--interval" => {
                a.interval_s =
                    argv.get(i + 1).and_then(|v| v.parse().ok()).unwrap_or(a.interval_s);
                i += 2;
            }
            "--once" => {
                a.once = true;
                i += 1;
            }
            other => {
                eprintln!("ignoring unknown argument {other}");
                i += 1;
            }
        }
    }
    a
}

/// Minimal HTTP/1.1 GET over a fresh connection (the endpoint answers
/// `Connection: close`, so read-to-end delimits the body).
fn http_get(addr: &str, path: &str) -> std::io::Result<String> {
    let mut s = TcpStream::connect(addr)?;
    s.set_read_timeout(Some(Duration::from_secs(5)))?;
    s.set_write_timeout(Some(Duration::from_secs(5)))?;
    write!(s, "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n")?;
    let mut buf = String::new();
    s.read_to_string(&mut buf)?;
    let (head, body) = buf
        .split_once("\r\n\r\n")
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no header block"))?;
    if !head.starts_with("HTTP/1.1 200") {
        let status = head.lines().next().unwrap_or("?").to_owned();
        return Err(std::io::Error::other(format!("scrape endpoint answered {status}")));
    }
    Ok(body.to_owned())
}

fn bar(frac: f64, width: usize) -> String {
    let filled = ((frac.clamp(0.0, 1.0)) * width as f64).round() as usize;
    let mut s = String::with_capacity(width);
    for i in 0..width {
        s.push(if i < filled { '|' } else { '.' });
    }
    s
}

fn render(view: &ViewDoc, addr: &str) -> String {
    let s = &view.summary;
    let r = &s.rollup;
    let mut out = String::with_capacity(4096);
    out.push_str(&format!(
        "fuxitop — {addr}   epoch {}   agents {}   jobs live {}   reports {}\n",
        r.master_epoch, s.agents, s.jobs_live, s.reports_received,
    ));
    out.push_str(&format!(
        "jobs  {:>6.1}/s   finished {:>8}   submitted {:>8}   instances {:>7.1}/s\n",
        r.jobs_per_sec, r.jobs_finished_total, r.jobs_submitted_total, s.instances_per_sec,
    ));
    out.push_str(&format!(
        "cpu   [{}] {:5.1}%   mem [{}] {:5.1}%   frag {:4.2}\n",
        bar(s.util_cpu, 20),
        s.util_cpu * 100.0,
        bar(s.util_mem, 20),
        s.util_mem * 100.0,
        s.frag_ratio,
    ));
    out.push_str(&format!(
        "sched p50 {:>8.1}us  p95 {:>8.1}us  p99 {:>8.1}us  ({} decisions/win)   \
         waiting {}   pending {} (oldest {:.1}s)\n",
        r.sched_p50_s * 1e6,
        r.sched_p95_s * 1e6,
        r.sched_p99_s * 1e6,
        r.sched_count_win,
        r.waiting_entries,
        s.pending_instances,
        s.oldest_pending_age_s,
    ));
    out.push_str(&format!("mail  depth {}   hwm {}\n", s.mailbox_depth, s.mailbox_hwm));

    if view.alerts.is_empty() {
        out.push_str(&format!("\nno active alerts ({} raised total)\n", s.alerts_total));
    } else {
        out.push_str(&format!(
            "\nALERTS ({} active, {} raised total):\n",
            view.alerts.len(),
            s.alerts_total
        ));
        for al in &view.alerts {
            out.push_str(&format!(
                "  !! {}  value {:.3} over threshold {:.3} since t={:.1}s\n",
                al.rule.name(),
                al.value,
                al.threshold,
                al.t_s,
            ));
        }
    }

    let mut agents: Vec<_> = view.agents.iter().collect();
    agents.sort_by(|a, b| b.load.total_cmp(&a.load));
    out.push_str(&format!("\nbusiest agents ({} reporting):\n", agents.len()));
    out.push_str("  machine  workers  used_cpu_m  used_mem_mb    load  starts  exits  launch_fail\n");
    for a in agents.iter().take(8) {
        out.push_str(&format!(
            "  a{:<7} {:>7} {:>11} {:>12} {:>7.2} {:>7} {:>6} {:>12}\n",
            a.machine,
            a.workers,
            a.used_cpu_milli,
            a.used_mem_mb,
            a.load,
            a.worker_starts,
            a.worker_exits,
            a.launch_failures,
        ));
    }

    let mut jobs: Vec<_> = view.jobs.iter().collect();
    jobs.sort_by_key(|j| std::cmp::Reverse(j.pending_instances));
    out.push_str(&format!("\njobs ({} reporting):\n", jobs.len()));
    out.push_str("  app/job     tasks     instances (run/done/total)  workers  pending\n");
    for j in jobs.iter().take(8) {
        out.push_str(&format!(
            "  {:>4}/{:<5} {:>4}/{:<4}  {:>10}/{:<6}/{:<8} {:>8} {:>8}\n",
            j.app,
            j.job,
            j.tasks_finished,
            j.tasks_total,
            j.instances_running,
            j.instances_finished,
            j.instances_total,
            j.workers_active,
            j.pending_instances,
        ));
    }
    out
}

fn main() {
    let args = parse_args();
    loop {
        let frame = match http_get(&args.addr, "/json") {
            Ok(body) => match serde_json::from_str(&body) {
                Ok(view) => render(&view, &args.addr),
                Err(e) => format!("fuxitop: bad /json payload: {e}\n"),
            },
            Err(e) => format!("fuxitop: {} unreachable: {e}\n", args.addr),
        };
        if args.once {
            print!("{frame}");
            return;
        }
        // ANSI clear + home keeps the dashboard stable without a TUI dep.
        print!("\x1b[2J\x1b[H{frame}");
        let _ = std::io::stdout().flush();
        std::thread::sleep(Duration::from_secs_f64(args.interval_s.max(0.1)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuxi_sim::obs::{
        AgentReport, ClusterView, JobReport, MasterRollup, MetricsReport, SloAlert, SloRuleKind,
    };

    /// A frame rendered from the document the scrape endpoint serves at
    /// `/json`, through text: two agents, one live job, one active alert,
    /// second epoch.
    #[test]
    fn frame_shows_epoch_agents_jobs_and_alerts() {
        let mut v = ClusterView::default();
        for machine in [3, 7] {
            let agent = AgentReport { machine, workers: 2, ..AgentReport::default() };
            v.apply_report(0.5, &MetricsReport::Agent(agent));
        }
        let job = JobReport { app: 1, job: 42, pending_instances: 5, ..JobReport::default() };
        v.apply_report(0.6, &MetricsReport::Job(job));
        v.apply_rollup(MasterRollup { t_s: 9.0, master_epoch: 2, ..MasterRollup::default() });
        v.apply_alerts(&[SloAlert {
            rule: SloRuleKind::PendingAge,
            raised: true,
            value: 8.4,
            threshold: 4.0,
            t_s: 9.0,
        }]);

        let text = serde_json::to_string(&v.doc()).unwrap();
        let doc = serde_json::from_str(&text).expect("/json parses");
        let frame = render(&doc, "127.0.0.1:9464");
        let top = frame.lines().next().unwrap();
        assert!(top.contains("epoch 2   agents 2   jobs live 1"), "{top}");
        assert!(frame.contains("busiest agents (2 reporting)"), "{frame}");
        assert!(frame.contains("jobs (1 reporting)"), "{frame}");
        assert!(frame.contains("ALERTS (1 active, 1 raised total)"), "{frame}");
        assert!(frame.contains("!! pending_age  value 8.400 over threshold 4.000"), "{frame}");
    }
}
