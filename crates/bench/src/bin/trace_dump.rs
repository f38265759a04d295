//! `trace_dump` — reconstructs causal timelines from a fuxi-obs JSONL
//! export (as written by `table3_faults --trace-out <dir>` or any run
//! with `ClusterConfig.obs` enabled).
//!
//! Usage:
//!
//! ```text
//! trace_dump <trace.jsonl> [--job <id>] [--failover] [--max-events <n>]
//! ```
//!
//! With no mode flag it prints the run summary, the failover timeline,
//! and every per-job lifecycle (events elided past `--max-events`,
//! default 30). `--job <id>` prints one job's full lifecycle;
//! `--failover` prints only the failover timeline.

use fuxi_bench::tracetool::{
    failover_timeline, job_lifecycles, render_failover, render_job, span_summary, TraceLog,
};

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let mut path: Option<String> = None;
    let mut only_job: Option<u32> = None;
    let mut only_failover = false;
    let mut max_events = 30usize;
    let mut i = 1;
    while i < argv.len() {
        match argv[i].as_str() {
            "--job" => {
                only_job = argv.get(i + 1).and_then(|v| v.parse().ok());
                i += 2;
            }
            "--failover" => {
                only_failover = true;
                i += 1;
            }
            "--max-events" => {
                max_events = argv
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(max_events);
                i += 2;
            }
            other => {
                if path.is_none() && !other.starts_with("--") {
                    path = Some(other.to_owned());
                } else {
                    eprintln!("ignoring unknown argument {other}");
                }
                i += 1;
            }
        }
    }
    let Some(path) = path else {
        eprintln!("usage: trace_dump <trace.jsonl> [--job <id>] [--failover] [--max-events <n>]");
        std::process::exit(2);
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    let log = match TraceLog::parse(&text) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("parse error in {path}: {e}");
            std::process::exit(2);
        }
    };

    let jobs = job_lifecycles(&log);
    println!(
        "{}: {} events, {} spans, {} flight dumps, {} traced jobs",
        path,
        log.events.len(),
        log.spans.len(),
        log.dumps.len(),
        jobs.len()
    );

    if let Some(id) = only_job {
        match jobs.iter().find(|lc| lc.job == Some(id)) {
            Some(lc) => print!("\n{}", render_job(&log, lc, usize::MAX)),
            None => {
                eprintln!("no trace for job {id}");
                std::process::exit(1);
            }
        }
        return;
    }

    println!("\n--- failover timeline ---");
    print!("{}", render_failover(&failover_timeline(&log)));
    if only_failover {
        return;
    }

    let spans = span_summary(&log);
    if !spans.is_empty() {
        println!("\n--- span medians (wall clock) ---");
        for (kind, (n, median)) in &spans {
            println!("  {kind:<16} n={n:<8} median={:.3} us", median * 1e6);
        }
    }

    println!("\n--- job lifecycles ---");
    for lc in &jobs {
        print!("\n{}", render_job(&log, lc, max_events));
    }
}
