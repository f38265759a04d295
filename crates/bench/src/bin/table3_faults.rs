//! Regenerates **Table 3 / §5.4** — fault-injection slowdowns: the same
//! sort-style job under no faults, the 5% mix, the 10% mix, and 5% plus a
//! FuxiMaster kill. Paper: 1437 s baseline, +15.7%, +19.6%, and ~+13 s for
//! the master failover.
//!
//! Run: `cargo run --release -p fuxi-bench --bin table3_faults -- [--scale 0.2]`
//! (scale 1.0 = the paper's 300-node cluster)
//!
//! With `--trace-out <dir>`, the master-kill scenario additionally writes
//! its observability stream — `trace.jsonl` (event log for `trace_dump`),
//! `chrome_trace.json` (load it in Perfetto / `chrome://tracing`), and
//! `metrics.json` — and verifies that the failover fired a flight dump.

use fuxi_bench::tracetool;
use fuxi_cluster::report::print_table;
use fuxi_cluster::{fault_plan, Cluster, ClusterConfig, FaultRatios, SubmitOpts};
use fuxi_proto::topology::MachineSpec;
use fuxi_proto::ResourceVec;
use fuxi_sim::SimTime;
use fuxi_workloads::sortbench::{graysort_job, SortParams};
use std::collections::BTreeSet;

struct Scenario {
    name: &'static str,
    ratios: Option<FaultRatios>,
    kill_master: bool,
    fault_seed: u64,
}

fn run_scenario(
    machines: usize,
    data_scale: f64,
    seed: u64,
    sc: &Scenario,
    fault_window: (f64, f64),
    trace_out: Option<&str>,
) -> f64 {
    let mut c = Cluster::new(ClusterConfig {
        n_machines: machines,
        rack_size: 30,
        machine_spec: MachineSpec {
            resources: ResourceVec::cores_mb(24, 96 * 1024),
            ..MachineSpec::default()
        },
        seed,
        standby_master: true,
        ..ClusterConfig::default()
    });
    let p = SortParams::graysort(data_scale);
    c.pangu.create(&p.input_file, p.total_gb * 1024.0, p.chunk_mb, 3, &c.topo);
    let job = c.submit(&graysort_job(&p), &SubmitOpts::default());
    if let Some(ratios) = sc.ratios {
        // Faults land while the job is in full flight.
        let plan = fault_plan(
            machines,
            ratios,
            SimTime::from_secs_f64(fault_window.0),
            SimTime::from_secs_f64(fault_window.1),
            seed + sc.fault_seed,
            &BTreeSet::new(),
        );
        plan.install(&mut c.world);
    }
    if sc.kill_master {
        // The scripted FuxiMasterFailure of §5.4: run to t=60, then kill
        // whoever is primary; the hot standby takes over.
        c.run_until(SimTime::from_secs(60));
        c.kill_primary_master();
    }
    let done = c.run_until_job_done(job, SimTime::from_secs(100_000));
    let (ok, at) = done.expect("job completes under faults");
    assert!(ok, "{}: job must succeed", sc.name);
    if sc.kill_master {
        // The failover must have frozen the flight recorder: that dump is
        // the forensic record Table 3's "+13 s" claim is reconstructed from.
        let tracer = c.world.tracer();
        assert!(
            tracer.dumps.iter().any(|d| d.reason == "master_failover"),
            "{}: expected a master_failover flight dump",
            sc.name
        );
        if let Some(dir) = trace_out {
            export_run(&c, dir);
        }
    }
    let submitted = c.job_state(job).map(|s| s.submitted_s).unwrap_or(0.0);
    at - submitted
}

/// Writes the run's observability stream into `dir`.
fn export_run(c: &Cluster, dir: &str) {
    std::fs::create_dir_all(dir).expect("create trace-out dir");
    let t = c.world.tracer();
    let write = |name: &str, contents: String| {
        let path = format!("{dir}/{name}");
        std::fs::write(&path, contents).expect("write trace export");
        println!("  wrote {path}");
    };
    write("trace.jsonl", tracetool::export_jsonl(t));
    write("chrome_trace.json", tracetool::export_chrome_trace(t));
    write("metrics.json", serde_json::to_string(c.world.metrics()).expect("metrics serialize"));
}

fn main() {
    let args = fuxi_bench::Args::parse(0.2, 0);
    let machines = ((300.0 * args.scale).round() as usize).max(20);
    // Size the sort so per-node load mirrors the paper's fault experiment
    // (several minutes of work).
    let data_scale = machines as f64 / 5000.0;
    println!(
        "fault-injection experiment: {} machines (paper: 300), {:.2} TB sort",
        machines,
        100.0 * data_scale
    );
    let scenarios = [
        Scenario {
            name: "no faults",
            ratios: None,
            kill_master: false,
            fault_seed: 0,
        },
        Scenario {
            name: "5% faults",
            ratios: Some(FaultRatios::five_percent()),
            kill_master: false,
            fault_seed: 1000,
        },
        Scenario {
            name: "10% faults",
            ratios: Some(FaultRatios::ten_percent()),
            kill_master: false,
            fault_seed: 2000,
        },
        Scenario {
            name: "5% faults + FuxiMaster kill",
            ratios: Some(FaultRatios::five_percent()),
            kill_master: true,
            fault_seed: 1000,
        },
    ];
    let mut times = Vec::new();
    let mut fault_window = (30.0, 200.0);
    for sc in &scenarios {
        println!("running: {} ...", sc.name);
        let t = run_scenario(
            machines,
            data_scale,
            args.seed,
            sc,
            fault_window,
            args.trace_out.as_deref(),
        );
        println!("  finished in {t:.0} s");
        if times.is_empty() {
            // Spread faults through the bulk of the (fault-free) runtime,
            // as in the paper's "running period" injection.
            fault_window = (0.1 * t, 0.7 * t);
        }
        times.push(t);
    }
    let base = times[0];
    let slow = |t: f64| 100.0 * (t / base - 1.0);
    print_table(
        "Table 3 / §5.4: fault handling",
        &["scenario", "paper", "measured"],
        &[
            fuxi_bench::row("no faults", "1437 s", &format!("{:.0} s", times[0])),
            fuxi_bench::row(
                "5% faults (2 down / 2 partial / 11 slow per 300)",
                "1662 s (+15.7%)",
                &format!("{:.0} s (+{:.1}%)", times[1], slow(times[1])),
            ),
            fuxi_bench::row(
                "10% faults (2 down / 4 partial / 23 slow per 300)",
                "1762 s (+19.6%)",
                &format!("{:.0} s (+{:.1}%)", times[2], slow(times[2])),
            ),
            fuxi_bench::row(
                "5% faults + FuxiMaster kill",
                "+13 s vs 5% run",
                &format!("{:+.0} s vs 5% run", times[3] - times[1]),
            ),
        ],
    );
    println!(
        "\nShape claims under test: the job always completes; slowdown grows\n\
         sub-linearly with the fault rate (blacklisting + backup instances\n\
         absorb most of it); killing the master adds only seconds (failover\n\
         is user-transparent: running workers never stop)."
    );
}
