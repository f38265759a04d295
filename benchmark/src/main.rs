//! `fuxi-benchmark`: one job's journey through Fuxi, end to end on four
//! workloads, with a per-layer traced run. See `README.md` beside this
//! crate for every metric and workload and the reason it exists.
//!
//! ```text
//! fuxi-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! fuxi-benchmark --all [--seed N] [--seconds S]
//! fuxi-benchmark --repeat-check [--runs N] [--seed N] [--seconds S]
//! fuxi-benchmark --wire-census
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed`, and every end-to-end metric (`--trace 0`, tracer
//! off) or every per-layer metric (`--trace 1`, tracer on).

mod census;
mod dist;
mod jobs;
mod layers;
mod live;
mod probes;
mod report;
mod sim_synth;
mod stages;
mod stats;
mod wire_mix;

use report::Outcome;
use std::process::ExitCode;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["sim_synth", "live_null", "dist_null", "live_failover"];

/// `run_seconds` of `BENCHMARK.json`: what a run measures for by default.
const DEFAULT_SECONDS: f64 = 20.0;

/// Options of one run.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Feeds the job generator only.
    pub seed: u64,
    /// Wall seconds of measured phase, summed over repetitions.
    pub seconds: f64,
    /// Tracer on, per-layer metrics out.
    pub traced: bool,
    /// Tiny sizes, for `cargo test`.
    pub smoke: bool,
}

enum Mode {
    One(String),
    All,
    RepeatCheck { runs: usize },
    WireCensus,
    Child { index: usize, hub: String },
}

struct Cli {
    mode: Mode,
    opts: RunOpts,
}

fn parse_cli(argv: &[String]) -> Result<Cli, String> {
    let mut workload = None;
    let mut mode = None;
    let mut child = None;
    let mut hub = None;
    let mut seconds = None;
    let mut runs = None;
    let mut opts = RunOpts {
        seed: 2014,
        seconds: DEFAULT_SECONDS,
        traced: false,
        smoke: false,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => workload = Some(value("a workload name")?.clone()),
            "--seed" => {
                opts.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds {s} is outside (0, 60]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                opts.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => opts.smoke = true,
            "--all" => mode = Some(Mode::All),
            "--repeat-check" => mode = Some(Mode::RepeatCheck { runs: 1 }),
            "--runs" => match value("a count")?.parse::<usize>() {
                Ok(n) if n >= 1 => runs = Some(n),
                _ => return Err("--runs takes a count of at least 1".into()),
            },
            "--wire-census" => mode = Some(Mode::WireCensus),
            "--child" => {
                child = Some(
                    value("a node index")?
                        .parse()
                        .map_err(|e| format!("--child: {e}"))?,
                )
            }
            "--hub" => hub = Some(value("an address")?.clone()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    // Smoke runs measure for a second or two unless told otherwise.
    opts.seconds = seconds.unwrap_or(if opts.smoke { 2.0 } else { DEFAULT_SECONDS });
    let mode = match (mode, workload, child, hub) {
        (None, Some(w), Some(index), Some(hub)) if w == "dist_null" => Mode::Child { index, hub },
        (None, Some(w), None, None) if WORKLOADS.contains(&w.as_str()) => Mode::One(w),
        (None, Some(w), None, None) => {
            return Err(format!("unknown workload {w}; one of {WORKLOADS:?}"))
        }
        (Some(m), None, None, None) => m,
        _ => {
            return Err(
                "give exactly one of --workload, --all, --repeat-check, --wire-census".into(),
            )
        }
    };
    let mode = match (mode, runs) {
        (Mode::RepeatCheck { .. }, runs) => Mode::RepeatCheck {
            runs: runs.unwrap_or(1),
        },
        (mode, None) => mode,
        (_, Some(_)) => return Err("--runs goes with --repeat-check".into()),
    };
    Ok(Cli { mode, opts })
}

/// Runs one workload and folds in the probes of the layers it exercises.
fn run_workload(name: &str, opts: &RunOpts) -> Outcome {
    let mut measured = match name {
        "sim_synth" => sim_synth::run(&sim_synth::SimParams::new(opts.smoke), opts),
        "live_null" => live::run(&live::LiveParams::live_null(opts.smoke), opts),
        "dist_null" => dist::run(&live::LiveParams::dist_null(opts.smoke), opts),
        "live_failover" => live::run(&live::LiveParams::live_failover(opts.smoke), opts),
        other => unreachable!("workload {other} passed validation"),
    };
    // The CPU-bound pair is per-layer; an untraced run still says it here.
    eprintln!(
        "fuxi-benchmark[{name}]: saturated {:.1} jobs/s at {:.2} ms CPU per job, tracer {}",
        stats::median(&measured.saturated_rates),
        stats::median(&measured.cpu_ms_per_job),
        if opts.traced { "on" } else { "off" }
    );
    let probes = if opts.traced {
        probes::run(name, opts.smoke, &mut measured.errors)
    } else {
        Default::default()
    };
    let outcome = Outcome::new(measured, opts.traced, &probes);
    for e in &outcome.errors {
        eprintln!("fuxi-benchmark[{name}]: CHECK FAILED — {e}");
    }
    outcome
}

/// This binary again, on `name` with `opts`: how `--all`/`--repeat-check`
/// start their runs and `dist_null` its leaf processes.
pub fn rerun(name: &str, opts: &RunOpts) -> std::io::Result<std::process::Command> {
    let mut cmd = std::process::Command::new(std::env::current_exe()?);
    cmd.args(["--workload", name, "--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if opts.traced { "1" } else { "0" }]);
    if opts.smoke {
        cmd.arg("--smoke");
    }
    Ok(cmd)
}

/// Runs one workload as the driver does: in a process of its own, so that
/// `peak_rss_mb` is that run's and the address-space layout is a fresh
/// draw. A run that dies without a result counts as incorrect.
fn run_in_child(name: &str, opts: &RunOpts) -> Outcome {
    let run = || -> Option<Outcome> {
        // stderr is inherited: progress and failed checks stay visible.
        let mut cmd = rerun(name, opts).ok()?;
        let out = cmd.stderr(std::process::Stdio::inherit()).output().ok()?;
        Outcome::from_json_line(String::from_utf8_lossy(&out.stdout).lines().last()?)
    };
    run().unwrap_or_else(|| {
        eprintln!("fuxi-benchmark[{name}]: run produced no result");
        Outcome {
            correct: false,
            attempted: 1,
            failed: 0,
            metrics: Vec::new(),
            errors: Vec::new(),
        }
    })
}

/// `--all`: every workload untraced then traced, one readable block each.
fn run_all(opts: &RunOpts) -> bool {
    let mut ok = true;
    for name in WORKLOADS {
        for traced in [false, true] {
            let o = run_in_child(
                name,
                &RunOpts {
                    traced,
                    ..opts.clone()
                },
            );
            ok &= o.correct;
            println!(
                "== {name} ({}) correct={} attempted={} failed={}",
                if traced {
                    "traced, per layer"
                } else {
                    "untraced, end to end"
                },
                o.correct,
                o.attempted,
                o.failed
            );
            for (metric, value, unit) in &o.metrics {
                println!("{metric:<44} {value:>16.4} {unit}");
            }
        }
    }
    ok
}

/// `--repeat-check [--runs N]`: two sets of N runs of every workload, same
/// code, run `i` of either set on seed `--seed + i` — the acceptance
/// procedure of this benchmark. For each end-to-end metric it prints both
/// sets' medians, how much worse the second is than the first, and (N ≥ 4)
/// each set's spread: the distance between first and third quartile as a
/// share of the median. A worsening or a spread beyond the metric's bound
/// (`setup_s`: worsening only) fails the check. Its output is what fixed
/// the bounds in `BENCHMARK.json`.
fn repeat_check(opts: &RunOpts, runs: usize) -> bool {
    let mut ok = true;
    println!(
        "{:<14} {:<20} {:>11} {:>11} {:>8} {:>8} {:>8} {:>6}",
        "workload", "metric", "median 1", "median 2", "worse", "spread 1", "spread 2", "bound"
    );
    for name in WORKLOADS {
        let mut sets: [Vec<Outcome>; 2] = [Vec::new(), Vec::new()];
        for set in &mut sets {
            for i in 0..runs {
                let o = run_in_child(
                    name,
                    &RunOpts {
                        seed: opts.seed + i as u64,
                        ..opts.clone()
                    },
                );
                ok &= o.correct;
                set.push(o);
            }
        }
        for &(metric, _, better, bound) in report::END_TO_END {
            let values =
                |set: &[Outcome]| set.iter().map(|o| o.value(metric)).collect::<Vec<f64>>();
            let (a, b) = (values(&sets[0]), values(&sets[1]));
            let (x, y) = (stats::median(&a), stats::median(&b));
            let worse = if better == "lower" {
                y / x - 1.0
            } else {
                1.0 - y / x
            };
            let (sa, sb) = (stats::quartile_spread(&a), stats::quartile_spread(&b));
            let miss = worse > bound || (metric != "setup_s" && sa.max(sb) > bound);
            ok &= !miss;
            println!(
                "{name:<14} {metric:<20} {x:>11.4} {y:>11.4} {:>+7.1}% {:>7.1}% {:>7.1}% {:>5.0}%{}",
                worse * 100.0,
                sa * 100.0,
                sb * 100.0,
                bound * 100.0,
                if miss { "  MISS" } else { "" }
            );
        }
    }
    ok
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&argv) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("fuxi-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    #[cfg(debug_assertions)]
    eprintln!("fuxi-benchmark: WARNING — debug build; only --release numbers mean anything");
    let ok = match cli.mode {
        Mode::Child { index, hub } => {
            return dist::child_main(
                &live::LiveParams::dist_null(cli.opts.smoke),
                cli.opts.traced,
                index,
                &hub,
            )
        }
        Mode::One(name) => {
            let o = run_workload(&name, &cli.opts);
            println!("{}", o.to_json_line());
            o.correct
        }
        Mode::All => run_all(&cli.opts),
        Mode::RepeatCheck { runs } => repeat_check(&cli.opts, runs),
        Mode::WireCensus => census::run(),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_driver_command_line() {
        let c = cli(&[
            "--workload",
            "live_null",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert!(matches!(c.mode, Mode::One(ref w) if w == "live_null"));
        assert_eq!(
            (c.opts.seed, c.opts.seconds, c.opts.traced),
            (7, 10.0, true)
        );
        let c = cli(&["--workload", "sim_synth"]).unwrap();
        assert_eq!(
            (c.opts.seconds, c.opts.traced, c.opts.smoke),
            (DEFAULT_SECONDS, false, false)
        );
    }

    #[test]
    fn rejects_bad_input_at_the_door() {
        for bad in [
            &["--workload", "nope"][..],
            &["--workload", "live_null", "--seconds", "0"],
            &["--workload", "live_null", "--seconds", "61"],
            &["--workload", "live_null", "--trace", "2"],
            &["--workload", "live_null", "--seed"],
            &["--workload", "live_null", "--all"],
            &["--frobnicate"],
            &[],
            &["--workload", "live_null", "--child", "1"],
            &["--repeat-check", "--runs", "0"],
            &["--workload", "live_null", "--traced"],
            &["--all", "--runs", "3"],
        ] {
            assert!(cli(bad).is_err(), "{bad:?} should be rejected");
        }
    }
}
