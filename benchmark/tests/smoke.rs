//! Runs the real binary at `--smoke` size on every workload, in both
//! modes, and holds its last line to the `BENCHMARK.json` contract.
//!
//! One test, workloads in sequence: they are wall-clock driven (leases,
//! heartbeats), and four live clusters sharing two cores would make the
//! failover smoke flaky for no gain.

use serde_json::Value;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_fuxi-benchmark");

fn contract() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    serde_json::value_from_str(&std::fs::read_to_string(path).expect(path)).expect("valid JSON")
}

/// `(name, unit)` of every metric the contract lists under `key`, sorted
/// (a result line orders its metrics by name).
fn names(contract: &Value, key: &str) -> Vec<(String, String)> {
    let mut names: Vec<_> = contract
        .get_field(key)
        .and_then(Value::as_array)
        .expect(key)
        .iter()
        .map(|m| {
            let s = |k: &str| m.get_field(k).and_then(Value::as_str).expect(k).to_owned();
            (s("name"), s("unit"))
        })
        .collect();
    names.sort();
    names
}

fn num(v: &Value) -> f64 {
    match *v {
        Value::UInt(n) => n as f64,
        Value::Int(n) => n as f64,
        Value::Float(f) => f,
        ref other => panic!("not a number: {other:?}"),
    }
}

/// Runs one smoke workload; returns its metrics as `(name, value, unit)`.
fn run(workload: &str, trace: &str) -> Vec<(String, f64, String)> {
    let out = Command::new(BIN)
        .args([
            "--workload",
            workload,
            "--seed",
            "11",
            "--smoke",
            "--trace",
            trace,
        ])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stderr}"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("a result line");
    let v = serde_json::value_from_str(last).expect("last line is JSON");
    let keys: Vec<&str> = v
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        v.get_field("correct"),
        Some(&Value::Bool(true)),
        "{workload}:\n{stderr}"
    );
    assert!(num(v.get_field("attempted").unwrap()) >= 1.0);
    assert_eq!(num(v.get_field("failed").unwrap()), 0.0);
    v.get_field("metrics")
        .and_then(Value::as_object)
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            let unit = m
                .get_field("unit")
                .and_then(Value::as_str)
                .expect("unit")
                .to_owned();
            (
                name.clone(),
                num(m.get_field("value").expect("value")),
                unit,
            )
        })
        .collect()
}

#[test]
fn every_workload_meets_the_contract_at_smoke_size() {
    let contract = contract();
    let workloads: Vec<String> = contract
        .get_field("workloads")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|w| {
            w.get_field("name")
                .and_then(Value::as_str)
                .unwrap()
                .to_owned()
        })
        .collect();
    assert_eq!(workloads.len(), 4);
    for w in &workloads {
        let e2e = run(w, "0");
        let got: Vec<_> = e2e.iter().map(|(n, _, u)| (n.clone(), u.clone())).collect();
        assert_eq!(
            got,
            names(&contract, "end_to_end"),
            "{w}: end-to-end metrics"
        );
        for (name, value, _) in &e2e {
            assert!(*value > 0.0 && value.is_finite(), "{w}: {name} = {value}");
        }

        let layers = run(w, "1");
        let got: Vec<_> = layers
            .iter()
            .map(|(n, _, u)| (n.clone(), u.clone()))
            .collect();
        assert_eq!(got, names(&contract, "per_layer"), "{w}: per-layer metrics");
        let value = |name: &str| layers.iter().find(|(n, ..)| n == name).expect(name).1;
        let active = |prefix: &str| {
            layers
                .iter()
                .any(|(n, v, _)| n.starts_with(prefix) && *v != 0.0)
        };
        assert!(value("jobs_per_s_saturated") > 0.0, "{w}");
        assert!(
            value("core.sched.decision_p50_us") > 0.0,
            "{w}: scheduler decisions in situ"
        );
        assert!(value("stage.run_ms") > 0.0, "{w}: stage breakdown");
        // The bypass predictions.
        match w.as_str() {
            "sim_synth" => {
                assert!(
                    value("sim.events_per_job") > 0.0 && value("sim.kernel.events_per_s") > 0.0
                );
                assert!(
                    !active("rt.") && !active("proto.") && !active("node."),
                    "no runtime or wire in the sim"
                );
            }
            "live_null" | "live_failover" => {
                assert!(value("rt.actors_per_job") > 0.0 && value("rt.mailbox.hop_ns") > 0.0);
                assert!(
                    !active("proto.") && !active("node.") && !active("sim."),
                    "{w}: no frame is ever encoded"
                );
            }
            "dist_null" => {
                assert!(
                    value("node.hub.frames_per_job") > 0.0
                        && value("proto.wire.bytes_per_msg") > 0.0
                );
                assert_eq!(value("node.hub.dropped_frames"), 0.0);
                assert_eq!(value("proto.wire.errors"), 0.0);
                assert!(!active("sim."));
            }
            other => panic!("unexpected workload {other}"),
        }
        let failover = w == "live_failover";
        for m in [
            "apsara.lock.takeover_s",
            "core.master.grant_stall_s",
            "core.master.rebuild_s",
        ] {
            assert_eq!(
                value(m) > 0.0,
                failover,
                "{w}: {m} is live_failover's alone"
            );
        }
        if w != "sim_synth" {
            assert!(
                (value("stage.sum_over_client_latency") - 1.0).abs() <= 0.05,
                "{w}: stages account for the latency"
            );
        }
    }
}

#[test]
fn bad_command_lines_exit_2_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--seconds", "5"],
        &["--workload", "live_null", "--seconds", "0"],
    ] {
        let out = Command::new(BIN).args(args).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
