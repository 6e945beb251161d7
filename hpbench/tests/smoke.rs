//! The benchmark's own tests: minimal-size runs of every workload, checked
//! against the metric lists in `BENCHMARK.json`, and determinism of the
//! simulated metrics and the digest.

use serde_json::Value;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["kernels", "train", "serve"];

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("parses")
}

/// One smoke-scale run: `(stdout, final JSON)`.
fn run(workload: &str, seed: u64, trace: bool, threads: usize) -> (String, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_hpbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "0",
        ])
        .args(["--trace", if trace { "1" } else { "0" }, "--scale", "smoke"])
        .env("RAYON_NUM_THREADS", threads.to_string())
        .output()
        .expect("benchmark binary runs");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let last = stdout.lines().last().expect("output").to_string();
    (
        stdout,
        serde_json::from_str(&last).expect("last line is JSON"),
    )
}

fn digest(stdout: &str) -> String {
    stdout
        .lines()
        .find_map(|l| l.strip_prefix("digest: "))
        .expect("digest line")
        .to_string()
}

/// Every listed metric is printed, finite, with its unit; end-to-end ones
/// are never 0.
fn assert_metrics(result: &Value, listed: &Value, nonzero: bool, what: &str) {
    let printed = result["metrics"].as_object().expect("metrics object");
    let listed = listed.as_array().expect("metric list");
    assert_eq!(printed.len(), listed.len(), "{what}: metric count");
    for m in listed {
        let name = m["name"].as_str().expect("name");
        let got = printed
            .get(name)
            .unwrap_or_else(|| panic!("{what}: {name} missing"));
        let value = got["value"]
            .as_f64()
            .unwrap_or_else(|| panic!("{what}: {name} not numeric"));
        assert!(value.is_finite(), "{what}: {name} = {value}");
        assert!(!nonzero || value != 0.0, "{what}: {name} is 0");
        assert_eq!(got["unit"], m["unit"], "{what}: {name} unit");
    }
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let doc = benchmark_json();
    for w in WORKLOADS {
        let (stdout, e2e) = run(w, 1, false, 2);
        assert_eq!(e2e["correct"], Value::Bool(true), "{w}: {stdout}");
        assert_eq!(e2e["failed"].as_u64(), Some(0), "{w}");
        assert!(e2e["attempted"].as_u64().unwrap_or(0) >= 1, "{w}");
        assert_metrics(&e2e, &doc["end_to_end"], true, w);
        assert!(stdout.contains("host: nproc="), "{w}: host stamp");
        let (traced, layers) = run(w, 1, true, 2);
        assert_metrics(&layers, &doc["per_layer"], false, w);
        assert_eq!(
            digest(&traced),
            digest(&stdout),
            "{w}: tracing changed a simulated statistic"
        );
    }
}

#[test]
fn sim_metrics_and_digest_repeat_across_runs_and_pool_sizes() {
    for w in WORKLOADS {
        let runs: Vec<(String, Value)> = [1, 2, 2].iter().map(|&t| run(w, 7, false, t)).collect();
        for (stdout, result) in &runs[1..] {
            assert_eq!(digest(stdout), digest(&runs[0].0), "{w}: digest");
            for name in ["sim_op_ms_geomean", "sim_op_ms_tail", "sim_ops_per_s"] {
                assert_eq!(
                    result["metrics"][name]["value"], runs[0].1["metrics"][name]["value"],
                    "{w}: {name}"
                );
            }
        }
    }
}

#[test]
fn seeds_change_the_inputs_and_every_workload_passes_its_checks() {
    for w in WORKLOADS {
        let (a, ra) = run(w, 2, false, 2);
        let (b, rb) = run(w, 3, false, 2);
        assert_eq!(ra["correct"], Value::Bool(true), "{w} seed 2");
        assert_eq!(rb["correct"], Value::Bool(true), "{w} seed 3");
        assert!(
            a.contains("seed=2") && b.contains("seed=3"),
            "{w}: seed printed"
        );
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_hpbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
