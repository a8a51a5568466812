//! A one-second run of every workload, untraced and traced, must answer
//! every request correctly and emit exactly the metrics `BENCHMARK.json`
//! names, each a finite number with its unit.

use std::path::{Path, PathBuf};
use std::process::Command;

use serde_json::Value;

/// Builds the release `coursenav` server into the target directory this
/// test's own binaries live in, and returns its path.
fn server() -> PathBuf {
    let bench = Path::new(env!("CARGO_BIN_EXE_coursenav-perfbench"));
    let target = bench
        .parent()
        .and_then(Path::parent)
        .expect("binaries live in <target>/<profile>/");
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let status = Command::new(env!("CARGO"))
        .args(["build", "-q", "--release", "--bin", "coursenav"])
        .current_dir(&repo)
        .env("CARGO_TARGET_DIR", target)
        .status()
        .expect("cargo runs");
    assert!(status.success(), "building the server failed");
    target.join("release").join("coursenav")
}

/// The metric names `BENCHMARK.json` declares under `section`.
fn declared(section: &str) -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let spec: Value = serde_json::from_str(&text).expect("BENCHMARK.json is JSON");
    spec.get(section)
        .and_then(Value::as_array)
        .expect("a metric list")
        .iter()
        .map(|m| m["name"].as_str().expect("a metric name").to_string())
        .collect()
}

fn run(server: &Path, workload: &str, trace: &str) -> Value {
    let scratch = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{trace}"));
    std::fs::create_dir_all(&scratch).expect("scratch directory");
    let out = Command::new(env!("CARGO_BIN_EXE_coursenav-perfbench"))
        .args(["--server", server.to_str().expect("UTF-8 path")])
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            trace,
        ])
        .current_dir(&scratch)
        .output()
        .expect("the benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).expect("the result line is JSON")
}

#[test]
fn a_short_run_of_every_workload_emits_every_named_metric() {
    let server = server();
    for workload in ["browse", "explore-engine", "advise-whatif"] {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let result = run(&server, workload, trace);
            assert_eq!(
                result["correct"].as_bool(),
                Some(true),
                "{workload}: {result:?}"
            );
            assert_eq!(result["failed"].as_u64(), Some(0), "{workload}");
            assert!(result["attempted"].as_u64().unwrap_or(0) >= 1, "{workload}");
            let metrics = result["metrics"].as_object().expect("a metrics object");
            let emitted: Vec<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
            let mut want = declared(section);
            let mut got = emitted.clone();
            want.sort();
            got.sort();
            assert_eq!(got, want, "{workload} --trace {trace}: metric names");
            for (name, metric) in metrics {
                assert!(
                    metric["value"].as_f64().is_some_and(f64::is_finite),
                    "{workload}: {name} is not a finite number: {metric:?}"
                );
                assert!(
                    metric["unit"].as_str().is_some(),
                    "{workload}: {name} has no unit"
                );
            }
        }
    }
}
