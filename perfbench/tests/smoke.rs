//! Self-test: every workload at the tiny sizes, untraced and traced.
//! Each run must be correct, report exactly the metrics the benchmark
//! declares, and (for `churn`) sign exactly once per shard root an
//! update re-signs: DIJ 1 + LDM 1 + HYP 2 = 4.

use perfbench::report::{per_layer_names, END_TO_END};
use perfbench::WORKLOADS;
use std::process::Command;

/// Runs `workload` at the tiny sizes and returns its last output line.
fn run(workload: &str, trace: u8) -> String {
    let work =
        std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{trace}"));
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--tiny",
        ])
        .args(["--trace", &trace.to_string()])
        .arg("--work-dir")
        .arg(&work)
        .output()
        .expect("run the benchmark binary");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} exited with {}:\n{stdout}",
        out.status
    );
    assert!(!work.exists(), "{workload} left its work directory behind");
    stdout.lines().last().expect("a result line").to_string()
}

/// The value of metric `name` in a result line.
fn value(line: &str, name: &str) -> f64 {
    let key = format!("\"{name}\": {{\"value\": ");
    let at = line
        .find(&key)
        .unwrap_or_else(|| panic!("{name} missing from {line}"))
        + key.len();
    let end = at + line[at..].find(',').expect("value ends with a comma");
    line[at..end].parse().expect("numeric value")
}

fn check(workload: &str) {
    let plain = run(workload, 0);
    let traced = run(workload, 1);
    for line in [&plain, &traced] {
        assert!(
            line.starts_with("{\"correct\": true, "),
            "{workload}: {line}"
        );
        assert!(line.contains("\"failed\": 0, "), "{workload}: {line}");
    }
    for &(name, unit) in END_TO_END {
        assert!(value(&plain, name) > 0.0, "{workload}: {name} is 0");
        assert!(plain.contains(&format!("\"unit\": \"{unit}\"")));
    }
    assert_eq!(plain.matches("\"value\"").count(), END_TO_END.len());
    let layers = per_layer_names();
    for (name, _) in &layers {
        value(&traced, name);
    }
    assert_eq!(traced.matches("\"value\"").count(), layers.len());
    assert_eq!(value(&traced, "failed_frac"), 0.0);
    if workload == "churn" {
        assert_eq!(value(&traced, "rsa.signs_per_update"), 4.0);
        assert!(value(&traced, "update_p50_ms") > 0.0);
    }
    if workload == "cold-start" {
        assert!(value(&traced, "cold_start_ms") > 0.0);
        assert!(value(&traced, "store.faults_per_query") > 0.0);
    }
}

#[test]
fn serve_smoke() {
    check("serve");
}

#[test]
fn churn_smoke() {
    check("churn");
}

#[test]
fn cold_start_smoke() {
    check("cold-start");
}

/// `BENCHMARK.json` declares exactly the metrics the binary reports.
#[test]
fn benchmark_json_matches_the_binary() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let layers = per_layer_names();
    for &(name, unit) in END_TO_END {
        assert!(
            json.contains(&format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "{name}"
        );
    }
    for (name, unit) in &layers {
        assert!(
            json.contains(&format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "{name}"
        );
    }
    for w in WORKLOADS {
        assert!(
            json.contains(&format!("{{\"name\": \"{w}\", \"why\": ")),
            "{w}"
        );
    }
    let declared = json.matches("{\"name\": ").count();
    assert_eq!(declared, WORKLOADS.len() + END_TO_END.len() + layers.len());
}
