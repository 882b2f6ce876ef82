//! Drives the built `flit-benchmark` binary in `--smoke` mode: all four
//! workloads untraced, one of them traced, one of them twice on one seed.
//! Only what a seed fixes is asserted (exit codes, the metric set, counts).
//!
//! One test function on purpose: the runs time themselves, and `cargo test`
//! would otherwise run them side by side on the same cores.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use flit_benchmark::json::{self, Value};
use flit_benchmark::spec::WORKLOADS;

struct Run {
    attempted: f64,
    failed: f64,
    correct: bool,
    metrics: BTreeMap<String, (f64, String)>,
}

/// The binary as the driver starts it: from the repository root, with
/// `--workload`, `--seed`, `--seconds` and `--trace`.
fn benchmark(workload: &str, seconds: u64, trace: bool) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_flit-benchmark"));
    cmd.current_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join(".."))
        .args(["--workload", workload, "--seed", "7"])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    cmd
}

fn smoke(workload: &str, run_seconds: u64, trace: bool) -> Run {
    let output = benchmark(workload, run_seconds, trace)
        .arg("--smoke")
        .output()
        .expect("running the benchmark binary");
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    assert!(
        output.status.success(),
        "{workload} trace={trace} exited with {:?}:\n{stdout}",
        output.status
    );
    assert!(
        stdout.contains("not a device measurement"),
        "the header must say every time is relative to the SimNvram model"
    );
    let last = stdout.lines().last().expect("a result line");
    let doc = json::parse(last).expect("the last line is one JSON object");
    let keys: Vec<&str> = doc
        .as_obj()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    Run {
        attempted: doc.get("attempted").and_then(Value::as_f64).unwrap(),
        failed: doc.get("failed").and_then(Value::as_f64).unwrap(),
        correct: doc.get("correct") == Some(&Value::Bool(true)),
        metrics: doc
            .get("metrics")
            .and_then(Value::as_obj)
            .unwrap()
            .iter()
            .map(|(name, m)| {
                let value = m.get("value").and_then(Value::as_f64).expect("a value");
                let unit = m.get("unit").and_then(Value::as_str).expect("a unit");
                (name.clone(), (value, unit.to_string()))
            })
            .collect(),
    }
}

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `key`.
fn declared(spec: &Value, key: &str) -> Vec<(String, String)> {
    spec.get(key)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
        .iter()
        .map(|m| {
            (
                m.get("name").and_then(Value::as_str).unwrap().to_string(),
                m.get("unit").and_then(Value::as_str).unwrap().to_string(),
            )
        })
        .collect()
}

fn assert_reports(run: &Run, declared: &[(String, String)], what: &str) {
    assert!(
        run.correct && run.failed == 0.0 && run.attempted >= 1.0,
        "{what}"
    );
    let reported: Vec<&String> = run.metrics.keys().collect();
    let mut wanted: Vec<&String> = declared.iter().map(|(name, _)| name).collect();
    wanted.sort();
    assert_eq!(
        reported, wanted,
        "{what}: metric set differs from BENCHMARK.json"
    );
    for (name, unit) in declared {
        assert_eq!(&run.metrics[name].1, unit, "{what}: unit of {name}");
    }
}

#[test]
fn smoke_runs_report_every_declared_metric_and_repeat_their_counts() {
    let spec_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let spec = json::parse(&std::fs::read_to_string(spec_path).expect("BENCHMARK.json"))
        .expect("BENCHMARK.json parses");
    let end_to_end = declared(&spec, "end_to_end");
    let per_layer = declared(&spec, "per_layer");
    let listed: Vec<String> = declared_names(&spec);
    let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(
        listed, known,
        "BENCHMARK.json lists the workloads the binary knows"
    );

    let run_seconds = spec
        .get("run_seconds")
        .and_then(Value::as_f64)
        .expect("run_seconds") as u64;

    // A run's length is not the caller's to choose.
    let refused = benchmark("ht-read-mostly", run_seconds + 1, false)
        .output()
        .expect("running the benchmark binary");
    assert_eq!(refused.status.code(), Some(2));
    assert!(refused.stdout.is_empty(), "a refused run prints no result");

    let mut first = BTreeMap::new();
    for w in &WORKLOADS {
        let run = smoke(w.name, run_seconds, false);
        assert_reports(&run, &end_to_end, w.name);
        for (name, (value, _)) in &run.metrics {
            assert!(
                *value > 0.0,
                "{}: end-to-end metric {name} is {value}",
                w.name
            );
        }
        first.insert(w.name, run);
    }

    // A seed fixes the op stream, so these repeat to the bit.
    let again = smoke("ht-update-heavy", run_seconds, false);
    for exact in ["pwbs_per_op", "pfences_per_op", "space_amp"] {
        assert_eq!(
            again.metrics[exact].0.to_bits(),
            first["ht-update-heavy"].metrics[exact].0.to_bits(),
            "{exact} differs between two runs of one seed"
        );
    }

    // The traced run checks for itself that it reproduced the untraced
    // replies and counters; a failed check is a non-zero exit, which `smoke`
    // has already refused. Whether the spans reconcile with the untraced time
    // is a wall-clock question that only full-size runs answer (and enforce):
    // nothing timed is asserted here.
    let traced = smoke("kv-service", run_seconds, true);
    assert_reports(&traced, &per_layer, "kv-service traced");
    let mailbox = traced.metrics["queues.pfences_per_request"].0;
    assert!(
        mailbox >= 3.5,
        "the mailbox accounts for {mailbox} fences per request"
    );
}

fn declared_names(spec: &Value) -> Vec<String> {
    spec.get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap().to_string())
        .collect()
}
