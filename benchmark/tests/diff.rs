//! `flit-benchmark diff` must not pass on part of the data: a listed workload
//! or metric that a set has no run for fails the comparison, and a file that
//! is not a full-size run record is an error rather than skipped.

use std::path::{Path, PathBuf};
use std::process::Command;

const SPEC: &str = r#"{
  "run_seconds": 1,
  "workloads": [{"name": "w1", "why": ""}, {"name": "w2", "why": ""}],
  "end_to_end": [
    {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.1}
  ]
}"#;

fn record(workload: &str, seed: u64, smoke: bool, metrics: &[(&str, f64)]) -> String {
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(name, value)| format!("\"{name}\": {{\"value\": {value}, \"unit\": \"x\"}}"))
        .collect();
    format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": 0, \"smoke\": {smoke}, \
         \"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// A fresh directory under the test's scratch space holding `files`.
fn set(name: &str, files: &[(&str, String)]) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for (file, text) in files {
        std::fs::write(dir.join(file), text).unwrap();
    }
    dir
}

fn diff(a: &Path, b: &Path, aa: bool) -> (Option<i32>, String) {
    static SPEC_FILE: std::sync::OnceLock<PathBuf> = std::sync::OnceLock::new();
    let spec = SPEC_FILE.get_or_init(|| {
        set("spec", &[("BENCHMARK.json", SPEC.to_string())]).join("BENCHMARK.json")
    });
    let output = Command::new(env!("CARGO_BIN_EXE_flit-benchmark"))
        .arg("diff")
        .args([a, b])
        .arg("--spec")
        .arg(spec)
        .args(aa.then_some("--aa"))
        .output()
        .expect("running the benchmark binary");
    let text = String::from_utf8_lossy(&output.stdout).into_owned()
        + &String::from_utf8_lossy(&output.stderr);
    (output.status.code(), text)
}

const BOTH: [(&str, f64); 2] = [("rate", 10.0), ("setup_s", 1.0)];

#[test]
fn a_complete_pair_of_sets_is_ok_and_a_partial_one_is_not() {
    let full = |name| {
        set(
            name,
            &[
                ("w1.json", record("w1", 1, false, &BOTH)),
                ("w2.json", record("w2", 1, false, &BOTH)),
            ],
        )
    };
    let (a, b) = (full("full-a"), full("full-b"));
    let (code, text) = diff(&a, &b, true);
    assert_eq!(code, Some(0), "{text}");

    // A whole workload absent from one set.
    let no_w2 = set("no-w2", &[("w1.json", record("w1", 1, false, &BOTH))]);
    for aa in [false, true] {
        let (code, text) = diff(&a, &no_w2, aa);
        assert_eq!(code, Some(1), "{text}");
        assert!(text.contains("missing"), "{text}");
    }

    // One metric absent from every run of a workload.
    let no_setup = set(
        "no-setup",
        &[
            ("w1.json", record("w1", 1, false, &BOTH)),
            ("w2.json", record("w2", 1, false, &BOTH[..1])),
        ],
    );
    let (code, text) = diff(&a, &no_setup, true);
    assert_eq!(code, Some(1), "{text}");
}

#[test]
fn a_file_that_is_not_a_full_size_run_record_is_an_error() {
    let good = set("good", &[("w1.json", record("w1", 1, false, &BOTH))]);
    let stray = set(
        "stray",
        &[
            ("w1.json", record("w1", 1, false, &BOTH)),
            ("notes.json", "{\"nproc\": 2}".to_string()),
        ],
    );
    let smoke = set("smoke", &[("w1.json", record("w1", 1, true, &BOTH))]);
    for bad in [&stray, &smoke] {
        let (code, text) = diff(&good, bad, false);
        assert_eq!(code, Some(2), "{text}");
    }
}
