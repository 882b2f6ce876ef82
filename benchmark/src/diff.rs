//! `flit-benchmark diff <setA> <setB> [--aa]`: compare two directories of run
//! files (written by `--out`) metric by metric against the bounds fixed in
//! `BENCHMARK.json`.
//!
//! Each workload × end-to-end metric is `ok`, `regressed` (set B's median is
//! worse than set A's by more than the bound), `unresolved` (a set's own
//! interquartile spread is wider than the bound, so nothing can be said) or
//! `missing` (a set has no run that reports it). Every `.json` file of a set
//! must be a full-size run record; a file that is not one is an error, never
//! skipped, so a comparison cannot pass on part of the data.
//! With `--aa` — two sets of the *same* commit — anything but `ok` is a
//! failure, and the counts that must repeat exactly for one seed are checked
//! to be bit-equal across every run of that seed.

use std::collections::BTreeMap;
use std::path::Path;

use crate::contract;
use crate::json::{self, Value};
use crate::stats::quartiles_exclusive;

/// Metrics that are pure functions of (workload, seed).
const EXACT_PER_SEED: [&str; 3] = ["pwbs_per_op", "pfences_per_op", "space_amp"];

struct RunFile {
    workload: String,
    seed: u64,
    correct: bool,
    metrics: BTreeMap<String, f64>,
}

/// The untraced runs (`"trace": 0`) among the run records `dir` holds.
fn load_set(dir: &Path) -> Result<Vec<RunFile>, String> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();
    let mut runs = Vec::new();
    for path in paths {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let (Some(workload), Some(seed), Some(trace), Some(smoke), Some(metrics)) = (
            doc.get("workload").and_then(Value::as_str),
            doc.get("seed").and_then(Value::as_f64),
            doc.get("trace").and_then(Value::as_f64),
            doc.get("smoke"),
            doc.get("metrics").and_then(Value::as_obj),
        ) else {
            return Err(format!("{}: not a run record", path.display()));
        };
        if *smoke != Value::Bool(false) {
            return Err(format!(
                "{}: a smoke run is a tenth the size and compares with nothing",
                path.display()
            ));
        }
        if trace != 0.0 {
            continue; // per-layer metrics: kept beside the set, not compared
        }
        runs.push(RunFile {
            workload: workload.to_string(),
            seed: seed as u64,
            correct: doc.get("correct") == Some(&Value::Bool(true)),
            metrics: metrics
                .iter()
                .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
                .collect(),
        });
    }
    Ok(runs)
}

fn values(runs: &[RunFile], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.workload == workload)
        .filter_map(|r| r.metrics.get(metric).copied())
        .collect()
}

/// Interquartile spread as a share of the median (0 for fewer than 2 runs).
fn spread(q: [f64; 3], n: usize) -> f64 {
    if n < 2 || q[1] == 0.0 {
        0.0
    } else {
        (q[2] - q[0]) / q[1].abs()
    }
}

/// Run the comparison, print the table, and return the process exit code.
pub fn run(args: &[String]) -> Result<i32, String> {
    let mut dirs = Vec::new();
    let mut aa = false;
    let mut spec_path = contract::FILE.to_string();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--aa" => aa = true,
            "--spec" => spec_path = it.next().ok_or("--spec needs a path")?.clone(),
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            other => dirs.push(other.to_string()),
        }
    }
    let [dir_a, dir_b] = dirs.as_slice() else {
        return Err(
            "usage: flit-benchmark diff <setA> <setB> [--aa] [--spec BENCHMARK.json]".into(),
        );
    };
    let spec = contract::load(Path::new(&spec_path))?;
    let set_a = load_set(Path::new(dir_a))?;
    let set_b = load_set(Path::new(dir_b))?;
    if set_a.is_empty() || set_b.is_empty() {
        return Err("a set holds no untraced run files".into());
    }

    let (mut not_ok, mut missing) = (0, 0);
    println!(
        "{:<18} {:<16} {:>12} {:>12} {:>8} {:>7} {:>7} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "worse", "iqr A", "iqr B", "bound"
    );
    for workload in &spec.workloads {
        for m in &spec.end_to_end {
            let (a, b) = (
                values(&set_a, workload, &m.name),
                values(&set_b, workload, &m.name),
            );
            if a.is_empty() || b.is_empty() {
                missing += 1;
                println!(
                    "{:<18} {:<16} {} run(s) in A, {} in B report it  missing",
                    workload,
                    m.name,
                    a.len(),
                    b.len()
                );
                continue;
            }
            let (qa, qb) = (quartiles_exclusive(&a), quartiles_exclusive(&b));
            let worse = if qa[1] == 0.0 {
                0.0
            } else if m.lower_is_better {
                (qb[1] - qa[1]) / qa[1].abs()
            } else {
                (qa[1] - qb[1]) / qa[1].abs()
            };
            let (sa, sb) = (spread(qa, a.len()), spread(qb, b.len()));
            let verdict = if worse > m.bound {
                "regressed"
            } else if sa.max(sb) > m.bound {
                "unresolved"
            } else {
                "ok"
            };
            not_ok += i32::from(verdict != "ok");
            println!(
                "{:<18} {:<16} {:>12.5} {:>12.5} {:>+7.2}% {:>6.2}% {:>6.2}% {:>5.1}%  {}",
                workload,
                m.name,
                qa[1],
                qb[1],
                worse * 100.0,
                sa * 100.0,
                sb * 100.0,
                m.bound * 100.0,
                verdict
            );
        }
    }

    let incorrect = set_a.iter().chain(&set_b).filter(|r| !r.correct).count();
    if incorrect > 0 {
        println!("{incorrect} run(s) reported correct: false");
    }
    let mut inexact = 0;
    if aa {
        // One (workload, seed) fixes the op stream, so these must be bit-equal.
        let mut by_seed: BTreeMap<(&str, u64, &str), Vec<u64>> = BTreeMap::new();
        for run in set_a.iter().chain(&set_b) {
            for metric in EXACT_PER_SEED {
                if let Some(v) = run.metrics.get(metric) {
                    by_seed
                        .entry((&run.workload, run.seed, metric))
                        .or_default()
                        .push(v.to_bits());
                }
            }
        }
        for ((workload, seed, metric), bits) in by_seed {
            if bits.iter().any(|b| *b != bits[0]) {
                inexact += 1;
                println!("{workload} seed {seed}: {metric} differs between runs of one seed");
            }
        }
    }
    let failed = incorrect > 0 || missing > 0 || (aa && (not_ok > 0 || inexact > 0));
    println!(
        "{} pairing(s) not ok, {} missing, {} inexact count(s), {} incorrect run(s){}",
        not_ok,
        missing,
        inexact,
        incorrect,
        if aa { " [A/A]" } else { "" }
    );
    Ok(i32::from(failed))
}
