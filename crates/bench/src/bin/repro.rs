//! `repro` — the FliT paper's evaluation (§6) as checked counts, plus the
//! machine-readable baselines.
//!
//! ```text
//! cargo run -p flit-bench --release --bin repro -- [ledger|bench|server] [--full] [--out PATH]
//! ```
//!
//! `ledger` (the default) measures the ledger of single-handle instruction
//! counts and checks the paper's claims against it: every row, then one line
//! per claim. It exits 1 if any claim breaks; `tests/paper_ledger.rs` asserts
//! the same claims.
//!
//! `bench` runs the machine-readable benchmark baseline — every map structure ×
//! policy on the read-mostly (95/5) workload, with persist-epoch elision on *and*
//! off — and writes it to `BENCH_flit.json` (or `--out PATH`). The committed
//! baseline at the repository root is regenerated this way, so the perf trajectory
//! (throughput, pwbs/op, pfences/op, p50/p99 latency) is tracked per change.
//!
//! `server` runs the sharded KV service benchmark — the {1, 2, 4} shards ×
//! {flit-HT, plain} × elision grid plus worker-count, skewed-key and
//! group-commit points, and the one-shard crash/recover gate — and writes
//! `BENCH_server.json` (or `--out PATH`).
//!
//! By default the quick scale is used (sized for a small container); `--full`
//! switches to settings close to the paper's.

use std::path::Path;

use flit_bench::experiments::{
    bench_baseline, bench_depth_sweep, ledger, BenchRecord, Scale, BENCH_DEPTH_KEYS,
    BENCH_UPDATE_PERCENT,
};
use flit_bench::server_experiments::{
    server_baseline, server_crash_smoke, server_obs_document, ServerBenchRecord,
    ServerCrashSummary, SERVER_UPDATE_PERCENT,
};
use flit_bench::{SCALE_FULL, SCALE_QUICK};

/// Print the ledger's rows and claims; exit 1 if a claim breaks.
fn run_ledger(scale: &Scale) {
    let ledger = ledger(scale);
    println!(
        "\n=== Ledger: one handle, {} ops per row, no modelled latency ===",
        scale.ops_per_thread
    );
    println!(
        "{:<10} {:<10} {:<18} {:<10} {:>4} {:>10} {:>10} {:>12}",
        "structure", "method", "policy", "commit", "upd%", "pwbs/op", "pfences/op", "read-pwbs/op"
    );
    for r in &ledger.rows {
        println!(
            "{:<10} {:<10} {:<18} {:<10} {:>4} {:>10.4} {:>10.4} {:>12.4}",
            r.structure,
            r.durability,
            r.policy.name(),
            r.commit.name(),
            r.update_percent,
            r.pwbs_per_op,
            r.pfences_per_op,
            r.read_side_pwbs_per_op
        );
    }
    println!("\n=== Claims ===");
    let claims = ledger.claims();
    for c in &claims {
        let verdict = if c.broken.is_empty() {
            "holds "
        } else {
            "BROKEN"
        };
        println!("{verdict} [{}] {}", c.figure, c.statement);
        for line in &c.broken {
            println!("         {line}");
        }
    }
    if claims.iter().any(|c| !c.broken.is_empty()) {
        std::process::exit(1);
    }
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_string()
    }
}

/// Render the benchmark baseline as the `BENCH_flit.json` document. Hand-rolled
/// (no serde in the offline container); every field is a number or a plain label.
fn bench_json(scale: &Scale, quick: bool, records: &[BenchRecord]) -> String {
    let entries: Vec<String> = records
        .iter()
        .map(|r| {
            format!(
                r#"    {{"structure":"{}","keys":{},"policy":"{}","durability":"{}","elision":"{}","commit":"{}","update_percent":{},"mops":{},"pwbs_per_op":{},"pfences_per_op":{},"elided_pfences_per_op":{},"p50_ns":{},"p99_ns":{}}}"#,
                r.structure,
                r.keys,
                r.policy,
                r.durability,
                r.elision,
                r.commit,
                r.update_percent,
                json_f64(r.mops),
                json_f64(r.pwbs_per_op),
                json_f64(r.pfences_per_op),
                json_f64(r.elided_pfences_per_op),
                r.p50_ns,
                r.p99_ns,
            )
        })
        .collect();
    format!(
        "{{\n  \"schema\": \"flit-bench-v3\",\n  \"scale\": \"{}\",\n  \"workload\": {{\"update_percent\": {}, \"threads\": {}, \"ops_per_thread\": {}}},\n  \"records\": [\n{}\n  ]\n}}\n",
        if quick { "quick" } else { "full" },
        BENCH_UPDATE_PERCENT,
        scale.threads,
        scale.ops_per_thread,
        entries.join(",\n")
    )
}

/// Write `doc` to `path`, exiting 2 if it cannot be written.
fn write(path: &str, doc: &str) {
    std::fs::write(path, doc).unwrap_or_else(|e| {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(2);
    });
    println!("wrote {path}");
}

fn run_bench(scale: &Scale, quick: bool, out: &str) {
    let mut records = bench_baseline(scale);
    // The hamt case family: key-depth sweep demonstrating the flat fence cost
    // of the copy-on-write discipline (quick scale trims the 1M-key point to
    // the scale's large size so the container run stays bounded).
    let depth_keys: Vec<u64> = if quick {
        vec![BENCH_DEPTH_KEYS[0], scale.large_keys]
    } else {
        BENCH_DEPTH_KEYS.to_vec()
    };
    records.extend(bench_depth_sweep(scale, &depth_keys));
    let doc = bench_json(scale, quick, &records);
    print!("{doc}");
    write(out, &doc);
}

/// Render the server baseline + crash gate as the `BENCH_server.json` document.
fn server_json(
    scale: &Scale,
    quick: bool,
    records: &[ServerBenchRecord],
    crash: &ServerCrashSummary,
) -> String {
    let entries: Vec<String> = records
        .iter()
        .map(|r| {
            format!(
                r#"    {{"shards":{},"workers":{},"structure":"{}","policy":"{}","elision":"{}","commit":"{}","skew":{},"requests":{},"mops":{},"p50_ns":{},"p99_ns":{},"p999_ns":{},"pwbs_per_op":{},"pfences_per_op":{}}}"#,
                r.shards,
                r.workers,
                r.structure,
                r.policy,
                r.elision,
                r.commit,
                json_f64(r.skew),
                r.requests,
                json_f64(r.mops),
                r.p50_ns,
                r.p99_ns,
                r.p999_ns,
                json_f64(r.pwbs_per_op),
                json_f64(r.pfences_per_op),
            )
        })
        .collect();
    format!(
        "{{\n  \"schema\": \"flit-server-bench-v3\",\n  \"scale\": \"{}\",\n  \"workload\": {{\"update_percent\": {}, \"requests_per_worker\": {}}},\n  \"crash_sweep\": {{\"shards\": {}, \"crash_shard\": {}, \"points_tested\": {}, \"events_total\": {}, \"violations\": {}, \"broken_control_caught\": {}}},\n  \"records\": [\n{}\n  ]\n}}\n",
        if quick { "quick" } else { "full" },
        SERVER_UPDATE_PERCENT,
        scale.ops_per_thread,
        crash.shards,
        crash.crash_shard,
        crash.points_tested,
        crash.events_total,
        crash.violations,
        crash.broken_control_caught,
        entries.join(",\n")
    )
}

fn run_server_bench(scale: &Scale, quick: bool, out: &str) {
    let records = server_baseline(scale);
    let crash = server_crash_smoke();
    let doc = server_json(scale, quick, &records, &crash);
    print!("{doc}");
    println!(
        "crash sweep: {} points over {} events on shard {} of {}: {} violations; broken control caught: {}",
        crash.points_tested,
        crash.events_total,
        crash.crash_shard,
        crash.shards,
        crash.violations,
        crash.broken_control_caught
    );
    if crash.violations > 0 || !crash.broken_control_caught {
        eprintln!("server crash gate FAILED");
        std::process::exit(1);
    }
    write(out, &doc);
    // The observability sidecar: one representative run's full `flit-obs-v1`
    // metrics document, written next to the baseline.
    let obs_out = Path::new(out).with_file_name("BENCH_obs.json");
    write(&obs_out.display().to_string(), &server_obs_document(scale));
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = !args.iter().any(|a| a == "--full");
    let scale = if quick { SCALE_QUICK } else { SCALE_FULL };
    let out_flag = args.iter().position(|a| a == "--out");
    let what = args
        .iter()
        .enumerate()
        .find(|(i, a)| !a.starts_with("--") && (*i == 0 || args[*i - 1] != "--out"))
        .map(|(_, a)| a.clone())
        .unwrap_or_else(|| "ledger".to_string());
    let out = match out_flag {
        Some(i) => args.get(i + 1).cloned().unwrap_or_else(|| {
            eprintln!("--out needs a path");
            std::process::exit(2);
        }),
        None if what == "server" => "BENCH_server.json".to_string(),
        None => "BENCH_flit.json".to_string(),
    };
    if out_flag.is_some() && what != "bench" && what != "server" {
        eprintln!(
            "warning: --out only applies to the 'bench' and 'server' subcommands; nothing will be written"
        );
    }

    println!(
        "FliT reproduction — scale: {} ({} threads, {} ops/thread)",
        if quick { "quick" } else { "full" },
        scale.threads,
        scale.ops_per_thread
    );
    match what.as_str() {
        "ledger" => run_ledger(&scale),
        "bench" => run_bench(&scale, quick, &out),
        "server" => run_server_bench(&scale, quick, &out),
        other => {
            eprintln!("unknown experiment '{other}': expected ledger|bench|server");
            std::process::exit(2);
        }
    }
}
