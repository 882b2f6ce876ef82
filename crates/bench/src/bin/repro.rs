//! `repro` — the FliT paper's evaluation (§6) and the server's request path as
//! checked counts.
//!
//! ```text
//! cargo run -p flit-bench --release --bin repro [-- ledger]
//! ```
//!
//! Measures the ledger of single-handle instruction counts and checks the
//! paper's claims against it: prints one line per claim and writes
//! `BENCH_flit.json` (the map rows and every claim's verdict) and
//! `BENCH_server.json` (the request-path rows) to the current directory. It
//! exits 1 if any claim breaks; `tests/paper_ledger.rs` asserts the same
//! claims. Every count is exact but the pwbs of the `Batched` map rows and the
//! `Batched` request-path row, so a change in a count shows in the committed
//! files' `git diff`.

use flit_bench::{json_str, ledger, Claim, Ledger, LAYERS, SCALE, SERVER_SHARDS, SERVER_TABLE};

/// Render the map rows and the verdicts as the `BENCH_flit.json` document.
/// Hand-rolled (no serde dependency); every number is a count.
fn flit_json(ledger: &Ledger, claims: &[Claim]) -> String {
    let rows: Vec<String> = ledger
        .rows
        .iter()
        .map(|r| {
            format!(
                r#"    {{"structure":"{}","durability":"{}","policy":"{}","commit":"{}","keys":{},"update_percent":{},"ops":{},"updates_ok":{},"pwbs":{},"pfences":{},"read_side_pwbs":{}}}"#,
                r.structure.key(),
                r.durability(),
                r.policy_label(),
                r.commit.name(),
                r.keys,
                r.update_percent,
                r.ops,
                r.updates_ok,
                r.pwbs,
                r.pfences,
                r.read_side_pwbs,
            )
        })
        .collect();
    let claims: Vec<String> = claims
        .iter()
        .map(|c| {
            let broken: Vec<String> = c.broken.iter().map(|b| json_str(b)).collect();
            format!(
                r#"    {{"figure":{},"statement":{},"holds":{},"broken":[{}]}}"#,
                json_str(c.figure),
                json_str(c.statement),
                c.broken.is_empty(),
                broken.join(",")
            )
        })
        .collect();
    format!(
        "{{\n  \"schema\": \"flit-ledger-v1\",\n  \"rows\": [\n{}\n  ],\n  \"claims\": [\n{}\n  ]\n}}\n",
        rows.join(",\n"),
        claims.join(",\n")
    )
}

/// Render the request-path rows as the `BENCH_server.json` document.
fn server_json(ledger: &Ledger) -> String {
    let rows: Vec<String> = ledger
        .requests
        .iter()
        .map(|r| {
            let layers = r.layers.iter().flat_map(|l| LAYERS.iter().zip(l));
            let layers: Vec<String> = layers
                .map(|(l, c)| format!(r#","{l}":{{"pwbs":{},"pfences":{}}}"#, c.pwbs, c.pfences))
                .collect();
            format!(
                r#"    {{"policy":"{}","commit":"{}","keys":{},"update_percent":{},"requests":{},"updates":{},"pump":{{"pwbs":{},"pfences":{}}}{}}}"#,
                r.policy.label(SERVER_TABLE),
                r.commit.name(),
                r.keys,
                r.update_percent,
                r.requests,
                r.updates,
                r.pump.pwbs,
                r.pump.pfences,
                layers.concat(),
            )
        })
        .collect();
    format!(
        "{{\n  \"schema\": \"flit-request-path-v1\",\n  \"structure\": \"hashtable\",\n  \"shards\": {SERVER_SHARDS},\n  \"rows\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    )
}

/// Write `doc` to `path`.
fn write(path: &str, doc: &str) {
    std::fs::write(path, doc).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!("wrote {path}");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if !(args.is_empty() || args == ["ledger"]) {
        eprintln!("usage: repro [ledger]");
        std::process::exit(2);
    }
    let ledger = ledger(&SCALE);
    let claims = ledger.claims();
    for c in &claims {
        let holds = c.broken.is_empty();
        let verdict = if holds { "holds " } else { "BROKEN" };
        println!("{verdict} [{}] {}", c.figure, c.statement);
        for line in &c.broken {
            println!("         {line}");
        }
    }
    write("BENCH_flit.json", &flit_json(&ledger, &claims));
    write("BENCH_server.json", &server_json(&ledger));
    if claims.iter().any(|c| !c.broken.is_empty()) {
        std::process::exit(1);
    }
}
