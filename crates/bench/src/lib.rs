//! # `flit-bench` — benchmark harness for the FliT reproduction
//!
//! Two kinds of benchmarks live here:
//!
//! * the **`repro` binary** (`cargo run -p flit-bench --release --bin repro --
//!   ledger|bench|server`): `ledger` measures the [`experiments::ledger`] — the
//!   paper's claims (Figures 5, 7–9) as inequalities over exact single-handle
//!   instruction counts — and exits non-zero if one breaks; `bench` and `server`
//!   write the `BENCH_flit.json` / `BENCH_server.json` baselines;
//! * the **Criterion benches** (`cargo bench -p flit-bench`) measure the primitive
//!   flit-instruction costs and small end-to-end map workloads, for regression
//!   tracking rather than paper reproduction.
//!
//! The `repro -- server` subcommand runs the [`server_experiments`] family: the
//! sharded `flit-server` request loop, recorded to `BENCH_server.json` with
//! latency percentiles from the dependency-free [`LatencyHistogram`]
//! (`flit-obs`'s, re-exported here), plus the server's own `flit-obs-v1`
//! metrics document to `BENCH_obs.json`.
//!
//! This library crate holds the experiment definitions shared by both, and the
//! `flitctl` introspection binary (`inspect` a pool file read-only, `stats` an
//! in-process server over the wire protocol).

#![warn(missing_docs)]

pub mod experiments;
pub mod server_experiments;

pub use experiments::{ledger, Claim, Ledger, LedgerRow, Scale, SCALE_FULL, SCALE_QUICK};
pub use flit_obs::LatencyHistogram;
pub use server_experiments::{
    server_baseline, server_crash_smoke, server_obs_document, ServerBenchRecord, ServerCrashSummary,
};
