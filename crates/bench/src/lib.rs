//! # `flit-bench` — the paper's claims as exact counts, and the workspace's CLIs
//!
//! The **`repro` binary** (`cargo run -p flit-bench --release --bin repro`)
//! measures the [`experiments::ledger`] — the paper's claims (Figures 5, 7–9,
//! MOD's HAMT, group commit) and the server's request path as exact
//! single-handle instruction counts — checks every claim, exits non-zero if one
//! breaks, and writes the rows to `BENCH_flit.json` and `BENCH_server.json`.
//!
//! Timing lives in the `benchmark/` crate; nothing here is a timed claim, save
//! `hotpath`, the one single-threaded A/B probe. The crate also ships the
//! `crashtest`, `killtest` and `flitctl` binaries (`flitctl` inspects a pool
//! file read-only or asks an in-process server for its stats over the wire
//! protocol).

#![warn(missing_docs)]

pub mod experiments;

/// Parse a command-line count: decimal, or hexadecimal after `0x`.
pub fn parse_u64(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

pub use experiments::{
    ledger, Claim, Counts, Layer, Ledger, LedgerRow, RequestRow, Scale, LAYERS, SCALE,
    SERVER_SHARDS, SERVER_TABLE,
};
