//! `flit-suite` — the workspace umbrella crate.
//!
//! This crate exists to host the workspace-level integration tests (`tests/`) and the
//! runnable examples (`examples/`); it simply re-exports the member crates so the
//! examples can use a single dependency root.
//!
//! See `README.md` for the project overview and `ROADMAP.md` for the reproduction plan.

pub use flit;
pub use flit_datastructs as datastructs;
pub use flit_ebr as ebr;
pub use flit_pmem as pmem;
pub use flit_queues as queues;
pub use flit_workload as workload;
