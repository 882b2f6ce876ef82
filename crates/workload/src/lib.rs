//! # `flit-workload` — workload generation and the single-handle count driver
//!
//! This crate drives the data structures of [`flit_datastructs`], the HAMT of
//! [`flit_hamt`] and the queues of [`flit_queues`] with the paper's workloads on
//! one handle, and reports the persistence-instruction counts the `repro`
//! ledger is built from. A seeded run on one handle issues the same
//! `pwb`/`pfence` stream every time; nothing here times anything (timing lives
//! in the `benchmark/` crate).
//!
//! ## Map workloads (paper §6.1)
//!
//! A map prefilled to half its key range, a uniform key distribution, and a mix
//! of lookups and updates (updates split 50/50 between inserts and deletes).
//!
//! * [`WorkloadConfig`] — key range, update ratio, operation count.
//! * [`run_workload`] — run one configuration against any [`ConcurrentMap`].
//!
//! ## Queue workloads
//!
//! * [`QueueWorkloadConfig`] — enqueue/dequeue mix, operation count.
//! * [`run_queue_workload`] — run one configuration against any [`ConcurrentQueue`].
//!
//! ## Service request streams
//!
//! [`service`] generates the request streams of the sharded KV service
//! (`flit-server`), mixed read/write ratios deterministic per config, and the
//! Zipfian [`KeySampler`] for skewed traffic.
//!
//! ## Crash-test histories
//!
//! [`crash_history`] generates the deterministic single-threaded operation
//! sequences (scripted and seeded-random) that the `flit-crashtest` engine replays
//! once per crash point.
//!
//! ## Dispatch
//!
//! [`harness`] is a value-addressable dispatcher over every
//! (structure × durability method × policy) combination of the evaluation — maps
//! (the copy-on-write HAMT included) via [`run_case`] and queues via
//! [`run_queue_case`] — used by the `repro` ledger and the examples.
//! [`PolicyKind::visit`] is its one table from a policy kind to the policy type.
//!
//! [`ConcurrentMap`]: flit_datastructs::ConcurrentMap
//! [`ConcurrentQueue`]: flit_queues::ConcurrentQueue

#![warn(missing_docs)]

pub mod crash_history;
pub mod harness;
pub mod queue_runner;
pub mod runner;
pub mod service;

pub use crash_history::{
    random_map_history, random_queue_history, scripted_map_history, scripted_queue_history, MapOp,
    QueueOp,
};
pub use harness::{
    run_case, run_queue_case, Case, DsKind, DurKind, PolicyKind, PolicyVisitor, QueueCase,
    QUEUE_DURS,
};
pub use queue_runner::{run_queue_workload, QueueRunResult, QueueWorkloadConfig};
pub use runner::{run_workload, RunResult, WorkloadConfig};
pub use service::{prefill_history, service_history, KeySampler, ServiceConfig};
