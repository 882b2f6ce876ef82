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
//! ## The case matrix
//!
//! [`subject`] names every structure × durability method × policy once
//! ([`StructureKind`], [`MethodKind`], [`PolicyKind`]), says which combinations
//! exist ([`applicable`]) and resolves a [`Subject`] to its concrete map or
//! queue type through one table ([`Subject::visit`]; [`PolicyKind::visit`] for
//! the policy alone). The `repro` ledger, the `flit-crashtest` sweeps and the
//! examples all pick their cases from it.
//!
//! [`ConcurrentMap`]: flit_datastructs::ConcurrentMap
//! [`ConcurrentQueue`]: flit_queues::ConcurrentQueue

#![warn(missing_docs)]

pub mod crash_history;
pub mod queue_runner;
pub mod runner;
pub mod service;
pub mod subject;

pub use crash_history::{
    random_map_history, random_queue_history, scripted_map_history, scripted_queue_history, MapOp,
    QueueOp,
};
pub use queue_runner::{run_queue_workload, QueueRunResult, QueueWorkloadConfig};
pub use runner::{run_workload, RunResult, WorkloadConfig};
pub use service::{prefill_history, service_history, KeySampler, ServiceConfig};
pub use subject::{
    applicable, MethodKind, PolicyKind, PolicyVisitor, StructureKind, Subject, SubjectVisitor,
    VolatileStores, FLIT_HT_SWEEP_BYTES,
};
