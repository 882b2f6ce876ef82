//! `flit-benchmark`: the repository's benchmark, as a library so the smoke
//! test can read run records with the same JSON reader the `diff` subcommand
//! uses. The binary in `main.rs` is the only other consumer.
//!
//! One run builds real pool files, drives the public API from one pinned
//! client thread in a closed loop, checks every reply against a sequential
//! model and every reopened pool against the model's final state, and prints
//! every metric by name and unit with a one-line JSON object last. See
//! `README.md` beside this crate for the run shape and how to read the numbers.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod contract;
pub mod diff;
pub mod gate;
pub mod json;
pub mod ops;
pub mod probes;
pub mod round;
pub mod run;
pub mod spec;
pub mod stats;
pub mod subjects;
pub mod sys;
pub mod trace;
