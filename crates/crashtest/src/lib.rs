//! # `flit-crashtest` — deterministic crash injection and recovery verification
//!
//! FliT's whole claim (paper §3–4) is that the P-V interface makes any linearizable
//! structure *durably* linearizable. The seed repo tested that claim only at
//! hand-picked operation boundaries; this crate tests it the way the systematic
//! crash-consistency literature does (MOD, Memento, the persistent-FIFO work):
//! inject a simulated crash at **every persistence event** of a history and verify
//! that the state recovered from the frozen [`CrashImage`](flit_pmem::CrashImage)
//! is a prefix-consistent linearization of the operations issued so far.
//!
//! ## How a sweep works
//!
//! There is **one** sweep driver, `engine::sweep`, and everything that can be
//! crashed is a *subject* of it. For each case the driver:
//!
//! 1. replays the history once with a counting [`CrashPlan`](flit_pmem::CrashPlan)
//!    to learn the event span and per-operation boundaries;
//! 2. selects crash points over the full absolute span `0..=total`, the
//!    construction window included (every event, or an evenly spaced budget);
//! 3. for each crash point `k`, replays against a fresh backend with a plan
//!    armed at `k` — the plan freezes the adversarial persisted image the
//!    instant event `k` would have applied (the event is lost, exactly as if
//!    power failed during it) — skipping the history when `k` falls inside the
//!    construction window, and asserts that the replay reproduced the counting
//!    pass's event stream;
//! 4. lets the subject recover from the frozen image and check the result
//!    against where the crash fell: `c` operations completed, the first `a ≤ c`
//!    of them acknowledged by a drain (`a = c` under an immediate commit), at
//!    most one in flight.
//!
//! The driver alone arms plans and flight recorders, samples boundaries and
//! obligation marks, acknowledges-without-fencing for the `broken_acks`
//! control, compares live return values with the sequential model, and turns
//! findings into [`Violation`]s. Replays are single-threaded and the vendored
//! RNG is deterministic, so every violation comes with a complete repro string:
//! the `crashtest` CLI invocation that replays exactly that structure, policy,
//! seed and crash event.
//!
//! The subjects, and what each one's check demands of the recovered state:
//!
//! | subject | entry point | check |
//! |---|---|---|
//! | any [`ConcurrentMap`](flit_datastructs::ConcurrentMap) with image-only recovery — list, hash table, BST, skiplist, `Hamt`, `BrokenHamt` | [`sweep_map`] | the model after `n` operations for some `a ≤ n ≤ c + 1` |
//! | [`MsQueue`](flit_queues::MsQueue) | [`sweep_queue`] | the same, over queue contents |
//! | a `Hamt` holding a snapshot across the crash | [`sweep_hamt_snapshot`] | at most one retained snapshot; if present, *exactly* its frozen contents; present once its call completed (immediate commit) |
//! | one shard of a [`KvServer`](flit_server::KvServer) | [`sweep_server_crash`] | crashed shard: the map check over its routed requests; every survivor: *exactly* its full routed history |
//!
//! ### Adding a subject
//!
//! Write one `pub fn sweep_<thing>` that calls `engine::sweep` with two
//! closures. `replay` builds the thing on the replay's backend (`Run::db` gives
//! a database under the sweep's commit mode), opens its handle(s), hands them
//! and a `step(i)` closure — apply operation `i`, report a return value the
//! sequential model disagrees with — to `Run::drive`, and recovers from the
//! image `drive` returns using nothing but that image and the arena root
//! tables. `check` lists what is wrong with a recovered state given the
//! `CrashWindow` (`acked`, `completed`, `in_flight`); `engine::check_prefix` is
//! the ready-made prefix-consistency check, walking an `engine::Model` (the
//! map and queue models exist) forward over the history. Do not arm a plan,
//! sample a boundary, build a `Violation` or write a second model or prefix
//! matcher yourself — CI greps for a second copy. Then add the subject and
//! its must-fail control to `tests/sweep_subjects.rs`.
//!
//! A subject with a pool-backed form can also be killed for real: the kill
//! rounds (below) recover the reopened pool and call the subject's model and
//! check on it — `check_prefix` with the window `floor..=ops`, and for the
//! HAMT also `hamt::check_retained`, the snapshot sweep's check — so a
//! `SIGKILL` and a frozen image are judged by the same code.
//!
//! ## Catching bugs, not just confirming correctness
//!
//! A harness that never fails proves nothing. [`VolatileStores`] is a deliberately
//! broken durability method — every instruction is a v-instruction, so nothing
//! after construction persists — and sweeps over it **must** report violations
//! (lost completed inserts, resurrected dequeues). The `crashtest` binary and the
//! integration tests treat "the broken control found nothing" as a failure of the
//! harness itself.
//!
//! ## Entry points
//!
//! * [`run_matrix`] / [`run_case`] — value-addressable sweeps (what the binary
//!   and CI drive). A structure × method × policy is a
//!   [`flit_workload::Subject`]: its keys, the rule saying which combinations
//!   exist ([`flit_workload::applicable`]) and the one table resolving it to
//!   concrete types ([`flit_workload::Subject::visit`]) live in `flit-workload`
//!   and are shared with the `repro` ledger; [`StructureKind`], [`MethodKind`],
//!   [`PolicyKind`] and [`VolatileStores`] are re-exported from there.
//!   [`run_hamt_snapshot_case`] is the snapshot sweep in the same form, its
//!   policy resolved by [`PolicyKind::visit`];
//! * [`sweep_map`] / [`sweep_queue`] / [`sweep_hamt_snapshot`] /
//!   [`sweep_server_crash`] — the subjects above for one concrete instantiation
//!   (what the integration tests drive directly);
//! * [`roundrobin::round_robin_map`] / [`server::round_robin_service`] — the
//!   controlled scheduler: N explicit `FlitHandle`s (or one worker's handle set
//!   over N shards) stepped on one OS thread, producing a byte-reproducible
//!   global event stream (the explicit-handle redesign's proof-of-concept,
//!   seeding the multi-threaded sweep roadmap item);
//! * [`kill::run_kill_round`] / [`kill::corruption_suite`] — the *real-pool*
//!   harness: `SIGKILL` a child process mid-traffic through
//!   [`kill::kill_history`] against a file-backed pool and verify the reopened
//!   pool with the sweeps' checks (prefix consistency at or above the acked
//!   floor; for HAMT rounds also the retained snapshot) plus GC idempotence,
//!   and targeted corruption of pool files asserting every case surfaces as a
//!   typed `OpenError` (what the `killtest` binary drives);
//!   [`kill::verify_pool`] / [`kill::verify_hamt_pool`] are the verification
//!   half alone, for pools a test built in-process.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod engine;
pub mod hamt;
#[cfg(unix)]
pub mod kill;
pub mod matrix;
pub mod report;
pub mod roundrobin;
pub mod server;

pub use engine::{sweep_map, sweep_queue, SweepSettings};
pub use flit_workload::{MethodKind, PolicyKind, StructureKind, VolatileStores};
pub use hamt::{run_hamt_snapshot_case, sweep_hamt_snapshot, SNAPSHOT_STRUCTURE};
#[cfg(unix)]
pub use kill::{
    run_kill_round, verify_hamt_pool, verify_pool, CorruptionOutcome, KillHamt, KillRound,
    KillRoundReport, KillViolation, CHILD_FLAG,
};
pub use matrix::{run_case, run_matrix};
pub use report::{CaseMeta, HistorySpec, SweepReport, Violation};
pub use roundrobin::{round_robin_map, round_robin_script, RoundRobinTrace, ScriptedStep};
pub use server::{
    op_of, round_robin_service, sweep_server_crash, ServerSweepReport, ServerViolation,
    ServiceTrace,
};
