//! # `flit-pmem` — persistent-memory substrate for the FliT reproduction
//!
//! The FliT paper (PPoPP 2022) targets machines with Intel Optane DC persistent
//! memory, where stores land in a *volatile* cache hierarchy and must be pushed to the
//! *persistent* media with explicit write-back (`pwb`, i.e. `clwb`/`clflushopt`) and
//! ordering (`pfence`, i.e. `sfence`) instructions.
//!
//! This crate is that substrate, cut the way the paper's model (§2) cuts it: **an
//! instruction set, a simulated substrate plus a null one, and one session that elides**.
//!
//! ## The instruction set: [`PmemBackend`]
//!
//! `pwb` and `pfence`, plus what a session must ask of whatever executes them:
//! the store hooks (`record_store`, and `record_pword_store` for p-words) and
//! the p-word version counter, the configured
//! [`ElisionMode`], and the optional [`PmemStats`] / [`PersistenceTracker`].
//! A backend issues every instruction it is handed; it never decides that one
//! is redundant.
//!
//! ## The substrates
//!
//! * [`SimNvram`] — a *simulated* NVRAM: ordinary heap memory plus
//!   - a configurable [`LatencyModel`] that charges an Optane-like cost to every
//!     `pwb`/`pfence`,
//!   - global [`PmemStats`] counting every `pwb` and `pfence` (used to reproduce
//!     Figure 9 of the paper),
//!   - an optional [`PersistenceTracker`] that maintains the volatile image and the
//!     persisted image of every tracked word so tests can take an adversarial
//!     [`CrashImage`] ("only what was explicitly flushed *and* fenced survives"), and
//!   - an optional [`CrashPlan`] that deterministically freezes a [`CrashImage`] at
//!     the Nth store/pwb/pfence event, so a harness can sweep a simulated crash
//!     across *every* persistence boundary of a history (see `flit-crashtest`).
//!
//!   The tracker + plan inside `SimNvram` are the one observation path for
//!   simulated crashes; crashes of real pools are real process deaths (the
//!   `killtest` harness), and a reopened pool is read through the same
//!   [`CrashImage`] type — there a zero-copy view of the mapping
//!   ([`CrashImage::mapped`]) instead of a snapshot.
//! * [`NullPmem`] — everything is a no-op; used by the non-persistent baseline
//!   (the grey dotted line in the paper's plots).
//!
//! There is no hardware backend: nothing here runs on real persistent memory.
//! A real-NVRAM run would add one `PmemBackend` issuing `clwb`/`sfence`,
//! together with a DAX mapping for pools.
//!
//! The unit of flushing is a 64-byte cache line ([`CACHE_LINE_SIZE`]); the unit of
//! tracking is an 8-byte word, matching the granularity at which the FliT library
//! operates.
//!
//! ## The session: [`PmemSession`]
//!
//! Everything FliT adds sits *above* the instruction set, and so does the
//! elision. Per-handle [persist epochs](crate::epoch) — "how many `pwb`s has this
//! handle issued since its last `pfence`, and which words did it flush" — are
//! **owned by an explicit handle** (no thread-locals anywhere in this crate): a
//! handle wraps the shared backend in a [`PmemSession`] for the duration of each
//! operation. The session is the only implementation of
//! [`pfence_if_dirty`](PmemSession::pfence_if_dirty) (skip a fence that would
//! persist nothing) and [`pwb_dedup`](PmemSession::pwb_dedup) (skip a duplicate
//! read-side flush), and is itself a `PmemBackend`, so code written against the
//! bare instruction set runs through it unchanged. The FliT hot path is written
//! against sessions; [`ElisionMode::Disabled`] restores the paper-literal
//! instruction stream for A/B comparison, and a raw backend — having no epoch —
//! has no elision API at all.
//!
//! ## Why a simulated backend?
//!
//! The reproduction environment has no NVDIMMs. The behaviour FliT's evaluation
//! depends on is (a) *how many* write-backs and fences each variant executes per
//! operation and (b) that each one has a substantial, roughly-constant cost. Both are
//! captured by [`SimNvram`]; see the README's "Why a simulated backend" section
//! for what each remaining backend and mode is kept for.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod backend;
pub mod cache_line;
pub mod crash;
pub mod epoch;
pub mod latency;
pub mod pool;
pub mod region;
pub mod session;
pub mod sim;
pub mod stats;
pub mod tracker;

pub use backend::{NullPmem, PmemBackend};
pub use cache_line::{cache_line_of, word_of, CACHE_LINE_SIZE, WORD_SIZE};
pub use crash::{CrashEventKind, CrashPlan};
pub use epoch::{CommitMode, ElisionMode, PersistEpoch};
pub use flit_obs::{FlightEvent, FlightEventKind, FlightRecorder, FLIGHT_CAPACITY};
pub use latency::LatencyModel;
pub use pool::{OpenError, PoolArenaSlot, PoolFile, PoolOptions};
pub use region::{PmemRegion, ReserveError};
pub use session::PmemSession;
pub use sim::SimNvram;
pub use stats::{PmemStats, StatsSnapshot};
pub use tracker::{CrashImage, PersistenceTracker};

#[cfg(test)]
mod lib_tests {
    use super::*;

    #[test]
    fn public_api_smoke() {
        let sim = SimNvram::builder().latency(LatencyModel::none()).build();
        let x: u64 = 42;
        sim.pwb(&x as *const u64 as *const u8);
        sim.pfence();
        let snap = sim.stats().snapshot();
        assert_eq!(snap.pwbs, 1);
        assert_eq!(snap.pfences, 1);

        let null = NullPmem;
        null.pwb(&x as *const u64 as *const u8);
        null.pfence();
    }
}
