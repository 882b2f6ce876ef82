//! # FliT: Flush if Tagged — a library for simple and efficient persistent algorithms
//!
//! This crate is a from-scratch Rust reproduction of the FliT library from
//! *"FliT: A Library for Simple and Efficient Persistent Algorithms"*
//! (Wei, Ben-David, Friedman, Blelloch, Petrank — PPoPP 2022).
//!
//! FliT makes it easy to write **durably linearizable** code for byte-addressable
//! non-volatile memory (NVRAM). The programmer declares which words must be persisted
//! and marks the end of each operation; the library inserts the necessary write-back
//! (`pwb`) and fence (`pfence`) instructions — and, crucially, *elides* the read-side
//! write-backs that a naive transformation pays, by tracking pending stores with small
//! **flit-counters**.
//!
//! ## The P-V Interface (paper §3)
//!
//! Every instruction executed through the library is either a **p-instruction** (its
//! value must be persisted) or a **v-instruction** (it may remain volatile). The
//! library guarantees, for any mix of the two (Definition 1 of the paper):
//!
//! 1. **Volatile-memory behaviour.** Each instruction takes effect atomically at a
//!    linearization point inside its interval; loads return the most recently
//!    linearized store's value.
//! 2. **Store dependencies.** A thread depends on its own linearized p-stores.
//! 3. **Load dependencies.** A p-load on location ℓ makes the thread depend on every
//!    p-store to ℓ linearized before it.
//! 4. **Persisting dependencies.** Before a thread's *shared* store linearizes, and
//!    before it completes an operation ([`FlitHandle::operation_completion`]), all its
//!    dependencies are persisted.
//!
//! Making **every** load and store a p-instruction turns any linearizable data
//! structure into a durably linearizable one (Theorem 3.1) — that is the *automatic*
//! mode. Carefully chosen v-instructions (e.g. the NVTraverse read-only traversal
//! phase) recover the performance of hand-optimised persistent data structures while
//! staying within the same interface.
//!
//! ## The explicit-handle API: `FlitDb` and `FlitHandle`
//!
//! The P-V Interface is stated per *thread*: which fences a thread may elide and
//! which flushes it may dedup depend on that thread's persistence state. This
//! library makes the thread explicit instead of ambient:
//!
//! * [`FlitDb`] is the facade owning everything shared — the policy (scheme +
//!   backend), the EBR collector, the arena registry with its recovery-root
//!   tables. `FlitDb::create` builds a heap-backed database; [`FlitDb::open`]
//!   maps an existing file-backed pool and runs the validate → adopt →
//!   recover → GC pipeline (returning an [`OpenReport`]);
//!   [`FlitDb::recover`] surveys a crash image.
//! * [`FlitHandle`] is a per-logical-thread session — persist-epoch state, EBR
//!   participation, backend access — and **every operation takes one**:
//!   `map.insert(&h, k, v)`, `w.store(&h, v, flag)`,
//!   [`FlitHandle::operation_completion`].
//!
//! There is no `thread_local!` anywhere on the hot path (CI enforces it): a
//! handle is a `Send` value, so a controlled scheduler can own N handles and
//! interleave them deterministically on one OS thread — the mechanism behind
//! `flit-crashtest`'s round-robin sweeps. See [`db`] for the migration table.
//!
//! ## Persist-epoch elision
//!
//! Condition 4 only obliges a fence when the handle actually *has* unpersisted
//! dependencies. The hot path therefore issues its fences (the leading fence of
//! every shared store, the [`FlitHandle::operation_completion`] fence) through
//! the handle session's `pfence_if_dirty`, which skips the fence whenever the
//! handle has issued zero `pwb`s since its previous fence — an exact
//! marker for "no unpersisted dependencies": every dependency is acquired either
//! by a p-load of a *tagged* word (which flushes, dirtying the handle) or of an
//! *untagged* word (whose value the writer persisted before untagging). Duplicate
//! read-side flushes within one epoch are likewise elided for the FliT schemes
//! (never for the plain baseline). See `flit_pmem::epoch` for the model, the
//! soundness argument and the `ElisionMode::Disabled` escape hatch that restores
//! the paper-literal instruction stream.
//!
//! ## Crate layout
//!
//! | module | contents |
//! |---|---|
//! | [`db`] | the facade: [`FlitDb`], [`FlitHandle`], [`DbRecovery`] |
//! | [`pflag`] | [`PFlag`] (p- vs v-instruction) and [`Visibility`] (shared vs private) |
//! | [`word`] | [`PWord`]: types that fit in one persisted machine word |
//! | [`scheme`] | flit-counter placements: [`PlainScheme`], [`AdjacentScheme`], [`HashedScheme`], [`CacheLineScheme`] |
//! | [`policy`] | the [`Policy`] / [`PersistWord`] abstraction data structures are generic over |
//! | [`flit_atomic`] | [`FlitAtomic`] — Algorithm 4 — and [`FlitPolicy`] / [`PlainPolicy`] |
//! | [`link_persist`] | the link-and-persist comparator ([`LinkAndPersistPolicy`]) |
//! | [`no_persist`] | the non-persistent baseline ([`NoPersistPolicy`]) |
//!
//! ## Workspace layout
//!
//! This crate is the core of a larger workspace (see the repository `README.md`):
//!
//! | crate | contents |
//! |---|---|
//! | `flit` (this crate) | the P-V interface and its policy implementations |
//! | `flit-pmem` | the `pwb`/`pfence` instruction set, hardware and simulated substrates, the eliding per-handle session, crash tracking, reserved regions |
//! | `flit-ebr` | epoch-based reclamation for the lock-free structures |
//! | `flit-alloc` | persistent arena allocator: aligned node slots, persisted header, recovery-root table |
//! | `flit-datastructs` | the paper's set/map structures (list, hash table, BST, skiplist), arena-allocated with image-only recovery |
//! | `flit-queues` | durable FIFO queues (Michael–Scott) with image-only crash recovery |
//! | `flit-workload` | map and queue workload generators, crash-test histories, the case dispatcher |
//! | `flit-crashtest` | deterministic crash-injection sweeps: crash at every absolute persistence event (construction included), recover image-only, verify prefix consistency |
//! | `flit-bench` | the `repro` figure-regeneration and `crashtest` sweep binaries, Criterion benches |
//!
//! ## Quick example
//!
//! ```
//! use flit::{FlitDb, FlitPolicy, HashedScheme, PFlag, PersistWord, Policy};
//! use flit_pmem::SimNvram;
//!
//! // Open a database over one variant: flit-HT (1MB counter table) on
//! // simulated NVRAM.
//! let db = FlitDb::flit_ht(SimNvram::default());
//!
//! // Register a session for this thread.
//! let h = db.handle();
//!
//! // Declare a persisted word (the Rust analogue of `persist<uint64_t> x;`).
//! let x = <FlitPolicy<HashedScheme, SimNvram> as Policy>::Word::<u64>::new(0);
//!
//! // A p-store followed by a p-load, then operation completion.
//! x.store(&h, 42, PFlag::Persisted);
//! assert_eq!(x.load(&h, PFlag::Persisted), 42);
//! h.operation_completion();
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod db;
pub mod flit_atomic;
pub mod link_persist;
pub mod no_persist;
pub mod pflag;
pub mod policy;
pub mod scheme;
pub mod word;

pub use db::{
    ArenaRecovery, DbRecovery, FlitDb, FlitDbBuilder, FlitHandle, OpenReport, OpenTimings, Ticket,
};
pub use flit_atomic::{FlitAtomic, FlitPolicy, PlainPolicy};
pub use flit_obs::{FlightEvent, FlightEventKind, FlightRecorder, MetricsSnapshot, Registry};
pub use flit_pmem::{CommitMode, OpenError, PoolOptions};
pub use link_persist::{LinkAndPersistPolicy, LpAtomic, DIRTY_BIT};
pub use no_persist::{NoPersistPolicy, VolatileAtomic};
pub use pflag::{PFlag, Visibility};
pub use policy::{PersistWord, Policy};
pub use scheme::{
    human_bytes, AdjacentScheme, CacheLineScheme, CounterTable, HashedScheme, PlainScheme,
    TagScheme,
};
pub use word::PWord;

// Re-export the substrate so downstream users only need one dependency for the common
// case.
pub use flit_pmem as pmem;

/// Convenience constructors for the policy configurations used throughout the paper's
/// evaluation, all over the simulated-NVRAM backend.
pub mod presets {
    use flit_pmem::SimNvram;

    use crate::flit_atomic::{FlitPolicy, PlainPolicy};
    use crate::link_persist::LinkAndPersistPolicy;
    use crate::no_persist::NoPersistPolicy;
    use crate::scheme::{AdjacentScheme, CacheLineScheme, HashedScheme, PlainScheme};

    /// `plain`: durable transformation with no read-side flush elision.
    pub fn plain(backend: SimNvram) -> PlainPolicy<SimNvram> {
        FlitPolicy::new(PlainScheme, backend)
    }

    /// `flit-adjacent`: FliT with a counter next to every word.
    pub fn flit_adjacent(backend: SimNvram) -> FlitPolicy<AdjacentScheme, SimNvram> {
        FlitPolicy::new(AdjacentScheme, backend)
    }

    /// `flit-HT`: FliT with a hashed counter table of the paper's default size (1 MB).
    pub fn flit_ht(backend: SimNvram) -> FlitPolicy<HashedScheme, SimNvram> {
        FlitPolicy::new(HashedScheme::new_default(), backend)
    }

    /// `flit-HT` with an explicit table size in bytes (the Figure 5 sweep).
    pub fn flit_ht_sized(backend: SimNvram, bytes: usize) -> FlitPolicy<HashedScheme, SimNvram> {
        FlitPolicy::new(HashedScheme::with_bytes(bytes), backend)
    }

    /// `flit-cacheline`: one counter per cache line (paper §8 future work).
    pub fn flit_cacheline(backend: SimNvram) -> FlitPolicy<CacheLineScheme, SimNvram> {
        FlitPolicy::new(CacheLineScheme::new_default(), backend)
    }

    /// `link-and-persist`: the bit-tagging comparator.
    pub fn link_and_persist(backend: SimNvram) -> LinkAndPersistPolicy<SimNvram> {
        LinkAndPersistPolicy::new(backend)
    }

    /// The non-persistent baseline.
    pub fn no_persist() -> NoPersistPolicy {
        NoPersistPolicy::new()
    }
}

#[cfg(test)]
mod crate_tests {
    use super::*;
    use flit_pmem::{LatencyModel, SimNvram};

    fn backend() -> SimNvram {
        SimNvram::builder().latency(LatencyModel::none()).build()
    }

    /// The headline behavioural difference between plain and FliT: on a read-heavy
    /// sequence, plain pays a pwb per p-load while FliT pays none.
    #[test]
    fn flit_elides_read_side_flushes_plain_does_not() {
        let plain = FlitDb::plain(backend());
        let flit = FlitDb::flit_ht(backend());
        let hp = plain.handle();
        let hf = flit.handle();

        let wp = <PlainPolicy<SimNvram> as Policy>::Word::<u64>::new(1);
        let wf = <FlitPolicy<HashedScheme, SimNvram> as Policy>::Word::<u64>::new(1);

        for _ in 0..1000 {
            let _ = wp.load(&hp, PFlag::Persisted);
            let _ = wf.load(&hf, PFlag::Persisted);
        }
        assert_eq!(plain.stats_snapshot().unwrap().pwbs, 1000);
        assert_eq!(flit.stats_snapshot().unwrap().pwbs, 0);
    }

    #[test]
    fn presets_have_distinct_labels() {
        let labels = [
            presets::plain(backend()).label(),
            presets::flit_adjacent(backend()).label(),
            presets::flit_ht(backend()).label(),
            presets::flit_cacheline(backend()).label(),
            presets::link_and_persist(backend()).label(),
            presets::no_persist().label(),
        ];
        let unique: std::collections::HashSet<_> = labels.iter().collect();
        assert_eq!(unique.len(), labels.len(), "labels: {labels:?}");
    }

    #[test]
    fn doc_example_compiles_and_runs() {
        let db = FlitDb::flit_ht(SimNvram::default());
        let h = db.handle();
        let x = <FlitPolicy<HashedScheme, SimNvram> as Policy>::Word::<u64>::new(0);
        x.store(&h, 42, PFlag::Persisted);
        assert_eq!(x.load(&h, PFlag::Persisted), 42);
        h.operation_completion();
    }
}
