//! The [`Policy`] abstraction: *how* p-instructions are implemented.
//!
//! The P-V Interface (paper §3) specifies *what* p- and v-instructions guarantee; a
//! policy is one concrete implementation of that interface. The paper's evaluation
//! compares five:
//!
//! | paper name        | policy type here                                   |
//! |--------------------|----------------------------------------------------|
//! | plain              | [`PlainPolicy<B>`](crate::flit_atomic::PlainPolicy) (= FliT with the always-tagged scheme) |
//! | flit-adjacent      | [`FlitPolicy<AdjacentScheme, B>`](crate::flit_atomic::FlitPolicy) |
//! | flit-HT            | [`FlitPolicy<HashedScheme, B>`](crate::flit_atomic::FlitPolicy) |
//! | link-and-persist   | [`LinkAndPersistPolicy<B>`](crate::link_persist::LinkAndPersistPolicy) |
//! | non-persistent     | [`PlainPolicy<NullPmem>`](crate::flit_atomic::PlainPolicy) (every `pwb`/`pfence` a no-op) |
//!
//! Data structures are written once, generic over `P: Policy`, and every word they
//! declare as `P::Word<T>` behaves according to the chosen policy — this is the Rust
//! equivalent of the paper's `persist<T>` template declaration.
//!
//! ## Handles, not ambient threads
//!
//! Every word operation takes the calling thread's **[`FlitHandle`]** as an
//! explicit context argument: the handle carries the policy (schemes that keep
//! their flit-counters in a shared table live there), the backend, and the
//! per-handle persist-epoch state that decides which fences and flushes may be
//! elided. Per-operation bookkeeping ([`FlitHandle::operation_completion`],
//! [`FlitHandle::persist_object`](crate::FlitHandle::persist_object)) lives on
//! the handle too; the `Policy` itself is pure configuration.

use flit_pmem::{PmemBackend, StatsSnapshot};

use crate::db::FlitHandle;
use crate::pflag::PFlag;
use crate::word::PWord;

/// One persisted word as exposed to data-structure code: the Rust counterpart of the
/// paper's `persist<T>` member functions (Figure 1).
///
/// Every method takes the calling thread's [`FlitHandle`] as an explicit context
/// argument (`h`): the handle reaches the owning policy (schemes, backend) and
/// owns the persist-epoch state each instruction must be attributed to.
///
/// The `*_private` variants implement the cheaper code path the paper describes for
/// locations not yet (or no longer) reachable by other threads.
pub trait PersistWord<T: PWord, P: Policy>: Send + Sync + 'static {
    /// Create a word holding `val`. No persistence actions are taken: a freshly
    /// created word is private until it is published, and the publishing code decides
    /// how to persist the initial value (typically [`FlitHandle::persist_object`]).
    fn new(val: T) -> Self;

    /// Shared load (`persist<T>::load(pflag)`).
    fn load(&self, h: &FlitHandle<'_, P>, flag: PFlag) -> T;

    /// Shared store (`persist<T>::write(value, pflag)`).
    fn store(&self, h: &FlitHandle<'_, P>, val: T, flag: PFlag);

    /// Shared compare-and-swap. Returns `Ok(previous)` on success and `Err(actual)`
    /// when the current value did not match `current`.
    fn compare_exchange(
        &self,
        h: &FlitHandle<'_, P>,
        current: T,
        new: T,
        flag: PFlag,
    ) -> Result<T, T>;

    /// Shared atomic exchange (`persist<T>::exchange`). Returns the previous value.
    fn exchange(&self, h: &FlitHandle<'_, P>, val: T, flag: PFlag) -> T;

    /// Shared fetch-and-add on the word's 64-bit representation
    /// (`persist<T>::FAA`; only meaningful for integer `T`). Returns the previous
    /// value.
    fn fetch_add(&self, h: &FlitHandle<'_, P>, delta: u64, flag: PFlag) -> T;

    /// Private load: the location cannot be concurrently accessed.
    fn load_private(&self, h: &FlitHandle<'_, P>, flag: PFlag) -> T;

    /// Private store: the location cannot be concurrently accessed, so the
    /// flit-counter and the leading fence are skipped (paper §5).
    fn store_private(&self, h: &FlitHandle<'_, P>, val: T, flag: PFlag);

    /// Raw load with no persistence semantics whatsoever. Intended for `Drop`
    /// implementations and single-threaded teardown/validation code.
    fn load_direct(&self) -> T;

    /// Raw store with no persistence semantics whatsoever (initialisation helpers).
    fn store_direct(&self, val: T);

    /// The address of the underlying word (used by schemes, flushes and tests).
    fn addr(&self) -> usize;
}

/// A persistence policy: a [`TagScheme`](crate::scheme::TagScheme) (or other tagging
/// mechanism) plus a [`PmemBackend`], packaged so that data structures can be written
/// once and instantiated with any combination.
///
/// A policy is pure configuration: per-thread session state lives in
/// [`FlitHandle`], and the facade that owns a policy (plus the collector and
/// arenas) is [`FlitDb`](crate::FlitDb).
pub trait Policy: Send + Sync + Sized + 'static {
    /// The persistent-memory backend in use. The `Send + Sync + 'static` bounds
    /// make the *stored* backend shareable; the per-handle
    /// [`PmemSession`](flit_pmem::PmemSession) view through which operations
    /// issue instructions is intentionally not subject to them.
    type Backend: PmemBackend + Send + Sync + 'static;

    /// The persisted-word cell type for values of type `T`.
    type Word<T: PWord>: PersistWord<T, Self>;

    /// Access the backend (for statistics and direct flushing).
    fn backend(&self) -> &Self::Backend;

    /// Human-readable label for benchmark output (e.g. `"flit-HT (1MB)"`).
    fn label(&self) -> String;

    /// Whether this policy's p-stores may defer their trailing fence (and untag)
    /// to the owning handle's next fence point under group commit
    /// ([`CommitMode::Batched`](flit_pmem::CommitMode)). `false` — the safe
    /// default — keeps every p-store's inline trailing fence regardless of
    /// commit mode (see [`TagScheme::defers_store_close`](crate::scheme::TagScheme::defers_store_close)).
    fn defers_store_fence(&self) -> bool {
        false
    }

    /// Close a p-store whose untag was deferred by group commit. Only called on
    /// policies returning `true` from [`defers_store_fence`](Self::defers_store_fence),
    /// after the deferring handle fenced.
    fn close_deferred_store(&self, _addr: usize) {}

    /// Snapshot of the backend's persistence-instruction counters, if it keeps any.
    fn stats_snapshot(&self) -> Option<StatsSnapshot> {
        self.backend().pmem_stats().map(|s| s.snapshot())
    }
}

#[cfg(test)]
mod tests {
    // The concrete policies have their own test modules; here we only check the
    // handle-level helpers (`operation_completion`, `persist_range`,
    // `persist_object`) through a minimal hand-rolled policy.
    use super::*;
    use crate::db::FlitDb;
    use flit_pmem::{LatencyModel, SimNvram};
    use std::marker::PhantomData;
    use std::sync::atomic::{AtomicU64, Ordering};

    struct DummyWord<T> {
        repr: AtomicU64,
        _t: PhantomData<fn() -> T>,
    }

    impl<T: PWord> PersistWord<T, DummyPolicy> for DummyWord<T> {
        fn new(val: T) -> Self {
            Self {
                repr: AtomicU64::new(val.to_word()),
                _t: PhantomData,
            }
        }
        fn load(&self, _h: &FlitHandle<'_, DummyPolicy>, _flag: PFlag) -> T {
            T::from_word(self.repr.load(Ordering::SeqCst))
        }
        fn store(&self, _h: &FlitHandle<'_, DummyPolicy>, val: T, _flag: PFlag) {
            self.repr.store(val.to_word(), Ordering::SeqCst)
        }
        fn compare_exchange(
            &self,
            _h: &FlitHandle<'_, DummyPolicy>,
            current: T,
            new: T,
            _flag: PFlag,
        ) -> Result<T, T> {
            self.repr
                .compare_exchange(
                    current.to_word(),
                    new.to_word(),
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                )
                .map(T::from_word)
                .map_err(T::from_word)
        }
        fn exchange(&self, _h: &FlitHandle<'_, DummyPolicy>, val: T, _flag: PFlag) -> T {
            T::from_word(self.repr.swap(val.to_word(), Ordering::SeqCst))
        }
        fn fetch_add(&self, _h: &FlitHandle<'_, DummyPolicy>, delta: u64, _flag: PFlag) -> T {
            T::from_word(self.repr.fetch_add(delta, Ordering::SeqCst))
        }
        fn load_private(&self, h: &FlitHandle<'_, DummyPolicy>, flag: PFlag) -> T {
            self.load(h, flag)
        }
        fn store_private(&self, h: &FlitHandle<'_, DummyPolicy>, val: T, flag: PFlag) {
            self.store(h, val, flag)
        }
        fn load_direct(&self) -> T {
            T::from_word(self.repr.load(Ordering::Relaxed))
        }
        fn store_direct(&self, val: T) {
            self.repr.store(val.to_word(), Ordering::Relaxed)
        }
        fn addr(&self) -> usize {
            &self.repr as *const AtomicU64 as usize
        }
    }

    struct DummyPolicy {
        backend: SimNvram,
    }

    impl Policy for DummyPolicy {
        type Backend = SimNvram;
        type Word<T: PWord> = DummyWord<T>;
        fn backend(&self) -> &SimNvram {
            &self.backend
        }
        fn label(&self) -> String {
            "dummy".into()
        }
    }

    fn dummy_db() -> FlitDb<DummyPolicy> {
        FlitDb::create(DummyPolicy {
            backend: SimNvram::builder().latency(LatencyModel::none()).build(),
        })
    }

    #[test]
    fn operation_completion_fences_only_dirty_handles() {
        let db = dummy_db();
        let h = db.handle();
        // A clean handle's completion fence would persist nothing: elided.
        h.operation_completion();
        assert_eq!(db.stats_snapshot().unwrap().pfences, 0);
        assert_eq!(db.stats_snapshot().unwrap().elided_pfences, 1);
        // After a pwb through the handle the completion fence must fire.
        let x = 1u64;
        h.pmem().pwb(&x as *const u64 as *const u8);
        h.operation_completion();
        assert_eq!(db.stats_snapshot().unwrap().pfences, 1);
    }

    #[test]
    fn operation_completion_is_literal_when_elision_is_disabled() {
        let db = FlitDb::create(DummyPolicy {
            backend: SimNvram::builder()
                .latency(LatencyModel::none())
                .elision(flit_pmem::ElisionMode::Disabled)
                .build(),
        });
        let h = db.handle();
        h.operation_completion();
        h.operation_completion();
        assert_eq!(db.stats_snapshot().unwrap().pfences, 2);
    }

    #[test]
    fn persist_range_flushes_every_touched_line() {
        let db = dummy_db();
        let h = db.handle();
        // 130 bytes starting at an arbitrary heap address touch 3 or 4 cache lines.
        let buf = vec![0u8; 256];
        h.persist_range(buf.as_ptr(), 130, PFlag::Persisted);
        let snap = db.stats_snapshot().unwrap();
        assert!(snap.pwbs >= 3 && snap.pwbs <= 4, "got {} pwbs", snap.pwbs);
        assert_eq!(snap.pfences, 1);
    }

    #[test]
    fn persist_range_is_a_noop_for_volatile_flag() {
        let db = dummy_db();
        let h = db.handle();
        let buf = [0u8; 64];
        h.persist_range(buf.as_ptr(), 64, PFlag::Volatile);
        h.persist_range(buf.as_ptr(), 0, PFlag::Persisted);
        assert_eq!(db.stats_snapshot().unwrap().pwbs, 0);
        assert_eq!(db.stats_snapshot().unwrap().pfences, 0);
    }

    #[test]
    fn persist_object_covers_the_whole_object() {
        let db = dummy_db();
        let h = db.handle();
        #[repr(align(64))]
        #[allow(dead_code)]
        struct Big([u8; 256]);
        let big = Big([0; 256]);
        h.persist_object(&big, PFlag::Persisted);
        assert_eq!(db.stats_snapshot().unwrap().pwbs, 4);
    }
}
