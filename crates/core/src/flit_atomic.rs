//! The FliT algorithm itself: [`FlitAtomic`] implements Algorithm 4 of the paper for a
//! single persisted word, and [`FlitPolicy`] packages a tag scheme with a backend so
//! data structures can be instantiated with any combination.
//!
//! A quick recap of Algorithm 4 (shared accesses; `X` is the word, `cnt` its
//! flit-counter):
//!
//! ```text
//! p-load(X):            val = X.load(); if cnt(X) > 0 { pwb(X) }; return val
//! p-store(X, v):        pfence(); cnt(X)+=1; X.store(v); pwb(X); pfence(); cnt(X)-=1
//! v-load(X):            X.load()
//! v-store(X, v):        pfence(); X.store(v)
//! operation_completion: pfence()
//! ```
//!
//! Private accesses skip the counter and the leading fence; a private p-store is just
//! `store; pwb; pfence`.
//!
//! The leading `pfence` of every shared store (persisted *or* volatile) is what
//! discharges Condition 4 of the P-V Interface: all values the thread previously
//! `pwb`-ed — which, by the load and store rules, include every dependency it has
//! accumulated — are durable before the new store can be observed by others.
//!
//! ## Handles and persist-epoch elision
//!
//! Every operation takes the calling thread's [`FlitHandle`]: the handle owns the
//! persist-epoch state, and all persistence instructions are issued through its
//! [`PmemSession`](flit_pmem::PmemSession) view so they are attributed to exactly
//! that handle. Algorithm 4 issues its fences *unconditionally*; this
//! implementation issues them through the session's
//! [`pfence_if_dirty`](flit_pmem::PmemSession::pfence_if_dirty), which skips the fence when
//! the handle has issued zero `pwb`s since its previous fence — in that state the
//! handle holds no unpersisted dependency, so the fence is a no-op by the P-V
//! Interface's own semantics (Condition 4 is vacuously discharged). Likewise a
//! tagged p-load re-flushing a word the handle already flushed, with the same
//! observed value, in its current epoch goes through
//! [`pwb_dedup`](flit_pmem::PmemSession::pwb_dedup) and is skipped (the plain baseline opts
//! out — see [`TagScheme::dedups_read_flushes`]). On read-mostly workloads this
//! removes nearly every fence of the hot path; `flit_pmem::epoch` documents the
//! model and its soundness boundary, and building the backend with
//! `ElisionMode::Disabled` restores the paper-literal stream.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};

use flit_pmem::PmemBackend;

use crate::db::FlitHandle;
use crate::pflag::PFlag;
use crate::policy::{PersistWord, Policy};
use crate::scheme::{PlainScheme, TagScheme};
use crate::word::PWord;

/// A persistence policy running the FliT algorithm with tag scheme `S` over backend
/// `B`. The paper's evaluated variants are type aliases of this:
/// [`PlainPolicy`], flit-adjacent (`FlitPolicy<AdjacentScheme, B>`) and flit-HT
/// (`FlitPolicy<HashedScheme, B>`). Over a backend that is not persistent
/// ([`NullPmem`](flit_pmem::NullPmem)) it is the non-persistent baseline: every
/// word operation reduces to the bare atomic instruction.
#[derive(Debug, Clone)]
pub struct FlitPolicy<S: TagScheme, B: PmemBackend + Send + Sync + 'static> {
    scheme: S,
    backend: B,
}

/// The *plain* durable transformation (no tagging; every p-load flushes). This is the
/// baseline FliT is compared against throughout the evaluation.
pub type PlainPolicy<B> = FlitPolicy<PlainScheme, B>;

impl<S: TagScheme, B: PmemBackend + Send + Sync + 'static> FlitPolicy<S, B> {
    /// Create a policy from a tag scheme and a backend.
    pub fn new(scheme: S, backend: B) -> Self {
        Self { scheme, backend }
    }

    /// The tag scheme in use.
    pub fn scheme(&self) -> &S {
        &self.scheme
    }
}

impl<S: TagScheme, B: PmemBackend + Send + Sync + 'static> Policy for FlitPolicy<S, B> {
    type Backend = B;
    type Word<T: PWord> = FlitAtomic<T, S, B>;

    #[inline]
    fn backend(&self) -> &B {
        &self.backend
    }

    fn label(&self) -> String {
        if self.backend.is_persistent() {
            self.scheme.describe()
        } else {
            "non-persistent".to_string()
        }
    }

    #[inline]
    fn defers_store_fence(&self) -> bool {
        self.scheme.defers_store_close()
    }

    #[inline]
    fn close_deferred_store(&self, addr: usize) {
        self.scheme.end_store_deferred(addr);
    }
}

/// One persisted word managed by the FliT algorithm.
///
/// The layout depends on the scheme: with [`AdjacentScheme`](crate::scheme::AdjacentScheme)
/// the word carries its own 8-bit counter (doubling its size after padding — the
/// effect discussed in paper §6.6 for skiplist nodes); with the table-based schemes the
/// per-word metadata is zero-sized and the layout is identical to a plain `AtomicU64`.
pub struct FlitAtomic<T: PWord, S: TagScheme, B: PmemBackend + Send + Sync + 'static> {
    repr: AtomicU64,
    tag: S::PerWord,
    #[allow(clippy::type_complexity)]
    _marker: PhantomData<fn() -> (T, S, B)>,
}

impl<T: PWord, S: TagScheme, B: PmemBackend + Send + Sync + 'static> FlitAtomic<T, S, B> {
    #[inline]
    fn word_addr(&self) -> usize {
        &self.repr as *const AtomicU64 as usize
    }

    #[inline]
    fn word_ptr(&self) -> *const u8 {
        &self.repr as *const AtomicU64 as *const u8
    }

    /// Read path of Algorithm 4 (lines 1-8). `observed` is the word value the load
    /// returned: it keys the duplicate-flush elision (a tagged word the handle
    /// already flushed with this exact value in its current persist epoch is
    /// already pending, so re-flushing it buys nothing).
    #[inline]
    fn flush_if_tagged(&self, h: &FlitHandle<'_, FlitPolicy<S, B>>, flag: PFlag, observed: u64) {
        let ctx = h.policy();
        if flag.is_persisted()
            && ctx.backend.is_persistent()
            && ctx.scheme.is_tagged(&self.tag, self.word_addr())
        {
            self.flush_tagged(h, observed);
        }
    }

    /// The tagged branch of [`flush_if_tagged`](Self::flush_if_tagged): the
    /// rare one on a read path, kept out of line so that an untagged p-load,
    /// the body of every traversal loop, stays small enough to inline.
    #[inline(never)]
    fn flush_tagged(&self, h: &FlitHandle<'_, FlitPolicy<S, B>>, observed: u64) {
        let pm = h.pmem();
        let flushed = if h.policy().scheme.dedups_read_flushes() {
            pm.pwb_dedup(self.word_ptr(), observed)
        } else {
            // The plain baseline stays paper-literal (see
            // `TagScheme::dedups_read_flushes`).
            pm.pwb(self.word_ptr());
            true
        };
        if flushed {
            pm.note_read_side_pwb();
        }
    }

    /// Write path of Algorithm 4 (lines 10-18), shared by store/CAS/exchange/FAA:
    /// the actual atomic update is passed in as `update`, which returns the value now
    /// present in the word (the new value for successful updates, the unchanged
    /// current value for failed CAS).
    #[inline]
    fn shared_update<R>(
        &self,
        h: &FlitHandle<'_, FlitPolicy<S, B>>,
        flag: PFlag,
        update: impl FnOnce() -> (R, u64),
    ) -> R {
        let ctx = h.policy();
        if !ctx.backend.is_persistent() {
            // The non-persistent baseline: the bare atomic update.
            let (result, _now) = update();
            return result;
        }
        let pm = h.pmem();
        // Leading fence: every dependency this handle accumulated (all its prior
        // pwbs) must be durable before this store can linearize (Condition 4). A
        // *clean* handle has no outstanding pwbs — every dependency it holds was
        // persisted by an earlier fence (its own trailing fences, or the writer's
        // fence for untagged words it read) — so the fence is elided.
        pm.pfence_if_dirty();
        // The handle is clean now, so any untags it deferred under group commit
        // are backed by a committed fence and can be closed.
        h.close_deferred_stores();
        if flag.is_persisted() {
            let addr = self.word_addr();
            ctx.scheme.begin_store(&self.tag, addr);
            let (result, now) = update();
            pm.record_store(self.word_ptr(), now);
            pm.pwb(self.word_ptr());
            if h.defers_store_fence() {
                // Group commit: the trailing fence moves to the handle's next
                // fence point (the next update's leading fence, a batch drain,
                // or handle drop). Until then the word stays *tagged*, so
                // concurrent readers keep issuing the helping flush that covers
                // cross-thread dependencies (Condition 4); the untag is queued
                // on the handle and closed after that fence.
                h.defer_store_close(addr);
            } else {
                pm.pfence();
                ctx.scheme.end_store(&self.tag, addr);
            }
            result
        } else {
            let (result, now) = update();
            pm.record_store(self.word_ptr(), now);
            result
        }
    }
}

impl<T: PWord, S: TagScheme, B: PmemBackend + Send + Sync + 'static>
    PersistWord<T, FlitPolicy<S, B>> for FlitAtomic<T, S, B>
{
    fn new(val: T) -> Self {
        Self {
            repr: AtomicU64::new(val.to_word()),
            tag: Default::default(),
            _marker: PhantomData,
        }
    }

    #[inline]
    fn load(&self, h: &FlitHandle<'_, FlitPolicy<S, B>>, flag: PFlag) -> T {
        let val = self.repr.load(Ordering::SeqCst);
        self.flush_if_tagged(h, flag, val);
        T::from_word(val)
    }

    #[inline]
    fn store(&self, h: &FlitHandle<'_, FlitPolicy<S, B>>, val: T, flag: PFlag) {
        let word = val.to_word();
        self.shared_update(h, flag, || {
            self.repr.store(word, Ordering::SeqCst);
            ((), word)
        });
    }

    #[inline]
    fn compare_exchange(
        &self,
        h: &FlitHandle<'_, FlitPolicy<S, B>>,
        current: T,
        new: T,
        flag: PFlag,
    ) -> Result<T, T> {
        let cur = current.to_word();
        let new = new.to_word();
        self.shared_update(h, flag, || {
            match self
                .repr
                .compare_exchange(cur, new, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(prev) => (Ok(T::from_word(prev)), new),
                Err(actual) => (Err(T::from_word(actual)), actual),
            }
        })
    }

    #[inline]
    fn exchange(&self, h: &FlitHandle<'_, FlitPolicy<S, B>>, val: T, flag: PFlag) -> T {
        let word = val.to_word();
        self.shared_update(h, flag, || {
            (T::from_word(self.repr.swap(word, Ordering::SeqCst)), word)
        })
    }

    #[inline]
    fn fetch_add(&self, h: &FlitHandle<'_, FlitPolicy<S, B>>, delta: u64, flag: PFlag) -> T {
        self.shared_update(h, flag, || {
            let prev = self.repr.fetch_add(delta, Ordering::SeqCst);
            (T::from_word(prev), prev.wrapping_add(delta))
        })
    }

    #[inline]
    fn load_private(&self, _h: &FlitHandle<'_, FlitPolicy<S, B>>, _flag: PFlag) -> T {
        // A private location cannot have a pending p-store by another thread, so the
        // counter check and flush are unnecessary (paper §5).
        T::from_word(self.repr.load(Ordering::SeqCst))
    }

    #[inline]
    fn store_private(&self, h: &FlitHandle<'_, FlitPolicy<S, B>>, val: T, flag: PFlag) {
        let word = val.to_word();
        self.repr.store(word, Ordering::SeqCst);
        let ctx = h.policy();
        if !ctx.backend.is_persistent() {
            return;
        }
        let pm = h.pmem();
        pm.record_store(self.word_ptr(), word);
        if flag.is_persisted() {
            pm.pwb(self.word_ptr());
            pm.pfence();
        }
    }

    #[inline]
    fn load_direct(&self) -> T {
        T::from_word(self.repr.load(Ordering::Relaxed))
    }

    #[inline]
    fn store_direct(&self, val: T) {
        self.repr.store(val.to_word(), Ordering::Relaxed);
    }

    #[inline]
    fn addr(&self) -> usize {
        self.word_addr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::FlitDb;
    use crate::scheme::{AdjacentScheme, CacheLineScheme, HashedScheme};
    use flit_pmem::{LatencyModel, SimNvram};

    type HtPolicy = FlitPolicy<HashedScheme, SimNvram>;

    fn ht_db() -> FlitDb<HtPolicy> {
        FlitDb::create(FlitPolicy::new(
            HashedScheme::with_bytes(1 << 16),
            SimNvram::builder().latency(LatencyModel::none()).build(),
        ))
    }

    #[test]
    fn load_store_round_trip() {
        let db = ht_db();
        let h = db.handle();
        let w: FlitAtomic<u64, _, _> = FlitAtomic::new(5);
        assert_eq!(w.load(&h, PFlag::Persisted), 5);
        w.store(&h, 9, PFlag::Persisted);
        assert_eq!(w.load(&h, PFlag::Volatile), 9);
        assert_eq!(w.load_direct(), 9);
    }

    #[test]
    fn clean_handle_p_store_costs_one_pwb_and_one_trailing_pfence() {
        // With persist-epoch elision (the default), a clean handle's leading fence
        // would persist nothing and is skipped: only the trailing fence remains.
        let db = ht_db();
        let h = db.handle();
        let w: FlitAtomic<u64, _, _> = FlitAtomic::new(0);
        w.store(&h, 1, PFlag::Persisted);
        let snap = db.stats_snapshot().unwrap();
        assert_eq!(snap.pwbs, 1);
        assert_eq!(snap.pfences, 1, "leading fence elided on a clean handle");
        assert_eq!(snap.elided_pfences, 1);
    }

    #[test]
    fn dirty_handle_p_store_still_pays_both_pfences() {
        let db = ht_db();
        let h = db.handle();
        let w: FlitAtomic<u64, _, _> = FlitAtomic::new(0);
        // Dirty the handle: an unfenced pwb (as a tagged p-load would leave behind).
        h.pmem().pwb(w.word_ptr());
        let before = db.stats_snapshot().unwrap();
        w.store(&h, 1, PFlag::Persisted);
        let delta = db.stats_snapshot().unwrap().delta_since(&before);
        assert_eq!(delta.pfences, 2, "dirty handle: leading fence must fire");
    }

    #[test]
    fn literal_mode_p_store_costs_two_pfences() {
        // ElisionMode::Disabled restores the paper's exact instruction stream.
        let db: FlitDb<HtPolicy> = FlitDb::create(FlitPolicy::new(
            HashedScheme::with_bytes(1 << 16),
            SimNvram::builder()
                .latency(LatencyModel::none())
                .elision(flit_pmem::ElisionMode::Disabled)
                .build(),
        ));
        let h = db.handle();
        let w: FlitAtomic<u64, _, _> = FlitAtomic::new(0);
        w.store(&h, 1, PFlag::Persisted);
        let snap = db.stats_snapshot().unwrap();
        assert_eq!(snap.pwbs, 1);
        assert_eq!(snap.pfences, 2);
        assert_eq!(snap.elided_pfences, 0);
    }

    #[test]
    fn clean_handle_v_store_costs_no_persistence_instructions() {
        let db = ht_db();
        let h = db.handle();
        let w: FlitAtomic<u64, _, _> = FlitAtomic::new(0);
        w.store(&h, 1, PFlag::Volatile);
        let snap = db.stats_snapshot().unwrap();
        assert_eq!(snap.pwbs, 0);
        assert_eq!(snap.pfences, 0, "the v-store's only fence was a no-op");
        assert_eq!(snap.elided_pfences, 1);
    }

    #[test]
    fn dirty_handle_v_store_pays_the_leading_pfence() {
        let db = ht_db();
        let h = db.handle();
        let w: FlitAtomic<u64, _, _> = FlitAtomic::new(0);
        h.pmem().pwb(w.word_ptr());
        w.store(&h, 1, PFlag::Volatile);
        assert_eq!(db.stats_snapshot().unwrap().pfences, 1);
    }

    #[test]
    fn p_load_of_untagged_location_does_not_flush() {
        let db = ht_db();
        let h = db.handle();
        let w: FlitAtomic<u64, _, _> = FlitAtomic::new(3);
        for _ in 0..100 {
            assert_eq!(w.load(&h, PFlag::Persisted), 3);
        }
        assert_eq!(db.stats_snapshot().unwrap().pwbs, 0);
    }

    #[test]
    fn p_load_of_tagged_location_flushes() {
        let db = ht_db();
        let h = db.handle();
        let w: FlitAtomic<u64, _, _> = FlitAtomic::new(3);
        // Tag the location by hand, as if a p-store were pending.
        db.policy().scheme().begin_store(&(), w.addr());
        let _ = w.load(&h, PFlag::Persisted);
        let snap = db.stats_snapshot().unwrap();
        assert_eq!(snap.pwbs, 1);
        assert_eq!(snap.read_side_pwbs, 1);
        db.policy().scheme().end_store(&(), w.addr());
        // Once untagged, loads stop flushing.
        let _ = w.load(&h, PFlag::Persisted);
        assert_eq!(db.stats_snapshot().unwrap().pwbs, 1);
    }

    #[test]
    fn repeated_tagged_loads_flush_once_per_epoch() {
        // A CAS-retry loop re-reading the same tagged, unchanged word pays one pwb
        // per epoch instead of one per read.
        let db = ht_db();
        let h = db.handle();
        let w: FlitAtomic<u64, _, _> = FlitAtomic::new(3);
        db.policy().scheme().begin_store(&(), w.addr());
        for _ in 0..10 {
            let _ = w.load(&h, PFlag::Persisted);
        }
        let snap = db.stats_snapshot().unwrap();
        assert_eq!(snap.pwbs, 1, "nine duplicate flushes deduped");
        assert_eq!(snap.elided_pwbs, 9);
        assert_eq!(snap.read_side_pwbs, 1, "only real flushes are read-side");
        // A fence closes the epoch; the next tagged load flushes again.
        h.pmem().pfence();
        let _ = w.load(&h, PFlag::Persisted);
        assert_eq!(db.stats_snapshot().unwrap().pwbs, 2);
        db.policy().scheme().end_store(&(), w.addr());
    }

    #[test]
    fn plain_policy_flushes_on_every_p_load() {
        let db: FlitDb<PlainPolicy<SimNvram>> = FlitDb::create(FlitPolicy::new(
            PlainScheme,
            SimNvram::builder().latency(LatencyModel::none()).build(),
        ));
        let h = db.handle();
        let w: FlitAtomic<u64, _, _> = FlitAtomic::new(3);
        for _ in 0..10 {
            let _ = w.load(&h, PFlag::Persisted);
        }
        assert_eq!(db.stats_snapshot().unwrap().pwbs, 10);
        // ...but never on v-loads.
        for _ in 0..10 {
            let _ = w.load(&h, PFlag::Volatile);
        }
        assert_eq!(db.stats_snapshot().unwrap().pwbs, 10);
    }

    #[test]
    fn cas_success_and_failure() {
        let db = ht_db();
        let h = db.handle();
        let w: FlitAtomic<u64, _, _> = FlitAtomic::new(10);
        assert_eq!(w.compare_exchange(&h, 10, 20, PFlag::Persisted), Ok(10));
        assert_eq!(w.compare_exchange(&h, 10, 30, PFlag::Persisted), Err(20));
        assert_eq!(w.load(&h, PFlag::Volatile), 20);
    }

    #[test]
    fn exchange_and_fetch_add() {
        let db = ht_db();
        let h = db.handle();
        let w: FlitAtomic<u64, _, _> = FlitAtomic::new(100);
        assert_eq!(w.exchange(&h, 200, PFlag::Persisted), 100);
        assert_eq!(w.fetch_add(&h, 5, PFlag::Persisted), 200);
        assert_eq!(w.load(&h, PFlag::Persisted), 205);
    }

    #[test]
    fn counter_returns_to_zero_after_every_store() {
        // Lemma 5.1: the flit-counter balance of a completed p-store is zero.
        let scheme = HashedScheme::with_bytes(1 << 12);
        let db = FlitDb::create(FlitPolicy::new(
            scheme.clone(),
            SimNvram::builder().latency(LatencyModel::none()).build(),
        ));
        let h = db.handle();
        let w: FlitAtomic<u64, _, _> = FlitAtomic::new(0);
        for i in 0..100 {
            w.store(&h, i, PFlag::Persisted);
            let _ = w.compare_exchange(&h, i, i + 1, PFlag::Persisted);
        }
        assert_eq!(scheme.table().tagged_count(), 0);
    }

    #[test]
    fn pointers_can_be_stored() {
        let db = ht_db();
        let h = db.handle();
        let boxed = Box::into_raw(Box::new(77u64));
        let w: FlitAtomic<*mut u64, _, _> = FlitAtomic::new(std::ptr::null_mut());
        w.store(&h, boxed, PFlag::Persisted);
        let back = w.load(&h, PFlag::Persisted);
        assert_eq!(back, boxed);
        unsafe { drop(Box::from_raw(back)) };
    }

    #[test]
    fn private_accesses_skip_the_counter_and_leading_fence() {
        let db = ht_db();
        let h = db.handle();
        let w: FlitAtomic<u64, _, _> = FlitAtomic::new(0);
        w.store_private(&h, 42, PFlag::Persisted);
        let snap = db.stats_snapshot().unwrap();
        assert_eq!(snap.pwbs, 1);
        assert_eq!(snap.pfences, 1, "private p-store has no leading fence");
        assert_eq!(w.load_private(&h, PFlag::Persisted), 42);
        assert_eq!(snap.read_side_pwbs, 0);
    }

    #[test]
    fn adjacent_scheme_embeds_the_counter() {
        let db = FlitDb::create(FlitPolicy::new(
            AdjacentScheme,
            SimNvram::builder().latency(LatencyModel::none()).build(),
        ));
        let h = db.handle();
        let w: FlitAtomic<u64, AdjacentScheme, SimNvram> = FlitAtomic::new(1);
        w.store(&h, 2, PFlag::Persisted);
        assert_eq!(w.load(&h, PFlag::Persisted), 2);
        // Layout check backing the paper's §6.6 discussion: the adjacent variant makes
        // the word bigger than a bare AtomicU64, the table variants do not.
        assert!(std::mem::size_of::<FlitAtomic<u64, AdjacentScheme, SimNvram>>() > 8);
        assert_eq!(
            std::mem::size_of::<FlitAtomic<u64, HashedScheme, SimNvram>>(),
            8
        );
        assert_eq!(
            std::mem::size_of::<FlitAtomic<u64, PlainScheme, SimNvram>>(),
            8
        );
    }

    #[test]
    fn cache_line_scheme_works_end_to_end() {
        let db = FlitDb::create(FlitPolicy::new(
            CacheLineScheme::with_bytes(1 << 12),
            SimNvram::builder().latency(LatencyModel::none()).build(),
        ));
        let h = db.handle();
        let w: FlitAtomic<u64, CacheLineScheme, SimNvram> = FlitAtomic::new(0);
        w.store(&h, 5, PFlag::Persisted);
        assert_eq!(w.load(&h, PFlag::Persisted), 5);
        assert_eq!(db.stats_snapshot().unwrap().pwbs, 1);
    }

    #[test]
    fn stores_feed_the_persistence_tracker() {
        let backend = SimNvram::for_crash_testing();
        let db = FlitDb::create(FlitPolicy::new(
            HashedScheme::with_bytes(1 << 12),
            backend.clone(),
        ));
        let h = db.handle();
        let w: FlitAtomic<u64, _, _> = FlitAtomic::new(0);
        w.store(&h, 11, PFlag::Persisted);
        // A completed p-store must already be durable.
        assert_eq!(
            backend.tracker().unwrap().persisted_value(w.addr()),
            Some(11)
        );
        w.store(&h, 12, PFlag::Volatile);
        // A v-store is visible in volatile memory but not persisted.
        assert_eq!(
            backend.tracker().unwrap().volatile_value(w.addr()),
            Some(12)
        );
        assert_eq!(
            backend.tracker().unwrap().persisted_value(w.addr()),
            Some(11)
        );
    }

    #[test]
    fn batched_commit_defers_the_trailing_fence_and_the_untag() {
        let scheme = HashedScheme::with_bytes(1 << 12);
        let backend = SimNvram::for_crash_testing();
        let db = FlitDb::builder(FlitPolicy::new(scheme.clone(), backend.clone()))
            .commit_mode(flit_pmem::CommitMode::Batched(8))
            .build();
        let h = db.handle();
        let w: FlitAtomic<u64, _, _> = FlitAtomic::new(0);
        w.store(&h, 11, PFlag::Persisted);
        let snap = db.stats_snapshot().unwrap();
        assert_eq!(snap.pwbs, 1);
        assert_eq!(
            snap.pfences, 0,
            "leading fence elided (clean handle), trailing fence deferred"
        );
        // The write-back is pending but uncommitted — the store is NOT yet
        // durable — and the word stays tagged so readers keep helping.
        assert_eq!(backend.tracker().unwrap().persisted_value(w.addr()), None);
        assert_eq!(scheme.table().tagged_count(), 1);
        h.operation_completion();
        h.flush();
        assert_eq!(h.committed_obligations(), 1);
        assert_eq!(
            backend.tracker().unwrap().persisted_value(w.addr()),
            Some(11)
        );
        assert_eq!(
            scheme.table().tagged_count(),
            0,
            "the drain fence closes the deferred untag"
        );
        assert_eq!(db.stats_snapshot().unwrap().pfences, 1);
    }

    #[test]
    fn batched_commit_keeps_the_inline_fence_under_the_adjacent_scheme() {
        // The adjacent scheme embeds the counter in the word, which may be
        // reclaimed before a deferred close: batched commit must not defer.
        let db = FlitDb::builder(FlitPolicy::new(
            AdjacentScheme,
            SimNvram::builder().latency(LatencyModel::none()).build(),
        ))
        .commit_mode(flit_pmem::CommitMode::Batched(8))
        .build();
        let h = db.handle();
        let w: FlitAtomic<u64, AdjacentScheme, SimNvram> = FlitAtomic::new(0);
        w.store(&h, 1, PFlag::Persisted);
        assert_eq!(
            db.stats_snapshot().unwrap().pfences,
            1,
            "trailing fence inline"
        );
        assert!(!db.policy().defers_store_fence());
    }

    #[test]
    fn concurrent_counter_discipline() {
        let scheme = HashedScheme::with_bytes(1 << 12);
        let db = FlitDb::create(FlitPolicy::new(
            scheme.clone(),
            SimNvram::builder().latency(LatencyModel::none()).build(),
        ));
        let w = std::sync::Arc::new(FlitAtomic::<u64, HashedScheme, SimNvram>::new(0));
        // Every update adds one, so the word ends at the adds plus the CASes
        // that won.
        let cas_wins: u64 = std::thread::scope(|s| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    let db = &db;
                    let w = std::sync::Arc::clone(&w);
                    s.spawn(move || {
                        let h = db.handle();
                        let mut wins = 0;
                        for _ in 0..1000 {
                            w.fetch_add(&h, 1, PFlag::Persisted);
                            let seen = w.load(&h, PFlag::Persisted);
                            wins += u64::from(
                                w.compare_exchange(&h, seen, seen + 1, PFlag::Persisted)
                                    .is_ok(),
                            );
                        }
                        wins
                    })
                })
                .collect();
            workers.into_iter().map(|t| t.join().unwrap()).sum()
        });
        assert_eq!(scheme.table().tagged_count(), 0);
        assert_eq!(w.load_direct(), 4000 + cas_wins);
    }

    /// The non-persistent baseline is this policy over `NullPmem`
    /// (`presets::no_persist()`): every word operation is the bare atomic.
    mod no_persist {
        use super::*;
        use crate::presets;
        use flit_pmem::NullPmem;

        type Word<T> = FlitAtomic<T, PlainScheme, NullPmem>;

        #[test]
        fn basic_operations() {
            let db = FlitDb::create(presets::no_persist());
            let h = db.handle();
            let w: Word<u64> = Word::new(1);
            assert_eq!(w.load(&h, PFlag::Persisted), 1);
            w.store(&h, 2, PFlag::Persisted);
            assert_eq!(w.compare_exchange(&h, 2, 3, PFlag::Persisted), Ok(2));
            assert_eq!(w.exchange(&h, 4, PFlag::Persisted), 3);
            assert_eq!(w.fetch_add(&h, 6, PFlag::Persisted), 4);
            assert_eq!(w.load_direct(), 10);
        }

        #[test]
        fn no_persistence_side_effects() {
            let db = FlitDb::create(presets::no_persist());
            let h = db.handle();
            assert!(!db.backend().is_persistent());
            assert!(db.stats_snapshot().is_none());
            h.operation_completion();
            let w: Word<u64> = Word::new(0);
            h.persist_object(&w, PFlag::Persisted);
            assert_eq!(db.label(), "non-persistent");
            assert!(!h.is_dirty());
        }

        #[test]
        fn word_is_exactly_eight_bytes() {
            assert_eq!(std::mem::size_of::<Word<u64>>(), 8);
            assert_eq!(std::mem::size_of::<Word<*mut u64>>(), 8);
        }

        #[test]
        fn an_armed_handle_records_no_persistence_event() {
            let db = FlitDb::create(presets::no_persist());
            let h = db.handle();
            h.arm_flight_recorder();
            let w: Word<u64> = Word::new(0);
            w.store(&h, 1, PFlag::Persisted);
            assert_eq!(w.compare_exchange(&h, 1, 2, PFlag::Persisted), Ok(1));
            assert_eq!(w.exchange(&h, 3, PFlag::Persisted), 2);
            assert_eq!(w.fetch_add(&h, 4, PFlag::Persisted), 3);
            assert_eq!(w.load(&h, PFlag::Persisted), 7);
            h.persist_object(&w, PFlag::Persisted);
            h.operation_completion();
            assert!(h.flight_events().is_empty(), "{:?}", h.flight_events());
            assert!(!h.is_dirty());
        }
    }
}
