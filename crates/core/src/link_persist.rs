//! The *link-and-persist* comparator (David et al., USENIX ATC'18).
//!
//! Link-and-persist avoids read-side flushes the same way FliT does — by marking
//! locations with a pending un-persisted store — but keeps the mark *inside the word
//! itself*, as a single bit (here the most significant bit). A writer CASes in the new
//! value with the dirty bit set, flushes, fences, and then clears the bit with a second
//! store; a reader that observes the bit set flushes (and may help clear it).
//!
//! The paper highlights the technique's two limitations, which this implementation
//! shares deliberately because they are the point of the comparison (§2, §6.6):
//!
//! * it steals a bit from every word, so it cannot be used by algorithms that need all
//!   64 bits (e.g. the Natarajan–Mittal BST as benchmarked in the paper);
//! * all stores must go through CAS so that a concurrent writer cannot accidentally
//!   clear the dirty bit of a value that has not been persisted yet (plain stores and
//!   hardware FAA are emulated with CAS loops here).
//!
//! As everywhere in the workspace, every operation takes the calling thread's
//! [`FlitHandle`] and issues its instructions through the handle's session, so the
//! leading fence of `LpAtomic`'s dirty-write path elides per handle exactly as in the
//! FliT write path.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};

use flit_pmem::PmemBackend;

use crate::db::FlitHandle;
use crate::pflag::PFlag;
use crate::policy::{PersistWord, Policy};
use crate::word::PWord;

/// The dirty ("link") bit: set while a store's value may not yet be persisted.
pub const DIRTY_BIT: u64 = 1 << 63;

/// Persistence policy implementing link-and-persist over backend `B`.
#[derive(Debug, Clone)]
pub struct LinkAndPersistPolicy<B: PmemBackend + Send + Sync + 'static> {
    backend: B,
}

impl<B: PmemBackend + Send + Sync + 'static> LinkAndPersistPolicy<B> {
    /// Create a link-and-persist policy over the given backend.
    pub fn new(backend: B) -> Self {
        Self { backend }
    }
}

impl<B: PmemBackend + Send + Sync + 'static> Policy for LinkAndPersistPolicy<B> {
    type Backend = B;
    type Word<T: PWord> = LpAtomic<T, B>;

    #[inline]
    fn backend(&self) -> &B {
        &self.backend
    }

    fn label(&self) -> String {
        "link-and-persist".to_string()
    }
}

/// A persisted word whose dirty flag lives in bit 63 of the word itself.
///
/// Values stored through this cell must never use bit 63 (checked with a debug
/// assertion). Heap pointers and the integer keys/values used throughout the
/// evaluation satisfy this.
pub struct LpAtomic<T: PWord, B: PmemBackend + Send + Sync + 'static> {
    repr: AtomicU64,
    _marker: PhantomData<fn() -> (T, B)>,
}

impl<T: PWord, B: PmemBackend + Send + Sync + 'static> LpAtomic<T, B> {
    #[inline]
    fn word_ptr(&self) -> *const u8 {
        &self.repr as *const AtomicU64 as *const u8
    }

    /// Flush a value observed with the dirty bit set, then help clear the bit.
    ///
    /// Deliberately *not* routed through `pwb_dedup`: every flush in this policy is
    /// immediately followed by a fence (which empties the epoch's dedup set), so a
    /// dedup could never hit here. The only live persist-epoch elision in
    /// link-and-persist is the leading fence of [`dirty_write`](Self::dirty_write).
    ///
    /// The rare branch of a p-load, kept out of line (like FliT's
    /// `flush_tagged`) so that a clean p-load, the body of every traversal
    /// loop, stays small enough to inline.
    #[inline(never)]
    fn flush_and_clear(&self, h: &FlitHandle<'_, LinkAndPersistPolicy<B>>, observed: u64) {
        let pm = h.pmem();
        pm.pwb(self.word_ptr());
        pm.note_read_side_pwb();
        pm.pfence();
        // Helping is best-effort: if the writer (or another reader) already cleared
        // the bit — or the word changed entirely — there is nothing left to do.
        let _ = self.repr.compare_exchange(
            observed,
            observed & !DIRTY_BIT,
            Ordering::SeqCst,
            Ordering::SeqCst,
        );
    }

    /// The shared write path: CAS in `new | DIRTY`, persist, clear the bit.
    /// `expected` of `None` means "unconditional" (emulating write/exchange/FAA).
    /// Returns the previous clean value, or `Err(actual)` for a failed conditional CAS.
    fn dirty_write(
        &self,
        h: &FlitHandle<'_, LinkAndPersistPolicy<B>>,
        expected: Option<u64>,
        compute_new: impl Fn(u64) -> u64,
        flag: PFlag,
    ) -> Result<u64, u64> {
        let persistent = h.policy().backend.is_persistent();
        let pm = h.pmem();
        if persistent {
            // Dependencies must be durable before this store can linearize
            // (P-V Interface Condition 4), exactly as in the FliT write path — and
            // exactly as there, a clean handle has no unpersisted dependency and
            // skips the fence.
            pm.pfence_if_dirty();
        }
        loop {
            let cur = self.repr.load(Ordering::SeqCst);
            let cur_clean = cur & !DIRTY_BIT;
            if let Some(exp) = expected {
                if cur_clean != exp {
                    // Before reporting failure, make sure we are not failing against a
                    // value that is still in flight; persisting it keeps the
                    // link-and-persist invariant that observed values are durable.
                    if cur & DIRTY_BIT != 0 && persistent && flag.is_persisted() {
                        self.flush_and_clear(h, cur);
                    }
                    return Err(cur_clean);
                }
            }
            let new_clean = compute_new(cur_clean);
            debug_assert_eq!(
                new_clean & DIRTY_BIT,
                0,
                "link-and-persist values must not use bit 63"
            );
            let persist = persistent && flag.is_persisted();
            let new_word = if persist {
                new_clean | DIRTY_BIT
            } else {
                new_clean
            };
            match self
                .repr
                .compare_exchange(cur, new_word, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => {
                    pm.record_store(self.word_ptr(), new_clean);
                    if persist {
                        pm.pwb(self.word_ptr());
                        pm.pfence();
                        let _ = self.repr.compare_exchange(
                            new_word,
                            new_clean,
                            Ordering::SeqCst,
                            Ordering::SeqCst,
                        );
                    }
                    return Ok(cur_clean);
                }
                Err(_) => continue,
            }
        }
    }
}

impl<T: PWord, B: PmemBackend + Send + Sync + 'static> PersistWord<T, LinkAndPersistPolicy<B>>
    for LpAtomic<T, B>
{
    fn new(val: T) -> Self {
        debug_assert_eq!(val.to_word() & DIRTY_BIT, 0);
        Self {
            repr: AtomicU64::new(val.to_word()),
            _marker: PhantomData,
        }
    }

    #[inline]
    fn load(&self, h: &FlitHandle<'_, LinkAndPersistPolicy<B>>, flag: PFlag) -> T {
        let cur = self.repr.load(Ordering::SeqCst);
        if cur & DIRTY_BIT != 0 && flag.is_persisted() && h.policy().backend.is_persistent() {
            self.flush_and_clear(h, cur);
        }
        T::from_word(cur & !DIRTY_BIT)
    }

    #[inline]
    fn store(&self, h: &FlitHandle<'_, LinkAndPersistPolicy<B>>, val: T, flag: PFlag) {
        let _ = self.dirty_write(h, None, |_| val.to_word(), flag);
    }

    #[inline]
    fn compare_exchange(
        &self,
        h: &FlitHandle<'_, LinkAndPersistPolicy<B>>,
        current: T,
        new: T,
        flag: PFlag,
    ) -> Result<T, T> {
        self.dirty_write(h, Some(current.to_word()), |_| new.to_word(), flag)
            .map(T::from_word)
            .map_err(T::from_word)
    }

    #[inline]
    fn exchange(&self, h: &FlitHandle<'_, LinkAndPersistPolicy<B>>, val: T, flag: PFlag) -> T {
        T::from_word(
            self.dirty_write(h, None, |_| val.to_word(), flag)
                .expect("unconditional write cannot fail"),
        )
    }

    #[inline]
    fn fetch_add(&self, h: &FlitHandle<'_, LinkAndPersistPolicy<B>>, delta: u64, flag: PFlag) -> T {
        // The original technique cannot express hardware FAA (it needs CAS to protect
        // the dirty bit); emulate it with a CAS loop, which is exactly the restriction
        // the paper points out.
        T::from_word(
            self.dirty_write(h, None, |cur| cur.wrapping_add(delta) & !DIRTY_BIT, flag)
                .expect("unconditional update cannot fail"),
        )
    }

    #[inline]
    fn load_private(&self, _h: &FlitHandle<'_, LinkAndPersistPolicy<B>>, _flag: PFlag) -> T {
        T::from_word(self.repr.load(Ordering::SeqCst) & !DIRTY_BIT)
    }

    #[inline]
    fn store_private(&self, h: &FlitHandle<'_, LinkAndPersistPolicy<B>>, val: T, flag: PFlag) {
        debug_assert_eq!(val.to_word() & DIRTY_BIT, 0);
        self.repr.store(val.to_word(), Ordering::SeqCst);
        if !h.policy().backend.is_persistent() {
            return;
        }
        let pm = h.pmem();
        pm.record_store(self.word_ptr(), val.to_word());
        if flag.is_persisted() {
            pm.pwb(self.word_ptr());
            pm.pfence();
        }
    }

    #[inline]
    fn load_direct(&self) -> T {
        T::from_word(self.repr.load(Ordering::Relaxed) & !DIRTY_BIT)
    }

    #[inline]
    fn store_direct(&self, val: T) {
        self.repr.store(val.to_word(), Ordering::Relaxed);
    }

    #[inline]
    fn addr(&self) -> usize {
        &self.repr as *const AtomicU64 as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::FlitDb;
    use flit_pmem::{LatencyModel, SimNvram};

    type Lp = LinkAndPersistPolicy<SimNvram>;

    fn lp_db() -> FlitDb<Lp> {
        FlitDb::create(LinkAndPersistPolicy::new(
            SimNvram::builder().latency(LatencyModel::none()).build(),
        ))
    }

    #[test]
    fn round_trip_and_bit_is_cleared() {
        let db = lp_db();
        let h = db.handle();
        let w: LpAtomic<u64, SimNvram> = LpAtomic::new(1);
        w.store(&h, 7, PFlag::Persisted);
        assert_eq!(w.load(&h, PFlag::Persisted), 7);
        // After the store completes, the dirty bit must be clear again.
        assert_eq!(w.repr.load(Ordering::SeqCst) & DIRTY_BIT, 0);
    }

    #[test]
    fn p_store_costs_match_flit() {
        // Clean handle: the leading fence is elided here exactly as in the FliT
        // write path, leaving one pwb and the trailing fence.
        let db = lp_db();
        let h = db.handle();
        let w: LpAtomic<u64, SimNvram> = LpAtomic::new(0);
        w.store(&h, 1, PFlag::Persisted);
        let snap = db.stats_snapshot().unwrap();
        assert_eq!(snap.pwbs, 1);
        assert_eq!(snap.pfences, 1);
        assert_eq!(snap.elided_pfences, 1);
    }

    #[test]
    fn literal_mode_p_store_costs_two_pfences() {
        let db = FlitDb::create(LinkAndPersistPolicy::new(
            SimNvram::builder()
                .latency(LatencyModel::none())
                .elision(flit_pmem::ElisionMode::Disabled)
                .build(),
        ));
        let h = db.handle();
        let w: LpAtomic<u64, SimNvram> = LpAtomic::new(0);
        w.store(&h, 1, PFlag::Persisted);
        let snap = db.stats_snapshot().unwrap();
        assert_eq!(snap.pwbs, 1);
        assert_eq!(snap.pfences, 2);
    }

    #[test]
    fn reads_of_clean_words_never_flush() {
        let db = lp_db();
        let h = db.handle();
        let w: LpAtomic<u64, SimNvram> = LpAtomic::new(5);
        for _ in 0..50 {
            let _ = w.load(&h, PFlag::Persisted);
        }
        assert_eq!(db.stats_snapshot().unwrap().pwbs, 0);
    }

    #[test]
    fn reader_helps_persist_a_dirty_word() {
        let db = lp_db();
        let h = db.handle();
        let w: LpAtomic<u64, SimNvram> = LpAtomic::new(0);
        // Simulate a writer that crashed (or was delayed) between its CAS and its
        // flush: the word is visible with the dirty bit still set.
        w.repr.store(9 | DIRTY_BIT, Ordering::SeqCst);
        assert_eq!(w.load(&h, PFlag::Persisted), 9);
        let snap = db.stats_snapshot().unwrap();
        assert_eq!(snap.pwbs, 1, "the reader must flush on its behalf");
        assert_eq!(snap.read_side_pwbs, 1);
        assert_eq!(
            w.repr.load(Ordering::SeqCst) & DIRTY_BIT,
            0,
            "and clear the bit"
        );
    }

    #[test]
    fn volatile_loads_ignore_the_dirty_bit() {
        let db = lp_db();
        let h = db.handle();
        let w: LpAtomic<u64, SimNvram> = LpAtomic::new(0);
        w.repr.store(9 | DIRTY_BIT, Ordering::SeqCst);
        assert_eq!(w.load(&h, PFlag::Volatile), 9);
        assert_eq!(db.stats_snapshot().unwrap().pwbs, 0);
        assert_ne!(w.repr.load(Ordering::SeqCst) & DIRTY_BIT, 0);
    }

    #[test]
    fn cas_success_failure_and_masking() {
        let db = lp_db();
        let h = db.handle();
        let w: LpAtomic<u64, SimNvram> = LpAtomic::new(10);
        assert_eq!(w.compare_exchange(&h, 10, 20, PFlag::Persisted), Ok(10));
        assert_eq!(w.compare_exchange(&h, 10, 30, PFlag::Persisted), Err(20));
        assert_eq!(w.load(&h, PFlag::Persisted), 20);
    }

    #[test]
    fn exchange_and_emulated_faa() {
        let db = lp_db();
        let h = db.handle();
        let w: LpAtomic<u64, SimNvram> = LpAtomic::new(100);
        assert_eq!(w.exchange(&h, 200, PFlag::Persisted), 100);
        assert_eq!(w.fetch_add(&h, 7, PFlag::Persisted), 200);
        assert_eq!(w.load(&h, PFlag::Persisted), 207);
    }

    #[test]
    fn pointer_values_survive() {
        let db = lp_db();
        let h = db.handle();
        let node = Box::into_raw(Box::new(3u64));
        let w: LpAtomic<*mut u64, SimNvram> = LpAtomic::new(std::ptr::null_mut());
        w.store(&h, node, PFlag::Persisted);
        assert_eq!(w.load(&h, PFlag::Persisted), node);
        unsafe { drop(Box::from_raw(node)) };
    }

    #[test]
    fn completed_p_store_is_durable_in_the_tracker() {
        let backend = SimNvram::for_crash_testing();
        let db = FlitDb::create(LinkAndPersistPolicy::new(backend.clone()));
        let h = db.handle();
        let w: LpAtomic<u64, SimNvram> = LpAtomic::new(0);
        w.store(&h, 33, PFlag::Persisted);
        assert_eq!(
            backend.tracker().unwrap().persisted_value(w.addr()),
            Some(33)
        );
    }

    #[test]
    fn concurrent_updates_keep_values_clean() {
        let db = lp_db();
        let w = std::sync::Arc::new(LpAtomic::<u64, SimNvram>::new(0));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let db = &db;
                let w = std::sync::Arc::clone(&w);
                s.spawn(move || {
                    let h = db.handle();
                    for _ in 0..500 {
                        w.fetch_add(&h, 1, PFlag::Persisted);
                        let _ = w.load(&h, PFlag::Persisted);
                    }
                });
            }
        });
        assert_eq!(w.load_direct(), 2000);
        assert_eq!(w.repr.load(Ordering::SeqCst) & DIRTY_BIT, 0);
    }
}
