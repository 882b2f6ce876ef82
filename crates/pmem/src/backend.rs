//! The [`PmemBackend`] trait: the paper's instruction set (`pwb` + `pfence`, §2)
//! plus the four things a [`PmemSession`](crate::PmemSession) must ask of the
//! substrate below it — the store hooks and the p-word version counter, the
//! configured [`ElisionMode`], and the optional statistics and tracker.
//!
//! Nothing here decides *whether* an instruction is issued: a backend executes
//! what it is handed. Minimising the stream (persist-epoch elision) is the
//! session's job, one layer up.

use crate::epoch::ElisionMode;
use crate::stats::PmemStats;
use crate::tracker::PersistenceTracker;

/// Abstraction over the two persistence instructions of the paper's model (§2):
///
/// * `pwb` (*persistent write-back*) — asynchronously writes the cache line containing
///   the given address back towards persistent media. Does not block and does not, by
///   itself, guarantee the data has reached the media.
/// * `pfence` — orders and completes: after a `pfence` by thread *t* returns, every
///   location `pwb`-ed by *t* before the fence is durably in persistent memory.
///
/// Backends may additionally observe every store performed through the FliT library
/// (via [`record_store`](PmemBackend::record_store)) so that a software model of the
/// persisted image can be maintained; hardware backends only count it.
///
/// All methods take `&self`: backends are shared across every thread of a data
/// structure and must be internally synchronised. The trait itself carries no
/// `Send`/`Sync`/`'static` bounds, because the per-handle
/// [`PmemSession`](crate::PmemSession) view (borrowed, handle-owned epoch state)
/// also implements it; shared *storage* backends are required to be
/// `Send + Sync + 'static` where they are stored (e.g. `flit::Policy::Backend`).
pub trait PmemBackend {
    /// Issue a persistent write-back for the cache line containing `addr`.
    fn pwb(&self, addr: *const u8);

    /// Issue a persist fence: block until every previously `pwb`-ed line issued by the
    /// calling thread is durable, and order it before subsequent stores.
    fn pfence(&self);

    /// Notify the backend that an 8-byte word at `addr` now holds `val` in volatile
    /// memory. Called by the FliT library immediately after every store it performs on
    /// a persisted word that is *not* a p-word: an unpublished node's fields, a
    /// retained-root entry, an allocator header or free link, a link-and-persist
    /// word (whose flushes are never deduplicated). Such a store does not advance
    /// [`store_version`](Self::store_version); p-word stores go through
    /// [`record_pword_store`](Self::record_pword_store).
    ///
    /// The default implementation does nothing; only tracking backends (e.g.
    /// [`SimNvram`](crate::SimNvram) with a [`PersistenceTracker`]) use it.
    #[inline]
    fn record_store(&self, _addr: *const u8, _val: u64) {}

    /// [`record_store`](Self::record_store) for a store to a **p-word**: a
    /// `flit::FlitAtomic` word, the only kind of word a session's
    /// [`pwb_dedup`](crate::PmemSession::pwb_dedup) is ever asked about. Besides
    /// recording the store, it advances [`store_version`](Self::store_version).
    ///
    /// The default implementation forwards to `record_store`.
    #[inline]
    fn record_pword_store(&self, addr: *const u8, val: u64) {
        self.record_store(addr, val);
    }

    /// A monotone counter of the p-word stores this backend has observed through
    /// [`record_pword_store`](Self::record_pword_store); with a
    /// [`PersistenceTracker`] attached it is the tracker's count of *every*
    /// recorded store, which only advances more often. A session's
    /// [`pwb_dedup`](crate::PmemSession::pwb_dedup) stamps each dedup entry with
    /// this version at flush time and requires it to be *unchanged* at dedup
    /// time, which closes the overwrite-and-restore (ABA) window: if no p-word
    /// store was recorded since the flush, the p-word cannot have been
    /// overwritten (see [`crate::epoch`] for why plain stores need no stamp).
    ///
    /// The default implementation returns `0` — for backends that observe no
    /// stores ([`NullPmem`], where a stale dedup hit loses nothing).
    #[inline]
    fn store_version(&self) -> u64 {
        0
    }

    /// The persist-epoch elision mode sessions over this backend should apply.
    ///
    /// The default is [`ElisionMode::Enabled`] — caller-side elision is sound
    /// over any backend (an elided instruction is simply never issued).
    /// [`SimNvram`](crate::SimNvram) returns its builder-chosen mode so the
    /// paper-literal stream can be selected per instance.
    #[inline]
    fn elision_mode(&self) -> ElisionMode {
        ElisionMode::Enabled
    }

    /// Statistics collected by this backend, if any. Sessions record their
    /// elisions and read-side attributions here.
    #[inline]
    fn pmem_stats(&self) -> Option<&PmemStats> {
        None
    }

    /// The persistence tracker attached to this backend, if any.
    #[inline]
    fn persistence_tracker(&self) -> Option<&PersistenceTracker> {
        None
    }

    /// `true` when `pwb`/`pfence` issued through this backend actually cost something
    /// (hardware instruction or simulated latency). The non-persistent baseline
    /// returns `false`, which lets higher layers skip work entirely.
    #[inline]
    fn is_persistent(&self) -> bool {
        true
    }
}

/// A backend where every persistence instruction is a no-op.
///
/// This models the *non-persistent* version of each data structure: the grey dotted
/// baseline in the paper's plots, which no durable implementation can significantly
/// outperform.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullPmem;

impl PmemBackend for NullPmem {
    #[inline]
    fn pwb(&self, _addr: *const u8) {}

    #[inline]
    fn pfence(&self) {}

    #[inline]
    fn is_persistent(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_backend_is_a_noop_and_not_persistent() {
        let b = NullPmem;
        let x = 7u64;
        b.pwb(&x as *const u64 as *const u8);
        b.pfence();
        b.record_store(&x as *const u64 as *const u8, 7);
        assert!(!b.is_persistent());
        assert!(b.pmem_stats().is_none());
        assert!(b.persistence_tracker().is_none());
    }

    #[test]
    fn dyn_backend_object_safety() {
        // Sessions are generic over `B: PmemBackend + ?Sized`, so the trait
        // must stay object-safe.
        let b: Box<dyn PmemBackend> = Box::new(NullPmem);
        b.pfence();
        assert!(!b.is_persistent());
    }
}
