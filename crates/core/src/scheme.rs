//! Flit-counter placement strategies ("tag schemes").
//!
//! The FliT algorithm (paper §5) associates a small counter with every persisted
//! memory word: a pending p-store increments it ("tags" the location) and decrements
//! it after flushing; a p-load flushes the location only when the counter is non-zero.
//! Where those counters live is deliberately left open by the paper (§5.1) — this
//! module implements every placement the evaluation studies plus the future-work
//! option of one counter per cache line:
//!
//! * [`PlainScheme`] — no counters at all; every location always reports "tagged", so
//!   p-loads always flush. This is the *plain* comparator of the evaluation.
//! * [`AdjacentScheme`] — an 8-bit counter stored next to each word (the
//!   *flit-adjacent* variant). Cheapest to access, but doubles the footprint of every
//!   persisted word.
//! * [`HashedScheme`] — a shared table of counters indexed by a hash of the address
//!   (the *flit-HT* variant). Several locations may share one counter; that is safe
//!   (at worst a spurious read-side flush) and keeps the data structure layout
//!   unchanged. Figure 5 of the paper tunes the table size.
//! * [`CacheLineScheme`] — one counter per 64-byte cache line, the variant paper §8
//!   suggests as future work. Implemented here as an extension: the same
//!   [`Hashed`] table keyed at a coarser granularity.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

/// How p-stores tag locations and p-loads query tags. See the module docs.
///
/// `PerWord` is the metadata embedded in every persisted word: the adjacent scheme
/// stores its counter there, while table-based schemes keep it zero-sized so that the
/// memory layout of data-structure nodes is unchanged (one of the paper's key
/// flexibility arguments versus link-and-persist).
pub trait TagScheme: Send + Sync + Clone + 'static {
    /// Metadata stored inline in each persisted word.
    type PerWord: Default + Send + Sync;

    /// Short static name used in benchmark output (e.g. `"flit-adjacent"`).
    const NAME: &'static str;

    /// A p-store is about to write to `addr`: tag the location.
    fn begin_store(&self, per_word: &Self::PerWord, addr: usize);

    /// The p-store to `addr` has been flushed and fenced: untag the location.
    fn end_store(&self, per_word: &Self::PerWord, addr: usize);

    /// Is the location currently tagged (i.e. might a p-store be pending)?
    fn is_tagged(&self, per_word: &Self::PerWord, addr: usize) -> bool;

    /// Whether read-side flushes issued for this scheme may be deduplicated within
    /// the reading thread's persist epoch
    /// ([`PmemSession::pwb_dedup`](flit_pmem::PmemSession::pwb_dedup)).
    ///
    /// `true` for the real FliT schemes. [`PlainScheme`] returns `false`: *plain*
    /// is the evaluation's baseline, whose defining cost is one `pwb` per p-load —
    /// deduplicating it would silently change the Figure 9 quantity the comparison
    /// is about.
    #[inline]
    fn dedups_read_flushes(&self) -> bool {
        true
    }

    /// Whether a p-store's untag may be deferred past the store and performed
    /// later **by address alone**, with no access to the word's [`PerWord`](TagScheme::PerWord)
    /// metadata.
    ///
    /// Group commit ([`CommitMode`](flit_pmem::CommitMode)`::Batched`) defers the
    /// store's trailing fence to the owning handle's next fence point; until then
    /// the word must stay *tagged* so concurrent readers keep issuing the helping
    /// flush that discharges Condition 4 across threads. Closing that tag happens
    /// after the word may already have been unlinked and reclaimed, which is only
    /// memory-safe when the counter lives *outside* the word: `true` for the
    /// table-based schemes (and the counter-free plain baseline), `false` for
    /// [`AdjacentScheme`], whose counter is embedded in the node — batched stores
    /// keep their inline trailing fence there.
    #[inline]
    fn defers_store_close(&self) -> bool {
        false
    }

    /// Untag `addr` without per-word metadata. Called only for schemes that
    /// return `true` from [`defers_store_close`](Self::defers_store_close).
    #[inline]
    fn end_store_deferred(&self, _addr: usize) {
        unreachable!("scheme does not support deferred store closes")
    }

    /// Human-readable label including instance parameters (e.g. the table size).
    fn describe(&self) -> String {
        Self::NAME.to_string()
    }
}

// ---------------------------------------------------------------------------------
// Plain: no tagging, always flush on p-load.
// ---------------------------------------------------------------------------------

/// The *plain* transformation: p-loads always flush their location, exactly as in the
/// Izraelevitz et al. construction the paper compares against.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlainScheme;

impl TagScheme for PlainScheme {
    type PerWord = ();
    const NAME: &'static str = "plain";

    #[inline]
    fn begin_store(&self, _per_word: &(), _addr: usize) {}

    #[inline]
    fn end_store(&self, _per_word: &(), _addr: usize) {}

    #[inline]
    fn is_tagged(&self, _per_word: &(), _addr: usize) -> bool {
        // Treat every location as permanently tagged: a p-load can never skip its
        // flush. This turns Algorithm 4 into the naive persist-everything scheme.
        true
    }

    #[inline]
    fn dedups_read_flushes(&self) -> bool {
        // The baseline's one-pwb-per-p-load cost is the point of the comparison;
        // keep it paper-literal even when the backend elides.
        false
    }

    #[inline]
    fn defers_store_close(&self) -> bool {
        // No per-word state at all, so a late close is trivially safe (and a
        // no-op: every location reads as tagged regardless).
        true
    }

    #[inline]
    fn end_store_deferred(&self, _addr: usize) {}
}

// ---------------------------------------------------------------------------------
// Adjacent: one 8-bit counter physically next to each word.
// ---------------------------------------------------------------------------------

/// The *flit-adjacent* placement: each persisted word carries its own 8-bit
/// flit-counter, so checking or updating the tag never incurs an extra cache miss —
/// at the cost of changing the memory layout of every node (paper §5.1, §6.6).
#[derive(Debug, Clone, Copy, Default)]
pub struct AdjacentScheme;

impl TagScheme for AdjacentScheme {
    type PerWord = AtomicU8;
    const NAME: &'static str = "flit-adjacent";

    #[inline]
    fn begin_store(&self, per_word: &AtomicU8, _addr: usize) {
        let prev = per_word.fetch_add(1, Ordering::AcqRel);
        debug_assert!(
            prev < u8::MAX,
            "flit-counter overflow: more than 254 concurrent p-stores"
        );
    }

    #[inline]
    fn end_store(&self, per_word: &AtomicU8, _addr: usize) {
        let prev = per_word.fetch_sub(1, Ordering::AcqRel);
        debug_assert!(prev > 0, "flit-counter underflow");
    }

    #[inline]
    fn is_tagged(&self, per_word: &AtomicU8, _addr: usize) -> bool {
        per_word.load(Ordering::Acquire) > 0
    }
}

// ---------------------------------------------------------------------------------
// Hashed: a shared table of counters, at word or cache-line granularity.
// ---------------------------------------------------------------------------------

/// Shared table of 8-bit flit-counters indexed by a hash of `address >> SHIFT`.
/// The table size is the experiment knob of Figure 5; `SHIFT` is the tracking
/// granularity, fixed per type: see [`HashedScheme`] and [`CacheLineScheme`].
///
/// Collisions are benign: two locations sharing a counter can at worst cause a
/// spurious read-side flush while an unrelated p-store is pending (paper §5.1).
#[derive(Clone)]
pub struct Hashed<const SHIFT: u32> {
    table: Arc<CounterTable>,
}

/// The *flit-HT* placement: one counter per 8-byte word (`SHIFT = 3`).
pub type HashedScheme = Hashed<3>;

/// One shared counter per 64-byte cache line (`SHIFT = 6`, so every word of a
/// line hashes to the same counter) — the counter allocation strategy the
/// paper's conclusion lists as unexplored future work. Compared to
/// [`HashedScheme`] it reduces the number of distinct counters touched by a
/// multi-word object at the price of more sharing-induced spurious flushes.
pub type CacheLineScheme = Hashed<6>;

impl<const SHIFT: u32> std::fmt::Debug for Hashed<SHIFT> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct(Self::NAME)
            .field("bytes", &self.table.len())
            .finish()
    }
}

/// The backing store of a [`Hashed`] scheme: a power-of-two array
/// of 8-bit counters (one byte per counter, so a "1MB table" holds 2^20 counters —
/// the packing the paper describes in §5.1).
pub struct CounterTable {
    counters: Box<[AtomicU8]>,
    mask: usize,
}

impl CounterTable {
    /// Create a table occupying `bytes` bytes (rounded up to a power of two, minimum
    /// 64 bytes / one cache line).
    pub fn new(bytes: usize) -> Self {
        let len = bytes.next_power_of_two().max(64);
        let counters: Box<[AtomicU8]> = (0..len).map(|_| AtomicU8::new(0)).collect();
        Self {
            counters,
            mask: len - 1,
        }
    }

    /// Size of the table in bytes (== number of counters).
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// `true` when the table has no counters (never the case for constructed tables).
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }

    /// Number of counters currently non-zero (diagnostic, O(n)).
    pub fn tagged_count(&self) -> usize {
        self.counters
            .iter()
            .filter(|c| c.load(Ordering::Relaxed) > 0)
            .count()
    }

    #[inline]
    fn slot(&self, key: usize) -> &AtomicU8 {
        &self.counters[Self::mix(key) & self.mask]
    }

    /// Fibonacci-style multiplicative hash: spreads nearby addresses across the table
    /// so that a hot cache line of the data structure does not keep hitting the same
    /// counter cache line (the collision type (2) discussed for Figure 5).
    #[inline]
    fn mix(key: usize) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15)) >> 17
    }
}

impl<const SHIFT: u32> Hashed<SHIFT> {
    /// Default table size used throughout the paper's plots after Figure 5: 1 MB.
    pub const DEFAULT_BYTES: usize = 1 << 20;

    /// A 1 MB table (the configuration used for most figures).
    pub fn new_default() -> Self {
        Self::with_bytes(Self::DEFAULT_BYTES)
    }

    /// A table of the given size (bytes = number of counters).
    pub fn with_bytes(bytes: usize) -> Self {
        Self {
            table: Arc::new(CounterTable::new(bytes)),
        }
    }

    /// Access to the backing table (diagnostics and tests).
    pub fn table(&self) -> &CounterTable {
        &self.table
    }

    #[inline]
    fn counter(&self, addr: usize) -> &AtomicU8 {
        self.table.slot(addr >> SHIFT)
    }
}

impl<const SHIFT: u32> TagScheme for Hashed<SHIFT> {
    type PerWord = ();
    const NAME: &'static str = if SHIFT == 6 {
        "flit-cacheline"
    } else {
        "flit-HT"
    };

    #[inline]
    fn begin_store(&self, _per_word: &(), addr: usize) {
        let prev = self.counter(addr).fetch_add(1, Ordering::AcqRel);
        debug_assert!(prev < u8::MAX, "flit-counter overflow");
    }

    #[inline]
    fn end_store(&self, _per_word: &(), addr: usize) {
        let prev = self.counter(addr).fetch_sub(1, Ordering::AcqRel);
        debug_assert!(prev > 0, "flit-counter underflow");
    }

    #[inline]
    fn is_tagged(&self, _per_word: &(), addr: usize) -> bool {
        self.counter(addr).load(Ordering::Acquire) > 0
    }

    #[inline]
    fn defers_store_close(&self) -> bool {
        // The counter lives in the shared table, not the word: decrementing it
        // after the word's node has been reclaimed touches no freed memory.
        true
    }

    #[inline]
    fn end_store_deferred(&self, addr: usize) {
        self.end_store(&(), addr);
    }

    fn describe(&self) -> String {
        format!("{} ({})", Self::NAME, human_bytes(self.table.len()))
    }
}

/// Render a byte count the way the paper labels its hash-table sizes (4KB, 1MB, ...).
pub fn human_bytes(bytes: usize) -> String {
    if bytes >= 1 << 30 {
        format!("{}GB", bytes >> 30)
    } else if bytes >= 1 << 20 {
        format!("{}MB", bytes >> 20)
    } else if bytes >= 1 << 10 {
        format!("{}KB", bytes >> 10)
    } else {
        format!("{bytes}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_is_always_tagged() {
        let s = PlainScheme;
        assert!(s.is_tagged(&(), 0x1000));
        s.begin_store(&(), 0x1000);
        s.end_store(&(), 0x1000);
        assert!(s.is_tagged(&(), 0x1000));
        assert_eq!(s.describe(), "plain");
    }

    #[test]
    fn only_plain_opts_out_of_read_flush_dedup() {
        assert!(!PlainScheme.dedups_read_flushes());
        assert!(AdjacentScheme.dedups_read_flushes());
        assert!(HashedScheme::with_bytes(64).dedups_read_flushes());
        assert!(CacheLineScheme::with_bytes(64).dedups_read_flushes());
    }

    #[test]
    fn adjacent_counter_tags_and_untags() {
        let s = AdjacentScheme;
        let c = AtomicU8::new(0);
        assert!(!s.is_tagged(&c, 0x40));
        s.begin_store(&c, 0x40);
        assert!(s.is_tagged(&c, 0x40));
        s.begin_store(&c, 0x40); // a second concurrent p-store
        s.end_store(&c, 0x40);
        assert!(
            s.is_tagged(&c, 0x40),
            "still tagged while one store is pending"
        );
        s.end_store(&c, 0x40);
        assert!(!s.is_tagged(&c, 0x40));
    }

    #[test]
    fn hashed_counter_tags_by_address() {
        let s = HashedScheme::with_bytes(1 << 16);
        let a = 0xA000usize;
        assert!(!s.is_tagged(&(), a));
        s.begin_store(&(), a);
        assert!(s.is_tagged(&(), a));
        s.end_store(&(), a);
        assert!(!s.is_tagged(&(), a));
    }

    #[test]
    fn hashed_collisions_are_possible_but_balanced() {
        // With a tiny table every counter is shared by many addresses; with a large
        // table distinct addresses rarely collide.
        let tiny = HashedScheme::with_bytes(64);
        let large = HashedScheme::with_bytes(1 << 20);
        let addrs: Vec<usize> = (0..512).map(|i| 0x10_0000 + i * 8).collect();
        for &a in &addrs {
            tiny.begin_store(&(), a);
            large.begin_store(&(), a);
        }
        assert!(tiny.table().tagged_count() <= 64);
        // The large table should spread 512 addresses over hundreds of counters.
        assert!(
            large.table().tagged_count() > 256,
            "hash should spread addresses"
        );
        for &a in &addrs {
            tiny.end_store(&(), a);
            large.end_store(&(), a);
        }
        assert_eq!(tiny.table().tagged_count(), 0);
        assert_eq!(large.table().tagged_count(), 0);
    }

    #[test]
    fn cache_line_scheme_shares_counters_within_a_line() {
        let s = CacheLineScheme::with_bytes(1 << 16);
        let base = 0x4_0000usize;
        s.begin_store(&(), base);
        // Every word of the same cache line must observe the tag.
        for off in (0..64).step_by(8) {
            assert!(s.is_tagged(&(), base + off));
        }
        // A different line should (almost certainly) not be tagged.
        assert!(!s.is_tagged(&(), base + 4096));
        s.end_store(&(), base);
        assert!(!s.is_tagged(&(), base));
    }

    #[test]
    fn table_sizes_round_to_powers_of_two() {
        assert_eq!(CounterTable::new(1000).len(), 1024);
        assert_eq!(CounterTable::new(4096).len(), 4096);
        assert_eq!(CounterTable::new(1).len(), 64);
    }

    #[test]
    fn describe_labels_match_the_paper() {
        assert_eq!(
            HashedScheme::with_bytes(4 << 10).describe(),
            "flit-HT (4KB)"
        );
        assert_eq!(
            HashedScheme::with_bytes(1 << 20).describe(),
            "flit-HT (1MB)"
        );
        assert_eq!(AdjacentScheme.describe(), "flit-adjacent");
        assert!(CacheLineScheme::new_default()
            .describe()
            .contains("flit-cacheline"));
    }

    #[test]
    fn human_bytes_formatting() {
        assert_eq!(human_bytes(64), "64B");
        assert_eq!(human_bytes(4096), "4KB");
        assert_eq!(human_bytes(1 << 20), "1MB");
        assert_eq!(human_bytes(64 << 20), "64MB");
        assert_eq!(human_bytes(1 << 30), "1GB");
    }

    #[test]
    fn concurrent_tagging_stress() {
        let s = HashedScheme::with_bytes(1 << 12);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let s = s.clone();
                scope.spawn(move || {
                    for i in 0..2000usize {
                        let addr = 0x100000 + ((t * 7919 + i * 13) % 1024) * 8;
                        s.begin_store(&(), addr);
                        std::hint::black_box(s.is_tagged(&(), addr));
                        s.end_store(&(), addr);
                    }
                });
            }
        });
        assert_eq!(
            s.table().tagged_count(),
            0,
            "all counters must return to zero"
        );
    }
}
