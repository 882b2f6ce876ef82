//! Word-granularity persistence tracking and adversarial crash images.
//!
//! The durability arguments of the paper (Theorem 3.1, the P-V Interface conditions)
//! are statements about *which stores have reached persistent memory* at given points
//! in an execution. To test them without NVRAM, the [`PersistenceTracker`] maintains a
//! software model of both memories:
//!
//! * the **volatile image** — the latest value stored to every tracked word (this is
//!   what caches + DRAM hold);
//! * per-thread **pending sets** — values whose cache line has been `pwb`-ed by that
//!   thread but not yet fenced;
//! * the **persisted image** — values that have been `pwb`-ed *and* covered by a
//!   subsequent `pfence` of the flushing thread.
//!
//! [`crash_image`](PersistenceTracker::crash_image) returns the persisted image only.
//! This is the *loss* model: a store survives a crash **only** when it was explicitly
//! written back and fenced, and a fence commits a thread's pending write-backs as one
//! unit. Any durable-linearizability violation found under it is a genuine bug, but
//! its absence is not the strongest statement a test can make. Real hardware can also
//! persist a line early through a cache eviction, and complete pending write-backs in
//! any order before the fence. Either can make a *later* store durable while an
//! earlier one is still lost. This model never produces such a state, so it cannot
//! show a missing ordering fence. `ROADMAP.md` item 13, "a crash adversary that
//! reorders and evicts", plans the images that would.
//!
//! ## Monotone commits (version tagging)
//!
//! Pending values carry the *version* (a global store counter) of the store they
//! snapshot, and a fence only commits a pending value whose version is at least the
//! persisted one. Without this, a slow thread's fence could commit a stale pwb-time
//! snapshot *over* a newer value that another thread had already flushed and fenced
//! — a regression that cache coherence makes impossible on real hardware (a line
//! write-back always writes the line's current contents, so later write-backs never
//! carry older data). Within one thread the adversarial semantics are unchanged: a
//! store issued *after* a pwb still does not ride along on the following fence,
//! because only the snapshotted (value, version) pair is committed.
//!
//! The tracker is intended for correctness tests and crash experiments; benchmarks run
//! with tracking disabled.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::ThreadId;

use parking_lot::Mutex;

use crate::cache_line::{cache_line_of, word_of, WORDS_PER_LINE, WORD_SIZE};
use crate::pool::PoolFile;

const SHARDS: usize = 64;

fn shard_of(line: usize) -> usize {
    // Lines are 64-byte aligned; mix the meaningful bits so consecutive lines spread
    // across shards.
    let x = line >> 6;
    (x ^ (x >> 7) ^ (x >> 13)) & (SHARDS - 1)
}

/// A tracked value plus the global store version that produced it.
type Versioned = (u64, u64);

/// A pending write-back: (word address, value, version) snapshotted at pwb time.
type PendingWrite = (usize, u64, u64);

/// One cache line's worth of tracked words.
type LineWords = [Option<Versioned>; WORDS_PER_LINE];

#[derive(Default)]
struct Shard {
    /// line base address -> latest volatile (value, version) of each word in the line
    volatile: HashMap<usize, LineWords>,
    /// word address -> persisted (value, version)
    persisted: HashMap<usize, Versioned>,
}

/// Software model of the volatile/persistent memory split. See the module docs.
pub struct PersistenceTracker {
    shards: Vec<Mutex<Shard>>,
    /// (word, value, version) triples written back (pwb) but not yet fenced, per thread
    pending: Mutex<HashMap<ThreadId, Vec<PendingWrite>>>,
    /// Global store counter; doubles as the version source for monotone commits.
    stores_recorded: AtomicU64,
}

impl Default for PersistenceTracker {
    fn default() -> Self {
        Self::new()
    }
}

impl PersistenceTracker {
    /// Create an empty tracker.
    pub fn new() -> Self {
        Self {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            pending: Mutex::new(HashMap::new()),
            stores_recorded: AtomicU64::new(0),
        }
    }

    /// Record that the 8-byte word at `addr` now holds `val` in volatile memory.
    pub fn record_store(&self, addr: usize, val: u64) {
        let version = self.stores_recorded.fetch_add(1, Ordering::Relaxed) + 1;
        let word = word_of(addr);
        let line = cache_line_of(word);
        let idx = (word - line) / WORD_SIZE;
        let mut shard = self.shards[shard_of(line)].lock();
        shard.volatile.entry(line).or_default()[idx] = Some((val, version));
    }

    /// Model a `pwb` of the cache line containing `addr` by the calling thread: the
    /// line's current volatile contents become *pending* for this thread.
    pub fn on_pwb(&self, addr: usize) {
        let line = cache_line_of(addr);
        let snapshot: Vec<PendingWrite> = {
            let shard = self.shards[shard_of(line)].lock();
            match shard.volatile.get(&line) {
                None => Vec::new(),
                Some(words) => words
                    .iter()
                    .enumerate()
                    .filter_map(|(i, w)| w.map(|(val, ver)| (line + i * WORD_SIZE, val, ver)))
                    .collect(),
            }
        };
        if snapshot.is_empty() {
            return;
        }
        let tid = std::thread::current().id();
        let mut pending = self.pending.lock();
        pending.entry(tid).or_default().extend(snapshot);
    }

    /// Model a `pfence` by the calling thread: everything this thread has `pwb`-ed
    /// since its previous fence becomes persisted — unless a newer version of the
    /// word is already persisted (see the module docs on monotone commits).
    pub fn on_pfence(&self) {
        let tid = std::thread::current().id();
        let drained: Vec<PendingWrite> = {
            let mut pending = self.pending.lock();
            match pending.get_mut(&tid) {
                None => return,
                Some(v) => std::mem::take(v),
            }
        };
        for (word, val, ver) in drained {
            let line = cache_line_of(word);
            let mut shard = self.shards[shard_of(line)].lock();
            let entry = shard.persisted.entry(word).or_insert((val, ver));
            if ver >= entry.1 {
                *entry = (val, ver);
            }
        }
    }

    /// The latest value stored to `addr` in volatile memory, if the word is tracked.
    pub fn volatile_value(&self, addr: usize) -> Option<u64> {
        let word = word_of(addr);
        let line = cache_line_of(word);
        let idx = (word - line) / WORD_SIZE;
        let shard = self.shards[shard_of(line)].lock();
        shard
            .volatile
            .get(&line)
            .and_then(|w| w[idx].map(|(val, _)| val))
    }

    /// The persisted value of `addr`, if any store to it has been flushed and fenced.
    pub fn persisted_value(&self, addr: usize) -> Option<u64> {
        let word = word_of(addr);
        let line = cache_line_of(word);
        let shard = self.shards[shard_of(line)].lock();
        shard.persisted.get(&word).map(|(val, _)| *val)
    }

    /// `true` when the word at `addr` durably holds `val` *and nothing can change
    /// that*: the persisted entry matches and its version is at least the word's
    /// latest volatile version, so by monotone commits every outstanding pending
    /// write-back of the word (necessarily snapshotted at a version ≤ the
    /// volatile one) either loses to the persisted entry or re-commits the same
    /// value. A read-side helping flush of such a word is a provable no-op —
    /// [`PmemSession`](crate::PmemSession) uses this to elide it, which keeps
    /// crash-event streams independent of counter-table collisions when group
    /// commit leaves words tagged past their durability point.
    pub fn durably_holds(&self, addr: usize, val: u64) -> bool {
        let word = word_of(addr);
        let line = cache_line_of(word);
        let idx = (word - line) / WORD_SIZE;
        let shard = self.shards[shard_of(line)].lock();
        let Some(&(pval, pver)) = shard.persisted.get(&word) else {
            return false;
        };
        if pval != val {
            return false;
        }
        match shard.volatile.get(&line).and_then(|w| w[idx]) {
            Some((_, vver)) => vver <= pver,
            None => true,
        }
    }

    /// Number of stores recorded so far (diagnostic).
    pub fn stores_recorded(&self) -> u64 {
        self.stores_recorded.load(Ordering::Relaxed)
    }

    /// Take an adversarial crash snapshot: only flushed-and-fenced values survive.
    pub fn crash_image(&self) -> CrashImage {
        let mut words = HashMap::new();
        for shard in &self.shards {
            let s = shard.lock();
            for (addr, (val, _)) in &s.persisted {
                words.insert(*addr, *val);
            }
        }
        CrashImage(Words::Tracked(words))
    }

    /// Take a snapshot of the volatile image (what a crash-free reader would see).
    pub fn volatile_image(&self) -> CrashImage {
        let mut words = HashMap::new();
        for shard in &self.shards {
            let s = shard.lock();
            for (line, vals) in &s.volatile {
                for (i, v) in vals.iter().enumerate() {
                    if let Some((val, _)) = v {
                        words.insert(line + i * WORD_SIZE, *val);
                    }
                }
            }
        }
        CrashImage(Words::Tracked(words))
    }

    /// Forget everything. Used between test cases sharing a backend.
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut s = shard.lock();
            s.volatile.clear();
            s.persisted.clear();
        }
        self.pending.lock().clear();
        self.stores_recorded.store(0, Ordering::Relaxed);
    }
}

/// Durable words keyed by address: what every image-only recovery walk reads.
///
/// Two sources, one read contract. A **tracker image**
/// ([`PersistenceTracker::crash_image`] / [`volatile_image`](PersistenceTracker::volatile_image))
/// is an immutable sparse snapshot holding only the words that were flushed and
/// fenced. A **pool view** ([`CrashImage::mapped`]) holds nothing: in a pool
/// every mapped word is durable, so it answers straight from the mapping —
/// a *live* view, not a snapshot — and keeps the mapping alive for as long as
/// it (or any clone of it) exists. Either way [`read`](Self::read) is `Some`
/// for exactly the words the source covers and `None` everywhere else, which
/// recovery walks treat as truncation; zero is a value like any other (a
/// durable null is `Some(0)`).
#[derive(Debug, Clone, Default)]
pub struct CrashImage(Words);

#[derive(Debug, Clone)]
enum Words {
    Tracked(HashMap<usize, u64>),
    Mapped {
        /// The mapping the ranges lie in; holding it keeps them mapped.
        pool: Arc<PoolFile>,
        /// Sorted, disjoint, word-aligned `(base address, byte length)` ranges
        /// of `pool`'s mapping.
        ranges: Vec<(usize, usize)>,
    },
}

impl Default for Words {
    fn default() -> Self {
        Words::Tracked(HashMap::new())
    }
}

impl CrashImage {
    /// A zero-copy view of `ranges` — `(base address, byte length)` pairs, in
    /// any order — of `pool`'s mapping: the union of the ranges is the image,
    /// everything else in the pool (superblock, directory, gaps) reads `None`.
    /// Overlapping or touching ranges are merged, so [`len`](Self::len) counts
    /// each word once however a (possibly hostile) directory laid them out.
    ///
    /// # Panics
    /// When a range is not word-aligned or leaves `pool`'s mapping: ranges come
    /// from arenas adopted from this pool, whose bounds adoption already vetted.
    pub fn mapped(pool: Arc<PoolFile>, mut ranges: Vec<(usize, usize)>) -> Self {
        let mapping = pool.base_addr()..=pool.base_addr() + pool.len();
        for &(base, len) in &ranges {
            assert!(
                (base | len) % WORD_SIZE == 0
                    && mapping.contains(&base)
                    && len <= mapping.end() - base,
                "image range {base:#x}+{len} is not a word-aligned part of the pool mapping"
            );
        }
        ranges.sort_unstable();
        // Fold each range into its predecessor when they overlap or touch.
        ranges.dedup_by(|next, kept| {
            let joins = next.0 <= kept.0 + kept.1;
            if joins {
                kept.1 = kept.1.max(next.0 + next.1 - kept.0);
            }
            joins
        });
        Self(Words::Mapped { pool, ranges })
    }

    /// Read the 8-byte word containing `addr`, if the image covers it.
    pub fn read(&self, addr: usize) -> Option<u64> {
        let word = word_of(addr);
        match &self.0 {
            Words::Tracked(words) => words.get(&word).copied(),
            Words::Mapped { pool, ranges } => {
                let before = ranges.partition_point(|&(base, _)| base <= word);
                let (base, len) = ranges[before.checked_sub(1)?];
                (word - base < len)
                    .then(|| pool.word(word - pool.base_addr()).load(Ordering::SeqCst))
            }
        }
    }

    /// Number of words the image covers.
    pub fn len(&self) -> usize {
        match &self.0 {
            Words::Tracked(words) => words.len(),
            Words::Mapped { ranges, .. } => ranges.iter().map(|r| r.1 / WORD_SIZE).sum(),
        }
    }

    /// `true` when the image covers no words.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr_of(x: &u64) -> usize {
        x as *const u64 as usize
    }

    #[test]
    fn unflushed_store_does_not_survive_a_crash() {
        let t = PersistenceTracker::new();
        let x = 0u64;
        t.record_store(addr_of(&x), 42);
        assert_eq!(t.volatile_value(addr_of(&x)), Some(42));
        assert_eq!(t.persisted_value(addr_of(&x)), None);
        assert_eq!(t.crash_image().read(addr_of(&x)), None);
    }

    #[test]
    fn pwb_without_pfence_is_not_enough() {
        let t = PersistenceTracker::new();
        let x = 0u64;
        t.record_store(addr_of(&x), 7);
        t.on_pwb(addr_of(&x));
        assert_eq!(t.crash_image().read(addr_of(&x)), None);
        t.on_pfence();
        assert_eq!(t.crash_image().read(addr_of(&x)), Some(7));
    }

    #[test]
    fn pfence_persists_the_value_at_pwb_time_not_later_writes() {
        let t = PersistenceTracker::new();
        let x = 0u64;
        t.record_store(addr_of(&x), 1);
        t.on_pwb(addr_of(&x));
        // A later store that is never flushed must not leak into the persisted image.
        t.record_store(addr_of(&x), 2);
        t.on_pfence();
        assert_eq!(t.persisted_value(addr_of(&x)), Some(1));
        assert_eq!(t.volatile_value(addr_of(&x)), Some(2));
    }

    #[test]
    fn pwb_covers_the_whole_cache_line() {
        let t = PersistenceTracker::new();
        // Two words guaranteed to share a cache line: elements 0 and 1 of an aligned
        // array occupying one line.
        #[repr(align(64))]
        struct Line([u64; 8]);
        let line = Line([0; 8]);
        let a0 = addr_of(&line.0[0]);
        let a1 = addr_of(&line.0[1]);
        assert!(crate::cache_line::same_cache_line(a0, a1));
        t.record_store(a0, 10);
        t.record_store(a1, 11);
        t.on_pwb(a0); // flushing either address writes back the whole line
        t.on_pfence();
        assert_eq!(t.persisted_value(a0), Some(10));
        assert_eq!(t.persisted_value(a1), Some(11));
    }

    #[test]
    fn pending_sets_are_per_thread() {
        let t = std::sync::Arc::new(PersistenceTracker::new());
        let x = Box::leak(Box::new(0u64));
        let addr = addr_of(x);
        t.record_store(addr, 99);
        t.on_pwb(addr);
        // A fence on another thread must not commit this thread's pending set.
        {
            let t2 = std::sync::Arc::clone(&t);
            std::thread::spawn(move || t2.on_pfence()).join().unwrap();
        }
        assert_eq!(t.persisted_value(addr), None);
        t.on_pfence();
        assert_eq!(t.persisted_value(addr), Some(99));
    }

    #[test]
    fn stale_cross_thread_fence_cannot_clobber_a_newer_persisted_value() {
        // Thread B snapshots the line (value 1) with a pwb, then stalls. The main
        // thread stores 2, flushes and fences — persisted value 2. When B finally
        // fences, its stale snapshot must NOT regress the persisted image: on real
        // hardware a write-back carries the line's current contents, so later
        // write-backs never carry older data.
        use std::sync::mpsc;
        let t = std::sync::Arc::new(PersistenceTracker::new());
        let x = Box::leak(Box::new(0u64));
        let addr = addr_of(x);
        t.record_store(addr, 1);

        let (to_b, b_gate) = mpsc::channel::<()>();
        let (b_ready, from_b) = mpsc::channel::<()>();
        let t2 = std::sync::Arc::clone(&t);
        let handle = std::thread::spawn(move || {
            t2.on_pwb(addr); // snapshot: value 1
            b_ready.send(()).unwrap();
            b_gate.recv().unwrap(); // stall until main has persisted value 2
            t2.on_pfence(); // stale commit attempt
        });
        from_b.recv().unwrap();
        t.record_store(addr, 2);
        t.on_pwb(addr);
        t.on_pfence();
        assert_eq!(t.persisted_value(addr), Some(2));
        to_b.send(()).unwrap();
        handle.join().unwrap();
        assert_eq!(
            t.persisted_value(addr),
            Some(2),
            "a stale fence regressed the persisted image"
        );
    }

    #[cfg(unix)]
    #[test]
    fn a_mapped_image_reads_exactly_its_ranges_live_and_pins_the_mapping() {
        use crate::pool::{OpenError, PoolOptions, DATA_OFFSET};
        let path = std::env::temp_dir().join(format!("flit-image-view-{}", std::process::id()));
        let pool = PoolFile::create(&path, &PoolOptions::with_capacity(1 << 20), 1).unwrap();
        let (base, end) = (pool.base_addr(), pool.base_addr() + pool.len());
        let store = |addr: usize, val: u64| {
            assert!(addr >= base && addr + WORD_SIZE <= end && addr % WORD_SIZE == 0);
            // SAFETY: a word-aligned word inside the live mapping (just checked).
            unsafe { (*(addr as *const AtomicU64)).store(val, Ordering::SeqCst) };
        };
        // Two touching ranges and one apart, handed over out of order: the
        // view is their union, `a..a+128` and `b..b+64`.
        let a = base + DATA_OFFSET;
        let b = a + 256;
        let covered: Vec<usize> = (a..a + 128).chain(b..b + 64).step_by(WORD_SIZE).collect();
        for (i, &addr) in covered.iter().enumerate() {
            store(addr, 1000 + i as u64);
        }
        store(a + 128, 77); // in the gap: durable in the file, not in the image
        let image = CrashImage::mapped(Arc::clone(&pool), vec![(b, 64), (a + 64, 64), (a, 64)]);
        assert_eq!(image.len(), covered.len());
        assert!(!image.is_empty());
        for (i, &addr) in covered.iter().enumerate() {
            assert_eq!(image.read(addr), Some(1000 + i as u64));
            assert_eq!(
                image.read(addr + 5),
                Some(1000 + i as u64),
                "containing word"
            );
        }
        let outside = [
            a - WORD_SIZE, // last directory word
            a + 128,       // first gap word
            b - WORD_SIZE, // last gap word
            b + 64,        // just past the highest range
            base,          // superblock magic
            end,           // first byte past the mapping
            0,
            usize::MAX - 7,
            usize::MAX,
        ];
        for addr in outside {
            assert_eq!(image.read(addr), None, "{addr:#x} is not part of the image");
        }
        // A view, not a snapshot.
        store(b, 5);
        assert_eq!(image.read(b), Some(5));
        // The view alone keeps the mapping (and so the base address) alive.
        let copy = image.clone();
        drop((pool, image));
        assert_eq!(copy.read(a), Some(1000));
        assert!(matches!(
            PoolFile::open(&path),
            Err(OpenError::MappingConflict { .. })
        ));
        drop(copy);
        drop(PoolFile::open(&path).unwrap());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn clear_resets_everything() {
        let t = PersistenceTracker::new();
        let x = 0u64;
        t.record_store(addr_of(&x), 5);
        t.on_pwb(addr_of(&x));
        t.on_pfence();
        t.clear();
        assert!(t.crash_image().is_empty());
        assert_eq!(t.volatile_value(addr_of(&x)), None);
        assert_eq!(t.stores_recorded(), 0);
    }

    #[test]
    fn volatile_image_sees_everything() {
        let t = PersistenceTracker::new();
        let xs = [0u64; 16];
        for (i, x) in xs.iter().enumerate() {
            t.record_store(addr_of(x), i as u64);
        }
        let vol = t.volatile_image();
        assert_eq!(vol.len(), 16);
        for (i, x) in xs.iter().enumerate() {
            assert_eq!(vol.read(addr_of(x)), Some(i as u64));
        }
        assert!(t.crash_image().is_empty());
    }
}
