//! **Persist epochs**: the bookkeeping behind redundant-fence and duplicate-flush
//! elision, owned by an explicit per-thread handle.
//!
//! ## The observation
//!
//! A `pfence` only has an effect when the calling thread has issued at least one
//! `pwb` since its previous fence — the adversarial tracker model makes this
//! explicit (its `on_pfence` early-returns on an empty pending set), and real
//! hardware agrees: an `sfence` with no outstanding `clwb`s orders nothing that
//! x86-TSO had not already ordered. FliT's hot path issues fences *pessimistically*
//! (a leading fence before every shared store, a completion fence after every
//! operation), so on read-mostly workloads nearly every fence is such a no-op.
//!
//! A **persist epoch** is the interval between two consecutive `pfence`s of one
//! logical thread of execution *through one backend*. Within an epoch the thread
//! tracks:
//!
//! * `pwbs_since_fence` — how many write-backs it has issued ("is it *dirty*?");
//! * a small *recently-flushed* set of `(word address, observed value)` pairs.
//!
//! ## Explicit ownership (no thread-locals)
//!
//! Earlier revisions kept this state in `thread_local!` tables keyed by backend
//! instance, which made thread identity ambient: nothing outside the thread could
//! observe or step its persistence state, and short-lived worker threads leaked
//! retired entries until a purge pass ran. The state now lives in a plain
//! [`PersistEpoch`] value **owned by whoever represents the logical thread** — in
//! practice the `FlitHandle` of the `flit` crate, which passes it into every
//! persistence instruction through a [`PmemSession`](crate::PmemSession). Dropping
//! the handle drops the state: there is nothing left to purge, and a controlled
//! scheduler can own N epochs and interleave them deterministically on one OS
//! thread.
//!
//! The soundness argument is unchanged but now *per handle*: a handle is clean
//! exactly when it has issued no `pwb` through its session since its last fence,
//! and only instructions issued through that session are attributed to it. Code
//! that bypasses the session (raw backend calls during construction) must fence
//! its own write-backs before returning, which every construction path does.
//!
//! ## Why the dedup is unconditionally sound: store-version stamps
//!
//! Keying the recently-flushed set by `(address, value)` alone would admit a narrow
//! overwrite-and-restore (ABA) hole: a remote thread stores a different value and a
//! second remote store restores the original, all between the recorded flush and
//! the dedup hit — the reader's pending set then holds a snapshot that is
//! value-equal but *persistence*-stale. Each dedup entry therefore additionally
//! carries the backend's [`store_version`](crate::PmemBackend::store_version) — a
//! monotone counter of the **p-word** stores recorded through the backend
//! ([`record_pword_store`](crate::PmemBackend::record_pword_store)) — at flush
//! time, and a dedup hit requires the version to be **unchanged**.
//!
//! Plain recorded stores (unpublished node fields, retained-root entries,
//! allocator headers and free links) need no stamp, because of what a dedup
//! entry can name:
//!
//! * a dedup entry names a p-word: `pwb_dedup` is only asked about a
//!   `flit::FlitAtomic` word that the reader just p-loaded out of a live node;
//! * a plain store reaches that address only while its slot is dead — freed,
//!   recycled, or reused by a node whose word there is not a p-word — because a
//!   live p-word is only ever written through its own (stamped) store paths;
//! * the slot's next life as a p-word starts with a stamped `store_private`
//!   of that word, before the node is published.
//!
//! So if no p-word store was recorded since the flush, the word was neither
//! overwritten within its life nor reborn, and the pending snapshot is exactly
//! the current value: skipping the re-flush is sound with no caveat. Unpublished
//! nodes are persisted before they are published (MOD, arXiv 1908.11850), so no
//! reader's flush is ever owed for them. With a tracker attached the stamp is
//! the tracker's count of every recorded store, which only invalidates more
//! entries. Fence elision never needed a caveat: a clean handle's fence persists
//! nothing under any interleaving.

use std::cell::{Cell, OnceCell};
use std::sync::atomic::{AtomicU64, Ordering};

use flit_obs::FlightRecorder;

/// Whether a session applies persist-epoch elision or issues the paper-literal
/// instruction stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ElisionMode {
    /// Skip no-op fences and duplicate read-side flushes (the default).
    #[default]
    Enabled,
    /// Issue every fence and flush exactly as Algorithm 4 writes them. Used for
    /// A/B statistics (`tests/elision.rs` compares both streams) and for sweeping
    /// the paper-literal instruction stream in `flit-crashtest`.
    Disabled,
}

impl ElisionMode {
    /// `true` when elision is enabled.
    #[inline]
    pub fn is_enabled(self) -> bool {
        self == ElisionMode::Enabled
    }

    /// CLI-friendly key (`on` / `off`).
    pub fn name(self) -> &'static str {
        match self {
            ElisionMode::Enabled => "on",
            ElisionMode::Disabled => "off",
        }
    }

    /// Parse a CLI key (`on` / `off`).
    pub fn parse(s: &str) -> Option<ElisionMode> {
        match s {
            "on" => Some(ElisionMode::Enabled),
            "off" => Some(ElisionMode::Disabled),
            _ => None,
        }
    }
}

/// When a session's owning handle acknowledges operation durability: at every
/// completion fence, or in groups of up to `k` obligations committed by one
/// shared fence (group commit).
///
/// Chosen once at database construction and inherited by every handle. Under
/// `Batched(k)` an operation's completion *enqueues an obligation* on the
/// handle instead of fencing; the handle drains its queue — one `pfence`
/// committing every outstanding obligation — when the queue reaches `k`, on an
/// explicit flush, or on handle drop. The durability contract weakens
/// accordingly: a crash may lose operations that completed but were never
/// acknowledged, yet recovered state is always a consistent prefix that
/// includes every *acknowledged* operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CommitMode {
    /// Fence at every operation completion (the paper's Condition 4, and the
    /// default): an operation is durable before it returns.
    #[default]
    Immediate,
    /// Group commit: acknowledge completions in batches of up to `k`
    /// obligations, one fence per batch.
    Batched(usize),
}

impl CommitMode {
    /// `true` under any batched mode.
    #[inline]
    pub fn is_batched(self) -> bool {
        matches!(self, CommitMode::Batched(_))
    }

    /// CLI-friendly key (`immediate` / `batched-<k>`).
    pub fn name(self) -> String {
        match self {
            CommitMode::Immediate => "immediate".to_string(),
            CommitMode::Batched(k) => format!("batched-{k}"),
        }
    }

    /// Parse a CLI key (`immediate` / `batched-<k>`, `k >= 1`).
    pub fn parse(s: &str) -> Option<CommitMode> {
        if s == "immediate" {
            return Some(CommitMode::Immediate);
        }
        let k: usize = s.strip_prefix("batched-")?.parse().ok()?;
        if k == 0 {
            return None;
        }
        Some(CommitMode::Batched(k))
    }

    /// Encode the mode as a pool-superblock compat word: `1` for immediate,
    /// `2 | k << 8` for batched. Zero (a fresh page) never decodes, so a pool
    /// whose commit word was torn or never written is detectably invalid.
    pub fn compat_word(self) -> u64 {
        match self {
            CommitMode::Immediate => 1,
            CommitMode::Batched(k) => 2 | (k as u64) << 8,
        }
    }

    /// Decode a pool-superblock compat word; `None` for anything
    /// [`compat_word`](Self::compat_word) cannot produce.
    pub fn from_compat_word(word: u64) -> Option<CommitMode> {
        match word & 0xFF {
            1 if word == 1 => Some(CommitMode::Immediate),
            2 => {
                let k = (word >> 8) as usize;
                (k >= 1).then_some(CommitMode::Batched(k))
            }
            _ => None,
        }
    }
}

/// Capacity of the per-handle recently-flushed set. Small on purpose: the set only
/// needs to cover the reads of one operation (it is cleared on every fence), and a
/// bounded ring keeps the lookup a handful of compares.
const RECENT_FLUSHES: usize = 8;

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// Per-handle persist-epoch state: the dirty counter and the recently-flushed set
/// of one logical thread of execution. See the module docs.
///
/// The state is a plain value with interior mutability (`Cell`s): it is `Send` —
/// a handle may migrate between OS threads — but deliberately **not** `Sync`,
/// because an epoch describes exactly one logical thread. There is no global
/// registry and no thread-local table: dropping the epoch (with its handle) is the
/// only cleanup that exists or is needed.
pub struct PersistEpoch {
    id: u64,
    pwbs_since_fence: Cell<u64>,
    /// Ring buffer of `(word address, observed value, store-version stamp)` triples
    /// flushed this epoch. The stamp is the backend's store version at flush time;
    /// a dedup hit requires it to be unchanged (see the module docs). Per-entry
    /// `Cell`s so a record writes one slot and a lookup scans in place (a single
    /// whole-array `Cell` would memcpy all 192 bytes on every access).
    recent: [Cell<(usize, u64, u64)>; RECENT_FLUSHES],
    recent_len: Cell<usize>,
    next_slot: Cell<usize>,
    /// Completion obligations enqueued on this handle over its lifetime
    /// (group commit, [`CommitMode::Batched`]). Monotone.
    obligations_enqueued: Cell<u64>,
    /// Obligations enqueued but not yet acknowledged by a batch drain. Note
    /// this is *not* cleared by [`note_pfence`](Self::note_pfence): a fence
    /// makes pending write-backs durable, but acknowledgment is a separate,
    /// explicit act of the owning handle (the drain), so that the crashtest
    /// harness can model — and break — the two independently.
    obligations_pending: Cell<u64>,
    /// Flight recorder for this handle's persistence events: empty until
    /// [`arm_flight`](Self::arm_flight), so an unarmed handle allocates no
    /// ring. Shared (`Clone`) so a database can snapshot the tail from another
    /// thread while the handle keeps recording.
    flight: OnceCell<FlightRecorder>,
}

impl Default for PersistEpoch {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for PersistEpoch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PersistEpoch")
            .field("id", &self.id)
            .field("pending_pwbs", &self.pwbs_since_fence.get())
            .finish()
    }
}

impl PersistEpoch {
    /// Create a fresh (clean) epoch with a process-unique id.
    pub fn new() -> Self {
        Self {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            pwbs_since_fence: Cell::new(0),
            recent: std::array::from_fn(|_| Cell::new((0, 0, 0))),
            recent_len: Cell::new(0),
            next_slot: Cell::new(0),
            obligations_enqueued: Cell::new(0),
            obligations_pending: Cell::new(0),
            flight: OnceCell::new(),
        }
    }

    /// This handle's persistence flight recorder, once it has been armed.
    /// Sessions sample this at construction, so a handle armed between
    /// operations records from its next operation on.
    #[inline]
    pub fn flight(&self) -> Option<&FlightRecorder> {
        self.flight.get()
    }

    /// Give this handle a flight recorder (idempotent) and return it.
    pub fn arm_flight(&self) -> &FlightRecorder {
        self.flight.get_or_init(FlightRecorder::new)
    }

    /// Process-unique id of this epoch (diagnostics; doubles as the owning
    /// handle's identity in debug output).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Record a `pwb` by the owning handle: it is dirty until its next fence.
    #[inline]
    pub fn note_pwb(&self) {
        self.pwbs_since_fence.set(self.pwbs_since_fence.get() + 1);
    }

    /// Record a `pfence` by the owning handle: close the epoch (clean the dirty
    /// count and forget the recently-flushed set).
    #[inline]
    pub fn note_pfence(&self) {
        self.pwbs_since_fence.set(0);
        self.recent_len.set(0);
        self.next_slot.set(0);
    }

    /// `true` when the owning handle has issued no `pwb` since its last `pfence`
    /// — i.e. a fence right now would persist nothing.
    #[inline]
    pub fn is_clean(&self) -> bool {
        self.pwbs_since_fence.get() == 0
    }

    /// Number of `pwb`s the owning handle has issued this epoch (diagnostic).
    pub fn pending_pwbs(&self) -> u64 {
        self.pwbs_since_fence.get()
    }

    /// Record that the owning handle flushed `word` while it held `val`, with the
    /// backend's store version (`stamp`) at flush time.
    #[inline]
    fn note_flushed(&self, word: usize, val: u64, stamp: u64) {
        self.recent[self.next_slot.get()].set((word, val, stamp));
        self.next_slot
            .set((self.next_slot.get() + 1) % RECENT_FLUSHES);
        self.recent_len
            .set((self.recent_len.get() + 1).min(RECENT_FLUSHES));
    }

    /// Record a read-side `pwb` of `word` holding `val` (stamped with the backend's
    /// store version at flush time): [`note_pwb`](Self::note_pwb) plus an entry in
    /// the recently-flushed set, for the `pwb_dedup` miss path.
    #[inline]
    pub fn note_pwb_flushed(&self, word: usize, val: u64, stamp: u64) {
        self.note_pwb();
        self.note_flushed(word, val, stamp);
    }

    /// Enqueue one completion obligation on the owning handle (group commit):
    /// the operation has linearized but its durability is not yet
    /// acknowledged. Returns the new pending count, so the caller can compare
    /// it against the batch limit.
    #[inline]
    pub fn note_obligation(&self) -> u64 {
        self.obligations_enqueued
            .set(self.obligations_enqueued.get() + 1);
        let pending = self.obligations_pending.get() + 1;
        self.obligations_pending.set(pending);
        pending
    }

    /// Obligations enqueued on this handle over its lifetime (monotone).
    #[inline]
    pub fn enqueued_obligations(&self) -> u64 {
        self.obligations_enqueued.get()
    }

    /// Obligations enqueued but not yet acknowledged by a drain.
    #[inline]
    pub fn pending_obligations(&self) -> u64 {
        self.obligations_pending.get()
    }

    /// Obligations acknowledged so far (enqueued minus pending).
    #[inline]
    pub fn committed_obligations(&self) -> u64 {
        self.obligations_enqueued.get() - self.obligations_pending.get()
    }

    /// Acknowledge every pending obligation (the bookkeeping half of a batch
    /// drain — the owning handle must fence *before* calling this). Returns
    /// how many obligations were acknowledged.
    #[inline]
    pub fn take_obligations(&self) -> u64 {
        let pending = self.obligations_pending.get();
        self.obligations_pending.set(0);
        pending
    }

    /// `true` when the owning handle already flushed `word` holding exactly `val`
    /// in the current epoch *and* no store has been recorded through the backend
    /// since (`stamp` equals the stamp recorded at flush time) — the condition
    /// under which skipping the re-flush is unconditionally sound (module docs).
    #[inline]
    pub fn recently_flushed(&self, word: usize, val: u64, stamp: u64) -> bool {
        self.recent[..self.recent_len.get()]
            .iter()
            .any(|slot| slot.get() == (word, val, stamp))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_epoch_is_clean() {
        let e = PersistEpoch::new();
        assert!(e.is_clean());
        assert_eq!(e.pending_pwbs(), 0);
    }

    #[test]
    fn pwb_dirties_and_pfence_cleans() {
        let e = PersistEpoch::new();
        e.note_pwb();
        e.note_pwb();
        assert!(!e.is_clean());
        assert_eq!(e.pending_pwbs(), 2);
        e.note_pfence();
        assert!(e.is_clean());
    }

    #[test]
    fn recently_flushed_is_keyed_by_word_value_and_stamp() {
        let e = PersistEpoch::new();
        e.note_flushed(0x1000, 7, 3);
        assert!(e.recently_flushed(0x1000, 7, 3));
        assert!(
            !e.recently_flushed(0x1000, 8, 3),
            "value mismatch must reflush"
        );
        assert!(!e.recently_flushed(0x1008, 7, 3), "other word must reflush");
        assert!(
            !e.recently_flushed(0x1000, 7, 4),
            "an intervening store (version bump) must reflush: ABA closed"
        );
    }

    #[test]
    fn pfence_forgets_the_recent_set() {
        let e = PersistEpoch::new();
        e.note_pwb();
        e.note_flushed(0x40, 1, 0);
        e.note_pfence();
        assert!(!e.recently_flushed(0x40, 1, 0));
    }

    #[test]
    fn recent_set_is_a_bounded_ring() {
        let e = PersistEpoch::new();
        for i in 0..RECENT_FLUSHES + 2 {
            e.note_flushed(0x1000 + i * 8, i as u64, 0);
        }
        // The two oldest entries were evicted, the rest are still present.
        assert!(!e.recently_flushed(0x1000, 0, 0));
        assert!(!e.recently_flushed(0x1008, 1, 0));
        assert!(e.recently_flushed(0x1010, 2, 0));
        assert!(e.recently_flushed(
            0x1000 + (RECENT_FLUSHES + 1) * 8,
            (RECENT_FLUSHES + 1) as u64,
            0
        ));
    }

    #[test]
    fn epochs_are_independent_values() {
        // Two epochs on one OS thread (two handles) never cross-contaminate: the
        // state is keyed by ownership, not by thread identity.
        let a = PersistEpoch::new();
        let b = PersistEpoch::new();
        a.note_pwb();
        assert!(!a.is_clean());
        assert!(b.is_clean(), "epoch B must not see epoch A's pwb");
        b.note_pfence();
        assert!(!a.is_clean(), "a fence through B must not clean A");
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn epoch_state_travels_with_the_value_across_threads() {
        // A handle outliving its spawning thread keeps its dirty state: the epoch
        // is `Send`, and nothing about it is keyed to the OS thread.
        let e = PersistEpoch::new();
        e.note_pwb();
        let e = std::thread::spawn(move || {
            assert!(!e.is_clean(), "dirtiness moved with the value");
            e.note_pfence();
            e
        })
        .join()
        .unwrap();
        assert!(
            e.is_clean(),
            "the fence on the other thread closed the epoch"
        );
    }

    #[test]
    fn commit_mode_round_trips() {
        assert_eq!(CommitMode::parse("immediate"), Some(CommitMode::Immediate));
        assert_eq!(CommitMode::parse("batched-8"), Some(CommitMode::Batched(8)));
        assert_eq!(CommitMode::parse("batched-0"), None, "k must be positive");
        assert_eq!(CommitMode::parse("batched-"), None);
        assert_eq!(CommitMode::parse("batched-x"), None);
        assert_eq!(CommitMode::parse("eventually"), None);
        assert_eq!(CommitMode::Immediate.name(), "immediate");
        assert_eq!(CommitMode::Batched(4).name(), "batched-4");
        for mode in [CommitMode::Immediate, CommitMode::Batched(8)] {
            assert_eq!(CommitMode::parse(&mode.name()), Some(mode));
        }
        assert!(!CommitMode::default().is_batched());
    }

    #[test]
    fn obligations_accumulate_and_drain_independently_of_fences() {
        let e = PersistEpoch::new();
        assert_eq!(e.note_obligation(), 1);
        assert_eq!(e.note_obligation(), 2);
        assert_eq!(e.enqueued_obligations(), 2);
        assert_eq!(e.pending_obligations(), 2);
        assert_eq!(e.committed_obligations(), 0);
        // A fence alone does not acknowledge anything: the drain is explicit.
        e.note_pwb();
        e.note_pfence();
        assert_eq!(e.pending_obligations(), 2);
        assert_eq!(e.take_obligations(), 2);
        assert_eq!(e.pending_obligations(), 0);
        assert_eq!(e.committed_obligations(), 2);
        assert_eq!(e.enqueued_obligations(), 2, "enqueued stays monotone");
    }

    #[test]
    fn elision_mode_round_trips() {
        assert_eq!(ElisionMode::parse("on"), Some(ElisionMode::Enabled));
        assert_eq!(ElisionMode::parse("off"), Some(ElisionMode::Disabled));
        assert_eq!(ElisionMode::parse("maybe"), None);
        assert_eq!(ElisionMode::Enabled.name(), "on");
        assert_eq!(ElisionMode::Disabled.name(), "off");
        assert!(ElisionMode::default().is_enabled());
    }
}
