//! # `flit-ebr` — epoch-based memory reclamation with explicit participants
//!
//! The lock-free data structures used in the FliT paper's evaluation (Harris linked
//! list, Natarajan–Mittal BST, skiplist, hash table) physically unlink nodes that other
//! threads may still be traversing. Freeing such a node immediately would be a
//! use-after-free; this crate provides the standard solution, *epoch-based
//! reclamation* (EBR), as an independent substrate so the data-structure crate does not
//! depend on any external reclamation library.
//!
//! ## How it works
//!
//! A [`Collector`] maintains a global epoch counter and a fixed table of participant
//! slots. A logical thread of execution **registers** once
//! ([`Collector::register`]), receiving a [`LocalHandle`] that owns one slot.
//! Before touching shared nodes, the handle [`pin`](LocalHandle::pin)s itself: it
//! publishes the epoch it observed in its slot. Nodes removed from the structure
//! are not freed; they are handed to [`Guard::defer_destroy`] (or [`Guard::defer`]),
//! which records them together with the epoch at retirement. The global epoch only
//! advances when every pinned participant has caught up with it, so a node retired
//! in epoch *e* can be reclaimed safely once the global epoch reaches *e + 2*:
//! every participant that could possibly hold a reference has unpinned since.
//!
//! ## Explicit handles (no thread-locals)
//!
//! Earlier revisions cached "which slot does this OS thread own" in a
//! `thread_local!` map, which made participation ambient: slots could never be
//! recycled (a dead thread's slot stayed claimed forever), and a controlled
//! scheduler could not represent two logical threads on one OS thread. A
//! [`LocalHandle`] makes participation a plain value: it is `Send` (a handle may
//! migrate between OS threads — at most one uses it at a time, which `!Sync`
//! enforces), two handles on one OS thread are two independent participants, and
//! **dropping a handle returns its slot to a free list** for the next
//! registration — short-lived workers no longer leak participant slots.
//!
//! ## The cost of a pin
//!
//! Every data-structure operation pins and unpins once, so the pair is on the
//! hot path of every read. It costs one fence:
//!
//! * **Pin** loads the global epoch and publishes it in the slot with one
//!   `SeqCst` store — the one fence. That store must be ordered before the
//!   guard's later loads of shared pointers (store→load ordering), which
//!   nothing weaker provides.
//! * **Unpin** (outermost guard only) stores `INACTIVE` with `Release`, a plain
//!   store on x86, and bumps the collection-pacing count, a `Cell` on the
//!   [`LocalHandle`]: no shared read-modify-write.
//!
//! *Why `Release` is enough for the unpin.* A collector reads each slot with a
//! `SeqCst` load. If it reads `INACTIVE`, it synchronises with the release
//! store, so everything the guard read happens before anything that collector
//! then frees (crossbeam-epoch unpins the same way). If it reads the old
//! pinned epoch instead, the slot counts as pinned, which is the conservative
//! answer.
//!
//! ## The scan bound
//!
//! A collection attempt ([`Collector::flush`], every 32nd unpin, a handle's
//! drop) scans the slots to decide whether the epoch may advance, and
//! [`Collector::garbage_len`] sums their garbage. Both walk only the slots
//! claimed so far — `claimed`, bumped by [`Collector::register`] — not all
//! [`MAX_PARTICIPANTS`] padded slots. The bump and the scan's read of it are
//! both `SeqCst`, and the scan reads the global epoch *before* it reads
//! `claimed`. A slot at or past the value the scan read was first claimed
//! after that read in the `SeqCst` order, and that claim happens before any
//! pin through the slot (its own handle's, or a later owner's that got the
//! slot from the free list). So such a pin loads the global epoch after the
//! scan loaded it: it pins at the epoch the scan compares against, which a
//! full scan would also let pass, or at a later one, in which case the epoch
//! has already moved and the scan's compare-and-swap from the old value fails
//! whatever it saw. Skipping the unclaimed tail never lets the epoch advance
//! past a pinned participant.
//!
//! ## Guarantees and limits
//!
//! * Memory is reclaimed only when provably unreachable (two-epoch rule).
//! * A handle that stays pinned forever blocks reclamation but never correctness.
//! * At most [`MAX_PARTICIPANTS`] handles may be live *simultaneously* on one
//!   collector (slots are recycled on handle drop); exceeding it panics.
//! * Pinning is re-entrant per handle: nested [`pin`](LocalHandle::pin)s share the
//!   outermost pin's epoch, and only the outermost unpin deactivates the slot.
//! * Dropping the collector runs every remaining deferred destructor.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crossbeam_utils::CachePadded;

/// Maximum number of simultaneously live participant handles per collector.
pub const MAX_PARTICIPANTS: usize = 256;

/// Slot state meaning "not currently pinned".
const INACTIVE: u64 = u64::MAX;

/// How many unpins a slot performs between attempts to advance the global epoch and
/// collect its local garbage.
const COLLECT_INTERVAL: u64 = 32;

/// A deferred reclamation action: runs exactly once, by whichever participant happens
/// to run collection, after the two-epoch rule proves the retired object
/// unreachable.
struct Deferred(Box<dyn FnOnce() + Send>);

impl Deferred {
    /// Build a deferred action that reclaims `ptr` as a `Box<T>`.
    ///
    /// # Safety
    /// `ptr` must have been produced by `Box::into_raw` and must not be freed by any
    /// other path.
    unsafe fn destroy_box<T: 'static>(ptr: *mut T) -> Self {
        let ptr = SendPtr(ptr);
        Deferred(Box::new(move || {
            // Rebind the whole wrapper so the closure captures the `Send` wrapper
            // itself (edition-2021 disjoint capture would otherwise capture the
            // raw-pointer field directly).
            let wrapper = ptr;
            let raw = wrapper.0;
            // SAFETY: guaranteed by the contract of `destroy_box`; the two-epoch
            // rule makes the object unreachable by the time this runs.
            drop(unsafe { Box::from_raw(raw) });
        }))
    }

    fn run(self) {
        (self.0)()
    }
}

/// Raw-pointer wrapper so reclamation closures can capture node pointers.
/// The EBR epoch discipline is what makes moving the pointer across threads sound.
struct SendPtr<T>(*mut T);
// SAFETY: see the type docs — the wrapped pointer is only dereferenced by the one
// thread that runs the deferred action, after quiescence.
unsafe impl<T> Send for SendPtr<T> {}

struct Slot {
    /// Either `INACTIVE` or the epoch the owning handle pinned at.
    state: CachePadded<AtomicU64>,
    /// Garbage retired through this slot: `(retirement epoch, destructor)`.
    /// Survives slot recycling — the next owner inherits (and eventually
    /// collects) whatever the previous owner left behind.
    garbage: Mutex<Vec<(u64, Deferred)>>,
}

impl Default for Slot {
    fn default() -> Self {
        Self {
            state: CachePadded::new(AtomicU64::new(INACTIVE)),
            garbage: Mutex::new(Vec::new()),
        }
    }
}

struct Global {
    epoch: CachePadded<AtomicU64>,
    slots: Vec<Slot>,
    /// High-water mark of slots ever claimed: every slot at or past it has
    /// never been used, so scans stop there (see "The scan bound").
    claimed: AtomicUsize,
    /// Slots returned by dropped handles, ready for re-registration.
    free_slots: Mutex<Vec<usize>>,
}

impl Global {
    /// The slots ever claimed — the only ones that can be pinned or hold
    /// garbage.
    fn claimed_slots(&self) -> &[Slot] {
        &self.slots[..self.claimed.load(Ordering::SeqCst).min(MAX_PARTICIPANTS)]
    }
}

impl Drop for Global {
    fn drop(&mut self) {
        // No guards can exist at this point (they borrow handles, which borrow the
        // collector's Arc), so all remaining garbage is unreachable and safe to
        // destroy.
        for slot in self.claimed_slots() {
            let mut garbage = slot.garbage.lock().unwrap();
            for (_, deferred) in garbage.drain(..) {
                deferred.run();
            }
        }
    }
}

/// An epoch-based garbage collector shared by all participants operating on one
/// database's structures. Cloning is cheap (reference-counted) and clones share
/// all state.
#[derive(Clone)]
pub struct Collector {
    global: Arc<Global>,
}

impl Default for Collector {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Collector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Collector")
            .field("epoch", &self.global.epoch.load(Ordering::Relaxed))
            .field("participants", &self.participants())
            .finish()
    }
}

impl Collector {
    /// Create a new collector.
    pub fn new() -> Self {
        Self {
            global: Arc::new(Global {
                epoch: CachePadded::new(AtomicU64::new(0)),
                slots: (0..MAX_PARTICIPANTS).map(|_| Slot::default()).collect(),
                claimed: AtomicUsize::new(0),
                free_slots: Mutex::new(Vec::new()),
            }),
        }
    }

    /// The current global epoch (diagnostic; monotonically non-decreasing).
    pub fn epoch(&self) -> u64 {
        self.global.epoch.load(Ordering::SeqCst)
    }

    /// Number of currently live participant handles.
    pub fn participants(&self) -> usize {
        self.global.claimed.load(Ordering::Relaxed) - self.global.free_slots.lock().unwrap().len()
    }

    /// Total retired-but-not-yet-freed objects (diagnostic; approximate under
    /// concurrency).
    pub fn garbage_len(&self) -> usize {
        self.global
            .claimed_slots()
            .iter()
            .map(|s| s.garbage.lock().unwrap().len())
            .sum()
    }

    /// Register a new participant: claim a slot (reusing one returned by a
    /// dropped handle when available) and hand out the [`LocalHandle`] that owns
    /// it. The handle unregisters — and the slot becomes reusable — on drop.
    ///
    /// # Panics
    /// Panics when more than [`MAX_PARTICIPANTS`] handles are live at once.
    pub fn register(&self) -> LocalHandle {
        let slot = self.global.free_slots.lock().unwrap().pop();
        let slot = slot.unwrap_or_else(|| {
            let idx = self.global.claimed.fetch_add(1, Ordering::SeqCst);
            assert!(
                idx < MAX_PARTICIPANTS,
                "flit-ebr: more than {MAX_PARTICIPANTS} live handles on one collector"
            );
            idx
        });
        debug_assert_eq!(
            self.global.slots[slot].state.load(Ordering::SeqCst),
            INACTIVE,
            "a freed slot must be inactive"
        );
        LocalHandle {
            collector: self.clone(),
            slot,
            pin_depth: Cell::new(0),
            unpins: Cell::new(0),
        }
    }

    /// Try to advance the global epoch. Succeeds only if every currently pinned
    /// participant has observed the current epoch.
    fn try_advance(&self) -> u64 {
        let epoch = self.global.epoch.load(Ordering::SeqCst);
        for slot in self.global.claimed_slots() {
            let state = slot.state.load(Ordering::SeqCst);
            if state != INACTIVE && state != epoch {
                return epoch;
            }
        }
        let _ = self.global.epoch.compare_exchange(
            epoch,
            epoch + 1,
            Ordering::SeqCst,
            Ordering::SeqCst,
        );
        self.global.epoch.load(Ordering::SeqCst)
    }

    /// Free everything in `slot_idx`'s garbage bag that was retired at least two
    /// epochs ago.
    fn collect(&self, slot_idx: usize) {
        let global_epoch = self.try_advance();
        let slot = &self.global.slots[slot_idx];
        let ready: Vec<Deferred> = {
            let mut garbage = match slot.garbage.try_lock() {
                Ok(g) => g,
                Err(_) => return,
            };
            let mut ready = Vec::new();
            let mut i = 0;
            while i < garbage.len() {
                if garbage[i].0 + 2 <= global_epoch {
                    ready.push(garbage.swap_remove(i).1);
                } else {
                    i += 1;
                }
            }
            ready
        };
        for deferred in ready {
            deferred.run();
        }
    }

    /// Eagerly attempt to reclaim garbage from every slot. Useful in tests and when a
    /// data structure is about to be dropped.
    pub fn flush(&self) {
        for idx in 0..self.global.claimed_slots().len() {
            self.collect(idx);
        }
    }

    /// Run every deferred destructor the two-epoch rule allows, advancing the
    /// epoch as far as pinned participants permit. With nobody pinned — an
    /// owner tearing down, say — two advances make every retirement old
    /// enough, so everything runs. Returns `true` when no garbage is left.
    pub fn drain(&self) -> bool {
        self.try_advance();
        self.try_advance();
        self.flush();
        self.garbage_len() == 0
    }
}

/// An explicit participant in a [`Collector`]: owns one slot for as long as it
/// lives, and returns it on drop. This is the EBR half of a `FlitHandle`; see the
/// crate docs for why participation is a value rather than a thread-local.
///
/// `Send` but `!Sync`: a handle may migrate between OS threads, but only one may
/// use it at a time (the `Cell`-based pin depth enforces this at the type level).
pub struct LocalHandle {
    collector: Collector,
    slot: usize,
    /// Re-entrancy depth: how many live [`Guard`]s this handle has handed out.
    pin_depth: Cell<u64>,
    /// Outermost unpins so far, pacing collection attempts.
    unpins: Cell<u64>,
}

impl std::fmt::Debug for LocalHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocalHandle")
            .field("slot", &self.slot)
            .field("pin_depth", &self.pin_depth.get())
            .finish()
    }
}

impl LocalHandle {
    /// Pin this participant: while the returned [`Guard`] is alive, no node
    /// retired after this call will be reclaimed, so shared pointers read under
    /// the guard stay valid. Nested pins are cheap (only the outermost publishes
    /// an epoch).
    pub fn pin(&self) -> Guard<'_> {
        let depth = self.pin_depth.get();
        if depth == 0 {
            let slot = &self.collector.global.slots[self.slot];
            let epoch = self.collector.global.epoch.load(Ordering::SeqCst);
            slot.state.store(epoch, Ordering::SeqCst);
            // On x86 the SeqCst store above already provides the required
            // store-load ordering against subsequent reads of shared pointers.
        }
        self.pin_depth.set(depth + 1);
        Guard { handle: self }
    }

    /// The collector this handle participates in.
    pub fn collector(&self) -> &Collector {
        &self.collector
    }

    /// The slot index this handle owns (diagnostics).
    pub fn slot(&self) -> usize {
        self.slot
    }
}

impl Drop for LocalHandle {
    fn drop(&mut self) {
        debug_assert_eq!(self.pin_depth.get(), 0, "handle dropped while pinned");
        let slot = &self.collector.global.slots[self.slot];
        slot.state.store(INACTIVE, Ordering::SeqCst);
        // Give this slot's garbage a collection chance before the slot is handed
        // to the next registrant (best effort — anything left is inherited).
        self.collector.collect(self.slot);
        self.collector
            .global
            .free_slots
            .lock()
            .unwrap()
            .push(self.slot);
    }
}

/// A pinned-participant token. Shared nodes may be dereferenced and retired only
/// while a guard is alive.
pub struct Guard<'h> {
    handle: &'h LocalHandle,
}

impl Guard<'_> {
    /// Defer destruction of `ptr` (obtained from `Box::into_raw`) until no pinned
    /// participant can still hold a reference to it.
    ///
    /// # Safety
    /// * `ptr` must have been created by `Box::into_raw::<T>`.
    /// * `ptr` must be unreachable for participants that pin *after* this call
    ///   (i.e. it has been unlinked from the shared structure).
    /// * No other code may free `ptr`.
    pub unsafe fn defer_destroy<T: 'static>(&self, ptr: *mut T) {
        let epoch = self.collector().global.epoch.load(Ordering::SeqCst);
        let deferred = unsafe { Deferred::destroy_box(ptr) };
        let slot = &self.collector().global.slots[self.handle.slot];
        slot.garbage.lock().unwrap().push((epoch, deferred));
    }

    /// Defer an arbitrary reclamation action until no pinned participant can still
    /// hold a reference to whatever it frees. This is the hook arena-allocated
    /// structures use: instead of dropping a `Box`, the action returns the node's
    /// slot to its arena's recycle list.
    ///
    /// The closure itself runs exactly once, on an arbitrary thread, after the
    /// two-epoch rule proves quiescence; any unsafety (freeing a slot, recycling
    /// memory) lives inside the closure under the caller's unlinked-and-unique
    /// guarantee.
    pub fn defer<F: FnOnce() + Send + 'static>(&self, f: F) {
        let epoch = self.collector().global.epoch.load(Ordering::SeqCst);
        let slot = &self.collector().global.slots[self.handle.slot];
        slot.garbage
            .lock()
            .unwrap()
            .push((epoch, Deferred(Box::new(f))));
    }

    /// The collector this guard belongs to.
    pub fn collector(&self) -> &Collector {
        &self.handle.collector
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let depth = self.handle.pin_depth.get() - 1;
        self.handle.pin_depth.set(depth);
        if depth > 0 {
            return; // a nested pin: the outermost guard deactivates the slot
        }
        let slot = &self.handle.collector.global.slots[self.handle.slot];
        // Release suffices: see "The cost of a pin" in the crate docs.
        slot.state.store(INACTIVE, Ordering::Release);
        let unpins = self.handle.unpins.get() + 1;
        self.handle.unpins.set(unpins);
        if unpins % COLLECT_INTERVAL == 0 {
            self.handle.collector.collect(self.handle.slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// A payload that counts how many times it is dropped.
    struct DropCounter(Arc<AtomicUsize>);
    impl Drop for DropCounter {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn pin_unpin_advances_epoch_eventually() {
        let c = Collector::new();
        let h = c.register();
        let start = c.epoch();
        for _ in 0..(COLLECT_INTERVAL * 4) {
            drop(h.pin());
        }
        assert!(c.epoch() >= start, "epoch must never go backwards");
    }

    #[test]
    fn deferred_destruction_runs_exactly_once() {
        let drops = Arc::new(AtomicUsize::new(0));
        let c = Collector::new();
        let h = c.register();
        {
            let guard = h.pin();
            let node = Box::into_raw(Box::new(DropCounter(Arc::clone(&drops))));
            unsafe { guard.defer_destroy(node) };
        }
        // Unpin repeatedly so the epoch can advance and garbage gets collected.
        for _ in 0..(COLLECT_INTERVAL * 6) {
            drop(h.pin());
        }
        c.flush();
        c.flush();
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn nested_pins_share_the_outermost_epoch() {
        let c = Collector::new();
        let h = c.register();
        let outer = h.pin();
        let inner = h.pin();
        assert_eq!(h.pin_depth.get(), 2);
        drop(inner);
        // Still pinned: the slot must not be INACTIVE yet.
        let state = c.global.slots[h.slot()].state.load(Ordering::SeqCst);
        assert_ne!(state, INACTIVE, "outer guard still pins the slot");
        drop(outer);
        let state = c.global.slots[h.slot()].state.load(Ordering::SeqCst);
        assert_eq!(state, INACTIVE);
    }

    #[test]
    fn nothing_is_freed_while_a_guard_is_pinned() {
        let drops = Arc::new(AtomicUsize::new(0));
        let c = Collector::new();
        let other = c.clone();

        // A long-lived guard pins the current epoch.
        let long_handle = c.register();
        let long_lived = long_handle.pin();

        std::thread::scope(|s| {
            s.spawn(|| {
                let h = other.register();
                let guard = h.pin();
                let node = Box::into_raw(Box::new(DropCounter(Arc::clone(&drops))));
                unsafe { guard.defer_destroy(node) };
                drop(guard);
                for _ in 0..(COLLECT_INTERVAL * 6) {
                    drop(h.pin());
                }
                other.flush();
            });
        });

        // The long-lived guard observed the retirement epoch, so the node must not
        // have been reclaimed yet.
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        drop(long_lived);
        for _ in 0..(COLLECT_INTERVAL * 6) {
            drop(long_handle.pin());
        }
        c.flush();
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn collector_drop_reclaims_leftovers() {
        let drops = Arc::new(AtomicUsize::new(0));
        {
            let c = Collector::new();
            let h = c.register();
            let guard = h.pin();
            for _ in 0..10 {
                let node = Box::into_raw(Box::new(DropCounter(Arc::clone(&drops))));
                unsafe { guard.defer_destroy(node) };
            }
            drop(guard);
            // No flushing: dropping the collector must clean everything up.
        }
        assert_eq!(drops.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn drain_runs_everything_once_nobody_is_pinned() {
        let drops = Arc::new(AtomicUsize::new(0));
        let c = Collector::new();
        let h = c.register();
        let guard = h.pin();
        for _ in 0..3 {
            let node = Box::into_raw(Box::new(DropCounter(Arc::clone(&drops))));
            unsafe { guard.defer_destroy(node) };
        }
        assert!(!c.drain(), "a pinned participant holds the garbage back");
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        drop(guard);
        assert!(c.drain());
        assert_eq!(drops.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn concurrent_retirement_stress() {
        const THREADS: usize = 4;
        const PER_THREAD: usize = 500;
        let drops = Arc::new(AtomicUsize::new(0));
        {
            let c = Collector::new();
            std::thread::scope(|s| {
                for _ in 0..THREADS {
                    let c = c.clone();
                    let drops = Arc::clone(&drops);
                    s.spawn(move || {
                        let h = c.register();
                        for _ in 0..PER_THREAD {
                            let guard = h.pin();
                            let node = Box::into_raw(Box::new(DropCounter(Arc::clone(&drops))));
                            unsafe { guard.defer_destroy(node) };
                            drop(guard);
                        }
                    });
                }
            });
        }
        assert_eq!(drops.load(Ordering::SeqCst), THREADS * PER_THREAD);
    }

    #[test]
    fn dropped_handles_return_their_slots() {
        // The handle-retirement fix: slots are keyed by handle, not thread, and a
        // dropped handle's slot is reused by the next registration — short-lived
        // workers no longer consume the participant table.
        let c = Collector::new();
        let first = c.register();
        let first_slot = first.slot();
        drop(first);
        assert_eq!(c.participants(), 0);
        let second = c.register();
        assert_eq!(second.slot(), first_slot, "slot recycled LIFO");
        assert_eq!(c.participants(), 1);
        // Far more handles than MAX_PARTICIPANTS, sequentially: must not panic.
        for _ in 0..4 * MAX_PARTICIPANTS {
            let h = c.register();
            drop(h.pin());
        }
        assert_eq!(c.participants(), 1, "only `second` is still live");
    }

    #[test]
    fn two_handles_on_one_thread_are_independent_participants() {
        let c = Collector::new();
        let a = c.register();
        let b = c.register();
        assert_ne!(a.slot(), b.slot());
        assert_eq!(c.participants(), 2);
        // Pinning A must not pin (or unpin) B.
        let ga = a.pin();
        let sb = c.global.slots[b.slot()].state.load(Ordering::SeqCst);
        assert_eq!(sb, INACTIVE);
        drop(ga);
    }

    #[test]
    fn a_handle_can_outlive_its_spawning_thread() {
        let drops = Arc::new(AtomicUsize::new(0));
        let c = Collector::new();
        let c2 = c.clone();
        // Register on a worker thread, then move the handle back to this thread.
        let h = std::thread::spawn(move || c2.register()).join().unwrap();
        {
            let guard = h.pin();
            let node = Box::into_raw(Box::new(DropCounter(Arc::clone(&drops))));
            unsafe { guard.defer_destroy(node) };
        }
        for _ in 0..(COLLECT_INTERVAL * 6) {
            drop(h.pin());
        }
        c.flush();
        c.flush();
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn garbage_len_reports_pending_items() {
        let c = Collector::new();
        let h = c.register();
        let guard = h.pin();
        let node = Box::into_raw(Box::new(17u64));
        unsafe { guard.defer_destroy(node) };
        assert_eq!(c.garbage_len(), 1);
        drop(guard);
    }
}
