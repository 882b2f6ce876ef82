//! Post-crash slot GC: conservative mark-and-sweep from the root tables.
//!
//! The volatile recycle list ([`Arena::recycle`]) is the one allocator
//! structure that does not survive a crash: slots retired through EBR sit on
//! it until they are reused, and a crash forgets them. After a reopen those
//! slots are garbage — below the high-water mark, on no free list, reachable
//! from no root. Without a GC pass they leak forever, which is the standard
//! trade-off of log-free persistent allocators ... unless the pool runtime
//! closes it, which is this module's job. `FlitDb::open` runs
//! [`post_crash_gc`] as the final stage of its validate → adopt → recover → GC
//! pipeline and reports the reclaimed count.
//!
//! ## Only after an unclean close
//!
//! An orderly close leaves nothing for this pass to find: it drains EBR, moves
//! every recycle list onto its durable free list
//! ([`Arena::persist_recycled`]) and only then marks the pool clean, so `open`
//! skips the pass when the mark is there. A structure that drops with retired
//! slots it never recycled flags its arena ([`Arena::flag_unaccounted`]) and
//! the close leaves the pool dirty. Skipping the pass can never free a slot,
//! so a stale or forged clean mark costs at most a leak, never a live slot
//! handed out twice.
//!
//! ## How marking works
//!
//! * **Seeds** — every live root-table entry of every arena (after adoption
//!   the live table *is* the durable table).
//! * **Slot scanning is conservative** — every word of a marked slot is
//!   treated as a *potential* pointer: keep only the address bits (3–46),
//!   stripping the link-and-persist flag (bit 63), a HAMT entry's bitmap or
//!   pair count (bits 47–62) and the low mark/tag bits, then ask each arena whether the
//!   address falls inside a chunk. False positives (a value that happens to
//!   look like a live slot address) keep garbage alive — acceptable; false
//!   negatives are impossible because structures store plain tagged addresses.
//! * **Block spans are one object** — [`Arena::alloc_block`] records each
//!   multi-slot span durably. A mark anywhere in a span marks the whole span,
//!   and every word of it is scanned like any slot's. A hash table's directory
//!   is such a block: its words are the bucket links and the tail sentinel's
//!   address, plain tagged addresses like every other link.
//! * **Durable-free slots are accounted, not scanned** — they are dead by
//!   definition; their first word is a free-list link, not a pointer.
//!
//! ## Sweep
//!
//! A slot below the high-water mark that is neither marked, on the durable
//! free list, nor already on the recycle list is leaked: it is handed back via
//! [`Arena::reclaim_leaked`] — onto the **durable** free list for pool-backed
//! arenas (so the reclamation survives the next unmap and a reopened pool
//! reports zero leaks), onto the volatile recycle list for heap arenas.
//! Running the pass twice therefore reclaims nothing the second time — the
//! acceptance check the kill harness uses.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use flit_pmem::WORD_SIZE;

use crate::Arena;

/// The address bits (3–46) of a word treated as a candidate pointer: strips
/// the link-and-persist flag (bit 63), the occupancy bitmap or pair count a
/// HAMT entry carries in bits 47–62, and the low mark/tag bits. User-space
/// addresses on x86-64 Linux fit in 47 bits, so no real address loses a bit.
const CANDIDATE_MASK: u64 = ((1 << 47) - 1) & !0b111;

/// Per-arena result of one [`post_crash_gc`] pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArenaGc {
    /// Slots proved reachable from the root tables.
    pub reachable: usize,
    /// Slots accounted for by the durable free list.
    pub free_listed: usize,
    /// Slots already on the volatile recycle list when the pass ran.
    pub recycled: usize,
    /// Leaked slots reclaimed by this pass (died on the volatile recycle list,
    /// or allocated and never published).
    pub reclaimed: usize,
    /// The high-water mark the pass swept up to.
    pub high_water: usize,
}

/// Result of a [`post_crash_gc`] pass over a set of arenas.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GcOutcome {
    /// One entry per arena, in the order passed in.
    pub arenas: Vec<ArenaGc>,
}

impl GcOutcome {
    /// Total slots reclaimed across all arenas — the `leaked_slots` counter
    /// surfaced in the recovery report.
    pub fn total_reclaimed(&self) -> usize {
        self.arenas.iter().map(|a| a.reclaimed).sum()
    }
}

/// Read the word at `addr` through an atomic view (GC runs before any handle
/// exists, but the regions are shared memory and deserve defined access).
fn read_word(addr: usize) -> u64 {
    // SAFETY: callers pass in-bounds, word-aligned addresses of arena regions
    // kept alive by the `Arc<Arena>`s held across the pass.
    unsafe { (*(addr as *const AtomicU64)).load(Ordering::SeqCst) }
}

/// Conservative mark-and-sweep over `arenas` (see the module docs). Returns
/// the per-arena accounting; leaked slots are handed back to each arena via
/// [`Arena::reclaim_leaked`] as a side effect (durable free list when
/// pool-backed, volatile recycle list on the heap).
pub fn post_crash_gc(arenas: &[Arc<Arena>]) -> GcOutcome {
    let n = arenas.len();
    let hw: Vec<usize> = arenas.iter().map(|a| a.high_water()).collect();
    // block_of[a][slot] = index into blocks[a] covering `slot`, if any.
    let blocks: Vec<Vec<(usize, usize)>> = arenas.iter().map(|a| a.recorded_blocks()).collect();
    let mut block_of: Vec<Vec<Option<usize>>> = hw.iter().map(|&h| vec![None; h]).collect();
    for (ai, spans) in blocks.iter().enumerate() {
        for (bi, &(first, count)) in spans.iter().enumerate() {
            for slot in block_of[ai].iter_mut().skip(first).take(count) {
                *slot = Some(bi);
            }
        }
    }

    let mut marked: Vec<Vec<bool>> = hw.iter().map(|&h| vec![false; h]).collect();
    let mut work: Vec<(usize, usize)> = Vec::new();

    // Seed from every arena's live root table.
    for (ai, arena) in arenas.iter().enumerate() {
        for (_key, off) in arena.live_roots() {
            if off < hw[ai] {
                work.push((ai, off));
            }
        }
    }

    // Resolve a candidate word to `(arena, slot)`, first as a tagged address.
    let resolve_addr = |word: u64| -> Option<(usize, usize)> {
        let addr = (word & CANDIDATE_MASK) as usize;
        if addr == 0 {
            return None;
        }
        for (ai, arena) in arenas.iter().enumerate() {
            if let Some(off) = arena.offset_of_addr(addr) {
                return Some((ai, off));
            }
        }
        None
    };

    while let Some((ai, off)) = work.pop() {
        if off >= hw[ai] || marked[ai][off] {
            continue;
        }
        // A hit anywhere in a recorded block span marks — and scans — the span
        // as one object.
        let (first, count) = match block_of[ai][off] {
            Some(bi) => {
                let (f, c) = blocks[ai][bi];
                (f, c.min(hw[ai] - f))
            }
            None => (off, 1),
        };
        for m in marked[ai].iter_mut().skip(first).take(count) {
            *m = true;
        }
        let arena = &arenas[ai];
        let base = arena.addr_of_offset(first);
        let bytes = count * arena.slot_size();
        for woff in (0..bytes).step_by(WORD_SIZE) {
            let word = read_word(base + woff);
            if let Some(hit) = resolve_addr(word) {
                work.push(hit);
            }
        }
    }

    // Sweep: anything below high water that is neither reachable nor on a
    // free list is a leak; reclaim it.
    let mut outcome = GcOutcome::default();
    for ai in 0..n {
        let arena = &arenas[ai];
        let free: HashSet<usize> = arena.durable_free_offsets().into_iter().collect();
        let recycled: HashSet<usize> = arena.recycled_offsets().into_iter().collect();
        let mut leaked = Vec::new();
        for (off, m) in marked[ai].iter().enumerate() {
            if !m && !free.contains(&off) && !recycled.contains(&off) {
                leaked.push(off);
            }
        }
        arena.reclaim_leaked(&leaked);
        outcome.arenas.push(ArenaGc {
            reachable: marked[ai].iter().filter(|m| **m).count(),
            free_listed: free.len(),
            recycled: recycled.len(),
            reclaimed: leaked.len(),
            high_water: hw[ai],
        });
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use flit_pmem::{LatencyModel, SimNvram};

    fn backend() -> SimNvram {
        SimNvram::builder().latency(LatencyModel::none()).build()
    }

    #[test]
    fn unreachable_slots_are_reclaimed_and_reachable_ones_kept() {
        let b = backend();
        let arena = Arc::new(Arena::new(&b, 64, 16));
        // Three slots: root -> a -> c; b is garbage (simulates a slot that
        // died on the volatile recycle list across a crash).
        let a = arena.alloc(&b) as usize;
        let dead = arena.alloc(&b) as usize;
        let c = arena.alloc(&b) as usize;
        // SAFETY: exclusively owned test slots; first word is ours.
        unsafe {
            (a as *mut u64).write(c as u64);
            (c as *mut u64).write(0);
        }
        arena.register_root(&b, crate::roots::LIST_HEAD, a);
        let outcome = post_crash_gc(&[Arc::clone(&arena)]);
        assert_eq!(outcome.arenas[0].reachable, 2);
        assert_eq!(outcome.arenas[0].reclaimed, 1);
        assert_eq!(outcome.total_reclaimed(), 1);
        // The reclaimed slot is reusable...
        assert_eq!(arena.alloc(&b) as usize, dead);
        // ...and a second pass reclaims nothing (idempotence).
        // SAFETY: the slot just came back from the recycle list; re-retire it.
        unsafe { arena.recycle(dead as *mut u8) };
        let again = post_crash_gc(&[arena]);
        assert_eq!(again.total_reclaimed(), 0);
    }

    #[test]
    fn tagged_pointers_still_mark_their_targets() {
        let b = backend();
        let arena = Arc::new(Arena::new(&b, 64, 16));
        let a = arena.alloc(&b) as usize;
        let target = arena.alloc(&b) as usize;
        // Mark bit + link-and-persist flag set, as a Harris list's next word
        // would carry mid-removal.
        let tagged = (target as u64) | (1 << 63) | 0b1;
        // SAFETY: exclusively owned test slot.
        unsafe { (a as *mut u64).write(tagged) };
        arena.register_root(&b, crate::roots::LIST_HEAD, a);
        let outcome = post_crash_gc(&[arena]);
        assert_eq!(outcome.arenas[0].reachable, 2);
        assert_eq!(outcome.arenas[0].reclaimed, 0);
    }

    #[test]
    fn durable_free_slots_are_accounted_not_leaked() {
        let b = backend();
        let arena = Arc::new(Arena::new(&b, 64, 16));
        let a = arena.alloc(&b);
        let _keep = arena.alloc(&b);
        // SAFETY: unreachable test allocation.
        unsafe { arena.free(&b, a) };
        let outcome = post_crash_gc(&[Arc::clone(&arena)]);
        assert_eq!(outcome.arenas[0].free_listed, 1);
        // `_keep` is unreachable from any root: reclaimed, not free-listed.
        assert_eq!(outcome.arenas[0].reclaimed, 1);
    }

    #[test]
    fn block_spans_mark_as_one_object_and_their_words_act_as_addresses() {
        let b = backend();
        let arena = Arc::new(Arena::new(&b, 64, 16));
        // A 3-slot directory block whose words name two node slots by address,
        // exactly like the hash table's bucket links.
        let n1 = arena.alloc(&b) as usize;
        let n2 = arena.alloc(&b) as usize;
        let garbage = arena.alloc(&b) as usize;
        let dir = arena.alloc_block(&b, 64 * 3) as *mut u64;
        // SAFETY: exclusively owned block.
        unsafe {
            // A bucket count: read as `offset + 1` it would name `garbage`.
            dir.write(3);
            dir.add(1).write(n1 as u64);
            dir.add(2).write(n2 as u64 | 1); // a marked link still marks
        }
        arena.register_root(&b, crate::roots::HASH_DIRECTORY, dir as usize);
        let outcome = post_crash_gc(&[Arc::clone(&arena)]);
        // 3 block slots + 2 nodes; the unnamed slot is garbage.
        assert_eq!(outcome.arenas[0].reachable, 5);
        assert_eq!(outcome.arenas[0].reclaimed, 1);
        assert_eq!(arena.alloc(&b) as usize, garbage);
    }
}
