//! One bounded traversal of an arena's durable words: the walker every
//! image-only recovery is written against.
//!
//! A recovery walk reads words out of a [`CrashImage`] and follows the links
//! it finds there. Those words are untrusted — a broken durability control
//! leaves dangling links, and a pool file can hold anything — so every walk
//! needs the same three guards: a link must land inside the arena, a word it
//! needs must be in the image, and the walk must end even when the links
//! cycle. [`ImageWalk`] is those guards, and nothing else: a structure's walk
//! is its layout logic plus `?`, and every guard that trips ends the walk as
//! [`Truncated`].
//!
//! The bound is one budget of `image.len() + 2` [`visit`](ImageWalk::visit)s
//! for the whole walk. On a valid image every visit consumes a distinct
//! persisted word (the node's link, first child or key word, or a hash-table
//! directory word), so the budget never trips; on a cyclic image it trips
//! after O(`image.len()`) visits, however the cycle is shaped. A shared
//! sentinel is visited once: the hash table visits its tail when it reads the
//! directory and ends each bucket's chain on the tail's recorded address, and
//! charges each bucket its directory word instead, so a hostile bucket count
//! spends the budget like a cycle does.

use std::ops::Range;

use flit_pmem::CrashImage;

use crate::Arena;

/// Why an image walk stopped: a link left the arena, a word it needed is
/// absent from the image, or the walk spent its budget. Recovery reports it as
/// `truncated` — the signature of a violated persist-before-publish invariant,
/// or of hostile bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Truncated;

/// A bounded walk over `arena`'s durable words in `image`. See the module
/// docs.
#[derive(Debug)]
pub struct ImageWalk<'a> {
    arena: &'a Arena,
    image: &'a CrashImage,
    /// The arena's chunks, read once: a visit checks membership without
    /// taking the chunk lock, which would otherwise dominate its cost.
    chunks: Vec<Range<usize>>,
    budget: usize,
}

impl<'a> ImageWalk<'a> {
    /// A walk whose budget is `image.len() + 2` visits.
    pub fn new(arena: &'a Arena, image: &'a CrashImage) -> Self {
        let chunks = arena.chunks.read();
        Self {
            arena,
            image,
            chunks: chunks
                .iter()
                .map(|c| c.base_addr()..c.base_addr() + c.len())
                .collect(),
            budget: image.len() + 2,
        }
    }

    /// The slot registered under root `key` as persisted in the image, or
    /// `None` when the structure was not durably constructed (see
    /// [`Arena::root_in_image`]).
    pub fn root(&self, key: u64) -> Option<usize> {
        self.arena.root_in_image(self.image, key)
    }

    /// Step onto the node at `addr`, spending one unit of budget: `addr` must
    /// be non-null and inside one of the arena's chunks. Returns `addr`.
    pub fn visit(&mut self, addr: usize) -> Result<usize, Truncated> {
        // No chunk starts at address 0, so the membership check also rejects
        // null.
        if self.budget == 0 || !self.chunks.iter().any(|c| c.contains(&addr)) {
            return Err(Truncated);
        }
        self.budget -= 1;
        Ok(addr)
    }

    /// The image's word at `addr`; a word the image does not hold truncates
    /// the walk.
    pub fn read(&self, addr: usize) -> Result<u64, Truncated> {
        self.image.read(addr).ok_or(Truncated)
    }

    /// The image's word at `addr`, if present — for layouts where an absent
    /// word legitimately ends the walk (a queue's persisted prefix).
    pub fn get(&self, addr: usize) -> Option<u64> {
        self.image.read(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HEADER_BYTES;
    use flit_pmem::{PmemBackend, SimNvram, WORD_SIZE};

    /// An arena of four 64-byte slots per chunk holding `slots` allocated
    /// slots, the first word of each persisted, and the image that results.
    fn arena_with(slots: usize) -> (SimNvram, Arena, CrashImage) {
        let b = SimNvram::for_crash_testing();
        let arena = Arena::new(&b, 64, 4);
        for i in 0..slots {
            let p = arena.alloc(&b);
            // SAFETY: a freshly allocated slot of this test's arena.
            unsafe { (p as *mut u64).write(i as u64) };
            b.record_store(p, i as u64);
            b.pwb(p);
        }
        b.pfence();
        let image = b.tracker().unwrap().crash_image();
        (b, arena, image)
    }

    #[test]
    fn visit_rejects_null_header_and_foreign_addresses() {
        let (_b, arena, image) = arena_with(6);
        let mut walk = ImageWalk::new(&arena, &image);
        // Chunks are disjoint, so the highest chunk end lies in none of them.
        let past_the_chunks = arena.image_ranges()[1..]
            .iter()
            .map(|&(base, len)| base + len)
            .max()
            .unwrap();
        let header = arena.header_base();
        for addr in [
            0,
            header,
            header + HEADER_BYTES - WORD_SIZE,
            past_the_chunks,
        ] {
            assert_eq!(walk.visit(addr), Err(Truncated), "{addr:#x}");
        }
        let slot = arena.addr_of_offset(5);
        assert_eq!(walk.visit(slot), Ok(slot));
    }

    #[test]
    fn a_word_absent_from_the_image_truncates_a_read() {
        let (_b, arena, image) = arena_with(2);
        let walk = ImageWalk::new(&arena, &image);
        let slot = arena.addr_of_offset(1);
        assert_eq!(walk.read(slot), Ok(1));
        assert_eq!(walk.get(slot), Some(1));
        // The slot's second word was never recorded, so it never persisted.
        assert_eq!(walk.read(slot + WORD_SIZE), Err(Truncated));
        assert_eq!(walk.get(slot + WORD_SIZE), None);
    }

    #[test]
    fn the_budget_is_image_len_plus_two_visits() {
        let (_b, arena, image) = arena_with(3);
        let mut walk = ImageWalk::new(&arena, &image);
        let slot = arena.addr_of_offset(0);
        for _ in 0..image.len() + 2 {
            assert_eq!(walk.visit(slot), Ok(slot));
        }
        assert_eq!(walk.visit(slot), Err(Truncated));
    }
}
