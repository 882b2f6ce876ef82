//! Crash recovery for the map structures: rebuild the abstract key→value set from an
//! adversarial [`CrashImage`] — and from *nothing else*.
//!
//! Recovery is **image-only**. Every structure allocates its nodes from a
//! [`flit_alloc::Arena`] and records all node words (links *and* the immutable
//! key/value contents) with the backend, and each structure registers where its
//! durable state begins in the arena's recovery-root table. A recovery walk
//! therefore consists of: root table (in the image) → root slot → persisted words
//! (in the image), with the live structure contributing nothing but its arena
//! handle. In particular:
//!
//! * **no live-structure pointer** is needed — a reopened pool has no live
//!   structure, only arenas and an image;
//! * **no live-memory reads** happen — keys and values come out of the image, so
//!   the persist-before-publish argument is *checked*, not assumed;
//! * a structure whose root never became durable recovers to the **empty**
//!   structure, which is what makes crash sweeps over the *construction window*
//!   meaningful (the arena header itself is always reachable from offset 0).
//!
//! ## One trait, one walker
//!
//! Every map implements [`RecoverInImage`]: the root key it registers under and
//! one walk, `recover_arena_image(arena, image)`. Crash sweeps, the kill
//! harness, the server and a reopened pool all recover through
//! [`RecoverInImage::recover_arenas`] over a database's arenas, so a simulated
//! crash and a real one run the same code. Each map's inherent
//! `recover(&self, image)` is the convenience for a live structure.
//!
//! Every walk is written against one [`ImageWalk`]: its layout logic plus `?`.
//! The walker checks that each visited node lies inside the arena, turns a
//! missing word into [`Truncated`], and bounds the walk by one budget of
//! `image.len() + 2` visits. On a valid image the budget never trips: every
//! visit consumes a distinct persisted word (a node's link, header or key
//! word, or a hash-table directory word), and the image holds at most `image.len()` of them. On a cyclic image
//! — a broken control's dangling links or a hostile pool file — it trips after
//! O(`image.len()`) visits, whatever the cycle's shape.
//!
//! The walks define each structure's durable abstract state:
//!
//! * **Harris list** — the chain of `next` words from the head sentinel; a node
//!   whose own `next` is marked is logically deleted; the tail is recognised by
//!   its persisted sentinel key.
//! * **hash table** — the persisted directory block, then the union of its
//!   bucket chains, each starting at its directory word and ending at the
//!   table's one recorded tail, all under one walker.
//! * **Natarajan–Mittal BST** — the tree of child-edge words from the root
//!   sentinel; a flagged edge announces the logical deletion of the leaf below it.
//! * **skiplist** — the bottom-level `next` chain (upper levels are index state
//!   and deliberately unrecoverable under the optimised durability methods).
//!
//! A walk that stops early flags [`truncated`](RecoveredMap::truncated) — the
//! signature of a violated persist-before-publish invariant. Since no pointer
//! found in the image is ever dereferenced (every read goes through the image,
//! bounds-checked against the arena), recovery is *safe* code and needs no
//! quiescence or pinning contract.

use std::sync::Arc;

use flit_alloc::{Arena, ImageWalk, Truncated};
use flit_pmem::CrashImage;

/// What map recovery reconstructs from a [`CrashImage`]: the durable key→value
/// pairs, plus a flag for walks that hit un-persisted territory.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveredMap {
    /// The recovered pairs, in structure-walk order (use
    /// [`sorted_pairs`](Self::sorted_pairs) to compare against a model).
    pub pairs: Vec<(u64, u64)>,
    /// `true` when a node was reachable through persisted links but its own
    /// recovery words were missing from the image. For any durability method whose
    /// `STORE` flag is persisted this indicates a durability bug: node
    /// initialisation is persisted before the store that publishes the node.
    pub truncated: bool,
}

impl RecoveredMap {
    /// The recovered pairs sorted by key — the canonical form compared against a
    /// sequential model.
    pub fn sorted_pairs(&self) -> Vec<(u64, u64)> {
        let mut pairs = self.pairs.clone();
        pairs.sort_unstable_by_key(|(k, _)| *k);
        pairs
    }

    /// Fold another partial recovery (e.g. another arena's) into this one.
    pub fn absorb(&mut self, other: RecoveredMap) {
        self.pairs.extend(other.pairs);
        self.truncated |= other.truncated;
    }
}

/// Image-only recovery of a map: rebuild its durable abstract state from an
/// arena and a crash image with *no live structure at all*.
///
/// This is what a process re-opening a file-backed pool needs: after
/// `FlitDb::open` adopts the arenas and hands back the pool's
/// [`CrashImage`] — a view of the mapping, read in place — the dead process's
/// structure is just a root-table entry ([`Self::ROOT_KEY`]) plus persisted
/// words. Crash sweeps recover the same way, so the simulated sweeps and the
/// real-pool reopen path exercise the same code. On a pool the words are
/// whatever the file holds: a walk treats every word it reads as untrusted
/// (see [`ImageWalk`]), so hostile bytes end as
/// [`truncated`](RecoveredMap::truncated), not as a panic or a hang.
pub trait RecoverInImage {
    /// The root-table key (`flit_alloc::roots::*`) this structure registers
    /// its durable entry point under — how a reopening process locates the
    /// structure inside an adopted arena.
    const ROOT_KEY: u64;

    /// Rebuild the durable key→value state from `arena`'s root table and
    /// `image`. An image in which [`Self::ROOT_KEY`] was never durably
    /// registered recovers to the empty map.
    fn recover_arena_image(arena: &Arena, image: &CrashImage) -> RecoveredMap;

    /// [`recover_arena_image`](Self::recover_arena_image) over every arena of
    /// a database (`db.arenas()`), folded into one map: arenas that never
    /// durably registered [`Self::ROOT_KEY`] contribute nothing.
    fn recover_arenas(arenas: &[Arc<Arena>], image: &CrashImage) -> RecoveredMap {
        let mut rec = RecoveredMap::default();
        for arena in arenas {
            rec.absorb(Self::recover_arena_image(arena, image));
        }
        rec
    }
}

/// The shared shell of every map walk: resolve `key`'s root in `image` (an
/// absent root is the empty map) and run `walk_from` from it under one
/// [`ImageWalk`], pushing pairs as it goes.
pub(crate) fn recover_from_root(
    arena: &Arena,
    image: &CrashImage,
    key: u64,
    walk_from: impl FnOnce(&mut ImageWalk<'_>, usize, &mut Vec<(u64, u64)>) -> Result<(), Truncated>,
) -> RecoveredMap {
    let mut rec = RecoveredMap::default();
    let mut walk = ImageWalk::new(arena, image);
    if let Some(root) = walk.root(key) {
        rec.truncated = walk_from(&mut walk, root, &mut rec.pairs).is_err();
    }
    rec
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorted_pairs_orders_by_key() {
        let rec = RecoveredMap {
            pairs: vec![(3, 30), (1, 10), (2, 20)],
            truncated: false,
        };
        assert_eq!(rec.sorted_pairs(), vec![(1, 10), (2, 20), (3, 30)]);
    }

    #[test]
    fn absorb_merges_pairs_and_truncation() {
        let mut a = RecoveredMap {
            pairs: vec![(1, 10)],
            truncated: false,
        };
        a.absorb(RecoveredMap {
            pairs: vec![(2, 20)],
            truncated: true,
        });
        assert_eq!(a.pairs.len(), 2);
        assert!(a.truncated);
    }
}
