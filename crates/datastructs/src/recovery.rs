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
//! * **no live-structure pointer** is needed — each structure exposes an
//!   associated `recover_in_image(arena, image)` beside the trait method;
//! * **no live-memory reads** happen — keys and values come out of the image, so
//!   the persist-before-publish argument is *checked*, not assumed;
//! * a structure whose root never became durable recovers to the **empty**
//!   structure, which is what makes crash sweeps over the *construction window*
//!   meaningful (the arena header itself is always reachable from offset 0).
//!
//! The walks define each structure's durable abstract state:
//!
//! * **Harris list** — the chain of `next` words from the head sentinel; a node
//!   whose own `next` is marked is logically deleted; the tail is recognised by
//!   its persisted sentinel key.
//! * **hash table** — the persisted bucket directory block, then the union of its
//!   bucket chains.
//! * **Natarajan–Mittal BST** — the tree of child-edge words from the root
//!   sentinel; a flagged edge announces the logical deletion of the leaf below it.
//! * **skiplist** — the bottom-level `next` chain (upper levels are index state
//!   and deliberately unrecoverable under the optimised durability methods).
//!
//! A node reachable through persisted links whose own recovery words are absent
//! from the image flags [`truncated`](RecoveredMap::truncated) — the signature of
//! a violated persist-before-publish invariant. Since no pointer found in the
//! image is ever dereferenced (every read goes through the image, bounds-checked
//! against the arena), recovery is *safe* code and needs no quiescence or pinning
//! contract.

use flit::Policy;
use flit_pmem::CrashImage;

use crate::harris_list::HarrisList;
use crate::hash_table::HashTable;
use crate::natarajan::NatarajanTree;
use crate::skiplist::SkipList;
use crate::Durability;

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

    /// Fold another partial recovery (e.g. one hash bucket) into this one.
    pub fn absorb(&mut self, other: RecoveredMap) {
        self.pairs.extend(other.pairs);
        self.truncated |= other.truncated;
    }
}

/// Uniform crash-recovery interface over the four map structures, used by the
/// `flit-crashtest` sweep engine. Recovery is image-only and safe: see the module
/// docs.
pub trait MapCrashRecovery<P: Policy> {
    /// Rebuild the durable abstract state from `image`, reading only the image and
    /// the structure's arena root table (never live memory).
    fn recover_from_image(&self, image: &CrashImage) -> RecoveredMap;
}

/// **Static** image-only recovery: rebuild a structure's durable abstract
/// state from an arena and a crash image with *no live structure at all*.
///
/// This is what a process re-opening a file-backed pool needs: after
/// `FlitDb::open` adopts the arenas and hands back the pool's
/// [`CrashImage`] — a view of the mapping, read in place — there is no live
/// `HashTable` to call [`MapCrashRecovery::recover_from_image`] on — the dead
/// process's structure is just a root-table entry ([`Self::ROOT_KEY`]) plus
/// persisted words. Each implementation delegates to the structure's inherent
/// `recover_in_image(arena, image)` walk, so the simulated sweeps and the
/// real-pool reopen path exercise the same code. On a pool the words are
/// whatever the file holds: a walk treats every word it reads as untrusted
/// (offsets are checked against the arena, pointers against its chunks) and a
/// read outside the arenas is `None`, so hostile bytes end as
/// [`truncated`](RecoveredMap::truncated), not as a panic.
pub trait RecoverInImage {
    /// The root-table key (`flit_alloc::roots::*`) this structure registers
    /// its durable entry point under — how a reopening process locates the
    /// structure inside an adopted arena.
    const ROOT_KEY: u64;

    /// Rebuild the durable key→value state from `arena`'s root table and
    /// `image`. An image in which [`Self::ROOT_KEY`] was never durably
    /// registered recovers to the empty map.
    fn recover_arena_image(arena: &flit_alloc::Arena, image: &CrashImage) -> RecoveredMap;
}

impl<P: Policy, D: Durability> RecoverInImage for HarrisList<P, D> {
    const ROOT_KEY: u64 = flit_alloc::roots::LIST_HEAD;

    fn recover_arena_image(arena: &flit_alloc::Arena, image: &CrashImage) -> RecoveredMap {
        Self::recover_in_image(arena, image)
    }
}

impl<P: Policy, D: Durability> RecoverInImage for HashTable<P, D> {
    const ROOT_KEY: u64 = flit_alloc::roots::HASH_DIRECTORY;

    fn recover_arena_image(arena: &flit_alloc::Arena, image: &CrashImage) -> RecoveredMap {
        Self::recover_in_image(arena, image)
    }
}

impl<P: Policy, D: Durability> RecoverInImage for NatarajanTree<P, D> {
    const ROOT_KEY: u64 = flit_alloc::roots::BST_ROOT;

    fn recover_arena_image(arena: &flit_alloc::Arena, image: &CrashImage) -> RecoveredMap {
        Self::recover_in_image(arena, image)
    }
}

impl<P: Policy, D: Durability> RecoverInImage for SkipList<P, D> {
    const ROOT_KEY: u64 = flit_alloc::roots::SKIPLIST_HEAD;

    fn recover_arena_image(arena: &flit_alloc::Arena, image: &CrashImage) -> RecoveredMap {
        Self::recover_in_image(arena, image)
    }
}

impl<P: Policy, D: Durability> MapCrashRecovery<P> for HarrisList<P, D> {
    fn recover_from_image(&self, image: &CrashImage) -> RecoveredMap {
        self.recover(image)
    }
}

impl<P: Policy, D: Durability> MapCrashRecovery<P> for HashTable<P, D> {
    fn recover_from_image(&self, image: &CrashImage) -> RecoveredMap {
        self.recover(image)
    }
}

impl<P: Policy, D: Durability> MapCrashRecovery<P> for NatarajanTree<P, D> {
    fn recover_from_image(&self, image: &CrashImage) -> RecoveredMap {
        self.recover(image)
    }
}

impl<P: Policy, D: Durability> MapCrashRecovery<P> for SkipList<P, D> {
    fn recover_from_image(&self, image: &CrashImage) -> RecoveredMap {
        self.recover(image)
    }
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
