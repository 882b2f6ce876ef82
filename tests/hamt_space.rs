//! The HAMT's space at known key counts (`flit-hamt` × `flit-alloc`): keys
//! `0..n` inserted on one handle, then the nodes reachable from the root
//! (interior nodes plus buckets) and the arena's high-water mark, pinned
//! exactly. Up to eight keys share a bucket slot, so a bottom subtree is one
//! slot rather than one slot per key plus a parent.

use flit::FlitDb;
use flit_datastructs::ConcurrentMap;
use flit_hamt::HamtExt;
use flit_pmem::{LatencyModel, SimNvram};

/// `(interior nodes, buckets)` under the entry `enc`, read from live memory
/// with the entry encoding: bit 0 tags an interior node, whose bitmap is bits
/// 47–62 and whose children are packed words at bits 3–46; an untagged entry
/// names a bucket.
fn reachable(enc: u64) -> (usize, usize) {
    if enc == 0 {
        return (0, 0);
    }
    if enc & 1 == 0 {
        return (0, 1);
    }
    let addr = (enc & ((1 << 47) - 1) & !1) as *const u64;
    let children = ((enc >> 47) & 0xFFFF).count_ones() as usize;
    (0..children).fold((1, 0), |(i, b), c| {
        // SAFETY: a published node of a live trie, read on the only thread.
        let (ci, cb) = reachable(unsafe { addr.add(c).read() });
        (i + ci, b + cb)
    })
}

/// `((interior nodes, buckets), arena high-water slots)` after inserting keys
/// `0..n` into an empty trie.
fn space(n: u64) -> ((usize, usize), usize) {
    let db = FlitDb::flit_ht(SimNvram::builder().latency(LatencyModel::none()).build());
    let map = db.hamt(n as usize);
    let h = db.handle();
    for k in 0..n {
        assert!(map.insert(&h, k, k + 1));
    }
    assert!((0..n).all(|k| map.get(&h, k) == Some(k + 1)));
    // SAFETY: the root word is bare at the root cell under flit-HT.
    let root = unsafe { (map.root_cell_addr() as *const u64).read() };
    (reachable(root), map.arena().high_water())
}

#[test]
fn ten_thousand_keys_fill_4_067_node_slots() {
    assert_eq!(space(10_000), ((278, 3_789), 4_326));
}

#[test]
fn a_hundred_thousand_keys_fill_55_689_node_slots() {
    assert_eq!(space(100_000), ((4_372, 51_317), 56_008));
}
