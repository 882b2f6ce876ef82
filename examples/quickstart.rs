//! Quickstart: make a lock-free map durable with FliT's default (automatic) mode.
//!
//! This mirrors the paper's headline usage story: take a linearizable data structure,
//! declare its words persisted (here: choose a policy and instantiate the structure
//! with it), call `operation_completion` at the end of each operation (the structures
//! do this internally), and you have a durably linearizable structure.
//!
//! Run with: `cargo run --example quickstart`

use flit::FlitDb;
use flit_datastructs::{Automatic, ConcurrentMap, NatarajanTree};
use flit_pmem::SimNvram;

fn main() {
    // The persistent-memory backend: simulated NVRAM with Optane-like latencies
    // (the workspace has no hardware backend; `NullPmem` is the non-persistent one).
    let nvram = SimNvram::default();

    // Open a database: flit-HT (the FliT algorithm with a 1MB hashed flit-counter
    // table) over the backend. The db owns the policy, the reclamation collector
    // and the arenas the structures allocate from.
    let db = FlitDb::flit_ht(nvram.clone());

    // Register a session (handle) for this thread: every operation takes it.
    let h = db.handle();

    // Any of the four data structures works; the BST is the paper's main example.
    // `Automatic` = every load/store is a p-instruction = durably linearizable with
    // zero algorithm-specific reasoning (Theorem 3.1).
    let map: NatarajanTree<_, Automatic> = NatarajanTree::with_capacity(&db, 1024);

    for key in 0..1000u64 {
        map.insert(&h, key, key * 10);
    }
    for key in (0..1000u64).step_by(3) {
        map.remove(&h, key);
    }

    let mut present = 0;
    for key in 0..1000u64 {
        if let Some(value) = map.get(&h, key) {
            assert_eq!(value, key * 10);
            present += 1;
        }
    }

    println!("keys present: {present} (expected {})", 1000 - 334);
    println!("map size:     {}", map.len());

    // The backend counted every persistence instruction the structure executed.
    let stats = nvram.stats().snapshot();
    println!(
        "persistence instructions: {} pwbs, {} pfences ({:.2} pwbs per update)",
        stats.pwbs,
        stats.pfences,
        stats.pwbs as f64 / (1000.0 + 334.0),
    );
    println!(
        "read-side pwbs (flushes a p-load had to perform because a store was in flight): {}",
        stats.read_side_pwbs
    );
}
