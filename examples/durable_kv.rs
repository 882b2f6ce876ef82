//! A small durable key-value store built on the FliT hash table, comparing the cost
//! of the persistence variants on the same workload — the scenario the paper's
//! introduction motivates (persistent indexes that survive power failure without a
//! recovery log).
//!
//! Run with: `cargo run --release --example durable_kv`

use std::time::Instant;

use flit::{presets, FlitDb};
use flit_datastructs::{Automatic, ConcurrentMap, HashTable, NvTraverse};
use flit_pmem::{LatencyModel, SimNvram};

const KEYS: u64 = 8_192;
const OPS: u64 = 200_000;

fn backend() -> SimNvram {
    SimNvram::builder().latency(LatencyModel::optane()).build()
}

/// Run a simple 90% read / 10% update KV workload and report throughput and flushes.
fn run<M: ConcurrentMap<P>, P: flit::Policy>(label: &str, map: M) {
    let h = map.db().handle();
    // Warm the store with half the key space.
    for k in (0..KEYS).step_by(2) {
        map.insert(&h, k, k);
    }
    let before = map.policy().stats_snapshot().unwrap_or_default();
    let start = Instant::now();
    let mut x = 0x12345678u64;
    for i in 0..OPS {
        // xorshift key selection
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let key = x % KEYS;
        if i % 10 == 0 {
            if key % 2 == 0 {
                map.remove(&h, key);
            } else {
                map.insert(&h, key, key);
            }
        } else {
            std::hint::black_box(map.get(&h, key));
        }
    }
    let elapsed = start.elapsed();
    let after = map.policy().stats_snapshot().unwrap_or_default();
    let delta = after.delta_since(&before);
    println!(
        "{label:<18} {:>8.3} Mops/s   {:>6.3} pwbs/op   {:>6.3} pfences/op",
        OPS as f64 / elapsed.as_secs_f64() / 1e6,
        delta.pwbs as f64 / OPS as f64,
        delta.pfences as f64 / OPS as f64,
    );
}

fn main() {
    println!("durable KV store: {KEYS} keys, {OPS} operations, 10% updates\n");
    run(
        "non-persistent",
        HashTable::<_, Automatic>::with_capacity(
            &FlitDb::create(presets::no_persist()),
            KEYS as usize,
        ),
    );
    run(
        "plain",
        HashTable::<_, Automatic>::with_capacity(
            &FlitDb::create(presets::plain(backend())),
            KEYS as usize,
        ),
    );
    run(
        "flit-HT",
        HashTable::<_, Automatic>::with_capacity(&FlitDb::flit_ht(backend()), KEYS as usize),
    );
    run(
        "flit-adjacent",
        HashTable::<_, Automatic>::with_capacity(
            &FlitDb::create(presets::flit_adjacent(backend())),
            KEYS as usize,
        ),
    );
    run(
        "link-and-persist",
        HashTable::<_, Automatic>::with_capacity(
            &FlitDb::create(presets::link_and_persist(backend())),
            KEYS as usize,
        ),
    );
    run(
        "flit-HT+nvtraverse",
        HashTable::<_, NvTraverse>::with_capacity(&FlitDb::flit_ht(backend()), KEYS as usize),
    );
    println!("\nLower pwbs/op is the FliT effect: read-side flushes are skipped unless a");
    println!("concurrent store is still in flight on the same word.");
}
