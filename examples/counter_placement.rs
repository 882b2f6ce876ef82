//! Counter-placement study in miniature (the paper's Figure 5 / §5.1 discussion).
//!
//! Sweeps the flit-HT table size on the write-heavy end of the ledger's Figure 5
//! rows (the automatic linked list, 128 keys, 50 % updates) and also shows
//! flit-adjacent, the cache-line-granularity placement (the paper's suggested
//! future work) and plain. Each row is measured the way the ledger measures
//! its own (`flit_bench::LedgerRow::measure`), on one handle under
//! `Batched(8)`: a batch leaves its stores tagged until the handle's next
//! fence, so a small table's shared counters make later p-loads meet tags they
//! did not cause and flush.
//! Under `Immediate` every table size prints the same counts.
//!
//! Run with: `cargo run --release --example counter_placement`

use flit_bench::LedgerRow;
use flit_pmem::CommitMode;
use flit_workload::{MethodKind, PolicyKind, StructureKind, Subject};

fn main() {
    println!("automatic list, 128 keys, 50% updates, one handle, batched-8\n");
    println!(
        "{:<22} {:>18} {:>12}",
        "placement", "read-side pwbs/op", "pfences/op"
    );
    let tables = [64, 4 << 10, 64 << 10, 1 << 20, 16 << 20].map(|b| (PolicyKind::FlitHt, b));
    let others = [
        PolicyKind::FlitAdjacent,
        PolicyKind::FlitCacheLine,
        PolicyKind::Plain,
    ]
    .map(|p| (p, 0));
    for (policy, table_bytes) in tables.into_iter().chain(others) {
        let subject = Subject::new(StructureKind::List, MethodKind::Automatic, policy);
        let r = LedgerRow::measure(subject, table_bytes, CommitMode::Batched(8), 128, 50, 4_000)
            .expect("every policy applies to the list");
        println!(
            "{:<22} {:>18.4} {:>12.4}",
            r.policy_label(),
            r.read_side_pwbs as f64 / r.ops as f64,
            r.pfences as f64 / r.ops as f64
        );
    }
    println!("\nThe counters are interchangeable: correctness never depends on the placement,");
    println!("only the number of spurious read-side flushes and extra cache traffic does.");
}
