//! # `flit-datastructs` — the lock-free data structures of the FliT evaluation
//!
//! The FliT paper evaluates its library on four lock-free set/map data structures,
//! each made durable in three different ways. This crate implements all of them from
//! scratch, generic over two type parameters:
//!
//! * `P:` [`flit::Policy`] — *how* p-instructions are implemented (plain,
//!   flit-adjacent, flit-HT, flit-cacheline, link-and-persist, or the non-persistent
//!   baseline);
//! * `D:` [`Durability`] — *which* instructions are p-instructions (automatic,
//!   NVTraverse, or manual).
//!
//! | structure | module | paper reference |
//! |---|---|---|
//! | Harris linked list | [`harris_list`] | Harris, DISC'01 |
//! | hash table (Harris-list buckets) | [`hash_table`] | David et al., ATC'18 setup |
//! | Natarajan–Mittal external BST | [`natarajan`] | Natarajan & Mittal, PPoPP'14 |
//! | lock-free skiplist | [`skiplist`] | Fraser'03 / Herlihy–Shavit |
//!
//! All four expose the common [`ConcurrentMap`] interface used by the workload
//! generator and the benchmark harness; [`SequentialMap`] is the reference model used
//! by the property-based tests.
//!
//! ## The explicit-handle API
//!
//! Structures are constructed in a [`FlitDb`](flit::FlitDb) (which owns the
//! policy, the EBR collector and the arena registry), and **every operation takes
//! the calling thread's [`FlitHandle`](flit::FlitHandle)**:
//!
//! ```
//! use flit::FlitDb;
//! use flit_datastructs::{Automatic, ConcurrentMap, HashTable};
//! use flit_pmem::SimNvram;
//!
//! let db = FlitDb::flit_ht(SimNvram::default());
//! let map: HashTable<_, Automatic> = HashTable::new(&db, 1024);
//! let h = db.handle();
//! assert!(map.insert(&h, 7, 70));
//! assert_eq!(map.get(&h, 7), Some(70));
//! ```
//!
//! The handle owns the persist-epoch state (fence/flush elision) and the EBR
//! participant; nothing in the operation path is keyed to the OS thread, which is
//! what lets `flit-crashtest` step several handles deterministically on one
//! thread.
//!
//! ## Allocation and recovery
//!
//! Every structure allocates its nodes from a per-structure
//! [`Arena`](flit_alloc::Arena): fixed-size, cache-line-aligned slots whose *every* word
//! (links and the immutable key/value contents alike) is recorded with the
//! backend before the node is persisted and published, and whose durable entry
//! point is registered in the arena's recovery-root table. Recovery
//! ([`RecoverInImage`], module [`recovery`]) is therefore **image-only**: it
//! rebuilds the durable abstract state from an adversarial
//! [`CrashImage`](flit_pmem::CrashImage) plus the root table, with no pointer
//! into the live structure and no live-memory reads — so it works for crashes at
//! *any* point, including mid-construction (an absent root recovers to the empty
//! structure), and it is safe code (nothing from the image is ever dereferenced).
//! This is the interface the `flit-crashtest` crash-point sweep engine drives.
//!
//! Every operation ends with
//! [`FlitHandle::operation_completion`](flit::FlitHandle::operation_completion),
//! which is *epoch-aware*: a read-only operation over untagged words leaves its
//! handle clean, so the completion fence (and with it the entire persistence cost
//! of the operation) is elided — per handle, not per OS thread.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod durability;
pub mod harris_list;
pub mod hash_table;
pub mod map;
pub mod marked;
pub mod natarajan;
pub mod recovery;
pub mod skiplist;

pub use durability::{Automatic, Durability, Manual, NvTraverse};
pub use harris_list::HarrisList;
pub use hash_table::HashTable;
pub use map::{ConcurrentMap, SequentialMap, MAX_USER_KEY};
pub use natarajan::NatarajanTree;
pub use recovery::{RecoverInImage, RecoveredMap};
pub use skiplist::SkipList;

#[cfg(test)]
mod proptests {
    //! Property-based tests: every structure, under every durability method, agrees
    //! with a sequential model on arbitrary operation sequences.

    use super::*;
    use flit::{FlitDb, FlitPolicy, HashedScheme};
    use flit_pmem::{LatencyModel, SimNvram};
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum Op {
        Insert(u64, u64),
        Remove(u64),
        Get(u64),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        // A small key universe maximises collisions between inserts and removes.
        let key = 0u64..32;
        prop_oneof![
            (key.clone(), 0u64..1000).prop_map(|(k, v)| Op::Insert(k, v)),
            key.clone().prop_map(Op::Remove),
            key.prop_map(Op::Get),
        ]
    }

    fn backend() -> SimNvram {
        SimNvram::builder().latency(LatencyModel::none()).build()
    }

    fn check_against_model<M>(ops: &[Op])
    where
        M: ConcurrentMap<FlitPolicy<HashedScheme, SimNvram>>,
    {
        let db = FlitDb::flit_ht(backend());
        let map = M::with_capacity(&db, 64);
        let h = db.handle();
        let model = SequentialMap::new();
        for op in ops {
            match *op {
                Op::Insert(k, v) => {
                    assert_eq!(map.insert(&h, k, v), model.insert(k, v), "insert {k}")
                }
                Op::Remove(k) => assert_eq!(map.remove(&h, k), model.remove(k), "remove {k}"),
                Op::Get(k) => assert_eq!(map.get(&h, k), model.get(k), "get {k}"),
            }
        }
        assert_eq!(map.len(), model.len());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn list_matches_model(ops in proptest::collection::vec(op_strategy(), 1..200)) {
            check_against_model::<HarrisList<_, Automatic>>(&ops);
            check_against_model::<HarrisList<_, NvTraverse>>(&ops);
            check_against_model::<HarrisList<_, Manual>>(&ops);
        }

        #[test]
        fn hash_table_matches_model(ops in proptest::collection::vec(op_strategy(), 1..200)) {
            check_against_model::<HashTable<_, Automatic>>(&ops);
            check_against_model::<HashTable<_, NvTraverse>>(&ops);
        }

        #[test]
        fn bst_matches_model(ops in proptest::collection::vec(op_strategy(), 1..200)) {
            check_against_model::<NatarajanTree<_, Automatic>>(&ops);
            check_against_model::<NatarajanTree<_, NvTraverse>>(&ops);
            check_against_model::<NatarajanTree<_, Manual>>(&ops);
        }

        #[test]
        fn skiplist_matches_model(ops in proptest::collection::vec(op_strategy(), 1..200)) {
            check_against_model::<SkipList<_, Automatic>>(&ops);
            check_against_model::<SkipList<_, Manual>>(&ops);
        }
    }
}
