//! The experiment dispatcher: every (data structure × durability method × policy)
//! combination of the evaluation, addressable by value so the `repro` ledger and
//! the examples can enumerate them.
//!
//! Each call to [`run_case`] builds a fresh structure, prefills it, runs the
//! configured workload and returns the counted [`RunResult`]. The counting
//! backend ([`SimNvram::for_counting`]: no latency, elision on) is created per
//! policy, so cases never share counters. [`PolicyKind::visit`] is the one table
//! from a policy kind to its `presets::*` constructor; maps, queues and the
//! ledger's request path all resolve their policy through it.

use flit::{presets, FlitDb, Policy};
use flit_datastructs::{
    Automatic, ConcurrentMap, HarrisList, HashTable, Manual, NatarajanTree, NvTraverse, SkipList,
};
use flit_hamt::Hamt;
use flit_pmem::{CommitMode, SimNvram};
use flit_queues::{ConcurrentQueue, MsQueue};

use crate::queue_runner::{run_queue_workload, QueueRunResult, QueueWorkloadConfig};
use crate::runner::{prefill, run_workload, RunResult, WorkloadConfig};

/// Which data structure to benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DsKind {
    /// Harris linked list.
    List,
    /// Hash table with Harris-list buckets.
    HashTable,
    /// Natarajan–Mittal external BST.
    Bst,
    /// Lock-free skiplist.
    SkipList,
    /// The copy-on-write HAMT (`flit-hamt`).
    Hamt,
}

impl DsKind {
    /// The four in-place structures in the order of the paper's Figure 7, then
    /// the copy-on-write HAMT.
    pub const ALL: [DsKind; 5] = [
        DsKind::Bst,
        DsKind::HashTable,
        DsKind::List,
        DsKind::SkipList,
        DsKind::Hamt,
    ];

    /// Display name matching the paper's plot captions.
    pub fn name(self) -> &'static str {
        match self {
            DsKind::List => "list",
            DsKind::HashTable => "hashtable",
            DsKind::Bst => "bst",
            DsKind::SkipList => "skiplist",
            DsKind::Hamt => "hamt",
        }
    }

    /// The durability methods that apply. The HAMT brings its own discipline
    /// (persist the new path bottom-up, publish with one p-CAS on the root), so
    /// it has no method axis and runs once, under [`DurKind::Automatic`].
    pub fn methods(self) -> &'static [DurKind] {
        match self {
            DsKind::Hamt => &[DurKind::Automatic],
            _ => &DurKind::ALL,
        }
    }
}

/// Which durability method to apply (paper §6.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DurKind {
    /// Every instruction is a p-instruction.
    Automatic,
    /// NVTraverse: volatile traversal + persisted transition/critical phase.
    NvTraverse,
    /// Hand-tuned placement.
    Manual,
}

impl DurKind {
    /// All three methods.
    pub const ALL: [DurKind; 3] = [DurKind::Automatic, DurKind::NvTraverse, DurKind::Manual];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            DurKind::Automatic => "automatic",
            DurKind::NvTraverse => "nvtraverse",
            DurKind::Manual => "manual",
        }
    }
}

/// Which implementation of the P-V Interface to use (paper §6's compared variants).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// Durable transformation without read-side flush elision.
    Plain,
    /// FliT with the counter adjacent to every word.
    FlitAdjacent,
    /// FliT with a hashed counter table of the given size in bytes.
    FlitHt(usize),
    /// FliT with one counter per cache line (paper §8 future work).
    FlitCacheLine,
    /// The link-and-persist comparator (not applicable to the BST).
    LinkAndPersist,
}

/// A computation generic over the policy type, run by [`PolicyKind::visit`].
pub trait PolicyVisitor {
    /// What the computation returns.
    type Output;
    /// Run with `make`, which builds a fresh policy on a fresh backend per call.
    fn visit<P: Policy>(self, make: impl Fn() -> P) -> Self::Output;
}

impl PolicyKind {
    /// Display name matching the paper's legends.
    pub fn name(self) -> String {
        match self {
            PolicyKind::Plain => "plain".into(),
            PolicyKind::FlitAdjacent => "flit-adjacent".into(),
            PolicyKind::FlitHt(bytes) => format!("flit-HT ({})", flit::human_bytes(bytes)),
            PolicyKind::FlitCacheLine => "flit-cacheline".into(),
            PolicyKind::LinkAndPersist => "link-and-persist".into(),
        }
    }

    /// Whether this variant can be applied to the given structure (the paper cannot
    /// apply link-and-persist to the Natarajan–Mittal BST because it uses both low
    /// pointer bits and non-CAS updates).
    pub fn applicable_to(self, ds: DsKind) -> bool {
        !(self == PolicyKind::LinkAndPersist && ds == DsKind::Bst)
    }

    /// Resolve this kind to its `presets::*` constructor over the counting
    /// backend ([`SimNvram::for_counting`]) and run `v` with it.
    pub fn visit<V: PolicyVisitor>(self, v: V) -> V::Output {
        let backend = SimNvram::for_counting;
        match self {
            PolicyKind::Plain => v.visit(|| presets::plain(backend())),
            PolicyKind::FlitAdjacent => v.visit(|| presets::flit_adjacent(backend())),
            PolicyKind::FlitHt(bytes) => v.visit(|| presets::flit_ht_sized(backend(), bytes)),
            PolicyKind::FlitCacheLine => v.visit(|| presets::flit_cacheline(backend())),
            PolicyKind::LinkAndPersist => v.visit(|| presets::link_and_persist(backend())),
        }
    }
}

/// One fully specified experiment case.
#[derive(Debug, Clone)]
pub struct Case {
    /// Data structure under test.
    pub ds: DsKind,
    /// Durability method (see [`DsKind::methods`]).
    pub dur: DurKind,
    /// Persistence policy variant.
    pub policy: PolicyKind,
    /// Workload parameters.
    pub config: WorkloadConfig,
    /// Durability commit mode of the database ([`CommitMode::Batched`] amortises
    /// trailing fences across operations; the default is per-op durability).
    pub commit: CommitMode,
}

impl Case {
    /// The durability column: the method's name, or `cow` for the HAMT, whose
    /// discipline is the structure's own.
    pub fn durability(&self) -> &'static str {
        match self.ds {
            DsKind::Hamt => "cow",
            _ => self.dur.name(),
        }
    }
}

fn run_map<P, M>(db: &FlitDb<P>, case: &Case) -> RunResult
where
    P: Policy,
    M: ConcurrentMap<P>,
{
    let map = M::with_capacity(db, case.config.key_range as usize);
    prefill(&map, &case.config);
    run_workload(&map, &case.config)
}

fn run_with_policy<P: Policy>(policy: P, case: &Case) -> RunResult {
    let db = &FlitDb::builder(policy).commit_mode(case.commit).build();
    match (case.ds, case.dur) {
        (DsKind::List, DurKind::Automatic) => run_map::<P, HarrisList<P, Automatic>>(db, case),
        (DsKind::List, DurKind::NvTraverse) => run_map::<P, HarrisList<P, NvTraverse>>(db, case),
        (DsKind::List, DurKind::Manual) => run_map::<P, HarrisList<P, Manual>>(db, case),
        (DsKind::HashTable, DurKind::Automatic) => run_map::<P, HashTable<P, Automatic>>(db, case),
        (DsKind::HashTable, DurKind::NvTraverse) => {
            run_map::<P, HashTable<P, NvTraverse>>(db, case)
        }
        (DsKind::HashTable, DurKind::Manual) => run_map::<P, HashTable<P, Manual>>(db, case),
        (DsKind::Bst, DurKind::Automatic) => run_map::<P, NatarajanTree<P, Automatic>>(db, case),
        (DsKind::Bst, DurKind::NvTraverse) => run_map::<P, NatarajanTree<P, NvTraverse>>(db, case),
        (DsKind::Bst, DurKind::Manual) => run_map::<P, NatarajanTree<P, Manual>>(db, case),
        (DsKind::SkipList, DurKind::Automatic) => run_map::<P, SkipList<P, Automatic>>(db, case),
        (DsKind::SkipList, DurKind::NvTraverse) => run_map::<P, SkipList<P, NvTraverse>>(db, case),
        (DsKind::SkipList, DurKind::Manual) => run_map::<P, SkipList<P, Manual>>(db, case),
        (DsKind::Hamt, _) => run_map::<P, Hamt<P>>(db, case),
    }
}

/// [`run_with_policy`] with the policy type picked by [`PolicyKind::visit`].
struct MapRun<'a> {
    case: &'a Case,
}

impl PolicyVisitor for MapRun<'_> {
    type Output = RunResult;

    fn visit<P: Policy>(self, make: impl Fn() -> P) -> RunResult {
        run_with_policy(make(), self.case)
    }
}

/// Build the structure described by `case`, prefill it, run the workload and return
/// its counts.
///
/// # Panics
/// Panics when the case combines link-and-persist with the BST (the combination the
/// paper also excludes); use [`PolicyKind::applicable_to`] to filter.
pub fn run_case(case: &Case) -> RunResult {
    assert!(
        case.policy.applicable_to(case.ds),
        "{} cannot be applied to {}",
        case.policy.name(),
        case.ds.name()
    );
    case.policy.visit(MapRun { case })
}

/// One fully specified queue experiment case.
///
/// The queue analogue of [`Case`]: the paper's P-V interface applies to any
/// linearizable structure, so the same policy variants are swept; the durability
/// methods exercised by the harness are `Automatic` and `Manual` (see
/// [`QUEUE_DURS`]), matching how hand-tuned durable queues place their persistence
/// in the literature.
#[derive(Debug, Clone)]
pub struct QueueCase {
    /// Durability method.
    pub dur: DurKind,
    /// Persistence policy variant.
    pub policy: PolicyKind,
    /// Workload parameters.
    pub config: QueueWorkloadConfig,
    /// Durability commit mode of the database.
    pub commit: CommitMode,
}

/// The durability methods the queue harness sweeps. (NVTraverse instantiates too,
/// but the Michael–Scott queue has no traversal phase for it to optimise, so the
/// experiments report the two ends of the spectrum.)
pub const QUEUE_DURS: [DurKind; 2] = [DurKind::Automatic, DurKind::Manual];

fn run_queue<P, Q>(db: &FlitDb<P>, case: &QueueCase) -> QueueRunResult
where
    P: Policy,
    Q: ConcurrentQueue<P>,
{
    run_queue_workload(&Q::in_db(db), &case.config)
}

fn run_queue_with_policy<P: Policy>(policy: P, case: &QueueCase) -> QueueRunResult {
    let db = &FlitDb::builder(policy).commit_mode(case.commit).build();
    match case.dur {
        DurKind::Automatic => run_queue::<P, MsQueue<P, Automatic>>(db, case),
        DurKind::NvTraverse => run_queue::<P, MsQueue<P, NvTraverse>>(db, case),
        DurKind::Manual => run_queue::<P, MsQueue<P, Manual>>(db, case),
    }
}

/// [`run_queue_with_policy`] with the policy type picked by [`PolicyKind::visit`].
struct QueueRun<'a>(&'a QueueCase);

impl PolicyVisitor for QueueRun<'_> {
    type Output = QueueRunResult;

    fn visit<P: Policy>(self, make: impl Fn() -> P) -> QueueRunResult {
        run_queue_with_policy(make(), self.0)
    }
}

/// Build the queue described by `case`, run the workload and return its counts. Every policy variant applies to the queue (its updates are plain
/// CAS on word-aligned pointers, so even link-and-persist is usable).
pub fn run_queue_case(case: &QueueCase) -> QueueRunResult {
    case.policy.visit(QueueRun(case))
}

#[cfg(test)]
mod tests {
    use super::*;

    const EVERY_POLICY: [PolicyKind; 5] = [
        PolicyKind::Plain,
        PolicyKind::FlitAdjacent,
        PolicyKind::FlitHt(1 << 16),
        PolicyKind::FlitCacheLine,
        PolicyKind::LinkAndPersist,
    ];

    #[test]
    fn every_combination_runs() {
        for ds in DsKind::ALL {
            for &dur in ds.methods() {
                for policy in EVERY_POLICY {
                    if !policy.applicable_to(ds) {
                        continue;
                    }
                    let case = Case {
                        ds,
                        dur,
                        policy,
                        config: WorkloadConfig::new(128, 20, 400),
                        commit: CommitMode::Immediate,
                    };
                    let result = run_case(&case);
                    assert_eq!(result.ops, 400, "{case:?}");
                    assert!(result.pmem.pfences > 0, "{case:?}");
                }
            }
        }
    }

    #[test]
    fn every_queue_combination_runs() {
        for dur in DurKind::ALL {
            for policy in EVERY_POLICY {
                let case = QueueCase {
                    dur,
                    policy,
                    config: QueueWorkloadConfig::new(50, 400),
                    commit: CommitMode::Immediate,
                };
                let result = run_queue_case(&case);
                assert_eq!(
                    result.enqueues + result.dequeues_hit + result.dequeues_empty,
                    400,
                    "{case:?}"
                );
                assert!(result.pmem.pwbs > 0, "{case:?}");
            }
        }
    }

    #[test]
    fn names_and_applicability() {
        assert!(!PolicyKind::LinkAndPersist.applicable_to(DsKind::Bst));
        assert!(PolicyKind::LinkAndPersist.applicable_to(DsKind::List));
        assert_eq!(PolicyKind::FlitHt(1 << 20).name(), "flit-HT (1MB)");
        assert_eq!(PolicyKind::FlitHt(64 << 10).name(), "flit-HT (64KB)");
        let case = |ds| Case {
            ds,
            dur: DurKind::Manual,
            policy: PolicyKind::Plain,
            config: WorkloadConfig::new(128, 20, 400),
            commit: CommitMode::Immediate,
        };
        assert_eq!(case(DsKind::List).durability(), "manual");
        assert_eq!(case(DsKind::Hamt).durability(), "cow");
        assert_eq!(QUEUE_DURS.len(), 2);
    }
}
