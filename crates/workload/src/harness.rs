//! The experiment dispatcher: every (data structure × durability method × policy)
//! combination of the paper's evaluation, addressable by value so the `repro` binary
//! and the Criterion benches can enumerate them.
//!
//! Each call to [`run_case`] builds a fresh structure, prefills it, runs the
//! configured workload and returns the measured [`RunResult`]. The simulated-NVRAM
//! backend (and therefore the latency model and statistics) is created per case, so
//! cases never share counters.

use flit::{presets, FlitDb, Policy};
use flit_datastructs::{
    Automatic, ConcurrentMap, HarrisList, HashTable, Manual, NatarajanTree, NvTraverse, SkipList,
};
use flit_pmem::{CommitMode, ElisionMode, LatencyModel, SimNvram};
use flit_queues::{ConcurrentQueue, MsQueue};

use crate::config::WorkloadConfig;
use crate::queue_config::QueueWorkloadConfig;
use crate::queue_runner::{prefill_queue, run_queue_workload_observed, QueueRunResult};
use crate::runner::{prefill, run_workload_observed, LatencyObserver, RunResult};

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
}

impl DsKind {
    /// All four structures, in the order of the paper's Figure 7.
    pub const ALL: [DsKind; 4] = [
        DsKind::Bst,
        DsKind::HashTable,
        DsKind::List,
        DsKind::SkipList,
    ];

    /// Display name matching the paper's plot captions.
    pub fn name(self) -> &'static str {
        match self {
            DsKind::List => "list",
            DsKind::HashTable => "hashtable",
            DsKind::Bst => "bst",
            DsKind::SkipList => "skiplist",
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
    /// Non-persistent baseline (grey dotted line).
    NoPersist,
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

impl PolicyKind {
    /// The variants shown in Figure 7 for a given structure (link-and-persist is shown
    /// only where applicable).
    pub fn figure7_set(ds: DsKind) -> Vec<PolicyKind> {
        let mut v = vec![
            PolicyKind::Plain,
            PolicyKind::FlitAdjacent,
            PolicyKind::FlitHt(1 << 20),
        ];
        if ds != DsKind::Bst {
            v.push(PolicyKind::LinkAndPersist);
        }
        v
    }

    /// Display name matching the paper's legends.
    pub fn name(self) -> String {
        match self {
            PolicyKind::NoPersist => "non-persistent".into(),
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
}

/// One fully specified experiment case.
#[derive(Debug, Clone)]
pub struct Case {
    /// Data structure under test.
    pub ds: DsKind,
    /// Durability method.
    pub dur: DurKind,
    /// Persistence policy variant.
    pub policy: PolicyKind,
    /// Workload parameters.
    pub config: WorkloadConfig,
    /// Latency model for the simulated NVRAM.
    pub latency: LatencyModel,
    /// Persist-epoch elision mode of the simulated NVRAM
    /// ([`ElisionMode::Disabled`] measures the paper-literal instruction stream).
    pub elision: ElisionMode,
    /// Durability commit mode of the database ([`CommitMode::Batched`] amortises
    /// trailing fences across operations; the default is per-op durability).
    pub commit: CommitMode,
}

impl Case {
    /// Human-readable label, e.g. `bst/automatic/flit-HT (1MB)`. Batched commit
    /// modes append their name (`…/batched-8`); the immediate default keeps the
    /// historical three-part label.
    pub fn label(&self) -> String {
        let base = format!(
            "{}/{}/{}",
            self.ds.name(),
            self.dur.name(),
            self.policy.name()
        );
        if self.commit.is_batched() {
            format!("{}/{}", base, self.commit.name())
        } else {
            base
        }
    }
}

fn run_map<P, M>(db: &FlitDb<P>, case: &Case, observe: Option<&LatencyObserver<'_>>) -> RunResult
where
    P: Policy,
    M: ConcurrentMap<P>,
{
    let map = M::with_capacity(db, case.config.key_range as usize);
    prefill(&map, &case.config);
    run_workload_observed(&map, &case.config, observe)
}

fn run_with_policy<P: Policy>(
    policy: P,
    case: &Case,
    observe: Option<&LatencyObserver<'_>>,
) -> RunResult {
    let db = &FlitDb::builder(policy).commit_mode(case.commit).build();
    match (case.ds, case.dur) {
        (DsKind::List, DurKind::Automatic) => {
            run_map::<P, HarrisList<P, Automatic>>(db, case, observe)
        }
        (DsKind::List, DurKind::NvTraverse) => {
            run_map::<P, HarrisList<P, NvTraverse>>(db, case, observe)
        }
        (DsKind::List, DurKind::Manual) => run_map::<P, HarrisList<P, Manual>>(db, case, observe),
        (DsKind::HashTable, DurKind::Automatic) => {
            run_map::<P, HashTable<P, Automatic>>(db, case, observe)
        }
        (DsKind::HashTable, DurKind::NvTraverse) => {
            run_map::<P, HashTable<P, NvTraverse>>(db, case, observe)
        }
        (DsKind::HashTable, DurKind::Manual) => {
            run_map::<P, HashTable<P, Manual>>(db, case, observe)
        }
        (DsKind::Bst, DurKind::Automatic) => {
            run_map::<P, NatarajanTree<P, Automatic>>(db, case, observe)
        }
        (DsKind::Bst, DurKind::NvTraverse) => {
            run_map::<P, NatarajanTree<P, NvTraverse>>(db, case, observe)
        }
        (DsKind::Bst, DurKind::Manual) => run_map::<P, NatarajanTree<P, Manual>>(db, case, observe),
        (DsKind::SkipList, DurKind::Automatic) => {
            run_map::<P, SkipList<P, Automatic>>(db, case, observe)
        }
        (DsKind::SkipList, DurKind::NvTraverse) => {
            run_map::<P, SkipList<P, NvTraverse>>(db, case, observe)
        }
        (DsKind::SkipList, DurKind::Manual) => run_map::<P, SkipList<P, Manual>>(db, case, observe),
    }
}

/// Build the structure described by `case`, prefill it, run the workload and return
/// the measurement.
///
/// # Panics
/// Panics when the case combines link-and-persist with the BST (the combination the
/// paper also excludes); use [`PolicyKind::applicable_to`] to filter.
pub fn run_case(case: &Case) -> RunResult {
    run_case_observed(case, None)
}

/// [`run_case`] with an optional per-operation [`LatencyObserver`], so the
/// benchmark harness can collect latency distributions alongside throughput.
pub fn run_case_observed(case: &Case, observe: Option<&LatencyObserver<'_>>) -> RunResult {
    assert!(
        case.policy.applicable_to(case.ds),
        "{} cannot be applied to {}",
        case.policy.name(),
        case.ds.name()
    );
    let backend = || {
        SimNvram::builder()
            .latency(case.latency)
            .elision(case.elision)
            .build()
    };
    match case.policy {
        PolicyKind::NoPersist => run_with_policy(presets::no_persist(), case, observe),
        PolicyKind::Plain => run_with_policy(presets::plain(backend()), case, observe),
        PolicyKind::FlitAdjacent => {
            run_with_policy(presets::flit_adjacent(backend()), case, observe)
        }
        PolicyKind::FlitHt(bytes) => {
            run_with_policy(presets::flit_ht_sized(backend(), bytes), case, observe)
        }
        PolicyKind::FlitCacheLine => {
            run_with_policy(presets::flit_cacheline(backend()), case, observe)
        }
        PolicyKind::LinkAndPersist => {
            run_with_policy(presets::link_and_persist(backend()), case, observe)
        }
    }
}

/// One fully specified experiment case for the copy-on-write HAMT
/// (`flit-hamt`).
///
/// The HAMT brings its own durability discipline — persist the new path
/// bottom-up, publish with one flushed CAS (the MOD recipe) — so there is no
/// durability-method axis to sweep: the structure *is* its method. The policy
/// axis still applies (the P-V interface underneath is interchangeable), which
/// is exactly what makes the flat-fence-cost comparison against the in-place
/// structures meaningful.
#[derive(Debug, Clone)]
pub struct HamtCase {
    /// Persistence policy variant.
    pub policy: PolicyKind,
    /// Workload parameters.
    pub config: WorkloadConfig,
    /// Latency model for the simulated NVRAM.
    pub latency: LatencyModel,
    /// Persist-epoch elision mode of the simulated NVRAM.
    pub elision: ElisionMode,
    /// Durability commit mode of the database.
    pub commit: CommitMode,
}

impl HamtCase {
    /// Human-readable label, e.g. `hamt/cow/flit-HT (1MB)`; batched commit
    /// modes append their name. `cow` sits where the durability method sits in
    /// [`Case::label`], naming the structure's own discipline.
    pub fn label(&self) -> String {
        let base = format!("hamt/cow/{}", self.policy.name());
        if self.commit.is_batched() {
            format!("{}/{}", base, self.commit.name())
        } else {
            base
        }
    }
}

fn run_hamt_with_policy<P: Policy>(
    policy: P,
    case: &HamtCase,
    observe: Option<&LatencyObserver<'_>>,
) -> RunResult {
    let db = &FlitDb::builder(policy).commit_mode(case.commit).build();
    let map: flit_hamt::Hamt<P> = ConcurrentMap::with_capacity(db, case.config.key_range as usize);
    prefill(&map, &case.config);
    run_workload_observed(&map, &case.config, observe)
}

/// Build the HAMT described by `case`, prefill it, run the workload and return
/// the measurement. Every policy variant applies (the trie's interior is plain
/// session traffic; its root is a `P::Word<u64>` holding word-aligned
/// addresses, CAS only).
pub fn run_hamt_case(case: &HamtCase) -> RunResult {
    run_hamt_case_observed(case, None)
}

/// [`run_hamt_case`] with an optional per-operation [`LatencyObserver`].
pub fn run_hamt_case_observed(case: &HamtCase, observe: Option<&LatencyObserver<'_>>) -> RunResult {
    let backend = || {
        SimNvram::builder()
            .latency(case.latency)
            .elision(case.elision)
            .build()
    };
    match case.policy {
        PolicyKind::NoPersist => run_hamt_with_policy(presets::no_persist(), case, observe),
        PolicyKind::Plain => run_hamt_with_policy(presets::plain(backend()), case, observe),
        PolicyKind::FlitAdjacent => {
            run_hamt_with_policy(presets::flit_adjacent(backend()), case, observe)
        }
        PolicyKind::FlitHt(bytes) => {
            run_hamt_with_policy(presets::flit_ht_sized(backend(), bytes), case, observe)
        }
        PolicyKind::FlitCacheLine => {
            run_hamt_with_policy(presets::flit_cacheline(backend()), case, observe)
        }
        PolicyKind::LinkAndPersist => {
            run_hamt_with_policy(presets::link_and_persist(backend()), case, observe)
        }
    }
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
    /// Latency model for the simulated NVRAM.
    pub latency: LatencyModel,
    /// Persist-epoch elision mode of the simulated NVRAM.
    pub elision: ElisionMode,
    /// Durability commit mode of the database.
    pub commit: CommitMode,
}

/// The durability methods the queue harness sweeps. (NVTraverse instantiates too,
/// but the Michael–Scott queue has no traversal phase for it to optimise, so the
/// experiments report the two ends of the spectrum.)
pub const QUEUE_DURS: [DurKind; 2] = [DurKind::Automatic, DurKind::Manual];

impl QueueCase {
    /// Human-readable label, e.g. `msqueue/automatic/flit-HT (1MB)/mixed-50%`.
    /// Batched commit modes append their name; the immediate default keeps the
    /// historical four-part label.
    pub fn label(&self) -> String {
        let base = format!(
            "msqueue/{}/{}/{}",
            self.dur.name(),
            self.policy.name(),
            self.config.shape_label()
        );
        if self.commit.is_batched() {
            format!("{}/{}", base, self.commit.name())
        } else {
            base
        }
    }
}

fn run_queue<P, Q>(
    db: &FlitDb<P>,
    case: &QueueCase,
    observe: Option<&LatencyObserver<'_>>,
) -> QueueRunResult
where
    P: Policy,
    Q: ConcurrentQueue<P>,
{
    let queue = Q::in_db(db);
    prefill_queue(&queue, &case.config);
    run_queue_workload_observed(&queue, &case.config, observe)
}

fn run_queue_with_policy<P: Policy>(
    policy: P,
    case: &QueueCase,
    observe: Option<&LatencyObserver<'_>>,
) -> QueueRunResult {
    let db = &FlitDb::builder(policy).commit_mode(case.commit).build();
    match case.dur {
        DurKind::Automatic => run_queue::<P, MsQueue<P, Automatic>>(db, case, observe),
        DurKind::NvTraverse => run_queue::<P, MsQueue<P, NvTraverse>>(db, case, observe),
        DurKind::Manual => run_queue::<P, MsQueue<P, Manual>>(db, case, observe),
    }
}

/// Build the queue described by `case`, prefill it, run the workload and return the
/// measurement. Every policy variant applies to the queue (its updates are plain
/// CAS on word-aligned pointers, so even link-and-persist is usable).
pub fn run_queue_case(case: &QueueCase) -> QueueRunResult {
    run_queue_case_observed(case, None)
}

/// [`run_queue_case`] with an optional per-operation [`LatencyObserver`].
pub fn run_queue_case_observed(
    case: &QueueCase,
    observe: Option<&LatencyObserver<'_>>,
) -> QueueRunResult {
    let backend = || {
        SimNvram::builder()
            .latency(case.latency)
            .elision(case.elision)
            .build()
    };
    match case.policy {
        PolicyKind::NoPersist => run_queue_with_policy(presets::no_persist(), case, observe),
        PolicyKind::Plain => run_queue_with_policy(presets::plain(backend()), case, observe),
        PolicyKind::FlitAdjacent => {
            run_queue_with_policy(presets::flit_adjacent(backend()), case, observe)
        }
        PolicyKind::FlitHt(bytes) => {
            run_queue_with_policy(presets::flit_ht_sized(backend(), bytes), case, observe)
        }
        PolicyKind::FlitCacheLine => {
            run_queue_with_policy(presets::flit_cacheline(backend()), case, observe)
        }
        PolicyKind::LinkAndPersist => {
            run_queue_with_policy(presets::link_and_persist(backend()), case, observe)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> WorkloadConfig {
        WorkloadConfig::new(128, 20, 2, 200)
    }

    #[test]
    fn every_combination_runs() {
        for ds in DsKind::ALL {
            for dur in DurKind::ALL {
                for policy in [
                    PolicyKind::NoPersist,
                    PolicyKind::Plain,
                    PolicyKind::FlitAdjacent,
                    PolicyKind::FlitHt(1 << 16),
                    PolicyKind::FlitCacheLine,
                    PolicyKind::LinkAndPersist,
                ] {
                    if !policy.applicable_to(ds) {
                        continue;
                    }
                    let case = Case {
                        ds,
                        dur,
                        policy,
                        config: tiny_config(),
                        latency: LatencyModel::none(),
                        elision: ElisionMode::default(),
                        commit: CommitMode::Immediate,
                    };
                    let result = run_case(&case);
                    assert_eq!(result.total_ops, 400, "case {}", case.label());
                }
            }
        }
    }

    #[test]
    fn flit_beats_plain_on_pwbs() {
        // The core claim of the paper in miniature: for the same workload, flit-HT
        // executes far fewer pwbs than plain, because p-loads stop flushing.
        let mk = |policy| Case {
            ds: DsKind::Bst,
            dur: DurKind::Automatic,
            policy,
            config: WorkloadConfig::new(1_000, 5, 2, 2_000),
            latency: LatencyModel::none(),
            elision: ElisionMode::default(),
            commit: CommitMode::Immediate,
        };
        let plain = run_case(&mk(PolicyKind::Plain));
        let flit = run_case(&mk(PolicyKind::FlitHt(1 << 20)));
        assert!(
            plain.pwbs_per_op() > 5.0 * flit.pwbs_per_op(),
            "plain {} vs flit {}",
            plain.pwbs_per_op(),
            flit.pwbs_per_op()
        );
    }

    #[test]
    fn every_hamt_policy_runs() {
        for policy in [
            PolicyKind::NoPersist,
            PolicyKind::Plain,
            PolicyKind::FlitAdjacent,
            PolicyKind::FlitHt(1 << 16),
            PolicyKind::FlitCacheLine,
            PolicyKind::LinkAndPersist,
        ] {
            let case = HamtCase {
                policy,
                config: tiny_config(),
                latency: LatencyModel::none(),
                elision: ElisionMode::default(),
                commit: CommitMode::Immediate,
            };
            let result = run_hamt_case(&case);
            assert_eq!(result.total_ops, 400, "case {}", case.label());
        }
        let case = HamtCase {
            policy: PolicyKind::Plain,
            config: tiny_config(),
            latency: LatencyModel::none(),
            elision: ElisionMode::default(),
            commit: CommitMode::Batched(8),
        };
        assert_eq!(case.label(), "hamt/cow/plain/batched-8");
    }

    #[test]
    fn every_queue_combination_runs() {
        for dur in DurKind::ALL {
            for policy in [
                PolicyKind::NoPersist,
                PolicyKind::Plain,
                PolicyKind::FlitAdjacent,
                PolicyKind::FlitHt(1 << 16),
                PolicyKind::FlitCacheLine,
                PolicyKind::LinkAndPersist,
            ] {
                let case = QueueCase {
                    dur,
                    policy,
                    config: QueueWorkloadConfig::mixed(2, 50, 200).with_prefill(16),
                    latency: LatencyModel::none(),
                    elision: ElisionMode::default(),
                    commit: CommitMode::Immediate,
                };
                let result = run_queue_case(&case);
                assert_eq!(result.total_ops, 400, "case {}", case.label());
                assert_eq!(
                    result.enqueues + result.dequeues_hit + result.dequeues_empty,
                    400,
                    "case {}",
                    case.label()
                );
            }
        }
    }

    #[test]
    fn queue_flit_beats_plain_on_pwbs() {
        // The paper's claim carried over to the queue workload family: same traffic,
        // far fewer write-backs with FliT than with the plain transformation.
        let mk = |policy| QueueCase {
            dur: DurKind::Automatic,
            policy,
            config: QueueWorkloadConfig::producer_consumer(1, 3, 2_000),
            latency: LatencyModel::none(),
            elision: ElisionMode::default(),
            commit: CommitMode::Immediate,
        };
        let plain = run_queue_case(&mk(PolicyKind::Plain));
        let flit = run_queue_case(&mk(PolicyKind::FlitHt(1 << 20)));
        assert!(
            plain.pwbs_per_op() > 1.5 * flit.pwbs_per_op(),
            "plain {} vs flit {}",
            plain.pwbs_per_op(),
            flit.pwbs_per_op()
        );
    }

    #[test]
    fn queue_case_labels() {
        let case = QueueCase {
            dur: DurKind::Manual,
            policy: PolicyKind::Plain,
            config: QueueWorkloadConfig::producer_consumer(3, 1, 10),
            latency: LatencyModel::none(),
            elision: ElisionMode::default(),
            commit: CommitMode::Immediate,
        };
        assert_eq!(case.label(), "msqueue/manual/plain/pc-3:1");
        let batched = QueueCase {
            commit: CommitMode::Batched(8),
            ..case
        };
        assert_eq!(batched.label(), "msqueue/manual/plain/pc-3:1/batched-8");
        assert_eq!(QUEUE_DURS.len(), 2);
    }

    #[test]
    fn labels_and_applicability() {
        assert!(!PolicyKind::LinkAndPersist.applicable_to(DsKind::Bst));
        assert!(PolicyKind::LinkAndPersist.applicable_to(DsKind::List));
        assert_eq!(PolicyKind::FlitHt(1 << 20).name(), "flit-HT (1MB)");
        assert_eq!(PolicyKind::figure7_set(DsKind::Bst).len(), 3);
        assert_eq!(PolicyKind::figure7_set(DsKind::List).len(), 4);
        let case = Case {
            ds: DsKind::List,
            dur: DurKind::Manual,
            policy: PolicyKind::Plain,
            config: tiny_config(),
            latency: LatencyModel::none(),
            elision: ElisionMode::default(),
            commit: CommitMode::Immediate,
        };
        assert_eq!(case.label(), "list/manual/plain");
        let batched = Case {
            commit: CommitMode::Batched(4),
            ..case
        };
        assert_eq!(batched.label(), "list/manual/plain/batched-4");
    }
}
