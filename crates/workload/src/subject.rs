//! The case matrix: every structure × durability method × policy that the
//! `repro` ledger, the crash sweeps and the examples name, and the one table
//! resolving a named [`Subject`] to its concrete types.
//!
//! The three kinds are named once, here, with the keys the `crashtest` CLI and
//! the crash reports use. [`applicable`] is the one rule saying which
//! combinations exist, [`PolicyKind::visit`] the one table from a policy kind
//! to its `presets::*` constructor, and [`Subject::visit`] the one table from a
//! structure and a method to the map or queue type. Callers pick their rows
//! from this key space and order them as they like; a subject outside it
//! resolves to `None`.

use flit::{presets, PFlag, Policy};
use flit_datastructs::{
    Automatic, ConcurrentMap, Durability, HarrisList, HashTable, Manual, NatarajanTree, NvTraverse,
    RecoverInImage, SkipList,
};
use flit_hamt::{BrokenHamt, Hamt};
use flit_pmem::SimNvram;

/// flit-HT counter-table size used by the crash sweeps. Smaller than the paper's
/// 1 MB default because every crash point rebuilds the policy from scratch;
/// table size only affects counter collisions, not durability semantics.
pub const FLIT_HT_SWEEP_BYTES: usize = 1 << 16;

/// The data structures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StructureKind {
    /// Harris sorted linked list.
    List,
    /// Hash table with Harris-list buckets.
    HashTable,
    /// Natarajan–Mittal external BST.
    Bst,
    /// Lock-free skiplist.
    SkipList,
    /// Michael–Scott FIFO queue.
    MsQueue,
    /// Copy-on-write hash array mapped trie (`flit-hamt`, MOD discipline).
    Hamt,
}

impl StructureKind {
    /// Every structure, in sweep order.
    pub const ALL: [StructureKind; 6] = [
        StructureKind::List,
        StructureKind::HashTable,
        StructureKind::Bst,
        StructureKind::SkipList,
        StructureKind::MsQueue,
        StructureKind::Hamt,
    ];

    /// CLI and report key.
    pub fn key(self) -> &'static str {
        match self {
            StructureKind::List => "list",
            StructureKind::HashTable => "hashtable",
            StructureKind::Bst => "bst",
            StructureKind::SkipList => "skiplist",
            StructureKind::MsQueue => "msqueue",
            StructureKind::Hamt => "hamt",
        }
    }

    /// Parse a CLI key.
    pub fn parse(s: &str) -> Option<StructureKind> {
        Self::ALL.into_iter().find(|k| k.key() == s)
    }
}

/// The durability methods: the paper's three (§6.4) plus the deliberately
/// broken control.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MethodKind {
    /// Theorem 3.1: every instruction is a p-instruction.
    Automatic,
    /// NVTraverse: volatile traversal, persisted transition + critical phase.
    NvTraverse,
    /// Hand-tuned: persistence confined to the modified link.
    Manual,
    /// The broken control ([`VolatileStores`]): nothing persists; sweeps over it
    /// *must* find violations, proving the harness can catch durability bugs.
    VolatileBroken,
}

impl MethodKind {
    /// The correct methods (a sweep over these must find zero violations).
    pub const CORRECT: [MethodKind; 3] = [
        MethodKind::Automatic,
        MethodKind::NvTraverse,
        MethodKind::Manual,
    ];

    /// Every method including the broken control.
    pub const ALL: [MethodKind; 4] = [
        MethodKind::Automatic,
        MethodKind::NvTraverse,
        MethodKind::Manual,
        MethodKind::VolatileBroken,
    ];

    /// CLI and report key.
    pub fn key(self) -> &'static str {
        match self {
            MethodKind::Automatic => "automatic",
            MethodKind::NvTraverse => "nvtraverse",
            MethodKind::Manual => "manual",
            MethodKind::VolatileBroken => "volatile-broken",
        }
    }

    /// Parse a CLI key.
    pub fn parse(s: &str) -> Option<MethodKind> {
        Self::ALL.into_iter().find(|k| k.key() == s)
    }

    /// `true` for the broken control, whose violations are expected.
    pub fn expects_violations(self) -> bool {
        self == MethodKind::VolatileBroken
    }
}

/// The implementations of the P-V interface (paper §6's compared variants).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// The plain durable transformation (every p-load flushes).
    Plain,
    /// FliT with the hashed counter table; its size is picked per call.
    FlitHt,
    /// FliT with an adjacent per-word counter.
    FlitAdjacent,
    /// FliT with one counter per cache line (paper §8 future work).
    FlitCacheLine,
    /// The link-and-persist comparator (dirty bit inside the word).
    LinkPersist,
}

/// A computation generic over the policy type, run by [`PolicyKind::visit`].
pub trait PolicyVisitor {
    /// What the computation returns.
    type Output;
    /// Run with `make`, which builds a fresh policy on the given backend.
    fn visit<P: Policy<Backend = SimNvram>>(self, make: impl Fn(SimNvram) -> P) -> Self::Output;
}

impl PolicyKind {
    /// Every policy, in sweep order.
    pub const ALL: [PolicyKind; 5] = [
        PolicyKind::Plain,
        PolicyKind::FlitHt,
        PolicyKind::FlitAdjacent,
        PolicyKind::FlitCacheLine,
        PolicyKind::LinkPersist,
    ];

    /// CLI and crash-report key.
    pub fn key(self) -> &'static str {
        match self {
            PolicyKind::Plain => "plain",
            PolicyKind::FlitHt => "flit-ht",
            PolicyKind::FlitAdjacent => "flit-adjacent",
            PolicyKind::FlitCacheLine => "flit-cacheline",
            PolicyKind::LinkPersist => "link-persist",
        }
    }

    /// Parse a CLI key.
    pub fn parse(s: &str) -> Option<PolicyKind> {
        Self::ALL.into_iter().find(|k| k.key() == s)
    }

    /// Ledger label matching the paper's legends; flit-HT's names its
    /// counter-table size.
    pub fn label(self, table_bytes: usize) -> String {
        match self {
            PolicyKind::FlitHt => format!("flit-HT ({})", flit::human_bytes(table_bytes)),
            PolicyKind::LinkPersist => "link-and-persist".into(),
            other => other.key().into(),
        }
    }

    /// Resolve this kind to its `presets::*` constructor (flit-HT's with a
    /// `table_bytes` counter table) and run `v` with it.
    pub fn visit<V: PolicyVisitor>(self, table_bytes: usize, v: V) -> V::Output {
        match self {
            PolicyKind::Plain => v.visit(presets::plain),
            PolicyKind::FlitHt => v.visit(|b| presets::flit_ht_sized(b, table_bytes)),
            PolicyKind::FlitAdjacent => v.visit(presets::flit_adjacent),
            PolicyKind::FlitCacheLine => v.visit(presets::flit_cacheline),
            PolicyKind::LinkPersist => v.visit(presets::link_and_persist),
        }
    }
}

/// Whether the combination exists.
///
/// * Link-and-persist needs a spare bit and CAS-only updates, which the
///   Natarajan–Mittal BST's two-bit edges rule out (paper §6.6).
/// * The HAMT carries its own durability discipline — MOD copy-on-write with
///   a single p-CAS on the recovery root — so the traversal-phase methods do
///   not apply. It runs `automatic` (the real structure) and
///   `volatile-broken` ([`BrokenHamt`], whose root accesses are all
///   v-instructions and which *must* fail a sweep).
pub fn applicable(structure: StructureKind, method: MethodKind, policy: PolicyKind) -> bool {
    let bst_link = structure == StructureKind::Bst && policy == PolicyKind::LinkPersist;
    let hamt_traversal = structure == StructureKind::Hamt
        && matches!(method, MethodKind::NvTraverse | MethodKind::Manual);
    !(bst_link || hamt_traversal)
}

/// A computation generic over a subject's concrete types, run by
/// [`Subject::visit`]. `make` builds a fresh policy on the given backend.
pub trait SubjectVisitor {
    /// What the computation returns.
    type Output;
    /// Run on the map `M`.
    fn map<P, M>(self, make: impl Fn(SimNvram) -> P) -> Self::Output
    where
        P: Policy<Backend = SimNvram>,
        M: ConcurrentMap<P> + RecoverInImage;
    /// Run on the Michael–Scott queue under durability method `D`.
    fn queue<P, D>(self, make: impl Fn(SimNvram) -> P) -> Self::Output
    where
        P: Policy<Backend = SimNvram>,
        D: Durability;
}

/// One point of the case matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Subject {
    /// The data structure.
    pub structure: StructureKind,
    /// Its durability method.
    pub method: MethodKind,
    /// Its persistence policy.
    pub policy: PolicyKind,
}

impl Subject {
    /// The subject of `structure` under `method` and `policy`.
    pub fn new(structure: StructureKind, method: MethodKind, policy: PolicyKind) -> Subject {
        Subject {
            structure,
            method,
            policy,
        }
    }

    /// Every [`applicable`] subject, structures outermost, each axis in its
    /// `ALL` order.
    pub fn all() -> impl Iterator<Item = Subject> {
        StructureKind::ALL.into_iter().flat_map(|structure| {
            MethodKind::ALL.into_iter().flat_map(move |method| {
                PolicyKind::ALL
                    .into_iter()
                    .filter(move |&policy| applicable(structure, method, policy))
                    .map(move |policy| Subject::new(structure, method, policy))
            })
        })
    }

    /// Resolve this subject to its concrete policy and map (or queue) types
    /// and run `v` on them; `None` if it is not [`applicable`].
    pub fn visit<V: SubjectVisitor>(self, table_bytes: usize, v: V) -> Option<V::Output> {
        applicable(self.structure, self.method, self.policy)
            .then(|| self.policy.visit(table_bytes, Resolve { subject: self, v }))
    }
}

/// [`Subject::visit`]'s structure × method → type table, run once the policy
/// type is known.
struct Resolve<V> {
    subject: Subject,
    v: V,
}

impl<V: SubjectVisitor> PolicyVisitor for Resolve<V> {
    type Output = V::Output;

    fn visit<P: Policy<Backend = SimNvram>>(self, make: impl Fn(SimNvram) -> P) -> V::Output {
        match self.subject.method {
            MethodKind::Automatic => self.with::<P, Automatic>(make),
            MethodKind::NvTraverse => self.with::<P, NvTraverse>(make),
            MethodKind::Manual => self.with::<P, Manual>(make),
            MethodKind::VolatileBroken => self.with::<P, VolatileStores>(make),
        }
    }
}

impl<V: SubjectVisitor> Resolve<V> {
    fn with<P, D>(self, make: impl Fn(SimNvram) -> P) -> V::Output
    where
        P: Policy<Backend = SimNvram>,
        D: Durability,
    {
        match self.subject.structure {
            StructureKind::List => self.v.map::<P, HarrisList<P, D>>(make),
            StructureKind::HashTable => self.v.map::<P, HashTable<P, D>>(make),
            StructureKind::Bst => self.v.map::<P, NatarajanTree<P, D>>(make),
            StructureKind::SkipList => self.v.map::<P, SkipList<P, D>>(make),
            StructureKind::MsQueue => self.v.queue::<P, D>(make),
            StructureKind::Hamt if self.subject.method.expects_violations() => {
                self.v.map::<P, BrokenHamt<P>>(make)
            }
            StructureKind::Hamt => self.v.map::<P, Hamt<P>>(make),
        }
    }
}

/// A deliberately broken durability method: **every** instruction is a
/// v-instruction, so no store after construction is ever written back or fenced.
///
/// Any structure instantiated with this method is linearizable but *not* durably
/// linearizable — completed operations vanish in a crash. The crash sweeps use
/// it as a control: a sweep over `VolatileStores` that reports zero violations
/// means the harness (not the structure) is broken.
#[derive(Debug, Default, Clone, Copy)]
pub struct VolatileStores;

impl Durability for VolatileStores {
    const NAME: &'static str = "volatile-broken";
    const TRAVERSAL_LOAD: PFlag = PFlag::Volatile;
    const CRITICAL_LOAD: PFlag = PFlag::Volatile;
    const STORE: PFlag = PFlag::Volatile;
    const INDEX_STORE: PFlag = PFlag::Volatile;
    const TRANSITION_DEPTH: usize = 0;
}
