//! Value-addressable dispatch over the full sweep matrix: every structure ×
//! durability method × policy combination, named by the same keys the `crashtest`
//! CLI accepts.

use flit::Policy;
use flit_datastructs::{
    Automatic, Durability, HarrisList, HashTable, Manual, NatarajanTree, NvTraverse, SkipList,
};
use flit_pmem::SimNvram;

use crate::engine::{sweep_map, sweep_queue, SweepSettings};
use crate::report::{CaseMeta, HistorySpec, SweepReport};
use crate::VolatileStores;

/// flit-HT counter-table size used by sweeps. Smaller than the paper's 1 MB default
/// because every crash point rebuilds the policy from scratch; table size only
/// affects counter collisions, not durability semantics.
pub(crate) const FLIT_HT_SWEEP_BYTES: usize = 1 << 16;

/// The structures the engine can sweep.
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

    /// CLI key.
    pub fn name(self) -> &'static str {
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
        Self::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// The persistence policies the engine can sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// The plain durable transformation (every p-load flushes).
    Plain,
    /// FliT with the hashed counter table.
    FlitHt,
    /// FliT with an adjacent per-word counter.
    FlitAdjacent,
    /// FliT with one counter per cache line.
    FlitCacheLine,
    /// The link-and-persist comparator (dirty bit inside the word).
    LinkPersist,
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

    /// CLI key.
    pub fn name(self) -> &'static str {
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
        Self::ALL.into_iter().find(|k| k.name() == s)
    }

    /// `false` for combinations the policy cannot express: link-and-persist needs a
    /// spare bit and CAS-only updates, which the Natarajan–Mittal BST's two-bit
    /// edges rule out (paper §6.6).
    pub fn supports(self, structure: StructureKind) -> bool {
        !(self == PolicyKind::LinkPersist && structure == StructureKind::Bst)
    }
}

/// The durability methods the engine can sweep — the paper's three plus the
/// deliberately broken control.
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

    /// CLI key.
    pub fn name(self) -> &'static str {
        match self {
            MethodKind::Automatic => "automatic",
            MethodKind::NvTraverse => "nvtraverse",
            MethodKind::Manual => "manual",
            MethodKind::VolatileBroken => "volatile-broken",
        }
    }

    /// Parse a CLI key.
    pub fn parse(s: &str) -> Option<MethodKind> {
        Self::ALL.into_iter().find(|k| k.name() == s)
    }

    /// `true` for the broken control, whose violations are expected.
    pub fn expects_violations(self) -> bool {
        self == MethodKind::VolatileBroken
    }
}

/// The one `PolicyKind` → policy-constructor table: evaluates `$body` with
/// `$factory` bound to the `Fn(SimNvram) -> P` building `$policy`'s policy (a
/// macro because every policy is a different type `P`).
macro_rules! for_policy {
    ($policy:expr, $factory:ident => $body:expr) => {
        match $policy {
            $crate::PolicyKind::Plain => {
                let $factory = flit::presets::plain;
                $body
            }
            $crate::PolicyKind::FlitHt => {
                let $factory =
                    |b| flit::presets::flit_ht_sized(b, $crate::matrix::FLIT_HT_SWEEP_BYTES);
                $body
            }
            $crate::PolicyKind::FlitAdjacent => {
                let $factory = flit::presets::flit_adjacent;
                $body
            }
            $crate::PolicyKind::FlitCacheLine => {
                let $factory = flit::presets::flit_cacheline;
                $body
            }
            $crate::PolicyKind::LinkPersist => {
                let $factory = flit::presets::link_and_persist;
                $body
            }
        }
    };
}
pub(crate) use for_policy;

/// Sweep one case. Returns `None` for combinations the policy cannot express
/// (see [`PolicyKind::supports`]) and for the traversal-phase methods on the
/// HAMT, which brings its own durability discipline.
pub fn run_case(
    structure: StructureKind,
    method: MethodKind,
    policy: PolicyKind,
    history: HistorySpec,
    settings: &SweepSettings,
) -> Option<SweepReport> {
    let traversal_method = matches!(method, MethodKind::NvTraverse | MethodKind::Manual);
    if !policy.supports(structure) || (structure == StructureKind::Hamt && traversal_method) {
        return None;
    }
    let case = CaseMeta {
        structure: structure.name(),
        method: method.name(),
        policy: policy.name(),
        history,
        elision: settings.elision,
        commit: settings.commit,
        broken_acks: settings.broken_acks,
    };
    Some(for_policy!(policy, factory => with_policy(case, structure, method, settings, factory)))
}

/// The HAMT carries its own durability discipline — MOD copy-on-write with a
/// single p-CAS on the recovery root — instead of per-word durability
/// methods, so the traversal-phase method axis does not apply to it. Only
/// `automatic` (the real structure) and `volatile-broken` (the control whose
/// root accesses are all v-instructions, [`flit_hamt::BrokenHamt`], which
/// *must* fail) are swept; [`run_case`] answers `None` for `nvtraverse` and
/// `manual`, like an unsupported policy combination. The policy axis is real:
/// the root cell is a `P::Word<u64>`, so each policy sweeps its own protocol on
/// the one word the trie's durability hinges on — counter-tagged under the
/// FliT schemes, dirty-bit-marked under link-and-persist, flushed on every
/// load under plain. (That last one is why the control's *loads* are volatile
/// too: a plain p-load would write back the root the volatile CAS skipped.)
fn with_policy<P, F>(
    case: CaseMeta,
    structure: StructureKind,
    method: MethodKind,
    settings: &SweepSettings,
    factory: F,
) -> SweepReport
where
    P: Policy<Backend = SimNvram> + Clone,
    F: Fn(SimNvram) -> P,
{
    if structure == StructureKind::Hamt {
        let history = case.history.map_history();
        return match method {
            MethodKind::VolatileBroken => {
                sweep_map::<P, flit_hamt::BrokenHamt<P>, F>(case, factory, &history, settings)
            }
            _ => sweep_map::<P, flit_hamt::Hamt<P>, F>(case, factory, &history, settings),
        };
    }
    match method {
        MethodKind::Automatic => with_method::<P, Automatic, F>(case, structure, settings, factory),
        MethodKind::NvTraverse => {
            with_method::<P, NvTraverse, F>(case, structure, settings, factory)
        }
        MethodKind::Manual => with_method::<P, Manual, F>(case, structure, settings, factory),
        MethodKind::VolatileBroken => {
            with_method::<P, VolatileStores, F>(case, structure, settings, factory)
        }
    }
}

fn with_method<P, D, F>(
    case: CaseMeta,
    structure: StructureKind,
    settings: &SweepSettings,
    factory: F,
) -> SweepReport
where
    P: Policy<Backend = SimNvram> + Clone,
    D: Durability,
    F: Fn(SimNvram) -> P,
{
    let history = case.history;
    match structure {
        StructureKind::List => {
            sweep_map::<P, HarrisList<P, D>, F>(case, factory, &history.map_history(), settings)
        }
        StructureKind::HashTable => {
            sweep_map::<P, HashTable<P, D>, F>(case, factory, &history.map_history(), settings)
        }
        StructureKind::Bst => {
            sweep_map::<P, NatarajanTree<P, D>, F>(case, factory, &history.map_history(), settings)
        }
        StructureKind::SkipList => {
            sweep_map::<P, SkipList<P, D>, F>(case, factory, &history.map_history(), settings)
        }
        StructureKind::MsQueue => {
            sweep_queue::<P, D, F>(case, factory, &history.queue_history(), settings)
        }
        StructureKind::Hamt => unreachable!("the hamt is dispatched by with_policy"),
    }
}

/// Sweep the cartesian product of the given kinds, skipping unsupported
/// combinations.
pub fn run_matrix(
    structures: &[StructureKind],
    methods: &[MethodKind],
    policies: &[PolicyKind],
    history: HistorySpec,
    settings: &SweepSettings,
) -> Vec<SweepReport> {
    let mut reports = Vec::new();
    for &structure in structures {
        for &method in methods {
            for &policy in policies {
                if let Some(report) = run_case(structure, method, policy, history, settings) {
                    reports.push(report);
                }
            }
        }
    }
    reports
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_parse_and_round_trip() {
        for s in StructureKind::ALL {
            assert_eq!(StructureKind::parse(s.name()), Some(s));
        }
        for p in PolicyKind::ALL {
            assert_eq!(PolicyKind::parse(p.name()), Some(p));
        }
        for m in MethodKind::ALL {
            assert_eq!(MethodKind::parse(m.name()), Some(m));
        }
        assert_eq!(StructureKind::parse("nope"), None);
    }

    #[test]
    fn bst_cannot_run_link_and_persist() {
        assert!(!PolicyKind::LinkPersist.supports(StructureKind::Bst));
        assert!(PolicyKind::LinkPersist.supports(StructureKind::List));
        assert!(run_case(
            StructureKind::Bst,
            MethodKind::Automatic,
            PolicyKind::LinkPersist,
            HistorySpec::Scripted,
            &SweepSettings::default(),
        )
        .is_none());
    }

    #[test]
    fn hamt_skips_traversal_phase_methods() {
        for method in [MethodKind::NvTraverse, MethodKind::Manual] {
            assert!(run_case(
                StructureKind::Hamt,
                method,
                PolicyKind::Plain,
                HistorySpec::Scripted,
                &SweepSettings::default(),
            )
            .is_none());
        }
    }

    #[test]
    fn broken_method_is_flagged_as_expecting_violations() {
        assert!(MethodKind::VolatileBroken.expects_violations());
        for m in MethodKind::CORRECT {
            assert!(!m.expects_violations());
        }
    }
}
