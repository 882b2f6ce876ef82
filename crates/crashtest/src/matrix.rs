//! Value-addressable sweeps: a structure × method × policy named by the keys
//! the `crashtest` CLI accepts, resolved through the one case matrix
//! ([`flit_workload::Subject::visit`]) to [`sweep_map`] or [`sweep_queue`].

use flit::Policy;
use flit_datastructs::{ConcurrentMap, Durability, RecoverInImage};
use flit_pmem::SimNvram;
use flit_workload::{Subject, SubjectVisitor, FLIT_HT_SWEEP_BYTES};

use crate::engine::{sweep_map, sweep_queue, SweepSettings};
use crate::report::{CaseMeta, HistorySpec, SweepReport};
use crate::{MethodKind, PolicyKind, StructureKind};

/// Sweep one case. Returns `None` for a combination that is not
/// [`applicable`](flit_workload::applicable): link-and-persist on the BST, and
/// the traversal-phase methods on the HAMT, which brings its own durability
/// discipline.
///
/// The HAMT's policy axis is real: its root cell is a `P::Word<u64>`, so each
/// policy sweeps its own protocol on the one word the trie's durability hinges
/// on — counter-tagged under the FliT schemes, dirty-bit-marked under
/// link-and-persist, flushed on every load under plain. (That last one is why
/// the control's *loads* are volatile too: a plain p-load would write back the
/// root the volatile CAS skipped.)
pub fn run_case(
    structure: StructureKind,
    method: MethodKind,
    policy: PolicyKind,
    history: HistorySpec,
    settings: &SweepSettings,
) -> Option<SweepReport> {
    let case = CaseMeta {
        structure: structure.key(),
        method: method.key(),
        policy: policy.key(),
        history,
        elision: settings.elision,
        commit: settings.commit,
        broken_acks: settings.broken_acks,
    };
    let subject = Subject::new(structure, method, policy);
    subject.visit(FLIT_HT_SWEEP_BYTES, Sweep(case, settings))
}

/// [`run_case`]'s sweep, once the subject's types are known.
struct Sweep<'a>(CaseMeta, &'a SweepSettings);

impl SubjectVisitor for Sweep<'_> {
    type Output = SweepReport;

    fn map<P: Policy<Backend = SimNvram>, M: ConcurrentMap<P> + RecoverInImage>(
        self,
        make: impl Fn(SimNvram) -> P,
    ) -> SweepReport {
        let history = self.0.history.map_history();
        sweep_map::<P, M, _>(self.0, make, &history, self.1)
    }

    fn queue<P: Policy<Backend = SimNvram>, D: Durability>(
        self,
        make: impl Fn(SimNvram) -> P,
    ) -> SweepReport {
        let history = self.0.history.queue_history();
        sweep_queue::<P, D, _>(self.0, make, &history, self.1)
    }
}

/// Sweep the cartesian product of the given kinds, skipping the combinations
/// that are not applicable.
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
                reports.extend(run_case(structure, method, policy, history, settings));
            }
        }
    }
    reports
}
