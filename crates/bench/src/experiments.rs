//! The paper's evaluation (§6) and the server's request path as one ledger of
//! exact instruction counts: the only source of the committed `BENCH_*.json`.
//!
//! A seeded run on one handle issues the same `pwb`/`pfence` stream every
//! time, so each figure's *claim* — who flushes less than whom — is an
//! inequality over counts that can be asserted rather than eyeballed.
//! [`ledger`] measures the rows and [`Ledger::claims`] checks them; `repro`
//! prints both and writes them to `BENCH_flit.json` (map rows and verdicts) and
//! `BENCH_server.json` (request-path rows), and `tests/paper_ledger.rs` asserts
//! them. The hardware of the reproduction environment differs from the paper's
//! 48-core Optane machine (see the README's "Why a simulated backend"), so
//! throughput is not a claim here: timing belongs to the `benchmark/` crate's
//! run shape.

use std::ops::{AddAssign, Sub};

use flit::{FlitDb, FlitHandle, Policy};
use flit_crashtest::op_of;
use flit_datastructs::{Automatic, ConcurrentMap, Durability, HashTable, RecoverInImage};
use flit_pmem::{CommitMode, SimNvram, StatsSnapshot};
use flit_queues::MsQueue;
use flit_server::{KvServer, Op, ServerConfig};
use flit_workload::{
    prefill_history, run_queue_workload, run_workload, runner::prefill, service_history, MapOp,
    MethodKind, PolicyKind, PolicyVisitor, QueueWorkloadConfig, ServiceConfig, StructureKind,
    Subject, SubjectVisitor, WorkloadConfig,
};

/// How big to make each row.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Operations per map row, requests per request-path row.
    pub ops: u64,
    /// Key range of the map rows (but the list's) and of the request path.
    pub small_keys: u64,
    /// Key range of the depth rows, the deep end of the HAMT's copied path.
    pub large_keys: u64,
}

/// The scale of the committed ledger, sized for a small container.
pub const SCALE: Scale = Scale {
    ops: 4_000,
    small_keys: 10_000,
    large_keys: 100_000,
};

/// Key range of the linked list, at every scale: the paper's small list.
const LIST_KEYS: u64 = 128;

fn small_key_range(scale: &Scale, structure: StructureKind) -> u64 {
    if structure == StructureKind::List {
        LIST_KEYS
    } else {
        scale.small_keys
    }
}

/// The map structures in the order of the paper's Figure 7, then the
/// copy-on-write HAMT.
const LEDGER_STRUCTURES: [StructureKind; 5] = [
    StructureKind::Bst,
    StructureKind::HashTable,
    StructureKind::List,
    StructureKind::SkipList,
    StructureKind::Hamt,
];

/// The persistent variants the ledger sweeps.
const LEDGER_POLICIES: [PolicyKind; 5] = [
    PolicyKind::Plain,
    PolicyKind::FlitAdjacent,
    PolicyKind::FlitHt,
    PolicyKind::FlitCacheLine,
    PolicyKind::LinkPersist,
];

/// The queue's methods: the two ends of the spectrum. (NVTraverse applies too,
/// but the Michael–Scott queue has no traversal phase for it to optimise.)
const QUEUE_METHODS: [MethodKind; 2] = [MethodKind::Automatic, MethodKind::Manual];

/// The flit-HT counter-table size of every map row but Figure 5's.
const LEDGER_TABLE: usize = 1 << 20;

/// The counter-table sizes of the Figure 5 rows, in bytes: 64 B to 16 MB.
const LEDGER_TABLE_BYTES: [usize; 5] = [64, 4 << 10, 64 << 10, 1 << 20, 16 << 20];

/// The batch size of the rows that keep stores tagged across operations: the
/// Figure 5 rows, where the table size shows in the read-side pwbs, and the
/// group-commit rows.
const LEDGER_BATCH: usize = 8;

/// The policy, table size and update mix of the write-heavy rows:
/// the group-commit pairs and the depth rows.
const WRITE_HEAVY: (PolicyKind, usize, u32) = (PolicyKind::FlitHt, LEDGER_TABLE, 50);

/// The request path's flit-HT table size: the server's 64 KB.
pub const SERVER_TABLE: usize = 64 << 10;

/// Shards of the request-path server. Every layer boundary reads the counters
/// of all of them, so the row does not depend on where a key routes.
pub const SERVER_SHARDS: usize = 2;

fn is_flit(policy: PolicyKind) -> bool {
    matches!(
        policy,
        PolicyKind::FlitAdjacent | PolicyKind::FlitHt | PolicyKind::FlitCacheLine
    )
}

/// One map row of the [`ledger`]: the exact counts of one single-handle run.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerRow {
    /// Data structure.
    pub structure: StructureKind,
    /// Durability method (`automatic` for the HAMT, whose label is `cow`).
    pub method: MethodKind,
    /// Policy variant.
    pub policy: PolicyKind,
    /// flit-HT counter-table size in bytes (the other policies ignore it).
    pub table_bytes: usize,
    /// Commit mode of the run.
    pub commit: CommitMode,
    /// Key range of the run (0 for dequeue-of-empty).
    pub keys: u64,
    /// Update percentage of the map mix (0 for dequeue-of-empty).
    pub update_percent: u32,
    /// Operations measured.
    pub ops: u64,
    /// Updates that changed the map: successful inserts and removes.
    pub updates_ok: u64,
    /// `pwb` instructions.
    pub pwbs: u64,
    /// `pfence` instructions.
    pub pfences: u64,
    /// `pwb`s issued by p-loads of tagged words.
    pub read_side_pwbs: u64,
}

impl LedgerRow {
    /// Measure `subject` on one fresh handle and database: prefill a map to
    /// half of `keys`, then run `ops` operations, `update_percent` of them
    /// updates (a queue's updates are enqueues). `None` if the subject is not
    /// applicable.
    pub fn measure(
        subject: Subject,
        table_bytes: usize,
        commit: CommitMode,
        keys: u64,
        update_percent: u32,
        ops: u64,
    ) -> Option<LedgerRow> {
        let run = RowRun {
            keys,
            update_percent,
            ops,
            commit,
        };
        let (updates_ok, pmem) = subject.visit(table_bytes, run)?;
        Some(LedgerRow {
            structure: subject.structure,
            method: subject.method,
            policy: subject.policy,
            table_bytes,
            commit,
            keys,
            update_percent,
            ops,
            updates_ok,
            pwbs: pmem.pwbs,
            pfences: pmem.pfences,
            read_side_pwbs: pmem.read_side_pwbs,
        })
    }

    /// The durability column: the method's key, or `cow` for the HAMT, whose
    /// discipline is the structure's own.
    pub fn durability(&self) -> &'static str {
        match self.structure {
            StructureKind::Hamt => "cow",
            _ => self.method.key(),
        }
    }

    /// The policy column.
    pub fn policy_label(&self) -> String {
        self.policy.label(self.table_bytes)
    }

    /// Whether `other` measures the same case.
    fn same_case(&self, other: &LedgerRow) -> bool {
        let case = |r: &LedgerRow| (r.structure, r.method, r.policy_label(), r.commit);
        case(self) == case(other)
            && (self.keys, self.update_percent) == (other.keys, other.update_percent)
    }
}

/// [`LedgerRow::measure`]'s run, once the subject's types are known: the
/// successful updates and the counters.
struct RowRun {
    keys: u64,
    update_percent: u32,
    ops: u64,
    commit: CommitMode,
}

impl RowRun {
    fn db<P: Policy<Backend = SimNvram>>(&self, make: impl Fn(SimNvram) -> P) -> FlitDb<P> {
        let policy = make(SimNvram::for_counting());
        FlitDb::builder(policy).commit_mode(self.commit).build()
    }
}

impl SubjectVisitor for RowRun {
    type Output = (u64, StatsSnapshot);

    fn map<P: Policy<Backend = SimNvram>, M: ConcurrentMap<P> + RecoverInImage>(
        self,
        make: impl Fn(SimNvram) -> P,
    ) -> Self::Output {
        let config = WorkloadConfig::new(self.keys, self.update_percent, self.ops);
        let db = self.db(make);
        let map = M::with_capacity(&db, self.keys as usize);
        prefill(&map, &config);
        let r = run_workload(&map, &config);
        (r.inserts_ok + r.removes_ok, r.pmem)
    }

    fn queue<P: Policy<Backend = SimNvram>, D: Durability>(
        self,
        make: impl Fn(SimNvram) -> P,
    ) -> Self::Output {
        let config = QueueWorkloadConfig::new(self.update_percent, self.ops);
        let db = self.db(make);
        let r = run_queue_workload(&MsQueue::<P, D>::new(&db), &config);
        (r.enqueues + r.dequeues_hit, r.pmem)
    }
}

/// `pwb` and `pfence` counts.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// `pwb` instructions.
    pub pwbs: u64,
    /// `pfence` instructions.
    pub pfences: u64,
}

impl AddAssign for Counts {
    fn add_assign(&mut self, o: Counts) {
        self.pwbs += o.pwbs;
        self.pfences += o.pfences;
    }
}

impl Sub for Counts {
    type Output = Counts;
    fn sub(self, o: Counts) -> Counts {
        Counts {
            pwbs: self.pwbs - o.pwbs,
            pfences: self.pfences - o.pfences,
        }
    }
}

/// The steps of [`KvServer::pump`] a request-path row splits its counts at, in
/// the order a request passes them; a step's index into
/// [`RequestRow::layers`] and [`LAYERS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Decode the request bytes.
    Decode,
    /// Route the key to its shard.
    Route,
    /// Post the token to the shard's durable mailbox.
    Post,
    /// Take the next token and decode its request.
    Take,
    /// Apply the request to the shard's map.
    Apply,
    /// Encode the reply.
    Encode,
}

/// The keys of the [`Layer`]s in `BENCH_server.json`, in [`Layer`] order.
pub const LAYERS: [&str; 6] = ["decode", "route", "post", "take", "apply", "encode"];

/// One request-path row of the [`ledger`]: a one-worker drive of a
/// hash-table server's [`KvServer::pump`], split into its [`Layer`]s under
/// `Immediate`.
///
/// A `Batched` row has no split and inexact counts: the mailbox's enqueue
/// p-loads the tail between its new node's persist and the linking CAS, so a
/// tag the batch left open can meet that load on a clean epoch through the
/// hashed counter table, depending on heap addresses. The pwb that adds makes
/// the next fence fire: a flit-HT `Batched(8)` drive read 14 461 instead of
/// 14 460 pfences in one of six processes, so two drives would not sum.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestRow {
    /// Policy variant of every shard (flit-HT's table is the server's 64 KB).
    pub policy: PolicyKind,
    /// Commit mode of every shard.
    pub commit: CommitMode,
    /// Key range of the request stream.
    pub keys: u64,
    /// Update percentage of the request stream.
    pub update_percent: u32,
    /// Requests driven.
    pub requests: u64,
    /// Requests that are updates (`Put` or `Del`).
    pub updates: u64,
    /// Counts of the whole drive through `pump`.
    pub pump: Counts,
    /// Under `Immediate`, the counts of a second drive that walks `pump`'s
    /// steps one by one, indexed by [`Layer`].
    pub layers: Option<[Counts; 6]>,
}

/// One of the paper's claims, checked over the ledger's rows.
#[derive(Debug, Clone)]
pub struct Claim {
    /// Where the claim comes from: a figure of the paper or a workspace family.
    pub figure: &'static str,
    /// What the claim says.
    pub statement: &'static str,
    /// One line per row that breaks the claim; empty when it holds.
    pub broken: Vec<String>,
}

fn claim(
    figure: &'static str,
    statement: &'static str,
    broken: impl IntoIterator<Item = String>,
) -> Claim {
    Claim {
        figure,
        statement,
        broken: broken.into_iter().collect(),
    }
}

/// One line of [`Claim::broken`]: the rows involved, with their counts.
fn broken<R: std::fmt::Debug>(rows: &[&R]) -> String {
    let shown: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
    shown.join(" vs ")
}

/// The measured rows; [`Ledger::claims`] checks them.
#[derive(Debug, Clone)]
pub struct Ledger {
    /// Every map and queue row, in measurement order.
    pub rows: Vec<LedgerRow>,
    /// Every request-path row, in measurement order.
    pub requests: Vec<RequestRow>,
}

impl Ledger {
    /// The row measuring `like`'s case with the fields `change` sets.
    fn twin(&self, like: &LedgerRow, change: impl FnOnce(&mut LedgerRow)) -> Option<&LedgerRow> {
        let mut case = like.clone();
        change(&mut case);
        self.rows.iter().find(|r| r.same_case(&case))
    }

    fn rows_where(&self, keep: impl Fn(&LedgerRow) -> bool) -> impl Iterator<Item = &LedgerRow> {
        self.rows.iter().filter(move |r| keep(r))
    }

    /// The `Immediate` request-path row of `policy` at `like`'s update share.
    fn immediate_twin(&self, like: &RequestRow, policy: PolicyKind) -> Option<&RequestRow> {
        let case = (policy, CommitMode::Immediate, like.update_percent);
        self.requests
            .iter()
            .find(|r| (r.policy, r.commit, r.update_percent) == case)
    }

    /// Every claim, each with the rows that break it.
    pub fn claims(&self) -> Vec<Claim> {
        let immediate = |r: &LedgerRow| r.commit == CommitMode::Immediate;
        let hamt = StructureKind::Hamt;
        let heavy = |r: &LedgerRow| (r.policy, r.table_bytes, r.update_percent) == WRITE_HEAVY;
        let depth = |r: &LedgerRow| immediate(r) && heavy(r);
        let split = || self.requests.iter().filter_map(|r| Some((r, r.layers?)));
        let flit_split = || split().filter(|(r, _)| r.policy == PolicyKind::FlitHt);
        vec![
            claim(
                "Figures 7-9",
                "FliT never pays more pwbs/op than plain",
                self.rows_where(|r| immediate(r) && is_flit(r.policy))
                    .filter_map(|r| {
                        let plain = self.twin(r, |t| t.policy = PolicyKind::Plain)?;
                        (r.pwbs > plain.pwbs).then(|| broken(&[r, plain]))
                    }),
            ),
            claim(
                "Figure 7",
                "manual <= NVTraverse <= automatic, in pwbs/op and in pfences/op",
                self.rows_where(|r| r.method == MethodKind::NvTraverse)
                    .filter_map(|nvt| {
                        let manual = self.twin(nvt, |t| t.method = MethodKind::Manual)?;
                        let auto = self.twin(nvt, |t| t.method = MethodKind::Automatic)?;
                        let rows = [manual, nvt, auto];
                        let ordered =
                            |f: fn(&LedgerRow) -> u64| rows.windows(2).all(|w| f(w[0]) <= f(w[1]));
                        (!(ordered(|r| r.pwbs) && ordered(|r| r.pfences))).then(|| broken(&rows))
                    }),
            ),
            // The skiplist is the one structure where adjacent pays more pwbs
            // than hashed; the cause is not traced, so the claim bounds it at 10 %.
            claim(
                "Figures 7, 9",
                "flit-adjacent ~ flit-HT: equal pfences/op; equal pwbs/op but on the skiplist, \
                 where adjacent pays at most 10% more",
                self.rows_where(|r| immediate(r) && r.policy == PolicyKind::FlitAdjacent)
                    .filter_map(|adj| {
                        let ht = self.twin(adj, |t| t.policy = PolicyKind::FlitHt)?;
                        let pwbs_ok = if adj.structure == StructureKind::SkipList {
                            10 * adj.pwbs <= 11 * ht.pwbs
                        } else {
                            adj.pwbs == ht.pwbs
                        };
                        (!pwbs_ok || adj.pfences != ht.pfences).then(|| broken(&[adj, ht]))
                    }),
            ),
            claim(
                "Figure 5",
                "one handle reads no tagged word under Immediate at any table size; \
                 under Batched(8) a 64B table reads more than a 1MB one",
                self.rows_where(|r| immediate(r) && is_flit(r.policy) && r.read_side_pwbs != 0)
                    .map(|r| broken(&[r]))
                    .chain(
                        self.rows_where(|r| {
                            r.commit.is_batched()
                                && (r.policy, r.table_bytes) == (PolicyKind::FlitHt, 64)
                        })
                        .filter_map(|small| {
                            let large = self.twin(small, |t| t.table_bytes = LEDGER_TABLE)?;
                            (small.read_side_pwbs <= large.read_side_pwbs)
                                .then(|| broken(&[small, large]))
                        }),
                    ),
            ),
            claim(
                "queue family",
                "dequeue-of-empty: plain pays 3 pwbs/op (manual 1), FliT none",
                self.rows_where(|r| r.structure == StructureKind::MsQueue)
                    .filter(|r| match (r.policy, r.method) {
                        (PolicyKind::Plain, MethodKind::Automatic) => r.pwbs != 3 * r.ops,
                        (PolicyKind::Plain, MethodKind::Manual) => r.pwbs != r.ops,
                        (p, _) => is_flit(p) && r.pwbs != 0,
                    })
                    .map(|r| broken(&[r])),
            ),
            claim(
                "MOD (HAMT)",
                "HAMT: FliT pays exactly 2 pfences per successful update at every key count, \
                 plain >= 1 pfence/op",
                self.rows_where(|r| immediate(r) && r.structure == hamt)
                    .filter(|r| match r.policy {
                        PolicyKind::Plain => r.pfences < r.ops,
                        p => is_flit(p) && r.pfences != 2 * r.updates_ok,
                    })
                    .map(|r| broken(&[r])),
            ),
            // Ratios are compared cross-multiplied, so the claim stays exact.
            claim(
                "MOD (HAMT depth)",
                "HAMT: pwbs/op grow with the key count, and the in-place structures pay more \
                 pfences per pwb",
                self.rows_where(|r| depth(r) && r.structure == hamt)
                    .flat_map(|deep| {
                        let shallower = self
                            .rows_where(|r| depth(r) && r.structure == hamt && r.keys < deep.keys)
                            .filter(|s| s.pwbs * deep.ops >= deep.pwbs * s.ops)
                            .map(|s| broken(&[s, deep]));
                        let in_place = [StructureKind::HashTable, StructureKind::Bst]
                            .into_iter()
                            .filter_map(|structure| self.twin(deep, |t| t.structure = structure))
                            .filter(|r| r.pfences * deep.pwbs <= deep.pfences * r.pwbs)
                            .map(|r| broken(&[r, deep]));
                        shallower.chain(in_place).collect::<Vec<_>>()
                    }),
            ),
            claim(
                "group commit",
                "Batched(8) pays fewer pfences/op than Immediate at 50% updates",
                self.rows_where(|r| r.commit.is_batched()).filter_map(|b| {
                    let imm = self.twin(b, |t| t.commit = CommitMode::Immediate)?;
                    (b.pfences >= imm.pfences).then(|| broken(&[b, imm]))
                }),
            ),
            claim(
                "request path",
                "the request path's layers sum to pump's total, to the count",
                split()
                    .filter(|(r, layers)| {
                        let mut sum = Counts::default();
                        layers.iter().for_each(|&l| sum += l);
                        sum != r.pump
                    })
                    .map(|(r, _)| broken(&[r])),
            ),
            claim(
                "request path",
                "flit-HT's apply layer pays at most 2 pfences per update request, none without \
                 updates",
                flit_split()
                    .filter(|(r, l)| l[Layer::Apply as usize].pfences > 2 * r.updates)
                    .map(|(r, _)| broken(&[r])),
            ),
            claim(
                "request path",
                "plain pays more pwbs per request than flit-HT",
                flit_split().filter_map(|(flit, _)| {
                    let plain = self.immediate_twin(flit, PolicyKind::Plain)?;
                    (plain.pump.pwbs <= flit.pump.pwbs).then(|| broken(&[plain, flit]))
                }),
            ),
            claim(
                "request path",
                "flit-HT's mailbox (post + take) pays exactly 4 pfences per request",
                flit_split()
                    .filter(|(r, l)| {
                        l[Layer::Post as usize].pfences + l[Layer::Take as usize].pfences
                            != 4 * r.requests
                    })
                    .map(|(r, _)| broken(&[r])),
            ),
            claim(
                "request path",
                "Batched(8) pays fewer pfences per request than Immediate at 50% updates",
                self.requests
                    .iter()
                    .filter(|r| r.commit.is_batched())
                    .filter_map(|b| {
                        let imm = self.immediate_twin(b, b.policy)?;
                        (b.pump.pfences >= imm.pump.pfences).then(|| broken(&[b, imm]))
                    }),
            ),
        ]
    }
}

/// Measure the ledger: single-handle runs without modelled latency, each on
/// its own fresh database, with the workload's fixed seed.
///
/// * every structure × applicable method × persistent policy × {0, 5, 50} %
///   updates (Figures 7–9; the HAMT is its own method);
/// * flit-HT with a 64 B, 4 KB, 64 KB, 1 MB and 16 MB table on each in-place
///   structure at 50 % updates, under `Immediate` and `Batched(8)` (Figure 5: the
///   write-heavy end, where a batch leaves the most words tagged), and the
///   HAMT's `Batched(8)` row at 1 MB (group commit);
/// * the HAMT, hash table and BST at the large key range (depth);
/// * dequeue-of-empty on the queue under both of its methods;
/// * the request path: flit-HT (64 KB) and plain at {0, 5, 50} % updates, and
///   flit-HT under `Batched(8)` at 50 % (through `pump` only).
pub fn ledger(scale: &Scale) -> Ledger {
    let mut rows = Vec::new();
    // An inapplicable subject (link-and-persist on the BST, a traversal method
    // on the HAMT) measures to `None` and adds no row.
    let mut add = |subject, table_bytes, keys, updates, commit| {
        let row = LedgerRow::measure(subject, table_bytes, commit, keys, updates, scale.ops);
        rows.extend(row);
    };
    let immediate = CommitMode::Immediate;
    for structure in LEDGER_STRUCTURES {
        let keys = small_key_range(scale, structure);
        for method in MethodKind::CORRECT {
            for policy in LEDGER_POLICIES {
                let subject = Subject::new(structure, method, policy);
                for updates in [0, 5, 50] {
                    add(subject, LEDGER_TABLE, keys, updates, immediate);
                }
            }
        }
    }
    let (heavy, _, heavy_updates) = WRITE_HEAVY;
    for structure in LEDGER_STRUCTURES {
        let keys = small_key_range(scale, structure);
        let subject = Subject::new(structure, MethodKind::Automatic, heavy);
        let tables: &[usize] = match structure {
            StructureKind::Hamt => &[LEDGER_TABLE],
            _ => &LEDGER_TABLE_BYTES,
        };
        for &bytes in tables {
            for commit in [immediate, CommitMode::Batched(LEDGER_BATCH)] {
                // The ledger's own table under `Immediate` is a Figure 7 row.
                if (bytes, commit) != (LEDGER_TABLE, immediate) {
                    add(subject, bytes, keys, heavy_updates, commit);
                }
            }
        }
    }
    for structure in [
        StructureKind::Hamt,
        StructureKind::HashTable,
        StructureKind::Bst,
    ] {
        let subject = Subject::new(structure, MethodKind::Automatic, heavy);
        let keys = scale.large_keys;
        add(subject, LEDGER_TABLE, keys, heavy_updates, immediate);
    }
    for method in QUEUE_METHODS {
        for policy in LEDGER_POLICIES {
            // No enqueues: every operation finds the queue empty.
            let subject = Subject::new(StructureKind::MsQueue, method, policy);
            add(subject, LEDGER_TABLE, 0, 0, immediate);
        }
    }

    let batched = CommitMode::Batched(LEDGER_BATCH);
    let requests = [0, 5, 50]
        .into_iter()
        .flat_map(|updates| {
            [PolicyKind::FlitHt, PolicyKind::Plain].map(|policy| (policy, updates, immediate))
        })
        .chain([(PolicyKind::FlitHt, heavy_updates, batched)])
        .map(|(policy, update_percent, commit)| {
            let cfg = ServiceConfig::new(scale.small_keys, update_percent, scale.ops);
            let stream = service_history(&cfg);
            let path = RequestPath {
                prefill: prefill_history(&cfg).iter().map(op_of).collect(),
                slab: stream.iter().map(|op| op_of(op).encode()).collect(),
                keys: cfg.key_range,
                commit,
            };
            let (pump, layers) = policy.visit(SERVER_TABLE, path);
            let gets = stream.iter().filter(|op| matches!(op, MapOp::Get(_)));
            RequestRow {
                policy,
                commit,
                keys: cfg.key_range,
                update_percent,
                requests: stream.len() as u64,
                updates: (stream.len() - gets.count()) as u64,
                pump,
                layers,
            }
        })
        .collect();
    Ledger { rows, requests }
}

/// The hash-table server of the request path.
type Server<P> = KvServer<P, HashTable<P, Automatic>>;

/// One request-path row's two drives, run by [`PolicyKind::visit`].
struct RequestPath {
    /// The routed `Put`s that fill the map before a drive.
    prefill: Vec<Op>,
    /// The encoded requests; request `i`'s token is `i`.
    slab: Vec<Vec<u8>>,
    keys: u64,
    commit: CommitMode,
}

/// The counters of every shard's backend, summed.
fn counts<P: Policy>(server: &Server<P>) -> Counts {
    let mut sum = Counts::default();
    for shard in server.shards() {
        let s = shard.db().stats_snapshot().unwrap_or_default();
        sum += Counts {
            pwbs: s.pwbs,
            pfences: s.pfences,
        };
    }
    sum
}

impl RequestPath {
    /// Build a fresh server, prefill it through the shards' direct path, and
    /// return the counts `drive` adds on it with one handle per shard.
    fn serve<P: Policy<Backend = SimNvram>>(
        &self,
        make: &impl Fn(SimNvram) -> P,
        drive: impl FnOnce(&Server<P>, &[FlitHandle<'_, P>]),
    ) -> Counts {
        let config = ServerConfig::new(SERVER_SHARDS, self.keys as usize);
        let server: Server<P> = KvServer::new_with(config, |_| {
            FlitDb::builder(make(SimNvram::for_counting()))
                .commit_mode(self.commit)
                .build()
        });
        let handles = server.handles();
        for op in &self.prefill {
            let sid = server.route(op.key().expect("prefill is data requests"));
            server.shard(sid).apply(&handles[sid], op);
        }
        let start = counts(&server);
        drive(&server, &handles);
        counts(&server) - start
    }
}

impl PolicyVisitor for RequestPath {
    type Output = (Counts, Option<[Counts; 6]>);

    /// Drive the slab through `pump` on one server, then, under `Immediate`,
    /// walk it through `pump`'s public steps on a second, cutting the counts at
    /// every layer.
    fn visit<P: Policy<Backend = SimNvram>>(self, make: impl Fn(SimNvram) -> P) -> Self::Output {
        let slab = &self.slab;
        let pump = self.serve(&make, |server, handles| {
            for token in 0..slab.len() as u64 {
                let (served, _) = server.pump(handles, slab, token).expect("data requests");
                assert_eq!(served, token, "one worker is served in order");
            }
        });
        if self.commit.is_batched() {
            return (pump, None);
        }
        let mut layers = [Counts::default(); 6];
        self.serve(&make, |server, handles| {
            let mut mark = counts(server);
            let mut cut = |layer: Layer| {
                let now = counts(server);
                layers[layer as usize] += now - mark;
                mark = now;
            };
            for (token, bytes) in slab.iter().enumerate() {
                let op = Op::decode(bytes).expect("well-formed request");
                cut(Layer::Decode);
                let sid = server.route(op.key().expect("data request"));
                cut(Layer::Route);
                let (shard, h) = (server.shard(sid), &handles[sid]);
                shard.post(h, token as u64);
                cut(Layer::Post);
                let served = shard.take(h).expect("one worker finds its own token");
                assert_eq!(served, token as u64, "one worker is served in order");
                let op = Op::decode(&slab[served as usize]).expect("well-formed request");
                cut(Layer::Take);
                let reply = shard.apply(h, &op);
                cut(Layer::Apply);
                let _ = reply.encode();
                cut(Layer::Encode);
            }
        });
        (pump, Some(layers))
    }
}
