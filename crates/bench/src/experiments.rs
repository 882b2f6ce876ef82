//! Experiment definitions for Figures 5–9 of the paper, shared by the `repro` binary
//! and the Criterion benches.
//!
//! Every function returns plain data (`Row`s) so callers can print, assert on, or
//! serialise the results. The hardware of the reproduction environment differs wildly
//! from the paper's 48-core Optane machine (see the README's "Why a simulated
//! backend"), so the *absolute* numbers are not comparable; the functions exist to
//! reproduce the *relationships* the paper reports: who wins, by roughly what factor,
//! and where the crossovers are.

use flit_obs::LatencyHistogram;
use flit_pmem::{CommitMode, ElisionMode, LatencyModel};
use flit_workload::{
    run_case, run_case_observed, run_hamt_case_observed, run_queue_case, Case, DsKind, DurKind,
    HamtCase, PolicyKind, QueueCase, QueueWorkloadConfig, WorkloadConfig, QUEUE_DURS,
};

/// How big to make each experiment.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Threads used for the "44 thread" experiments of the paper.
    pub threads: usize,
    /// Operations per thread per measured case.
    pub ops_per_thread: u64,
    /// Key range for the "10K keys" structures.
    pub small_keys: u64,
    /// Key range for the "10M keys" structures (scaled down).
    pub large_keys: u64,
    /// Key range for the small linked list (128 in the paper).
    pub list_small_keys: u64,
    /// Key range for the large linked list (4K in the paper).
    pub list_large_keys: u64,
    /// Thread counts swept in the scalability experiment (Figure 6).
    pub thread_sweep: &'static [usize],
    /// Hash-table sizes swept in Figure 5 (bytes).
    pub ht_sizes: &'static [usize],
}

/// Fast settings for the single-core container this reproduction runs in.
pub const SCALE_QUICK: Scale = Scale {
    threads: 4,
    ops_per_thread: 4_000,
    small_keys: 10_000,
    large_keys: 100_000,
    list_small_keys: 128,
    list_large_keys: 4_096,
    thread_sweep: &[1, 2, 4, 8],
    ht_sizes: &[4 << 10, 64 << 10, 1 << 20, 16 << 20],
};

/// Settings closer to the paper's (use on a large multi-core machine).
pub const SCALE_FULL: Scale = Scale {
    threads: 44,
    ops_per_thread: 100_000,
    small_keys: 10_000,
    large_keys: 10_000_000,
    list_small_keys: 128,
    list_large_keys: 4_096,
    thread_sweep: &[1, 2, 4, 8, 16, 32, 44],
    ht_sizes: &[4 << 10, 64 << 10, 1 << 20, 16 << 20, 64 << 20],
};

/// One measured data point.
#[derive(Debug, Clone)]
pub struct Row {
    /// Label of the series (e.g. the policy variant).
    pub series: String,
    /// Label of the x-axis point (e.g. thread count, update ratio).
    pub x: String,
    /// Throughput in Mops/s.
    pub mops: f64,
    /// pwb instructions per operation.
    pub pwbs_per_op: f64,
    /// pfence instructions per operation.
    pub pfences_per_op: f64,
}

fn case(ds: DsKind, dur: DurKind, policy: PolicyKind, cfg: WorkloadConfig) -> Case {
    Case {
        ds,
        dur,
        policy,
        config: cfg,
        latency: LatencyModel::optane(),
        elision: ElisionMode::default(),
        commit: CommitMode::Immediate,
    }
}

fn measure(c: &Case, series: String, x: String) -> Row {
    let r = run_case(c);
    Row {
        series,
        x,
        mops: r.mops,
        pwbs_per_op: r.pwbs_per_op(),
        pfences_per_op: r.pfences_per_op(),
    }
}

/// Figure 5: flit-HT size tuning on the automatic BST (10K keys) at 0/5/50% updates.
pub fn figure5(scale: &Scale) -> Vec<Row> {
    let mut rows = Vec::new();
    for &updates in &[0u32, 5, 50] {
        for &bytes in scale.ht_sizes {
            let cfg = WorkloadConfig::new(
                scale.small_keys,
                updates,
                scale.threads,
                scale.ops_per_thread,
            );
            let c = case(
                DsKind::Bst,
                DurKind::Automatic,
                PolicyKind::FlitHt(bytes),
                cfg,
            );
            rows.push(measure(
                &c,
                format!("{}% updates", updates),
                flit::human_bytes(bytes),
            ));
        }
    }
    rows
}

/// Figure 6: thread scalability of the automatic BST (10K keys, 5% updates) for
/// non-persistent, plain, flit-HT (1MB) and flit-adjacent.
pub fn figure6(scale: &Scale) -> Vec<Row> {
    let variants = [
        PolicyKind::NoPersist,
        PolicyKind::Plain,
        PolicyKind::FlitHt(1 << 20),
        PolicyKind::FlitAdjacent,
    ];
    let mut rows = Vec::new();
    for &threads in scale.thread_sweep {
        for policy in variants {
            let cfg = WorkloadConfig::new(scale.small_keys, 5, threads, scale.ops_per_thread);
            let c = case(DsKind::Bst, DurKind::Automatic, policy, cfg);
            rows.push(measure(&c, policy.name(), threads.to_string()));
        }
    }
    rows
}

fn small_key_range(scale: &Scale, ds: DsKind) -> u64 {
    if ds == DsKind::List {
        scale.list_small_keys
    } else {
        scale.small_keys
    }
}

fn large_key_range(scale: &Scale, ds: DsKind) -> u64 {
    if ds == DsKind::List {
        scale.list_large_keys
    } else {
        scale.large_keys
    }
}

/// Figure 7: all four structures × three durability methods × the applicable
/// variants, 5% updates, small sizes. The non-persistent baseline is included as its
/// own series (the dotted line of the paper's bar charts).
pub fn figure7(scale: &Scale) -> Vec<Row> {
    let mut rows = Vec::new();
    for ds in DsKind::ALL {
        let keys = small_key_range(scale, ds);
        let cfg = || WorkloadConfig::new(keys, 5, scale.threads, scale.ops_per_thread);
        let baseline = case(ds, DurKind::Automatic, PolicyKind::NoPersist, cfg());
        rows.push(measure(
            &baseline,
            ds.name().to_string(),
            "non-persistent".into(),
        ));
        for dur in DurKind::ALL {
            for policy in PolicyKind::figure7_set(ds) {
                let c = case(ds, dur, policy, cfg());
                rows.push(measure(
                    &c,
                    ds.name().to_string(),
                    format!("{}/{}", dur.name(), policy.name()),
                ));
            }
        }
    }
    rows
}

/// Figure 8: update-ratio sweep (0/5/50%) for every structure at two sizes, automatic
/// durability, normalised to the non-persistent baseline by the caller (the raw Mops
/// are returned; the baseline series is included).
pub fn figure8(scale: &Scale, large: bool) -> Vec<Row> {
    let variants = [
        PolicyKind::NoPersist,
        PolicyKind::Plain,
        PolicyKind::FlitAdjacent,
        PolicyKind::FlitHt(1 << 20),
        PolicyKind::LinkAndPersist,
    ];
    let mut rows = Vec::new();
    for ds in DsKind::ALL {
        let keys = if large {
            large_key_range(scale, ds)
        } else {
            small_key_range(scale, ds)
        };
        for &updates in &[0u32, 5, 50] {
            for policy in variants {
                if !policy.applicable_to(ds) {
                    continue;
                }
                let cfg = WorkloadConfig::new(keys, updates, scale.threads, scale.ops_per_thread);
                let c = case(ds, DurKind::Automatic, policy, cfg);
                rows.push(measure(
                    &c,
                    format!("{}/{}", ds.name(), policy.name()),
                    format!("{}%", updates),
                ));
            }
        }
    }
    rows
}

/// Figure 9: pwb instructions per operation for the hash table (10K keys) and the
/// linked list (128 keys) at 5% updates, across the persistence variants.
pub fn figure9(scale: &Scale) -> Vec<Row> {
    let variants = [
        PolicyKind::Plain,
        PolicyKind::FlitAdjacent,
        PolicyKind::FlitHt(1 << 20),
        PolicyKind::LinkAndPersist,
    ];
    let mut rows = Vec::new();
    for (ds, dur) in [
        (DsKind::HashTable, DurKind::Automatic),
        (DsKind::List, DurKind::Automatic),
        (DsKind::HashTable, DurKind::NvTraverse),
        (DsKind::List, DurKind::NvTraverse),
    ] {
        let keys = small_key_range(scale, ds);
        for policy in variants {
            let cfg = WorkloadConfig::new(keys, 5, scale.threads, scale.ops_per_thread);
            let c = case(ds, dur, policy, cfg);
            rows.push(measure(
                &c,
                format!("{}/{}", ds.name(), dur.name()),
                policy.name(),
            ));
        }
    }
    rows
}

/// One record of the machine-readable benchmark baseline (`BENCH_flit.json`).
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// Structure key (`bst`, `hashtable`, `list`, `skiplist`, `hamt`).
    pub structure: String,
    /// Key range of the workload the record was measured on (the depth-sweep
    /// rows vary this; the baseline rows use the structure's small size).
    pub keys: u64,
    /// Policy label (e.g. `flit-HT (1MB)`).
    pub policy: String,
    /// Durability method key.
    pub durability: String,
    /// Persist-epoch elision mode of the run (`on` / `off`).
    pub elision: &'static str,
    /// Durability commit mode of the run (`immediate` / `batched-<k>`).
    pub commit: String,
    /// Update percentage of the workload the record was measured on (the
    /// read-mostly baseline and the write-heavy group-commit rows differ).
    pub update_percent: u32,
    /// Throughput in Mops/s (machine-dependent; tracked for trend, not truth).
    pub mops: f64,
    /// `pwb` instructions per operation (deterministic up to scheduling).
    pub pwbs_per_op: f64,
    /// `pfence` instructions per operation.
    pub pfences_per_op: f64,
    /// Fences skipped by elision, per operation.
    pub elided_pfences_per_op: f64,
    /// Median per-operation latency in nanoseconds (log₂-bucketed; see
    /// [`LatencyHistogram`]).
    pub p50_ns: u64,
    /// 99th-percentile per-operation latency in nanoseconds.
    pub p99_ns: u64,
}

/// The update percentage of the benchmark baseline: the read-mostly (95% lookup)
/// map workload where fence elision matters most.
pub const BENCH_UPDATE_PERCENT: u32 = 5;

/// The update percentage of the group-commit A/B rows: write-heavy, where the
/// trailing-fence amortisation of [`CommitMode::Batched`] is visible.
pub const BENCH_GROUP_COMMIT_UPDATE_PERCENT: u32 = 50;

/// The batch size `k` the baseline's batched rows run with.
pub const BENCH_GROUP_COMMIT_BATCH: usize = 8;

/// Measure one fully specified case and capture it as a baseline record.
fn bench_record(c: &Case) -> BenchRecord {
    let hist = LatencyHistogram::new();
    let observe = |ns: u64| hist.record(ns);
    let r = run_case_observed(c, Some(&observe));
    BenchRecord {
        structure: c.ds.name().to_string(),
        keys: c.config.key_range,
        policy: c.policy.name(),
        durability: c.dur.name().to_string(),
        elision: c.elision.name(),
        commit: c.commit.name(),
        update_percent: c.config.update_percent,
        mops: r.mops,
        pwbs_per_op: r.pwbs_per_op(),
        pfences_per_op: r.pfences_per_op(),
        elided_pfences_per_op: r.pmem.elided_pfences as f64 / r.total_ops as f64,
        p50_ns: hist.p50(),
        p99_ns: hist.p99(),
    }
}

/// [`bench_record`] for the copy-on-write HAMT, whose case has no
/// durability-method axis (the `durability` column reads `cow`).
fn bench_hamt_record(c: &HamtCase) -> BenchRecord {
    let hist = LatencyHistogram::new();
    let observe = |ns: u64| hist.record(ns);
    let r = run_hamt_case_observed(c, Some(&observe));
    BenchRecord {
        structure: "hamt".to_string(),
        keys: c.config.key_range,
        policy: c.policy.name(),
        durability: "cow".to_string(),
        elision: c.elision.name(),
        commit: c.commit.name(),
        update_percent: c.config.update_percent,
        mops: r.mops,
        pwbs_per_op: r.pwbs_per_op(),
        pfences_per_op: r.pfences_per_op(),
        elided_pfences_per_op: r.pmem.elided_pfences as f64 / r.total_ops as f64,
        p50_ns: hist.p50(),
        p99_ns: hist.p99(),
    }
}

/// The benchmark baseline behind `BENCH_flit.json`: every map structure × the four
/// persistent policy variants × both elision modes on the read-mostly (95/5)
/// workload with automatic durability, plus a group-commit A/B pair per structure
/// on the write-heavy (50/50) workload. The elision A/B pair per (structure,
/// policy) makes the per-op instruction savings of persist-epoch elision
/// machine-readable; the immediate/batched pair does the same for the trailing
/// fences amortised by [`CommitMode::Batched`].
pub fn bench_baseline(scale: &Scale) -> Vec<BenchRecord> {
    let variants = [
        PolicyKind::Plain,
        PolicyKind::FlitAdjacent,
        PolicyKind::FlitHt(1 << 20),
        PolicyKind::LinkAndPersist,
    ];
    let mut records = Vec::new();
    for ds in DsKind::ALL {
        let keys = small_key_range(scale, ds);
        for policy in variants {
            if !policy.applicable_to(ds) {
                continue;
            }
            for elision in [ElisionMode::Enabled, ElisionMode::Disabled] {
                let c = Case {
                    ds,
                    dur: DurKind::Automatic,
                    policy,
                    config: WorkloadConfig::new(
                        keys,
                        BENCH_UPDATE_PERCENT,
                        scale.threads,
                        scale.ops_per_thread,
                    ),
                    latency: LatencyModel::optane(),
                    elision,
                    commit: CommitMode::Immediate,
                };
                records.push(bench_record(&c));
            }
        }
    }
    // The copy-on-write HAMT rides the same policy × elision grid — its `cow`
    // durability column marks that the discipline is the structure's own, not
    // a method axis. Its root is a p-word of the policy, so the rows differ
    // the way the paper says they should: plain flushes and fences every
    // lookup, the FliT variants only the published updates.
    for policy in variants {
        for elision in [ElisionMode::Enabled, ElisionMode::Disabled] {
            let c = HamtCase {
                policy,
                config: WorkloadConfig::new(
                    scale.small_keys,
                    BENCH_UPDATE_PERCENT,
                    scale.threads,
                    scale.ops_per_thread,
                ),
                latency: LatencyModel::optane(),
                elision,
                commit: CommitMode::Immediate,
            };
            records.push(bench_hamt_record(&c));
        }
    }
    // Group-commit A/B: per-operation durability vs `Batched(k)` on the
    // write-heavy mix, where the deferred trailing fences dominate. flit-HT is
    // the policy whose tag scheme supports deferred store closes, so it is the
    // pair where the amortisation shows.
    for ds in DsKind::ALL {
        let keys = small_key_range(scale, ds);
        for commit in [
            CommitMode::Immediate,
            CommitMode::Batched(BENCH_GROUP_COMMIT_BATCH),
        ] {
            let c = Case {
                ds,
                dur: DurKind::Automatic,
                policy: PolicyKind::FlitHt(1 << 20),
                config: WorkloadConfig::new(
                    keys,
                    BENCH_GROUP_COMMIT_UPDATE_PERCENT,
                    scale.threads,
                    scale.ops_per_thread,
                ),
                latency: LatencyModel::optane(),
                elision: ElisionMode::Enabled,
                commit,
            };
            records.push(bench_record(&c));
        }
    }
    for commit in [
        CommitMode::Immediate,
        CommitMode::Batched(BENCH_GROUP_COMMIT_BATCH),
    ] {
        let c = HamtCase {
            policy: PolicyKind::FlitHt(1 << 20),
            config: WorkloadConfig::new(
                scale.small_keys,
                BENCH_GROUP_COMMIT_UPDATE_PERCENT,
                scale.threads,
                scale.ops_per_thread,
            ),
            latency: LatencyModel::optane(),
            elision: ElisionMode::Enabled,
            commit,
        };
        records.push(bench_hamt_record(&c));
    }
    records
}

/// The key counts of the depth sweep behind the HAMT's flat-fence-cost claim:
/// three decades of trie depth (1k keys ≈ 3 levels, 1M keys ≈ 5).
pub const BENCH_DEPTH_KEYS: [u64; 2] = [1_000, 1_000_000];

/// The key-depth sweep (`BENCH_flit.json`'s varying-`keys` rows): the HAMT,
/// the flit-HT hash table and the BST on the same update-heavy workload at
/// each key count in `keys`. The claim the rows make machine-readable is the
/// MOD discipline's fence decoupling: the HAMT's **pwbs/op grows** with the
/// key count (a deeper trie means a longer copied path, every node of which
/// is written back) while its **pfences/op stays flat** — the whole path
/// rides under one pre-publish fence no matter how long it gets. The in-place
/// structures fence roughly once per write-back (their pfences-per-pwb ratio
/// stays near one at every size), so the HAMT's fences-per-pwb ratio sits
/// strictly below theirs and keeps falling as the trie deepens.
pub fn bench_depth_sweep(scale: &Scale, keys: &[u64]) -> Vec<BenchRecord> {
    let mut records = Vec::new();
    for &key_range in keys {
        let cfg = WorkloadConfig::new(
            key_range,
            BENCH_GROUP_COMMIT_UPDATE_PERCENT,
            scale.threads,
            scale.ops_per_thread,
        );
        records.push(bench_hamt_record(&HamtCase {
            policy: PolicyKind::FlitHt(1 << 20),
            config: cfg.clone(),
            latency: LatencyModel::optane(),
            elision: ElisionMode::Enabled,
            commit: CommitMode::Immediate,
        }));
        for ds in [DsKind::HashTable, DsKind::Bst] {
            records.push(bench_record(&Case {
                ds,
                dur: DurKind::Automatic,
                policy: PolicyKind::FlitHt(1 << 20),
                config: cfg.clone(),
                latency: LatencyModel::optane(),
                elision: ElisionMode::Enabled,
                commit: CommitMode::Immediate,
            }));
        }
    }
    records
}

/// The policy variants swept by the queue experiments (every one applies to the
/// queue; the non-persistent baseline is reported as its own series).
const QUEUE_POLICIES: [PolicyKind; 5] = [
    PolicyKind::NoPersist,
    PolicyKind::Plain,
    PolicyKind::FlitAdjacent,
    PolicyKind::FlitHt(1 << 20),
    PolicyKind::LinkAndPersist,
];

fn queue_case(dur: DurKind, policy: PolicyKind, config: QueueWorkloadConfig) -> QueueCase {
    QueueCase {
        dur,
        policy,
        config,
        latency: LatencyModel::optane(),
        elision: ElisionMode::default(),
        commit: CommitMode::Immediate,
    }
}

fn measure_queue(c: &QueueCase, series: String, x: String) -> Row {
    let r = run_queue_case(c);
    Row {
        series,
        x,
        mops: r.mops,
        pwbs_per_op: r.pwbs_per_op(),
        pfences_per_op: r.pfences_per_op(),
    }
}

/// Queue experiment A: balanced 50/50 enqueue/dequeue mix across every policy
/// variant and both exercised durability methods, with the pwb/pfence cost per queue
/// operation as the headline columns.
pub fn queue_mix(scale: &Scale) -> Vec<Row> {
    let mut rows = Vec::new();
    for dur in QUEUE_DURS {
        for policy in QUEUE_POLICIES {
            let cfg = QueueWorkloadConfig::mixed(scale.threads, 50, scale.ops_per_thread)
                .with_prefill(scale.small_keys / 2);
            let c = queue_case(dur, policy, cfg);
            let series = format!("{}/{}", c.config.shape_label(), dur.name());
            rows.push(measure_queue(&c, series, policy.name()));
        }
    }
    rows
}

/// Queue experiment B: producer:consumer thread ratios (1:1 balanced, 3:1
/// producer-heavy, 1:3 consumer-heavy) with bursty producers, automatic durability.
pub fn queue_producer_consumer(scale: &Scale) -> Vec<Row> {
    // All three ratios run at (close to) the configured thread count so their
    // throughput is comparable; `.max(1)` keeps tiny scales valid.
    let half = (scale.threads / 2).max(1);
    let quarter = (scale.threads / 4).max(1);
    let ratios = [(half, half), (3 * quarter, quarter), (quarter, 3 * quarter)];
    let mut rows = Vec::new();
    for (producers, consumers) in ratios {
        for policy in QUEUE_POLICIES {
            let cfg =
                QueueWorkloadConfig::producer_consumer(producers, consumers, scale.ops_per_thread)
                    .with_burst(16)
                    .with_prefill(scale.small_keys / 2);
            let c = queue_case(DurKind::Automatic, policy, cfg);
            let label = c.config.shape_label();
            rows.push(measure_queue(&c, label, policy.name()));
        }
    }
    rows
}

/// Queue experiment C: dequeue-of-empty — a pure read-side workload where FliT's
/// elision is total. Plain pays a pwb per p-load (three per empty dequeue under
/// automatic durability); the FliT variants pay none because nothing is ever tagged.
pub fn queue_dequeue_empty(scale: &Scale) -> Vec<Row> {
    let mut rows = Vec::new();
    for policy in QUEUE_POLICIES {
        // enqueue_percent 0 + no prefill: every operation observes an empty queue.
        let cfg = QueueWorkloadConfig::mixed(scale.threads, 0, scale.ops_per_thread);
        let c = queue_case(DurKind::Automatic, policy, cfg);
        rows.push(measure_queue(
            &c,
            "dequeue-empty/automatic".into(),
            policy.name(),
        ));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature scale so the experiment plumbing can be exercised in unit tests.
    const SCALE_TEST: Scale = Scale {
        threads: 2,
        ops_per_thread: 200,
        small_keys: 256,
        large_keys: 512,
        list_small_keys: 64,
        list_large_keys: 128,
        thread_sweep: &[1, 2],
        ht_sizes: &[4 << 10, 64 << 10],
    };

    #[test]
    fn figure5_produces_the_expected_grid() {
        let rows = figure5(&SCALE_TEST);
        assert_eq!(rows.len(), 3 * SCALE_TEST.ht_sizes.len());
        assert!(rows.iter().all(|r| r.mops > 0.0));
    }

    #[test]
    fn figure6_covers_every_thread_count_and_variant() {
        let rows = figure6(&SCALE_TEST);
        assert_eq!(rows.len(), SCALE_TEST.thread_sweep.len() * 4);
    }

    #[test]
    fn queue_mix_covers_every_policy_and_method() {
        let rows = queue_mix(&SCALE_TEST);
        assert_eq!(rows.len(), QUEUE_DURS.len() * QUEUE_POLICIES.len());
        assert!(rows.iter().all(|r| r.mops > 0.0));
    }

    #[test]
    fn queue_dequeue_empty_shows_the_elision() {
        let rows = queue_dequeue_empty(&SCALE_TEST);
        let pwbs = |name: &str| {
            rows.iter()
                .find(|r| r.x == name)
                .map(|r| r.pwbs_per_op)
                .unwrap()
        };
        // The acceptance claim of this workload family: FliT elides every read-side
        // flush on dequeue-of-empty, plain pays one per p-load.
        assert_eq!(pwbs("flit-HT (1MB)"), 0.0);
        assert_eq!(pwbs("flit-adjacent"), 0.0);
        assert!(pwbs("plain") >= 2.0, "plain={}", pwbs("plain"));
    }

    #[test]
    fn queue_producer_consumer_sweeps_three_ratios() {
        let rows = queue_producer_consumer(&SCALE_TEST);
        assert_eq!(rows.len(), 3 * QUEUE_POLICIES.len());
        let series: std::collections::HashSet<_> = rows.iter().map(|r| &r.series).collect();
        assert_eq!(series.len(), 3, "three distinct thread ratios: {series:?}");
    }

    #[test]
    fn bench_baseline_shows_the_fence_savings() {
        let records = bench_baseline(&SCALE_TEST);
        // 4 in-place structures × 4 policies (minus lp/bst) × 2 elision modes,
        // plus the HAMT on the same 4-policy × 2-elision grid, plus the
        // write-heavy group-commit A/B pair per structure (HAMT included).
        assert_eq!(records.len(), (4 * 4 - 1) * 2 + 4 * 2 + (4 + 1) * 2);
        let get = |structure: &str, policy: &str, elision: &str| {
            records
                .iter()
                .find(|r| {
                    r.structure == structure
                        && r.policy == policy
                        && r.elision == elision
                        && r.update_percent == BENCH_UPDATE_PERCENT
                })
                .unwrap()
        };
        // The group-commit acceptance claim: on the write-heavy mix, batched
        // commit spends strictly fewer fences per operation than per-op
        // durability for every structure.
        let commit_row = |structure: &str, commit: &str| {
            records
                .iter()
                .find(|r| {
                    r.structure == structure
                        && r.commit == commit
                        && r.update_percent == BENCH_GROUP_COMMIT_UPDATE_PERCENT
                })
                .unwrap()
        };
        for structure in ["bst", "hashtable", "list", "skiplist"] {
            let immediate = commit_row(structure, "immediate");
            let batched = commit_row(structure, &format!("batched-{BENCH_GROUP_COMMIT_BATCH}"));
            assert!(
                batched.pfences_per_op < immediate.pfences_per_op,
                "{structure}: batched commit must drop pfences/op ({} vs {})",
                batched.pfences_per_op,
                immediate.pfences_per_op
            );
        }
        for structure in ["bst", "hashtable", "list", "skiplist"] {
            let on = get(structure, "flit-HT (1MB)", "on");
            let off = get(structure, "flit-HT (1MB)", "off");
            assert!(
                on.pfences_per_op < off.pfences_per_op,
                "{structure}: elision must drop pfences/op ({} vs {})",
                on.pfences_per_op,
                off.pfences_per_op
            );
            assert!(on.elided_pfences_per_op > 0.0);
            assert!(
                on.p50_ns > 0 && on.p99_ns >= on.p50_ns,
                "latency percentiles populated"
            );
            // Figure 9 invariance: the plain baseline's pwb stream is identical in
            // both modes (it opts out of read-flush dedup). Concurrent CAS retries
            // add scheduling noise, so compare with a small tolerance here; the
            // exact single-threaded identity is asserted in `tests/elision.rs`.
            let plain_on = get(structure, "plain", "on");
            let plain_off = get(structure, "plain", "off");
            let rel = (plain_on.pwbs_per_op - plain_off.pwbs_per_op).abs()
                / plain_off.pwbs_per_op.max(1e-12);
            assert!(
                rel < 0.05,
                "{structure}: plain pwbs/op changed under elision ({} vs {})",
                plain_on.pwbs_per_op,
                plain_off.pwbs_per_op
            );
        }
    }

    #[test]
    fn bench_baseline_covers_the_hamt() {
        let records = bench_baseline(&SCALE_TEST);
        let hamt: Vec<_> = records.iter().filter(|r| r.structure == "hamt").collect();
        assert_eq!(hamt.len(), 4 * 2 + 2);
        assert!(hamt.iter().all(|r| r.durability == "cow"));
        assert!(hamt.iter().all(|r| r.keys == SCALE_TEST.small_keys));
        // The root is a p-word of the policy: under FliT only published
        // updates fence (two fences each, at most every update succeeds);
        // plain still flushes and fences every lookup.
        let row = |policy: &str| {
            hamt.iter()
                .find(|r| {
                    r.policy == policy
                        && r.elision == "on"
                        && r.update_percent == BENCH_UPDATE_PERCENT
                })
                .unwrap()
        };
        let update_fraction = f64::from(BENCH_UPDATE_PERCENT) / 100.0;
        let flit = row("flit-HT (1MB)");
        assert!(
            flit.pfences_per_op <= 2.0 * update_fraction,
            "flit-HT hamt pfences/op {} exceeds two per update",
            flit.pfences_per_op
        );
        assert!(flit.pwbs_per_op < 1.0 && flit.elided_pfences_per_op > 0.9);
        let plain = row("plain");
        assert!(plain.pfences_per_op >= 1.0 && plain.pwbs_per_op >= 1.0);
    }

    #[test]
    fn depth_sweep_shows_the_hamt_fence_cost_flat() {
        // Miniature depth sweep: two decades of key-count growth. The MOD
        // fence decoupling in miniature: the HAMT's write-backs grow with the
        // copied path but its fences do not (two per published update, none
        // for a lookup), while the in-place structures fence about once per
        // write-back at every size.
        //
        // Each point keeps the quietest of three runs. Both threads read the
        // one root word, so a publisher preempted inside its tagged window
        // makes the other thread's lookups help for a whole timeslice — longer
        // than this miniature run (about one run in twenty reads 0.75–0.9
        // instead of 0.5). Interference only ever adds fences.
        let runs: Vec<_> = (0..3)
            .map(|_| bench_depth_sweep(&SCALE_TEST, &[64, 4096]))
            .collect();
        assert!(runs.iter().all(|records| records.len() == 3 * 2));
        let get = |structure: &str, keys: u64| {
            runs.iter()
                .flatten()
                .filter(|r| r.structure == structure && r.keys == keys)
                .min_by(|a, b| a.pfences_per_op.total_cmp(&b.pfences_per_op))
                .unwrap()
        };
        let (small, large) = (get("hamt", 64), get("hamt", 4096));
        let rel =
            (large.pfences_per_op - small.pfences_per_op).abs() / small.pfences_per_op.max(1e-12);
        assert!(
            rel < 0.25,
            "hamt pfences/op must be flat in key depth ({} vs {})",
            small.pfences_per_op,
            large.pfences_per_op
        );
        let update_fraction = f64::from(BENCH_GROUP_COMMIT_UPDATE_PERCENT) / 100.0;
        assert!(
            large.pfences_per_op <= 2.0 * update_fraction,
            "two fences per published update, none per lookup: {}",
            large.pfences_per_op
        );
        assert!(
            large.pwbs_per_op > small.pwbs_per_op,
            "a deeper trie copies a longer path ({} vs {} pwbs/op)",
            small.pwbs_per_op,
            large.pwbs_per_op
        );
        // One fence covers the whole copied path: the HAMT's fences-per-pwb
        // ratio must sit below the in-place structures' (which flush-and-fence
        // roughly one-for-one) at the deep end.
        let hamt_ratio = large.pfences_per_op / large.pwbs_per_op;
        for structure in ["hashtable", "bst"] {
            let inplace = get(structure, 4096);
            let ratio = inplace.pfences_per_op / inplace.pwbs_per_op.max(1e-12);
            assert!(
                ratio > hamt_ratio,
                "{structure}: fences-per-pwb {} must exceed the hamt's {}",
                ratio,
                hamt_ratio
            );
        }
    }

    #[test]
    fn figure9_reports_pwb_rates() {
        let rows = figure9(&SCALE_TEST);
        assert_eq!(rows.len(), 4 * 4);
        // plain must flush more than flit-HT on the same workload.
        let plain: f64 = rows
            .iter()
            .filter(|r| r.x == "plain" && r.series == "hashtable/automatic")
            .map(|r| r.pwbs_per_op)
            .sum();
        let flit: f64 = rows
            .iter()
            .filter(|r| r.x == "flit-HT (1MB)" && r.series == "hashtable/automatic")
            .map(|r| r.pwbs_per_op)
            .sum();
        assert!(plain > flit, "plain={plain} flit={flit}");
    }
}
