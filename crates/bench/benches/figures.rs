//! Criterion wrapper around a miniature version of the Figure 7 comparison, useful
//! for regression-tracking the end-to-end benefit of FliT (plain vs flit-HT vs
//! non-persistent) with the Optane-like latency model enabled.
//!
//! The paper's claims are checked as instruction counts by `repro -- ledger`; this
//! bench times a tiny workload so `cargo bench --workspace` stays fast.

use criterion::{criterion_group, criterion_main, Criterion};
use flit_pmem::{CommitMode, ElisionMode, LatencyModel};
use flit_workload::{run_case, Case, DsKind, DurKind, PolicyKind, WorkloadConfig};

fn mini_case(ds: DsKind, policy: PolicyKind) -> Case {
    Case {
        ds,
        dur: DurKind::Automatic,
        policy,
        config: WorkloadConfig::new(512, 5, 2, 300),
        latency: LatencyModel::optane(),
        elision: ElisionMode::default(),
        commit: CommitMode::Immediate,
    }
}

fn bench_figures(c: &mut Criterion) {
    let mut group = c.benchmark_group("figure7-mini");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.measurement_time(std::time::Duration::from_secs(1));

    for ds in [DsKind::Bst, DsKind::List] {
        for policy in [
            PolicyKind::NoPersist,
            PolicyKind::Plain,
            PolicyKind::FlitHt(1 << 20),
        ] {
            let case = mini_case(ds, policy);
            let label = case.label();
            group.bench_function(&label, |b| b.iter(|| run_case(&case)));
        }
    }
    group.finish();
}

criterion_group!(benches, bench_figures);
criterion_main!(benches);
