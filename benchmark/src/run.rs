//! A whole run: rounds → metrics. `--trace 0` measures the end-to-end
//! metrics; `--trace 1` runs untraced/traced round pairs on the same seed,
//! the standalone layer probes and a small traced round of each subject the
//! workload leaves idle, and reports the per-layer metrics.

use std::path::PathBuf;

use flit_hamt::Hamt;

use crate::gate::crash_gate;
use crate::probes::{self, Probes};
use crate::round::{run_round, Buffers, LatencyChunk, Mode, RoundResult, TRACE_SLICE};
use crate::spec::{Shape, Subject as SubjectKind, Workload, RATE_CHUNKS_PER_GROUP};
use crate::stats::{
    decile_spread, median, quantile_ns, quiet_high, quiet_low, quiet_quartile_high,
    quiet_quartile_low,
};
use crate::subjects::{Ht, KvSubject, MapSubject, Subject, P};
use crate::sys;
use crate::trace::{summarize, SpanName, SpanStats, Summary, Tracer};

/// What to run.
pub struct Options {
    /// The workload.
    pub workload: &'static Workload,
    /// Seed of round 0; round `r` uses `seed + r`.
    pub seed: u64,
    /// Report per-layer metrics from a traced run instead of end-to-end ones.
    pub trace: bool,
    /// One round, two groups, chunks a tenth the size.
    pub smoke: bool,
    /// Directory for pool files and the trace file.
    pub out_root: PathBuf,
}

/// One reported metric.
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The outcome of a run.
#[derive(Default)]
pub struct Report {
    /// Checks made (replies, recovered states, GC idempotence, sweeps, trace
    /// agreement).
    pub attempted: u64,
    /// Checks failed.
    pub failed: u64,
    /// The metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// What failed and what the reader should know (calibration, sweeps).
    pub notes: Vec<String>,
}

impl Report {
    fn absorb(&mut self, r: &RoundResult) {
        self.attempted += r.attempted;
        self.failed += r.failed;
        self.notes.extend(r.notes.iter().cloned());
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(what());
        }
    }

    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.check(value.is_finite(), || {
            format!("{name} is not a finite number")
        });
        self.metrics.push(Metric {
            name,
            value: if value.is_finite() { value } else { 0.0 },
            unit,
        });
    }
}

/// Run `opts` and report.
pub fn run(opts: &Options) -> Report {
    let pools = opts.out_root.join(format!("pools-{}", std::process::id()));
    let mut report = if opts.trace {
        traced_run(opts, &pools)
    } else {
        match opts.workload.subject {
            SubjectKind::HashTable => measured_run::<MapSubject<Ht>>(opts, &pools),
            SubjectKind::Hamt => measured_run::<MapSubject<Hamt<P>>>(opts, &pools),
            SubjectKind::KvService => measured_run::<KvSubject>(opts, &pools),
        }
    };
    let _ = std::fs::remove_dir_all(&pools);

    // The crash half of the gate runs last, so its tracked replays never sit
    // inside the run's peak resident set.
    let gate = crash_gate(opts.workload.subject, opts.seed);
    report.attempted += gate.attempted;
    report.failed += gate.failed;
    if gate.failed > 0 {
        report
            .notes
            .push("crash sweep: not clean, or broken control not caught".to_string());
    }
    report.notes.extend(gate.lines);
    report
}

/// The repetitions `f` picks out of each round, in one list.
fn over_rounds(rounds: &[RoundResult], f: &dyn Fn(&RoundResult) -> Vec<f64>) -> Vec<f64> {
    rounds.iter().flat_map(f).collect()
}

fn shape_of(opts: &Options) -> Shape {
    if opts.smoke {
        Shape::smoke(opts.workload)
    } else {
        Shape::measured(opts.workload)
    }
}

// ---- --trace 0: the end-to-end metrics ------------------------------------

fn measured_run<S: Subject + 'static>(opts: &Options, pools: &std::path::Path) -> Report {
    let w = opts.workload;
    let shape = shape_of(opts);
    let mut bufs = Buffers::default();
    let mut report = Report::default();
    let rounds: Vec<RoundResult> = (0..shape.rounds)
        .map(|r| {
            let dir = pools.join(format!("round-{r}"));
            let seed = opts.seed.wrapping_add(r as u64);
            run_round::<S>(w, &shape, seed, &dir, &mut bufs, Mode::Measured)
        })
        .collect();
    for r in &rounds {
        report.absorb(r);
    }

    // Within a round the value is the fast-side decile of its repetitions;
    // across rounds, the fast-side quartile (see `stats`).
    type Quiet = fn(&[f64]) -> f64;
    let across_rounds = |within: Quiet, across: Quiet, f: &dyn Fn(&RoundResult) -> Vec<f64>| {
        across(&rounds.iter().map(|r| within(&f(r))).collect::<Vec<_>>())
    };
    let all =
        |f: &dyn Fn(&RoundResult) -> Vec<f64>| -> Vec<f64> { rounds.iter().flat_map(f).collect() };
    let chunk_mops = all(&|r| r.chunk_mops.clone());
    let ops: u64 = rounds.iter().map(|r| r.ops).sum();
    let per_op =
        |f: &dyn Fn(&RoundResult) -> u64| rounds.iter().map(f).sum::<u64>() as f64 / ops as f64;
    let space_amp: Vec<f64> = rounds
        .iter()
        .map(|r| r.gauges.bytes_in_use as f64 / (r.live_pairs.max(1) * 16) as f64)
        .collect();
    let latency = |f: fn(&LatencyChunk) -> f64| {
        across_rounds(quiet_low, quiet_quartile_low, &|r| {
            r.latency.iter().map(f).collect()
        })
    };

    report.push(
        "throughput_mops",
        across_rounds(quiet_high, quiet_quartile_high, &|r| r.chunk_mops.clone()),
        "Mops/s",
    );
    report.push("read_p50_ns", latency(|l| l.read_p50), "ns");
    report.push("update_p50_ns", latency(|l| l.update_p50), "ns");
    report.push("op_p99_ns", latency(|l| l.op_p99), "ns");
    report.push("pwbs_per_op", per_op(&|r| r.stats.pwbs), "1/op");
    report.push("pfences_per_op", per_op(&|r| r.stats.pfences), "1/op");
    report.push("setup_s", quiet_low(&all(&|r| vec![r.setup_s])), "s");
    report.push("reopen_s", quiet_low(&all(&|r| r.reopen_s.clone())), "s");
    report.push("peak_rss_mb", sys::peak_rss_mb(), "MiB");
    report.push("space_amp", median(&space_amp), "ratio");
    report.notes.push(format!(
        "measured chunks took {:.1} s of the run (BENCHMARK.json's run_seconds is their nominal length)",
        rounds.iter().map(|r| r.chunk_s).sum::<f64>()
    ));
    report.notes.push(format!(
        "workload.chunk_rate_spread {:.4} over {} rate chunks, {} latency chunks, {} set-ups, {} reopens",
        decile_spread(&chunk_mops),
        chunk_mops.len(),
        rounds.iter().map(|r| r.latency.len()).sum::<usize>(),
        rounds.len(),
        rounds.iter().map(|r| r.reopen_s.len()).sum::<usize>(),
    ));
    report
}

// ---- --trace 1: the per-layer metrics --------------------------------------

/// A subject traced: its span totals, the mean root-span duration of every
/// traced slice, and the traced rounds behind them.
struct Traced {
    spans: Summary,
    slice_root_ns: Vec<f64>,
    rounds: Vec<RoundResult>,
}

/// What the traced run of the workload itself adds to [`Traced`].
struct TracedWorkload {
    traced: Traced,
    untraced: Vec<RoundResult>,
}

/// Untraced/traced round pairs of `w` on `S`. The trace file of the last
/// traced chunk is written to `trace_path` when given.
fn trace_subject<S: Subject + 'static>(
    w: &Workload,
    shape: &Shape,
    seed: u64,
    pools: &std::path::Path,
    trace_path: Option<&std::path::Path>,
    report: &mut Report,
) -> TracedWorkload {
    let mut bufs = Buffers::default();
    let spans_per_op = if w.subject == SubjectKind::KvService {
        8
    } else {
        1
    };
    let mut tracer = Tracer::with_capacity(TRACE_SLICE * spans_per_op);
    let mut spans = Summary::default();
    let mut slice_root_ns = Vec::new();
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    for r in 0..shape.rounds {
        let seed = seed.wrapping_add(r as u64);
        let dir = pools.join(format!("{}-{r}", w.name));
        let plain = run_round::<S>(w, shape, seed, &dir, &mut bufs, Mode::Untraced);
        let mut absorb = |t: &Tracer| {
            let slice = summarize(t.spans());
            slice_root_ns.push(slice.root_total_ns as f64 / slice.roots.max(1) as f64);
            spans.absorb(slice);
        };
        let with_spans = run_round::<S>(
            w,
            shape,
            seed,
            &dir,
            &mut bufs,
            Mode::Traced(&mut tracer, &mut absorb),
        );
        report.absorb(&plain);
        report.absorb(&with_spans);
        // Both rounds matched the model reply for reply, so their replies are
        // byte-identical; the backend counters must be too.
        report.check(plain.stats == with_spans.stats, || {
            format!(
                "{}: traced round issued {:?}, untraced {:?}",
                w.name, with_spans.stats, plain.stats
            )
        });
        untraced.push(plain);
        traced.push(with_spans);
    }
    if let Some(path) = trace_path {
        if let Err(e) = tracer.write_json(path, w.name, seed) {
            report.check(false, || format!("writing {}: {e}", path.display()));
        }
    }
    TracedWorkload {
        traced: Traced {
            spans,
            slice_root_ns,
            rounds: traced,
        },
        untraced,
    }
}

fn trace_workload(
    w: &Workload,
    shape: &Shape,
    seed: u64,
    pools: &std::path::Path,
    trace_path: Option<&std::path::Path>,
    report: &mut Report,
) -> TracedWorkload {
    match w.subject {
        SubjectKind::HashTable => {
            trace_subject::<MapSubject<Ht>>(w, shape, seed, pools, trace_path, report)
        }
        SubjectKind::Hamt => {
            trace_subject::<MapSubject<Hamt<P>>>(w, shape, seed, pools, trace_path, report)
        }
        SubjectKind::KvService => {
            trace_subject::<KvSubject>(w, shape, seed, pools, trace_path, report)
        }
    }
}

/// The small traced round a subject gets when the workload leaves its layers
/// idle, so every layer row is a measurement in every traced run.
fn idle_probe(kind: SubjectKind) -> Workload {
    let (name, skew, rate_ops) = match kind {
        SubjectKind::HashTable => ("probe-ht", 0.0, 40_000),
        SubjectKind::Hamt => ("probe-hamt", 0.0, 30_000),
        SubjectKind::KvService => ("probe-kv", 0.99, 15_000),
    };
    Workload {
        name,
        subject: kind,
        key_range: 20_000,
        prefill: 10_000,
        skew,
        read_permille: 800,
        rate_ops,
        latency_ops: 0,
        groups: 1,
        rounds: 1,
    }
}

fn sum<T>(rounds: &[RoundResult], f: impl Fn(&RoundResult) -> T) -> f64
where
    T: Into<u128>,
{
    rounds.iter().map(|r| f(r).into()).sum::<u128>() as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// How many untraced/traced pairs a traced run may measure looking for one
/// whose spans reconcile with the untraced time.
const RECONCILE_ATTEMPTS: u32 = 3;

/// Whether the spans of a traced workload account for its untraced time:
/// (span time per op - what the tracer adds inside a span) / untraced time per op.
struct Reconciliation {
    untraced_ns_per_op: f64,
    traced_ns_per_op: f64,
    span_ns_per_op: f64,
    /// The clock pair in place: timed minus plain untraced chunks.
    clock_in_place_ns: f64,
    /// An empty span tree, and a bare clock pair, both in an empty loop.
    floor_ns: f64,
    clock_pair_ns: f64,
    /// What the tracer adds inside a root span: the clock pair in place plus
    /// the bookkeeping around it (empty tree minus bare pair).
    tracer_ns: f64,
    share: f64,
}

impl Reconciliation {
    /// The terms are subtracted from each other, so each is the median of its
    /// repetitions (chunks or slices): medians add up the way deciles do not.
    fn of(main: &TracedWorkload) -> Self {
        let (t, u) = (&main.traced.rounds, &main.untraced);
        let untraced_ns_per_op = 1e3 / median(&over_rounds(u, &|r| r.chunk_mops.clone()));
        let timed_ns_per_op = median(&over_rounds(u, &|r| r.timed_ns_per_op.clone()));
        let span_ns_per_op = median(&main.traced.slice_root_ns);
        let floor_ns = median(&t.iter().map(|r| r.trace_floor_ns).collect::<Vec<_>>());
        let clock_pair_ns = median(&t.iter().map(|r| r.clock_pair_ns).collect::<Vec<_>>());
        let clock_in_place_ns = (timed_ns_per_op - untraced_ns_per_op).max(0.0);
        let tracer_ns = clock_in_place_ns + (floor_ns - clock_pair_ns).max(0.0);
        Self {
            untraced_ns_per_op,
            traced_ns_per_op: median(&over_rounds(t, &|r| r.slice_ns_per_op.clone())),
            span_ns_per_op,
            clock_in_place_ns,
            floor_ns,
            clock_pair_ns,
            tracer_ns,
            share: ratio(span_ns_per_op - tracer_ns, untraced_ns_per_op),
        }
    }

    fn in_band(&self) -> bool {
        (0.85..=1.15).contains(&self.share)
    }

    fn verdict(&self) -> String {
        format!(
            "spans {:.1} ns/op - tracer {:.1} vs untraced {:.1} ns/op = {:.3}",
            self.span_ns_per_op, self.tracer_ns, self.untraced_ns_per_op, self.share
        )
    }
}

fn traced_run(opts: &Options, pools: &std::path::Path) -> Report {
    let w = opts.workload;
    let mut report = Report::default();
    let steal_before = sys::steal_ticks();
    let wall = std::time::Instant::now();

    let probes = probes::run(if opts.smoke { 10 } else { 1 });

    // The workload itself: two untraced/traced round pairs of a tenth of a
    // measured run's groups each (tracing keeps every duration in memory, and
    // the probes and the idle subjects need their share of the run).
    let measured = shape_of(opts);
    let shape = Shape {
        rounds: if opts.smoke { 1 } else { 2 },
        groups: (measured.groups * measured.rounds / 10).max(1),
        rate_ops: measured.rate_ops,
        latency_ops: 0,
    };
    let trace_path = opts.out_root.join(format!("trace-{}.json", w.name));
    // The reconciliation subtracts times taken seconds apart, so a neighbour's
    // burst during any one of them reads as a tracer that lies. A pair of
    // rounds that does not reconcile is therefore measured again, like a
    // calibration that came out off; a tracer that really loses time fails
    // every attempt. Smoke chunks are a tenth the size and mostly cold, and on
    // a 90 ns operation that alone moves the share by 0.1: not enforced there.
    let mut attempt = 1;
    let (mut main, rec) = loop {
        let main = trace_workload(w, &shape, opts.seed, pools, Some(&trace_path), &mut report);
        let rec = Reconciliation::of(&main);
        if rec.in_band() || opts.smoke || attempt == RECONCILE_ATTEMPTS {
            break (main, rec);
        }
        report.notes.push(format!(
            "attempt {attempt} of {RECONCILE_ATTEMPTS} did not reconcile ({}); measured again",
            rec.verdict()
        ));
        attempt += 1;
    };
    if opts.smoke && !rec.in_band() {
        report
            .notes
            .push(format!("smoke run, not enforced: {}", rec.verdict()));
    } else {
        report.check(rec.in_band(), || {
            format!("trace does not reconcile: {}", rec.verdict())
        });
    }
    report
        .notes
        .push(format!("trace written to {}", trace_path.display()));

    // Every other subject, small, so its layers report too.
    let probe_shape = |pw: &Workload| Shape {
        rounds: 1,
        groups: 1,
        rate_ops: if opts.smoke {
            pw.rate_ops / 4
        } else {
            pw.rate_ops
        },
        latency_ops: 0,
    };
    let subject_trace = |kind: SubjectKind, report: &mut Report| -> Option<Traced> {
        (kind != w.subject).then(|| {
            let pw = idle_probe(kind);
            trace_workload(&pw, &probe_shape(&pw), opts.seed, pools, None, report).traced
        })
    };
    let mut ht_probe = subject_trace(SubjectKind::HashTable, &mut report);
    let mut hamt_probe = subject_trace(SubjectKind::Hamt, &mut report);
    let mut kv_probe = subject_trace(SubjectKind::KvService, &mut report);

    // ---- the workload's own numbers ----
    let t = &main.traced.rounds;
    let u = &main.untraced;
    let ops = sum(t, |r| r.ops);
    let untraced_mops = over_rounds(u, &|r| r.chunk_mops.clone());
    let untraced_ns_per_op = rec.untraced_ns_per_op;
    let pwbs = sum(t, |r| r.stats.pwbs);
    let pfences = sum(t, |r| r.stats.pfences);
    let modelled_ns = ratio(
        pwbs * probes.pwb_charge_ns + pfences * probes.pfence_charge_ns,
        ops,
    );
    let last = t.last().expect("at least one traced round");

    push_probe_rows(&mut report, &probes);
    report.push(
        "pmem.read_side_pwbs_per_op",
        ratio(sum(t, |r| r.stats.read_side_pwbs), ops),
        "1/op",
    );
    report.push(
        "pmem.elided_pwbs_per_op",
        ratio(sum(t, |r| r.stats.elided_pwbs), ops),
        "1/op",
    );
    report.push(
        "pmem.elided_pfences_per_op",
        ratio(sum(t, |r| r.stats.elided_pfences), ops),
        "1/op",
    );
    report.push(
        "pmem.modelled_share",
        ratio(modelled_ns, untraced_ns_per_op),
        "ratio",
    );
    report.push(
        "core.handle_drains_per_op",
        ratio(sum(t, |r| r.gauges.handle_drains), ops),
        "1/op",
    );

    report.push(
        "open.validate_s",
        last.open_first.validate_ns as f64 / 1e9,
        "s",
    );
    report.push("open.adopt_s", last.open_first.adopt_ns as f64 / 1e9, "s");
    report.push(
        "open.recover_s",
        last.open_first.recover_ns as f64 / 1e9,
        "s",
    );
    report.push("open.gc_s", last.open_first.gc_ns as f64 / 1e9, "s");
    report.push(
        "open.gc_reclaimed_slots",
        last.reclaimed_first as f64,
        "count",
    );
    report.push("open.leaked_slots", last.reclaimed_later as f64, "count");

    report.push(
        "alloc.slots_in_use",
        last.gauges.slots_in_use as f64,
        "count",
    );
    report.push(
        "alloc.high_water_slots",
        last.gauges.high_water_slots as f64,
        "count",
    );
    report.push("alloc.chunks", last.gauges.chunks as f64, "count");
    report.push(
        "alloc.free_list_depth",
        last.gauges.free_list_depth as f64,
        "count",
    );
    report.push(
        "alloc.bytes_per_live_pair",
        ratio(last.gauges.bytes_in_use as f64, last.live_pairs as f64),
        "B",
    );
    report.push(
        "ebr.garbage_len_end",
        last.gauges.garbage_len as f64,
        "count",
    );
    report.push(
        "ebr.epoch_advances_per_kop",
        ratio(sum(t, |r| r.epoch_advances) * 1e3, ops),
        "1/kop",
    );

    report.push("obs.metrics_snapshot_ns", probes.metrics_snapshot_ns, "ns");
    report.push("obs.stats_json_ns", probes.stats_json_ns, "ns");

    let gen_ns = sum(t, |r| r.gen_ns) + sum(u, |r| r.gen_ns);
    let gen_ops = sum(t, |r| r.gen_ops) + sum(u, |r| r.gen_ops);
    report.push("workload.gen_ns_per_op", ratio(gen_ns, gen_ops), "ns");
    report.push(
        "workload.chunk_rate_spread",
        decile_spread(&untraced_mops),
        "ratio",
    );
    let steal_s = (sys::steal_ticks() - steal_before) as f64 / sys::TICKS_PER_SECOND;
    report.push(
        "workload.steal_share",
        ratio(steal_s, wall.elapsed().as_secs_f64()),
        "ratio",
    );
    report.push(
        "trace.overhead_ns_per_op",
        rec.traced_ns_per_op - untraced_ns_per_op,
        "ns",
    );
    report.push("trace.reconcile_share", rec.share, "ratio");
    report.notes.push(format!(
        "traced {} ops in {} chunks of {} ({} untraced reference chunks); untraced {:.1} ns/op, \
         traced {:.1} ns/op; inside a root span the tracer adds {:.1} ns (clock pair in place {:.1}, \
         empty tree {:.1} - bare pair {:.1})",
        ops,
        shape.rounds * shape.groups * RATE_CHUNKS_PER_GROUP,
        shape.rate_ops,
        untraced_mops.len(),
        untraced_ns_per_op,
        rec.traced_ns_per_op,
        rec.tracer_ns,
        rec.clock_in_place_ns,
        rec.floor_ns,
        rec.clock_pair_ns,
    ));
    // One block of rows per subject: the workload's own spans where it drives
    // the subject, the idle probe's otherwise.
    push_map_rows(
        &mut report,
        &DATASTRUCTS_ROWS,
        ht_probe.as_mut().unwrap_or(&mut main.traced),
    );
    push_map_rows(
        &mut report,
        &HAMT_ROWS,
        hamt_probe.as_mut().unwrap_or(&mut main.traced),
    );
    push_service_rows(&mut report, kv_probe.as_mut().unwrap_or(&mut main.traced));
    report
}

fn push_probe_rows(report: &mut Report, p: &Probes) {
    report.push("pmem.pwb_charge_ns", p.pwb_charge_ns, "ns");
    report.push("pmem.pfence_charge_ns", p.pfence_charge_ns, "ns");
    report.push("core.pload_ns", p.pload_ns, "ns");
    report.push("core.pstore_ns", p.pstore_ns, "ns");
    report.push(
        "core.pstore_pfences_per_call",
        p.pstore_pfences_per_call,
        "1/call",
    );
    report.push("core.completion_clean_ns", p.completion_clean_ns, "ns");
    report.push("core.completion_dirty_ns", p.completion_dirty_ns, "ns");
    report.push("core.handle_create_ns", p.handle_create_ns, "ns");
    report.push("alloc.alloc_ns", p.alloc_ns, "ns");
    report.push("ebr.pin_ns", p.pin_ns, "ns");
}

/// Metric names of the two map layers, spelled out so each is a `'static`
/// string that appears verbatim in `BENCHMARK.json`.
struct MapRowNames {
    get_p50: &'static str,
    get_p99: Option<&'static str>,
    get_pwbs: &'static str,
    get_pfences: Option<&'static str>,
    insert_p50: &'static str,
    insert_pwbs: &'static str,
    insert_pfences: &'static str,
    remove_p50: &'static str,
    remove_pwbs: Option<&'static str>,
    remove_pfences: Option<&'static str>,
    snapshot_p50: Option<&'static str>,
    scan_per_entry: Option<&'static str>,
    success: &'static str,
}

const DATASTRUCTS_ROWS: MapRowNames = MapRowNames {
    get_p50: "datastructs.get_ns_p50",
    get_p99: Some("datastructs.get_ns_p99"),
    get_pwbs: "datastructs.get_pwbs_per_call",
    get_pfences: None,
    insert_p50: "datastructs.insert_ns_p50",
    insert_pwbs: "datastructs.insert_pwbs_per_call",
    insert_pfences: "datastructs.insert_pfences_per_call",
    remove_p50: "datastructs.remove_ns_p50",
    remove_pwbs: Some("datastructs.remove_pwbs_per_call"),
    remove_pfences: Some("datastructs.remove_pfences_per_call"),
    snapshot_p50: None,
    scan_per_entry: None,
    success: "datastructs.update_success_share",
};

const HAMT_ROWS: MapRowNames = MapRowNames {
    get_p50: "hamt.get_ns_p50",
    get_p99: None,
    get_pwbs: "hamt.get_pwbs_per_call",
    get_pfences: Some("hamt.get_pfences_per_call"),
    insert_p50: "hamt.insert_ns_p50",
    insert_pwbs: "hamt.insert_pwbs_per_call",
    insert_pfences: "hamt.insert_pfences_per_call",
    remove_p50: "hamt.remove_ns_p50",
    remove_pwbs: None,
    remove_pfences: None,
    snapshot_p50: Some("hamt.snapshot_ns_p50"),
    scan_per_entry: Some("hamt.scan_ns_per_entry"),
    success: "hamt.update_success_share",
};

fn push_map_rows(report: &mut Report, names: &MapRowNames, src: &mut Traced) {
    let spans = &mut src.spans;
    let p = |s: &mut SpanStats, q: f64| quantile_ns(&mut s.durations, q);
    let per_call = |s: &SpanStats, total: u64| s.per_call(total);

    let get = spans.of(SpanName::Get);
    report.push(names.get_p50, p(get, 0.5), "ns");
    if let Some(name) = names.get_p99 {
        report.push(name, p(get, 0.99), "ns");
    }
    report.push(names.get_pwbs, per_call(get, get.pwbs), "1/call");
    if let Some(name) = names.get_pfences {
        report.push(name, per_call(get, get.pfences), "1/call");
    }
    let insert = spans.of(SpanName::Insert);
    report.push(names.insert_p50, p(insert, 0.5), "ns");
    report.push(names.insert_pwbs, per_call(insert, insert.pwbs), "1/call");
    report.push(
        names.insert_pfences,
        per_call(insert, insert.pfences),
        "1/call",
    );
    let remove = spans.of(SpanName::Remove);
    report.push(names.remove_p50, p(remove, 0.5), "ns");
    if let Some(name) = names.remove_pwbs {
        report.push(name, per_call(remove, remove.pwbs), "1/call");
    }
    if let Some(name) = names.remove_pfences {
        report.push(name, per_call(remove, remove.pfences), "1/call");
    }
    let walks: Vec<(u64, u64, u64)> = src
        .rounds
        .iter()
        .flat_map(|r| r.snapshot_walks.clone())
        .collect();
    if let Some(name) = names.snapshot_p50 {
        let mut ns: Vec<u32> = walks.iter().map(|w| w.0 as u32).collect();
        report.push(name, quantile_ns(&mut ns, 0.5), "ns");
    }
    if let Some(name) = names.scan_per_entry {
        let (walk_ns, entries) = walks
            .iter()
            .fold((0u64, 0u64), |a, w| (a.0 + w.1, a.1 + w.2));
        report.push(name, ratio(walk_ns as f64, entries as f64), "ns");
    }
    report.push(
        names.success,
        ratio(
            sum(&src.rounds, |r| r.updates_ok),
            sum(&src.rounds, |r| r.updates),
        ),
        "ratio",
    );
}

fn push_service_rows(report: &mut Report, src: &mut Traced) {
    let spans = &mut src.spans;
    let requests = spans.roots as f64;
    let root_total = spans.root_total_ns as f64;
    let p = |s: &mut SpanStats, q: f64| quantile_ns(&mut s.durations, q);

    let post = spans.of(SpanName::Post);
    let (post_ns, post_pwbs, post_pfences) = (post.total_ns(), post.pwbs, post.pfences);
    report.push("queues.enqueue_ns_p50", p(post, 0.5), "ns");
    report.push(
        "queues.enqueue_pfences_per_call",
        post.per_call(post_pfences),
        "1/call",
    );
    let take = spans.of(SpanName::Take);
    let (take_ns, take_pwbs, take_pfences) = (take.total_ns(), take.pwbs, take.pfences);
    report.push("queues.dequeue_ns_p50", p(take, 0.5), "ns");
    report.push(
        "queues.dequeue_pfences_per_call",
        take.per_call(take_pfences),
        "1/call",
    );
    report.push(
        "queues.pwbs_per_request",
        ratio((post_pwbs + take_pwbs) as f64, requests),
        "1/op",
    );
    report.push(
        "queues.pfences_per_request",
        ratio((post_pfences + take_pfences) as f64, requests),
        "1/op",
    );
    report.push(
        "queues.time_share",
        ratio((post_ns + take_ns) as f64, root_total),
        "ratio",
    );

    report.push(
        "server.decode_ns_p50",
        p(spans.of(SpanName::Decode), 0.5),
        "ns",
    );
    report.push(
        "server.encode_ns_p50",
        p(spans.of(SpanName::Encode), 0.5),
        "ns",
    );
    report.push(
        "server.route_ns_p50",
        p(spans.of(SpanName::Route), 0.5),
        "ns",
    );
    let apply = spans.of(SpanName::Apply);
    report.push("server.apply_ns_p50", p(apply, 0.5), "ns");
    report.push("server.apply_ns_p99", p(apply, 0.99), "ns");
    report.push(
        "server.apply_pwbs_per_request",
        apply.per_call(apply.pwbs),
        "1/op",
    );
    report.push(
        "server.apply_pfences_per_request",
        apply.per_call(apply.pfences),
        "1/op",
    );
    report.push(
        "server.self_ns_p50",
        quantile_ns(&mut spans.root_self, 0.5),
        "ns",
    );
    let per_shard: Vec<f64> = src
        .rounds
        .last()
        .map(|r| r.shard_requests.iter().map(|&n| n as f64).collect())
        .unwrap_or_default();
    let busiest = per_shard.iter().copied().fold(0.0, f64::max);
    let mean = ratio(per_shard.iter().sum::<f64>(), per_shard.len() as f64);
    report.push("server.shard_imbalance", ratio(busiest, mean), "ratio");
}
