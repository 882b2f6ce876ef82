//! One round of a run: fresh pools → set-up → warm-up → chunks → sync → drop →
//! timed reopens → recovered contents checked against the model. The same
//! function drives measured, untraced-reference and traced rounds, so a traced
//! round executes exactly the op stream its untraced partner did.

use std::path::Path;
use std::time::Instant;

use flit::OpenTimings;
use flit_pmem::StatsSnapshot;

use crate::ops::{Chunk, Generator, Model, GET};
use crate::spec::{Shape, Workload, RATE_CHUNKS_PER_GROUP, REOPENS_PER_ROUND};
use crate::stats::quantile_ns;
use crate::subjects::{Gauges, Session, Subject};
use crate::trace::{summarize, Tracer};

/// What the chunks of a round do with each operation.
pub enum Mode<'t> {
    /// Groups of 3 rate chunks (only the chunk is timed) and 1 latency chunk
    /// (every op timed): the shape end-to-end metrics come from.
    Measured,
    /// The untraced reference of a traced round: two rate chunks of every
    /// group as they are, the third with each operation timed by a bare clock
    /// pair. A clock read drains the pipeline, so what a pair costs around a
    /// real operation is not what it costs in an empty loop; the difference
    /// between the timed and the plain chunks is that cost, measured in place
    /// and without the tracer.
    Untraced,
    /// The same chunks with spans recorded into the tracer, a slice of
    /// [`TRACE_SLICE`] operations at a time: after each slice the callback
    /// receives the tracer (to aggregate) and the buffer is reused, so it stays
    /// cache-resident instead of streaming through the structure's cache. Only
    /// the slices are timed. The last slice's spans stay in the buffer.
    Traced(&'t mut Tracer, &'t mut dyn FnMut(&Tracer)),
}

/// Operations traced between two drains of the span buffer.
pub const TRACE_SLICE: usize = 4096;

/// Buffers reused by every chunk of a run, so no chunk pays for allocation.
#[derive(Default)]
pub struct Buffers {
    chunk: Chunk,
    samples: Vec<u32>,
    scratch: Vec<u32>,
}

/// Percentiles of one latency chunk, nanoseconds.
pub struct LatencyChunk {
    /// p50 over the chunk's gets.
    pub read_p50: f64,
    /// p50 over the chunk's inserts and removes that took effect.
    pub update_p50: f64,
    /// p99 over every op of the chunk.
    pub op_p99: f64,
}

/// Everything one round measured and checked.
#[derive(Default)]
pub struct RoundResult {
    /// Create + construct + prefill, seconds.
    pub setup_s: f64,
    /// Rate of each rate chunk, Mops/s.
    pub chunk_mops: Vec<f64>,
    /// Percentiles of each latency chunk.
    pub latency: Vec<LatencyChunk>,
    /// Operations in the measured chunks (warm-up and prefill excluded).
    pub ops: u64,
    /// Wall time of the measured chunks, seconds: what `run_seconds` in
    /// `BENCHMARK.json` is the nominal value of.
    pub chunk_s: f64,
    /// Wall nanoseconds per operation of each traced slice (traced rounds).
    pub slice_ns_per_op: Vec<f64>,
    /// Mean per-op timing of each timed chunk of an untraced reference round.
    pub timed_ns_per_op: Vec<f64>,
    /// Backend counters accumulated over the measured chunks.
    pub stats: StatsSnapshot,
    /// Updates attempted / succeeded in the measured chunks, per the model.
    pub updates: u64,
    /// See `updates`.
    pub updates_ok: u64,
    /// Arena and reclamation gauges after the last chunk.
    pub gauges: Gauges,
    /// Collector epoch advances over the measured chunks.
    pub epoch_advances: u64,
    /// Live pairs after the last chunk.
    pub live_pairs: u64,
    /// Duration of each timed reopen, seconds.
    pub reopen_s: Vec<f64>,
    /// Open-pipeline timings of the first reopen.
    pub open_first: OpenTimings,
    /// Slots the first reopen's GC reclaimed, and the later reopens' (must be 0).
    pub reclaimed_first: u64,
    /// See `reclaimed_first`.
    pub reclaimed_later: u64,
    /// Snapshot + full walk timings `(snapshot_ns, walk_ns, entries)`.
    pub snapshot_walks: Vec<(u64, u64, u64)>,
    /// Requests each shard applied.
    pub shard_requests: Vec<u64>,
    /// Mean duration of a root span around no calls, and of a bare clock pair,
    /// both in an empty loop (traced rounds only).
    pub trace_floor_ns: f64,
    /// See `trace_floor_ns`.
    pub clock_pair_ns: f64,
    /// Generator cost, nanoseconds and operations.
    pub gen_ns: u64,
    /// See `gen_ns`.
    pub gen_ops: u64,
    /// Checks made and checks failed (replies, recovered states, GC).
    pub attempted: u64,
    /// See `attempted`.
    pub failed: u64,
    /// What failed, for the report.
    pub notes: Vec<String>,
}

#[inline]
fn rate_chunk<S: Session>(session: &mut S, chunk: &Chunk) -> (u64, u64) {
    let mut bad = 0u64;
    let start = Instant::now();
    for i in 0..chunk.len() {
        bad += u64::from(!session.exec(chunk, i));
    }
    (start.elapsed().as_nanos() as u64, bad)
}

#[inline]
fn latency_chunk<S: Session>(session: &mut S, chunk: &Chunk, samples: &mut Vec<u32>) -> u64 {
    let mut bad = 0u64;
    samples.clear();
    for i in 0..chunk.len() {
        let start = Instant::now();
        let ok = session.exec(chunk, i);
        samples.push(start.elapsed().as_nanos().min(u32::MAX as u128) as u32);
        bad += u64::from(!ok);
    }
    bad
}

fn traced_chunk<S: Session>(
    session: &mut S,
    chunk: &Chunk,
    tracer: &mut Tracer,
    after_slice: &mut dyn FnMut(&Tracer),
    slice_ns_per_op: &mut Vec<f64>,
) -> u64 {
    let mut bad = 0u64;
    let mut from = 0;
    while from < chunk.len() {
        let to = (from + TRACE_SLICE).min(chunk.len());
        tracer.clear();
        let start = Instant::now();
        for i in from..to {
            bad += u64::from(!session.exec_traced(chunk, i, tracer));
        }
        slice_ns_per_op.push(start.elapsed().as_nanos() as f64 / (to - from) as f64);
        after_slice(tracer);
        from = to;
    }
    bad
}

/// Percentiles of a latency chunk. Gets are one population. Updates are two:
/// the ones that changed the map paid for allocation, flushes and fences, the
/// refused ones (insert of a present key, remove of an absent one) cost what a
/// get costs — and at half occupancy the two are equally common, so a median
/// over both would sit on the boundary and flip between them from chunk to
/// chunk. `update_p50` is the median of the updates that took effect.
fn percentiles(chunk: &Chunk, samples: &mut [u32], scratch: &mut Vec<u32>) -> LatencyChunk {
    let mut p50_where = |keep: &dyn Fn(u8, u64) -> bool| {
        scratch.clear();
        scratch.extend(
            (0..chunk.len())
                .filter(|&i| keep(chunk.kinds[i], chunk.expect[i]))
                .map(|i| samples[i]),
        );
        quantile_ns(scratch, 0.5)
    };
    let read_p50 = p50_where(&|kind, _| kind == GET);
    let update_p50 = p50_where(&|kind, expect| kind != GET && expect == 1);
    LatencyChunk {
        read_p50,
        update_p50,
        op_p99: quantile_ns(samples, 0.99),
    }
}

/// Run one round of `w` on subject `S` with pools under `dir` (created here,
/// removed before returning).
pub fn run_round<S: Subject + 'static>(
    w: &Workload,
    shape: &Shape,
    seed: u64,
    dir: &Path,
    bufs: &mut Buffers,
    mut mode: Mode<'_>,
) -> RoundResult {
    let mut out = RoundResult::default();
    std::fs::create_dir_all(dir).expect("creating the pool directory");
    let mut model = Model::new(w.key_range);
    let mut gen = Generator::new(seed, w.key_range, w.skew, w.read_permille);
    let check = |out: &mut RoundResult, checked: u64, bad: u64, what: &str| {
        out.attempted += checked;
        out.failed += bad;
        if bad > 0 {
            out.notes.push(format!("{bad} of {checked} {what}"));
        }
    };

    // Set-up: create + construct + prefill, timed; the prefill stream itself
    // is generated before the clock starts.
    gen.fill_prefill(&mut model, &mut bufs.chunk, w.prefill);
    S::prepare(&mut bufs.chunk);
    let start = Instant::now();
    let subject = S::create(dir, w);
    let mut session = subject.session();
    let (_, bad) = rate_chunk(&mut session, &bufs.chunk);
    out.setup_s = start.elapsed().as_secs_f64();
    check(&mut out, bufs.chunk.len() as u64, bad, "prefill replies");

    // One untimed warm-up chunk.
    gen.fill(&mut model, &mut bufs.chunk, shape.rate_ops);
    S::prepare(&mut bufs.chunk);
    let (_, bad) = rate_chunk(&mut session, &bufs.chunk);
    check(&mut out, bufs.chunk.len() as u64, bad, "warm-up replies");

    if let Mode::Traced(tracer, _) = &mut mode {
        tracer.clear();
        for i in 0..TRACE_SLICE {
            session.trace_floor(i, tracer);
        }
        out.trace_floor_ns = summarize(tracer.spans()).root_total_ns as f64 / TRACE_SLICE as f64;
        let pairs: u64 = (0..TRACE_SLICE)
            .map(|_| std::hint::black_box(Instant::now()).elapsed().as_nanos() as u64)
            .sum();
        out.clock_pair_ns = pairs as f64 / TRACE_SLICE as f64;
    }

    let stats_before = subject.stats();
    let epoch_before = subject.gauges().epoch;
    let chunks_per_group = RATE_CHUNKS_PER_GROUP + usize::from(shape.latency_ops > 0);
    for _group in 0..shape.groups {
        for slot in 0..chunks_per_group {
            let timed_per_op = slot == RATE_CHUNKS_PER_GROUP;
            let n = if timed_per_op {
                shape.latency_ops
            } else {
                shape.rate_ops
            };
            gen.fill(&mut model, &mut bufs.chunk, n);
            S::prepare(&mut bufs.chunk);
            let chunk = &bufs.chunk;
            out.updates += chunk.kinds.iter().filter(|&&k| k != GET).count() as u64;
            out.updates_ok += chunk
                .kinds
                .iter()
                .zip(&chunk.expect)
                .filter(|(&k, &e)| k != GET && e == 1)
                .count() as u64;
            let start = Instant::now();
            let bad = match &mut mode {
                Mode::Measured if timed_per_op => {
                    let bad = latency_chunk(&mut session, chunk, &mut bufs.samples);
                    out.latency
                        .push(percentiles(chunk, &mut bufs.samples, &mut bufs.scratch));
                    bad
                }
                Mode::Untraced if slot == RATE_CHUNKS_PER_GROUP - 1 => {
                    let bad = latency_chunk(&mut session, chunk, &mut bufs.samples);
                    let total: u64 = bufs.samples.iter().map(|&ns| u64::from(ns)).sum();
                    out.timed_ns_per_op.push(total as f64 / n as f64);
                    bad
                }
                Mode::Measured | Mode::Untraced => {
                    let (ns, bad) = rate_chunk(&mut session, chunk);
                    out.chunk_mops.push(n as f64 * 1e3 / ns as f64);
                    bad
                }
                Mode::Traced(tracer, after_slice) => traced_chunk(
                    &mut session,
                    chunk,
                    tracer,
                    after_slice,
                    &mut out.slice_ns_per_op,
                ),
            };
            out.chunk_s += start.elapsed().as_secs_f64();
            out.ops += n as u64;
            check(&mut out, n as u64, bad, "replies differ from the model");
        }
    }
    out.stats = subject.stats().delta_since(&stats_before);
    out.gauges = subject.gauges();
    out.epoch_advances = out.gauges.epoch - epoch_before;
    out.live_pairs = model.live() as u64;
    out.shard_requests = subject.shard_requests();
    out.gen_ns = gen.gen_ns;
    out.gen_ops = gen.gen_ops;

    // Outside the chunks: one snapshot and a full walk of it (structures that
    // have snapshots), checked against the model. Traced rounds repeat it so
    // the layer row has a median to report.
    let expected = model.pairs();
    let walks = if matches!(mode, Mode::Traced(..)) {
        5
    } else {
        1
    };
    for _ in 0..walks {
        let Some(walk) = subject.snapshot_walk(&session) else {
            break;
        };
        out.snapshot_walks
            .push((walk.snapshot_ns, walk.walk_ns, walk.pairs.len() as u64));
        check(
            &mut out,
            1,
            u64::from(walk.pairs != expected),
            "snapshot walk differs from the model",
        );
    }

    // Clean shutdown, then drop → open every pool → image-only recovery of
    // the map, three times. The library has no call that attaches a live map
    // to a reopened pool, so the recovered pairs in hand are as serviceable as
    // a reopened structure gets; comparing them with the model is not timed.
    // The second and third reopen find what the first one's GC left: nothing
    // to reclaim.
    drop(session);
    subject.sync();
    let mut live: Option<Box<dyn std::any::Any>> = Some(Box::new(subject));
    for nth in 0..REOPENS_PER_ROUND {
        let start = Instant::now();
        drop(live.take());
        let reopened = S::reopen(dir);
        out.reopen_s.push(start.elapsed().as_secs_f64());
        match reopened {
            Err(e) => check(&mut out, 1, 1, &e),
            Ok(mut r) => {
                r.pairs.sort_unstable();
                let bad = r.truncated || r.pairs != expected;
                check(
                    &mut out,
                    1,
                    u64::from(bad),
                    "recovered state differs from the model",
                );
                if nth == 0 {
                    out.open_first = r.timings;
                    out.reclaimed_first = r.reclaimed as u64;
                } else {
                    out.reclaimed_later += r.reclaimed as u64;
                    check(
                        &mut out,
                        1,
                        u64::from(r.reclaimed != 0),
                        "repeat reopen reclaimed slots",
                    );
                }
                live = Some(Box::new(r));
            }
        }
    }
    drop(live);
    let _ = std::fs::remove_dir_all(dir);
    out
}
