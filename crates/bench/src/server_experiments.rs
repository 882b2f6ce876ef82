//! The `flit-server` request-loop benchmark: drive generated service request
//! streams through a sharded [`KvServer`], measuring throughput and the
//! per-request latency distribution per (shards × workers × policy × elision)
//! configuration — plus the one-shard crash/recover smoke that gates the
//! numbers (`BENCH_server.json` records both).
//!
//! The measured path is [`KvServer::pump`]: decode → route → mailbox post →
//! mailbox take → apply → encode, so a request's cost includes its shard's
//! durable queueing traffic, not just the map operation. Closed-loop runs
//! measure service capacity; open-loop runs issue at a fixed offered rate and
//! measure latency from the *scheduled* arrival, so queueing delay shows up in
//! the tail (the honest way; see [`Arrival`]).

use std::time::Instant;

use flit::{presets, FlitDb, Policy};
use flit_crashtest::{op_of, sweep_server_crash, SweepSettings, VolatileStores};
use flit_datastructs::{Automatic, HashTable};
use flit_obs::LatencyHistogram;
use flit_pmem::{CommitMode, ElisionMode, LatencyModel, SimNvram};
use flit_server::{KvServer, ServerConfig};
use flit_workload::{prefill_history, random_map_history, Arrival, ServiceConfig};

use crate::experiments::Scale;

/// The update percentage of the server baseline: a write-heavier mix than the
/// map baseline's 5%, because the service path adds per-request mailbox writes
/// whose cost should be visible next to real update traffic.
pub const SERVER_UPDATE_PERCENT: u32 = 20;

/// The flit-HT table size used by the server baseline's FliT policy.
pub const SERVER_FLIT_HT_BYTES: usize = 64 << 10;

/// The batch size `k` of the baseline's group-commit rows.
pub const SERVER_GROUP_COMMIT_BATCH: usize = 8;

/// The persistence policies the server baseline sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerPolicy {
    /// FliT with the hashed external counter table ([`SERVER_FLIT_HT_BYTES`]).
    FlitHt,
    /// The plain durable transformation (every p-load flushes).
    Plain,
}

impl ServerPolicy {
    /// Label used in tables and JSON records.
    pub fn name(&self) -> &'static str {
        match self {
            ServerPolicy::FlitHt => "flit-HT (64KB)",
            ServerPolicy::Plain => "plain",
        }
    }
}

/// One measured server configuration (one line of `BENCH_server.json`).
#[derive(Debug, Clone)]
pub struct ServerBenchRecord {
    /// Shard count.
    pub shards: usize,
    /// Client worker threads.
    pub workers: usize,
    /// Map structure key (the baseline uses the hash table).
    pub structure: &'static str,
    /// Persistence policy label.
    pub policy: &'static str,
    /// Persist-epoch elision mode (`on` / `off`).
    pub elision: &'static str,
    /// Durability commit mode (`immediate` / `batched-<k>`).
    pub commit: String,
    /// Arrival process (`closed` / `open`).
    pub arrival: &'static str,
    /// Zipf skew exponent of the key distribution (0 = uniform).
    pub skew: f64,
    /// Requests served (across all workers).
    pub requests: u64,
    /// Throughput in million requests per second.
    pub mops: f64,
    /// Median request latency, nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile request latency, nanoseconds.
    pub p99_ns: u64,
    /// 99.9th-percentile request latency, nanoseconds.
    pub p999_ns: u64,
    /// `pwb` instructions per request, summed over every shard's backend.
    pub pwbs_per_op: f64,
    /// `pfence` instructions per request, summed over every shard's backend.
    pub pfences_per_op: f64,
}

/// Throughput + latency distribution + persistence-instruction totals of one run.
struct ServerRun {
    mops: f64,
    hist: LatencyHistogram,
    pwbs: u64,
    pfences: u64,
    /// The server's own `flit-obs-v1` metrics document, snapshotted after the
    /// workers drained — the payload `BENCH_obs.json` records.
    obs: String,
}

/// Sum a counter over every shard's backend statistics.
fn shard_stat<P: Policy, M, G>(server: &KvServer<P, M>, get: G) -> u64
where
    M: flit_datastructs::ConcurrentMap<P>,
    G: Fn(&flit_pmem::StatsSnapshot) -> u64,
{
    server
        .shards()
        .iter()
        .map(|s| get(&s.db().stats_snapshot().unwrap_or_default()))
        .sum()
}

/// Build a server, prefill it through the direct path, then drive every
/// worker's request stream through [`KvServer::pump`] on its own thread,
/// recording per-request latency. Generic over the policy so each preset
/// monomorphises its own hot loop (same shape as the workload harness).
fn run_server<P, F>(
    factory: F,
    shards: usize,
    cfg: &ServiceConfig,
    elision: ElisionMode,
    commit: CommitMode,
) -> ServerRun
where
    P: Policy<Backend = SimNvram>,
    F: Fn(SimNvram) -> P,
{
    let server: KvServer<P, HashTable<P, Automatic>> =
        KvServer::new_with(ServerConfig::new(shards, cfg.key_range as usize), |_| {
            FlitDb::builder(factory(
                SimNvram::builder()
                    .latency(LatencyModel::optane())
                    .elision(elision)
                    .build(),
            ))
            .commit_mode(commit)
            .build()
        });
    // Prefill through the direct per-shard path (routed, but unmeasured and
    // mailbox-free — population, not traffic).
    {
        let handles = server.handles();
        for op in prefill_history(cfg) {
            let op = op_of(&op);
            let key = op.key().expect("prefill histories contain only data ops");
            let sid = server.route(key);
            server.shard(sid).apply(&handles[sid], &op);
        }
    }
    // One global slab of pre-encoded requests: worker `w`'s `i`-th request is
    // token `w * per + i`, so a token names its request bytes service-wide.
    let per = cfg.requests_per_worker;
    let slab: Vec<Vec<u8>> = (0..cfg.workers)
        .flat_map(|w| {
            flit_workload::service_history(cfg, w)
                .iter()
                .map(|op| op_of(op).encode())
                .collect::<Vec<_>>()
        })
        .collect();
    let hist = LatencyHistogram::new();
    let pwbs_before = shard_stat(&server, |s| s.pwbs);
    let pfences_before = shard_stat(&server, |s| s.pfences);

    let start = Instant::now();
    std::thread::scope(|scope| {
        for w in 0..cfg.workers {
            let server = &server;
            let slab = &slab;
            let hist = &hist;
            let cfg = &cfg;
            scope.spawn(move || {
                // One session per shard per worker — the explicit-handle set
                // this worker drives its requests through.
                let handles = server.handles();
                for i in 0..per {
                    let token = w as u64 * per + i;
                    // Closed loop: latency from just before the pump. Open
                    // loop: from the scheduled arrival, after spinning until
                    // it — so a late start (queueing) counts against us.
                    let t0 = match cfg.deadline_ns(w, i) {
                        Some(d) => {
                            while (start.elapsed().as_nanos() as u64) < d {
                                std::hint::spin_loop();
                            }
                            d
                        }
                        None => start.elapsed().as_nanos() as u64,
                    };
                    server
                        .pump(&handles, slab, token)
                        .expect("slab holds well-formed requests");
                    let done = start.elapsed().as_nanos() as u64;
                    hist.record(done.saturating_sub(t0));
                }
            });
        }
    });
    let elapsed = start.elapsed();

    ServerRun {
        mops: cfg.total_requests() as f64 / elapsed.as_secs_f64() / 1e6,
        hist,
        pwbs: shard_stat(&server, |s| s.pwbs) - pwbs_before,
        pfences: shard_stat(&server, |s| s.pfences) - pfences_before,
        obs: server.stats_json(),
    }
}

/// Run one configuration under the named policy and render the record.
fn measure(
    shards: usize,
    policy: ServerPolicy,
    elision: ElisionMode,
    cfg: &ServiceConfig,
) -> ServerBenchRecord {
    measure_commit(shards, policy, elision, cfg, CommitMode::Immediate)
}

/// [`measure`] under an explicit durability commit mode.
fn measure_commit(
    shards: usize,
    policy: ServerPolicy,
    elision: ElisionMode,
    cfg: &ServiceConfig,
    commit: CommitMode,
) -> ServerBenchRecord {
    let run = match policy {
        ServerPolicy::FlitHt => run_server(
            |b| presets::flit_ht_sized(b, SERVER_FLIT_HT_BYTES),
            shards,
            cfg,
            elision,
            commit,
        ),
        ServerPolicy::Plain => run_server(presets::plain, shards, cfg, elision, commit),
    };
    let requests = cfg.total_requests();
    ServerBenchRecord {
        shards,
        workers: cfg.workers,
        structure: "hashtable",
        policy: policy.name(),
        elision: elision.name(),
        commit: commit.name(),
        arrival: cfg.arrival.name(),
        skew: cfg.skew,
        requests,
        mops: run.mops,
        p50_ns: run.hist.p50(),
        p99_ns: run.hist.p99(),
        p999_ns: run.hist.p999(),
        pwbs_per_op: run.pwbs as f64 / requests as f64,
        pfences_per_op: run.pfences as f64 / requests as f64,
    }
}

/// The service workload behind the baseline grid: mixed 80/20 read/write
/// traffic over the scale's small key range.
fn base_config(scale: &Scale, workers: usize) -> ServiceConfig {
    ServiceConfig::new(
        scale.small_keys,
        SERVER_UPDATE_PERCENT,
        workers,
        scale.ops_per_thread,
    )
}

/// The server benchmark baseline (`BENCH_server.json`): the closed-loop
/// {1, 2, 4} shards × {flit-HT, plain} × {elision on, off} grid, a worker-count
/// point, a skewed-key point, and two open-loop points at a fixed offered rate.
pub fn server_baseline(scale: &Scale) -> Vec<ServerBenchRecord> {
    let workers = (scale.threads / 2).max(2);
    let mut records = Vec::new();
    for shards in [1usize, 2, 4] {
        for policy in [ServerPolicy::FlitHt, ServerPolicy::Plain] {
            for elision in [ElisionMode::Enabled, ElisionMode::Disabled] {
                records.push(measure(
                    shards,
                    policy,
                    elision,
                    &base_config(scale, workers),
                ));
            }
        }
    }
    // More workers than shards: mailbox contention becomes visible.
    records.push(measure(
        2,
        ServerPolicy::FlitHt,
        ElisionMode::Enabled,
        &base_config(scale, workers * 2),
    ));
    // Zipf-skewed keys: hot keys concentrate on few shards.
    records.push(measure(
        2,
        ServerPolicy::FlitHt,
        ElisionMode::Enabled,
        &base_config(scale, workers).with_skew(0.99),
    ));
    // Open loop at a deliberately modest offered rate: latency now includes
    // queueing delay relative to the arrival schedule.
    for policy in [ServerPolicy::FlitHt, ServerPolicy::Plain] {
        records.push(measure(
            2,
            policy,
            ElisionMode::Enabled,
            &base_config(scale, workers).with_arrival(Arrival::Open { mops: 0.05 }),
        ));
    }
    // Group commit: the two-shard closed-loop points again under `Batched(k)`.
    // Their immediate twins are already in the grid above, so the pair makes
    // the per-request fence amortisation of group commit machine-readable.
    for policy in [ServerPolicy::FlitHt, ServerPolicy::Plain] {
        records.push(measure_commit(
            2,
            policy,
            ElisionMode::Enabled,
            &base_config(scale, workers),
            CommitMode::Batched(SERVER_GROUP_COMMIT_BATCH),
        ));
    }
    records
}

/// The `flit-obs-v1` metrics document of one representative baseline run
/// (two-shard flit-HT, elision on, immediate commit, closed loop) — what
/// `repro -- server` records to `BENCH_obs.json`. Snapshotted after the
/// request streams drain, so every layer's series carries real samples:
/// `server_ops_total`/`server_reply_ns` from the pump, the databases'
/// persistence counters and arena gauges underneath.
pub fn server_obs_document(scale: &Scale) -> String {
    run_server(
        |b| presets::flit_ht_sized(b, SERVER_FLIT_HT_BYTES),
        2,
        &base_config(scale, 2),
        ElisionMode::Enabled,
        CommitMode::Immediate,
    )
    .obs
}

/// The crash-correctness gate recorded alongside the numbers: a one-shard
/// crash/recover sweep over a two-shard flit-HT server (which must be clean)
/// and over the deliberately broken [`VolatileStores`] control (which must
/// not be — otherwise the harness, not the server, is broken).
#[derive(Debug, Clone)]
pub struct ServerCrashSummary {
    /// Shard count of the swept server.
    pub shards: usize,
    /// The shard that was crashed.
    pub crash_shard: usize,
    /// Crash points injected on the correct configuration.
    pub points_tested: usize,
    /// Total events on the crashed shard's stream.
    pub events_total: u64,
    /// Violations found on the correct configuration (must be 0).
    pub violations: usize,
    /// Whether the broken control produced violations (must be true).
    pub broken_control_caught: bool,
}

/// Run the crash-correctness gate. See [`ServerCrashSummary`].
pub fn server_crash_smoke() -> ServerCrashSummary {
    type P = flit::FlitPolicy<flit::HashedScheme, SimNvram>;
    let history = random_map_history(11, 60, 24);
    let factory = |b: SimNvram| presets::flit_ht_sized(b, SERVER_FLIT_HT_BYTES);
    let good = sweep_server_crash::<P, HashTable<P, Automatic>, _>(
        "flit-ht",
        factory,
        2,
        0,
        &history,
        &SweepSettings {
            budget: 48,
            ..Default::default()
        },
    );
    let broken = sweep_server_crash::<P, HashTable<P, VolatileStores>, _>(
        "volatile-broken",
        factory,
        2,
        0,
        &history,
        &SweepSettings {
            budget: 24,
            ..Default::default()
        },
    );
    ServerCrashSummary {
        shards: good.shards,
        crash_shard: good.crash_shard,
        points_tested: good.points_tested,
        events_total: good.events_total,
        violations: good.violations.len(),
        broken_control_caught: !broken.clean(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_config(workers: usize) -> ServiceConfig {
        ServiceConfig::new(256, SERVER_UPDATE_PERCENT, workers, 400)
    }

    #[test]
    fn closed_loop_run_measures_latency_and_instructions() {
        let r = measure(
            2,
            ServerPolicy::FlitHt,
            ElisionMode::Enabled,
            &test_config(2),
        );
        assert_eq!(r.requests, 800);
        assert!(r.mops > 0.0);
        assert!(r.p50_ns > 0, "pumping a request takes time");
        assert!(r.p99_ns >= r.p50_ns);
        assert!(r.p999_ns >= r.p99_ns);
        assert!(r.pwbs_per_op > 0.0, "the mailbox alone guarantees pwbs");
        assert_eq!((r.arrival, r.elision), ("closed", "on"));
    }

    #[test]
    fn plain_pays_more_flushes_than_flit_on_the_service_path() {
        let flit = measure(
            1,
            ServerPolicy::FlitHt,
            ElisionMode::Enabled,
            &test_config(1),
        );
        let plain = measure(
            1,
            ServerPolicy::Plain,
            ElisionMode::Enabled,
            &test_config(1),
        );
        assert!(
            plain.pwbs_per_op > flit.pwbs_per_op,
            "plain={} flit={}",
            plain.pwbs_per_op,
            flit.pwbs_per_op
        );
    }

    #[test]
    fn batched_commit_amortises_fences_on_the_service_path() {
        let immediate = measure(
            1,
            ServerPolicy::FlitHt,
            ElisionMode::Enabled,
            &test_config(1),
        );
        let batched = measure_commit(
            1,
            ServerPolicy::FlitHt,
            ElisionMode::Enabled,
            &test_config(1),
            CommitMode::Batched(SERVER_GROUP_COMMIT_BATCH),
        );
        assert_eq!(batched.commit, "batched-8");
        assert!(
            batched.pfences_per_op < immediate.pfences_per_op,
            "batched={} immediate={}",
            batched.pfences_per_op,
            immediate.pfences_per_op
        );
    }

    #[test]
    fn open_loop_runs_at_the_offered_rate() {
        let cfg = test_config(2).with_arrival(Arrival::Open { mops: 0.05 });
        let r = measure(2, ServerPolicy::FlitHt, ElisionMode::Enabled, &cfg);
        assert_eq!(r.arrival, "open");
        // 800 requests at 0.05 Mops take ≥ 16ms of schedule; capacity is far
        // higher, so throughput lands close to (and never above 2x) the rate.
        assert!(r.mops < 0.1, "open loop must pace, measured {}", r.mops);
    }

    #[test]
    fn crash_smoke_is_clean_and_catches_the_control() {
        let s = server_crash_smoke();
        assert_eq!(s.violations, 0, "the flit-HT server must sweep clean");
        assert!(s.broken_control_caught, "the broken control must be caught");
        assert!(s.points_tested > 0 && s.events_total > 0);
    }
}
