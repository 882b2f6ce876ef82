//! The four workloads and the run shape. Names are stable: later issues cite
//! them, and `BENCHMARK.json` lists them with the reason each exists.

/// Which system a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Subject {
    /// `HashTable<FlitPolicy<HashedScheme>, Automatic>` on one pool.
    HashTable,
    /// `Hamt` (copy-on-write discipline) on one pool.
    Hamt,
    /// `KvServer` with two pool-backed shards, driven with encoded bytes.
    KvService,
}

/// One workload: what is driven, over which keys, with which mix, and how
/// many operations a chunk holds. Chunk op counts are fixed, never time-based,
/// so a seed fixes the op stream, the replies and the pwb/pfence totals.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Stable name.
    pub name: &'static str,
    /// The system under test.
    pub subject: Subject,
    /// Keys are drawn from `0..key_range`.
    pub key_range: u64,
    /// Distinct keys inserted before measurement.
    pub prefill: u64,
    /// Zipf exponent of key popularity (0 = uniform).
    pub skew: f64,
    /// Gets per thousand operations; the rest split evenly insert / remove.
    pub read_permille: u32,
    /// Operations in a rate chunk (sized to about 65 ms; only the chunk is
    /// timed).
    pub rate_ops: usize,
    /// Operations in a latency chunk (each op timed; at least 100 000, so the
    /// chunk's p99 has 1 000 samples beyond it).
    pub latency_ops: usize,
    /// Groups of `[3 rate chunks + 1 latency chunk]` in each round of a
    /// measured run.
    pub groups: usize,
    /// Rounds of a measured run. Every round builds fresh pools from its own
    /// seed, so a run samples this many independent tables, set-ups and
    /// stretches of the machine's time: a dozen cost the small hash table
    /// 3 s; the two large subjects pay seconds of set-up and reopen per round.
    /// `rounds * groups` is sized so the measured chunks take about the
    /// `run_seconds` that `BENCHMARK.json` declares.
    pub rounds: usize,
}

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "ht-read-mostly",
        subject: Subject::HashTable,
        key_range: 20_000,
        prefill: 10_000,
        skew: 0.0,
        read_permille: 950,
        rate_ops: 800_000,
        latency_ops: 200_000,
        groups: 5,
        rounds: 12,
    },
    Workload {
        name: "ht-update-heavy",
        subject: Subject::HashTable,
        key_range: 20_000,
        prefill: 10_000,
        skew: 0.0,
        read_permille: 500,
        rate_ops: 280_000,
        latency_ops: 100_000,
        groups: 5,
        rounds: 12,
    },
    Workload {
        name: "hamt-read-mostly",
        subject: Subject::Hamt,
        key_range: 200_000,
        prefill: 100_000,
        skew: 0.0,
        read_permille: 950,
        rate_ops: 120_000,
        latency_ops: 100_000,
        groups: 14,
        rounds: 4,
    },
    Workload {
        name: "kv-service",
        subject: Subject::KvService,
        key_range: 400_000,
        prefill: 200_000,
        skew: 0.99,
        read_permille: 800,
        rate_ops: 36_000,
        latency_ops: 100_000,
        groups: 10,
        rounds: 4,
    },
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Rate chunks per group.
pub const RATE_CHUNKS_PER_GROUP: usize = 3;
/// Timed reopens after each round.
pub const REOPENS_PER_ROUND: usize = 3;
/// Crash points of the per-run crash sweep, and of its broken control.
pub const SWEEP_POINTS: usize = 48;
/// See [`SWEEP_POINTS`].
pub const SWEEP_CONTROL_POINTS: usize = 24;

/// How much of everything one run does: fixed by the workload, `--smoke` and
/// `--trace`, never by a clock or a flag, so it is the same on every machine
/// and on both sides of every comparison.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Rounds (fresh pools each).
    pub rounds: usize,
    /// Groups of `[3 rate chunks + 1 latency chunk]` per round.
    pub groups: usize,
    /// Operations per rate chunk.
    pub rate_ops: usize,
    /// Operations per latency chunk.
    pub latency_ops: usize,
}

impl Shape {
    /// The shape of a measured run of `w`.
    pub fn measured(w: &Workload) -> Self {
        Self {
            rounds: w.rounds,
            groups: w.groups,
            rate_ops: w.rate_ops,
            latency_ops: w.latency_ops,
        }
    }

    /// The smoke shape: one round, two groups, chunks a tenth the size.
    pub fn smoke(w: &Workload) -> Self {
        Self {
            rounds: 1,
            groups: 2,
            rate_ops: w.rate_ops / 10,
            latency_ops: w.latency_ops / 10,
        }
    }
}
