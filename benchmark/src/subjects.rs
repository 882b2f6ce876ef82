//! The three systems under test behind one interface, so the run shape, the
//! correctness gate and the tracer are written once.
//!
//! Every subject lives on real pool files and is driven only through public
//! functions: the map subjects through `ConcurrentMap`, the service subject
//! with encoded request bytes through `KvServer::pump` (untraced) or through
//! the same public calls `pump` makes, one span each (traced).

use std::path::Path;
use std::sync::Arc;

use flit::{presets, CommitMode, FlitDb, FlitHandle, FlitPolicy, HashedScheme, OpenTimings};
use flit_alloc::{Arena, ArenaConfig, DEFAULT_SLOTS_PER_CHUNK};
use flit_datastructs::{Automatic, ConcurrentMap, HashTable, RecoverInImage};
use flit_hamt::Hamt;
use flit_pmem::{ElisionMode, LatencyModel, PoolOptions, SimNvram, StatsSnapshot};
use flit_server::{recover_shard_pool, KvServer, Op, Reply, ServerConfig};

use crate::ops::{Chunk, GET, INSERT, MISSING};
use crate::spec::Workload;
use crate::trace::{Counts, SpanName, Tracer, NO_PARENT};

/// The persistence policy of every workload: FliT with the hashed counter
/// table over the spin-charged Optane model.
pub type P = FlitPolicy<HashedScheme, SimNvram>;
/// The hash table under test.
pub type Ht = HashTable<P, Automatic>;
/// The service under test.
pub type Server = KvServer<P, Ht>;

/// The latency model every time in this benchmark is relative to.
pub const LATENCY: LatencyModel = LatencyModel::optane();
/// Shards of the service workload.
pub const SHARDS: usize = 2;
/// flit-HT counter-table size of the service workload (the server preset).
pub const SERVICE_FLIT_HT_BYTES: usize = 64 << 10;
/// Capacity of a map workload's pool file (sparse; only touched pages exist).
const MAP_POOL_BYTES: usize = 256 << 20;

/// A fresh backend: Optane latency, elision on, statistics on.
pub fn backend() -> SimNvram {
    SimNvram::builder()
        .latency(LATENCY)
        .elision(ElisionMode::Enabled)
        .build()
}

fn map_policy() -> P {
    presets::flit_ht(backend())
}

fn service_policy(_shard: usize) -> P {
    presets::flit_ht_sized(backend(), SERVICE_FLIT_HT_BYTES)
}

fn counts_of(db: &FlitDb<P>) -> Counts {
    let s = db.stats_snapshot().unwrap_or_default();
    (s.pwbs, s.pfences)
}

fn add_stats(a: StatsSnapshot, b: StatsSnapshot) -> StatsSnapshot {
    StatsSnapshot {
        pwbs: a.pwbs + b.pwbs,
        pfences: a.pfences + b.pfences,
        read_side_pwbs: a.read_side_pwbs + b.read_side_pwbs,
        elided_pfences: a.elided_pfences + b.elided_pfences,
        elided_pwbs: a.elided_pwbs + b.elided_pwbs,
    }
}

/// Occupancy of a subject's arenas and its reclamation state, read from public
/// accessors.
#[derive(Debug, Default, Clone, Copy)]
pub struct Gauges {
    /// Slots handed out and not on any free list.
    pub slots_in_use: u64,
    /// Slots ever handed out.
    pub high_water_slots: u64,
    /// Chunks mapped.
    pub chunks: u64,
    /// Depth of the durable free lists.
    pub free_list_depth: u64,
    /// Bytes of pool space behind `high_water_slots`.
    pub bytes_in_use: u64,
    /// Deferred destructors not yet run.
    pub garbage_len: u64,
    /// Sum of the collectors' global epochs.
    pub epoch: u64,
    /// Batch drains counted by the handles (0 under immediate commit).
    pub handle_drains: u64,
}

fn gauges_of(db: &FlitDb<P>) -> Gauges {
    let mut g = Gauges {
        garbage_len: db.collector().garbage_len() as u64,
        epoch: db.collector().epoch(),
        ..Gauges::default()
    };
    for arena in db.arenas() {
        let high_water = arena.high_water();
        let durable_free = arena.durable_free_offsets().len();
        let free = durable_free + arena.recycled_offsets().len();
        g.slots_in_use += high_water.saturating_sub(free) as u64;
        g.high_water_slots += high_water as u64;
        g.chunks += high_water.div_ceil(arena.chunk_slots().max(1)) as u64;
        g.free_list_depth += durable_free as u64;
        g.bytes_in_use += (high_water * arena.slot_size()) as u64;
    }
    g.handle_drains = db
        .metrics()
        .snapshot()
        .counters
        .iter()
        .filter(|c| c.name == "flit_handle_drains_total")
        .map(|c| c.value)
        .sum();
    g
}

fn add_gauges(a: Gauges, b: Gauges) -> Gauges {
    Gauges {
        slots_in_use: a.slots_in_use + b.slots_in_use,
        high_water_slots: a.high_water_slots + b.high_water_slots,
        chunks: a.chunks + b.chunks,
        free_list_depth: a.free_list_depth + b.free_list_depth,
        bytes_in_use: a.bytes_in_use + b.bytes_in_use,
        garbage_len: a.garbage_len + b.garbage_len,
        epoch: a.epoch + b.epoch,
        handle_drains: a.handle_drains + b.handle_drains,
    }
}

/// What reopening a subject's pools found.
pub struct Reopened {
    /// The recovered pairs, in recovery-walk order.
    pub pairs: Vec<(u64, u64)>,
    /// A recovery walk reached a word the image does not hold.
    pub truncated: bool,
    /// Per-phase open timings, summed over the pools.
    pub timings: OpenTimings,
    /// Slots the open-time GC reclaimed, summed over the pools.
    pub reclaimed: usize,
    /// The reopened databases; dropping this unmaps the pools again.
    _dbs: Vec<FlitDb<P>>,
}

fn add_timings(a: OpenTimings, b: OpenTimings) -> OpenTimings {
    OpenTimings {
        validate_ns: a.validate_ns + b.validate_ns,
        adopt_ns: a.adopt_ns + b.adopt_ns,
        recover_ns: a.recover_ns + b.recover_ns,
        gc_ns: a.gc_ns + b.gc_ns,
    }
}

/// One snapshot taken and walked in full.
pub struct SnapshotWalk {
    /// Taking the snapshot, nanoseconds.
    pub snapshot_ns: u64,
    /// Iterating all of it, nanoseconds.
    pub walk_ns: u64,
    /// What the walk yielded, sorted by key.
    pub pairs: Vec<(u64, u64)>,
}

/// One client session on a subject: executes operation `i` of a chunk and
/// says whether the reply matched the model's.
pub trait Session {
    /// The untraced path: exactly what a caller of the public API would run.
    fn exec(&mut self, chunk: &Chunk, i: usize) -> bool;
    /// The same operation with a span around every layer boundary the
    /// benchmark can see from outside.
    fn exec_traced(&mut self, chunk: &Chunk, i: usize, tracer: &mut Tracer) -> bool;
    /// Record the span tree of one operation around no calls at all: what the
    /// tracer itself adds inside a root span.
    fn trace_floor(&mut self, i: usize, tracer: &mut Tracer);
}

/// A system under test.
pub trait Subject: Sized {
    /// Its client session.
    type Session<'a>: Session
    where
        Self: 'a;

    /// Create the pool file(s) under `dir` and construct the empty structure.
    fn create(dir: &Path, w: &Workload) -> Self;
    /// Open the one client session of a round.
    fn session(&self) -> Self::Session<'_>;
    /// Fill the chunk's request/reply bytes (service subject only).
    fn prepare(_chunk: &mut Chunk) {}
    /// Persistence-instruction counters, summed over the subject's backends.
    fn stats(&self) -> StatsSnapshot;
    /// Arena and reclamation gauges, summed over the subject's databases.
    fn gauges(&self) -> Gauges;
    /// `msync` the pool(s).
    fn sync(&self);
    /// Reopen the pool(s) under `dir` in place of a dropped subject and
    /// recover the map contents image-only.
    fn reopen(dir: &Path) -> Result<Reopened, String>;
    /// Take a snapshot and walk all of it; `None` when the structure has no
    /// snapshots.
    fn snapshot_walk(&self, _session: &Self::Session<'_>) -> Option<SnapshotWalk> {
        None
    }
    /// Requests each shard applied so far (empty for the map subjects).
    fn shard_requests(&self) -> Vec<u64> {
        Vec::new()
    }
}

// ---- map subjects --------------------------------------------------------

/// A map the benchmark can put on a pool and drive.
pub trait BenchMap: ConcurrentMap<P> + RecoverInImage + 'static {
    /// Arena growth step of the database the map lives in.
    const CHUNK_SLOTS: usize;
    /// Span-free snapshot walk, for structures that have snapshots.
    fn snapshot_walk(&self, _h: &FlitHandle<'_, P>) -> Option<SnapshotWalk> {
        None
    }
}

impl BenchMap for Ht {
    const CHUNK_SLOTS: usize = DEFAULT_SLOTS_PER_CHUNK;
}

impl BenchMap for Hamt<P> {
    // A pool arena holds at most 40 chunks, so 100k+ keys of path-copied nodes
    // need bigger steps than the 1024-slot default. 32Ki slots puts the
    // workload's ~140k-slot high-water mark mid-chunk: with 16Ki-slot chunks
    // one seed in ten needed a tenth chunk, which tipped the reopen image's
    // hash map into its next doubling and moved `peak_rss_mb` by a quarter.
    const CHUNK_SLOTS: usize = 1 << 15;

    fn snapshot_walk(&self, h: &FlitHandle<'_, P>) -> Option<SnapshotWalk> {
        let t = std::time::Instant::now();
        let snap = self.snapshot(h);
        let snapshot_ns = t.elapsed().as_nanos() as u64;
        let t = std::time::Instant::now();
        let mut pairs: Vec<(u64, u64)> = snap.iter().collect();
        let walk_ns = t.elapsed().as_nanos() as u64;
        pairs.sort_unstable();
        Some(SnapshotWalk {
            snapshot_ns,
            walk_ns,
            pairs,
        })
    }
}

/// A [`BenchMap`] on one pool file.
pub struct MapSubject<M: BenchMap> {
    db: FlitDb<P>,
    map: M,
}

/// The session of a [`MapSubject`].
pub struct MapSession<'a, M: BenchMap> {
    db: &'a FlitDb<P>,
    map: &'a M,
    h: FlitHandle<'a, P>,
}

const MAP_POOL: &str = "map.pool";

impl<M: BenchMap> MapSession<'_, M> {
    #[inline]
    fn call(&self, kind: u8, key: u64, val: u64) -> u64 {
        match kind {
            GET => self.map.get(&self.h, key).unwrap_or(MISSING),
            INSERT => u64::from(self.map.insert(&self.h, key, val)),
            _ => u64::from(self.map.remove(&self.h, key)),
        }
    }
}

impl<M: BenchMap> Session for MapSession<'_, M> {
    #[inline]
    fn exec(&mut self, chunk: &Chunk, i: usize) -> bool {
        self.call(chunk.kinds[i], chunk.keys[i], chunk.vals[i]) == chunk.expect[i]
    }

    #[inline]
    fn exec_traced(&mut self, chunk: &Chunk, i: usize, tracer: &mut Tracer) -> bool {
        let kind = chunk.kinds[i];
        let name = match kind {
            GET => SpanName::Get,
            INSERT => SpanName::Insert,
            _ => SpanName::Remove,
        };
        let span = tracer.begin(name, NO_PARENT, i as u32, counts_of(self.db));
        let got = self.call(kind, chunk.keys[i], chunk.vals[i]);
        tracer.end(span, counts_of(self.db));
        got == chunk.expect[i]
    }

    fn trace_floor(&mut self, i: usize, tracer: &mut Tracer) {
        let span = tracer.begin(SpanName::Get, NO_PARENT, i as u32, counts_of(self.db));
        tracer.end(span, counts_of(self.db));
    }
}

impl<M: BenchMap> Subject for MapSubject<M> {
    type Session<'a> = MapSession<'a, M>;

    fn create(dir: &Path, w: &Workload) -> Self {
        let db = FlitDb::builder(map_policy())
            .commit_mode(CommitMode::Immediate)
            .arena_defaults(ArenaConfig::with_slots_per_chunk(M::CHUNK_SLOTS))
            .create_pool_with(
                dir.join(MAP_POOL),
                &PoolOptions::with_capacity(MAP_POOL_BYTES),
            )
            .expect("creating the map pool");
        let map = M::with_capacity(&db, w.prefill as usize);
        Self { db, map }
    }

    fn session(&self) -> MapSession<'_, M> {
        MapSession {
            db: &self.db,
            map: &self.map,
            h: self.db.handle(),
        }
    }

    fn stats(&self) -> StatsSnapshot {
        self.db.stats_snapshot().unwrap_or_default()
    }

    fn gauges(&self) -> Gauges {
        gauges_of(&self.db)
    }

    fn sync(&self) {
        self.db.sync_pool().expect("msync of the map pool");
    }

    fn reopen(dir: &Path) -> Result<Reopened, String> {
        let (db, report) = FlitDb::open(dir.join(MAP_POOL), map_policy())
            .map_err(|e| format!("reopening the map pool: {e}"))?;
        let mut pairs = Vec::new();
        let mut truncated = false;
        for arena in db.arenas() {
            if has_root::<M>(&arena) {
                let rec = M::recover_arena_image(&arena, &report.image);
                truncated |= rec.truncated;
                pairs.extend(rec.pairs);
            }
        }
        Ok(Reopened {
            pairs,
            truncated,
            timings: report.timings,
            reclaimed: report.leaked_slots(),
            _dbs: vec![db],
        })
    }

    fn snapshot_walk(&self, session: &MapSession<'_, M>) -> Option<SnapshotWalk> {
        self.map.snapshot_walk(&session.h)
    }
}

fn has_root<M: RecoverInImage>(arena: &Arc<Arena>) -> bool {
    arena.live_roots().iter().any(|(k, _)| *k == M::ROOT_KEY)
}

// ---- the service subject -------------------------------------------------

/// A two-shard `KvServer` on pool files.
pub struct KvSubject {
    server: Server,
}

/// The session of a [`KvSubject`]: one handle per shard.
pub struct KvSession<'a> {
    server: &'a Server,
    handles: Vec<FlitHandle<'a, P>>,
}

impl KvSession<'_> {
    fn total_counts(&self) -> Counts {
        self.server
            .shards()
            .iter()
            .map(|s| counts_of(s.db()))
            .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
    }
}

impl Session for KvSession<'_> {
    #[inline]
    fn exec(&mut self, chunk: &Chunk, i: usize) -> bool {
        match self.server.pump(&self.handles, &chunk.requests, i as u64) {
            Ok((served, reply)) => served == i as u64 && reply == chunk.replies[i],
            Err(_) => false,
        }
    }

    /// `KvServer::pump`, walked out of the public calls it makes.
    fn exec_traced(&mut self, chunk: &Chunk, i: usize, tracer: &mut Tracer) -> bool {
        const NONE: Counts = (0, 0);
        let req = i as u32;
        let slab = &chunk.requests;
        let request = tracer.begin(SpanName::Request, NO_PARENT, req, self.total_counts());
        let parent = request.index();

        // Decoding and routing touch no database, so their counts are zero by
        // construction and no counter is read for them.
        let span = tracer.begin(SpanName::Decode, parent, req, NONE);
        let op = Op::decode(&slab[i]);
        tracer.end(span, NONE);
        let Some(key) = op.ok().and_then(|op| op.key()) else {
            tracer.end(request, self.total_counts());
            return false;
        };

        let span = tracer.begin(SpanName::Route, parent, req, NONE);
        let sid = self.server.route(key);
        tracer.end(span, NONE);
        let shard = self.server.shard(sid);
        let h = &self.handles[sid];
        let counts = || counts_of(shard.db());

        let span = tracer.begin(SpanName::Post, parent, req, counts());
        shard.post(h, i as u64);
        tracer.end(span, counts());

        let span = tracer.begin(SpanName::Take, parent, req, counts());
        let served = loop {
            if let Some(token) = shard.take(h) {
                break token;
            }
            std::hint::spin_loop();
        };
        tracer.end(span, counts());

        let span = tracer.begin(SpanName::SlabDecode, parent, req, NONE);
        let served_op = Op::decode(&slab[served as usize]);
        tracer.end(span, NONE);
        let Ok(served_op) = served_op else {
            tracer.end(request, self.total_counts());
            return false;
        };

        let span = tracer.begin(SpanName::Apply, parent, req, counts());
        let reply = shard.apply(h, &served_op);
        tracer.end(span, counts());

        let span = tracer.begin(SpanName::Encode, parent, req, NONE);
        let bytes = reply.encode();
        tracer.end(span, NONE);

        tracer.end(request, self.total_counts());
        served == i as u64 && bytes == chunk.replies[i]
    }

    fn trace_floor(&mut self, i: usize, tracer: &mut Tracer) {
        const NONE: Counts = (0, 0);
        let req = i as u32;
        let request = tracer.begin(SpanName::Request, NO_PARENT, req, self.total_counts());
        let parent = request.index();
        let counts = || counts_of(self.server.shard(0).db());
        for (name, counted) in [
            (SpanName::Decode, false),
            (SpanName::Route, false),
            (SpanName::Post, true),
            (SpanName::Take, true),
            (SpanName::SlabDecode, false),
            (SpanName::Apply, true),
            (SpanName::Encode, false),
        ] {
            let at = || if counted { counts() } else { NONE };
            let span = tracer.begin(name, parent, req, at());
            tracer.end(span, at());
        }
        tracer.end(request, self.total_counts());
    }
}

impl Subject for KvSubject {
    type Session<'a> = KvSession<'a>;

    fn create(dir: &Path, w: &Workload) -> Self {
        let server = Server::create_on_pools(
            ServerConfig::new(SHARDS, w.prefill as usize),
            dir,
            CommitMode::Immediate,
            service_policy,
        )
        .expect("creating the shard pools");
        Self { server }
    }

    fn session(&self) -> KvSession<'_> {
        KvSession {
            server: &self.server,
            handles: self.server.handles(),
        }
    }

    /// Encode every operation as request bytes and its model reply as reply
    /// bytes, reusing the chunk's buffers.
    fn prepare(chunk: &mut Chunk) {
        let n = chunk.len();
        chunk.requests.resize_with(n, || Vec::with_capacity(17));
        chunk.replies.resize_with(n, || Vec::with_capacity(9));
        for i in 0..n {
            let (key, expect) = (chunk.keys[i], chunk.expect[i]);
            let (op, reply) = match chunk.kinds[i] {
                GET if expect == MISSING => (Op::Get(key), Reply::Missing),
                GET => (Op::Get(key), Reply::Found(expect)),
                INSERT if expect == 1 => (Op::Put(key, chunk.vals[i]), Reply::Inserted),
                INSERT => (Op::Put(key, chunk.vals[i]), Reply::Exists),
                _ if expect == 1 => (Op::Del(key), Reply::Deleted),
                _ => (Op::Del(key), Reply::Absent),
            };
            chunk.requests[i].clear();
            op.encode_into(&mut chunk.requests[i]);
            chunk.replies[i].clear();
            reply.encode_into(&mut chunk.replies[i]);
        }
    }

    fn stats(&self) -> StatsSnapshot {
        self.server
            .shards()
            .iter()
            .map(|s| s.db().stats_snapshot().unwrap_or_default())
            .fold(StatsSnapshot::default(), add_stats)
    }

    fn gauges(&self) -> Gauges {
        self.server
            .shards()
            .iter()
            .map(|s| gauges_of(s.db()))
            .fold(Gauges::default(), add_gauges)
    }

    fn sync(&self) {
        self.server.sync_pools().expect("msync of the shard pools");
    }

    fn reopen(dir: &Path) -> Result<Reopened, String> {
        let mut out = Reopened {
            pairs: Vec::new(),
            truncated: false,
            timings: OpenTimings::default(),
            reclaimed: 0,
            _dbs: Vec::new(),
        };
        for shard in 0..SHARDS {
            let (db, report, rec) = recover_shard_pool::<P, Ht>(dir, shard, service_policy(shard))
                .map_err(|e| format!("reopening shard {shard}: {e}"))?;
            out.pairs.extend(rec.pairs);
            out.truncated |= rec.truncated;
            out.timings = add_timings(out.timings, report.timings);
            out.reclaimed += report.leaked_slots();
            out._dbs.push(db);
        }
        Ok(out)
    }

    fn shard_requests(&self) -> Vec<u64> {
        let snap = self.server.metrics().snapshot();
        (0..SHARDS)
            .map(|i| {
                let label = i.to_string();
                snap.counters
                    .iter()
                    .filter(|c| {
                        c.name == "server_ops_total"
                            && c.labels.iter().any(|(k, v)| k == "shard" && *v == label)
                    })
                    .map(|c| c.value)
                    .sum()
            })
            .collect()
    }
}
