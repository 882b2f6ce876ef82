//! The sharded server: shard = (database, arena-backed map, mailbox); routing by
//! key hash; the request pump that drives bytes through a shard.
//!
//! ## Pool-backed shards
//!
//! Each shard's database can live on its own file-backed pool
//! ([`KvServer::create_on_pools`], one `shard-NNN.pool` file per shard under a
//! directory — see [`shard_pool_path`]). One pool per shard preserves the
//! independence the factory-per-shard shape establishes: a process kill or a
//! corrupted file takes down exactly one shard's state, and
//! [`recover_shard_pool`] brings that one shard back — open the pool (full
//! validate → adopt → recover → GC pipeline), locate the shard map's root in
//! the adopted arenas, and rebuild its abstract key→value state image-only.

use std::path::{Path, PathBuf};
use std::time::Instant;

use flit::{CommitMode, FlitDb, FlitHandle, OpenError, OpenReport, Policy};
use flit_alloc::ArenaConfig;
use flit_datastructs::{Automatic, ConcurrentMap, RecoverInImage, RecoveredMap, MAX_USER_KEY};
use flit_obs::{Counter, Histogram, MetricsSnapshot, Registry};
use flit_queues::{ConcurrentQueue, MsQueue};

use crate::proto::{Op, ProtoError, Reply};

/// The pool file backing shard `shard` under `dir`: `dir/shard-NNN.pool`. The
/// single source of truth for the layout — creation, reopening and the kill
/// harness all route through it.
pub fn shard_pool_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard:03}.pool"))
}

/// Re-open the pool backing shard `shard` under `dir` and rebuild map `M`'s
/// durable abstract state from it, with no live server.
///
/// Runs [`FlitDb::open`]'s full pipeline, then recovers `M` image-only over
/// the adopted arenas ([`RecoverInImage::recover_arenas`]): only an arena that
/// registered `M`'s root key contributes (exactly one for a server shard: the
/// map arena). A pool in which the root never became durable recovers to the
/// empty map. Returns the re-opened database (ready for new traffic), the
/// [`OpenReport`] (leak accounting included) and the recovered pairs.
pub fn recover_shard_pool<P: Policy, M: ConcurrentMap<P> + RecoverInImage>(
    dir: &Path,
    shard: usize,
    policy: P,
) -> Result<(FlitDb<P>, OpenReport, RecoveredMap), OpenError> {
    let (db, report) = FlitDb::open(shard_pool_path(dir, shard), policy)?;
    let recovered = M::recover_arenas(&db.arenas(), &report.image);
    Ok((db, report, recovered))
}

/// Chunk slot-count of every shard's mailbox arena: mailboxes stay short (they
/// hold in-flight request tokens, not data), so they grow in small steps.
pub const MAILBOX_CHUNK_SLOTS: usize = 256;

/// Construction parameters of a [`KvServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Number of shards. Each shard owns its own database, arena, map and
    /// mailbox; keys are routed by hash.
    pub shards: usize,
    /// Expected number of live keys across the whole server. Each shard's map is
    /// sized for its share (`keys_hint / shards`), and its arena grows in
    /// share-sized chunks ([`ArenaConfig::for_capacity`]).
    pub keys_hint: usize,
}

impl ServerConfig {
    /// A config with the given shard count and key capacity hint.
    pub fn new(shards: usize, keys_hint: usize) -> Self {
        assert!(shards > 0, "a server needs at least one shard");
        Self { shards, keys_hint }
    }

    /// This config's per-shard capacity hint.
    pub fn shard_keys_hint(&self) -> usize {
        (self.keys_hint / self.shards).max(1)
    }
}

/// One shard of the service: its own [`FlitDb`] (and therefore its own backend,
/// statistics and crash images), an arena-backed map holding its key range, and
/// an MS-queue request mailbox living in the same database — so mailbox traffic
/// is part of the shard's durable instruction stream, like the rest of the
/// service path.
pub struct Shard<P: Policy, M: ConcurrentMap<P>> {
    db: FlitDb<P>,
    map: M,
    mailbox: MsQueue<P, Automatic>,
    /// Index of this shard within its server (stamped on its metric labels).
    index: usize,
    /// Per-op-kind counters on the server's shared registry
    /// (`server_ops_total{shard=i,op=get|put|del|scan}`).
    ops_get: Counter,
    ops_put: Counter,
    ops_del: Counter,
    ops_scan: Counter,
    /// Apply latency (`server_reply_ns{shard=i}`), nanoseconds.
    reply_ns: Histogram,
}

impl<P: Policy, M: ConcurrentMap<P>> Shard<P, M> {
    fn new(db: FlitDb<P>, config: &ServerConfig, registry: &Registry, index: usize) -> Self {
        let hint = config.shard_keys_hint();
        let map = M::with_capacity_cfg(&db, hint, ArenaConfig::for_capacity(hint));
        let mailbox =
            MsQueue::with_config(&db, ArenaConfig::with_slots_per_chunk(MAILBOX_CHUNK_SLOTS));
        let shard_label = index.to_string();
        let op_counter =
            |op: &str| registry.counter("server_ops_total", &[("shard", &shard_label), ("op", op)]);
        Self {
            db,
            map,
            mailbox,
            index,
            ops_get: op_counter("get"),
            ops_put: op_counter("put"),
            ops_del: op_counter("del"),
            ops_scan: op_counter("scan"),
            reply_ns: registry.histogram("server_reply_ns", &[("shard", &shard_label)]),
        }
    }

    /// The shard's database. Workers create their per-shard sessions here
    /// (`shard.db().handle()`).
    pub fn db(&self) -> &FlitDb<P> {
        &self.db
    }

    /// The shard's map (for recovery and quiescent inspection).
    pub fn map(&self) -> &M {
        &self.map
    }

    /// The shard's request mailbox.
    pub fn mailbox(&self) -> &MsQueue<P, Automatic> {
        &self.mailbox
    }

    /// Post a request token into the mailbox. Tokens are opaque `u64`s chosen by
    /// the driver (an index into its request slab); they must keep bit 63 clear
    /// so every policy — including link-and-persist, which reserves the top bit —
    /// can carry them.
    pub fn post(&self, h: &FlitHandle<'_, P>, token: u64) {
        debug_assert!(token < 1 << 63, "mailbox tokens must keep bit 63 clear");
        self.mailbox.enqueue(h, token);
    }

    /// Drain one request token from the mailbox, if any is pending.
    pub fn take(&self, h: &FlitHandle<'_, P>) -> Option<u64> {
        self.mailbox.dequeue(h)
    }

    /// Execute one decoded request against the shard's map. Keys at or above
    /// [`MAX_USER_KEY`] (the structures' reserved sentinel range) are refused
    /// conservatively — `Get` misses, `Put` reports the key as taken, `Del`
    /// reports it absent — instead of panicking on hostile input. An
    /// [`Op::Stats`] applied directly to a shard (rather than to the server's
    /// [`KvServer::pump`]) answers with the *shard-local* metrics document.
    ///
    /// Every call counts into `server_ops_total{shard,op}` (refusals
    /// included — they are served requests) and records its latency into
    /// `server_reply_ns{shard}`.
    pub fn apply(&self, h: &FlitHandle<'_, P>, op: &Op) -> Reply {
        let start = Instant::now();
        let reply = self.apply_op(h, op);
        self.reply_ns.record(start.elapsed().as_nanos() as u64);
        reply
    }

    fn apply_op(&self, h: &FlitHandle<'_, P>, op: &Op) -> Reply {
        match *op {
            Op::Get(k) => {
                self.ops_get.add(1);
                if k >= MAX_USER_KEY {
                    return Reply::Missing;
                }
                match self.map.get(h, k) {
                    Some(v) => Reply::Found(v),
                    None => Reply::Missing,
                }
            }
            Op::Put(k, v) => {
                self.ops_put.add(1);
                if k >= MAX_USER_KEY {
                    return Reply::Exists;
                }
                if self.map.insert(h, k, v) {
                    Reply::Inserted
                } else {
                    Reply::Exists
                }
            }
            Op::Del(k) => {
                self.ops_del.add(1);
                if k >= MAX_USER_KEY {
                    return Reply::Absent;
                }
                if self.map.remove(h, k) {
                    Reply::Deleted
                } else {
                    Reply::Absent
                }
            }
            Op::Stats => Reply::Stats(self.db.metrics_snapshot().to_json().into_bytes()),
            Op::Scan { prefix, mask } => match self.scan(h, prefix, mask) {
                Some(pairs) => Reply::Entries(pairs),
                None => Reply::Unsupported,
            },
        }
    }

    /// This shard's share of a scan: the matching pairs of a frozen snapshot
    /// of the shard map ([`ConcurrentMap::snapshot_scan`]), or `None` when the
    /// map structure cannot take snapshots. Counts into
    /// `server_ops_total{shard,op="scan"}` either way.
    pub fn scan(&self, h: &FlitHandle<'_, P>, prefix: u64, mask: u64) -> Option<Vec<(u64, u64)>> {
        self.ops_scan.add(1);
        self.map.snapshot_scan(h, prefix, mask)
    }

    /// Bytes in → op → bytes out, bypassing the mailbox: decode one request,
    /// apply it, encode the reply. The direct path used for prefill and for
    /// single-request probes; the measured service path is
    /// [`KvServer::pump`].
    pub fn serve_bytes(
        &self,
        h: &FlitHandle<'_, P>,
        request: &[u8],
    ) -> Result<Vec<u8>, ProtoError> {
        let op = Op::decode(request)?;
        Ok(self.apply(h, &op).encode())
    }
}

/// A sharded durable KV service over `N` independent [`Shard`]s.
///
/// Generic over the persistence policy `P` (all five P-V interface variants of
/// the evaluation instantiate) and the map structure `M` (flit-HT-policy hash
/// table by default in the benchmarks; any [`ConcurrentMap`] works). See the
/// crate docs for the architecture essay.
pub struct KvServer<P: Policy, M: ConcurrentMap<P>> {
    shards: Vec<Shard<P, M>>,
    /// The server-wide metrics store: per-shard op counters, reply latencies
    /// and queue depths always land here; shard databases built by
    /// [`KvServer::create_on_pools`] write their persistence metrics here too
    /// (labelled `shard=i`), and factory-built databases with private
    /// registries are mirrored in at [`KvServer::stats_snapshot`] time.
    registry: Registry,
}

impl<P: Policy, M: ConcurrentMap<P>> KvServer<P, M> {
    /// Build a server whose shard `i`'s database is produced by `db_factory(i)`.
    ///
    /// The factory-per-shard shape is what gives each shard an *independent*
    /// backend: independent statistics, an independent persistence-event stream,
    /// and — under the simulated-NVRAM backend — an independent crash plan, which
    /// is what lets the crash harness kill exactly one shard at a stable absolute
    /// event index while the others keep serving.
    pub fn new_with(config: ServerConfig, db_factory: impl FnMut(usize) -> FlitDb<P>) -> Self {
        Self::with_registry(Registry::new(), config, db_factory)
    }

    /// [`new_with`](Self::new_with), but aggregating into a caller-supplied
    /// [`Registry`] — pass a clone of the same registry to
    /// [`FlitDbBuilder::metrics`](flit::FlitDbBuilder::metrics) when building
    /// the shard databases and every layer's series land in one store.
    pub fn with_registry(
        registry: Registry,
        config: ServerConfig,
        mut db_factory: impl FnMut(usize) -> FlitDb<P>,
    ) -> Self {
        let shards = (0..config.shards)
            .map(|i| Shard::new(db_factory(i), &config, &registry, i))
            .collect();
        Self { shards, registry }
    }

    /// Build a server whose shard `i` lives on a **fresh file-backed pool** at
    /// [`shard_pool_path`]`(dir, i)` (any existing files are truncated), all
    /// created under `commit`. `policy_factory(i)` supplies each shard's
    /// policy, preserving the independent-backend property of
    /// [`new_with`](Self::new_with). `dir` is created if absent. Each shard's
    /// database joins the server's shared metrics registry under a `shard=i`
    /// label.
    pub fn create_on_pools(
        config: ServerConfig,
        dir: &Path,
        commit: CommitMode,
        mut policy_factory: impl FnMut(usize) -> P,
    ) -> Result<Self, OpenError> {
        std::fs::create_dir_all(dir)?;
        let registry = Registry::new();
        let mut dbs = Vec::with_capacity(config.shards);
        for i in 0..config.shards {
            dbs.push(
                FlitDb::builder(policy_factory(i))
                    .commit_mode(commit)
                    .metrics(registry.clone(), &[("shard", &i.to_string())])
                    .create_pool(shard_pool_path(dir, i))?,
            );
        }
        let mut dbs = dbs.into_iter();
        Ok(Self::with_registry(registry, config, |_| {
            dbs.next().expect("one database per shard")
        }))
    }

    /// `msync` every shard's pool (no-op for heap-backed shards) — the clean
    /// shutdown checkpoint.
    pub fn sync_pools(&self) -> Result<(), OpenError> {
        for shard in &self.shards {
            shard.db().sync_pool()?;
        }
        Ok(())
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Shard `i`.
    pub fn shard(&self, i: usize) -> &Shard<P, M> {
        &self.shards[i]
    }

    /// All shards, in index order.
    pub fn shards(&self) -> &[Shard<P, M>] {
        &self.shards
    }

    /// The shard a key routes to: a Fibonacci-hash mix of the key, reduced
    /// modulo the shard count. A pure function of `(key, num_shards)` — stable
    /// across runs, processes and machines, so a request trace fully determines
    /// which shard served each request.
    pub fn route(&self, key: u64) -> usize {
        let mixed = key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 31;
        (mixed % self.shards.len() as u64) as usize
    }

    /// One session per shard, in shard order — the per-worker handle set
    /// ("each worker thread holds one `FlitHandle` per shard it touches").
    pub fn handles(&self) -> Vec<FlitHandle<'_, P>> {
        self.shards.iter().map(|s| s.db.handle()).collect()
    }

    /// The full service path for one already-encoded request: decode, route by
    /// key, post the slab token into the routed shard's mailbox, drain one token
    /// from that mailbox, decode *that* token's request from `slab`, apply it,
    /// and return `(served_token, reply_bytes)`.
    ///
    /// Under concurrency a worker may drain a token another worker just posted —
    /// the service is work-conserving, so "serve whatever is pending on the
    /// shard you just fed" keeps every request flowing. The drain loop cannot
    /// livelock: each worker performs exactly one successful take per post and
    /// takes only after posting to the same shard, so whenever some worker still
    /// owes a take, that shard's pending count is at least one. On a single
    /// thread the drained token is always the one just posted.
    ///
    /// `handles` must hold one handle per shard in shard order (see
    /// [`KvServer::handles`]); `token` must index into `slab`.
    pub fn pump(
        &self,
        handles: &[FlitHandle<'_, P>],
        slab: &[Vec<u8>],
        token: u64,
    ) -> Result<(u64, Vec<u8>), ProtoError> {
        debug_assert_eq!(handles.len(), self.shards.len());
        let op = Op::decode(&slab[token as usize])?;
        let Some(key) = op.key() else {
            // Control plane: these address the server as a whole, so they
            // never route to a shard or touch a mailbox. `Stats` answers in
            // place with the aggregated document; `Scan` merges every shard's
            // frozen-snapshot share ([`KvServer::scan`]).
            let reply = match op {
                Op::Stats => Reply::Stats(self.stats_json().into_bytes()),
                Op::Scan { prefix, mask } => match self.scan(handles, prefix, mask) {
                    Some(pairs) => Reply::Entries(pairs),
                    None => Reply::Unsupported,
                },
                _ => unreachable!("every data op has a key"),
            };
            return Ok((token, reply.encode()));
        };
        let sid = self.route(key);
        let shard = &self.shards[sid];
        let h = &handles[sid];
        shard.post(h, token);
        loop {
            if let Some(served) = shard.take(h) {
                let served_op = Op::decode(&slab[served as usize])?;
                let reply = shard.apply(h, &served_op);
                return Ok((served, reply.encode()));
            }
            std::hint::spin_loop();
        }
    }

    /// A whole-server scan: every shard's frozen-snapshot share
    /// ([`Shard::scan`]) merged and sorted by key. Keys are partitioned across
    /// shards by hash, so the union of per-shard snapshots is exactly one
    /// consistent-per-shard cut of the whole keyspace — each shard's share is
    /// atomic with respect to that shard's updates, which is the strongest
    /// consistency a scan can have without a cross-shard commit protocol (see
    /// the crate docs). Returns `None` when the map structure cannot take
    /// snapshots. `handles` must hold one handle per shard in shard order.
    pub fn scan(
        &self,
        handles: &[FlitHandle<'_, P>],
        prefix: u64,
        mask: u64,
    ) -> Option<Vec<(u64, u64)>> {
        debug_assert_eq!(handles.len(), self.shards.len());
        let mut merged = Vec::new();
        for (shard, h) in self.shards.iter().zip(handles) {
            merged.extend(shard.scan(h, prefix, mask)?);
        }
        merged.sort_unstable();
        Some(merged)
    }

    /// The server's shared metrics registry.
    pub fn metrics(&self) -> &Registry {
        &self.registry
    }

    /// Aggregate the whole server into one point-in-time snapshot.
    ///
    /// Refreshes the pull-model series first: `server_queue_depth{shard}`
    /// from each mailbox, then each shard database's persistence gauges via
    /// [`FlitDb::metrics_snapshot`]. Databases built by
    /// [`create_on_pools`](Self::create_on_pools) share the server registry,
    /// so their refresh lands here directly; factory-built databases with
    /// private registries have their counter and gauge samples mirrored in as
    /// gauges under a `shard=i` label (histograms are not mirrored — bucket
    /// merges across stores would misreport quantiles).
    pub fn stats_snapshot(&self) -> MetricsSnapshot {
        for shard in &self.shards {
            let label = shard.index.to_string();
            self.registry
                .gauge("server_queue_depth", &[("shard", &label)])
                .set(shard.mailbox.len() as u64);
            let snap = shard.db.metrics_snapshot();
            if !self.registry.same_store(shard.db.metrics()) {
                for s in snap.counters.iter().chain(snap.gauges.iter()) {
                    let mut labels: Vec<(&str, &str)> = s
                        .labels
                        .iter()
                        .map(|(k, v)| (k.as_str(), v.as_str()))
                        .collect();
                    labels.push(("shard", &label));
                    self.registry.gauge(&s.name, &labels).set(s.value);
                }
            }
        }
        self.registry.snapshot()
    }

    /// [`stats_snapshot`](Self::stats_snapshot) as a `flit-obs-v1` JSON
    /// document — the payload [`Op::Stats`] is answered with.
    pub fn stats_json(&self) -> String {
        self.stats_snapshot().to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flit::{FlitDb, FlitPolicy, HashedScheme};
    use flit_datastructs::HashTable;
    use flit_pmem::{LatencyModel, SimNvram};

    type Policy_ = FlitPolicy<HashedScheme, SimNvram>;
    type Map_ = HashTable<Policy_, Automatic>;

    fn server(shards: usize) -> KvServer<Policy_, Map_> {
        KvServer::new_with(ServerConfig::new(shards, 512), |_| {
            FlitDb::flit_ht(SimNvram::builder().latency(LatencyModel::none()).build())
        })
    }

    #[test]
    fn shards_are_independent_databases() {
        let s = server(3);
        assert_eq!(s.num_shards(), 3);
        let ids: Vec<_> = s.shards().iter().map(|sh| sh.db().id()).collect();
        let mut unique = ids.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 3, "each shard owns its own database");
    }

    #[test]
    fn apply_matches_map_semantics() {
        let s = server(2);
        let hs = s.handles();
        let shard = s.shard(0);
        let h = &hs[0];
        assert_eq!(shard.apply(h, &Op::Get(7)), Reply::Missing);
        assert_eq!(shard.apply(h, &Op::Put(7, 70)), Reply::Inserted);
        assert_eq!(shard.apply(h, &Op::Put(7, 71)), Reply::Exists);
        assert_eq!(shard.apply(h, &Op::Get(7)), Reply::Found(70));
        assert_eq!(shard.apply(h, &Op::Del(7)), Reply::Deleted);
        assert_eq!(shard.apply(h, &Op::Del(7)), Reply::Absent);
    }

    #[test]
    fn reserved_keys_are_refused_not_panicked_on() {
        let s = server(1);
        let hs = s.handles();
        let shard = s.shard(0);
        assert_eq!(shard.apply(&hs[0], &Op::Put(u64::MAX, 1)), Reply::Exists);
        assert_eq!(shard.apply(&hs[0], &Op::Get(u64::MAX)), Reply::Missing);
        assert_eq!(shard.apply(&hs[0], &Op::Del(u64::MAX)), Reply::Absent);
    }

    #[test]
    fn pump_serves_through_the_mailbox() {
        let s = server(2);
        let hs = s.handles();
        let slab = vec![Op::Put(5, 50).encode(), Op::Get(5).encode()];
        let (t0, r0) = s.pump(&hs, &slab, 0).unwrap();
        assert_eq!((t0, Reply::decode(&r0)), (0, Ok(Reply::Inserted)));
        let (t1, r1) = s.pump(&hs, &slab, 1).unwrap();
        assert_eq!((t1, Reply::decode(&r1)), (1, Ok(Reply::Found(50))));
        assert!(s.shards().iter().all(|sh| sh.mailbox().is_empty()));
    }

    #[test]
    fn pool_backed_shards_recover_their_maps() {
        let dir = std::env::temp_dir().join(format!("flit-server-pools-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ServerConfig::new(2, 64);
        let policy = |_i: usize| {
            flit::FlitPolicy::new(
                HashedScheme::with_bytes(1 << 12),
                SimNvram::builder().latency(LatencyModel::none()).build(),
            )
        };
        {
            let s: KvServer<Policy_, Map_> =
                KvServer::create_on_pools(cfg, &dir, CommitMode::Immediate, policy).unwrap();
            let hs = s.handles();
            for k in 1..=20u64 {
                let sid = s.route(k);
                assert_eq!(
                    s.shard(sid).apply(&hs[sid], &Op::Put(k, 10 * k)),
                    Reply::Inserted
                );
            }
            s.sync_pools().unwrap();
        } // drop: every shard pool unmaps
        let mut recovered: Vec<(u64, u64)> = Vec::new();
        for shard in 0..cfg.shards {
            let (_db, report, rec) =
                recover_shard_pool::<Policy_, Map_>(&dir, shard, policy(shard)).unwrap();
            assert!(report.arenas >= 2, "map arena + mailbox arena");
            recovered.extend(rec.pairs);
            assert!(!rec.truncated);
        }
        recovered.sort_unstable();
        let expected: Vec<(u64, u64)> = (1..=20u64).map(|k| (k, 10 * k)).collect();
        assert_eq!(recovered, expected);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scan_merges_frozen_shard_snapshots_in_key_order() {
        let s: KvServer<Policy_, flit_hamt::Hamt<Policy_>> =
            KvServer::new_with(ServerConfig::new(3, 256), |_| {
                FlitDb::flit_ht(SimNvram::builder().latency(LatencyModel::none()).build())
            });
        let hs = s.handles();
        let mut slab: Vec<Vec<u8>> = (1..=24u64).map(|k| Op::Put(k, 100 + k).encode()).collect();
        for t in 0..24u64 {
            s.pump(&hs, &slab, t).unwrap();
        }
        // Full dump (mask 0): every pair, key-sorted, across all three shards.
        slab.push(Op::Scan { prefix: 0, mask: 0 }.encode());
        let (_, reply) = s.pump(&hs, &slab, 24).unwrap();
        let expected: Vec<(u64, u64)> = (1..=24u64).map(|k| (k, 100 + k)).collect();
        assert_eq!(Reply::decode(&reply), Ok(Reply::Entries(expected)));
        // A masked scan keeps exactly the keys matching `prefix` under `mask`:
        // low-three-bits == 2 selects 2, 10, 18.
        slab.push(Op::Scan { prefix: 2, mask: 7 }.encode());
        let (_, reply) = s.pump(&hs, &slab, 25).unwrap();
        assert_eq!(
            Reply::decode(&reply),
            Ok(Reply::Entries(vec![(2, 102), (10, 110), (18, 118)]))
        );
        // Each shard served its snapshot share and counted it.
        let snap = s.stats_snapshot();
        let scans: u64 = snap
            .counters
            .iter()
            .filter(|c| {
                c.name == "server_ops_total"
                    && c.labels.iter().any(|(k, v)| k == "op" && v == "scan")
            })
            .map(|c| c.value)
            .sum();
        assert_eq!(scans, 6, "two scans x three shards");
        // No retained roots leak: every snapshot was released on return.
        for shard in s.shards() {
            assert!(shard.map().retained_roots().is_empty());
        }
    }

    #[test]
    fn scan_against_a_snapshotless_map_answers_unsupported() {
        let s = server(2);
        let hs = s.handles();
        let slab = vec![Op::Scan { prefix: 0, mask: 0 }.encode()];
        let (_, reply) = s.pump(&hs, &slab, 0).unwrap();
        assert_eq!(Reply::decode(&reply), Ok(Reply::Unsupported));
    }

    #[test]
    fn serve_bytes_round_trips_and_rejects_garbage() {
        let s = server(1);
        let hs = s.handles();
        let shard = s.shard(0);
        let reply = shard.serve_bytes(&hs[0], &Op::Put(1, 2).encode()).unwrap();
        assert_eq!(Reply::decode(&reply), Ok(Reply::Inserted));
        assert!(shard.serve_bytes(&hs[0], &[0xFF, 0x00]).is_err());
    }
}
