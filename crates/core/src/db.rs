//! The explicit-handle facade: [`FlitDb`] and [`FlitHandle`].
//!
//! The paper's P-V Interface (§3, §5) is stated per *process*: which fences a
//! thread may elide and which flushes it may dedup depend on per-thread
//! persistence state. Earlier revisions of this workspace buried that state in
//! thread-locals (`flit_pmem::epoch`, `flit-ebr`'s slot cache), which made thread
//! identity ambient — nothing outside a thread could observe, step, or interleave
//! its persistence events, so deterministic multi-threaded crash sweeps were
//! structurally impossible. Memento's `PoolHandle`/`Handle` design shows the
//! alternative, adopted here:
//!
//! * **[`FlitDb`]** is the facade owning everything shared: the persistence
//!   [`Policy`] (scheme + backend), the EBR [`Collector`] all structures retire
//!   through, and the registry of [`Arena`]s (each with its persisted header and
//!   recovery-root table) the structures allocate from. `FlitDb::create` (or
//!   [`FlitDb::open`] on a file-backed pool) replaces the scattered
//!   policy/arena/root plumbing; [`FlitDb::recover`] reports the
//!   durably-constructed roots in a [`CrashImage`].
//! * **[`FlitHandle`]** is an explicit per-logical-thread session: it bundles the
//!   [`PersistEpoch`] (fence-elision dirty count + flush-dedup set) and an EBR
//!   [`LocalHandle`] (participant slot), and exposes the backend as a
//!   [`PmemSession`] so every persistence instruction is attributed to exactly
//!   one handle. **Every data-structure operation takes `&FlitHandle`**
//!   (`map.insert(&h, k, v)`).
//!
//! Because a handle is a value — `Send`, not `Sync`, independent of the OS
//! thread — a controlled scheduler can own N handles and step them round-robin
//! on one OS thread at operation granularity, with each handle's fences and
//! flushes eliding independently, deterministically, and reproducibly. That is
//! exactly what `flit-crashtest`'s round-robin harness does.
//!
//! ## Handle lifecycle
//!
//! * [`FlitDb::handle`] registers a fresh handle (an EBR slot is claimed, no
//!   persistence events are generated).
//! * Operations pin through [`FlitHandle::pin`] and issue instructions through
//!   [`FlitHandle::pmem`].
//! * Dropping a handle: if the handle is *dirty* (it issued `pwb`s not yet
//!   fenced — possible only when the caller abandoned it mid-operation), a
//!   trailing `pfence` is issued so nothing the handle flushed is left
//!   un-committed; the EBR slot returns to the collector's free list for the
//!   next handle. Nothing else needs cleanup — the epoch state dies with the
//!   value (this replaces the old thread-keyed purge heuristics).
//!
//! ## Durability modes: the watermark/ticket contract
//!
//! A database is built in one of two [`CommitMode`]s (chosen on the
//! [`builder`](FlitDb::builder), [`CommitMode::Immediate`] by default):
//!
//! * **Immediate** — the paper's contract: every
//!   [`operation_completion`](FlitHandle::operation_completion) fences, so an
//!   operation is durable before it returns.
//! * **Batched(k)** — group commit: `operation_completion` *enqueues a
//!   completion obligation* on the handle instead of fencing, and the handle
//!   drains its queue with **one `pfence` per batch** of up to `k` obligations
//!   — on batch overflow, on an explicit [`FlitHandle::flush_async`], and on
//!   handle drop. Draining *acknowledges* the batch: the db-wide
//!   [`durable watermark`](FlitDb::durable_watermark) (total acknowledged
//!   obligations) advances, and any [`Ticket`] covering those operations
//!   becomes durable ([`FlitDb::wait`] / [`FlitDb::is_durable`]).
//!
//! Under `Batched`, p-stores on tag schemes that keep their counter *outside*
//! the word (hashed, cache-line, plain) additionally defer the store's
//! trailing fence **and its untag** to the handle's next fence point: the word
//! stays tagged, so concurrent readers keep issuing the helping flush that
//! preserves the paper's Condition 4 across threads, and the leading fence of
//! the next update (or the batch drain) commits the deferred write-back. That
//! is where the fence amortisation comes from. The adjacent scheme embeds its
//! counter in the word itself — which may be reclaimed before a late close —
//! so it keeps the inline trailing fence even when batched and gains no
//! amortisation (see [`TagScheme::defers_store_close`](crate::TagScheme)).
//!
//! The batched crash contract is deliberately weaker and precisely stated:
//! after a crash, the recovered state is some consistent **prefix** of the
//! handle's completed operations that includes at least every *acknowledged*
//! operation (acknowledgment happens only after the batch fence, so an
//! acknowledged operation's write-backs are always in the image). Unacknowledged
//! operations may be lost wholesale — but never partially, and never out of
//! order. `flit-crashtest` sweeps exactly this window (and its broken
//! "acknowledge before the fence" control must fail). Because persistence
//! state is per-handle (the tracker commits only the fencing thread's pending
//! write-backs), only the owning handle's drain can advance its operations'
//! durability: `wait` *observes* acknowledgment from any thread, it cannot
//! force another handle's fence.
//!
//! ## Opening a real pool: validate → adopt → recover → GC
//!
//! A database can live on a **file-backed pool** (`flit_pmem::PoolFile`, an
//! `mmap`'d file with a superblock and an arena directory) instead of fresh
//! heap reservations. [`FlitDb::open`] — or the explicit
//! [`FlitDbBuilder::open_pool`] — takes a path and runs a four-stage pipeline,
//! every failure of which is a typed [`OpenError`], never a panic:
//!
//! 1. **Validate** — the superblock is read *through the file API* before
//!    anything is mapped: magic, version, recorded base address, bump cursor
//!    and arena count are all vetted, then the pool is re-mapped at the base
//!    address recorded when it was created (`MAP_FIXED_NOREPLACE`), so every
//!    absolute pointer persisted by the previous process is valid again. The
//!    superblock also records the [`CommitMode`] the pool was created under;
//!    opening with a conflicting explicit mode is a
//!    [`CommitModeMismatch`](OpenError::CommitModeMismatch) — the batched
//!    crash contract is a property of the *data*, not of the reader.
//! 2. **Adopt** — each directory entry becomes a live [`Arena`]
//!    (`Arena::adopt_from_pool`): the persisted header's magic and slot size
//!    are checked against the directory, the high-water mark against the
//!    mapped capacity, the durable free list is walked (bounds + cycle
//!    check), and every root-table entry is screened for tearing.
//! 3. **Recover** — the adopted arenas' memory *is* the crash image: it is
//!    viewed in place (a [`CrashImage`] over the arenas' ranges of the
//!    mapping, no word copied) and handed to the existing image-only
//!    [`FlitDb::recover`], so the same [`DbRecovery`] the simulated crash
//!    sweeps interrogate describes the real pool. Structures then rebuild from
//!    the durable roots exactly as they do in the simulated harness — reading
//!    [`OpenReport::image`], which stays a live view of the pool.
//! 4. **GC** — only after an unclean close. The volatile recycle list died
//!    with the crashed process, so slots retired-but-not-reused at the kill
//!    are reachable from no root and on no free list: leaked.
//!    `flit_alloc::post_crash_gc` runs a conservative mark-and-sweep from the
//!    adopted root tables and hands every leaked slot back to the allocator's
//!    *durable* free list; the [`OpenReport`] surfaces the count
//!    ([`OpenReport::leaked_slots`]). The pass is idempotent — a second pass
//!    reclaims zero — which the kill harness asserts after every crash.
//!
//! **Clean close.** When the last clone of a pool-backed [`FlitDb`] drops, no
//! handle or structure can exist any more, so the database closes the pool
//! itself: it drains EBR, moves every arena's recycle list onto its durable
//! free list, `msync`s the mapping and then writes the superblock's
//! clean-close word. Stage 1 swaps that word back to 0 before the first handle
//! exists; when it held the clean value, stage 4 is skipped
//! ([`OpenReport::clean_close`], `gc_ns == 0`). The close writes no clean word
//! when an arena was flagged as holding slots only GC can find (a HAMT dropped
//! with an unreleased snapshot's retire backlog), nor when the drop runs
//! during a panic. The close issues no `pwb`
//! and no `pfence`. *Why skipping is safe:* GC only ever frees slots, so an
//! open that skips it can at worst leak. A stale or forged clean word, or a
//! clear at open that a power failure lost, therefore never hands out a live
//! slot; this is also why the clear needs no `msync`.
//!
//! Fresh pools come from [`FlitDbBuilder::create_pool`]; a database built
//! either way allocates all subsequent arenas *on the pool*, so everything a
//! structure persists lands in the file. [`FlitDb::create`] keeps the
//! old heap-backed behaviour for simulation and tests.
//!
//! ## Migration from the free-function style
//!
//! | old | new |
//! |---|---|
//! | `presets::flit_ht(backend)` + `Map::with_capacity(policy, n)` | [`FlitDb::flit_ht`]`(backend)` + `Map::with_capacity(&db, n)` |
//! | `FlitDb::create(policy)` with ad-hoc knobs | [`FlitDb::builder`]`(policy).commit_mode(…).arena_defaults(…).build()` |
//! | `map.insert(k, v)` | `map.insert(&h, k, v)` with `let h = db.handle();` |
//! | `policy.operation_completion()` | [`FlitHandle::operation_completion`] |
//! | `policy.persist_object(&node, flag)` | [`FlitHandle::persist_object`] |
//! | `structure.collector().pin()` | [`FlitHandle::pin`] |
//! | (implicit per-thread epoch) | [`FlitHandle::epoch`] |
//! | `db.new_arena(slot_size, chunk_slots)` | [`FlitDb::new_arena`]`(ArenaConfig::with_slot_size(slot_size).chunked(chunk_slots))` |
//! | `db.new_arena_for::<T>(chunk_slots)` | [`FlitDb::new_arena_for`]`::<T>(ArenaConfig::with_slots_per_chunk(chunk_slots))` |
//! | `db.new_arena_cfg(slot_size, cfg)` / `db.new_arena_for_cfg::<T>(cfg)` | [`FlitDb::new_arena`]`(cfg.sized(slot_size))` / [`FlitDb::new_arena_for`]`::<T>(cfg)` |

use std::cell::RefCell;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use flit_alloc::{post_crash_gc, Arena, ArenaConfig, GcOutcome, ImageHeader};
use flit_ebr::{Collector, Guard, LocalHandle};
use flit_obs::{Counter, CounterShard, FlightEvent, FlightRecorder, MetricsSnapshot, Registry};
use flit_pmem::{
    cache_line_of, CommitMode, CrashImage, ElisionMode, OpenError, PersistEpoch, PmemBackend,
    PmemSession, PoolFile, PoolOptions, StatsSnapshot, CACHE_LINE_SIZE,
};

use crate::pflag::PFlag;
use crate::policy::Policy;

static NEXT_DB_ID: AtomicU64 = AtomicU64::new(1);

struct DbInner<P: Policy> {
    policy: P,
    collector: Collector,
    arenas: Mutex<Vec<Arc<Arena>>>,
    id: u64,
    handles_created: AtomicU64,
    commit: CommitMode,
    arena_defaults: ArenaConfig,
    /// Total completion obligations acknowledged db-wide (group commit); stays
    /// 0 under [`CommitMode::Immediate`], where completions are synchronous.
    watermark: AtomicU64,
    /// Per-handle acknowledged-obligation counts, keyed by handle id — what
    /// [`FlitDb::is_durable`] checks a [`Ticket`] against. Off the hot path:
    /// written once per batch drain, not per operation.
    acks: Mutex<HashMap<u64, u64>>,
    /// The file-backed pool this database lives on, if any: when set, every
    /// arena is created on (or was adopted from) the pool's directory.
    pool: Option<Arc<PoolFile>>,
    /// The metrics registry this database reports into (a fresh one unless the
    /// builder injected a shared registry, as `flit-server` does to aggregate
    /// its shards). Backend counters are *pulled* into gauges at
    /// [`FlitDb::metrics_snapshot`] time, never pushed on the hot path.
    metrics: Registry,
    /// Base label pairs stamped on every metric of this database (e.g.
    /// `shard=3` on a server shard); empty by default.
    metric_labels: Vec<(String, String)>,
    /// Batch drains across every handle (each handle increments a private
    /// shard of this counter).
    drains: Counter,
    /// Blocking [`FlitDb::wait`] calls that actually spun at least once.
    ticket_waits: Counter,
    /// Total completion obligations enqueued db-wide (group commit) — the
    /// numerator of the durable-watermark lag gauge. One relaxed increment per
    /// *batched* completion; stays 0 (and costs nothing) under
    /// [`CommitMode::Immediate`].
    obligations_enqueued: AtomicU64,
    /// The flight recorder of every handle that was ever *armed*, keyed by
    /// handle id, so [`FlitDb::dump_flight_recorder`] can snapshot those
    /// handles' event tails from any thread — after the handle is gone, too.
    /// Registered by [`FlitHandle::arm_flight_recorder`], never by
    /// [`FlitDb::handle`]: structures create handles by the thousand (one per
    /// hash bucket at construction) and an unarmed handle has no ring.
    flights: Mutex<Vec<(u64, FlightRecorder)>>,
}

/// The facade owning a database's shared state: policy (scheme + backend), the
/// EBR collector, and the arena registry. Cheap to clone (reference counted);
/// structures hold a clone, handles borrow one. See the module docs.
pub struct FlitDb<P: Policy> {
    inner: Arc<DbInner<P>>,
}

impl<P: Policy> Clone for FlitDb<P> {
    fn clone(&self) -> Self {
        Self {
            inner: Arc::clone(&self.inner),
        }
    }
}

/// The clean close of a pool-backed database (see the module docs): runs when
/// the last [`FlitDb`] clone drops, so no handle or structure is left.
impl<P: Policy> Drop for DbInner<P> {
    fn drop(&mut self) {
        let (Some(pool), Ok(arenas)) = (&self.pool, self.arenas.get_mut()) else {
            return;
        };
        // A panic may have cut an operation short between allocating a slot
        // and publishing it: only GC can account for that slot.
        if std::thread::panicking() {
            return;
        }
        let mut clean = self.collector.drain();
        for arena in arenas.iter() {
            clean &= arena.persist_recycled();
        }
        if clean && pool.sync().is_ok() {
            pool.mark_clean_close();
        }
    }
}

impl<P: Policy> std::fmt::Debug for FlitDb<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlitDb")
            .field("id", &self.inner.id)
            .field("policy", &self.inner.policy.label())
            .field("arenas", &self.inner.arenas.lock().unwrap().len())
            .field("handles_created", &self.inner.handles_created)
            .finish()
    }
}

/// Configures and builds a [`FlitDb`] — the one construction surface behind
/// every constructor ([`FlitDb::create`], [`FlitDb::open`] and the facade
/// constructors are thin wrappers over it). Terminal methods pick the backing:
/// [`build`](Self::build) (heap), [`create_pool`](Self::create_pool) (fresh
/// pool file), [`open_pool`](Self::open_pool) (existing pool file, full
/// recovery pipeline).
///
/// Knobs: the [`CommitMode`] (durability acknowledgment policy, see the module
/// docs) and the default [`ArenaConfig`] structure constructors fall back to.
/// Backend statistics remain a *backend* construction concern — configure them
/// where the backend is built (e.g. `SimNvram::builder().tracking(true)`), not
/// here.
#[must_use = "a builder does nothing until .build()"]
pub struct FlitDbBuilder<P: Policy> {
    policy: P,
    /// `None` until [`commit_mode`](Self::commit_mode) is called — so
    /// [`open_pool`](Self::open_pool) can tell "the caller insists on this
    /// mode" (must match the pool) from "use whatever the pool records".
    commit: Option<CommitMode>,
    arena_defaults: ArenaConfig,
    /// A shared registry (plus base labels) injected by the caller; a fresh
    /// unlabelled registry when `None`.
    metrics: Option<(Registry, Vec<(String, String)>)>,
}

impl<P: Policy> FlitDbBuilder<P> {
    /// The durability acknowledgment mode ([`CommitMode::Immediate`] unless
    /// set). Every handle of the built database inherits it. Setting it
    /// explicitly makes [`open_pool`](Self::open_pool) *require* the pool to
    /// have been created under the same mode.
    pub fn commit_mode(mut self, commit: CommitMode) -> Self {
        self.commit = Some(commit);
        self
    }

    /// The [`ArenaConfig`] that [`FlitDb::arena_defaults`] reports — what
    /// structure constructors use when the caller passes no explicit config.
    ///
    /// Both sizing axes flow through here: `slot_size` (bytes per slot) and
    /// `slots_per_chunk` (how many slots each growth step adds, settable via
    /// [`ArenaConfig::with_slots_per_chunk`] / [`ArenaConfig::chunked`]).
    /// Structures with their own node shapes override the slot size but
    /// honour the chunk growth — e.g. the copy-on-write HAMT starts from the
    /// small-slot [`ArenaConfig::hamt_nodes`] preset and takes the *larger* of
    /// the preset's and the configured `slots_per_chunk`, so a builder that
    /// says `.arena_defaults(ArenaConfig::with_slots_per_chunk(1 << 16))`
    /// makes every structure of the database grow its arena in 64Ki-slot
    /// steps.
    pub fn arena_defaults(mut self, config: ArenaConfig) -> Self {
        self.arena_defaults = config;
        self
    }

    /// Report this database's metrics into `registry` instead of a private
    /// one, stamping `labels` on every series it creates — how `flit-server`
    /// aggregates per-shard databases into one snapshot (`shard=<i>` labels on
    /// a shared registry).
    pub fn metrics(mut self, registry: Registry, labels: &[(&str, &str)]) -> Self {
        self.metrics = Some((
            registry,
            labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        ));
        self
    }

    /// Assemble the database value: a new collector over `arenas` (none
    /// unless a pool's were just adopted).
    fn assemble(
        policy: P,
        commit: CommitMode,
        arena_defaults: ArenaConfig,
        pool: Option<Arc<PoolFile>>,
        arenas: Vec<Arc<Arena>>,
        metrics: Option<(Registry, Vec<(String, String)>)>,
    ) -> FlitDb<P> {
        let (metrics, metric_labels) = metrics.unwrap_or_default();
        let label_refs: Vec<(&str, &str)> = metric_labels
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        let drains = metrics.counter("flit_handle_drains_total", &label_refs);
        let ticket_waits = metrics.counter("flit_ticket_waits_total", &label_refs);
        FlitDb {
            inner: Arc::new(DbInner {
                policy,
                collector: Collector::new(),
                arenas: Mutex::new(arenas),
                id: NEXT_DB_ID.fetch_add(1, Ordering::Relaxed),
                handles_created: AtomicU64::new(0),
                commit,
                arena_defaults,
                watermark: AtomicU64::new(0),
                acks: Mutex::new(HashMap::new()),
                pool,
                metrics,
                metric_labels,
                drains,
                ticket_waits,
                obligations_enqueued: AtomicU64::new(0),
                flights: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Build a volatile (heap-backed) database: a new collector, no arenas yet.
    pub fn build(self) -> FlitDb<P> {
        let commit = self.commit.unwrap_or_default();
        Self::assemble(
            self.policy,
            commit,
            self.arena_defaults,
            None,
            Vec::new(),
            self.metrics,
        )
    }

    /// Build the database on a **fresh file-backed pool** at `path` (truncating
    /// any existing file) with default [`PoolOptions`]. Every arena created on
    /// the database lands in the pool, so the file can later be re-opened with
    /// [`open_pool`](Self::open_pool).
    pub fn create_pool(self, path: impl AsRef<Path>) -> Result<FlitDb<P>, OpenError> {
        self.create_pool_with(path, &PoolOptions::default())
    }

    /// [`create_pool`](Self::create_pool) with explicit [`PoolOptions`]
    /// (the pool capacity). The pool's superblock records this builder's
    /// [`CommitMode`] so a later open can enforce the compatibility check.
    pub fn create_pool_with(
        self,
        path: impl AsRef<Path>,
        options: &PoolOptions,
    ) -> Result<FlitDb<P>, OpenError> {
        let commit = self.commit.unwrap_or_default();
        let pool = PoolFile::create(path, options, commit.compat_word())?;
        Ok(Self::assemble(
            self.policy,
            commit,
            self.arena_defaults,
            Some(pool),
            Vec::new(),
            self.metrics,
        ))
    }

    /// Open the existing pool at `path` and run the full validate → adopt →
    /// recover → GC pipeline (see the module docs). Returns the database plus
    /// an [`OpenReport`] describing what recovery found.
    ///
    /// The commit mode comes from the pool's superblock; if this builder set
    /// one explicitly it must match, else
    /// [`OpenError::CommitModeMismatch`] (with `pool: None` when the recorded
    /// word does not decode to any mode at all — a corrupt superblock).
    pub fn open_pool(self, path: impl AsRef<Path>) -> Result<(FlitDb<P>, OpenReport), OpenError> {
        let phase_start = Instant::now();
        let pool = PoolFile::open(path)?;
        let requested = self.commit;
        let commit = match (CommitMode::from_compat_word(pool.commit_word()), requested) {
            (Some(recorded), Some(asked)) if recorded != asked => {
                return Err(OpenError::CommitModeMismatch {
                    pool: Some(recorded),
                    requested: asked,
                });
            }
            (Some(recorded), _) => recorded,
            (None, asked) => {
                return Err(OpenError::CommitModeMismatch {
                    pool: None,
                    requested: asked.unwrap_or_default(),
                });
            }
        };
        let clean_close = pool.take_clean_close();
        let validate_ns = phase_start.elapsed().as_nanos() as u64;

        // Adopt: every directory entry becomes a live arena, fully validated.
        // The database exists only once every arena did, so a failed open
        // never runs the clean close.
        let phase_start = Instant::now();
        let arenas = (0..pool.arena_count())
            .map(|index| Arena::adopt_from_pool(&pool, index).map(Arc::new))
            .collect::<Result<Vec<_>, _>>()?;
        let db = Self::assemble(
            self.policy,
            commit,
            self.arena_defaults,
            Some(Arc::clone(&pool)),
            arenas.clone(),
            self.metrics,
        );
        let adopt_ns = phase_start.elapsed().as_nanos() as u64;

        // Recover: the mapped pool *is* the crash image — view the arenas'
        // ranges in place and reuse the image-only recovery path unchanged.
        let phase_start = Instant::now();
        let ranges = arenas.iter().flat_map(|a| a.image_ranges()).collect();
        let image = CrashImage::mapped(Arc::clone(&pool), ranges);
        let recovery = db.recover(&image);
        let recover_ns = phase_start.elapsed().as_nanos() as u64;

        // GC, after an unclean close only: slots that died on the volatile
        // recycle list go back to the durable free list, so the reclamation
        // itself survives a reopen.
        let (gc, gc_ns) = if clean_close {
            (GcOutcome::default(), 0)
        } else {
            let phase_start = Instant::now();
            let gc = post_crash_gc(&arenas);
            (gc, phase_start.elapsed().as_nanos() as u64)
        };

        let report = OpenReport {
            arenas: arenas.len(),
            recovery,
            clean_close,
            gc,
            image,
            timings: OpenTimings {
                validate_ns,
                adopt_ns,
                recover_ns,
                gc_ns,
            },
        };
        Ok((db, report))
    }
}

impl<P: Policy> FlitDb<P> {
    /// Start configuring a database over `policy`. See [`FlitDbBuilder`].
    pub fn builder(policy: P) -> FlitDbBuilder<P> {
        FlitDbBuilder {
            policy,
            commit: None,
            arena_defaults: ArenaConfig::default(),
            metrics: None,
        }
    }

    /// Create a fresh **heap-backed** database over `policy` with default
    /// settings (equivalent to `FlitDb::builder(policy).build()`): nothing
    /// survives the process. The file-backed counterpart is
    /// [`open`](Self::open) / [`FlitDbBuilder::create_pool`].
    pub fn create(policy: P) -> Self {
        Self::builder(policy).build()
    }

    /// Open the existing file-backed pool at `path` over `policy`, adopting the
    /// commit mode recorded in its superblock, and run the full
    /// validate → adopt → recover → GC pipeline (see the module docs).
    ///
    /// Equivalent to `FlitDb::builder(policy).open_pool(path)`; use the builder
    /// form to additionally pin an expected [`CommitMode`] or arena defaults.
    /// Every map or validation failure is a typed [`OpenError`] — a corrupt or
    /// truncated pool never panics.
    pub fn open(path: impl AsRef<Path>, policy: P) -> Result<(Self, OpenReport), OpenError> {
        Self::builder(policy).open_pool(path)
    }

    /// The durability acknowledgment mode this database was built with.
    #[inline]
    pub fn commit_mode(&self) -> CommitMode {
        self.inner.commit
    }

    /// Total completion obligations acknowledged across every handle of this
    /// database (group commit). Advances only at batch drains — overflow,
    /// [`FlitHandle::flush_async`], handle drop — so under
    /// [`CommitMode::Immediate`] (where completions are synchronously durable
    /// and nothing is ever enqueued) it stays 0.
    pub fn durable_watermark(&self) -> u64 {
        self.inner.watermark.load(Ordering::Acquire)
    }

    /// `true` when every operation `ticket` covers has been acknowledged as
    /// durable. Non-blocking; callable from any thread.
    pub fn is_durable(&self, ticket: Ticket) -> bool {
        debug_assert_eq!(ticket.db_id, self.id(), "ticket from another FlitDb");
        if ticket.target == 0 {
            return true;
        }
        self.inner
            .acks
            .lock()
            .unwrap()
            .get(&ticket.handle_id)
            .is_some_and(|&acked| acked >= ticket.target)
    }

    /// Block until every operation `ticket` covers is acknowledged as durable.
    ///
    /// Acknowledgment can only come from the ticket's own handle draining its
    /// queue (overflow, [`FlitHandle::flush_async`], or drop) — per-handle
    /// persistence state means no other thread can fence on its behalf — so
    /// wait on a ticket only when its handle is guaranteed to drain
    /// (tickets from `flush_async` are acknowledged at issue; tickets from
    /// [`FlitHandle::ticket`] need a later drain).
    pub fn wait(&self, ticket: Ticket) {
        let mut spun = false;
        while !self.is_durable(ticket) {
            if !spun {
                spun = true;
                self.inner.ticket_waits.add(1);
            }
            std::thread::yield_now();
        }
    }

    /// Record a drained batch: `acked_total` obligations of handle `handle_id`
    /// are now acknowledged, `newly` of them by this drain.
    fn ack_obligations(&self, handle_id: u64, acked_total: u64, newly: u64) {
        self.inner.watermark.fetch_add(newly, Ordering::AcqRel);
        self.inner
            .acks
            .lock()
            .unwrap()
            .insert(handle_id, acked_total);
    }

    /// The persistence policy of this database.
    #[inline]
    pub fn policy(&self) -> &P {
        &self.inner.policy
    }

    /// The backend of this database's policy.
    #[inline]
    pub fn backend(&self) -> &P::Backend {
        self.inner.policy.backend()
    }

    /// The EBR collector every structure of this database retires through.
    #[inline]
    pub fn collector(&self) -> &Collector {
        &self.inner.collector
    }

    /// Process-unique id of this database (handles carry it so mismatched
    /// handle/structure pairings can be debug-asserted).
    #[inline]
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// Human-readable policy label (e.g. `"flit-HT (1MB)"`).
    pub fn label(&self) -> String {
        self.inner.policy.label()
    }

    /// Snapshot of the backend's persistence-instruction counters, if it keeps
    /// any.
    pub fn stats_snapshot(&self) -> Option<StatsSnapshot> {
        self.inner.policy.stats_snapshot()
    }

    /// The metrics registry this database reports into (injected via
    /// [`FlitDbBuilder::metrics`], or a private one).
    #[inline]
    pub fn metrics(&self) -> &Registry {
        &self.inner.metrics
    }

    /// Refresh this database's gauges from their live sources and snapshot the
    /// registry.
    ///
    /// This is the *pull* half of the instrumentation: backend counters
    /// (`PmemStats` — pwbs, pfences, read-side pwbs, both elision kinds),
    /// the durable watermark and its lag, and per-arena occupancy (slots in
    /// use, durable free-list depth, chunk growth) are read here, at snapshot
    /// time, instead of being double-counted on the persistence hot path.
    /// Counters that have no other home (handle batch drains, ticket waits)
    /// are pushed by their owners and only aggregated here.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let base = &self.inner.metric_labels;
        let with_base = |extra: &[(&str, &str)]| -> Vec<(String, String)> {
            base.iter()
                .cloned()
                .chain(extra.iter().map(|(k, v)| (k.to_string(), v.to_string())))
                .collect()
        };
        let set = |name: &str, labels: &[(&str, &str)], value: u64| {
            let owned = with_base(labels);
            let refs: Vec<(&str, &str)> = owned
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            self.inner.metrics.gauge(name, &refs).set(value);
        };
        if let Some(stats) = self.stats_snapshot() {
            set("flit_pwbs_total", &[], stats.pwbs);
            set("flit_pfences_total", &[], stats.pfences);
            set("flit_read_side_pwbs_total", &[], stats.read_side_pwbs);
            // Elided pwbs are exactly the dedup hits of `pwb_dedup`.
            set("flit_dedup_hits_total", &[], stats.elided_pwbs);
            set("flit_elided_pfences_total", &[], stats.elided_pfences);
        }
        let watermark = self.durable_watermark();
        let enqueued = self.inner.obligations_enqueued.load(Ordering::Acquire);
        set("flit_durable_watermark", &[], watermark);
        set("flit_obligations_enqueued_total", &[], enqueued);
        set(
            "flit_watermark_lag",
            &[],
            enqueued.saturating_sub(watermark),
        );
        set("flit_handles_created_total", &[], self.handles_created());
        for (index, arena) in self.arenas().iter().enumerate() {
            let index = index.to_string();
            let labels: [(&str, &str); 1] = [("arena", index.as_str())];
            let high_water = arena.high_water();
            let free = arena.durable_free_offsets().len() + arena.recycled_offsets().len();
            let chunk_slots = arena.chunk_slots().max(1);
            set(
                "flit_arena_slots_in_use",
                &labels,
                high_water.saturating_sub(free) as u64,
            );
            set(
                "flit_arena_free_list_depth",
                &labels,
                arena.durable_free_offsets().len() as u64,
            );
            set("flit_arena_high_water", &labels, high_water as u64);
            set(
                "flit_arena_chunks",
                &labels,
                (high_water.div_ceil(chunk_slots)) as u64,
            );
        }
        self.inner.metrics.snapshot()
    }

    /// Snapshot the flight-recorder tail of every handle whose recorder was
    /// armed ([`FlitHandle::arm_flight_recorder`]), keyed by handle id (oldest
    /// event first within each handle); handles that never armed are not
    /// listed.
    pub fn flight_snapshots(&self) -> Vec<(u64, Vec<FlightEvent>)> {
        self.inner
            .flights
            .lock()
            .unwrap()
            .iter()
            .map(|(id, rec)| (*id, rec.snapshot()))
            .collect()
    }

    /// The flight-recorder tails of every armed handle as one JSON document
    /// (schema `flit-obs-flight-v1`); before any handle armed, an empty (but
    /// well-formed) document.
    pub fn dump_flight_recorder(&self) -> String {
        let handles: Vec<String> = self
            .flight_snapshots()
            .iter()
            .map(|(id, events)| {
                let rows: Vec<String> = events.iter().map(|e| e.to_json()).collect();
                format!("{{\"handle\":{},\"events\":[{}]}}", id, rows.join(","))
            })
            .collect();
        format!(
            "{{\"schema\":\"flit-obs-flight-v1\",\"capacity\":{},\"handles\":[{}]}}",
            flit_obs::FLIGHT_CAPACITY,
            handles.join(",")
        )
    }

    /// Register a new per-logical-thread session. Handles are cheap (no
    /// persistence events) and `Send`: create one per worker thread — or several
    /// on one thread for controlled interleaving.
    pub fn handle(&self) -> FlitHandle<'_, P> {
        let id = self.inner.handles_created.fetch_add(1, Ordering::Relaxed);
        FlitHandle {
            db: self,
            epoch: PersistEpoch::new(),
            elision: self.backend().elision_mode(),
            commit: self.inner.commit,
            deferred_closes: RefCell::new(Vec::new()),
            ebr: self.inner.collector.register(),
            drains: self.inner.drains.shard(),
            id,
        }
    }

    /// Number of handles ever created on this database (diagnostic).
    pub fn handles_created(&self) -> u64 {
        self.inner.handles_created.load(Ordering::Relaxed)
    }

    /// The default [`ArenaConfig`] of this database (set on the
    /// [`builder`](Self::builder)): what structure constructors use when the
    /// caller passes no explicit config.
    #[inline]
    pub fn arena_defaults(&self) -> ArenaConfig {
        self.inner.arena_defaults
    }

    /// Create (and register) an arena from `config` — slot size and chunk
    /// growth both come from the config ([`FlitDb::arena_defaults`] when the
    /// caller has no opinion). The persisted header is written through this
    /// database's backend. On a pool-backed database the arena claims the next
    /// pool-directory entry; a full pool panics here — use
    /// [`try_new_arena`](Self::try_new_arena) to handle exhaustion.
    pub fn new_arena(&self, config: ArenaConfig) -> Arc<Arena> {
        self.try_new_arena(config)
            .expect("arena creation failed (pool or directory exhausted)")
    }

    /// [`new_arena`](Self::new_arena), surfacing pool exhaustion
    /// ([`OpenError::PoolFull`], a full arena directory) as an error instead of
    /// panicking. Heap-backed databases never fail here.
    pub fn try_new_arena(&self, config: ArenaConfig) -> Result<Arc<Arena>, OpenError> {
        let arena = Arc::new(match &self.inner.pool {
            Some(pool) => Arena::create_on_pool(self.backend(), pool, config)?,
            None => Arena::with_config(self.backend(), config),
        });
        self.inner.arenas.lock().unwrap().push(Arc::clone(&arena));
        Ok(arena)
    }

    /// The file-backed pool this database lives on, if any.
    pub fn pool(&self) -> Option<Arc<PoolFile>> {
        self.inner.pool.clone()
    }

    /// `true` when this database's arenas live in a file-backed pool.
    pub fn is_pool_backed(&self) -> bool {
        self.inner.pool.is_some()
    }

    /// `msync` the whole pool mapping and sync the backing file's metadata; a
    /// no-op on heap-backed databases. The SIGKILL crash model does not need
    /// this (completed stores survive in the page cache); it is the
    /// power-failure-realism knob and the natural "checkpoint now" call for a
    /// server shutting down cleanly.
    pub fn sync_pool(&self) -> Result<(), OpenError> {
        match &self.inner.pool {
            Some(pool) => pool.sync(),
            None => Ok(()),
        }
    }

    /// Create (and register) an arena sized for slots of type `T`:
    /// `config.slot_size` is ignored in favour of the type's padded size.
    pub fn new_arena_for<T>(&self, config: ArenaConfig) -> Arc<Arena> {
        self.new_arena(config.sized(Arena::slot_size_for::<T>()))
    }

    /// Every arena created through this database, in creation order.
    pub fn arenas(&self) -> Vec<Arc<Arena>> {
        self.inner.arenas.lock().unwrap().clone()
    }

    /// Survey what `image` holds of this database: per arena, the persisted
    /// header and the durably-registered recovery roots. This is the
    /// type-agnostic half of recovery — each map's
    /// `RecoverInImage::recover_arenas(&db.arenas(), image)` rebuilds its
    /// abstract state from the roots reported here.
    pub fn recover(&self, image: &CrashImage) -> DbRecovery {
        DbRecovery {
            arenas: self
                .arenas()
                .iter()
                .map(|arena| ArenaRecovery {
                    header: arena.image_header(image),
                    durable_roots: arena.roots_in_image(image),
                })
                .collect(),
        }
    }
}

// ---- facade constructor ---------------------------------------------------
//
// The paper's default configuration. Every other variant is spelled
// `FlitDb::create(presets::…(backend))`.

use flit_pmem::SimNvram;

use crate::flit_atomic::FlitPolicy;
use crate::scheme::HashedScheme;

impl FlitDb<FlitPolicy<HashedScheme, SimNvram>> {
    /// `flit-HT`: FliT with a hashed counter table of the paper's default size
    /// (1 MB).
    pub fn flit_ht(backend: SimNvram) -> Self {
        Self::create(FlitPolicy::new(HashedScheme::new_default(), backend))
    }
}

/// What opening an existing pool found: produced by [`FlitDb::open`] /
/// [`FlitDbBuilder::open_pool`] alongside the database itself, one stage of
/// the pipeline per field (see the module docs).
#[derive(Debug, Clone)]
pub struct OpenReport {
    /// Arenas adopted from the pool directory.
    pub arenas: usize,
    /// The image-only recovery survey: per-arena persisted headers and the
    /// durably-registered roots — what structures rebuild from.
    pub recovery: DbRecovery,
    /// The pool's previous close was orderly (its superblock held the
    /// clean-close word), so the GC stage was skipped.
    pub clean_close: bool,
    /// The post-crash GC accounting: per-arena reachable / free-listed /
    /// reclaimed slot counts; empty after a clean close.
    pub gc: GcOutcome,
    /// The pool's crash image — what the structures' recovery walks
    /// (`RecoverInImage::recover_arenas`) read from. It is a **live view** of
    /// the mapping, not a snapshot: recover from it before starting traffic
    /// on the database. (`recovery`
    /// above was surveyed *before* the GC stage; read afterwards, the view
    /// also shows GC's free-list links in the slots it reclaimed, which no
    /// root reaches.) The view **pins the mapping**: while this report, or a
    /// clone of it, is alive the pool stays mapped even after the database is
    /// dropped, and opening the same pool again in this process is
    /// [`OpenError::MappingConflict`]. Cloning a report is a reference-count
    /// bump, not a copy of the pool.
    pub image: CrashImage,
    /// Wall-clock cost of each pipeline phase — recovery cost, finally
    /// measurable (`killtest` prints these per round).
    pub timings: OpenTimings,
}

impl OpenReport {
    /// Slots that were unreachable from every root table when the pool was
    /// opened (they died on the volatile recycle list, or in the window
    /// between allocation and publication) and were reclaimed by the GC pass;
    /// 0 after a clean close.
    pub fn leaked_slots(&self) -> usize {
        self.gc.total_reclaimed()
    }

    /// `true` when `key` was durably registered in any arena's root table.
    pub fn has_root(&self, key: u64) -> bool {
        self.recovery.has_root(key)
    }
}

/// Wall-clock nanoseconds spent in each phase of the
/// validate → adopt → recover → GC open pipeline (see the module docs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpenTimings {
    /// Superblock read + validation + mapping at the recorded base.
    pub validate_ns: u64,
    /// Directory walk adopting every arena (header checks, free-list walk).
    pub adopt_ns: u64,
    /// Building the [`CrashImage`] view of the adopted arenas and surveying
    /// their headers and roots through it — O(arenas), no pool word copied.
    pub recover_ns: u64,
    /// The conservative post-crash mark-and-sweep (0 after a clean close).
    pub gc_ns: u64,
}

impl OpenTimings {
    /// Total time across all four phases.
    pub fn total_ns(&self) -> u64 {
        self.validate_ns + self.adopt_ns + self.recover_ns + self.gc_ns
    }
}

/// What [`FlitDb::recover`] reports: the durably-constructed state of each arena
/// in a crash image.
#[derive(Debug, Clone)]
pub struct DbRecovery {
    /// One entry per arena, in creation order.
    pub arenas: Vec<ArenaRecovery>,
}

impl DbRecovery {
    /// `true` when `key` is durably registered in any arena's root table.
    pub fn has_root(&self, key: u64) -> bool {
        self.arenas
            .iter()
            .any(|a| a.durable_roots.iter().any(|(k, _)| *k == key))
    }
}

/// The recoverable state of one arena as persisted in a crash image.
#[derive(Debug, Clone)]
pub struct ArenaRecovery {
    /// The arena's persisted header (always reachable, even mid-construction).
    pub header: ImageHeader,
    /// The durably-registered `(root key, slot base address)` pairs.
    pub durable_roots: Vec<(u64, usize)>,
}

/// An explicit per-logical-thread session on a [`FlitDb`]: the persist epoch
/// (fence/flush elision state), the EBR participant, and backend access. Every
/// data-structure operation takes `&FlitHandle`. See the module docs.
///
/// `Send` but `!Sync`: a handle may outlive (or migrate between) OS threads,
/// but represents exactly one logical thread at a time.
pub struct FlitHandle<'db, P: Policy> {
    db: &'db FlitDb<P>,
    epoch: PersistEpoch,
    elision: ElisionMode,
    commit: CommitMode,
    /// Word addresses whose untag was deferred by group commit: each p-store
    /// this handle issued under [`CommitMode::Batched`] (on a policy whose
    /// scheme supports address-only closes) skipped its trailing fence and left
    /// the word tagged; the tag is closed at this handle's next fence point
    /// (see [`close_deferred_stores`](Self::close_deferred_stores)).
    deferred_closes: RefCell<Vec<usize>>,
    ebr: LocalHandle,
    /// Private shard of the db-wide batch-drain counter.
    drains: CounterShard,
    id: u64,
}

/// A durability receipt under group commit ([`CommitMode::Batched`]): covers
/// every operation completed on its handle up to the moment it was cut
/// ([`FlitHandle::flush_async`] / [`FlitHandle::ticket`]). Check it with
/// [`FlitDb::is_durable`] or block on it with [`FlitDb::wait`] — from any
/// thread. Plain `Copy` data; holding one keeps nothing alive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "a ticket is only useful if something waits on or checks it"]
pub struct Ticket {
    db_id: u64,
    handle_id: u64,
    target: u64,
}

impl Ticket {
    /// How many operations (completion obligations) of the issuing handle this
    /// ticket covers, counted from the handle's creation.
    pub fn covered(&self) -> u64 {
        self.target
    }
}

impl<'db, P: Policy> std::fmt::Debug for FlitHandle<'db, P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlitHandle")
            .field("id", &self.id)
            .field("db", &self.db.id())
            .field("dirty", &!self.epoch.is_clean())
            .finish()
    }
}

impl<'db, P: Policy> FlitHandle<'db, P> {
    /// The database this handle belongs to.
    #[inline]
    pub fn db(&self) -> &'db FlitDb<P> {
        self.db
    }

    /// The database's policy (schemes consult it on the hot path).
    #[inline]
    pub fn policy(&self) -> &'db P {
        self.db.policy()
    }

    /// Id of this handle within its database (diagnostic).
    #[inline]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Id of the owning database (structures debug-assert it matches theirs).
    #[inline]
    pub fn db_id(&self) -> u64 {
        self.db.id()
    }

    /// This handle's persist-epoch state (diagnostics and tests).
    #[inline]
    pub fn epoch(&self) -> &PersistEpoch {
        &self.epoch
    }

    /// Arm this handle's flight recorder: give it a ring, which every
    /// operation from now on records into. Handles start without one, so an
    /// unarmed handle allocates nothing. The first arming also registers the
    /// ring with the database, which is what [`FlitDb::flight_snapshots`]
    /// lists; arming again is a no-op.
    pub fn arm_flight_recorder(&self) {
        if self.epoch.flight().is_none() {
            let ring = (self.id, self.epoch.arm_flight().clone());
            let flights = &self.db.inner.flights;
            flights.lock().expect("flights lock poisoned").push(ring);
        }
    }

    /// The tail of this handle's persistence event stream, oldest first.
    /// Empty unless the handle's recorder has been armed (see
    /// [`arm_flight_recorder`](Self::arm_flight_recorder)).
    pub fn flight_events(&self) -> Vec<FlightEvent> {
        self.epoch
            .flight()
            .map_or_else(Vec::new, FlightRecorder::snapshot)
    }

    /// `true` when this handle has issued `pwb`s not yet committed by a fence.
    #[inline]
    pub fn is_dirty(&self) -> bool {
        !self.epoch.is_clean()
    }

    /// The backend as seen by *this handle*: a [`PmemSession`] that attributes
    /// every instruction to this handle's epoch and applies fence/flush elision
    /// accordingly. All persistence instructions of an operation must go through
    /// this view (raw [`FlitDb::backend`] calls would not be attributed).
    #[inline]
    pub fn pmem(&self) -> PmemSession<'_, P::Backend> {
        PmemSession::new(self.db.backend(), &self.epoch, self.elision)
    }

    /// Pin this handle's EBR participant: shared nodes may be dereferenced and
    /// retired only while the returned [`Guard`] is alive. Re-entrant per handle.
    #[inline]
    pub fn pin(&self) -> Guard<'_> {
        self.ebr.pin()
    }

    /// The paper's `persist::operation_completion()`: must be called at the end
    /// of every data-structure operation.
    ///
    /// Under [`CommitMode::Immediate`] this issues a `pfence` so that every
    /// dependency of the completed operation is persisted before the operation
    /// returns (P-V Interface, Condition 4). The fence goes through the
    /// session's [`pfence_if_dirty`](flit_pmem::PmemSession::pfence_if_dirty):
    /// a handle that issued no `pwb` during the operation (e.g. a read-only
    /// operation over untagged words) holds no unpersisted dependency — every
    /// value it read was persisted by its writer's trailing fence before the
    /// word was untagged — so the completion fence is elided entirely.
    ///
    /// Under [`CommitMode::Batched`]`(k)` it enqueues a completion obligation
    /// instead, draining the queue (one fence for the whole batch) when it
    /// reaches `k` — the group-commit contract described in the module docs.
    #[inline]
    pub fn operation_completion(&self) {
        if !P::PERSISTENT {
            return;
        }
        match self.commit {
            CommitMode::Immediate => self.pmem().pfence_if_dirty(),
            CommitMode::Batched(k) => {
                self.db
                    .inner
                    .obligations_enqueued
                    .fetch_add(1, Ordering::Relaxed);
                if self.epoch.note_obligation() >= k.max(1) as u64 {
                    self.drain_obligations();
                }
            }
        }
    }

    /// Drain this handle's obligation queue: one
    /// [`pfence_if_dirty`](flit_pmem::PmemSession::pfence_if_dirty) commits
    /// every write-back the batch produced, then the batch is acknowledged to
    /// the database (watermark + ticket bookkeeping). Eliding the fence on a
    /// clean epoch is sound: clean means fences issued *inside* later
    /// operations (object-initialisation persists, leading fences) already
    /// committed everything the batch flushed.
    fn drain_obligations(&self) {
        if self.epoch.pending_obligations() == 0 {
            return;
        }
        self.pmem().pfence_if_dirty();
        self.close_deferred_stores();
        let newly = self.epoch.take_obligations();
        self.db
            .ack_obligations(self.id, self.epoch.committed_obligations(), newly);
        self.drains.add(1);
    }

    /// Whether p-stores on this handle defer their trailing fence to the next
    /// fence point: true only under [`CommitMode::Batched`] *and* a policy whose
    /// scheme can close tags by address alone (see
    /// [`Policy::defers_store_fence`]). The adjacent scheme embeds its counter
    /// in the word — which may be reclaimed before a late close — so it keeps
    /// the inline trailing fence even when batched.
    #[inline]
    pub(crate) fn defers_store_fence(&self) -> bool {
        matches!(self.commit, CommitMode::Batched(_)) && self.db.policy().defers_store_fence()
    }

    /// Queue the untag of a p-store whose trailing fence was deferred; the word
    /// stays tagged (readers keep helping) until the handle's next fence point.
    #[inline]
    pub(crate) fn defer_store_close(&self, addr: usize) {
        self.deferred_closes.borrow_mut().push(addr);
    }

    /// Close every deferred untag whose backing write is now durable. Sound
    /// exactly when this handle's epoch is clean — clean means a fence
    /// committed every pwb the handle issued, the deferred stores' write-backs
    /// included — so this is called right after the fence points (the leading
    /// fence of the next update, a batch drain, handle drop). Closing *later*
    /// than possible is always protocol-safe (readers merely keep flushing a
    /// durable value); closing *earlier* would break Condition 4.
    #[inline]
    pub(crate) fn close_deferred_stores(&self) {
        if !self.epoch.is_clean() || self.deferred_closes.borrow().is_empty() {
            return;
        }
        let policy = self.db.policy();
        for addr in self.deferred_closes.borrow_mut().drain(..) {
            policy.close_deferred_store(addr);
        }
    }

    /// Drain the obligation queue now and return a [`Ticket`] covering every
    /// operation completed on this handle so far.
    ///
    /// The drain means the ticket is already durable when this returns — its
    /// value is cross-thread *observability* (hand it to a waiter checking
    /// [`FlitDb::wait`]) and the explicit-flush point of the group-commit
    /// contract. Under [`CommitMode::Immediate`] completions were synchronously
    /// durable all along, so the ticket is trivially durable. For a ticket
    /// that does *not* fence now, see [`FlitHandle::ticket`].
    pub fn flush_async(&self) -> Ticket {
        self.drain_obligations();
        self.ticket()
    }

    /// A [`Ticket`] covering every operation completed on this handle so far,
    /// **without** draining: it becomes durable at this handle's next drain
    /// (batch overflow, [`flush_async`](Self::flush_async), or drop).
    pub fn ticket(&self) -> Ticket {
        Ticket {
            db_id: self.db.id(),
            handle_id: self.id,
            target: self.epoch.enqueued_obligations(),
        }
    }

    /// Obligations acknowledged as durable on this handle (diagnostics and the
    /// crashtest harness's acknowledgment sampling).
    pub fn committed_obligations(&self) -> u64 {
        self.epoch.committed_obligations()
    }

    /// Obligations enqueued on this handle over its lifetime.
    pub fn enqueued_obligations(&self) -> u64 {
        self.epoch.enqueued_obligations()
    }

    /// Acknowledge every pending obligation **without fencing first** — the
    /// crashtest harness's broken control: it claims durability for operations
    /// whose write-backs may still be pending, which the batched-contract
    /// crash sweep must catch. Never call this outside that harness.
    #[doc(hidden)]
    pub fn ack_obligations_without_fence(&self) {
        let newly = self.epoch.take_obligations();
        if newly > 0 {
            self.db
                .ack_obligations(self.id, self.epoch.committed_obligations(), newly);
        }
    }

    /// Flush `len` bytes starting at `start` (every cache line they touch) and
    /// fence, attributed to this handle.
    ///
    /// Used to persist freshly initialised objects before they are published by
    /// a shared p-store; a no-op when `flag` is volatile or the policy is
    /// non-persistent.
    pub fn persist_range(&self, start: *const u8, len: usize, flag: PFlag) {
        if !P::PERSISTENT || flag.is_volatile() || len == 0 {
            return;
        }
        let pm = self.pmem();
        let first = cache_line_of(start as usize);
        let last = cache_line_of(start as usize + len - 1);
        let mut line = first;
        loop {
            pm.pwb(line as *const u8);
            if line == last {
                break;
            }
            line += CACHE_LINE_SIZE;
        }
        pm.pfence();
    }

    /// Persist an entire object (all cache lines it occupies). Typically called
    /// on a freshly allocated node right before the compare-and-swap that
    /// publishes it.
    pub fn persist_object<T>(&self, obj: &T, flag: PFlag) {
        self.persist_range(obj as *const T as *const u8, std::mem::size_of::<T>(), flag);
    }
}

impl<'db, P: Policy> Drop for FlitHandle<'db, P> {
    fn drop(&mut self) {
        if P::PERSISTENT {
            // Group commit: the obligation queue drains *before* any trailing
            // fence — the drain's single fence (issued only when the epoch is
            // dirty) doubles as the trailing fence, and the batch is
            // acknowledged so tickets covering it resolve and the watermark
            // advances even though the handle is going away mid-batch.
            self.drain_obligations();
            // A still-dirty handle holds pwbs no future fence of this logical
            // thread will ever commit (possible only when the caller abandoned
            // it mid-operation): issue the trailing fence now. A clean handle
            // (the normal case) costs nothing here. The EBR slot is returned
            // by `LocalHandle`'s own drop.
            if !self.epoch.is_clean() {
                self.pmem().pfence();
            }
            // Both paths above end with a clean epoch, so any untags still
            // deferred by group commit can be closed before the handle's words
            // lose their owner.
            self.close_deferred_stores();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit_atomic::FlitPolicy;
    use crate::policy::PersistWord;
    use crate::scheme::HashedScheme;
    use flit_pmem::{LatencyModel, SimNvram};

    type HtPolicy = FlitPolicy<HashedScheme, SimNvram>;

    fn db() -> FlitDb<HtPolicy> {
        FlitDb::create(FlitPolicy::new(
            HashedScheme::with_bytes(1 << 16),
            SimNvram::builder().latency(LatencyModel::none()).build(),
        ))
    }

    #[test]
    fn db_is_cloneable_and_shares_state() {
        let db = db();
        let clone = db.clone();
        assert_eq!(db.id(), clone.id());
        let _a = db.new_arena(ArenaConfig::with_slot_size(64).chunked(8));
        assert_eq!(clone.arenas().len(), 1);
    }

    #[test]
    fn handles_have_independent_epochs() {
        let db = db();
        let h1 = db.handle();
        let h2 = db.handle();
        assert_ne!(h1.id(), h2.id());
        let x = 1u64;
        h1.pmem().pwb(&x as *const u64 as *const u8);
        assert!(h1.is_dirty());
        assert!(!h2.is_dirty(), "h2 must not see h1's pwb");
        h2.operation_completion(); // clean handle: elided
        assert!(h1.is_dirty(), "h2's (elided) fence must not clean h1");
        h1.operation_completion(); // dirty handle: fences
        assert!(!h1.is_dirty());
        let stats = db.stats_snapshot().unwrap();
        assert_eq!(stats.pfences, 1);
        assert_eq!(stats.elided_pfences, 1);
    }

    #[test]
    fn dropping_a_dirty_handle_issues_the_trailing_fence() {
        let sim = SimNvram::for_crash_testing();
        let db = FlitDb::create(FlitPolicy::new(
            HashedScheme::with_bytes(1 << 12),
            sim.clone(),
        ));
        let x = 0u64;
        let addr = &x as *const u64 as usize;
        {
            let h = db.handle();
            let pm = h.pmem();
            pm.record_store(addr as *const u8, 77);
            pm.pwb(addr as *const u8);
            assert!(h.is_dirty());
            // No fence: the value is flushed but not committed.
            assert_eq!(sim.tracker().unwrap().persisted_value(addr), None);
        } // drop: the trailing fence commits the pending flush
        assert_eq!(sim.tracker().unwrap().persisted_value(addr), Some(77));
    }

    #[test]
    fn dropping_a_clean_handle_fences_nothing() {
        let db = db();
        {
            let _h = db.handle();
        }
        assert_eq!(db.stats_snapshot().unwrap().pfences, 0);
    }

    #[test]
    fn handle_drop_returns_the_ebr_slot() {
        let db = db();
        for _ in 0..4 * flit_ebr::MAX_PARTICIPANTS {
            let h = db.handle();
            drop(h.pin());
        }
        assert_eq!(db.collector().participants(), 0);
    }

    #[test]
    fn persist_object_and_completion_go_through_the_handle() {
        let db = db();
        let h = db.handle();
        #[repr(align(64))]
        struct Big(#[allow(dead_code)] [u8; 128]);
        let big = Big([0; 128]);
        h.persist_object(&big, PFlag::Persisted);
        let snap = db.stats_snapshot().unwrap();
        assert_eq!(snap.pwbs, 2);
        assert_eq!(snap.pfences, 1);
        assert!(!h.is_dirty(), "persist_object ends fenced");
        h.persist_range(std::ptr::null(), 0, PFlag::Persisted);
        h.persist_object(&big, PFlag::Volatile);
        assert_eq!(db.stats_snapshot().unwrap().pwbs, 2, "no-ops stayed no-ops");
    }

    #[test]
    fn db_recover_reports_durable_roots() {
        let sim = SimNvram::for_crash_testing();
        let db = FlitDb::create(FlitPolicy::new(
            HashedScheme::with_bytes(1 << 12),
            sim.clone(),
        ));
        let arena = db.new_arena(ArenaConfig::with_slot_size(64).chunked(8));
        let h = db.handle();
        let slot = arena.alloc(&h.pmem()) as usize;
        h.operation_completion();
        let before = db.recover(&sim.tracker().unwrap().crash_image());
        assert!(!before.has_root(flit_alloc::roots::LIST_HEAD));
        assert!(before.arenas[0].header.initialised);
        arena.register_root(&h.pmem(), flit_alloc::roots::LIST_HEAD, slot);
        let after = db.recover(&sim.tracker().unwrap().crash_image());
        assert!(after.has_root(flit_alloc::roots::LIST_HEAD));
        assert_eq!(after.arenas.len(), 1);
    }

    fn batched_db(k: usize) -> (SimNvram, FlitDb<HtPolicy>) {
        let sim = SimNvram::for_crash_testing();
        let db = FlitDb::builder(FlitPolicy::new(
            HashedScheme::with_bytes(1 << 12),
            sim.clone(),
        ))
        .commit_mode(CommitMode::Batched(k))
        .build();
        (sim, db)
    }

    #[test]
    fn builder_defaults_match_create() {
        let db = db();
        assert_eq!(db.commit_mode(), CommitMode::Immediate);
        assert_eq!(db.arena_defaults(), ArenaConfig::default());
        assert_eq!(db.durable_watermark(), 0);
    }

    #[test]
    fn builder_sets_commit_mode_and_arena_defaults() {
        let db = FlitDb::builder(FlitPolicy::new(
            HashedScheme::with_bytes(1 << 12),
            SimNvram::builder().latency(LatencyModel::none()).build(),
        ))
        .commit_mode(CommitMode::Batched(4))
        .arena_defaults(ArenaConfig::with_slots_per_chunk(128))
        .build();
        assert_eq!(db.commit_mode(), CommitMode::Batched(4));
        assert_eq!(db.arena_defaults().slots_per_chunk, 128);
    }

    #[test]
    fn batched_completion_defers_the_fence_until_the_batch_fills() {
        let (sim, db) = batched_db(3);
        let h = db.handle();
        let xs = [0u64; 3];
        for (i, x) in xs.iter().enumerate() {
            let addr = x as *const u64 as *const u8;
            let pm = h.pmem();
            pm.record_store(addr, i as u64 + 1);
            pm.pwb(addr);
            h.operation_completion();
        }
        // The third completion overflowed the batch: one drain fence committed
        // all three operations' write-backs and acknowledged them.
        assert!(!h.is_dirty());
        assert_eq!(db.durable_watermark(), 3);
        assert_eq!(h.committed_obligations(), 3);
        let tracker = sim.tracker().unwrap();
        for (i, x) in xs.iter().enumerate() {
            assert_eq!(
                tracker.persisted_value(x as *const u64 as usize),
                Some(i as u64 + 1)
            );
        }
        assert_eq!(
            db.stats_snapshot().unwrap().pfences,
            1,
            "one fence per batch"
        );
    }

    #[test]
    fn flush_async_drains_midbatch_and_wait_observes_it() {
        let (sim, db) = batched_db(64);
        let h = db.handle();
        let x = 0u64;
        let addr = &x as *const u64 as usize;
        let pm = h.pmem();
        pm.record_store(addr as *const u8, 9);
        pm.pwb(addr as *const u8);
        h.operation_completion();
        // Mid-batch: completed but unacknowledged, flush not yet committed.
        assert!(h.is_dirty());
        assert_eq!(sim.tracker().unwrap().persisted_value(addr), None);
        let early = h.ticket();
        assert!(!db.is_durable(early), "nothing drained yet");
        let ticket = h.flush_async();
        assert!(db.is_durable(ticket));
        assert!(
            db.is_durable(early),
            "the drain acknowledged the earlier cut too"
        );
        db.wait(ticket);
        assert_eq!(ticket.covered(), 1);
        assert_eq!(sim.tracker().unwrap().persisted_value(addr), Some(9));
        assert_eq!(db.durable_watermark(), 1);
    }

    #[test]
    fn immediate_mode_tickets_are_trivially_durable() {
        let db = db();
        let h = db.handle();
        let w = <HtPolicy as Policy>::Word::<u64>::new(0);
        w.store(&h, 5, PFlag::Persisted);
        h.operation_completion();
        let ticket = h.flush_async();
        assert!(db.is_durable(ticket));
        assert_eq!(ticket.covered(), 0, "immediate mode enqueues nothing");
        assert_eq!(db.durable_watermark(), 0);
    }

    fn temp_pool(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("flit-db-{}-{name}.pool", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn ht_policy() -> HtPolicy {
        FlitPolicy::new(
            HashedScheme::with_bytes(1 << 12),
            SimNvram::builder().latency(LatencyModel::none()).build(),
        )
    }

    #[cfg(unix)]
    #[test]
    fn pool_create_then_open_recovers_roots_and_reclaims_leaks() {
        let path = temp_pool("roundtrip");
        {
            let db = FlitDb::builder(ht_policy()).create_pool(&path).unwrap();
            assert!(db.is_pool_backed());
            let arena = db.new_arena(ArenaConfig::with_slot_size(64).chunked(8));
            let h = db.handle();
            let root = arena.alloc(&h.pmem()) as usize;
            let _leaked = arena.alloc(&h.pmem());
            arena.register_root(&h.pmem(), flit_alloc::roots::LIST_HEAD, root);
            drop(h);
            db.sync_pool().unwrap();
        } // dropping the db closes the pool cleanly and unmaps it
        {
            // Model a crash instead: clear the clean-close word through the
            // file.
            use std::os::unix::fs::FileExt;
            let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
            let word = flit_pmem::pool::superblock::CLEAN_CLOSE as u64;
            file.write_all_at(&0u64.to_le_bytes(), word).unwrap();
        }
        let (db, report) = FlitDb::open(&path, ht_policy()).unwrap();
        assert!(!report.clean_close);
        assert_eq!(report.arenas, 1);
        assert!(report.has_root(flit_alloc::roots::LIST_HEAD));
        // `_leaked` was allocated but never published: the GC pass reclaims it.
        assert_eq!(report.leaked_slots(), 1);
        assert_eq!(report.gc.arenas[0].reachable, 1);
        // The adopted arena accepts new traffic.
        let h = db.handle();
        let again = db.arenas()[0].alloc(&h.pmem());
        assert!(!again.is_null());
        drop(h);
        drop(db);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn open_adopts_the_pools_commit_mode_and_rejects_a_conflicting_one() {
        let path = temp_pool("commit-mode");
        {
            let db = FlitDb::builder(ht_policy())
                .commit_mode(CommitMode::Batched(8))
                .create_pool(&path)
                .unwrap();
            db.sync_pool().unwrap();
        }
        // No explicit mode: adopt what the superblock records.
        {
            let (db, _report) = FlitDb::open(&path, ht_policy()).unwrap();
            assert_eq!(db.commit_mode(), CommitMode::Batched(8));
        }
        // Conflicting explicit mode: typed error, no panic.
        let err = FlitDb::builder(ht_policy())
            .commit_mode(CommitMode::Immediate)
            .open_pool(&path)
            .unwrap_err();
        match err {
            OpenError::CommitModeMismatch { pool, requested } => {
                assert_eq!(pool, Some(CommitMode::Batched(8)));
                assert_eq!(requested, CommitMode::Immediate);
            }
            other => panic!("expected CommitModeMismatch, got {other}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn create_volatile_is_heap_backed() {
        let db = FlitDb::create(ht_policy());
        assert!(!db.is_pool_backed());
        assert!(db.pool().is_none());
        db.sync_pool().unwrap();
    }

    #[test]
    fn words_operate_through_a_handle() {
        let db = db();
        let h = db.handle();
        let w = <HtPolicy as Policy>::Word::<u64>::new(1);
        w.store(&h, 9, PFlag::Persisted);
        assert_eq!(w.load(&h, PFlag::Persisted), 9);
        h.operation_completion();
        assert_eq!(db.handles_created(), 1);
    }
}
