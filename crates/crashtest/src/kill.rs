//! Process-kill crash rounds and corruption injection against file-backed
//! pools — the "real crash" counterpart of the simulated [`CrashPlan`] sweeps.
//!
//! The simulated sweeps freeze an adversarial image at chosen persistence
//! events; this module kills a **real child process** (`SIGKILL`, no cleanup
//! of any kind) mid-traffic against an mmap'd pool file and re-opens the pool
//! in the parent. What the file reflects after a kill is exactly the store
//! stream the child had executed — completed stores survive in the page
//! cache — so a kill lands *inside* whatever operation was in flight,
//! including mid-batch under [`CommitMode::Batched`].
//!
//! ## The workload and its prefix contract
//!
//! The child runs a fixed, deterministic single-handle workload over a
//! pool-backed hash table — op `j` (1-based) is `remove(j - 3)` when
//! `j % 7 == 0` and `insert(j, 3j + 1)` otherwise — and after every operation
//! writes its **acknowledged floor** to a sidecar file: the operation count
//! under [`CommitMode::Immediate`] (completions are synchronously durable),
//! the handle's `committed_obligations()` under batched group commit
//! (unacknowledged operations may legitimately die with the process).
//!
//! After the kill, [`run_kill_round`] re-opens the pool
//! (validate → adopt → recover → GC) and requires the recovered map to equal
//! the model state after **exactly `c` operations** for some single
//! `c ≥ floor` — the durable-linearizability prefix contract, checked against
//! a real dead process instead of a frozen image. It then re-runs
//! [`post_crash_gc`] and requires the second pass to reclaim zero slots (the
//! pass that ran inside `open` must have closed every leak).
//!
//! ## Corruption injection
//!
//! [`corruption_suite`] takes a valid pool file and clobbers one persisted
//! field at a time — truncation, superblock magic/version, the commit-mode
//! compat word, an arena header's slot size, a root-table entry, the
//! high-water mark — asserting that every case surfaces as the matching typed
//! [`OpenError`] variant and none of them panics.
//!
//! [`CrashPlan`]: flit_pmem::CrashPlan

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use flit::{CommitMode, FlitDb, FlitPolicy, HashedScheme, OpenError};
use std::sync::Arc;

use flit_alloc::{post_crash_gc, Arena};
use flit_datastructs::{Automatic, ConcurrentMap, HashTable, RecoverInImage};
use flit_hamt::Hamt;
use flit_pmem::{CrashImage, LatencyModel, SimNvram};
use flit_workload::MapOp;

use crate::engine::{apply_map_op, apply_model};

/// The policy every kill round runs under: flit-HT over simulated-NVRAM
/// instruction accounting (the data itself lives in the pool file).
pub type KillPolicy = FlitPolicy<HashedScheme, SimNvram>;
/// The structure under test: the pool-backed hash table.
pub type KillMap = HashTable<KillPolicy, Automatic>;
/// The copy-on-write structure the snapshot kill rounds run
/// ([`child_main_hamt`]).
pub type KillHamt = Hamt<KillPolicy>;

/// CLI marker the child-process dispatch hides behind (see [`child_main`]):
/// `<exe> --kill-child <pool> <sidecar> <ops> <commit>`.
pub const CHILD_FLAG: &str = "--kill-child";

/// The policy every kill round runs under: the hashed P-V scheme over a
/// backend with no simulated latency (real pools get their timing from the
/// page cache, not the latency model). Public so in-process tests can build
/// pools the [`verify_pool`]/[`verify_hamt_pool`] walks understand.
pub fn kill_policy() -> KillPolicy {
    FlitPolicy::new(
        HashedScheme::with_bytes(1 << 14),
        SimNvram::builder().latency(LatencyModel::none()).build(),
    )
}

/// `splitmix64` — the tiny deterministic seed mixer the rounds derive their
/// kill delays from (no RNG dependency).
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Workload operation `j` (1-based). No key is inserted twice, so the model
/// never stutters: every operation changes the state.
fn kill_op(j: u64) -> MapOp {
    if j % 7 == 0 {
        MapOp::Remove(j - 3)
    } else {
        MapOp::Insert(j, 3 * j + 1)
    }
}

/// The model key→value state after the first `ops` workload operations.
pub fn model_state(ops: u64) -> BTreeMap<u64, u64> {
    let mut model = BTreeMap::new();
    for j in 1..=ops {
        apply_model(&mut model, kill_op(j));
    }
    model
}

/// Parse a commit-mode CLI word: `immediate` or `batched-K` (`K >= 1`).
pub fn parse_commit(word: &str) -> Option<CommitMode> {
    CommitMode::parse(word)
}

/// Render a commit mode as the CLI word [`parse_commit`] accepts.
pub fn commit_word(commit: CommitMode) -> String {
    commit.name()
}

/// Overwrite the sidecar word at `offset` (0: acknowledged floor, 8: snapshot
/// marker).
fn write_sidecar_word(side: &std::fs::File, offset: u64, value: u64) -> Result<(), String> {
    #[cfg(unix)]
    {
        use std::os::unix::fs::FileExt;
        side.write_all_at(&value.to_le_bytes(), offset)
            .map_err(|e| format!("child: sidecar write: {e}"))
    }
    #[cfg(not(unix))]
    {
        let _ = (side, offset, value);
        Err("kill rounds require a unix platform".into())
    }
}

/// The workload loop both children run: operation `j` on `map`, then the
/// acknowledged floor to sidecar offset 0. Right after operation `snap_at`
/// (never, when 0) it calls `take_snapshot` and writes `snap_at` to sidecar
/// offset 8 — the parent's signal that a retained snapshot is now live. Before
/// returning it drains the handle and writes `floor = ops`, so whatever the
/// caller tears down afterwards (the snapshot release) happens in a window the
/// parent recognises as past the last acknowledged operation.
fn run_workload<M: ConcurrentMap<KillPolicy>>(
    db: &FlitDb<KillPolicy>,
    map: &M,
    sidecar: &Path,
    ops: u64,
    snap_at: u64,
    mut take_snapshot: impl FnMut(&flit::FlitHandle<'_, KillPolicy>),
) -> Result<(), String> {
    let h = db.handle();
    let side = std::fs::OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(true)
        .open(sidecar)
        .map_err(|e| format!("child: sidecar: {e}"))?;
    // `snapshot()` registers a durability obligation of its own (its completion
    // fence), so once it is live the committed count runs one ahead of the
    // workload; subtract it — a floor that lags by one while the snapshot's own
    // batch is still open is merely conservative.
    let mut snapshot_obligations = 0;
    for j in 1..=ops {
        apply_map_op(map, &h, kill_op(j));
        let floor = match db.commit_mode() {
            CommitMode::Immediate => j,
            CommitMode::Batched(_) => h
                .committed_obligations()
                .saturating_sub(snapshot_obligations),
        };
        write_sidecar_word(&side, 0, floor)?;
        if j == snap_at {
            take_snapshot(&h);
            snapshot_obligations = 1;
            write_sidecar_word(&side, 8, snap_at)?;
        }
    }
    // Drained means durable already; nobody waits on the ticket.
    let _ = h.flush_async();
    write_sidecar_word(&side, 0, ops)
}

/// The child side of a kill round: create a fresh pool at `pool`, run the
/// deterministic workload, and after every operation overwrite the first
/// 8 bytes of `sidecar` with the acknowledged floor. Exits 0 after `ops`
/// operations — unless the parent's `SIGKILL` lands first, which is the
/// point. Returns an error message only for setup failures (which the parent
/// reports as harness breakage, not as a durability violation).
pub fn child_main(pool: &Path, sidecar: &Path, ops: u64, commit: CommitMode) -> Result<(), String> {
    let db = FlitDb::builder(kill_policy())
        .commit_mode(commit)
        .create_pool(pool)
        .map_err(|e| format!("child: create_pool: {e}"))?;
    // Size the node arena for the whole run: the pool directory caps an arena
    // at 40 chunks, so the chunk slot-count must scale with `ops` (the
    // workload keeps ~6/7 of its inserts live). The bucket count can stay
    // moderate — chain length only affects harness speed.
    let chunk_slots = ((ops as usize) / 16).next_power_of_two().max(1024);
    let buckets = (ops as usize / 16).clamp(64, 8192);
    let map = KillMap::with_capacity_cfg(
        &db,
        buckets,
        flit_alloc::ArenaConfig::with_slots_per_chunk(chunk_slots),
    );
    run_workload(&db, &map, sidecar, ops, 0, |_| {})
}

/// The snapshot kill-round child ([`child_main_hamt`]): the same deterministic
/// workload over a copy-on-write [`Hamt`], with a [`Hamt::snapshot`] taken
/// right after operation `snap_at` and **held alive until the kill lands**.
/// The snapshot's retained-root table entry is persisted in the arena, so the
/// parent can replay the snapshot from the reopened pool and require it to
/// iterate to exactly the model state after `snap_at` operations — the frozen
/// contents — no matter how much the live trie mutated (and retired the
/// snapshot's unshared nodes into the pinned backlog) before the kill.
///
/// After taking the snapshot the child writes `snap_at` to sidecar offset 8
/// (offset 0 stays the acknowledged floor), which is the parent's signal that
/// the kill may land: every snapshot round verifies a retained snapshot. A
/// child that runs to completion releases the snapshot only after its sidecar
/// says `floor = ops`.
pub fn child_main_hamt(
    pool: &Path,
    sidecar: &Path,
    ops: u64,
    commit: CommitMode,
    snap_at: u64,
) -> Result<(), String> {
    let db = FlitDb::builder(kill_policy())
        .commit_mode(commit)
        .create_pool(pool)
        .map_err(|e| format!("child: create_pool: {e}"))?;
    // COW churn: every update allocates a fresh path (leaf + interior copies),
    // and after the snapshot the retired old paths pile up in the pinned
    // backlog instead of recycling. The pool directory caps an arena at 40
    // chunks, so slots per chunk must scale with the op count, not the
    // live-key count.
    let chunk_slots = ((ops as usize) / 4).next_power_of_two().max(2048);
    let map = KillHamt::with_config(
        &db,
        ops as usize,
        flit_alloc::ArenaConfig::with_slots_per_chunk(chunk_slots),
    );
    let mut snapshot = None;
    run_workload(&db, &map, sidecar, ops, snap_at, |h| {
        snapshot = Some(map.snapshot(h))
    })
}

/// What one kill round found (when it did not fail).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KillRoundReport {
    /// The prefix length the recovered state matched.
    pub matched_prefix: u64,
    /// The acknowledged floor read back from the sidecar.
    pub acked_floor: u64,
    /// Slots the open-time GC pass reclaimed.
    pub reclaimed_slots: usize,
    /// Per-phase wall-clock timings of the re-open pipeline
    /// (validate → adopt → recover → GC), from [`OpenReport::timings`].
    ///
    /// [`OpenReport::timings`]: flit::OpenReport#structfield.timings
    pub timings: flit::OpenTimings,
    /// `true` when the child ran to completion before the kill landed (the
    /// round still validated a full clean-shutdown recovery).
    pub child_finished: bool,
}

/// How a kill round can fail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KillViolation {
    /// Re-opening the pool after the kill produced an error (rendered).
    OpenFailed(String),
    /// The recovery walk stopped early: a reachable word is missing from the
    /// pool, or a link leaves its arena. A truncated walk's pairs are a
    /// fragment, so no prefix match is attempted on them.
    RecoveryTruncated,
    /// The recovered state matched no workload prefix at all.
    NoPrefixMatch {
        /// Recovered pairs, sorted by key.
        recovered: Vec<(u64, u64)>,
        /// The sidecar floor the match had to reach.
        floor: u64,
    },
    /// The recovered state matched a prefix *shorter* than the acknowledged
    /// floor — an acknowledged operation was lost.
    AckedOperationLost {
        /// The prefix that matched.
        matched: u64,
        /// The floor it had to reach.
        floor: u64,
    },
    /// A second GC pass reclaimed slots the open-time pass should have.
    GcNotIdempotent {
        /// Slots the second pass reclaimed (must be 0).
        second_pass: usize,
    },
    /// A snapshot round's retained snapshot failed verification: missing,
    /// unexpectedly present after a clean release, truncated, or diverged
    /// from its frozen contents (rendered).
    SnapshotCheck(String),
    /// The harness itself failed (spawn error, sidecar never appeared, …).
    Harness(String),
}

impl std::fmt::Display for KillViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::OpenFailed(e) => write!(f, "re-open after kill failed: {e}"),
            Self::RecoveryTruncated => write!(
                f,
                "recovery walk truncated: a reachable word is missing from the pool \
                 or a link leaves its arena"
            ),
            Self::NoPrefixMatch { recovered, floor } => write!(
                f,
                "recovered state ({} pairs) matches no workload prefix ≥ floor {floor}",
                recovered.len()
            ),
            Self::AckedOperationLost { matched, floor } => write!(
                f,
                "recovered state is the prefix after {matched} ops, but {floor} were acknowledged"
            ),
            Self::GcNotIdempotent { second_pass } => write!(
                f,
                "second GC pass reclaimed {second_pass} slots (open-time pass missed them)"
            ),
            Self::SnapshotCheck(e) => write!(f, "retained-snapshot check failed: {e}"),
            Self::Harness(e) => write!(f, "harness failure: {e}"),
        }
    }
}

/// Everything [`run_kill_round`] needs to know.
#[derive(Debug, Clone)]
pub struct KillRound {
    /// The binary to spawn as the workload child — it must dispatch
    /// [`child_main`] when its first argument is [`CHILD_FLAG`] (the
    /// `killtest` binary does; tests can pass `std::env::current_exe()` when
    /// they implement the same dispatch).
    pub exe: PathBuf,
    /// Directory the round's pool and sidecar files live in.
    pub dir: PathBuf,
    /// Round index (names the files, so failed rounds leave their pool behind
    /// for artifact upload).
    pub round: u64,
    /// Seed for the kill-delay schedule.
    pub seed: u64,
    /// Operations the child attempts.
    pub ops: u64,
    /// Commit mode of the child's database.
    pub commit: CommitMode,
    /// Keep the round's pool and sidecar files even when the round passes
    /// (normally only failed rounds leave them behind). `flitctl inspect`
    /// consumers — the CI observability smoke job — use this to get a real
    /// post-kill pool to introspect.
    pub keep_files: bool,
    /// `Some(snap_at)` turns this into a **snapshot round**: the child runs
    /// the [`child_main_hamt`] workload, the parent waits for the snapshot
    /// marker before killing, and verification additionally requires the
    /// retained snapshot to replay to exactly the model state after `snap_at`
    /// operations. `None` runs the classic hash-table round.
    pub hamt_snap: Option<u64>,
}

impl KillRound {
    /// The round's pool file path.
    pub fn pool_path(&self) -> PathBuf {
        self.dir.join(format!(
            "kill{}-{}-round-{:03}.pool",
            if self.hamt_snap.is_some() {
                "-hamt"
            } else {
                ""
            },
            commit_word(self.commit),
            self.round
        ))
    }

    /// The round's sidecar (acknowledged-floor) file path.
    pub fn sidecar_path(&self) -> PathBuf {
        self.pool_path().with_extension("floor")
    }
}

/// The sidecar word at `offset` (see [`write_sidecar_word`]); 0 until the
/// child has written it.
fn read_sidecar_word(sidecar: &Path, offset: u64) -> u64 {
    #[cfg(unix)]
    {
        read_word_at(sidecar, offset).unwrap_or(0)
    }
    #[cfg(not(unix))]
    {
        let _ = (sidecar, offset);
        0
    }
}

/// Walk the model forward and find the unique prefix length the recovered
/// (sorted) state equals — `apply_model` never stutters, so at most one `c`
/// matches.
fn match_model_prefix(recovered: &[(u64, u64)], ops: u64) -> Option<u64> {
    let mut model = BTreeMap::new();
    for c in 0..=ops {
        if c > 0 {
            apply_model(&mut model, kill_op(c));
        }
        if model.len() == recovered.len()
            && model
                .iter()
                .map(|(k, v)| (*k, *v))
                .eq(recovered.iter().copied())
        {
            return Some(c);
        }
    }
    None
}

/// The verification core both structures share: re-open `pool`
/// (validate → adopt → recover → GC), recover `M` over the adopted arenas,
/// require the walk to be whole and the recovered pairs to be the model after
/// exactly `c ≥ floor` operations, run the structure-specific `extra` check
/// over those arenas and the pool's image, and finally require a second GC
/// pass to reclaim nothing.
fn verify_recovered<M: RecoverInImage>(
    pool: &Path,
    ops: u64,
    floor: u64,
    extra: impl FnOnce(&[Arc<Arena>], &CrashImage) -> Result<(), KillViolation>,
) -> Result<KillRoundReport, KillViolation> {
    let (db, report) =
        FlitDb::open(pool, kill_policy()).map_err(|e| KillViolation::OpenFailed(e.to_string()))?;
    let arenas = db.arenas();
    let rec = M::recover_arenas(&arenas, &report.image);
    if rec.truncated {
        return Err(KillViolation::RecoveryTruncated);
    }
    let recovered = rec.sorted_pairs();

    let matched = match match_model_prefix(&recovered, ops) {
        Some(c) => c,
        None => return Err(KillViolation::NoPrefixMatch { recovered, floor }),
    };
    if matched < floor {
        return Err(KillViolation::AckedOperationLost { matched, floor });
    }
    extra(&arenas, &report.image)?;

    // The open-time GC must have closed every leak — including everything a
    // retained snapshot pins: a second pass is a no-op.
    let second_pass = post_crash_gc(&db.arenas()).total_reclaimed();
    if second_pass != 0 {
        return Err(KillViolation::GcNotIdempotent { second_pass });
    }

    Ok(KillRoundReport {
        matched_prefix: matched,
        acked_floor: floor,
        reclaimed_slots: report.leaked_slots(),
        timings: report.timings,
        child_finished: false,
    })
}

/// Recover the workload map from a pool file and check it against the model:
/// the shared verification tail of [`run_kill_round`], also run directly by
/// the integration tests on pools they construct in-process.
pub fn verify_pool(pool: &Path, ops: u64, floor: u64) -> Result<KillRoundReport, KillViolation> {
    verify_recovered::<KillMap>(pool, ops, floor, |_, _| Ok(()))
}

/// [`verify_pool`] for snapshot rounds: recover the [`KillHamt`] main trie
/// (same prefix contract) **and** its retained-root table from the reopened
/// pool. When the kill landed mid-workload (`!released && floor < ops`)
/// exactly one retained snapshot must recover, un-truncated, and replay to
/// exactly the model state after `snap_at` operations; when the child finished
/// cleanly (`released` true) its snapshot drop wrote refcount 0, so the table
/// must recover empty. A kill that lands *after* the last acknowledged
/// operation but before process exit (`floor == ops`) races the release
/// itself, so either outcome is legal there — but a snapshot that is present
/// must still be exact.
pub fn verify_hamt_pool(
    pool: &Path,
    ops: u64,
    floor: u64,
    snap_at: u64,
    released: bool,
) -> Result<KillRoundReport, KillViolation> {
    verify_recovered::<KillHamt>(pool, ops, floor, |arenas, image| {
        let snaps: Vec<_> = arenas
            .iter()
            .flat_map(|a| KillHamt::recover_snapshots_in_image(a, image))
            .collect();
        let fail = |why: String| Err(KillViolation::SnapshotCheck(why));
        if released {
            if !snaps.is_empty() {
                return fail(format!(
                    "{} retained snapshot(s) recovered after a clean release",
                    snaps.len()
                ));
            }
            return Ok(());
        }
        // `floor == ops` means the kill landed in the child's exit path, where
        // the snapshot release (a plain refcount store that survives SIGKILL the
        // instant it executes) races the kill — the table may recover either way.
        if snaps.is_empty() && floor >= ops {
            return Ok(());
        }
        if snaps.len() != 1 {
            return fail(format!(
                "expected exactly one retained snapshot, recovered {}",
                snaps.len()
            ));
        }
        let snap = &snaps[0];
        if snap.rec.truncated {
            return fail(
                "retained snapshot's recovery walk truncated (part of its frozen path is \
                 missing from the pool)"
                    .into(),
            );
        }
        let frozen: Vec<(u64, u64)> = model_state(snap_at).into_iter().collect();
        if snap.rec.sorted_pairs() != frozen {
            return fail(format!(
                "retained snapshot (slot {}, version {}) recovered {} pair(s) but its frozen \
                 contents (model after {snap_at} ops) have {}",
                snap.slot,
                snap.version,
                snap.rec.pairs.len(),
                frozen.len()
            ));
        }
        Ok(())
    })
}

/// Run one seeded kill round: spawn the child workload, wait for its first
/// acknowledged operation, `SIGKILL` it after a seed-derived delay, and verify
/// the pool it left behind (see the module docs). On success the round's files
/// are deleted; on failure they are left in place for artifact upload.
pub fn run_kill_round(round: &KillRound) -> Result<KillRoundReport, KillViolation> {
    let pool = round.pool_path();
    let sidecar = round.sidecar_path();
    let _ = std::fs::remove_file(&pool);
    let _ = std::fs::remove_file(&sidecar);
    std::fs::create_dir_all(&round.dir)
        .map_err(|e| KillViolation::Harness(format!("create_dir_all: {e}")))?;

    let mut cmd = Command::new(&round.exe);
    cmd.arg(CHILD_FLAG)
        .arg(&pool)
        .arg(&sidecar)
        .arg(round.ops.to_string())
        .arg(commit_word(round.commit));
    if let Some(snap_at) = round.hamt_snap {
        cmd.arg("hamt").arg(snap_at.to_string());
    }
    let mut child = cmd
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| KillViolation::Harness(format!("spawn {}: {e}", round.exe.display())))?;

    // Wait until the child has acknowledged at least one operation (so the
    // kill lands mid-traffic, not mid-setup) — and, for snapshot rounds, until
    // the snapshot marker appears (so every round verifies a retained
    // snapshot) — with a generous timeout.
    let started = Instant::now();
    let mut child_finished = false;
    loop {
        let ready = match round.hamt_snap {
            Some(_) => read_sidecar_word(&sidecar, 8) >= 1,
            None => read_sidecar_word(&sidecar, 0) >= 1,
        };
        if ready {
            break;
        }
        if let Some(status) = child
            .try_wait()
            .map_err(|e| KillViolation::Harness(format!("try_wait: {e}")))?
        {
            if !status.success() {
                return Err(KillViolation::Harness(format!(
                    "child exited {status} before its first operation"
                )));
            }
            child_finished = true;
            break;
        }
        if started.elapsed() > Duration::from_secs(30) {
            let _ = child.kill();
            let _ = child.wait();
            return Err(KillViolation::Harness(
                "child produced no acknowledged operation within 30s".into(),
            ));
        }
        std::thread::sleep(Duration::from_micros(200));
    }

    if !child_finished {
        // Seed-derived delay, then SIGKILL — `Child::kill` sends SIGKILL on
        // unix, so the child gets no chance to flush, drop, or unwind. The
        // window spans the run, so kills land all over it (and a round whose
        // child finishes first still verifies a full clean recovery): a
        // snapshot round just measured spawn → marker, which covered the first
        // third of its operations, so the rest takes about twice that; the
        // hash-table rounds' 150 k-operation default runs past 120 ms.
        let window_us = match round.hamt_snap {
            Some(_) => 2 * started.elapsed().as_micros() as u64,
            None => 120_000,
        };
        let delay = splitmix64(round.seed.wrapping_add(round.round)) % window_us.max(1);
        std::thread::sleep(Duration::from_micros(delay));
        child_finished = match child.try_wait() {
            Ok(Some(_)) => true,
            _ => {
                child
                    .kill()
                    .map_err(|e| KillViolation::Harness(format!("kill: {e}")))?;
                false
            }
        };
        child
            .wait()
            .map_err(|e| KillViolation::Harness(format!("wait: {e}")))?;
    }

    let floor = read_sidecar_word(&sidecar, 0);
    let mut report = match round.hamt_snap {
        Some(snap_at) => verify_hamt_pool(&pool, round.ops, floor, snap_at, child_finished)?,
        None => verify_pool(&pool, round.ops, floor)?,
    };
    report.child_finished = child_finished;
    if !round.keep_files {
        let _ = std::fs::remove_file(&pool);
        let _ = std::fs::remove_file(&sidecar);
    }
    Ok(report)
}

// ---- corruption injection ------------------------------------------------

/// One corruption case: a name, the clobber, and the check that the resulting
/// [`OpenError`] is the right variant.
pub struct CorruptionCase {
    /// Short kebab-case name (reported and used in failure messages).
    pub name: &'static str,
    corrupt: fn(&Path) -> std::io::Result<()>,
    expect: fn(&OpenError) -> bool,
    /// What the case expects, for failure messages.
    pub expected: &'static str,
}

#[cfg(unix)]
fn write_word_at(path: &Path, offset: u64, value: u64) -> std::io::Result<()> {
    use std::os::unix::fs::FileExt;
    let f = std::fs::OpenOptions::new().write(true).open(path)?;
    f.write_at(&value.to_le_bytes(), offset)?;
    f.sync_all()
}

#[cfg(unix)]
fn read_word_at(path: &Path, offset: u64) -> std::io::Result<u64> {
    use std::os::unix::fs::FileExt;
    let f = std::fs::File::open(path)?;
    let mut buf = [0u8; 8];
    f.read_exact_at(&mut buf, offset)?;
    Ok(u64::from_le_bytes(buf))
}

/// Locate arena 0's header base offset in the pool file (via its directory
/// entry), so corruption cases can clobber header words.
#[cfg(unix)]
fn arena0_header_off(path: &Path) -> std::io::Result<u64> {
    use flit_pmem::pool::{direntry, DIR_OFFSET};
    read_word_at(path, (DIR_OFFSET + direntry::HEADER_OFF) as u64)
}

/// The corruption cases: each takes a *valid* pool file and must surface as
/// exactly the named [`OpenError`] variant — diagnosable, typed, panic-free.
#[cfg(unix)]
pub fn corruption_cases() -> Vec<CorruptionCase> {
    use flit_pmem::pool::{direntry, superblock, DIR_OFFSET};
    vec![
        CorruptionCase {
            name: "truncate-below-data-area",
            corrupt: |p| {
                let f = std::fs::OpenOptions::new().write(true).open(p)?;
                f.set_len(8192)
            },
            expect: |e| matches!(e, OpenError::Truncated { .. }),
            expected: "OpenError::Truncated",
        },
        CorruptionCase {
            name: "flip-superblock-magic",
            corrupt: |p| write_word_at(p, superblock::MAGIC as u64, 0xDEAD_BEEF_DEAD_BEEF),
            expect: |e| matches!(e, OpenError::BadMagic { .. }),
            expected: "OpenError::BadMagic",
        },
        CorruptionCase {
            name: "bump-superblock-version",
            corrupt: |p| write_word_at(p, superblock::VERSION as u64, 99),
            expect: |e| matches!(e, OpenError::BadVersion { .. }),
            expected: "OpenError::BadVersion",
        },
        CorruptionCase {
            name: "clobber-commit-compat-word",
            corrupt: |p| write_word_at(p, superblock::COMMIT as u64, 0xFF),
            expect: |e| matches!(e, OpenError::CommitModeMismatch { pool: None, .. }),
            expected: "OpenError::CommitModeMismatch { pool: None, .. }",
        },
        CorruptionCase {
            name: "wild-bump-cursor",
            corrupt: |p| write_word_at(p, superblock::NEXT_FREE as u64, u64::MAX / 2),
            expect: |e| matches!(e, OpenError::BadSuperblock { .. }),
            expected: "OpenError::BadSuperblock",
        },
        CorruptionCase {
            name: "zero-arena-magic",
            corrupt: |p| {
                let h = arena0_header_off(p)?;
                write_word_at(p, h + flit_alloc::MAGIC_OFFSET as u64, 0)
            },
            expect: |e| matches!(e, OpenError::ArenaHeader { arena: 0, .. }),
            expected: "OpenError::ArenaHeader",
        },
        CorruptionCase {
            name: "header-directory-slot-size-disagree",
            corrupt: |p| {
                let h = arena0_header_off(p)?;
                write_word_at(p, h + flit_alloc::SLOT_SIZE_OFFSET as u64, 4096)
            },
            expect: |e| matches!(e, OpenError::SlotSizeMismatch { arena: 0, .. }),
            expected: "OpenError::SlotSizeMismatch",
        },
        CorruptionCase {
            name: "huge-high-water",
            corrupt: |p| {
                let h = arena0_header_off(p)?;
                write_word_at(p, h + flit_alloc::HIGH_WATER_OFFSET as u64, 1 << 40)
            },
            expect: |e| matches!(e, OpenError::ArenaHeader { arena: 0, .. }),
            expected: "OpenError::ArenaHeader",
        },
        CorruptionCase {
            name: "tear-root-table-entry",
            corrupt: |p| {
                // Zero the offset word of the first live root entry, leaving
                // its key — exactly the torn shape adoption must reject.
                let h = arena0_header_off(p)?;
                for i in 0..flit_alloc::ROOT_CAPACITY as u64 {
                    let key_off = h
                        + flit_alloc::ROOT_TABLE_OFFSET as u64
                        + i * flit_alloc::ROOT_ENTRY_BYTES as u64;
                    if read_word_at(p, key_off)? != 0 {
                        return write_word_at(p, key_off + 8, 0);
                    }
                }
                Err(std::io::Error::new(
                    std::io::ErrorKind::NotFound,
                    "no live root entry to tear",
                ))
            },
            expect: |e| matches!(e, OpenError::TornRootEntry { arena: 0, .. }),
            expected: "OpenError::TornRootEntry",
        },
        CorruptionCase {
            name: "free-list-link-above-high-water",
            corrupt: |p| {
                let h = arena0_header_off(p)?;
                let hw = read_word_at(p, h + flit_alloc::HIGH_WATER_OFFSET as u64)?;
                write_word_at(p, h + flit_alloc::FREE_HEAD_OFFSET as u64, hw + 10)
            },
            expect: |e| matches!(e, OpenError::ArenaHeader { arena: 0, .. }),
            expected: "OpenError::ArenaHeader",
        },
        CorruptionCase {
            name: "oversized-directory-chunk-count",
            corrupt: |p| write_word_at(p, (DIR_OFFSET + direntry::NCHUNKS) as u64, 1 << 20),
            expect: |e| matches!(e, OpenError::ArenaHeader { arena: 0, .. }),
            expected: "OpenError::ArenaHeader",
        },
    ]
}

/// Outcome of one corruption case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorruptionOutcome {
    /// The case name.
    pub name: &'static str,
    /// `None` on pass; the failure description on fail.
    pub failure: Option<String>,
}

/// Run every corruption case: each one re-creates a small valid pool (with a
/// registered root, so root-entry cases have something to tear), applies its
/// clobber, and opens the pool expecting its typed error. Passing cases clean
/// up after themselves; failing cases leave `<dir>/corrupt-<name>.pool` behind
/// for artifact upload.
#[cfg(unix)]
pub fn corruption_suite(dir: &Path) -> Vec<CorruptionOutcome> {
    std::fs::create_dir_all(dir).ok();
    corruption_cases()
        .into_iter()
        .map(|case| {
            let pool = dir.join(format!("corrupt-{}.pool", case.name));
            let failure = run_corruption_case(&case, &pool);
            if failure.is_none() {
                let _ = std::fs::remove_file(&pool);
            }
            CorruptionOutcome {
                name: case.name,
                failure,
            }
        })
        .collect()
}

#[cfg(unix)]
fn run_corruption_case(case: &CorruptionCase, pool: &Path) -> Option<String> {
    let _ = std::fs::remove_file(pool);
    // A small valid pool with one arena, a little traffic, and a durable root.
    {
        let db = match FlitDb::builder(kill_policy()).create_pool(pool) {
            Ok(db) => db,
            Err(e) => return Some(format!("setup: create_pool: {e}")),
        };
        let map = KillMap::new(&db, 64);
        let h = db.handle();
        for j in 1..=20u64 {
            map.insert(&h, j, j);
        }
        drop(h);
        if let Err(e) = db.sync_pool() {
            return Some(format!("setup: sync_pool: {e}"));
        }
    }
    if let Err(e) = (case.corrupt)(pool) {
        return Some(format!("corruption step failed: {e}"));
    }
    match FlitDb::open(pool, kill_policy()) {
        Ok(_) => Some(format!("opened successfully; expected {}", case.expected)),
        Err(e) if (case.expect)(&e) => None,
        Err(e) => Some(format!("expected {}, got: {e}", case.expected)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_state_tracks_inserts_and_removes() {
        // Ops 1..=7: inserts 1..6 at j≠7, then op 7 removes key 4.
        let m = model_state(7);
        assert_eq!(m.len(), 5);
        assert!(!m.contains_key(&4));
        assert_eq!(m.get(&3), Some(&10));
        // Model never stutters: every op changes the state.
        let mut prev = BTreeMap::new();
        for j in 1..=100 {
            let mut next = prev.clone();
            apply_model(&mut next, kill_op(j));
            assert_ne!(prev, next, "op {j} must change the state");
            prev = next;
        }
    }

    #[test]
    fn commit_words_round_trip() {
        for mode in [CommitMode::Immediate, CommitMode::Batched(8)] {
            assert_eq!(parse_commit(&commit_word(mode)), Some(mode));
        }
        assert_eq!(parse_commit("nonsense"), None);
        assert_eq!(parse_commit("batched-x"), None);
    }

    #[cfg(unix)]
    #[test]
    fn corruption_suite_is_all_typed_errors() {
        let dir = std::env::temp_dir().join(format!("flit-corrupt-{}", std::process::id()));
        let outcomes = corruption_suite(&dir);
        assert!(outcomes.len() >= 7, "the suite must stay comprehensive");
        for o in &outcomes {
            assert!(o.failure.is_none(), "case {}: {:?}", o.name, o.failure);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[cfg(unix)]
    #[test]
    fn verify_pool_accepts_a_cleanly_written_pool_and_flags_a_wrong_floor() {
        let dir = std::env::temp_dir().join(format!("flit-verify-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let pool = dir.join("clean.pool");
        let ops = 50;
        child_main(&pool, &dir.join("clean.floor"), ops, CommitMode::Immediate).unwrap();
        let report = verify_pool(&pool, ops, ops).unwrap();
        assert_eq!(report.matched_prefix, ops);
        // The same pool cannot satisfy a floor beyond the ops it ran.
        match verify_pool(&pool, ops - 1, ops) {
            Err(KillViolation::NoPrefixMatch { .. }) => {}
            other => panic!("expected NoPrefixMatch, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
