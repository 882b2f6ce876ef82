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
//! The child applies [`kill_history`] — a fixed, deterministic single-handle
//! history over a pool-backed hash table (or a [`Hamt`] holding a snapshot) —
//! and after every operation writes its **acknowledged floor** to a sidecar
//! file: the operation count under [`CommitMode::Immediate`] (completions are
//! synchronously durable), the handle's `committed_obligations()` under
//! batched group commit (unacknowledged operations may legitimately die with
//! the process).
//!
//! After the kill, [`run_kill_round`] re-opens the pool
//! (validate → adopt → recover → GC) and judges it with the checks the
//! simulated sweeps use, over the same history and model: the engine's prefix
//! check requires the recovered map to be whole and to equal the model state
//! after exactly `c` operations for some `c` in `floor..=ops`, and a snapshot
//! round adds the snapshot sweep's retained-snapshot check. Any finding fails
//! the round as [`KillViolation::Inconsistent`], carrying the findings' text.
//! The round then re-runs [`post_crash_gc`] and requires the second pass to
//! reclaim zero slots (the pass that ran inside `open` must have closed every
//! leak). A child killed mid-workload must leave the pool dirty, so the open
//! runs GC; a child that finished closes its database in order, the open
//! skips GC, and the same second pass then checks that the close accounted
//! for every slot.
//!
//! ## Corruption injection
//!
//! [`corruption_suite`] takes a valid pool file and clobbers one persisted
//! field at a time — truncation, superblock magic/version, the commit-mode
//! compat word, an arena header's slot size, a root-table entry, the
//! high-water mark — asserting that every case surfaces as the matching typed
//! [`OpenError`] variant and none of them panics.
//!
//! The module is unix-only: pools are mmap'd files, and the harness reads and
//! writes them with positioned I/O.
//!
//! [`CrashPlan`]: flit_pmem::CrashPlan

use std::fs::File;
use std::os::unix::fs::FileExt;
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

use crate::engine::{apply_map_op, check_prefix, map_state, CrashWindow, Finding, MapModel};
use crate::hamt::{check_retained, Retained};

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

/// The kill workload's first `ops` operations: operation `j` (1-based) is
/// `remove(j - 3)` when `j % 7 == 0` and `insert(j, 3j + 1)` otherwise. No
/// key is inserted twice, so the model never stutters: every operation
/// changes the state, and a recovered state matches at most one prefix.
pub fn kill_history(ops: u64) -> Vec<MapOp> {
    (1..=ops)
        .map(|j| match j % 7 {
            0 => MapOp::Remove(j - 3),
            _ => MapOp::Insert(j, 3 * j + 1),
        })
        .collect()
}

/// Write `value` as the little-endian word at byte `offset` of `file`.
fn write_word(file: &File, offset: u64, value: u64) -> std::io::Result<()> {
    file.write_all_at(&value.to_le_bytes(), offset)
}

/// The little-endian word at byte `offset` of `file`.
fn read_word(file: &File, offset: u64) -> std::io::Result<u64> {
    let mut buf = [0u8; 8];
    file.read_exact_at(&mut buf, offset)?;
    Ok(u64::from_le_bytes(buf))
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
    let side = File::create(sidecar).map_err(|e| format!("child: sidecar: {e}"))?;
    let write_side = |offset, value| {
        write_word(&side, offset, value).map_err(|e| format!("child: sidecar write: {e}"))
    };
    // `snapshot()` registers a durability obligation of its own (its completion
    // fence), so once it is live the committed count runs one ahead of the
    // workload; subtract it — a floor that lags by one while the snapshot's own
    // batch is still open is merely conservative.
    let mut snapshot_obligations = 0;
    for (j, op) in (1..).zip(kill_history(ops)) {
        apply_map_op(map, &h, op);
        let floor = match db.commit_mode() {
            CommitMode::Immediate => j,
            CommitMode::Batched(_) => h
                .committed_obligations()
                .saturating_sub(snapshot_obligations),
        };
        write_side(0, floor)?;
        if j == snap_at {
            take_snapshot(&h);
            snapshot_obligations = 1;
            write_side(8, snap_at)?;
        }
    }
    // The last batch drains here, so every operation is acknowledged.
    h.flush();
    write_side(0, ops)
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
    /// The pool read clean at open (its writer closed it in order), so the
    /// open skipped GC.
    pub clean_close: bool,
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
    /// The reopened pool failed the sweeps' crash checks: a truncated
    /// recovery walk, a state that is no prefix in `floor..=ops` of
    /// [`kill_history`], or (snapshot rounds) a retained snapshot that is
    /// missing, unexpectedly present, truncated or not its frozen contents.
    /// One detail per finding.
    Inconsistent(Vec<String>),
    /// A second GC pass reclaimed slots the open-time pass should have (or,
    /// after a clean close, slots the close should have accounted for).
    GcNotIdempotent {
        /// Slots the second pass reclaimed (must be 0).
        second_pass: usize,
    },
    /// The pool read clean although the kill landed before the workload
    /// finished: nothing but an orderly close may write the clean word.
    CleanAfterKill {
        /// The acknowledged floor at the kill (below the op count).
        floor: u64,
    },
    /// The harness itself failed (spawn error, sidecar never appeared, …).
    Harness(String),
}

impl std::fmt::Display for KillViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::OpenFailed(e) => write!(f, "re-open after kill failed: {e}"),
            Self::Inconsistent(details) => write!(f, "crash check failed: {}", details.join("; ")),
            Self::GcNotIdempotent { second_pass } => write!(
                f,
                "second GC pass reclaimed {second_pass} slots (open-time pass missed them)"
            ),
            Self::CleanAfterKill { floor } => write!(
                f,
                "pool marked clean although the child was killed at floor {floor}"
            ),
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
            self.commit.name(),
            self.round
        ))
    }

    /// The round's sidecar (acknowledged-floor) file path.
    pub fn sidecar_path(&self) -> PathBuf {
        self.pool_path().with_extension("floor")
    }
}

/// The verification core both structures share: re-open `pool`
/// (validate → adopt → recover → GC), recover `M` over the adopted arenas,
/// judge it with the engine's prefix check over [`kill_history`]`(ops)` and
/// the structure-specific `extra` check over those arenas, the pool's image
/// and the history, and finally require a second GC pass to reclaim nothing.
fn verify_recovered<M: RecoverInImage>(
    pool: &Path,
    ops: u64,
    floor: u64,
    extra: impl FnOnce(&[Arc<Arena>], &CrashImage, &[MapOp]) -> Vec<Finding>,
) -> Result<KillRoundReport, KillViolation> {
    let (db, report) =
        FlitDb::open(pool, kill_policy()).map_err(|e| KillViolation::OpenFailed(e.to_string()))?;
    let arenas = db.arenas();
    let rec = M::recover_arenas(&arenas, &report.image);
    let history = kill_history(ops);
    // The kill may land anywhere in the run: up to `ops` operations
    // completed, of which the first `floor` were acknowledged.
    let window = CrashWindow {
        acked: floor as usize,
        completed: ops as usize,
        in_flight: false,
    };
    let prefix = check_prefix::<MapModel>(&rec.sorted_pairs(), rec.truncated, &history, &window);
    let details: Vec<String> = (prefix.as_ref().err().into_iter())
        .chain(&extra(&arenas, &report.image, &history))
        .map(|f| f.detail.clone())
        .collect();
    if !details.is_empty() {
        return Err(KillViolation::Inconsistent(details));
    }

    // The open-time GC (or, when the pool read clean, the close) must have
    // closed every leak — including everything a retained snapshot pins: a
    // second pass is a no-op.
    let second_pass = post_crash_gc(&db.arenas()).total_reclaimed();
    if second_pass != 0 {
        return Err(KillViolation::GcNotIdempotent { second_pass });
    }

    Ok(KillRoundReport {
        matched_prefix: prefix.unwrap_or_default() as u64,
        acked_floor: floor,
        reclaimed_slots: report.leaked_slots(),
        clean_close: report.clean_close,
        timings: report.timings,
        child_finished: false,
    })
}

/// Recover the workload map from a pool file and check it against the model:
/// the shared verification tail of [`run_kill_round`], also run directly by
/// the integration tests on pools they construct in-process.
pub fn verify_pool(pool: &Path, ops: u64, floor: u64) -> Result<KillRoundReport, KillViolation> {
    verify_recovered::<KillMap>(pool, ops, floor, |_, _, _| Vec::new())
}

/// [`verify_pool`] for snapshot rounds: recover the [`KillHamt`] main trie
/// (same prefix contract) **and** its retained-root table from the reopened
/// pool, and judge the table with the snapshot sweep's check against the
/// model state after `snap_at` operations. The rule it applies:
///
/// * `released` (the child finished and dropped its snapshot, writing
///   refcount 0): the table must recover empty;
/// * killed mid-workload (`floor < ops`): the snapshot must recover;
/// * killed after the last acknowledged operation (`floor == ops`): the kill
///   races the release in the child's exit path, so either is legal.
///
/// A snapshot that is present and not released must be exact either way.
pub fn verify_hamt_pool(
    pool: &Path,
    ops: u64,
    floor: u64,
    snap_at: u64,
    released: bool,
) -> Result<KillRoundReport, KillViolation> {
    let rule = if released {
        Retained::Absent
    } else if floor < ops {
        Retained::Present(format!(
            "the child was killed at floor {floor} of {ops} while it held the snapshot"
        ))
    } else {
        Retained::Either
    };
    verify_recovered::<KillHamt>(pool, ops, floor, |arenas, image, history| {
        let retained: Vec<_> = arenas
            .iter()
            .flat_map(|a| KillHamt::recover_snapshots_in_image(a, image))
            .collect();
        let snap_at = snap_at.min(ops) as usize;
        check_retained(&retained, &map_state(history, snap_at), snap_at, rule)
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
        .arg(round.commit.name());
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
    let sidecar_word = |offset| {
        File::open(&sidecar)
            .and_then(|f| read_word(&f, offset))
            .unwrap_or(0)
    };
    let started = Instant::now();
    let mut child_finished = false;
    loop {
        let ready = match round.hamt_snap {
            Some(_) => sidecar_word(8) >= 1,
            None => sidecar_word(0) >= 1,
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

    let floor = sidecar_word(0);
    let mut report = match round.hamt_snap {
        Some(snap_at) => verify_hamt_pool(&pool, round.ops, floor, snap_at, child_finished)?,
        None => verify_pool(&pool, round.ops, floor)?,
    };
    // The child's close starts only after it acknowledged every operation.
    if report.clean_close && !child_finished && floor < round.ops {
        return Err(KillViolation::CleanAfterKill { floor });
    }
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
    corrupt: fn(&File) -> std::io::Result<()>,
    expect: fn(&OpenError) -> bool,
    /// What the case expects, for failure messages.
    pub expected: &'static str,
}

/// Locate arena 0's header base offset in the pool file (via its directory
/// entry), so corruption cases can clobber header words.
fn arena0_header_off(pool: &File) -> std::io::Result<u64> {
    use flit_pmem::pool::{direntry, DIR_OFFSET};
    read_word(pool, (DIR_OFFSET + direntry::HEADER_OFF) as u64)
}

/// The corruption cases: each takes a *valid* pool file and must surface as
/// exactly the named [`OpenError`] variant — diagnosable, typed, panic-free.
pub fn corruption_cases() -> Vec<CorruptionCase> {
    use flit_pmem::pool::{direntry, superblock, DIR_OFFSET};
    vec![
        CorruptionCase {
            name: "truncate-below-data-area",
            corrupt: |f| f.set_len(8192),
            expect: |e| matches!(e, OpenError::Truncated { .. }),
            expected: "OpenError::Truncated",
        },
        CorruptionCase {
            name: "flip-superblock-magic",
            corrupt: |f| write_word(f, superblock::MAGIC as u64, 0xDEAD_BEEF_DEAD_BEEF),
            expect: |e| matches!(e, OpenError::BadMagic { .. }),
            expected: "OpenError::BadMagic",
        },
        CorruptionCase {
            name: "bump-superblock-version",
            corrupt: |f| write_word(f, superblock::VERSION as u64, 99),
            expect: |e| matches!(e, OpenError::BadVersion { .. }),
            expected: "OpenError::BadVersion",
        },
        CorruptionCase {
            name: "clobber-commit-compat-word",
            corrupt: |f| write_word(f, superblock::COMMIT as u64, 0xFF),
            expect: |e| matches!(e, OpenError::CommitModeMismatch { pool: None, .. }),
            expected: "OpenError::CommitModeMismatch { pool: None, .. }",
        },
        CorruptionCase {
            name: "wild-bump-cursor",
            corrupt: |f| write_word(f, superblock::NEXT_FREE as u64, u64::MAX / 2),
            expect: |e| matches!(e, OpenError::BadSuperblock { .. }),
            expected: "OpenError::BadSuperblock",
        },
        CorruptionCase {
            name: "zero-arena-magic",
            corrupt: |f| {
                let h = arena0_header_off(f)?;
                write_word(f, h + flit_alloc::MAGIC_OFFSET as u64, 0)
            },
            expect: |e| matches!(e, OpenError::ArenaHeader { arena: 0, .. }),
            expected: "OpenError::ArenaHeader",
        },
        CorruptionCase {
            name: "header-directory-slot-size-disagree",
            corrupt: |f| {
                let h = arena0_header_off(f)?;
                write_word(f, h + flit_alloc::SLOT_SIZE_OFFSET as u64, 4096)
            },
            expect: |e| matches!(e, OpenError::SlotSizeMismatch { arena: 0, .. }),
            expected: "OpenError::SlotSizeMismatch",
        },
        CorruptionCase {
            name: "huge-high-water",
            corrupt: |f| {
                let h = arena0_header_off(f)?;
                write_word(f, h + flit_alloc::HIGH_WATER_OFFSET as u64, 1 << 40)
            },
            expect: |e| matches!(e, OpenError::ArenaHeader { arena: 0, .. }),
            expected: "OpenError::ArenaHeader",
        },
        CorruptionCase {
            name: "tear-root-table-entry",
            corrupt: |f| {
                // Zero the offset word of the first live root entry, leaving
                // its key — exactly the torn shape adoption must reject.
                let h = arena0_header_off(f)?;
                for i in 0..flit_alloc::ROOT_CAPACITY as u64 {
                    let key_off = h
                        + flit_alloc::ROOT_TABLE_OFFSET as u64
                        + i * flit_alloc::ROOT_ENTRY_BYTES as u64;
                    if read_word(f, key_off)? != 0 {
                        return write_word(f, key_off + 8, 0);
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
            corrupt: |f| {
                let h = arena0_header_off(f)?;
                let hw = read_word(f, h + flit_alloc::HIGH_WATER_OFFSET as u64)?;
                write_word(f, h + flit_alloc::FREE_HEAD_OFFSET as u64, hw + 10)
            },
            expect: |e| matches!(e, OpenError::ArenaHeader { arena: 0, .. }),
            expected: "OpenError::ArenaHeader",
        },
        CorruptionCase {
            // A clean-close word vouches for nothing: an open that will skip
            // GC still adopts, and so still rejects, a wild free list.
            name: "forged-clean-word-wild-free-list",
            corrupt: |f| {
                use flit_pmem::pool::CLEAN_CLOSE_MAGIC;
                write_word(f, superblock::CLEAN_CLOSE as u64, CLEAN_CLOSE_MAGIC)?;
                let h = arena0_header_off(f)?;
                write_word(f, h + flit_alloc::FREE_HEAD_OFFSET as u64, u64::MAX)
            },
            expect: |e| matches!(e, OpenError::ArenaHeader { arena: 0, .. }),
            expected: "OpenError::ArenaHeader",
        },
        CorruptionCase {
            name: "oversized-directory-chunk-count",
            corrupt: |f| write_word(f, (DIR_OFFSET + direntry::NCHUNKS) as u64, 1 << 20),
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
    let clobbered = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(pool)
        .and_then(|f| (case.corrupt)(&f));
    if let Err(e) = clobbered {
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
    use crate::engine::Model;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn the_kill_history_never_stutters() {
        // Ops 1..=7: inserts 1..6 at j≠7, then op 7 removes key 4.
        let history = kill_history(100);
        let m = map_state(&history, 7);
        assert_eq!(m.len(), 5);
        assert!(m.iter().all(|&(k, _)| k != 4));
        assert!(m.contains(&(3, 10)));
        // Every op changes the state.
        for j in 1..=100 {
            assert_ne!(map_state(&history, j - 1), map_state(&history, j), "op {j}");
        }
    }

    /// Operations applied to any [`Counted`] model (only one test uses it).
    static APPLIED: AtomicUsize = AtomicUsize::new(0);

    /// The map model, counting every operation applied to it.
    #[derive(Default)]
    struct Counted(MapModel);

    impl Model for Counted {
        type Op = MapOp;
        type Item = (u64, u64);
        type Reply = <MapModel as Model>::Reply;
        fn apply(&mut self, op: MapOp) -> Self::Reply {
            APPLIED.fetch_add(1, Ordering::Relaxed);
            self.0.apply(op)
        }
        fn items(&self) -> impl ExactSizeIterator<Item = (u64, u64)> + '_ {
            self.0.items()
        }
    }

    #[test]
    fn a_failing_prefix_check_walks_the_model_once() {
        let history = kill_history(10_000);
        let window = CrashWindow {
            acked: 100,
            completed: history.len(),
            in_flight: false,
        };
        let mut recovered = map_state(&history, 5_000);
        assert_eq!(
            check_prefix::<Counted>(&recovered, false, &history, &window).ok(),
            Some(5_000)
        );
        // One value off: no prefix matches, and the check still applied each
        // operation at most once.
        recovered[17].1 += 1;
        APPLIED.store(0, Ordering::Relaxed);
        let finding = check_prefix::<Counted>(&recovered, false, &history, &window).unwrap_err();
        assert!(
            finding.detail.contains("some n in 100..=10000"),
            "{}",
            finding.detail
        );
        let applied = APPLIED.load(Ordering::Relaxed);
        assert!(applied <= history.len(), "{applied} model applications");
    }

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
            Err(KillViolation::Inconsistent(details)) => {
                assert!(details[0].contains("some n in 49..=49"), "{details:?}")
            }
            other => panic!("expected Inconsistent, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
