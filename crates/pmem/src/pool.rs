//! File-backed persistent pools: the real-NVRAM substrate.
//!
//! Everywhere else in the workspace, "persistent memory" is a heap allocation
//! whose durability is *modelled* by [`SimNvram`](crate::SimNvram)'s tracker.
//! This module provides the production analogue: a [`PoolFile`] is a regular
//! file mapped `MAP_SHARED` into the process, so every completed store lands
//! in the file image and survives the process being SIGKILLed mid-traffic.
//! Arenas carve their header and chunk regions out of the mapping instead of
//! the heap; nothing above the region layer changes.
//!
//! ## What a pool survives
//!
//! A pool is **crash-consistent under SIGKILL**: a completed store sits in the
//! shared mapping, which the kernel writes back to the file whether or not the
//! process lives. It is **power-fail-consistent only at a `sync_pool`
//! checkpoint** ([`PoolFile::sync`], one `msync` of the whole mapping). The
//! pool's own housekeeping — post-crash GC's reclamation
//! (`Arena::reclaim_leaked`'s pool branch) and the clean close — writes the
//! mapping with plain stores, not through `pwb`/`pfence`, so a power failure
//! between checkpoints may lose those writes or persist them in any order.
//!
//! ## Layout
//!
//! ```text
//! offset 0        4096          20480                                  len
//! +---------------+--------------+--------------------------------------+
//! |  superblock   |  arena dir   |  data (bump-allocated, never reused) |
//! |  (one page)   |  32 × 512 B  |  headers and chunks, cache-aligned   |
//! +---------------+--------------+--------------------------------------+
//! ```
//!
//! **Superblock** (word offsets): `0` magic `"FLITPOOL"`, `8` layout version,
//! `16` commit-mode compat word (see [`CommitMode::compat_word`]), `24` the
//! virtual base address of the original mapping, `32` the data bump cursor,
//! `40` the number of published arena-directory entries, `48` the clean-close
//! word: [`CLEAN_CLOSE_MAGIC`] after an orderly close, anything else (the `0`
//! of a fresh pool, of a pool opened and then killed, or of a pool written
//! before the word existed) means the pool needs its post-crash GC.
//!
//! **Arena directory entry** (relative word offsets): `0` state (1 = live),
//! `8` slot size, `16` slots per chunk, `24` header byte-offset, `32` chunk
//! count, `40` block-record count, `64..` up to 40 chunk byte-offsets, `384..`
//! up to 8 `(first_slot, slot_count)` multi-slot block records (the hash
//! table's bucket directory is such a block; post-crash GC needs its span).
//!
//! ## Fixed-base remapping
//!
//! FliT structures link nodes by *absolute* address, so a reopened pool is only
//! meaningful if it maps at the address it was created at. The superblock
//! records that base; [`PoolFile::open`] remaps with `MAP_FIXED_NOREPLACE` and
//! returns [`OpenError::MappingConflict`] if the range is taken (the PMDK
//! approach). Creation biases the first mapping into a quiet corner of the
//! address space so reopen conflicts are rare in practice.
//!
//! ## Crash-ordering discipline
//!
//! Pool metadata follows the same persist-before-publish rule as the
//! structures: a directory entry is fully written before `arena_count` is
//! bumped, a chunk offset before the chunk count, and the superblock magic is
//! the *last* word written at creation. A crash mid-publish therefore leaves
//! either the old state or the new state, never a half-visible entry —
//! [`PoolFile::open`] validates everything it reads and returns a typed
//! [`OpenError`] rather than panicking on a corrupt or torn pool.

use std::fs::{File, OpenOptions};
use std::io::Read;
use std::path::{Path, PathBuf};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::cache_line::{CACHE_LINE_SIZE, WORD_SIZE};
use crate::epoch::CommitMode;
use crate::region::{PmemRegion, ReserveError};

/// `"FLITPOOL"` in big-endian ASCII: the superblock magic.
pub const POOL_MAGIC: u64 = 0x464C_4954_504F_4F4C;
/// The pool layout version this build reads and writes. Version 2 moved a
/// HAMT node's occupancy bitmap from the node into the entry naming it;
/// version 3 made a hash table's buckets words of its directory, which now
/// holds node addresses where it held head-sentinel `offset + 1`s; version 4
/// replaced a HAMT's one-pair leaves with buckets of up to eight pairs, whose
/// entries carry the pair count. An older pool is refused rather than misread.
pub const POOL_VERSION: u64 = 4;
/// `"FLITCLEN"` in big-endian ASCII: the clean-close word's one clean value.
pub const CLEAN_CLOSE_MAGIC: u64 = 0x464C_4954_434C_454E;
/// Size of an OS page; the superblock occupies exactly one.
pub const PAGE_SIZE: usize = 4096;
/// Byte offset of the arena directory.
pub const DIR_OFFSET: usize = PAGE_SIZE;
/// Maximum number of arenas a pool can hold.
pub const MAX_ARENAS: usize = 32;
/// Bytes per arena-directory entry.
pub const DIR_ENTRY_BYTES: usize = 512;
/// Byte offset where bump-allocated arena data begins.
pub const DATA_OFFSET: usize = DIR_OFFSET + MAX_ARENAS * DIR_ENTRY_BYTES;
/// Maximum chunks a single pool-backed arena can grow to.
pub const MAX_CHUNKS_PER_ARENA: usize = 40;
/// Maximum multi-slot block records per arena.
pub const MAX_BLOCKS_PER_ARENA: usize = 8;

/// Superblock word offsets.
pub mod superblock {
    /// Magic word (`"FLITPOOL"`).
    pub const MAGIC: usize = 0;
    /// Layout version.
    pub const VERSION: usize = 8;
    /// Commit-mode compat word.
    pub const COMMIT: usize = 16;
    /// Virtual base address of the original mapping.
    pub const BASE: usize = 24;
    /// Data bump cursor (byte offset of the next free data byte).
    pub const NEXT_FREE: usize = 32;
    /// Number of published arena-directory entries.
    pub const ARENA_COUNT: usize = 40;
    /// Clean-close word ([`CLEAN_CLOSE_MAGIC`](super::CLEAN_CLOSE_MAGIC) or
    /// dirty).
    pub const CLEAN_CLOSE: usize = 48;
}

/// Arena-directory entry word offsets (relative to the entry).
pub mod direntry {
    /// Entry state: 0 = empty, 1 = live.
    pub const STATE: usize = 0;
    /// Slot size in bytes.
    pub const SLOT_SIZE: usize = 8;
    /// Slots per chunk.
    pub const CHUNK_SLOTS: usize = 16;
    /// Byte offset of the arena header region.
    pub const HEADER_OFF: usize = 24;
    /// Number of published chunks.
    pub const NCHUNKS: usize = 32;
    /// Number of published block records.
    pub const NBLOCKS: usize = 40;
    /// First chunk byte-offset; subsequent chunks at +8 each.
    pub const CHUNKS: usize = 64;
    /// First block record (`first_slot`, then `slot_count` at +8); 16 bytes each.
    pub const BLOCKS: usize = 384;
}

/// Why a pool could not be created or opened. Every map/validate failure in
/// the pool layer surfaces as one of these variants — corrupt pools produce
/// diagnostics, never panics.
#[derive(Debug)]
pub enum OpenError {
    /// The underlying file operation failed.
    Io(std::io::Error),
    /// The file is smaller than the metadata area (or than its own superblock
    /// claims): a truncated pool.
    Truncated {
        /// Actual file length in bytes.
        len: u64,
        /// Minimum length the pool needs to be readable.
        need: u64,
    },
    /// The superblock magic is not `"FLITPOOL"`.
    BadMagic {
        /// The word found at offset 0.
        found: u64,
    },
    /// The pool was written by an incompatible layout version.
    BadVersion {
        /// Version recorded in the pool.
        found: u64,
        /// Version this build supports.
        supported: u64,
    },
    /// A superblock field is out of range (base address unaligned, bump cursor
    /// past the end of the file, arena count over the directory capacity, …).
    BadSuperblock {
        /// Human-readable description of the inconsistency.
        reason: String,
    },
    /// `mmap` itself failed.
    MapFailed {
        /// The OS errno.
        errno: i32,
    },
    /// The pool's recorded base address is already occupied in this process,
    /// so the file cannot be remapped where its pointers point.
    MappingConflict {
        /// The base address the pool was created at.
        wanted: usize,
    },
    /// The data area is exhausted (or the arena directory is full).
    PoolFull {
        /// Bytes requested.
        requested: usize,
        /// Bytes (or directory slots) still available.
        available: usize,
    },
    /// The pool was created under a different commit mode than the one
    /// requested; reopening with mismatched batching would change the
    /// durability contract of already-acked operations.
    CommitModeMismatch {
        /// Mode decoded from the pool's compat word (`None` if undecodable).
        pool: Option<CommitMode>,
        /// Mode the caller asked for.
        requested: CommitMode,
    },
    /// An arena's directory entry or persisted header failed validation.
    ArenaHeader {
        /// Directory index of the arena.
        arena: usize,
        /// Human-readable description of the inconsistency.
        reason: String,
    },
    /// The slot size in the arena's persisted header disagrees with its
    /// directory entry.
    SlotSizeMismatch {
        /// Directory index of the arena.
        arena: usize,
        /// Slot size recorded in the arena header.
        header: u64,
        /// Slot size recorded in the directory entry.
        directory: u64,
    },
    /// A root-table entry has a key but a null or out-of-range offset: the
    /// entry was torn (or deliberately corrupted) and cannot be trusted.
    TornRootEntry {
        /// Directory index of the arena.
        arena: usize,
        /// Root-table entry index.
        entry: usize,
    },
    /// A heap reservation failed while building the in-memory pool handle.
    Reserve(ReserveError),
    /// Pools are not supported on this platform.
    Unsupported(&'static str),
}

impl std::fmt::Display for OpenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpenError::Io(e) => write!(f, "pool i/o error: {e}"),
            OpenError::Truncated { len, need } => {
                write!(f, "pool file truncated: {len} bytes, need at least {need}")
            }
            OpenError::BadMagic { found } => {
                write!(f, "not a flit pool: superblock magic {found:#018x}")
            }
            OpenError::BadVersion { found, supported } => {
                write!(
                    f,
                    "pool layout version {found} (this build supports {supported})"
                )
            }
            OpenError::BadSuperblock { reason } => write!(f, "corrupt superblock: {reason}"),
            OpenError::MapFailed { errno } => write!(f, "mmap failed (errno {errno})"),
            OpenError::MappingConflict { wanted } => write!(
                f,
                "pool base address {wanted:#x} is already mapped in this process"
            ),
            OpenError::PoolFull {
                requested,
                available,
            } => write!(f, "pool full: requested {requested}, available {available}"),
            OpenError::CommitModeMismatch { pool, requested } => match pool {
                Some(mode) => write!(
                    f,
                    "pool was created with commit mode {}, reopen requested {}",
                    mode.name(),
                    requested.name()
                ),
                None => write!(
                    f,
                    "pool commit-mode compat word is undecodable (reopen requested {})",
                    requested.name()
                ),
            },
            OpenError::ArenaHeader { arena, reason } => {
                write!(f, "arena {arena}: corrupt header: {reason}")
            }
            OpenError::SlotSizeMismatch {
                arena,
                header,
                directory,
            } => write!(
                f,
                "arena {arena}: header slot size {header} disagrees with directory {directory}"
            ),
            OpenError::TornRootEntry { arena, entry } => {
                write!(f, "arena {arena}: root-table entry {entry} is torn")
            }
            OpenError::Reserve(e) => write!(f, "pool reservation failed: {e}"),
            OpenError::Unsupported(what) => write!(f, "pools are unsupported here: {what}"),
        }
    }
}

impl std::error::Error for OpenError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OpenError::Io(e) => Some(e),
            OpenError::Reserve(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for OpenError {
    fn from(e: std::io::Error) -> Self {
        OpenError::Io(e)
    }
}

impl From<ReserveError> for OpenError {
    fn from(e: ReserveError) -> Self {
        OpenError::Reserve(e)
    }
}

/// Options for [`PoolFile::create`].
#[derive(Debug, Clone, Copy)]
pub struct PoolOptions {
    /// Total pool size in bytes (rounded up to a whole page). The data area is
    /// `capacity - 20 KiB`; it is bump-allocated and never reused.
    pub capacity: usize,
}

impl Default for PoolOptions {
    fn default() -> Self {
        Self { capacity: 64 << 20 }
    }
}

impl PoolOptions {
    /// `PoolOptions` with an explicit capacity in bytes.
    pub fn with_capacity(capacity: usize) -> Self {
        Self { capacity }
    }
}

#[cfg(unix)]
mod sys {
    //! Minimal raw-syscall surface: `mmap`/`munmap`/`msync` via the platform
    //! libc the binary is already linked against (no `libc` crate in-tree).
    use std::os::raw::{c_int, c_void};

    pub const PROT_READ: c_int = 0x1;
    pub const PROT_WRITE: c_int = 0x2;
    pub const MAP_SHARED: c_int = 0x01;
    #[cfg(target_os = "linux")]
    pub const MAP_FIXED_NOREPLACE: c_int = 0x100000;
    pub const MS_SYNC: c_int = 4;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
        pub fn msync(addr: *mut c_void, len: usize, flags: c_int) -> c_int;
    }

    pub const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;
}

/// Hint generator for fresh pool mappings: a quiet 1 TiB corner of the user
/// address space, advanced in 1 GiB strides so concurrent creations in one
/// process do not collide. Purely a hint — creation falls back to a
/// kernel-chosen address if the slot is taken.
#[cfg(target_os = "linux")]
fn next_base_hint() -> usize {
    use std::sync::atomic::AtomicUsize;
    static SLOT: AtomicUsize = AtomicUsize::new(0);
    const WINDOW: usize = 0x7B00_0000_0000;
    const STRIDE: usize = 1 << 30;
    const SLOTS: usize = 1 << 10;
    let pid = std::process::id() as usize;
    let slot = (SLOT.fetch_add(1, Ordering::Relaxed) + pid.wrapping_mul(0x9E37)) % SLOTS;
    WINDOW + slot * STRIDE
}

/// A mapped pool file. Holds the `mmap` for its whole lifetime; dropped, it
/// `msync`s and unmaps (which also makes in-process reopen-after-drop
/// deterministic: the base address is free again).
pub struct PoolFile {
    file: File,
    path: PathBuf,
    base: NonNull<u8>,
    len: usize,
    /// Serialises data-area bump allocation and directory publication.
    meta: Mutex<()>,
}

// SAFETY: the mapping is plain memory; `meta` serialises all metadata mutation
// and data ranges are handed out disjointly (bump allocation under the lock).
unsafe impl Send for PoolFile {}
unsafe impl Sync for PoolFile {}

impl PoolFile {
    /// Create a fresh pool at `path` (truncating any existing file), map it,
    /// and write its superblock. `commit_word` records the commit mode the
    /// owning database runs under (see [`CommitMode::compat_word`]).
    pub fn create(
        path: impl AsRef<Path>,
        opts: &PoolOptions,
        commit_word: u64,
    ) -> Result<Arc<Self>, OpenError> {
        #[cfg(not(unix))]
        {
            let _ = (path, opts, commit_word);
            Err(OpenError::Unsupported("mmap pools require a unix platform"))
        }
        #[cfg(unix)]
        {
            let len = opts
                .capacity
                .max(DATA_OFFSET + PAGE_SIZE)
                .div_ceil(PAGE_SIZE)
                * PAGE_SIZE;
            let file = OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(true)
                .open(path.as_ref())?;
            file.set_len(len as u64)?;
            let base = map_pool(&file, len, None)?;
            let pool = Arc::new(Self {
                file,
                path: path.as_ref().to_path_buf(),
                base,
                len,
                meta: Mutex::new(()),
            });
            // Persist-before-publish at pool scale: every superblock field
            // lands before the magic word that marks the pool valid.
            pool.word(superblock::VERSION)
                .store(POOL_VERSION, Ordering::SeqCst);
            pool.word(superblock::COMMIT)
                .store(commit_word, Ordering::SeqCst);
            pool.word(superblock::BASE)
                .store(base.as_ptr() as u64, Ordering::SeqCst);
            pool.word(superblock::NEXT_FREE)
                .store(DATA_OFFSET as u64, Ordering::SeqCst);
            pool.word(superblock::ARENA_COUNT)
                .store(0, Ordering::SeqCst);
            pool.word(superblock::MAGIC)
                .store(POOL_MAGIC, Ordering::SeqCst);
            pool.sync()?;
            Ok(pool)
        }
    }

    /// Map an existing pool at the base address recorded in its superblock and
    /// validate all pool-level metadata. Arena-level validation happens when
    /// each arena is adopted ([`PoolArenaSlot::adopt`]).
    pub fn open(path: impl AsRef<Path>) -> Result<Arc<Self>, OpenError> {
        #[cfg(not(unix))]
        {
            let _ = path;
            Err(OpenError::Unsupported("mmap pools require a unix platform"))
        }
        #[cfg(unix)]
        {
            let mut file = OpenOptions::new()
                .read(true)
                .write(true)
                .open(path.as_ref())?;
            let len = file.metadata()?.len();
            if len < DATA_OFFSET as u64 {
                return Err(OpenError::Truncated {
                    len,
                    need: DATA_OFFSET as u64,
                });
            }
            // Read the superblock through the file API first: nothing is mapped
            // until the metadata that controls the mapping has been vetted.
            let mut sb = [0u8; 48];
            file.read_exact(&mut sb)?;
            let sb_word = |off: usize| u64::from_le_bytes(sb[off..off + 8].try_into().unwrap());
            let magic = sb_word(superblock::MAGIC);
            if magic != POOL_MAGIC {
                return Err(OpenError::BadMagic { found: magic });
            }
            let version = sb_word(superblock::VERSION);
            if version != POOL_VERSION {
                return Err(OpenError::BadVersion {
                    found: version,
                    supported: POOL_VERSION,
                });
            }
            let base = sb_word(superblock::BASE) as usize;
            if base == 0 || base % PAGE_SIZE != 0 {
                return Err(OpenError::BadSuperblock {
                    reason: format!("recorded base address {base:#x} is not page-aligned"),
                });
            }
            let next_free = sb_word(superblock::NEXT_FREE);
            if next_free < DATA_OFFSET as u64 || next_free > len {
                return Err(OpenError::BadSuperblock {
                    reason: format!(
                        "bump cursor {next_free} outside the data area ({DATA_OFFSET}..={len})"
                    ),
                });
            }
            let arena_count = sb_word(superblock::ARENA_COUNT);
            if arena_count > MAX_ARENAS as u64 {
                return Err(OpenError::BadSuperblock {
                    reason: format!("arena count {arena_count} exceeds capacity {MAX_ARENAS}"),
                });
            }
            let map_len = len as usize;
            let mapped = map_pool(&file, map_len, Some(base))?;
            Ok(Arc::new(Self {
                file,
                path: path.as_ref().to_path_buf(),
                base: mapped,
                len: map_len,
                meta: Mutex::new(()),
            }))
        }
    }

    /// The word at byte offset `off`, as an atomic view into the mapping.
    /// Checked in every build: a pool-backed [`CrashImage`](crate::CrashImage)
    /// reads through here with offsets derived from untrusted pool bytes.
    pub(crate) fn word(&self, off: usize) -> &AtomicU64 {
        assert!(off % WORD_SIZE == 0 && off <= self.len - WORD_SIZE);
        // SAFETY: in-bounds, word-aligned (just checked), and the mapping
        // lives as long as `self`; AtomicU64 makes concurrent access
        // well-defined.
        unsafe { &*(self.base.as_ptr().add(off) as *const AtomicU64) }
    }

    /// Base address the pool is mapped at.
    pub fn base_addr(&self) -> usize {
        self.base.as_ptr() as usize
    }

    /// Total mapped length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` only for a zero-length mapping, which cannot exist.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Path the pool was created or opened at.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The commit-mode compat word recorded at creation.
    pub fn commit_word(&self) -> u64 {
        self.word(superblock::COMMIT).load(Ordering::SeqCst)
    }

    /// Number of published arena-directory entries.
    pub fn arena_count(&self) -> usize {
        self.word(superblock::ARENA_COUNT).load(Ordering::SeqCst) as usize
    }

    /// Clear the clean-close word and say whether the last close was orderly
    /// (the word held [`CLEAN_CLOSE_MAGIC`]). The open pipeline calls this
    /// before any handle exists, so a process killed from here on leaves the
    /// pool dirty. The clear needs no `msync`: if a power failure loses it,
    /// the next open skips a GC it needed, and a skipped GC only leaks.
    pub fn take_clean_close(&self) -> bool {
        self.word(superblock::CLEAN_CLOSE).swap(0, Ordering::SeqCst) == CLEAN_CLOSE_MAGIC
    }

    /// Record an orderly close: every slot below each arena's high-water mark
    /// is reachable or on its durable free list. Write it last, after a
    /// [`sync`](Self::sync) of everything it vouches for.
    pub fn mark_clean_close(&self) {
        self.word(superblock::CLEAN_CLOSE)
            .store(CLEAN_CLOSE_MAGIC, Ordering::SeqCst);
    }

    /// `msync` the whole mapping: the power-failure checkpoint (see the module
    /// docs). A SIGKILLed process's completed stores survive in the page cache
    /// without it.
    pub fn sync(&self) -> Result<(), OpenError> {
        #[cfg(unix)]
        {
            // SAFETY: syncing the exact range this pool mapped.
            let rc = unsafe { sys::msync(self.base.as_ptr().cast(), self.len, sys::MS_SYNC) };
            if rc != 0 {
                return Err(OpenError::Io(std::io::Error::last_os_error()));
            }
        }
        // Metadata (length, timestamps) rides along with the data.
        self.file.sync_all()?;
        Ok(())
    }

    /// Bump-allocate `len` bytes (a multiple of the cache-line size) from the
    /// data area; returns the byte offset. Never reused — pool space is
    /// reclaimed at slot granularity by the arenas, not at range granularity.
    /// Caller holds `meta`.
    fn alloc_range_locked(&self, len: usize) -> Result<usize, OpenError> {
        let cursor = self.word(superblock::NEXT_FREE);
        let off = cursor.load(Ordering::SeqCst) as usize;
        if off + len > self.len {
            return Err(OpenError::PoolFull {
                requested: len,
                available: self.len - off,
            });
        }
        cursor.store((off + len) as u64, Ordering::SeqCst);
        Ok(off)
    }

    /// A borrowed [`PmemRegion`] over `len` bytes at byte offset `off`.
    fn carve(&self, off: usize, len: usize) -> PmemRegion {
        debug_assert!(off % CACHE_LINE_SIZE == 0);
        debug_assert!(off + len <= self.len);
        // SAFETY: in-bounds, cache-line-aligned range of the mapping, which the
        // Arc keeping `self` alive outlives; bump allocation never hands the
        // same range out twice.
        unsafe { PmemRegion::borrowed(self.base.as_ptr().add(off), len) }
    }

    /// Absolute byte offset of directory entry `index`.
    fn entry_off(index: usize) -> usize {
        DIR_OFFSET + index * DIR_ENTRY_BYTES
    }

    /// The directory word for entry `index` at relative offset `field`.
    fn entry_word(&self, index: usize, field: usize) -> &AtomicU64 {
        self.word(Self::entry_off(index) + field)
    }
}

impl Drop for PoolFile {
    fn drop(&mut self) {
        #[cfg(unix)]
        {
            // Best-effort clean shutdown: flush the page cache to the file,
            // then free the address range so the base can be remapped.
            // SAFETY: exact range this pool mapped; nothing dereferences the
            // mapping after drop (regions carved from it are owned by arenas
            // that are kept alive only alongside the Arc'd pool).
            unsafe {
                sys::msync(self.base.as_ptr().cast(), self.len, sys::MS_SYNC);
                sys::munmap(self.base.as_ptr().cast(), self.len);
            }
        }
    }
}

impl std::fmt::Debug for PoolFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolFile")
            .field("path", &self.path)
            .field("base", &format_args!("{:#x}", self.base_addr()))
            .field("len", &self.len)
            .field("arenas", &self.arena_count())
            .finish()
    }
}

/// Map `len` bytes of `file` shared, at the fixed address `fixed` (reopen)
/// or at a fresh one (creation). Returns the mapping base.
#[cfg(unix)]
fn map_pool(file: &File, len: usize, fixed: Option<usize>) -> Result<NonNull<u8>, OpenError> {
    use std::os::unix::io::AsRawFd;
    let fd = file.as_raw_fd();
    let prot = sys::PROT_READ | sys::PROT_WRITE;

    let try_map = |addr: usize, flags| {
        // SAFETY: mapping a file we own for its exact length; a fixed address
        // uses MAP_FIXED_NOREPLACE, which refuses rather than clobbers.
        let p = unsafe { sys::mmap(addr as *mut _, len, prot, flags, fd, 0) };
        if p == sys::MAP_FAILED {
            Err(std::io::Error::last_os_error().raw_os_error().unwrap_or(0))
        } else {
            // SAFETY: mmap success is non-null.
            Ok(unsafe { NonNull::new_unchecked(p as *mut u8) })
        }
    };

    // A reopen must land exactly at the recorded base: node pointers in the
    // pool are absolute addresses.
    if let Some(base) = fixed {
        #[cfg(target_os = "linux")]
        let flags = sys::MAP_SHARED | sys::MAP_FIXED_NOREPLACE;
        #[cfg(not(target_os = "linux"))]
        let flags = sys::MAP_SHARED;
        return match try_map(base, flags) {
            Ok(p) if p.as_ptr() as usize == base => Ok(p),
            Ok(p) => {
                // Kernels without MAP_FIXED_NOREPLACE treat the address as a
                // hint; a mapping anywhere else is useless, so undo it.
                // SAFETY: unmapping the mapping just created.
                unsafe { sys::munmap(p.as_ptr().cast(), len) };
                Err(OpenError::MappingConflict { wanted: base })
            }
            // EEXIST: MAP_FIXED_NOREPLACE found a live mapping in the range.
            Err(17) => Err(OpenError::MappingConflict { wanted: base }),
            Err(errno) => Err(OpenError::MapFailed { errno }),
        };
    }

    // Fresh creation: a hinted mapping first (quiet address corner → reopen
    // rarely conflicts), then whatever the kernel picks.
    #[cfg(target_os = "linux")]
    {
        for _ in 0..4 {
            let hint = next_base_hint();
            if let Ok(p) = try_map(hint, sys::MAP_SHARED | sys::MAP_FIXED_NOREPLACE) {
                if p.as_ptr() as usize == hint {
                    return Ok(p);
                }
                // SAFETY: unmapping the mapping just created.
                unsafe { sys::munmap(p.as_ptr().cast(), len) };
            }
        }
    }
    try_map(0, sys::MAP_SHARED).map_err(|errno| OpenError::MapFailed { errno })
}

/// An arena's binding to its pool: one directory entry plus the ability to
/// carve header and chunk regions out of the data area. Created fresh by
/// [`PoolArenaSlot::create`] or recovered by [`PoolArenaSlot::adopt`].
pub struct PoolArenaSlot {
    pool: Arc<PoolFile>,
    index: usize,
    slot_size: usize,
    chunk_slots: usize,
    header_off: usize,
    header_bytes: usize,
}

impl PoolArenaSlot {
    /// Claim the next directory entry, allocate the header region, and publish
    /// the entry (fields first, then the arena count — persist-before-publish).
    pub fn create(
        pool: &Arc<PoolFile>,
        slot_size: usize,
        chunk_slots: usize,
        header_bytes: usize,
    ) -> Result<Self, OpenError> {
        let _g = pool.meta.lock().unwrap();
        let count = pool.word(superblock::ARENA_COUNT).load(Ordering::SeqCst) as usize;
        if count >= MAX_ARENAS {
            return Err(OpenError::PoolFull {
                requested: 1,
                available: 0,
            });
        }
        let header_len = header_bytes.div_ceil(CACHE_LINE_SIZE) * CACHE_LINE_SIZE;
        let header_off = pool.alloc_range_locked(header_len)?;
        pool.entry_word(count, direntry::SLOT_SIZE)
            .store(slot_size as u64, Ordering::SeqCst);
        pool.entry_word(count, direntry::CHUNK_SLOTS)
            .store(chunk_slots as u64, Ordering::SeqCst);
        pool.entry_word(count, direntry::HEADER_OFF)
            .store(header_off as u64, Ordering::SeqCst);
        pool.entry_word(count, direntry::NCHUNKS)
            .store(0, Ordering::SeqCst);
        pool.entry_word(count, direntry::NBLOCKS)
            .store(0, Ordering::SeqCst);
        pool.entry_word(count, direntry::STATE)
            .store(1, Ordering::SeqCst);
        pool.word(superblock::ARENA_COUNT)
            .store((count + 1) as u64, Ordering::SeqCst);
        Ok(Self {
            pool: Arc::clone(pool),
            index: count,
            slot_size,
            chunk_slots,
            header_off,
            header_bytes: header_len,
        })
    }

    /// Bind to an existing directory entry, validating every field against the
    /// pool's bounds. Header-*content* validation (arena magic, high water,
    /// root table) is the arena layer's job; this validates the directory.
    pub fn adopt(
        pool: &Arc<PoolFile>,
        index: usize,
        header_bytes: usize,
    ) -> Result<Self, OpenError> {
        let bad = |reason: String| OpenError::ArenaHeader {
            arena: index,
            reason,
        };
        if index >= pool.arena_count() {
            return Err(bad(format!(
                "directory index {index} out of range (count {})",
                pool.arena_count()
            )));
        }
        let state = pool
            .entry_word(index, direntry::STATE)
            .load(Ordering::SeqCst);
        if state != 1 {
            return Err(bad(format!("directory entry state {state} is not live")));
        }
        let slot_size = pool
            .entry_word(index, direntry::SLOT_SIZE)
            .load(Ordering::SeqCst) as usize;
        if slot_size == 0 || slot_size % CACHE_LINE_SIZE != 0 {
            return Err(bad(format!(
                "directory slot size {slot_size} is not a positive multiple of {CACHE_LINE_SIZE}"
            )));
        }
        let chunk_slots = pool
            .entry_word(index, direntry::CHUNK_SLOTS)
            .load(Ordering::SeqCst) as usize;
        if chunk_slots == 0 {
            return Err(bad("directory chunk slot-count is zero".to_string()));
        }
        let chunk_bytes = chunk_slots
            .checked_mul(slot_size)
            .filter(|b| *b <= pool.len)
            .ok_or_else(|| {
                bad(format!(
                    "chunk geometry {chunk_slots}×{slot_size} overflows"
                ))
            })?;
        let header_len = header_bytes.div_ceil(CACHE_LINE_SIZE) * CACHE_LINE_SIZE;
        let header_off = pool
            .entry_word(index, direntry::HEADER_OFF)
            .load(Ordering::SeqCst) as usize;
        if header_off < DATA_OFFSET
            || header_off % CACHE_LINE_SIZE != 0
            || header_off + header_len > pool.len
        {
            return Err(bad(format!(
                "header offset {header_off} outside the data area"
            )));
        }
        let nchunks = pool
            .entry_word(index, direntry::NCHUNKS)
            .load(Ordering::SeqCst) as usize;
        if nchunks > MAX_CHUNKS_PER_ARENA {
            return Err(bad(format!(
                "chunk count {nchunks} exceeds capacity {MAX_CHUNKS_PER_ARENA}"
            )));
        }
        for c in 0..nchunks {
            let off = pool
                .entry_word(index, direntry::CHUNKS + c * WORD_SIZE)
                .load(Ordering::SeqCst) as usize;
            if off < DATA_OFFSET || off % CACHE_LINE_SIZE != 0 || off + chunk_bytes > pool.len {
                return Err(bad(format!("chunk {c} offset {off} outside the data area")));
            }
        }
        let nblocks = pool
            .entry_word(index, direntry::NBLOCKS)
            .load(Ordering::SeqCst) as usize;
        if nblocks > MAX_BLOCKS_PER_ARENA {
            return Err(bad(format!(
                "block-record count {nblocks} exceeds capacity {MAX_BLOCKS_PER_ARENA}"
            )));
        }
        let capacity_slots = nchunks * chunk_slots;
        for b in 0..nblocks {
            let rec = Self::entry_off_block(index, b);
            let first = pool.word(rec).load(Ordering::SeqCst) as usize;
            let nslots = pool.word(rec + WORD_SIZE).load(Ordering::SeqCst) as usize;
            if nslots == 0 || first + nslots > capacity_slots {
                return Err(bad(format!(
                    "block record {b} ({first}+{nslots} slots) outside {capacity_slots} mapped slots"
                )));
            }
        }
        Ok(Self {
            pool: Arc::clone(pool),
            index,
            slot_size,
            chunk_slots,
            header_off,
            header_bytes: header_len,
        })
    }

    /// Absolute byte offset of block record `b` of entry `index`.
    fn entry_off_block(index: usize, b: usize) -> usize {
        PoolFile::entry_off(index) + direntry::BLOCKS + b * 2 * WORD_SIZE
    }

    /// Directory index of this arena in its pool.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The pool this arena lives in.
    pub fn pool(&self) -> &Arc<PoolFile> {
        &self.pool
    }

    /// Slot size recorded in the directory entry.
    pub fn slot_size(&self) -> usize {
        self.slot_size
    }

    /// Slots per chunk recorded in the directory entry.
    pub fn chunk_slots(&self) -> usize {
        self.chunk_slots
    }

    /// The arena's header region, carved from the data area.
    pub fn header_region(&self) -> PmemRegion {
        self.pool.carve(self.header_off, self.header_bytes)
    }

    /// Number of published chunks.
    pub fn chunk_count(&self) -> usize {
        self.pool
            .entry_word(self.index, direntry::NCHUNKS)
            .load(Ordering::SeqCst) as usize
    }

    /// Regions for every published chunk, in publication order.
    pub fn chunk_regions(&self) -> Vec<PmemRegion> {
        let bytes = self.chunk_slots * self.slot_size;
        (0..self.chunk_count())
            .map(|c| {
                let off = self
                    .pool
                    .entry_word(self.index, direntry::CHUNKS + c * WORD_SIZE)
                    .load(Ordering::SeqCst) as usize;
                self.pool.carve(off, bytes)
            })
            .collect()
    }

    /// Allocate and publish one more chunk (offset first, then the count).
    pub fn add_chunk(&self) -> Result<PmemRegion, OpenError> {
        let bytes = self.chunk_slots * self.slot_size;
        let _g = self.pool.meta.lock().unwrap();
        let n = self
            .pool
            .entry_word(self.index, direntry::NCHUNKS)
            .load(Ordering::SeqCst) as usize;
        if n >= MAX_CHUNKS_PER_ARENA {
            return Err(OpenError::PoolFull {
                requested: bytes,
                available: 0,
            });
        }
        let off = self.pool.alloc_range_locked(bytes)?;
        self.pool
            .entry_word(self.index, direntry::CHUNKS + n * WORD_SIZE)
            .store(off as u64, Ordering::SeqCst);
        self.pool
            .entry_word(self.index, direntry::NCHUNKS)
            .store((n + 1) as u64, Ordering::SeqCst);
        Ok(self.pool.carve(off, bytes))
    }

    /// Durably record a multi-slot block (`first_slot`, `nslots`) so post-crash
    /// GC treats the span as one object (record first, then the count).
    pub fn note_block(&self, first_slot: usize, nslots: usize) -> Result<(), OpenError> {
        let _g = self.pool.meta.lock().unwrap();
        let n = self
            .pool
            .entry_word(self.index, direntry::NBLOCKS)
            .load(Ordering::SeqCst) as usize;
        if n >= MAX_BLOCKS_PER_ARENA {
            return Err(OpenError::PoolFull {
                requested: 1,
                available: 0,
            });
        }
        let rec = Self::entry_off_block(self.index, n);
        self.pool
            .word(rec)
            .store(first_slot as u64, Ordering::SeqCst);
        self.pool
            .word(rec + WORD_SIZE)
            .store(nslots as u64, Ordering::SeqCst);
        self.pool
            .entry_word(self.index, direntry::NBLOCKS)
            .store((n + 1) as u64, Ordering::SeqCst);
        Ok(())
    }

    /// All recorded multi-slot blocks as `(first_slot, nslots)` pairs.
    pub fn blocks(&self) -> Vec<(usize, usize)> {
        let n = self
            .pool
            .entry_word(self.index, direntry::NBLOCKS)
            .load(Ordering::SeqCst) as usize;
        (0..n)
            .map(|b| {
                let rec = Self::entry_off_block(self.index, b);
                (
                    self.pool.word(rec).load(Ordering::SeqCst) as usize,
                    self.pool.word(rec + WORD_SIZE).load(Ordering::SeqCst) as usize,
                )
            })
            .collect()
    }
}

impl std::fmt::Debug for PoolArenaSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolArenaSlot")
            .field("index", &self.index)
            .field("slot_size", &self.slot_size)
            .field("chunk_slots", &self.chunk_slots)
            .field("header_off", &self.header_off)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("flit-pool-unit");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{}-{}.pool", name, std::process::id()))
    }

    fn small_opts() -> PoolOptions {
        PoolOptions::with_capacity(1 << 20)
    }

    #[test]
    fn create_then_reopen_at_same_base() {
        let path = tmp("roundtrip");
        let base;
        {
            let pool = PoolFile::create(&path, &small_opts(), 1).unwrap();
            base = pool.base_addr();
            assert_eq!(pool.commit_word(), 1);
            assert_eq!(pool.arena_count(), 0);
        }
        let pool = PoolFile::open(&path).unwrap();
        assert_eq!(
            pool.base_addr(),
            base,
            "reopen must land at the recorded base"
        );
        drop(pool);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn double_open_conflicts() {
        let path = tmp("conflict");
        let pool = PoolFile::create(&path, &small_opts(), 1).unwrap();
        let err = PoolFile::open(&path).unwrap_err();
        assert!(
            matches!(err, OpenError::MappingConflict { wanted } if wanted == pool.base_addr()),
            "expected MappingConflict, got {err:?}"
        );
        drop(pool);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn arena_slot_roundtrip() {
        let path = tmp("slot");
        let (base, header_off);
        {
            let pool = PoolFile::create(&path, &small_opts(), 1).unwrap();
            let slot = PoolArenaSlot::create(&pool, 128, 64, 320).unwrap();
            assert_eq!(slot.index(), 0);
            header_off = slot.header_region().base_addr() - pool.base_addr();
            let chunk = slot.add_chunk().unwrap();
            assert_eq!(chunk.len(), 128 * 64);
            slot.note_block(3, 5).unwrap();
            base = pool.base_addr();
            // SAFETY: in-bounds write into the freshly created chunk.
            unsafe { chunk.base_ptr().cast::<u64>().write(0xABCD) };
        }
        let pool = PoolFile::open(&path).unwrap();
        assert_eq!(pool.base_addr(), base);
        assert_eq!(pool.arena_count(), 1);
        let slot = PoolArenaSlot::adopt(&pool, 0, 320).unwrap();
        assert_eq!(slot.slot_size(), 128);
        assert_eq!(slot.chunk_slots(), 64);
        assert_eq!(
            slot.header_region().base_addr() - pool.base_addr(),
            header_off
        );
        assert_eq!(slot.chunk_count(), 1);
        assert_eq!(slot.blocks(), vec![(3, 5)]);
        let chunks = slot.chunk_regions();
        // SAFETY: reading the word written before the reopen.
        assert_eq!(unsafe { chunks[0].base_ptr().cast::<u64>().read() }, 0xABCD);
        drop(pool);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn adopt_rejects_corrupt_directory() {
        let path = tmp("corrupt-dir");
        let pool = PoolFile::create(&path, &small_opts(), 1).unwrap();
        let _slot = PoolArenaSlot::create(&pool, 128, 64, 320).unwrap();
        // Out-of-range index.
        assert!(matches!(
            PoolArenaSlot::adopt(&pool, 7, 320).unwrap_err(),
            OpenError::ArenaHeader { arena: 7, .. }
        ));
        // Zero slot size in the directory.
        pool.entry_word(0, direntry::SLOT_SIZE)
            .store(0, Ordering::SeqCst);
        assert!(matches!(
            PoolArenaSlot::adopt(&pool, 0, 320).unwrap_err(),
            OpenError::ArenaHeader { arena: 0, .. }
        ));
        drop(pool);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_rejects_bad_metadata() {
        use std::os::unix::fs::FileExt;
        let path = tmp("bad-meta");
        drop(PoolFile::create(&path, &small_opts(), 1).unwrap());

        let clobber = |off: u64, val: u64| {
            let f = OpenOptions::new().write(true).open(&path).unwrap();
            f.write_at(&val.to_le_bytes(), off).unwrap();
        };

        clobber(superblock::VERSION as u64, 99);
        assert!(matches!(
            PoolFile::open(&path).unwrap_err(),
            OpenError::BadVersion { found: 99, .. }
        ));
        clobber(superblock::VERSION as u64, POOL_VERSION);

        clobber(superblock::MAGIC as u64, 0x1234);
        assert!(matches!(
            PoolFile::open(&path).unwrap_err(),
            OpenError::BadMagic { found: 0x1234 }
        ));
        clobber(superblock::MAGIC as u64, POOL_MAGIC);

        clobber(superblock::NEXT_FREE as u64, 5);
        assert!(matches!(
            PoolFile::open(&path).unwrap_err(),
            OpenError::BadSuperblock { .. }
        ));
        clobber(superblock::NEXT_FREE as u64, DATA_OFFSET as u64);

        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(100).unwrap();
        drop(f);
        assert!(matches!(
            PoolFile::open(&path).unwrap_err(),
            OpenError::Truncated { len: 100, .. }
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn pool_full_is_typed() {
        let path = tmp("full");
        let pool = PoolFile::create(&path, &PoolOptions::with_capacity(DATA_OFFSET), 1).unwrap();
        {
            let _g = pool.meta.lock().unwrap();
            let err = pool.alloc_range_locked(2 * PAGE_SIZE).unwrap_err();
            assert!(matches!(err, OpenError::PoolFull { .. }), "got {err:?}");
        }
        drop(pool);
        std::fs::remove_file(&path).unwrap();
    }
}
