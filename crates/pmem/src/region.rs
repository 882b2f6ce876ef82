//! Reserved persistent-memory address ranges.
//!
//! A [`PmemRegion`] is a pinned, cache-line-aligned, zero-initialised address range
//! carved out of the persistence substrate — the raw-memory half of an arena
//! allocator. The region guarantees exactly three things:
//!
//! * **Stability** — the base address never changes for the lifetime of the region
//!   (objects inside it can be linked by address and flushed line by line);
//! * **Alignment** — the base is cache-line aligned and the length is a whole number
//!   of cache lines, so offset arithmetic within the region never changes how many
//!   lines an object straddles (this is what makes persistence-event streams
//!   reproducible across runs: a slot at offset *o* covers the same line span in
//!   every process, regardless of where the region itself landed);
//! * **Zeroing** — freshly reserved memory reads as zero, matching the "null link"
//!   conventions of the lock-free structures.
//!
//! A region comes in two provenances:
//!
//! * **Owned** ([`PmemRegion::reserve`]) — an aligned heap allocation, freed on
//!   drop. This is the *volatile substrate*: exactly equivalent to real NVRAM
//!   under [`SimNvram`](crate::SimNvram), whose tracker models persistence of
//!   arbitrary addresses.
//! * **Borrowed** ([`PmemRegion::borrowed`]) — a window into memory owned by
//!   someone else, typically a `mmap`-ed [`PoolFile`](crate::pool::PoolFile).
//!   Dropping a borrowed region releases nothing; the pool unmaps the whole
//!   file when it is dropped.
//!
//! Reservation is fallible ([`ReserveError`]): the *pool* layer turns a failed
//! map into a typed error for `FlitDb::open` callers. Arena internals, by
//! contrast, may still treat a failed reservation as fatal (`.expect`) — an
//! arena that cannot grow mid-operation has no useful recovery.

use std::alloc::{alloc_zeroed, dealloc, Layout};
use std::ptr::NonNull;

use crate::cache_line::CACHE_LINE_SIZE;

/// Why a region reservation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReserveError {
    /// A zero-length region was requested.
    Empty,
    /// The rounded length overflows what a [`Layout`] can describe.
    LayoutOverflow {
        /// The requested length in bytes.
        len: usize,
    },
    /// The allocator returned null.
    OutOfMemory {
        /// The requested length in bytes.
        len: usize,
    },
}

impl std::fmt::Display for ReserveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReserveError::Empty => write!(f, "cannot reserve an empty region"),
            ReserveError::LayoutOverflow { len } => {
                write!(f, "region of {len} bytes overflows the address space")
            }
            ReserveError::OutOfMemory { len } => {
                write!(f, "allocation of a {len}-byte region failed")
            }
        }
    }
}

impl std::error::Error for ReserveError {}

/// How the region's memory is owned (and therefore what drop must do).
enum Backing {
    /// Heap allocation produced by `alloc_zeroed(layout)`; freed on drop.
    Heap(Layout),
    /// A window into memory owned elsewhere (a mapped pool file); drop is a no-op.
    Borrowed,
}

/// A pinned, cache-line-aligned, zeroed address range. See the module docs.
pub struct PmemRegion {
    base: NonNull<u8>,
    len: usize,
    backing: Backing,
}

// SAFETY: the region is a plain block of memory with no interior state; all mutation
// happens through raw pointers whose synchronisation is the caller's responsibility
// (the arena layer serialises its metadata writes and hands out disjoint slots).
unsafe impl Send for PmemRegion {}
unsafe impl Sync for PmemRegion {}

impl PmemRegion {
    /// Reserve a zeroed heap-backed region of at least `len` bytes, rounded up to
    /// a whole number of cache lines.
    pub fn reserve(len: usize) -> Result<Self, ReserveError> {
        if len == 0 {
            return Err(ReserveError::Empty);
        }
        let len = len.div_ceil(CACHE_LINE_SIZE) * CACHE_LINE_SIZE;
        let layout = Layout::from_size_align(len, CACHE_LINE_SIZE)
            .map_err(|_| ReserveError::LayoutOverflow { len })?;
        // SAFETY: layout has non-zero size (checked above).
        let ptr = unsafe { alloc_zeroed(layout) };
        let Some(base) = NonNull::new(ptr) else {
            return Err(ReserveError::OutOfMemory { len });
        };
        Ok(Self {
            base,
            len,
            backing: Backing::Heap(layout),
        })
    }

    /// A region borrowing `len` bytes at `base` from memory owned elsewhere
    /// (typically a range carved out of a mapped pool file). Dropping the
    /// returned region releases nothing.
    ///
    /// # Safety
    /// `base` must be cache-line aligned, the `len` bytes starting at it must be
    /// valid for reads and writes for the whole lifetime of the returned region
    /// (the caller keeps the owner — e.g. the pool mapping — alive), `len` must
    /// be a non-zero multiple of the cache-line size, and the range must not be
    /// concurrently reserved by any other region.
    pub unsafe fn borrowed(base: *mut u8, len: usize) -> Self {
        debug_assert!(!base.is_null());
        debug_assert_eq!(base as usize % CACHE_LINE_SIZE, 0);
        debug_assert!(len > 0 && len % CACHE_LINE_SIZE == 0);
        Self {
            // SAFETY: non-null per the caller's contract (debug-asserted).
            base: unsafe { NonNull::new_unchecked(base) },
            len,
            backing: Backing::Borrowed,
        }
    }

    /// The base address of the region (cache-line aligned).
    #[inline]
    pub fn base_addr(&self) -> usize {
        self.base.as_ptr() as usize
    }

    /// The base pointer of the region.
    #[inline]
    pub fn base_ptr(&self) -> *mut u8 {
        self.base.as_ptr()
    }

    /// Length of the region in bytes (a multiple of the cache-line size).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `false` always — regions cannot be empty — but provided for API symmetry.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` when `addr` falls inside the region.
    #[inline]
    pub fn contains(&self, addr: usize) -> bool {
        let base = self.base_addr();
        addr >= base && addr < base + self.len()
    }
}

impl Drop for PmemRegion {
    fn drop(&mut self) {
        if let Backing::Heap(layout) = self.backing {
            // SAFETY: `base` was produced by `alloc_zeroed(layout)` and is freed
            // exactly once; borrowed regions never reach this arm.
            unsafe { dealloc(self.base.as_ptr(), layout) };
        }
    }
}

impl std::fmt::Debug for PmemRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PmemRegion")
            .field("base", &format_args!("{:#x}", self.base_addr()))
            .field("len", &self.len())
            .field(
                "backing",
                &match self.backing {
                    Backing::Heap(_) => "heap",
                    Backing::Borrowed => "borrowed",
                },
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reservation_is_aligned_rounded_and_zeroed() {
        let r = PmemRegion::reserve(100).unwrap();
        assert_eq!(r.base_addr() % CACHE_LINE_SIZE, 0);
        assert_eq!(r.len(), 128, "rounded up to whole cache lines");
        assert!(!r.is_empty());
        // SAFETY: freshly reserved, exclusively owned.
        let bytes = unsafe { std::slice::from_raw_parts(r.base_ptr(), r.len()) };
        assert!(bytes.iter().all(|&b| b == 0));
    }

    #[test]
    fn reservation_failures_are_typed() {
        assert_eq!(PmemRegion::reserve(0).unwrap_err(), ReserveError::Empty);
        assert!(matches!(
            PmemRegion::reserve(usize::MAX - 63).unwrap_err(),
            ReserveError::LayoutOverflow { .. }
        ));
    }

    #[test]
    fn containment_checks() {
        let r = PmemRegion::reserve(256).unwrap();
        let base = r.base_addr();
        assert!(r.contains(base));
        assert!(r.contains(base + 255));
        assert!(!r.contains(base + 256));
        assert!(!r.contains(base.wrapping_sub(1)));
    }

    #[test]
    fn regions_are_stable_and_writable() {
        let r = PmemRegion::reserve(64).unwrap();
        let base = r.base_ptr();
        // SAFETY: in-bounds write to exclusively owned memory.
        unsafe { base.cast::<u64>().write(0xDEAD_BEEF) };
        assert_eq!(r.base_ptr(), base);
        // SAFETY: just written above.
        assert_eq!(unsafe { base.cast::<u64>().read() }, 0xDEAD_BEEF);
    }

    #[test]
    fn borrowed_regions_release_nothing() {
        let owner = PmemRegion::reserve(256).unwrap();
        {
            // SAFETY: window into `owner`, which outlives it; aligned and sized.
            let view = unsafe { PmemRegion::borrowed(owner.base_ptr(), 128) };
            assert_eq!(view.base_addr(), owner.base_addr());
            assert_eq!(view.len(), 128);
            // SAFETY: in-bounds write through the view.
            unsafe { view.base_ptr().cast::<u64>().write(7) };
        }
        // The owner's memory must still be live and hold the write.
        // SAFETY: owner is alive.
        assert_eq!(unsafe { owner.base_ptr().cast::<u64>().read() }, 7);
    }
}
