//! Cache-line and word geometry helpers.
//!
//! Flush instructions operate on whole cache lines while the FliT library tags and
//! tracks individual 8-byte words; these helpers convert between the two.

/// Size of a cache line in bytes on every platform we target.
///
/// The paper's machine (Cascade Lake SP) and essentially all current x86-64 and ARMv8
/// server parts use 64-byte lines. The simulated backend flushes at this granularity.
pub const CACHE_LINE_SIZE: usize = 64;

/// Size of the word the FliT library operates on (one `u64`).
pub const WORD_SIZE: usize = 8;

/// Number of words per cache line.
pub const WORDS_PER_LINE: usize = CACHE_LINE_SIZE / WORD_SIZE;

/// Returns the base address of the cache line containing `addr`.
#[inline]
pub fn cache_line_of(addr: usize) -> usize {
    addr & !(CACHE_LINE_SIZE - 1)
}

/// Returns the base address of the 8-byte word containing `addr`.
#[inline]
pub fn word_of(addr: usize) -> usize {
    addr & !(WORD_SIZE - 1)
}

/// Returns `true` when two addresses fall on the same cache line.
///
/// The paper's §6.6 discussion of adjacent counters vs. hashed counters hinges on
/// whether the flit-counter shares a line with the data word; this helper is used by
/// tests that assert the layout properties of each scheme.
#[inline]
pub fn same_cache_line(a: usize, b: usize) -> bool {
    cache_line_of(a) == cache_line_of(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_rounding() {
        assert_eq!(cache_line_of(0), 0);
        assert_eq!(cache_line_of(63), 0);
        assert_eq!(cache_line_of(64), 64);
        assert_eq!(cache_line_of(65), 64);
        assert_eq!(cache_line_of(0x1234_5678), 0x1234_5678 & !63);
    }

    #[test]
    fn word_rounding() {
        assert_eq!(word_of(0), 0);
        assert_eq!(word_of(7), 0);
        assert_eq!(word_of(8), 8);
        assert_eq!(word_of(15), 8);
    }

    #[test]
    fn same_line_detection() {
        assert!(same_cache_line(0, 63));
        assert!(!same_cache_line(0, 64));
        assert!(same_cache_line(128, 191));
    }

    #[test]
    fn constants_consistent() {
        assert_eq!(CACHE_LINE_SIZE % WORD_SIZE, 0);
        assert_eq!(WORDS_PER_LINE, 8);
        assert!(CACHE_LINE_SIZE.is_power_of_two());
        assert!(WORD_SIZE.is_power_of_two());
    }
}
