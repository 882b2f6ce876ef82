//! Persistence-instruction statistics.
//!
//! Figure 9 of the paper reports the *number of `pwb` instructions per operation* for
//! each FliT variant; these counters are how the reproduction measures the same
//! quantity. Counters are global per backend instance and use relaxed atomics so the
//! probe effect on the benchmarked code is negligible.

use std::sync::atomic::{AtomicU64, Ordering};

use crossbeam_utils::CachePadded;

/// Monotonic counters for every persistence instruction issued through a backend.
///
/// Each counter lives on its own cache line so that threads hammering `pwbs` do not
/// false-share with threads hammering `pfences`.
#[derive(Debug, Default)]
pub struct PmemStats {
    pwbs: CachePadded<AtomicU64>,
    pfences: CachePadded<AtomicU64>,
    /// `pwb`s that the FliT read path executed because the location was tagged
    /// (i.e. read-side flushes that the plain transformation would always pay).
    read_side_pwbs: CachePadded<AtomicU64>,
    /// `pfence`s requested through `pfence_if_dirty` but skipped because the calling
    /// thread's persist epoch was clean (the fence would have persisted nothing).
    elided_pfences: CachePadded<AtomicU64>,
    /// Read-side `pwb`s skipped because the word was already flushed with the same
    /// observed value in the calling thread's current persist epoch.
    elided_pwbs: CachePadded<AtomicU64>,
}

impl PmemStats {
    /// Creates a zeroed statistics block.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one `pwb`.
    #[inline]
    pub fn record_pwb(&self) {
        self.pwbs.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one `pfence`.
    #[inline]
    pub fn record_pfence(&self) {
        self.pfences.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one read-side (`p-load`-triggered) `pwb`.
    #[inline]
    pub fn record_read_side_pwb(&self) {
        self.read_side_pwbs.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one fence skipped by persist-epoch elision.
    #[inline]
    pub fn record_elided_pfence(&self) {
        self.elided_pfences.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one duplicate read-side flush skipped by persist-epoch elision.
    #[inline]
    pub fn record_elided_pwb(&self) {
        self.elided_pwbs.fetch_add(1, Ordering::Relaxed);
    }

    /// Total `pwb`s so far.
    #[inline]
    pub fn pwbs(&self) -> u64 {
        self.pwbs.load(Ordering::Relaxed)
    }

    /// Total `pfence`s so far.
    #[inline]
    pub fn pfences(&self) -> u64 {
        self.pfences.load(Ordering::Relaxed)
    }

    /// Total read-side `pwb`s so far.
    #[inline]
    pub fn read_side_pwbs(&self) -> u64 {
        self.read_side_pwbs.load(Ordering::Relaxed)
    }

    /// Total fences skipped by persist-epoch elision so far.
    #[inline]
    pub fn elided_pfences(&self) -> u64 {
        self.elided_pfences.load(Ordering::Relaxed)
    }

    /// Total duplicate read-side flushes skipped by persist-epoch elision so far.
    #[inline]
    pub fn elided_pwbs(&self) -> u64 {
        self.elided_pwbs.load(Ordering::Relaxed)
    }

    /// Capture a point-in-time copy of all counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            pwbs: self.pwbs(),
            pfences: self.pfences(),
            read_side_pwbs: self.read_side_pwbs(),
            elided_pfences: self.elided_pfences(),
            elided_pwbs: self.elided_pwbs(),
        }
    }
}

/// A point-in-time copy of [`PmemStats`], supporting subtraction to form deltas over a
/// measured interval.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Total `pwb` instructions.
    pub pwbs: u64,
    /// Total `pfence` instructions.
    pub pfences: u64,
    /// `pwb`s triggered by tagged p-loads.
    pub read_side_pwbs: u64,
    /// Fences skipped by persist-epoch elision.
    pub elided_pfences: u64,
    /// Duplicate read-side flushes skipped by persist-epoch elision.
    pub elided_pwbs: u64,
}

impl StatsSnapshot {
    /// Counter-wise difference `self - earlier`, saturating at zero.
    pub fn delta_since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            pwbs: self.pwbs.saturating_sub(earlier.pwbs),
            pfences: self.pfences.saturating_sub(earlier.pfences),
            read_side_pwbs: self.read_side_pwbs.saturating_sub(earlier.read_side_pwbs),
            elided_pfences: self.elided_pfences.saturating_sub(earlier.elided_pfences),
            elided_pwbs: self.elided_pwbs.saturating_sub(earlier.elided_pwbs),
        }
    }

    /// `pwb`s per operation given an operation count (0 ops yields 0.0).
    pub fn pwbs_per_op(&self, ops: u64) -> f64 {
        if ops == 0 {
            0.0
        } else {
            self.pwbs as f64 / ops as f64
        }
    }

    /// `pfence`s per operation given an operation count (0 ops yields 0.0).
    pub fn pfences_per_op(&self, ops: u64) -> f64 {
        if ops == 0 {
            0.0
        } else {
            self.pfences as f64 / ops as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counters_accumulate() {
        let s = PmemStats::new();
        for _ in 0..5 {
            s.record_pwb();
        }
        for _ in 0..3 {
            s.record_pfence();
        }
        s.record_read_side_pwb();
        assert_eq!(s.pwbs(), 5);
        assert_eq!(s.pfences(), 3);
        assert_eq!(s.read_side_pwbs(), 1);
    }

    #[test]
    fn snapshot_and_delta() {
        let s = PmemStats::new();
        s.record_pwb();
        s.record_pwb();
        let a = s.snapshot();
        s.record_pwb();
        s.record_pfence();
        let b = s.snapshot();
        let d = b.delta_since(&a);
        assert_eq!(d.pwbs, 1);
        assert_eq!(d.pfences, 1);
        assert_eq!(d.read_side_pwbs, 0);
    }

    #[test]
    fn per_op_rates() {
        let snap = StatsSnapshot {
            pwbs: 100,
            pfences: 50,
            read_side_pwbs: 10,
            ..Default::default()
        };
        assert!((snap.pwbs_per_op(50) - 2.0).abs() < 1e-12);
        assert!((snap.pfences_per_op(50) - 1.0).abs() < 1e-12);
        assert_eq!(snap.pwbs_per_op(0), 0.0);
    }

    #[test]
    fn elided_counters_accumulate_and_delta() {
        let s = PmemStats::new();
        s.record_elided_pfence();
        s.record_elided_pfence();
        s.record_elided_pwb();
        let a = s.snapshot();
        assert_eq!(a.elided_pfences, 2);
        assert_eq!(a.elided_pwbs, 1);
        s.record_elided_pfence();
        let d = s.snapshot().delta_since(&a);
        assert_eq!(d.elided_pfences, 1);
        assert_eq!(d.elided_pwbs, 0);
    }

    #[test]
    fn concurrent_increments_are_not_lost() {
        let s = Arc::new(PmemStats::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        s.record_pwb();
                        s.record_pfence();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(s.pwbs(), 4000);
        assert_eq!(s.pfences(), 4000);
    }
}
