//! A fixed-bucket logarithmic latency histogram, dependency-free.
//!
//! The benchmark harness needs latency *distributions* — a p99 says what a mean
//! hides — but the container has no HDR-histogram crate, and per-sample `Vec`s
//! would distort the hot loop they measure. This is the standard compromise:
//! power-of-two major buckets subdivided linearly (`SUB_BITS` bits each), so
//! any `u64` nanosecond value lands in one of < 1024 buckets with a bounded
//! relative error of `2^-SUB_BITS` (6.25%). Recording is one atomic increment;
//! recording takes `&self`, so one histogram serves every worker thread of a
//! run.
//!
//! Quantiles are computed from a snapshot of the counts and report the
//! *upper bound* of the bucket holding the target rank — a pessimistic (never
//! flattering) tail estimate.

use std::sync::atomic::{AtomicU64, Ordering};

/// Linear sub-bucket bits per power-of-two range: 16 sub-buckets, ≤6.25% error.
const SUB_BITS: u32 = 4;

/// Total bucket count: values below `2^SUB_BITS` map one-to-one, and each of
/// the remaining 60 octaves contributes `2^SUB_BITS` sub-buckets (976 in use).
const BUCKETS: usize = 1024;

/// The bucket index of value `v` (monotone in `v`).
fn bucket_index(v: u64) -> usize {
    if v < (1 << SUB_BITS) {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let sub = (v >> (msb - SUB_BITS)) & ((1 << SUB_BITS) - 1);
    (((msb - SUB_BITS + 1) << SUB_BITS) + sub as u32) as usize
}

/// The largest value mapping to bucket `idx` (inverse of [`bucket_index`]).
fn bucket_upper_bound(idx: usize) -> u64 {
    if idx < (1 << SUB_BITS) {
        return idx as u64;
    }
    let group = (idx >> SUB_BITS) as u32;
    let sub = (idx & ((1 << SUB_BITS) - 1)) as u64;
    let msb = group + SUB_BITS - 1;
    let lower = (1u64 << msb) + (sub << (msb - SUB_BITS));
    lower + ((1u64 << (msb - SUB_BITS)) - 1)
}

/// A concurrent log₂-bucketed histogram of `u64` samples (nanoseconds, by
/// convention). See the module docs for the bucketing scheme.
pub struct LatencyHistogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
        }
    }

    /// Record one sample. Thread-safe; one relaxed increment per call.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// The `q`-quantile (`0.0..=1.0`) as the upper bound of the bucket holding
    /// that rank, from a snapshot of the counts; `0` when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let target = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (idx, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_upper_bound(idx);
            }
        }
        bucket_upper_bound(BUCKETS - 1)
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.count())
            .field("p50", &self.p50())
            .field("p99", &self.p99())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_continuous() {
        // Continuity at every power-of-two boundary, monotonicity throughout.
        let mut prev = bucket_index(0);
        for v in 0..4096u64 {
            let idx = bucket_index(v);
            assert!(idx == prev || idx == prev + 1, "gap at {v}");
            prev = idx;
        }
        assert!(bucket_index(u64::MAX) < BUCKETS);
    }

    #[test]
    fn upper_bound_inverts_the_index() {
        for v in [0u64, 1, 15, 16, 17, 1000, 123_456, 1 << 40, u64::MAX] {
            let idx = bucket_index(v);
            let ub = bucket_upper_bound(idx);
            assert!(ub >= v, "upper bound below the value at {v}");
            assert_eq!(bucket_index(ub), idx, "upper bound left its bucket at {v}");
            // The bound is tight: 6.25% relative error at most.
            assert!(ub - v <= v / 16 + 1, "loose bound at {v}: {ub}");
        }
    }

    #[test]
    fn small_values_are_exact() {
        let h = LatencyHistogram::new();
        for v in [3u64, 3, 3, 7] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.p50(), 3);
        assert_eq!(h.quantile(1.0), 7);
        assert_eq!(h.quantile(0.0), 3, "q=0 is the minimum's bucket");
    }

    #[test]
    fn quantiles_of_a_known_distribution() {
        let h = LatencyHistogram::new();
        // 99 samples near 100ns, one at ~1ms: p50 small, p99 huge.
        for _ in 0..99 {
            h.record(100);
        }
        h.record(1_000_000);
        let p50 = h.p50();
        assert!((100..=107).contains(&p50), "p50={p50}");
        let p99 = h.quantile(0.99);
        assert!((100..=107).contains(&p99), "p99 rank 99 of 100 = {p99}");
        let p999 = h.p999();
        assert!((1_000_000..=1_000_000 + 1_000_000 / 16 + 1).contains(&p999));
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p999(), 0);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = LatencyHistogram::new();
        std::thread::scope(|s| {
            for t in 0..4 {
                let h = &h;
                s.spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 1_000 + i % 100);
                    }
                });
            }
        });
        assert_eq!(h.count(), 40_000);
    }
}
