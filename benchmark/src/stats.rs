//! Order statistics with linear interpolation, and the quiet-decile rule.
//!
//! Interference on a shared VM only ever *slows* a repetition, so the fast
//! side of a metric's repetitions is the side that repeats: within a round
//! every timing is the fast-side decile of its repetitions (p90 of chunk
//! rates, p10 of durations), never a mean and never a plain median. Rounds
//! differ a little by which table their seed built (either way) and a lot by
//! whether a neighbour was busy throughout (one way), so across rounds a run
//! takes the fast-side quartile.

/// The `q`-quantile (`0.0..=1.0`) of an ascending-sorted slice, interpolating
/// linearly between the two nearest ranks. Panics on an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// [`quantile_sorted`] of an unsorted sample set.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, q)
}

/// Fast-side decile of durations: the 10th percentile.
pub fn quiet_low(values: &[f64]) -> f64 {
    quantile(values, 0.10)
}

/// Fast-side decile of rates: the 90th percentile.
pub fn quiet_high(values: &[f64]) -> f64 {
    quantile(values, 0.90)
}

/// The median.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.50)
}

/// Fast-side quartile of durations across rounds: the 25th percentile.
pub fn quiet_quartile_low(values: &[f64]) -> f64 {
    quantile(values, 0.25)
}

/// Fast-side quartile of rates across rounds: the 75th percentile.
pub fn quiet_quartile_high(values: &[f64]) -> f64 {
    quantile(values, 0.75)
}

/// `(p90 - p10) / p50`: how far apart the quiet and the noisy repetitions of a
/// metric sit. Read beside every quiet-decile value: it is what the decile
/// hides.
pub fn decile_spread(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let p50 = quantile_sorted(&sorted, 0.5);
    if p50 == 0.0 {
        return 0.0;
    }
    (quantile_sorted(&sorted, 0.9) - quantile_sorted(&sorted, 0.1)) / p50
}

/// The `q`-quantile of raw nanosecond samples, sorting `samples` in place
/// (exact: no bucketed histogram). Returns 0 for an empty set.
pub fn quantile_ns(samples: &mut [u32], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let pos = q.clamp(0.0, 1.0) * (samples.len() - 1) as f64;
    let lo = samples[pos.floor() as usize] as f64;
    let hi = samples[pos.ceil() as usize] as f64;
    lo + (hi - lo) * (pos - pos.floor())
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` (the exclusive
/// method) gives them — the rule the acceptance check of a benchmark set uses.
pub fn quartiles_exclusive(values: &[f64]) -> [f64; 3] {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let cut = |i: usize| {
        if n == 1 {
            return sorted[0];
        }
        let pos = i as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * frac
    };
    [cut(1), cut(2), cut(3)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_linearly() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert!((quantile(&v, 0.1) - 1.4).abs() < 1e-12);
        assert!((quiet_high(&v) - 4.6).abs() < 1e-12);
    }

    #[test]
    fn exclusive_quartiles_match_python() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles_exclusive(&v), [2.75, 5.5, 8.25]);
    }

    #[test]
    fn ns_quantile_is_exact_on_raw_samples() {
        let mut s = [30u32, 10, 20];
        assert_eq!(quantile_ns(&mut s, 0.5), 20.0);
        assert_eq!(quantile_ns(&mut [], 0.5), 0.0);
    }
}
