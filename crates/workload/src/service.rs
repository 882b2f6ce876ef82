//! Request-stream generation for the sharded KV service (`flit-server`).
//!
//! The single-structure workloads of [`crate::runner`] run one mix on one
//! handle; the service adds a stream of requests to a server, and [`KeySampler`] adds
//! **key skew** (Zipfian popularity, the standard model of hot keys in KV traffic)
//! for the `benchmark/` crate's service workload. This module generates the
//! streams; *driving* them through a server is the job of the `flit-bench`
//! ledger (counts) and of the `benchmark/` crate (timing).
//!
//! Everything is deterministic: the `i`-th request is a pure function of
//! `(config, i)`, so a service history is fully reproduced by its config — the same property the crash histories of [`crate::crash_history`]
//! are built on, and what makes the per-shard crash sweeps replayable.

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::crash_history::MapOp;

/// One service workload: uniform keys and a read/write mix, issued by one
/// worker that sends its next request the moment the previous reply arrives
/// (closed loop).
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceConfig {
    /// Keys are drawn from `0..key_range`.
    pub key_range: u64,
    /// Percentage of requests that are updates, split evenly between `Put` and
    /// `Del`; the rest are `Get`s.
    pub update_percent: u32,
    /// Requests issued.
    pub requests: u64,
}

/// The seed every service stream is drawn with.
const SEED: u64 = 0xF117_5E2F;

impl ServiceConfig {
    /// A uniform-key config.
    pub fn new(key_range: u64, update_percent: u32, requests: u64) -> Self {
        assert!(key_range > 0);
        assert!(update_percent <= 100);
        Self {
            key_range,
            update_percent,
            requests,
        }
    }
}

/// A sampler of keys from `0..key_range`, uniform or Zipfian.
///
/// The Zipf variant precomputes the CDF over key popularity ranks (rank `r` has
/// probability proportional to `1 / (r+1)^skew`) and samples by binary search;
/// rank `r` maps to key `r`, so low keys are the hot keys — harmless, since
/// every structure under test hashes or compares keys rather than indexing by
/// them. Sampling consumes exactly one RNG word either way.
#[derive(Debug, Clone)]
pub enum KeySampler {
    /// Uniform over `0..key_range`.
    Uniform(u64),
    /// Zipfian via a precomputed CDF (one entry per key).
    Zipf(Vec<f64>),
}

/// Largest key range the Zipf sampler will build a CDF table for.
pub const MAX_ZIPF_KEYS: u64 = 1 << 22;

impl KeySampler {
    /// Build the sampler described by `(key_range, skew)`.
    pub fn new(key_range: u64, skew: f64) -> Self {
        assert!(key_range > 0);
        assert!((0.0..1.0).contains(&skew), "skew must be in [0, 1)");
        if skew == 0.0 {
            return KeySampler::Uniform(key_range);
        }
        assert!(
            key_range <= MAX_ZIPF_KEYS,
            "Zipf sampling tabulates one CDF entry per key; key range {key_range} exceeds {MAX_ZIPF_KEYS}"
        );
        let mut cdf = Vec::with_capacity(key_range as usize);
        let mut acc = 0.0f64;
        for rank in 0..key_range {
            acc += 1.0 / ((rank + 1) as f64).powf(skew);
            cdf.push(acc);
        }
        let total = acc;
        for p in &mut cdf {
            *p /= total;
        }
        KeySampler::Zipf(cdf)
    }

    /// Draw one key.
    pub fn sample(&self, rng: &mut SmallRng) -> u64 {
        match self {
            KeySampler::Uniform(range) => rng.gen_range(0..*range),
            KeySampler::Zipf(cdf) => {
                // 53 random bits → uniform f64 in [0, 1).
                let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                cdf.partition_point(|&p| p < u) as u64
            }
        }
    }
}

/// The deterministic request stream: a pure function of `cfg`. The `i`-th
/// request's value is `i` (bit 63 clear, as link-and-persist's reserved dirty
/// bit requires).
pub fn service_history(cfg: &ServiceConfig) -> Vec<MapOp> {
    let sampler = KeySampler::Uniform(cfg.key_range);
    let mut rng = SmallRng::seed_from_u64(SEED);
    (0..cfg.requests)
        .map(|i| {
            let key = sampler.sample(&mut rng);
            let roll = rng.gen_range(0..100u32);
            if roll < cfg.update_percent {
                if roll % 2 == 0 {
                    MapOp::Insert(key, i)
                } else {
                    MapOp::Remove(key)
                }
            } else {
                MapOp::Get(key)
            }
        })
        .collect()
}

/// The deterministic prefill stream: half the key range as *distinct* keys in
/// `Insert` ops, domain-separated from the request stream.
pub fn prefill_history(cfg: &ServiceConfig) -> Vec<MapOp> {
    let mut rng = SmallRng::seed_from_u64(SEED ^ 0x5EED_F111);
    let mut seen = std::collections::HashSet::new();
    let target = (cfg.key_range / 2) as usize;
    let mut ops = Vec::with_capacity(target);
    while ops.len() < target {
        let key = rng.gen_range(0..cfg.key_range);
        if seen.insert(key) {
            ops.push(MapOp::Insert(key, key.wrapping_mul(3)));
        }
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ServiceConfig {
        ServiceConfig::new(1_000, 20, 500)
    }

    #[test]
    fn histories_are_deterministic() {
        assert_eq!(service_history(&cfg()), service_history(&cfg()));
        assert_eq!(prefill_history(&cfg()), prefill_history(&cfg()));
        assert_ne!(
            service_history(&cfg()),
            service_history(&ServiceConfig::new(1_000, 50, 500))
        );
    }

    #[test]
    fn histories_respect_the_mix() {
        let ops = service_history(&cfg());
        assert_eq!(ops.len(), 500);
        let updates = ops.iter().filter(|o| !matches!(o, MapOp::Get(_))).count();
        // 20% updates with generous slack for a 500-sample draw.
        assert!((50..150).contains(&updates), "updates = {updates}");
        assert!(ops.iter().all(|o| match o {
            MapOp::Insert(k, _) | MapOp::Remove(k) | MapOp::Get(k) => *k < 1_000,
        }));
    }

    #[test]
    fn prefill_is_distinct_keys() {
        let ops = prefill_history(&cfg());
        assert_eq!(ops.len(), 500);
        let mut keys: Vec<u64> = ops
            .iter()
            .map(|o| match o {
                MapOp::Insert(k, _) => *k,
                _ => unreachable!(),
            })
            .collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 500);
    }

    #[test]
    fn zipf_skews_towards_low_ranks() {
        let uniform = KeySampler::new(1_000, 0.0);
        let zipf = KeySampler::new(1_000, 0.99);
        let mut rng = SmallRng::seed_from_u64(42);
        let hot =
            |s: &KeySampler, rng: &mut SmallRng| (0..10_000).filter(|_| s.sample(rng) < 10).count();
        let hot_uniform = hot(&uniform, &mut rng);
        let hot_zipf = hot(&zipf, &mut rng);
        // Under 0.99-Zipf the 10 hottest of 1000 keys draw a large share of the
        // traffic; under uniform they draw about 1%.
        assert!(hot_zipf > 5 * hot_uniform, "{hot_zipf} vs {hot_uniform}");
        // Samples stay in range.
        for _ in 0..1_000 {
            assert!(zipf.sample(&mut rng) < 1_000);
        }
    }
}
