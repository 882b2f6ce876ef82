//! Seeded operation streams and the sequential model that predicts their
//! replies.
//!
//! Every chunk of operations is generated — and its expected replies computed
//! by the model — *before* the chunk is timed, into buffers that are reused
//! from chunk to chunk. The timed loop therefore only reads arrays; the
//! generator's own cost is measured separately (`workload.gen_ns_per_op`) and
//! is never part of a chunk.

use std::time::Instant;

use flit_workload::KeySampler;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Operation kinds, as stored in [`Chunk::kinds`].
pub const GET: u8 = 0;
/// See [`GET`].
pub const INSERT: u8 = 1;
/// See [`GET`].
pub const REMOVE: u8 = 2;

/// Expected-reply code of a `get` that misses. Values stay below bit 62, so no
/// stored value collides with it.
pub const MISSING: u64 = u64::MAX;

/// A sequential map model over a dense key range: `vals[key]` is the value or
/// [`MISSING`]. Insert does not overwrite, exactly like the structures.
pub struct Model {
    vals: Vec<u64>,
    live: usize,
}

impl Model {
    /// An empty model over keys `0..key_range`.
    pub fn new(key_range: u64) -> Self {
        Self {
            vals: vec![MISSING; key_range as usize],
            live: 0,
        }
    }

    /// Apply one operation and return the reply code the structure must give:
    /// the value or [`MISSING`] for a get, 1/0 for a successful/refused update.
    #[inline]
    pub fn apply(&mut self, kind: u8, key: u64, val: u64) -> u64 {
        let slot = &mut self.vals[key as usize];
        match kind {
            GET => *slot,
            INSERT if *slot == MISSING => {
                *slot = val;
                self.live += 1;
                1
            }
            REMOVE if *slot != MISSING => {
                *slot = MISSING;
                self.live -= 1;
                1
            }
            _ => 0,
        }
    }

    /// Number of live pairs.
    pub fn live(&self) -> usize {
        self.live
    }

    /// The live pairs in key order.
    pub fn pairs(&self) -> Vec<(u64, u64)> {
        self.vals
            .iter()
            .enumerate()
            .filter(|(_, &v)| v != MISSING)
            .map(|(k, &v)| (k as u64, v))
            .collect()
    }
}

/// One chunk of operations with the replies the model expects. The buffers
/// are reused across chunks; `requests` / `replies` are filled only for the
/// service workload (encoded bytes in, encoded bytes out).
#[derive(Default)]
pub struct Chunk {
    /// [`GET`] / [`INSERT`] / [`REMOVE`] per operation.
    pub kinds: Vec<u8>,
    /// Key per operation.
    pub keys: Vec<u64>,
    /// Value per operation (meaningful for inserts).
    pub vals: Vec<u64>,
    /// Expected reply code per operation (see [`Model::apply`]).
    pub expect: Vec<u64>,
    /// Encoded request per operation — the slab `KvServer::pump` reads.
    pub requests: Vec<Vec<u8>>,
    /// Encoded expected reply per operation.
    pub replies: Vec<Vec<u8>>,
}

impl Chunk {
    /// Operations in the chunk.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// `true` for a chunk with no operations.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    fn clear(&mut self) {
        self.kinds.clear();
        self.keys.clear();
        self.vals.clear();
        self.expect.clear();
    }

    fn push(&mut self, model: &mut Model, kind: u8, key: u64, val: u64) {
        self.kinds.push(kind);
        self.keys.push(key);
        self.vals.push(val);
        self.expect.push(model.apply(kind, key, val));
    }
}

/// The seeded request generator of one round: key sampler, operation mix and a
/// value counter. The stream is a pure function of `(seed, key_range, skew,
/// read_permille)`.
pub struct Generator {
    rng: SmallRng,
    sampler: KeySampler,
    key_range: u64,
    read_permille: u32,
    next_val: u64,
    /// Nanoseconds spent generating (and modelling) operations so far.
    pub gen_ns: u64,
    /// Operations generated so far.
    pub gen_ops: u64,
}

impl Generator {
    /// A generator for keys `0..key_range` with Zipf exponent `skew` (0 =
    /// uniform) issuing `read_permille`‰ gets and the rest split evenly
    /// between inserts and removes.
    pub fn new(seed: u64, key_range: u64, skew: f64, read_permille: u32) -> Self {
        Self {
            rng: SmallRng::seed_from_u64(seed),
            sampler: KeySampler::new(key_range, skew),
            key_range,
            read_permille,
            next_val: 1,
            gen_ns: 0,
            gen_ops: 0,
        }
    }

    /// Refill `chunk` with `prefill` inserts of *distinct* uniformly drawn
    /// keys (population, not traffic — skew does not apply).
    pub fn fill_prefill(&mut self, model: &mut Model, chunk: &mut Chunk, prefill: u64) {
        chunk.clear();
        while (model.live() as u64) < prefill.min(self.key_range) {
            let key = self.rng.gen_range(0..self.key_range);
            if model.vals[key as usize] == MISSING {
                let val = self.fresh_val();
                chunk.push(model, INSERT, key, val);
            }
        }
    }

    /// Refill `chunk` with the next `n` operations of the stream.
    pub fn fill(&mut self, model: &mut Model, chunk: &mut Chunk, n: usize) {
        let start = Instant::now();
        chunk.clear();
        for _ in 0..n {
            let key = self.sampler.sample(&mut self.rng);
            let roll = self.rng.gen_range(0..1000u32);
            let kind = if roll < self.read_permille {
                GET
            } else if roll % 2 == 0 {
                INSERT
            } else {
                REMOVE
            };
            let val = if kind == INSERT { self.fresh_val() } else { 0 };
            chunk.push(model, kind, key, val);
        }
        self.gen_ns += start.elapsed().as_nanos() as u64;
        self.gen_ops += n as u64;
    }

    /// Values are a counter: unique, non-zero, far below bit 62.
    fn fresh_val(&mut self) -> u64 {
        self.next_val += 1;
        self.next_val
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_does_not_overwrite() {
        let mut m = Model::new(8);
        assert_eq!(m.apply(INSERT, 3, 30), 1);
        assert_eq!(m.apply(INSERT, 3, 31), 0);
        assert_eq!(m.apply(GET, 3, 0), 30);
        assert_eq!(m.apply(REMOVE, 3, 0), 1);
        assert_eq!(m.apply(REMOVE, 3, 0), 0);
        assert_eq!(m.apply(GET, 3, 0), MISSING);
        assert_eq!(m.live(), 0);
    }

    #[test]
    fn same_seed_same_stream() {
        let stream = |seed| {
            let mut model = Model::new(100);
            let mut gen = Generator::new(seed, 100, 0.0, 900);
            let mut chunk = Chunk::default();
            gen.fill_prefill(&mut model, &mut chunk, 50);
            assert_eq!(model.live(), 50);
            gen.fill(&mut model, &mut chunk, 500);
            (chunk.kinds, chunk.keys, chunk.expect)
        };
        assert_eq!(stream(7), stream(7));
        assert_ne!(stream(7), stream(8));
    }
}
