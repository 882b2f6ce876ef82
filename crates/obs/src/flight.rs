//! The persistence flight recorder: a fixed-size ring of recent events.
//!
//! When a crash sweep reports a violation, the repro string replays the
//! failure but does not *explain* it — what you want is the tail of the
//! persistence event stream right before the crash point: which words were
//! stored, which were flushed, which flushes the elision machinery skipped
//! and under what store-version stamp. The recorder captures exactly that:
//! an armed handle's `PersistEpoch` owns one [`FlightRecorder`] and every
//! `PmemSession` call appends a `(kind, word, store_version)` triple tagged
//! with a monotone event index. The ring keeps the last [`FLIGHT_CAPACITY`]
//! events (64 — comfortably above the ≥32 a violation report embeds).
//!
//! A recorder exists only where somebody asked for one: a handle's
//! `PersistEpoch` starts without a ring and gets one when the handle is armed,
//! so an unarmed handle pays no allocation and each session one branch per
//! event on a pointer it sampled at construction. Once it exists, a ring
//! records every event it is handed.
//!
//! The ring is shared (`Arc`) so a `FlitDb` can snapshot every armed
//! handle's recorder from another thread while the handles keep writing.
//! Writers publish a slot by storing its fields and then its index; the
//! snapshot re-checks each slot's index and drops entries caught
//! mid-overwrite, so a torn slot is skipped rather than misreported.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

/// Number of events the ring retains (per handle).
pub const FLIGHT_CAPACITY: usize = 64;

/// What kind of persistence event a ring entry records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlightEventKind {
    /// A recorded store to a tracked word.
    Store,
    /// An explicit write-back (`pwb`) issued to the backend.
    Pwb,
    /// An ordering fence (`pfence`) issued to the backend.
    Pfence,
    /// A `pwb_dedup` call that proved the flush redundant and skipped it.
    ElidedPwb,
    /// A `pfence_if_dirty` call on a clean epoch that skipped the fence.
    ElidedPfence,
}

impl FlightEventKind {
    /// Stable lowercase name, used in JSON output.
    pub fn name(self) -> &'static str {
        match self {
            FlightEventKind::Store => "store",
            FlightEventKind::Pwb => "pwb",
            FlightEventKind::Pfence => "pfence",
            FlightEventKind::ElidedPwb => "elided_pwb",
            FlightEventKind::ElidedPfence => "elided_pfence",
        }
    }

    fn as_u8(self) -> u8 {
        match self {
            FlightEventKind::Store => 0,
            FlightEventKind::Pwb => 1,
            FlightEventKind::Pfence => 2,
            FlightEventKind::ElidedPwb => 3,
            FlightEventKind::ElidedPfence => 4,
        }
    }

    fn from_u8(v: u8) -> Self {
        match v {
            0 => FlightEventKind::Store,
            1 => FlightEventKind::Pwb,
            2 => FlightEventKind::Pfence,
            3 => FlightEventKind::ElidedPwb,
            _ => FlightEventKind::ElidedPfence,
        }
    }
}

/// One recorded persistence event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlightEvent {
    /// Monotone per-recorder event index (0 is the first event ever).
    pub index: u64,
    /// Event kind.
    pub kind: FlightEventKind,
    /// The cache-line-aligned word the event concerns (0 for fences).
    pub word: usize,
    /// The backend store-version stamp when the event was recorded.
    pub store_version: u64,
}

impl FlightEvent {
    /// One-line JSON object for this event.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"index\":{},\"kind\":\"{}\",\"word\":{},\"store_version\":{}}}",
            self.index,
            self.kind.name(),
            self.word,
            self.store_version
        )
    }
}

struct Ring {
    /// Total events ever recorded; `total % FLIGHT_CAPACITY` is the next slot.
    total: AtomicU64,
    kinds: [AtomicU8; FLIGHT_CAPACITY],
    words: [AtomicU64; FLIGHT_CAPACITY],
    versions: [AtomicU64; FLIGHT_CAPACITY],
    /// The event index each slot currently holds; written last, checked on
    /// read so a snapshot drops slots caught mid-overwrite.
    indexes: [AtomicU64; FLIGHT_CAPACITY],
}

/// A ring of the last [`FLIGHT_CAPACITY`] persistence events. Clones share
/// one ring.
#[derive(Clone)]
pub struct FlightRecorder {
    ring: Arc<Ring>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl FlightRecorder {
    /// A fresh, empty ring.
    pub fn new() -> Self {
        FlightRecorder {
            ring: Arc::new(Ring {
                total: AtomicU64::new(0),
                kinds: [(); FLIGHT_CAPACITY].map(|_| AtomicU8::new(0)),
                words: [(); FLIGHT_CAPACITY].map(|_| AtomicU64::new(0)),
                versions: [(); FLIGHT_CAPACITY].map(|_| AtomicU64::new(0)),
                indexes: [(); FLIGHT_CAPACITY].map(|_| AtomicU64::new(u64::MAX)),
            }),
        }
    }

    /// Append one event.
    #[inline]
    pub fn record(&self, kind: FlightEventKind, word: usize, store_version: u64) {
        let index = self.ring.total.fetch_add(1, Ordering::AcqRel);
        let slot = (index % FLIGHT_CAPACITY as u64) as usize;
        self.ring.kinds[slot].store(kind.as_u8(), Ordering::Release);
        self.ring.words[slot].store(word as u64, Ordering::Release);
        self.ring.versions[slot].store(store_version, Ordering::Release);
        self.ring.indexes[slot].store(index, Ordering::Release);
    }

    /// Total events ever recorded (not just the retained tail).
    pub fn total_recorded(&self) -> u64 {
        self.ring.total.load(Ordering::Relaxed)
    }

    /// The retained tail of the event stream, oldest first. Slots being
    /// overwritten concurrently are skipped, not misreported.
    pub fn snapshot(&self) -> Vec<FlightEvent> {
        let total = self.ring.total.load(Ordering::Acquire);
        let first = total.saturating_sub(FLIGHT_CAPACITY as u64);
        let mut out = Vec::with_capacity((total - first) as usize);
        for index in first..total {
            let slot = (index % FLIGHT_CAPACITY as u64) as usize;
            let kind = self.ring.kinds[slot].load(Ordering::Acquire);
            let word = self.ring.words[slot].load(Ordering::Acquire);
            let version = self.ring.versions[slot].load(Ordering::Acquire);
            if self.ring.indexes[slot].load(Ordering::Acquire) != index {
                continue;
            }
            out.push(FlightEvent {
                index,
                kind: FlightEventKind::from_u8(kind),
                word: word as usize,
                store_version: version,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_snapshots_in_order() {
        let r = FlightRecorder::new();
        assert!(r.snapshot().is_empty(), "a fresh ring is empty");
        r.record(FlightEventKind::Store, 64, 1);
        r.record(FlightEventKind::Pwb, 64, 2);
        r.record(FlightEventKind::Pfence, 0, 2);
        let snap = r.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap[0].kind, FlightEventKind::Store);
        assert_eq!(snap[0].index, 0);
        assert_eq!(snap[2].kind, FlightEventKind::Pfence);
        assert_eq!(snap[2].store_version, 2);
    }

    #[test]
    fn ring_wraps_keeping_the_newest_tail() {
        let r = FlightRecorder::new();
        let n = (FLIGHT_CAPACITY as u64) * 2 + 10;
        for i in 0..n {
            r.record(FlightEventKind::Pwb, i as usize * 8, i);
        }
        assert_eq!(r.total_recorded(), n);
        let snap = r.snapshot();
        assert_eq!(snap.len(), FLIGHT_CAPACITY);
        assert_eq!(snap[0].index, n - FLIGHT_CAPACITY as u64);
        assert_eq!(snap.last().unwrap().index, n - 1);
        // Oldest-first, contiguous indexes.
        for w in snap.windows(2) {
            assert_eq!(w[1].index, w[0].index + 1);
        }
    }

    #[test]
    fn clones_share_one_ring() {
        let a = FlightRecorder::new();
        let b = a.clone();
        a.record(FlightEventKind::Store, 8, 1);
        b.record(FlightEventKind::Pwb, 8, 2);
        assert_eq!(a.snapshot().len(), 2);
        assert_eq!(b.total_recorded(), 2);
    }

    #[test]
    fn event_json_shape() {
        let e = FlightEvent {
            index: 41,
            kind: FlightEventKind::ElidedPwb,
            word: 128,
            store_version: 7,
        };
        assert_eq!(
            e.to_json(),
            "{\"index\":41,\"kind\":\"elided_pwb\",\"word\":128,\"store_version\":7}"
        );
    }
}
