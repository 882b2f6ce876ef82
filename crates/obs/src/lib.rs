//! Observability for the FliT suite: metrics, latency histograms, and a
//! persistence flight recorder.
//!
//! The FliT paper's claims are quantitative — pwbs and pfences per operation,
//! and the throughput they cost — so the reproduction needs a way to *see*
//! those numbers outside of ad-hoc bench scrapes. This crate is the shared
//! bottom layer every other crate can afford to depend on: it has no
//! dependency on the persistence stack itself, only on `std` atomics (plus
//! `CachePadded` from the vendored `crossbeam-utils` shim), so `flit-pmem`,
//! `flit-core`, `flit-server`, and the bench/crashtest harnesses all meet at
//! the same types.
//!
//! Three pieces, three cost models:
//!
//! * [`Registry`] — a label-aware counter/gauge/histogram registry.
//!   Registration (cold) takes a mutex; recording (hot) is one relaxed atomic
//!   increment on a cache-padded shard private to the recording handle.
//!   Aggregation happens only at [`Registry::snapshot`] time, which sums the
//!   live shards (a dropped shard folds its value into its counter on drop)
//!   — the inverse of a push-based metrics pipeline, and the reason
//!   instrumented code stays within the ≤2% overhead budget. Components that
//!   already keep their own counters (e.g. `PmemStats` in `flit-pmem`) are
//!   *pulled* into gauges at snapshot time rather than double-counted on the
//!   hot path.
//! * [`LatencyHistogram`] — the log₂×linear fixed-bucket histogram that
//!   previously lived in `flit-bench`; moved here so server, bench, and obs
//!   share one histogram type. Recording is one relaxed increment; quantiles
//!   are pessimistic bucket upper bounds with ≤6.25% relative error.
//! * [`FlightRecorder`] — a fixed-size ring of the most recent persistence
//!   events (store/pwb/pfence and their elided variants, with the affected
//!   word and store-version stamp). It exists for post-mortems: a crashtest
//!   violation that only says "prefix mismatch at event 4 712" is a puzzle,
//!   while the same violation with the last 64 persistence events attached is
//!   a diagnosis. A handle owns a ring only once it is armed, so an unarmed
//!   handle allocates none.
//!
//! Snapshots serialize to a small hand-rolled JSON document with schema tag
//! [`SCHEMA`] (`"flit-obs-v1"`); the suite deliberately avoids serde to keep
//! the vendored dependency set minimal.

#![warn(missing_docs)]

mod flight;
mod hist;
mod registry;

pub use flight::{FlightEvent, FlightEventKind, FlightRecorder, FLIGHT_CAPACITY};
pub use hist::LatencyHistogram;
pub use registry::{
    json_str, Counter, CounterShard, Gauge, Histogram, HistogramSample, MetricSample,
    MetricsSnapshot, Registry, SCHEMA,
};
