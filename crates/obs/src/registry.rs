//! A lock-free, label-aware metrics registry.
//!
//! The design splits cost by temperature. The *cold* path — looking a metric
//! up by name and labels, or registering a new per-thread shard — takes a
//! plain mutex; it happens once per handle, not once per operation. The *hot*
//! path — [`CounterShard::add`], [`Gauge::set`], [`Histogram::record`] — is a
//! single relaxed atomic on memory the caller owns exclusively (counter
//! shards are `CachePadded`, so two handles never bounce a cache line).
//! Aggregation is deferred to [`Registry::snapshot`], which sums the live
//! shards under the registration lock. A shard's lifecycle is bounded by its
//! owner's: on drop it adds its value into the counter's direct cell and
//! removes its own cell from the shard list, under that same lock. So the
//! list holds only live shards (a database that creates and drops a million
//! handles keeps none of their cells), counters are monotone as observed
//! through snapshots, and the snapshot total always equals the direct cell
//! plus the live shards — properties the tests pin down.
//!
//! Identity is `(name, labels)` after sorting labels by key, so
//! `counter("ops", &[("shard", "0")])` from two call sites returns the same
//! underlying metric. Snapshots serialize to JSON with schema [`SCHEMA`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crossbeam_utils::CachePadded;

use crate::hist::LatencyHistogram;

/// Schema tag carried by [`MetricsSnapshot::to_json`] documents.
pub const SCHEMA: &str = "flit-obs-v1";

/// Sorted `(key, value)` label pairs identifying one time series.
type Labels = Vec<(String, String)>;

fn make_labels(labels: &[(&str, &str)]) -> Labels {
    let mut out: Labels = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    out.sort();
    out
}

/// A JSON string literal holding `s`, quotes included: the escaper of the
/// metrics document and of `flit-bench`'s CLI reports.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_labels(labels: &Labels) -> String {
    let fields: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
        .collect();
    format!("{{{}}}", fields.join(","))
}

struct CounterInner {
    name: String,
    labels: Labels,
    /// The handle-free "direct" cell serving [`Counter::add`] callers, plus
    /// everything dropped shards added.
    direct: CachePadded<AtomicU64>,
    /// One padded cell per live [`CounterShard`]; summed on snapshot.
    shards: Mutex<Vec<Arc<CachePadded<AtomicU64>>>>,
}

impl CounterInner {
    fn value(&self) -> u64 {
        let shards = self.shards.lock().unwrap();
        self.direct.load(Ordering::Relaxed)
            + shards
                .iter()
                .map(|s| s.load(Ordering::Relaxed))
                .sum::<u64>()
    }
}

/// A monotone counter. Cheap to clone; all clones observe the same series.
#[derive(Clone)]
pub struct Counter {
    inner: Arc<CounterInner>,
}

impl Counter {
    /// Add `n` via the shared direct cell. Fine for cold or low-rate events
    /// (recovery phases); hot per-handle paths should take a
    /// private [`Counter::shard`] instead.
    #[inline]
    pub fn add(&self, n: u64) {
        self.inner.direct.fetch_add(n, Ordering::Relaxed);
    }

    /// Register a new private shard of this counter. The shard's increments
    /// land on a cache line no other handle touches; snapshots sum it while it
    /// lives, and on drop it folds its value into the direct cell and leaves
    /// the shard list.
    pub fn shard(&self) -> CounterShard {
        let cell = Arc::new(CachePadded::new(AtomicU64::new(0)));
        self.inner.shards.lock().unwrap().push(Arc::clone(&cell));
        CounterShard {
            cell,
            counter: Arc::clone(&self.inner),
        }
    }

    /// Current aggregate value: direct cell plus every live shard.
    pub fn value(&self) -> u64 {
        self.inner.value()
    }
}

/// A private shard of a [`Counter`]: one cache-padded cell owned by a single
/// handle. Because each shard has exactly one writer, the hot path is a
/// relaxed load + store pair (no interlocked read-modify-write); snapshots on
/// other threads read the cell atomically. Two threads writing one shard
/// would lose updates — take one shard per writer instead.
///
/// A shard costs only while it lives: dropping it moves its value into the
/// counter's direct cell and removes its cell from the shard list, both under
/// the list lock that [`Counter::value`] and snapshots read under, so the
/// aggregate stays exact and monotone and the list holds live shards only.
pub struct CounterShard {
    cell: Arc<CachePadded<AtomicU64>>,
    counter: Arc<CounterInner>,
}

impl CounterShard {
    /// Add `n` to this shard (single-writer: see the type docs).
    #[inline]
    pub fn add(&self, n: u64) {
        let v = self.cell.load(Ordering::Relaxed);
        self.cell.store(v + n, Ordering::Relaxed);
    }

    /// This shard's own contribution (not the counter aggregate).
    pub fn value(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

impl Drop for CounterShard {
    fn drop(&mut self) {
        let mut shards = self.counter.shards.lock().unwrap();
        self.counter
            .direct
            .fetch_add(self.value(), Ordering::Relaxed);
        if let Some(i) = shards.iter().position(|s| Arc::ptr_eq(s, &self.cell)) {
            shards.swap_remove(i);
        }
    }
}

struct GaugeInner {
    name: String,
    labels: Labels,
    value: AtomicU64,
}

/// A last-write-wins gauge. Snapshot-time instrumentation *pulls* values from
/// components that already keep their own counters (e.g. `PmemStats`) into
/// gauges, rather than double-counting on the hot path.
#[derive(Clone)]
pub struct Gauge {
    inner: Arc<GaugeInner>,
}

impl Gauge {
    /// Set the gauge.
    #[inline]
    pub fn set(&self, v: u64) {
        self.inner.value.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.inner.value.load(Ordering::Relaxed)
    }
}

struct HistInner {
    name: String,
    labels: Labels,
    hist: LatencyHistogram,
}

/// A registered [`LatencyHistogram`]. Recording is already thread-safe, so a
/// single histogram serves every worker of a run.
#[derive(Clone)]
pub struct Histogram {
    inner: Arc<HistInner>,
}

impl Histogram {
    /// Record one sample (nanoseconds by convention).
    #[inline]
    pub fn record(&self, v: u64) {
        self.inner.hist.record(v);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.inner.hist.count()
    }

    /// The `q`-quantile; see [`LatencyHistogram::quantile`].
    pub fn quantile(&self, q: f64) -> u64 {
        self.inner.hist.quantile(q)
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: Mutex<Vec<Arc<CounterInner>>>,
    gauges: Mutex<Vec<Arc<GaugeInner>>>,
    hists: Mutex<Vec<Arc<HistInner>>>,
}

/// The metric registry: get-or-create metrics by `(name, labels)`, snapshot
/// them all at once. Clones share the same underlying store.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<RegistryInner>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether `other` shares this registry's underlying store. Clones do;
    /// independently constructed registries never do. Lets aggregators (the
    /// KV server) tell "this component already writes into my registry" from
    /// "I must mirror its snapshot in".
    pub fn same_store(&self, other: &Registry) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Get or create the counter `(name, labels)`.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let labels = make_labels(labels);
        let mut counters = self.inner.counters.lock().unwrap();
        if let Some(c) = counters
            .iter()
            .find(|c| c.name == name && c.labels == labels)
        {
            return Counter {
                inner: Arc::clone(c),
            };
        }
        let inner = Arc::new(CounterInner {
            name: name.to_string(),
            labels,
            direct: CachePadded::new(AtomicU64::new(0)),
            shards: Mutex::new(Vec::new()),
        });
        counters.push(Arc::clone(&inner));
        Counter { inner }
    }

    /// Get or create the gauge `(name, labels)`.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let labels = make_labels(labels);
        let mut gauges = self.inner.gauges.lock().unwrap();
        if let Some(g) = gauges.iter().find(|g| g.name == name && g.labels == labels) {
            return Gauge {
                inner: Arc::clone(g),
            };
        }
        let inner = Arc::new(GaugeInner {
            name: name.to_string(),
            labels,
            value: AtomicU64::new(0),
        });
        gauges.push(Arc::clone(&inner));
        Gauge { inner }
    }

    /// Get or create the histogram `(name, labels)`.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        let labels = make_labels(labels);
        let mut hists = self.inner.hists.lock().unwrap();
        if let Some(h) = hists.iter().find(|h| h.name == name && h.labels == labels) {
            return Histogram {
                inner: Arc::clone(h),
            };
        }
        let inner = Arc::new(HistInner {
            name: name.to_string(),
            labels,
            hist: LatencyHistogram::new(),
        });
        hists.push(Arc::clone(&inner));
        Histogram { inner }
    }

    /// Aggregate every registered metric into a point-in-time snapshot,
    /// sorted by `(name, labels)` for deterministic output.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters: Vec<MetricSample> = self
            .inner
            .counters
            .lock()
            .unwrap()
            .iter()
            .map(|c| MetricSample {
                name: c.name.clone(),
                labels: c.labels.clone(),
                value: c.value(),
            })
            .collect();
        counters.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        let mut gauges: Vec<MetricSample> = self
            .inner
            .gauges
            .lock()
            .unwrap()
            .iter()
            .map(|g| MetricSample {
                name: g.name.clone(),
                labels: g.labels.clone(),
                value: g.value.load(Ordering::Relaxed),
            })
            .collect();
        gauges.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        let mut histograms: Vec<HistogramSample> = self
            .inner
            .hists
            .lock()
            .unwrap()
            .iter()
            .map(|h| HistogramSample {
                name: h.name.clone(),
                labels: h.labels.clone(),
                count: h.hist.count(),
                p50: h.hist.p50(),
                p99: h.hist.p99(),
                p999: h.hist.p999(),
            })
            .collect();
        histograms.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// One counter or gauge sample in a [`MetricsSnapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricSample {
    /// Metric name.
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// Aggregated value at snapshot time.
    pub value: u64,
}

/// One histogram sample in a [`MetricsSnapshot`]: count plus tail quantiles.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSample {
    /// Metric name.
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// Samples recorded.
    pub count: u64,
    /// Median (bucket upper bound).
    pub p50: u64,
    /// 99th percentile (bucket upper bound).
    pub p99: u64,
    /// 99.9th percentile (bucket upper bound).
    pub p999: u64,
}

/// A point-in-time aggregation of a [`Registry`].
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Counter samples, sorted by `(name, labels)`.
    pub counters: Vec<MetricSample>,
    /// Gauge samples, sorted by `(name, labels)`.
    pub gauges: Vec<MetricSample>,
    /// Histogram samples, sorted by `(name, labels)`.
    pub histograms: Vec<HistogramSample>,
}

impl MetricsSnapshot {
    /// Look up a counter or gauge value by name and labels (gauges searched
    /// after counters). Mostly a convenience for tests and `flitctl`.
    pub fn value(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        let labels = make_labels(labels);
        self.counters
            .iter()
            .chain(self.gauges.iter())
            .find(|s| s.name == name && s.labels == labels)
            .map(|s| s.value)
    }

    /// Serialize to a `flit-obs-v1` JSON document.
    pub fn to_json(&self) -> String {
        let samples = |v: &[MetricSample]| -> String {
            let rows: Vec<String> = v
                .iter()
                .map(|s| {
                    format!(
                        "{{\"name\":{},\"labels\":{},\"value\":{}}}",
                        json_str(&s.name),
                        json_labels(&s.labels),
                        s.value
                    )
                })
                .collect();
            format!("[{}]", rows.join(","))
        };
        let hists: Vec<String> = self
            .histograms
            .iter()
            .map(|h| {
                format!(
                    "{{\"name\":{},\"labels\":{},\"count\":{},\"p50\":{},\"p99\":{},\"p999\":{}}}",
                    json_str(&h.name),
                    json_labels(&h.labels),
                    h.count,
                    h.p50,
                    h.p99,
                    h.p999
                )
            })
            .collect();
        format!(
            "{{\"schema\":\"{}\",\"counters\":{},\"gauges\":{},\"histograms\":[{}]}}",
            SCHEMA,
            samples(&self.counters),
            samples(&self.gauges),
            hists.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_identity_is_name_plus_sorted_labels() {
        let r = Registry::new();
        let a = r.counter("ops", &[("shard", "0"), ("op", "get")]);
        let b = r.counter("ops", &[("op", "get"), ("shard", "0")]);
        a.add(2);
        b.add(3);
        assert_eq!(a.value(), 5, "two lookups, one series");
        let other = r.counter("ops", &[("op", "put"), ("shard", "0")]);
        assert_eq!(other.value(), 0);
    }

    #[test]
    fn shards_fold_into_the_aggregate() {
        let r = Registry::new();
        let c = r.counter("drains", &[]);
        let s1 = c.shard();
        let s2 = c.shard();
        s1.add(10);
        s2.add(5);
        c.add(1);
        assert_eq!(s1.value(), 10);
        assert_eq!(c.value(), 16);
        let snap = r.snapshot();
        assert_eq!(snap.value("drains", &[]), Some(16));
    }

    #[test]
    fn dropped_shards_leave_the_list_and_keep_their_counts() {
        let r = Registry::new();
        let c = r.counter("drains", &[]);
        let mut added = 0;
        for i in 0..10_000u64 {
            let s = c.shard();
            s.add(i % 7);
            added += i % 7;
        }
        assert!(c.inner.shards.lock().unwrap().is_empty());
        assert_eq!(c.value(), added);
        assert_eq!(r.snapshot().value("drains", &[]), Some(added));
    }

    #[test]
    fn gauges_are_last_write_wins() {
        let r = Registry::new();
        let g = r.gauge("watermark", &[]);
        g.set(7);
        g.set(3);
        assert_eq!(g.value(), 3);
        assert_eq!(r.snapshot().value("watermark", &[]), Some(3));
    }

    #[test]
    fn snapshot_json_is_schema_tagged_and_sorted() {
        let r = Registry::new();
        r.counter("zeta", &[]).add(1);
        r.counter("alpha", &[("k", "v")]).add(2);
        r.gauge("g", &[]).set(9);
        r.histogram("lat", &[("shard", "1")]).record(100);
        let snap = r.snapshot();
        assert_eq!(snap.counters[0].name, "alpha");
        assert_eq!(snap.counters[1].name, "zeta");
        let json = snap.to_json();
        assert!(json.starts_with("{\"schema\":\"flit-obs-v1\""), "{json}");
        assert!(json.contains("\"name\":\"lat\""), "{json}");
        assert!(json.contains("\"labels\":{\"shard\":\"1\"}"), "{json}");
        assert!(json.contains("\"p99\""), "{json}");
    }

    #[test]
    fn json_escaping_survives_hostile_labels() {
        let r = Registry::new();
        r.counter("c", &[("path", "a\"b\\c\nd")]).add(1);
        let json = r.snapshot().to_json();
        assert!(json.contains("a\\\"b\\\\c\\nd"), "{json}");
    }
}
