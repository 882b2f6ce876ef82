//! Spans recorded by the benchmark's own code around calls into each layer's
//! public functions: name, start, end, parent, request id and the pwb/pfence
//! delta of the span. Spans live in a preallocated buffer and are written out
//! when the run ends; a layer's self time is its span minus its children.

use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Span names. The discriminant is the index into [`SPAN_NAMES`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SpanName {
    /// One whole service request; parent of the spans below it.
    Request,
    /// `Op::decode` of the incoming request bytes.
    Decode,
    /// `KvServer::route`.
    Route,
    /// `Shard::post` — the mailbox enqueue.
    Post,
    /// `Shard::take` — the mailbox dequeue.
    Take,
    /// `Op::decode` of the served token's request in the slab.
    SlabDecode,
    /// `Shard::apply` — the map operation plus the server's own counters.
    Apply,
    /// `Reply::encode`.
    Encode,
    /// A map `get` call.
    Get,
    /// A map `insert` call.
    Insert,
    /// A map `remove` call.
    Remove,
}

/// Printable span names, indexed by `SpanName as usize`.
pub const SPAN_NAMES: [&str; 11] = [
    "request",
    "decode",
    "route",
    "post",
    "take",
    "slab_decode",
    "apply",
    "encode",
    "get",
    "insert",
    "remove",
];

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What was called.
    pub name: SpanName,
    /// Index of the causing span in the buffer, or [`NO_PARENT`].
    pub parent: u32,
    /// Request (operation) number the span belongs to.
    pub req: u32,
    /// Start and end, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// See `start_ns`.
    pub end_ns: u64,
    /// pwbs / pfences the backend counted between start and end (saturating;
    /// no single call comes near 65 535 of either).
    pub pwbs: u16,
    /// See `pwbs`.
    pub pfences: u16,
}

/// `(pwbs, pfences)` of a backend right now.
pub type Counts = (u64, u64);

/// An open span: its slot in the buffer and the counters at its start.
pub struct Open {
    index: u32,
    at_start: Counts,
}

impl Open {
    /// Index of the span in the buffer, for use as a child's parent.
    pub fn index(&self) -> u32 {
        self.index
    }
}

/// The span buffer.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer with room for `capacity` spans; recording past the capacity
    /// would reallocate inside a timed region, so callers size it up front —
    /// and keep it small enough to stay cache-resident, or the buffer itself
    /// evicts the structure under test.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    /// Open a span. `counts` are the backend's counters now.
    #[inline]
    pub fn begin(&mut self, name: SpanName, parent: u32, req: u32, counts: Counts) -> Open {
        let index = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            parent,
            req,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            pwbs: 0,
            pfences: 0,
        });
        Open {
            index,
            at_start: counts,
        }
    }

    /// Close a span. `counts` are the backend's counters now.
    #[inline]
    pub fn end(&mut self, open: Open, counts: Counts) {
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        let span = &mut self.spans[open.index as usize];
        span.end_ns = end_ns;
        span.pwbs = (counts.0 - open.at_start.0).min(u64::from(u16::MAX)) as u16;
        span.pfences = (counts.1 - open.at_start.1).min(u64::from(u16::MAX)) as u16;
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Forget every span, keeping the buffer.
    pub fn clear(&mut self) {
        self.spans.clear();
    }

    /// Write the buffer as one JSON document: a name table and one
    /// `[name, start_ns, end_ns, parent, req, pwbs, pfences]` row per span
    /// (`parent` is a row index, -1 for a root).
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        write!(
            out,
            "{{\"schema\":\"flit-benchmark-trace-v1\",\"workload\":\"{workload}\",\"seed\":{seed},\
             \"columns\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"req\",\"pwbs\",\"pfences\"],\
             \"names\":["
        )?;
        for (i, name) in SPAN_NAMES.iter().enumerate() {
            write!(out, "{}\"{name}\"", if i == 0 { "" } else { "," })?;
        }
        write!(out, "],\"spans\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            write!(
                out,
                "{}[{},{},{},{},{},{},{}]",
                if i == 0 { "" } else { "," },
                s.name as u8,
                s.start_ns,
                s.end_ns,
                parent,
                s.req,
                s.pwbs,
                s.pfences
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

/// What the spans of one name add up to.
#[derive(Debug, Default, Clone)]
pub struct SpanStats {
    /// Durations in nanoseconds, one per span.
    pub durations: Vec<u32>,
    /// Total pwbs inside the spans.
    pub pwbs: u64,
    /// Total pfences inside the spans.
    pub pfences: u64,
}

impl SpanStats {
    /// Sum of the durations.
    pub fn total_ns(&self) -> u64 {
        self.durations.iter().map(|&d| u64::from(d)).sum()
    }

    /// `total / calls`, 0 with no calls.
    pub fn per_call(&self, total: u64) -> f64 {
        if self.durations.is_empty() {
            0.0
        } else {
            total as f64 / self.durations.len() as f64
        }
    }
}

/// Per-name totals of a span buffer, plus the self time of every root span
/// (its duration minus the durations of its direct children).
#[derive(Default)]
pub struct Summary {
    /// Indexed by `SpanName as usize`.
    pub by_name: Vec<SpanStats>,
    /// Self time of each root span, nanoseconds.
    pub root_self: Vec<u32>,
    /// Sum of every root span's duration (equals the sum of all self times).
    pub root_total_ns: u64,
    /// Number of root spans.
    pub roots: u64,
}

impl Summary {
    /// Merge another buffer's totals into these.
    pub fn absorb(&mut self, other: Summary) {
        if self.by_name.is_empty() {
            self.by_name = vec![SpanStats::default(); SPAN_NAMES.len()];
        }
        for (mine, theirs) in self.by_name.iter_mut().zip(other.by_name) {
            mine.durations.extend(theirs.durations);
            mine.pwbs += theirs.pwbs;
            mine.pfences += theirs.pfences;
        }
        self.root_self.extend(other.root_self);
        self.root_total_ns += other.root_total_ns;
        self.roots += other.roots;
    }

    /// The totals of spans named `name`.
    pub fn of(&mut self, name: SpanName) -> &mut SpanStats {
        if self.by_name.is_empty() {
            self.by_name = vec![SpanStats::default(); SPAN_NAMES.len()];
        }
        &mut self.by_name[name as usize]
    }
}

/// Aggregate `spans`.
pub fn summarize(spans: &[Span]) -> Summary {
    let mut by_name = vec![SpanStats::default(); SPAN_NAMES.len()];
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        let d = s.end_ns.saturating_sub(s.start_ns);
        let stats = &mut by_name[s.name as usize];
        stats.durations.push(d.min(u64::from(u32::MAX)) as u32);
        stats.pwbs += u64::from(s.pwbs);
        stats.pfences += u64::from(s.pfences);
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += d;
        }
    }
    let mut root_self = Vec::new();
    let mut root_total_ns = 0;
    for (i, s) in spans.iter().enumerate() {
        if s.parent == NO_PARENT {
            let d = s.end_ns.saturating_sub(s.start_ns);
            root_total_ns += d;
            root_self.push(d.saturating_sub(child_ns[i]).min(u64::from(u32::MAX)) as u32);
        }
    }
    Summary {
        roots: root_self.len() as u64,
        by_name,
        root_self,
        root_total_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::with_capacity(8);
        let req = t.begin(SpanName::Request, NO_PARENT, 0, (0, 0));
        let child = t.begin(SpanName::Apply, req.index(), 0, (0, 0));
        t.end(child, (2, 1));
        t.end(req, (3, 1));
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[1].pwbs, spans[1].pfences), (2, 1));
        assert_eq!((spans[0].pwbs, spans[0].pfences), (3, 1));
        let sum = summarize(spans);
        let req_ns = spans[0].end_ns - spans[0].start_ns;
        let child_ns = spans[1].end_ns - spans[1].start_ns;
        assert_eq!(u64::from(sum.root_self[0]), req_ns - child_ns);
        assert_eq!(sum.root_total_ns, req_ns);
        assert_eq!(sum.by_name[SpanName::Apply as usize].pfences, 1);
    }
}
