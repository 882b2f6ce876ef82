//! Observability invariants across the stack (`flit-obs` + core + server):
//!
//! * counter shards written from many threads aggregate exactly, and every
//!   concurrent snapshot reads a monotonically non-decreasing value;
//! * the flight-recorder ring keeps the *last* `FLIGHT_CAPACITY` events
//!   across wraparound, in order, with honest total accounting;
//! * `Op::Stats` round-trips through the full service path
//!   ([`KvServer::pump`]): the reply is a well-formed `flit-obs-v1` document
//!   whose per-shard op counters sum to the traffic actually served;
//! * a handle carries no ring until armed, and one shared ring after;
//! * an armed handle's ring holds the tail of its own persistence stream,
//!   and the flight dump document lists it.

use flit::{FlitDb, FlitPolicy, HashedScheme};
use flit_datastructs::{Automatic, HashTable};
use flit_obs::{FlightEventKind, FlightRecorder, Registry, FLIGHT_CAPACITY};
use flit_pmem::{LatencyModel, SimNvram};
use flit_server::{KvServer, Op, Reply, ServerConfig};

type Policy_ = FlitPolicy<HashedScheme, SimNvram>;
type Map_ = HashTable<Policy_, Automatic>;

fn server(shards: usize) -> KvServer<Policy_, Map_> {
    KvServer::new_with(ServerConfig::new(shards, 512), |_| {
        FlitDb::flit_ht(SimNvram::builder().latency(LatencyModel::none()).build())
    })
}

/// Writers on per-thread counter shards, snapshots racing them: every
/// snapshot is monotone, and the final aggregate is exact. Half the writers
/// keep one shard; the other half take a fresh shard every 100 adds and drop
/// the old one, so shards fold into the counter while readers sum it.
#[test]
fn concurrent_counter_shards_aggregate_exactly() {
    const WRITERS: usize = 8;
    const ADDS: u64 = 10_000;
    let registry = Registry::new();
    let counter = registry.counter("ops", &[("kind", "test")]);

    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let counter = &counter;
            scope.spawn(move || {
                let mut shard = counter.shard();
                for i in 1..=ADDS {
                    shard.add(1);
                    if w % 2 == 1 && i % 100 == 0 {
                        shard = counter.shard();
                    }
                }
            });
        }
        // Concurrent readers: the aggregate value may lag the writers but can
        // never go backwards, through a snapshot or through `Counter::value`.
        let registry = &registry;
        scope.spawn(move || {
            let mut last = 0;
            for _ in 0..100 {
                let now = registry
                    .snapshot()
                    .value("ops", &[("kind", "test")])
                    .unwrap_or(0);
                assert!(now >= last, "snapshot went backwards: {last} -> {now}");
                last = now;
                std::thread::yield_now();
            }
        });
        let counter = &counter;
        scope.spawn(move || {
            let mut last = 0;
            for _ in 0..20_000 {
                let now = counter.value();
                assert!(now >= last, "value went backwards: {last} -> {now}");
                last = now;
            }
        });
    });

    assert_eq!(counter.value(), WRITERS as u64 * ADDS);
    assert_eq!(
        registry.snapshot().value("ops", &[("kind", "test")]),
        Some(WRITERS as u64 * ADDS)
    );
}

/// After writing several times the ring's capacity, the snapshot holds
/// exactly the last `FLIGHT_CAPACITY` events, oldest first, and the total
/// still counts every event ever recorded.
#[test]
fn flight_ring_wraparound_keeps_the_tail() {
    let r = FlightRecorder::new();
    let total = 3 * FLIGHT_CAPACITY as u64 + 5;
    for i in 0..total {
        r.record(FlightEventKind::Pwb, (i * 8) as usize, i);
    }
    assert_eq!(r.total_recorded(), total);
    let tail = r.snapshot();
    assert_eq!(tail.len(), FLIGHT_CAPACITY, "ring retains exactly capacity");
    assert_eq!(tail.first().unwrap().index, total - FLIGHT_CAPACITY as u64);
    assert_eq!(tail.last().unwrap().index, total - 1);
    for (a, b) in tail.iter().zip(tail.iter().skip(1)) {
        assert_eq!(b.index, a.index + 1, "tail is in order with no gaps");
    }
    assert_eq!(tail.last().unwrap().store_version, total - 1);
}

/// `Op::Stats` through the same pump as data traffic: the reply decodes to a
/// `flit-obs-v1` document whose `server_ops_total` samples sum to the ops
/// actually served.
#[test]
fn op_stats_round_trips_through_the_pump() {
    let s = server(2);
    let hs = s.handles();

    const PUTS: u64 = 24;
    const GETS: u64 = 16;
    let mut slab = Vec::new();
    for k in 0..PUTS {
        slab.push(Op::Put(k, k * 7).encode());
    }
    for k in 0..GETS {
        slab.push(Op::Get(k).encode());
    }
    slab.push(Op::Stats.encode());

    let mut stats_body = None;
    for token in 0..slab.len() as u64 {
        let (_served, reply) = s.pump(&hs, &slab, token).expect("well-formed request");
        if token == slab.len() as u64 - 1 {
            match Reply::decode(&reply).expect("stats reply decodes") {
                Reply::Stats(body) => stats_body = Some(body),
                other => panic!("expected Reply::Stats, got {other:?}"),
            }
        }
    }
    let body = String::from_utf8(stats_body.expect("stats reply arrived")).unwrap();
    assert!(
        body.contains("\"schema\":\"flit-obs-v1\""),
        "stats body carries the schema tag: {body}"
    );

    // The structured snapshot agrees with the wire document: per-shard op
    // counters sum to the traffic served, queue depths exist per shard.
    let snap = s.stats_snapshot();
    let sum_op = |op: &str| -> u64 {
        snap.counters
            .iter()
            .filter(|c| c.name == "server_ops_total")
            .filter(|c| c.labels.iter().any(|(k, v)| k == "op" && v == op))
            .map(|c| c.value)
            .sum()
    };
    assert_eq!(sum_op("put"), PUTS);
    assert_eq!(sum_op("get"), GETS);
    for shard in 0..2 {
        let label = shard.to_string();
        assert_eq!(
            snap.value("server_queue_depth", &[("shard", &label)]),
            Some(0),
            "mailboxes drained"
        );
    }
}

/// A database under traffic exposes its persistence counters through the
/// registry, and each handle's flight recorder holds the tail of *its own*
/// persistence-event stream.
#[test]
fn database_metrics_and_flight_tails_reflect_traffic() {
    let db = FlitDb::flit_ht(SimNvram::builder().latency(LatencyModel::none()).build());
    use flit_datastructs::ConcurrentMap;
    let map = Map_::with_capacity(&db, 64);
    {
        let h = db.handle();
        h.arm_flight_recorder();
        for k in 1..=50u64 {
            map.insert(&h, k, k);
        }
        let snap = db.metrics_snapshot();
        let pwbs = snap.value("flit_pwbs_total", &[]).expect("pwbs series");
        assert!(pwbs > 0, "inserts issued write-backs");

        let events = h.flight_events();
        assert!(!events.is_empty(), "handle recorded its persistence tail");
        assert!(events.len() <= FLIGHT_CAPACITY);
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, FlightEventKind::Pwb | FlightEventKind::Store)));
    }
    let dump = db.dump_flight_recorder();
    assert!(dump.contains("\"schema\":\"flit-obs-flight-v1\""));
    assert!(dump.contains(&format!("\"capacity\":{FLIGHT_CAPACITY}")));
}

/// The recorder's cost gate is arming: a handle that is never armed carries
/// no ring at all, and an armed one carries one fixed, bounded ring (a
/// pointer in the handle) that clones and repeated arming share.
#[test]
fn recorder_cost_matches_its_feature_gate() {
    assert_eq!(
        std::mem::size_of::<FlightRecorder>(),
        std::mem::size_of::<usize>(),
        "a recorder is one shared pointer"
    );
    let r = FlightRecorder::new();
    let clone = r.clone();
    clone.record(FlightEventKind::Pfence, 0, 9);
    assert_eq!(r.total_recorded(), 1, "clones share one ring");

    let db = FlitDb::flit_ht(SimNvram::builder().latency(LatencyModel::none()).build());
    let h = db.handle();
    assert!(
        h.epoch().flight().is_none(),
        "an unarmed handle has no ring"
    );
    let first: *const FlightRecorder = h.epoch().arm_flight();
    let second: *const FlightRecorder = h.epoch().arm_flight();
    assert!(std::ptr::eq(first, second), "arming twice keeps one ring");
    assert_eq!(
        h.epoch().flight().map(FlightRecorder::total_recorded),
        Some(0)
    );
}
