//! Crash-point sweeps for the sharded KV service (`flit-server`).
//!
//! The map and queue sweeps kill *a structure*; this module kills *one shard of
//! a service* while the other shards keep serving — the failure model the
//! sharded server exists to exercise. It is one more subject of the same driver
//! ([`crate::engine`]): each shard owns its own backend, so the crashed shard's
//! backend carries the driver's armed [`CrashPlan`](flit_pmem::CrashPlan), the
//! survivors carry plan-free tracking backends, and the shard's event stream is
//! exactly as stable and absolute as a single structure's (one OS thread,
//! deterministic routing, arena layout).
//!
//! What a sweep checks, per crash point `k` of the crashed shard's stream:
//!
//! * **Crashed shard**: the state recovered purely from the frozen image must
//!   be prefix-consistent with the subsequence of requests *routed to that
//!   shard* — after `c` completed requests, `state(c)` or `state(c + 1)`, or
//!   the acked-floor window under a batched commit (the check maps and queues
//!   get). The subsequence is derivable because routing is a pure function of
//!   `(key, shard count)`.
//! * **Surviving shards**: recovered from their trackers' final images, they
//!   must hold **exactly** their full routed history — a crash elsewhere in the
//!   service is no excuse to lose anything. Prefix consistency would be too
//!   weak here; the survivors never crashed.
//!
//! Note the crashed shard's stream includes its *mailbox* traffic (the mailbox
//! lives in the shard's database on purpose), so the sweep also crashes
//! mid-enqueue and mid-dequeue of the request queue — the recovered map must
//! shrug those off, because a request whose token was still queued never
//! started applying.
//!
//! [`round_robin_service`] is the determinism companion: the same single-thread
//! drive with logging plans on *every* shard, serialising each shard's complete
//! event-kind stream. Two runs must be byte-identical — the property that makes
//! the absolute crash indices above meaningful.

use flit::{FlitDb, Policy};
use flit_datastructs::{ConcurrentMap, RecoverInImage, RecoveredMap};
use flit_pmem::{CrashImage, ElisionMode, SimNvram};
use flit_server::{KvServer, Op, Reply, ServerConfig};
use flit_workload::MapOp;

use crate::engine::{
    apply_model, check_prefix, map_state, sweep, tracking_backend, CrashWindow, Finding, MapModel,
    Outcome, Run, Step, SweepSettings,
};
use crate::roundrobin::{kinds_string, logged_backend};

/// The service request corresponding to one crash-history map operation.
pub fn op_of(op: &MapOp) -> Op {
    match *op {
        MapOp::Insert(k, v) => Op::Put(k, v),
        MapOp::Remove(k) => Op::Del(k),
        MapOp::Get(k) => Op::Get(k),
    }
}

/// The reply the sequential map model predicts for `op`, applying it to
/// `model`.
fn expected_reply(model: &mut MapModel, op: MapOp) -> Reply {
    match (op, apply_model(model, op)) {
        (_, Outcome::Value(v)) => v.map_or(Reply::Missing, Reply::Found),
        (MapOp::Insert(..), Outcome::Flag(true)) => Reply::Inserted,
        (MapOp::Insert(..), Outcome::Flag(false)) => Reply::Exists,
        (_, Outcome::Flag(true)) => Reply::Deleted,
        (_, Outcome::Flag(false)) => Reply::Absent,
    }
}

/// `history` encoded as the request slab a single-threaded [`KvServer::pump`]
/// drive serves from.
fn request_slab(history: &[MapOp]) -> Vec<Vec<u8>> {
    history.iter().map(|op| op_of(op).encode()).collect()
}

/// The shard `op` routes to.
fn route_of<P: Policy, M: ConcurrentMap<P>>(server: &KvServer<P, M>, op: &MapOp) -> usize {
    let (MapOp::Insert(key, _) | MapOp::Remove(key) | MapOp::Get(key)) = *op;
    server.route(key)
}

/// One durability violation found by a server crash sweep.
#[derive(Debug, Clone)]
pub struct ServerViolation {
    /// Absolute crash index on the crashed shard's event stream.
    pub crash_event: u64,
    /// The shard whose recovered state was wrong.
    pub shard: usize,
    /// Event kind the plan triggered on (`"end"` for the nothing-lost control,
    /// `"live-run"` for functional mismatches, `"survivor"` for survivor-side
    /// losses).
    pub triggered_on: String,
    /// Requests routed to that shard that had completed before the crash.
    pub completed_ops: usize,
    /// Human-readable description of the divergence.
    pub detail: String,
    /// Flight-recorder tail of the crashed shard's worker handle, sampled at
    /// the first request boundary at or past the crash point. Empty for
    /// survivor-side and counting-pass violations.
    pub flight: Vec<flit::FlightEvent>,
}

/// The outcome of one server crash sweep: one crashed shard, every selected
/// crash point, crashed-shard prefix consistency plus survivor exactness.
#[derive(Debug, Clone)]
pub struct ServerSweepReport {
    /// Label of the swept configuration (policy/structure name).
    pub label: String,
    /// Total shard count.
    pub shards: usize,
    /// The shard that was crashed.
    pub crash_shard: usize,
    /// Events the crashed shard's construction generated.
    pub events_construction: u64,
    /// Total events on the crashed shard's stream.
    pub events_total: u64,
    /// Requests in the driven history, across all shards.
    pub requests_total: usize,
    /// Requests the router sent to the crashed shard.
    pub requests_crashed_shard: usize,
    /// Crash points injected.
    pub points_tested: usize,
    /// Violations found (empty for a correct configuration).
    pub violations: Vec<ServerViolation>,
}

impl ServerSweepReport {
    /// `true` when no violation was found.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "{}: {} shards (crashed {}), {}/{} requests on the crashed shard, \
             events {}..{}, {} points, {} violations",
            self.label,
            self.shards,
            self.crash_shard,
            self.requests_crashed_shard,
            self.requests_total,
            self.events_construction,
            self.events_total,
            self.points_tested,
            self.violations.len()
        )
    }
}

/// Sweep crash points across one shard of a service while the other shards keep
/// serving. `history` is the global request stream, driven on the calling
/// thread with the request pump — mailbox included — as the replayed operation;
/// the crashed shard's checked subsequence is derived from the (pure) routing
/// function. See the module docs for the exact per-point obligations.
pub fn sweep_server_crash<P, M, F>(
    label: &str,
    factory: F,
    shards: usize,
    crash_shard: usize,
    history: &[MapOp],
    settings: &SweepSettings,
) -> ServerSweepReport
where
    P: Policy<Backend = SimNvram>,
    M: ConcurrentMap<P> + RecoverInImage,
    F: Fn(SimNvram) -> P,
{
    assert!(crash_shard < shards, "crash shard must exist");
    let slab = request_slab(history);
    // Per-shard routed subsequences of the history. Routing is a pure function
    // of key and shard count, so any server instance answers for every replay.
    let mut subs: Vec<Vec<MapOp>> = vec![Vec::new(); shards];
    let router: KvServer<P, M> = KvServer::new_with(ServerConfig::new(shards, shards), |_| {
        FlitDb::create(factory(tracking_backend(None, settings.elision)))
    });
    for op in history {
        subs[route_of(&router, op)].push(*op);
    }
    drop(router);
    // Party `s` is shard `s`: the crashed shard's backend carries the plan, the
    // survivors run on plan-free tracking backends.
    let replay = |run: &mut Run<'_>| {
        let backends: Vec<SimNvram> = (0..shards)
            .map(|s| {
                if s == crash_shard {
                    run.backend.clone()
                } else {
                    tracking_backend(None, settings.elision)
                }
            })
            .collect();
        let server: KvServer<P, M> =
            KvServer::new_with(ServerConfig::new(shards, 64 * shards), |s| {
                run.db(&factory, backends[s].clone())
            });
        let handles = server.handles();
        let mut models = vec![MapModel::new(); shards];
        let image = run.drive(&handles, crash_shard, slab.len(), |i| {
            let op = op_of(&history[i]);
            let sid = route_of(&server, &history[i]);
            let (served, reply_bytes) = server
                .pump(&handles, &slab, i as u64)
                .expect("slab holds well-formed requests");
            assert_eq!(
                served, i as u64,
                "a single-threaded pump serves its own post"
            );
            let got = Reply::decode(&reply_bytes).expect("shards emit well-formed replies");
            let want = expected_reply(&mut models[sid], history[i]);
            Step {
                party: sid,
                mismatch: (got != want).then(|| {
                    format!("request {i} ({op:?}) replied {got:?} but the model says {want:?}")
                }),
            }
        })?;
        let recover =
            |s: usize, image: &CrashImage| M::recover_arenas(&server.shard(s).db().arenas(), image);
        let crashed = recover(crash_shard, &image);
        // The survivors never crashed: close the worker's handles (a dirty or
        // mid-batch handle fences on drop) and read their final images.
        drop(handles);
        let survivors: Vec<(usize, RecoveredMap)> = (0..shards)
            .filter(|&s| s != crash_shard)
            .map(|s| {
                let tracker = backends[s].tracker().expect("survivors track");
                (s, recover(s, &tracker.crash_image()))
            })
            .collect();
        Some((crashed, survivors))
    };
    let check = |(crashed, survivors): &(RecoveredMap, Vec<(usize, RecoveredMap)>),
                 window: &CrashWindow| {
        let sub = &subs[crash_shard];
        let prefix =
            check_prefix::<MapModel>(&crashed.sorted_pairs(), crashed.truncated, sub, window);
        let mut findings: Vec<Finding> = prefix.err().into_iter().collect();
        // A construction-window replay never ran the history, so its survivors
        // are empty by construction, not by loss.
        for (s, rec) in survivors.iter().filter(|_| window.in_flight) {
            let want = map_state(&subs[*s], subs[*s].len());
            let got = rec.sorted_pairs();
            if rec.truncated || got != want {
                findings.push(Finding {
                    detail: format!(
                        "surviving shard {s} must hold exactly its full history: \
                         recovered {} pairs, expected {}{}",
                        got.len(),
                        want.len(),
                        if rec.truncated {
                            " (recovery walk truncated)"
                        } else {
                            ""
                        }
                    ),
                    survivor: Some((*s, subs[*s].len())),
                });
            }
        }
        findings
    };
    let found = sweep(settings, replay, check);
    ServerSweepReport {
        label: label.to_string(),
        shards,
        crash_shard,
        events_construction: found.events_construction,
        events_total: found.events_total,
        requests_total: history.len(),
        requests_crashed_shard: subs[crash_shard].len(),
        points_tested: found.points_tested,
        violations: found
            .hits
            .into_iter()
            .map(|hit| ServerViolation {
                crash_event: hit.crash_event,
                shard: hit.party,
                triggered_on: hit.on.to_string(),
                completed_ops: hit.completed_ops,
                detail: hit.detail,
                flight: hit.flight,
            })
            .collect(),
    }
}

/// The trace of one deterministic single-threaded service drive: where each
/// request routed, every reply byte-for-byte, and each shard's complete
/// persistence-event stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceTrace {
    /// Shard count.
    pub shards: usize,
    /// The shard each request routed to, in request order.
    pub routes: Vec<usize>,
    /// Encoded reply of each request, in request order.
    pub replies: Vec<Vec<u8>>,
    /// Serialised per-shard event streams (construction span, total, kinds).
    pub shard_streams: Vec<String>,
}

impl ServiceTrace {
    /// Serialise the whole trace into one comparable string. Two drives of one
    /// `(history, shards, elision)` triple must produce **byte-identical**
    /// results — the property the shard-routing test asserts, and what makes
    /// the absolute crash indices of [`sweep_server_crash`] reproducible.
    pub fn stream_string(&self) -> String {
        let routes: Vec<String> = self.routes.iter().map(|r| r.to_string()).collect();
        let replies: Vec<String> = self
            .replies
            .iter()
            .map(|r| r.iter().map(|b| format!("{b:02x}")).collect::<String>())
            .collect();
        format!(
            "shards={} routes=[{}] replies=[{}] {}",
            self.shards,
            routes.join(","),
            replies.join(","),
            self.shard_streams.join(" ")
        )
    }
}

/// Drive `history` through a fresh `shards`-shard server on the calling thread
/// with a logging plan on **every** shard, and serialise the result. The service
/// analogue of [`crate::round_robin_map`].
pub fn round_robin_service<P, M, F>(
    factory: &F,
    shards: usize,
    history: &[MapOp],
    elision: ElisionMode,
) -> ServiceTrace
where
    P: Policy<Backend = SimNvram>,
    M: ConcurrentMap<P>,
    F: Fn(SimNvram) -> P,
{
    assert!(shards > 0, "at least one shard");
    let (plans, backends): (Vec<_>, Vec<_>) = (0..shards).map(|_| logged_backend(elision)).unzip();
    let server: KvServer<P, M> = KvServer::new_with(ServerConfig::new(shards, 64 * shards), |i| {
        FlitDb::create(factory(backends[i].clone()))
    });
    let construction: Vec<u64> = plans.iter().map(|p| p.events_seen()).collect();
    let slab = request_slab(history);
    let handles = server.handles();
    let mut routes = Vec::with_capacity(history.len());
    let mut replies = Vec::with_capacity(history.len());
    for (i, op) in history.iter().enumerate() {
        routes.push(route_of(&server, op));
        let (_, reply) = server
            .pump(&handles, &slab, i as u64)
            .expect("slab holds well-formed requests");
        replies.push(reply);
    }
    drop(handles); // dirty handle fences land inside the per-shard streams
    let shard_streams = (0..shards)
        .map(|s| {
            format!(
                "shard{s}[construction={} total={} stream={}]",
                construction[s],
                plans[s].events_seen(),
                kinds_string(&plans[s].event_log())
            )
        })
        .collect();
    ServiceTrace {
        shards,
        routes,
        replies,
        shard_streams,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VolatileStores;
    use flit::presets;
    use flit::{FlitPolicy, HashedScheme};
    use flit_datastructs::{Automatic, HashTable};
    use flit_workload::random_map_history;

    type P = FlitPolicy<HashedScheme, SimNvram>;

    fn factory(b: SimNvram) -> P {
        presets::flit_ht_sized(b, 1 << 12)
    }

    #[test]
    fn op_conversion_is_faithful() {
        assert_eq!(op_of(&MapOp::Insert(3, 30)), Op::Put(3, 30));
        assert_eq!(op_of(&MapOp::Remove(3)), Op::Del(3));
        assert_eq!(op_of(&MapOp::Get(3)), Op::Get(3));
    }

    #[test]
    fn flit_ht_one_shard_crash_sweep_is_clean() {
        let history = random_map_history(7, 40, 16);
        let report = sweep_server_crash::<P, HashTable<P, Automatic>, _>(
            "flit-ht",
            factory,
            2,
            0,
            &history,
            &SweepSettings {
                budget: 10,
                ..Default::default()
            },
        );
        assert!(report.clean(), "{:#?}", report.violations);
        assert!(
            report.requests_crashed_shard > 0,
            "router starved the shard"
        );
        assert!(
            report.requests_crashed_shard < report.requests_total,
            "the surviving shard must see traffic too"
        );
        assert_eq!(report.points_tested, 10);
        assert!(report.summary().contains("0 violations"));
    }

    #[test]
    fn broken_control_is_caught_through_the_service_path() {
        let history = random_map_history(7, 40, 16);
        let report = sweep_server_crash::<P, HashTable<P, VolatileStores>, _>(
            "volatile-broken",
            factory,
            2,
            0,
            &history,
            &SweepSettings {
                budget: 10,
                ..Default::default()
            },
        );
        assert!(
            !report.clean(),
            "a sweep over the broken control that finds nothing means the harness is broken"
        );
    }

    #[test]
    fn batched_commit_one_shard_crash_sweep_is_clean() {
        let history = random_map_history(7, 40, 16);
        let report = sweep_server_crash::<P, HashTable<P, Automatic>, _>(
            "flit-ht-batched",
            factory,
            2,
            0,
            &history,
            &SweepSettings {
                budget: 10,
                commit: flit::CommitMode::Batched(8),
                ..Default::default()
            },
        );
        assert!(report.clean(), "{:#?}", report.violations);
    }

    #[test]
    fn broken_acks_are_caught_through_the_service_path() {
        let history = random_map_history(7, 16, 8);
        let report = sweep_server_crash::<P, HashTable<P, Automatic>, _>(
            "flit-ht-ack-unfenced",
            factory,
            2,
            0,
            &history,
            &SweepSettings {
                commit: flit::CommitMode::Batched(8),
                broken_acks: true,
                ..Default::default()
            },
        );
        assert!(
            !report.clean(),
            "acknowledging before the fence must lose acknowledged requests in some crash"
        );
    }

    #[test]
    fn service_traces_are_byte_reproducible() {
        let history = random_map_history(3, 30, 16);
        let run = || {
            round_robin_service::<P, HashTable<P, Automatic>, _>(
                &factory,
                3,
                &history,
                ElisionMode::Enabled,
            )
            .stream_string()
        };
        assert_eq!(run(), run());
    }
}
