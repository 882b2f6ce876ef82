//! Standalone probes of single layers through their public functions, for the
//! costs no span around a map or service call can separate: what the latency
//! model really charges, one p-load / p-store / completion, one allocation,
//! one EBR pin, one observability snapshot.
//!
//! Each probe times a fixed number of calls, repeats that a few times and
//! reports the quiet decile of the per-call cost.

use std::hint::black_box;
use std::time::Instant;

use flit::{FlitDb, PFlag, PersistWord, Policy};
use flit_alloc::ArenaConfig;
use flit_pmem::latency::busy_wait_ns;
use flit_pmem::PmemBackend;
use flit_server::ServerConfig;

use crate::stats::quiet_low;
use crate::subjects::{backend, Server, LATENCY, P};

/// What the probes measured, nanoseconds per call unless named otherwise.
#[derive(Debug, Default, Clone, Copy)]
pub struct Probes {
    /// Realised cost of one modelled pwb (`busy_wait_ns(60)`).
    pub pwb_charge_ns: f64,
    /// Realised cost of one modelled pfence (`busy_wait_ns(150)`).
    pub pfence_charge_ns: f64,
    /// `PersistWord::load` of an untagged word.
    pub pload_ns: f64,
    /// `PersistWord::store` (leading fence elided, flush, trailing fence).
    pub pstore_ns: f64,
    /// pfences one p-store issues.
    pub pstore_pfences_per_call: f64,
    /// `operation_completion` on a clean handle (the fence is elided).
    pub completion_clean_ns: f64,
    /// `operation_completion` on a handle with one unfenced pwb.
    pub completion_dirty_ns: f64,
    /// `FlitDb::handle` + drop.
    pub handle_create_ns: f64,
    /// `Arena::alloc` of a fresh slot (chunk growth included).
    pub alloc_ns: f64,
    /// `FlitHandle::pin` + unpin.
    pub pin_ns: f64,
    /// `FlitDb::metrics_snapshot`.
    pub metrics_snapshot_ns: f64,
    /// `KvServer::stats_json` of a two-shard server.
    pub stats_json_ns: f64,
}

/// Realised cost of one modelled pwb and one modelled pfence, nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct Charges {
    /// `busy_wait_ns(60)`.
    pub pwb_ns: f64,
    /// `busy_wait_ns(150)`.
    pub pfence_ns: f64,
}

impl Charges {
    /// Measure both charges: `reps` repetitions of `calls` calls, quiet decile.
    pub fn measure(reps: usize, calls: usize) -> Self {
        Self {
            pwb_ns: per_call_ns(reps, calls, |_| busy_wait_ns(LATENCY.pwb_ns)),
            pfence_ns: per_call_ns(reps, calls, |_| busy_wait_ns(LATENCY.pfence_ns)),
        }
    }

    /// Whether this process's spin calibration charges what the model says.
    ///
    /// The latency model spins a whole number of iterations — `(ns *
    /// spins_per_ns) as u64`, about 12 ns each on the machine this was written
    /// on — from a rate it measures once per process. 60 ns is 4.9 of those
    /// iterations: a calibration that comes out 2 % fast rounds a pwb up to 5
    /// (78 ns realised instead of 63), and one disturbed by a neighbour can
    /// come out 25 % low. Either shifts every timing of the process, by 3 % on
    /// the workloads with a fence or more per operation. A charge between 100 %
    /// and 115 % of nominal (the top of the band leaves room for the call's own
    /// ≈12 ns) is the model as written.
    pub fn in_band(&self) -> bool {
        let ok = |got: f64, nominal: u64| (1.0..=1.15).contains(&(got / nominal as f64));
        ok(self.pwb_ns, LATENCY.pwb_ns) && ok(self.pfence_ns, LATENCY.pfence_ns)
    }

    /// The `calibration_off` note for a run that went ahead out of band.
    pub fn note(&self) -> Option<String> {
        (!self.in_band()).then(|| {
            format!(
                "calibration_off: the latency model charges {:.1} ns per pwb (nominal {}) and \
                 {:.1} ns per pfence (nominal {}); every timing of this run is scaled by that",
                self.pwb_ns, LATENCY.pwb_ns, self.pfence_ns, LATENCY.pfence_ns
            )
        })
    }
}

/// Quiet decile over `reps` repetitions of the per-call cost of `calls` calls.
fn per_call_ns(reps: usize, calls: usize, mut call: impl FnMut(usize)) -> f64 {
    let costs: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            for i in 0..calls {
                call(i);
            }
            start.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    quiet_low(&costs)
}

/// Run every probe. `scale` divides the call counts (10 in smoke mode).
pub fn run(scale: usize) -> Probes {
    let calls = 100_000 / scale;
    let charges = Charges::measure(if scale > 1 { 5 } else { 21 }, 200_000 / scale);
    let mut p = Probes {
        pwb_charge_ns: charges.pwb_ns,
        pfence_charge_ns: charges.pfence_ns,
        ..Probes::default()
    };

    let reps = 7;
    let db: FlitDb<P> = FlitDb::flit_ht(backend());
    let h = db.handle();
    let word = <P as Policy>::Word::<u64>::new(7);
    let mut sink = 0u64;
    p.pload_ns = per_call_ns(reps, calls, |_| sink ^= word.load(&h, PFlag::Persisted));
    black_box(sink);

    let before = db.stats_snapshot().unwrap_or_default();
    p.pstore_ns = per_call_ns(reps, calls, |i| word.store(&h, i as u64, PFlag::Persisted));
    let after = db.stats_snapshot().unwrap_or_default();
    p.pstore_pfences_per_call = (after.pfences - before.pfences) as f64 / (reps * calls) as f64;

    p.completion_clean_ns = per_call_ns(reps, calls, |_| h.operation_completion());
    // A dirty completion is timed as (pwb + completion) minus (pwb alone).
    let addr = word.addr() as *const u8;
    let flush_only = per_call_ns(reps, calls, |_| h.pmem().pwb(addr));
    h.pmem().pfence();
    let flush_and_complete = per_call_ns(reps, calls, |_| {
        h.pmem().pwb(addr);
        h.operation_completion();
    });
    p.completion_dirty_ns = (flush_and_complete - flush_only).max(0.0);

    p.handle_create_ns = per_call_ns(reps, calls / 10, |_| drop(black_box(db.handle())));
    p.pin_ns = per_call_ns(reps, calls, |_| drop(black_box(h.pin())));

    let arena = db.new_arena(ArenaConfig::default());
    let pm = h.pmem();
    // Every call takes a fresh slot that is never freed, so fewer of them.
    p.alloc_ns = per_call_ns(reps, calls / 5, |_| {
        black_box(arena.alloc(&pm));
    });

    p.metrics_snapshot_ns = per_call_ns(reps, 200 / scale.min(4), |_| {
        black_box(db.metrics_snapshot());
    });
    let server: Server =
        Server::new_with(ServerConfig::new(2, 1024), |_| FlitDb::flit_ht(backend()));
    p.stats_json_ns = per_call_ns(reps, 100 / scale.min(4), |_| {
        black_box(server.stats_json());
    });
    p
}
