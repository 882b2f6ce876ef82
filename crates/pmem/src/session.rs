//! [`PmemSession`]: a per-handle view of a backend, and the **only** place
//! persist-epoch elision happens.
//!
//! A backend is the paper's instruction set — it executes the `pwb`s and
//! `pfence`s it is handed. Deciding that an instruction is redundant depends on
//! *whose* epoch is asked, so that decision belongs to the handle: it owns its
//! [`PersistEpoch`] and wraps the shared backend in a `PmemSession` for the
//! duration of each operation. The session adds three inherent methods on top
//! of the instruction set:
//!
//! * [`pfence_if_dirty`](PmemSession::pfence_if_dirty) elides the fence when the
//!   handle is clean;
//! * [`pwb_dedup`](PmemSession::pwb_dedup) skips a duplicate read-side flush of a
//!   word the handle already flushed this epoch with an unchanged store version;
//! * [`note_read_side_pwb`](PmemSession::note_read_side_pwb) attributes a flush
//!   just issued to a tagged p-load (Figure 9's read-side breakdown).
//!
//! Each records what it elided or attributed in the backend's
//! [`pmem_stats`](PmemBackend::pmem_stats), when the backend keeps any. The
//! session also implements [`PmemBackend`] itself — `pwb`/`pfence` forward to the
//! backend and update the handle's epoch — so everything written against the
//! bare instruction set (`flit_alloc::Arena`, `persist_range`) works unchanged
//! while every instruction is attributed to exactly one handle.
//!
//! The session consults the backend's configured [`ElisionMode`] (see
//! [`PmemBackend::elision_mode`]), so building a `SimNvram` with
//! `ElisionMode::Disabled` yields the paper-literal stream *through* a session —
//! the A/B toggle the benchmarks and crash sweeps rely on.
//!
//! Because an elided instruction is never issued at all, every observer *below*
//! the session (statistics, the tracker, a `CrashPlan`) sees exactly the issued
//! stream — recorded and executed streams cannot diverge by construction.

use crate::backend::PmemBackend;
use crate::cache_line::word_of;
use crate::epoch::{ElisionMode, PersistEpoch};
use crate::stats::PmemStats;
use crate::tracker::PersistenceTracker;
use flit_obs::{FlightEventKind, FlightRecorder};

/// A borrowed (backend, epoch) pair implementing [`PmemBackend`] with per-handle
/// elision. Cheap to construct (three references and a mode); see the module docs.
pub struct PmemSession<'h, B: PmemBackend + ?Sized> {
    backend: &'h B,
    epoch: &'h PersistEpoch,
    elision: ElisionMode,
    /// The epoch's flight recorder as it stood when this session was
    /// constructed: sampled once so the per-event check tests a
    /// register-resident pointer. Sessions live for one operation, so a
    /// handle armed between operations is picked up by the next session.
    flight: Option<&'h FlightRecorder>,
}

impl<'h, B: PmemBackend + ?Sized> Clone for PmemSession<'h, B> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<'h, B: PmemBackend + ?Sized> Copy for PmemSession<'h, B> {}

impl<'h, B: PmemBackend + ?Sized> PmemSession<'h, B> {
    /// View `backend` through `epoch` with the given elision mode.
    ///
    /// Most callers want [`for_backend`](Self::for_backend), which asks the
    /// backend for its configured mode.
    pub fn new(backend: &'h B, epoch: &'h PersistEpoch, elision: ElisionMode) -> Self {
        Self {
            backend,
            epoch,
            elision,
            flight: epoch.flight(),
        }
    }

    /// View `backend` through `epoch`, honouring the backend's configured
    /// [`ElisionMode`].
    pub fn for_backend(backend: &'h B, epoch: &'h PersistEpoch) -> Self {
        Self::new(backend, epoch, backend.elision_mode())
    }

    /// The wrapped backend.
    pub fn backend(&self) -> &'h B {
        self.backend
    }

    /// The epoch this session attributes instructions to.
    pub fn epoch(&self) -> &'h PersistEpoch {
        self.epoch
    }

    /// The elision mode this session applies.
    pub fn elision(&self) -> ElisionMode {
        self.elision
    }

    /// Append one event to the owning handle's flight recorder, if it has
    /// one. An unarmed handle evaluates neither `word` nor the store version:
    /// it pays one predictable branch per event.
    #[inline]
    fn flight_record(&self, kind: FlightEventKind, word: usize) {
        if let Some(flight) = self.flight {
            flight.record(kind, word, self.backend.store_version());
        }
    }

    /// Issue a persist fence *unless the owning handle's persist epoch is clean*
    /// (zero `pwb`s through it since its last fence): the fence would persist
    /// nothing (the tracker's `on_pfence` would early-return), so it is elided
    /// from the instruction stream entirely. Under [`ElisionMode::Disabled`]
    /// the fence always executes.
    #[inline]
    pub fn pfence_if_dirty(&self) {
        if self.elision.is_enabled() && self.epoch.is_clean() {
            if let Some(stats) = self.backend.pmem_stats() {
                stats.record_elided_pfence();
            }
            self.flight_record(FlightEventKind::ElidedPfence, 0);
            return;
        }
        self.pfence();
    }

    /// Epoch-aware read-side flush: issue a `pwb` for the cache line containing
    /// `addr`, unless the owning handle already flushed the word at `addr`
    /// holding exactly `observed` in its current persist epoch. Returns `true`
    /// when a `pwb` was actually issued; under [`ElisionMode::Disabled`] it
    /// always is. See [`crate::epoch`] for the dedup's soundness argument.
    #[inline]
    pub fn pwb_dedup(&self, addr: *const u8, observed: u64) -> bool {
        let word = word_of(addr as usize);
        // A dedup hit means the value already sits in this handle's pending set
        // and the next fence commits it; the hit also implies the handle is
        // dirty, so that fence cannot itself be elided. The store-version stamp
        // makes the hit unconditionally sound: an unchanged version rules out
        // any overwrite-and-restore since the recorded flush.
        let stamp = self.backend.store_version();
        if self.elision.is_enabled() && self.epoch.recently_flushed(word, observed, stamp) {
            self.note_elided_pwb(word);
            return false;
        }
        // With a tracker attached (crash testing), a flush of a word that
        // *provably, durably* holds `observed` is elided too: it could neither
        // persist anything new nor be overtaken by a pending write-back (see
        // `PersistenceTracker::durably_holds`). Group commit leaves words
        // tagged past their durability point, and without this the helping
        // flush of an already-durable word would fire or not depending on
        // counter-table hash collisions — making crash-event streams depend on
        // allocation addresses and breaking replay determinism.
        if self.elision.is_enabled() {
            if let Some(tracker) = self.backend.persistence_tracker() {
                if tracker.durably_holds(word, observed) {
                    self.note_elided_pwb(word);
                    return false;
                }
            }
        }
        self.backend.pwb(addr);
        self.epoch.note_pwb_flushed(word, observed, stamp);
        self.flight_record(FlightEventKind::Pwb, word);
        true
    }

    #[inline]
    fn note_elided_pwb(&self, word: usize) {
        if let Some(stats) = self.backend.pmem_stats() {
            stats.record_elided_pwb();
        }
        self.flight_record(FlightEventKind::ElidedPwb, word);
    }

    /// Record that a `pwb` just issued through this session was a *read-side*
    /// flush (triggered by a tagged p-load rather than a store), so Figure 9's
    /// read-side breakdown can be reported. Called *in addition to* the flush.
    #[inline]
    pub fn note_read_side_pwb(&self) {
        if let Some(stats) = self.backend.pmem_stats() {
            stats.record_read_side_pwb();
        }
    }
}

impl<'h, B: PmemBackend + ?Sized> std::fmt::Debug for PmemSession<'h, B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PmemSession")
            .field("epoch", &self.epoch.id())
            .field("elision", &self.elision)
            .finish()
    }
}

impl<'h, B: PmemBackend + ?Sized> PmemBackend for PmemSession<'h, B> {
    #[inline]
    fn pwb(&self, addr: *const u8) {
        self.backend.pwb(addr);
        self.epoch.note_pwb();
        self.flight_record(FlightEventKind::Pwb, word_of(addr as usize));
    }

    #[inline]
    fn pfence(&self) {
        self.backend.pfence();
        self.epoch.note_pfence();
        self.flight_record(FlightEventKind::Pfence, 0);
    }

    #[inline]
    fn record_store(&self, addr: *const u8, val: u64) {
        self.backend.record_store(addr, val);
        self.flight_record(FlightEventKind::Store, word_of(addr as usize));
    }

    #[inline]
    fn store_version(&self) -> u64 {
        self.backend.store_version()
    }

    #[inline]
    fn elision_mode(&self) -> ElisionMode {
        self.elision
    }

    #[inline]
    fn pmem_stats(&self) -> Option<&PmemStats> {
        self.backend.pmem_stats()
    }

    #[inline]
    fn persistence_tracker(&self) -> Option<&PersistenceTracker> {
        self.backend.persistence_tracker()
    }

    #[inline]
    fn is_persistent(&self) -> bool {
        self.backend.is_persistent()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::LatencyModel;
    use crate::sim::SimNvram;

    fn counting() -> SimNvram {
        SimNvram::builder().latency(LatencyModel::none()).build()
    }

    #[test]
    fn clean_handle_fence_is_elided_and_counted() {
        let sim = counting();
        let epoch = PersistEpoch::new();
        let s = PmemSession::for_backend(&sim, &epoch);
        s.pfence_if_dirty(); // clean: elided
        assert_eq!(sim.stats().pfences(), 0);
        assert_eq!(sim.stats().elided_pfences(), 1);
        let x = 1u64;
        s.pwb(&x as *const u64 as *const u8);
        s.pfence_if_dirty(); // dirty: must fence
        assert_eq!(sim.stats().pfences(), 1);
        s.pfence_if_dirty(); // the fence cleaned the epoch again
        assert_eq!(sim.stats().pfences(), 1);
        assert_eq!(sim.stats().elided_pfences(), 2);
    }

    #[test]
    fn two_sessions_over_one_backend_have_independent_epochs() {
        // The tentpole invariant: two handles on one OS thread, one backend.
        let sim = counting();
        let (ea, eb) = (PersistEpoch::new(), PersistEpoch::new());
        let a = PmemSession::for_backend(&sim, &ea);
        let b = PmemSession::for_backend(&sim, &eb);
        let x = 1u64;
        a.pwb(&x as *const u64 as *const u8);
        b.pfence_if_dirty(); // B is clean even though A dirtied the backend
        assert_eq!(sim.stats().pfences(), 0);
        a.pfence_if_dirty(); // A must fence
        assert_eq!(sim.stats().pfences(), 1);
        assert!(ea.is_clean() && eb.is_clean());
    }

    #[test]
    fn duplicate_flush_of_same_value_is_deduped_within_an_epoch() {
        let sim = counting();
        let epoch = PersistEpoch::new();
        let s = PmemSession::for_backend(&sim, &epoch);
        let x = 7u64;
        let addr = &x as *const u64 as *const u8;
        assert!(s.pwb_dedup(addr, 7));
        assert!(!s.pwb_dedup(addr, 7), "same word+value: dedup");
        assert!(s.pwb_dedup(addr, 8), "changed value: must reflush");
        assert_eq!(sim.stats().pwbs(), 2);
        assert_eq!(sim.stats().elided_pwbs(), 1);
        s.pfence();
        assert!(s.pwb_dedup(addr, 8), "a fence closes the epoch");
        assert_eq!(sim.stats().pwbs(), 3);
    }

    #[test]
    fn an_intervening_store_invalidates_the_dedup_entry() {
        let sim = counting();
        let epoch = PersistEpoch::new();
        let s = PmemSession::for_backend(&sim, &epoch);
        let x = 7u64;
        let addr = &x as *const u64 as *const u8;
        assert!(s.pwb_dedup(addr, 7));
        // A store recorded through the backend bumps the version; the entry's
        // stamp no longer matches, so the flush must be re-issued (ABA closed).
        s.record_store(addr, 9);
        assert!(s.pwb_dedup(addr, 7));
        assert_eq!(sim.stats().pwbs(), 2);
    }

    #[test]
    fn deduped_flush_still_reaches_the_next_fence() {
        // The dedup invariant: a skipped flush's value is already pending, so the
        // (unskippable) next fence persists it.
        let sim = SimNvram::for_crash_testing();
        let epoch = PersistEpoch::new();
        let s = PmemSession::for_backend(&sim, &epoch);
        let x = 0u64;
        let addr = &x as *const u64 as *const u8;
        s.record_store(addr, 11);
        assert!(s.pwb_dedup(addr, 11));
        assert!(!s.pwb_dedup(addr, 11));
        s.pfence_if_dirty(); // dirty because of the first flush
        assert_eq!(
            sim.tracker().unwrap().persisted_value(addr as usize),
            Some(11)
        );
    }

    #[test]
    fn literal_mode_disables_both_elisions() {
        let sim = SimNvram::builder()
            .latency(LatencyModel::none())
            .elision(ElisionMode::Disabled)
            .build();
        let epoch = PersistEpoch::new();
        let s = PmemSession::for_backend(&sim, &epoch);
        assert_eq!(s.elision(), ElisionMode::Disabled);
        s.pfence_if_dirty(); // clean, but literal mode must fence anyway
        let x = 1u64;
        let addr = &x as *const u64 as *const u8;
        assert!(s.pwb_dedup(addr, 1));
        assert!(s.pwb_dedup(addr, 1), "no dedup in literal mode");
        assert_eq!(sim.stats().pfences(), 1);
        assert_eq!(sim.stats().pwbs(), 2);
        assert_eq!(sim.stats().elided_pfences(), 0);
        assert_eq!(sim.stats().elided_pwbs(), 0);
    }

    /// One clean/dirty/dedup script over a session on every substrate, eliding
    /// and literal: the decisions are the session's, so they are the same on
    /// each backend, and a backend without statistics ([`NullPmem`]) elides
    /// without counting.
    #[test]
    fn the_elision_script_reads_the_same_over_every_backend() {
        use crate::backend::NullPmem;
        use crate::hardware::HardwarePmem;

        let backends: [(&str, Box<dyn PmemBackend>); 3] = [
            ("sim", Box::new(counting())),
            ("hardware", Box::new(HardwarePmem::new())),
            ("null", Box::new(NullPmem)),
        ];
        // (mode, [pwbs, pfences, read_side_pwbs, elided_pfences, elided_pwbs], second dedup flushed?)
        let streams = [
            (ElisionMode::Enabled, [2, 2, 1, 2, 1], false),
            (ElisionMode::Disabled, [3, 4, 1, 0, 0], true),
        ];
        for (name, backend) in &backends {
            let mut expected = [0u64; 5];
            for (mode, counts, reflushed) in streams {
                let epoch = PersistEpoch::new();
                let s = PmemSession::new(&**backend, &epoch, mode);
                let x = 7u64;
                let addr = &x as *const u64 as *const u8;
                s.pfence_if_dirty(); // clean
                s.pwb(addr);
                s.pfence_if_dirty(); // dirty: a real fence on either stream
                s.pfence_if_dirty(); // clean again
                assert!(s.pwb_dedup(addr, 7), "{name}: first flush is real");
                s.note_read_side_pwb();
                assert_eq!(s.pwb_dedup(addr, 7), reflushed, "{name} {mode:?}");
                assert!(!epoch.is_clean(), "{name}: the flush dirtied the handle");
                s.pfence_if_dirty();
                assert!(epoch.is_clean(), "{name}: …and that fence was not elided");

                // Counters accumulate across the two streams on one backend.
                for (total, n) in expected.iter_mut().zip(counts) {
                    *total += n;
                }
                let seen = backend.pmem_stats().map(|st| {
                    let st = st.snapshot();
                    [
                        st.pwbs,
                        st.pfences,
                        st.read_side_pwbs,
                        st.elided_pfences,
                        st.elided_pwbs,
                    ]
                });
                assert_eq!(
                    seen,
                    (*name != "null").then_some(expected),
                    "{name} {mode:?}"
                );
            }
        }
    }

    #[test]
    fn session_delegates_metadata() {
        let sim = SimNvram::for_crash_testing();
        let epoch = PersistEpoch::new();
        let s = PmemSession::for_backend(&sim, &epoch);
        assert!(s.is_persistent());
        assert!(s.pmem_stats().is_some());
        assert!(s.persistence_tracker().is_some());
        assert_eq!(s.epoch().id(), epoch.id());
        let x = 0u64;
        s.record_store(&x as *const u64 as *const u8, 1);
        assert_eq!(s.store_version(), sim.store_version());
    }
}
