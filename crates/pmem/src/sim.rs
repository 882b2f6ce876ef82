//! Simulated NVRAM backend.
//!
//! [`SimNvram`] is the substitute for the Intel Optane DC persistent memory used in
//! the paper's evaluation. It combines three orthogonal pieces:
//!
//! * a [`LatencyModel`] charging a cost to every `pwb`/`pfence` (this is what makes
//!   the benchmark *shapes* of the paper reproducible on ordinary hardware);
//! * [`PmemStats`] counting every persistence instruction (Figure 9) — always on:
//!   every benchmark row reports the counts;
//! * an optional [`PersistenceTracker`] maintaining the persisted image for crash
//!   testing (disabled by default — it is far too slow for throughput runs).
//!
//! The backend itself issues every instruction it is handed: persist-epoch
//! **elision** happens *above* it, in the per-handle
//! [`PmemSession`](crate::PmemSession) view that `flit`'s `FlitHandle` wraps
//! around the backend. `SimNvram` only carries the configured [`ElisionMode`]
//! (via [`PmemBackend::elision_mode`]) so sessions know whether to elide, and the
//! statistics counters sessions record their elisions in. Build with
//! [`ElisionMode::Disabled`] to get the paper-literal instruction stream through
//! any session, so the two streams can be A/B-compared.
//!
//! `SimNvram` is internally reference counted, so it can be cloned cheaply and shared
//! between a data structure, the workload runner and the test harness.

use std::sync::Arc;

use crate::backend::PmemBackend;
use crate::crash::{CrashEventKind, CrashPlan};
use crate::epoch::ElisionMode;
use crate::latency::LatencyModel;
use crate::stats::PmemStats;
use crate::tracker::PersistenceTracker;

struct Inner {
    latency: LatencyModel,
    stats: PmemStats,
    tracker: Option<PersistenceTracker>,
    crash_plan: Option<CrashPlan>,
    elision: ElisionMode,
    /// Store counter for non-tracking instances (dedup stamps); tracking instances
    /// use the tracker's own version counter instead.
    store_version: std::sync::atomic::AtomicU64,
}

/// Simulated NVRAM: ordinary memory plus modelled persistence costs, statistics and
/// optional crash tracking. See the module docs.
#[derive(Clone)]
pub struct SimNvram {
    inner: Arc<Inner>,
}

impl Default for SimNvram {
    /// An Optane-like latency model with statistics and no crash tracking.
    fn default() -> Self {
        Self::builder().build()
    }
}

impl std::fmt::Debug for SimNvram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimNvram")
            .field("latency", &self.inner.latency)
            .field("tracking", &self.inner.tracker.is_some())
            .field("pwbs", &self.inner.stats.pwbs())
            .field("pfences", &self.inner.stats.pfences())
            .finish()
    }
}

impl SimNvram {
    /// Start building a simulated NVRAM instance.
    pub fn builder() -> SimNvramBuilder {
        SimNvramBuilder::default()
    }

    /// A zero-latency, tracking-enabled instance — the configuration used by
    /// durability (crash) tests, where only the bookkeeping matters.
    pub fn for_crash_testing() -> Self {
        Self::builder()
            .latency(LatencyModel::none())
            .tracking(true)
            .build()
    }

    /// Like [`for_crash_testing`](Self::for_crash_testing), with a [`CrashPlan`]
    /// observing every persistence event. This is the configuration the
    /// `flit-crashtest` sweep engine runs under.
    pub fn for_crash_testing_with_plan(plan: CrashPlan) -> Self {
        Self::builder()
            .latency(LatencyModel::none())
            .tracking(true)
            .crash_plan(plan)
            .build()
    }

    /// A zero-latency, non-tracking instance — useful for functional tests that only
    /// care about instruction counts.
    pub fn for_counting() -> Self {
        Self::builder().latency(LatencyModel::none()).build()
    }

    /// The latency model in effect.
    pub fn latency(&self) -> LatencyModel {
        self.inner.latency
    }

    /// Statistics collected so far.
    pub fn stats(&self) -> &PmemStats {
        &self.inner.stats
    }

    /// The persistence tracker, if tracking was enabled.
    pub fn tracker(&self) -> Option<&PersistenceTracker> {
        self.inner.tracker.as_ref()
    }

    /// The crash plan observing this backend's events, if one was attached.
    pub fn crash_plan(&self) -> Option<&CrashPlan> {
        self.inner.crash_plan.as_ref()
    }

    /// The persist-epoch elision mode sessions over this instance apply.
    pub fn elision(&self) -> ElisionMode {
        self.inner.elision
    }
}

impl SimNvram {
    /// The store version used to stamp dedup entries: the tracker's global store
    /// counter when tracking is on (the counter the monotone-commit logic already
    /// maintains), a private per-backend counter otherwise.
    #[inline]
    fn current_store_version(&self) -> u64 {
        match &self.inner.tracker {
            Some(tracker) => tracker.stores_recorded(),
            None => self
                .inner
                .store_version
                .load(std::sync::atomic::Ordering::Relaxed),
        }
    }
}

impl PmemBackend for SimNvram {
    #[inline]
    fn pwb(&self, addr: *const u8) {
        self.inner.stats.record_pwb();
        // The plan observes the event *before* the tracker applies it, so a trigger
        // at index n models a power failure during event n (the event is lost).
        if let Some(plan) = &self.inner.crash_plan {
            plan.observe(CrashEventKind::Pwb, self.inner.tracker.as_ref());
        }
        if let Some(tracker) = &self.inner.tracker {
            tracker.on_pwb(addr as usize);
        }
        self.inner.latency.charge_pwb();
    }

    #[inline]
    fn pfence(&self) {
        self.inner.stats.record_pfence();
        if let Some(plan) = &self.inner.crash_plan {
            plan.observe(CrashEventKind::Pfence, self.inner.tracker.as_ref());
        }
        if let Some(tracker) = &self.inner.tracker {
            tracker.on_pfence();
        }
        self.inner.latency.charge_pfence();
    }

    #[inline]
    fn record_store(&self, addr: *const u8, val: u64) {
        if let Some(plan) = &self.inner.crash_plan {
            plan.observe(CrashEventKind::Store, self.inner.tracker.as_ref());
        }
        match &self.inner.tracker {
            // The tracker's global store counter doubles as the version source.
            Some(tracker) => tracker.record_store(addr as usize, val),
            None => {
                // Nothing consumes the stamp on the literal stream: skip the
                // shared-counter bump when elision is disabled.
                if self.inner.elision.is_enabled() {
                    self.inner
                        .store_version
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
            }
        }
    }

    #[inline]
    fn store_version(&self) -> u64 {
        self.current_store_version()
    }

    #[inline]
    fn elision_mode(&self) -> ElisionMode {
        self.inner.elision
    }

    #[inline]
    fn pmem_stats(&self) -> Option<&PmemStats> {
        Some(&self.inner.stats)
    }

    #[inline]
    fn persistence_tracker(&self) -> Option<&PersistenceTracker> {
        self.inner.tracker.as_ref()
    }
}

/// Builder for [`SimNvram`]. The defaults are an Optane-like latency model, no
/// tracking, no crash plan, elision enabled.
#[derive(Debug, Clone, Default)]
pub struct SimNvramBuilder {
    latency: LatencyModel,
    tracking: bool,
    crash_plan: Option<CrashPlan>,
    elision: ElisionMode,
}

impl SimNvramBuilder {
    /// Set the latency model (default: [`LatencyModel::optane`]).
    pub fn latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }

    /// Enable or disable word-granularity persistence tracking (default: disabled).
    pub fn tracking(mut self, tracking: bool) -> Self {
        self.tracking = tracking;
        self
    }

    /// Attach a [`CrashPlan`] that observes every store/pwb/pfence event flowing
    /// through the backend (default: none). Usually combined with
    /// [`tracking`](Self::tracking) so the plan has an image to freeze.
    pub fn crash_plan(mut self, plan: CrashPlan) -> Self {
        self.crash_plan = Some(plan);
        self
    }

    /// Set the persist-epoch elision mode sessions over this instance apply
    /// (default: [`ElisionMode::Enabled`]). [`ElisionMode::Disabled`] restores
    /// the paper-literal instruction stream.
    pub fn elision(mut self, mode: ElisionMode) -> Self {
        self.elision = mode;
        self
    }

    /// Finish building.
    pub fn build(self) -> SimNvram {
        SimNvram {
            inner: Arc::new(Inner {
                latency: self.latency,
                stats: PmemStats::new(),
                tracker: if self.tracking {
                    Some(PersistenceTracker::new())
                } else {
                    None
                },
                crash_plan: self.crash_plan,
                elision: self.elision,
                store_version: std::sync::atomic::AtomicU64::new(0),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_are_counted() {
        let sim = SimNvram::for_counting();
        let x = 3u64;
        for _ in 0..10 {
            sim.pwb(&x as *const u64 as *const u8);
        }
        sim.pfence();
        assert_eq!(sim.stats().pwbs(), 10);
        assert_eq!(sim.stats().pfences(), 1);
    }

    #[test]
    fn clones_share_state() {
        let sim = SimNvram::for_counting();
        let clone = sim.clone();
        let x = 3u64;
        clone.pwb(&x as *const u64 as *const u8);
        assert_eq!(sim.stats().pwbs(), 1);
    }

    #[test]
    fn tracking_round_trip() {
        let sim = SimNvram::for_crash_testing();
        let x = 0u64;
        let addr = &x as *const u64 as *const u8;
        sim.record_store(addr, 123);
        assert_eq!(
            sim.tracker().unwrap().volatile_value(addr as usize),
            Some(123)
        );
        assert!(sim.tracker().unwrap().crash_image().is_empty());
        sim.pwb(addr);
        sim.pfence();
        assert_eq!(
            sim.tracker().unwrap().crash_image().read(addr as usize),
            Some(123)
        );
    }

    #[test]
    fn non_tracking_instance_ignores_record_store() {
        let sim = SimNvram::for_counting();
        let x = 0u64;
        sim.record_store(&x as *const u64 as *const u8, 5);
        assert!(sim.tracker().is_none());
    }

    #[test]
    fn crash_plan_sees_the_event_stream() {
        use crate::crash::CrashPlan;
        // Crash at event 4 (0-based): store, pwb, pfence for x persist x; the second
        // store survives volatile-only; the pwb at index 4 is lost.
        let plan = CrashPlan::armed_at(4);
        let sim = SimNvram::for_crash_testing_with_plan(plan.clone());
        let x = 0u64;
        let addr = &x as *const u64 as *const u8;
        sim.record_store(addr, 1); // event 0
        sim.pwb(addr); // event 1
        sim.pfence(); // event 2
        sim.record_store(addr, 2); // event 3
        sim.pwb(addr); // event 4 <- crash here (lost)
        sim.pfence(); // event 5
        assert_eq!(plan.events_seen(), 6);
        assert!(plan.triggered());
        let frozen = plan.crash_image().unwrap();
        assert_eq!(frozen.read(addr as usize), Some(1), "only the fenced value");
        // The live tracker saw everything.
        assert_eq!(
            sim.tracker().unwrap().crash_image().read(addr as usize),
            Some(2)
        );
        assert!(sim.crash_plan().is_some());
    }

    #[test]
    fn elision_mode_is_exposed_to_sessions() {
        let on = SimNvram::for_counting();
        assert_eq!(on.elision(), ElisionMode::Enabled);
        assert_eq!(on.elision_mode(), ElisionMode::Enabled);
        let off = SimNvram::builder()
            .latency(LatencyModel::none())
            .elision(ElisionMode::Disabled)
            .build();
        assert_eq!(off.elision(), ElisionMode::Disabled);
        assert_eq!(off.elision_mode(), ElisionMode::Disabled);
    }

    #[test]
    fn latency_model_is_exposed() {
        let sim = SimNvram::builder().latency(LatencyModel::dram()).build();
        assert_eq!(sim.latency(), LatencyModel::dram());
        assert!(sim.is_persistent());
    }
}
