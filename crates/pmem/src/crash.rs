//! Deterministic crash injection: the [`CrashPlan`] hook.
//!
//! The durability tests of the seed repo crashed only at hand-picked operation
//! boundaries (take a [`CrashImage`] between operations, recover, compare). That
//! misses the interesting failure windows *inside* an operation — between a store and
//! its write-back, between a write-back and its fence, between the linearizing CAS
//! and the completion fence. Systematic crash-point sweeps (MOD, Memento, the
//! persistent-FIFO literature) instead crash at **every** persistence event.
//!
//! A [`CrashPlan`] makes that possible without process-kill machinery: it observes
//! the global stream of persistence events flowing through a
//! [`SimNvram`](crate::SimNvram) — every tracked store, `pwb` and `pfence`, in
//! program order — and, when the event counter reaches the armed trigger index,
//! freezes a [`CrashImage`] *as of the instant just before the triggering event
//! applies*. Execution then continues normally (unwinding through lock-free code is
//! neither possible nor necessary); the frozen image is exactly what persistent
//! memory would have held had the machine lost power at that point, and the harness
//! recovers from it after the run completes.
//!
//! Determinism: a single-threaded history replayed against a fresh backend produces
//! the identical event stream every time, so `(seed, crash_event)` is a complete
//! reproduction recipe. Event indices are counts, not addresses, which keeps them
//! stable across runs even though the allocator hands out different pointers.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::tracker::{CrashImage, PersistenceTracker};

/// Which persistence instruction an event index refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashEventKind {
    /// A store to a tracked word (volatile visibility).
    Store,
    /// A `pwb` (cache-line write-back).
    Pwb,
    /// A `pfence` (write-backs of the calling thread become durable).
    Pfence,
}

impl CrashEventKind {
    /// Short label used in repro strings.
    pub fn name(self) -> &'static str {
        match self {
            CrashEventKind::Store => "store",
            CrashEventKind::Pwb => "pwb",
            CrashEventKind::Pfence => "pfence",
        }
    }
}

/// Never triggers: the sentinel trigger index used by counting-only plans.
const NEVER: u64 = u64::MAX;

struct Inner {
    /// Event index to crash at (the image is captured *before* this event applies).
    trigger: u64,
    /// Events observed so far.
    events: AtomicU64,
    /// The frozen image plus the kind of event that triggered the capture.
    captured: Mutex<Option<(CrashImage, CrashEventKind)>>,
    /// When present, every observed event kind is appended in observation order —
    /// the global persistence-event *stream*, not just its length. Used by the
    /// controlled-scheduler harness to assert byte-identical streams across runs.
    log: Option<Mutex<Vec<CrashEventKind>>>,
}

/// A deterministic crash trigger attached to a [`SimNvram`](crate::SimNvram).
///
/// Internally reference counted: clone it, hand one half to the backend builder and
/// keep the other to read [`crash_image`](CrashPlan::crash_image) /
/// [`events_seen`](CrashPlan::events_seen) after the run.
#[derive(Clone)]
pub struct CrashPlan {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for CrashPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CrashPlan")
            .field("trigger", &self.inner.trigger)
            .field("events_seen", &self.events_seen())
            .field("triggered", &self.triggered())
            .finish()
    }
}

impl CrashPlan {
    /// A plan that crashes at event index `trigger` (0-based): the captured image
    /// reflects exactly the persisted state after events `0..trigger`.
    pub fn armed_at(trigger: u64) -> Self {
        Self {
            inner: Arc::new(Inner {
                trigger,
                events: AtomicU64::new(0),
                captured: Mutex::new(None),
                log: None,
            }),
        }
    }

    /// A plan that never triggers — used for the counting pass that measures how many
    /// events a history generates and where its operation boundaries fall.
    pub fn counting() -> Self {
        Self::armed_at(NEVER)
    }

    /// A never-triggering plan that additionally records every observed event
    /// *kind* in order (see [`event_log`](Self::event_log)). Used by the
    /// controlled-scheduler round-robin harness, which asserts that two replays
    /// of one scripted history produce byte-identical global event streams.
    pub fn counting_logged() -> Self {
        Self {
            inner: Arc::new(Inner {
                trigger: NEVER,
                events: AtomicU64::new(0),
                captured: Mutex::new(None),
                log: Some(Mutex::new(Vec::new())),
            }),
        }
    }

    /// The recorded event-kind stream, in observation order. Empty unless the
    /// plan was created with [`counting_logged`](Self::counting_logged).
    pub fn event_log(&self) -> Vec<CrashEventKind> {
        self.inner
            .log
            .as_ref()
            .map(|log| log.lock().clone())
            .unwrap_or_default()
    }

    /// The event index this plan is armed at, or `None` for a counting plan.
    pub fn trigger(&self) -> Option<u64> {
        let trigger = self.inner.trigger;
        (trigger != NEVER).then_some(trigger)
    }

    /// Number of persistence events observed so far.
    pub fn events_seen(&self) -> u64 {
        self.inner.events.load(Ordering::SeqCst)
    }

    /// `true` once the trigger index has been reached and an image captured.
    pub fn triggered(&self) -> bool {
        self.inner.captured.lock().is_some()
    }

    /// The frozen crash image, if the plan has triggered.
    pub fn crash_image(&self) -> Option<CrashImage> {
        self.inner
            .captured
            .lock()
            .as_ref()
            .map(|(img, _)| img.clone())
    }

    /// The kind of event the crash landed on, if the plan has triggered.
    pub fn triggered_on(&self) -> Option<CrashEventKind> {
        self.inner.captured.lock().as_ref().map(|(_, kind)| *kind)
    }

    /// Observe one persistence event. Called by the backend *before* the event is
    /// applied to `tracker`, so a trigger at index `n` freezes the state with events
    /// `0..n` applied and event `n` lost — the adversarial "power failed during this
    /// instruction" semantics.
    pub fn observe(&self, kind: CrashEventKind, tracker: Option<&PersistenceTracker>) {
        let index = self.inner.events.fetch_add(1, Ordering::SeqCst);
        if let Some(log) = &self.inner.log {
            log.lock().push(kind);
        }
        if index == self.inner.trigger {
            let image = tracker.map(|t| t.crash_image()).unwrap_or_default();
            let mut captured = self.inner.captured.lock();
            if captured.is_none() {
                *captured = Some((image, kind));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_plan_counts_and_never_triggers() {
        let plan = CrashPlan::counting();
        let tracker = PersistenceTracker::new();
        for _ in 0..10 {
            plan.observe(CrashEventKind::Pwb, Some(&tracker));
        }
        assert_eq!(plan.events_seen(), 10);
        assert!(!plan.triggered());
        assert!(plan.crash_image().is_none());
        assert!(plan.trigger().is_none());
    }

    #[test]
    fn armed_plan_freezes_the_image_before_the_triggering_event() {
        let x = 0u64;
        let addr = &x as *const u64 as usize;
        let tracker = PersistenceTracker::new();
        // Crash at event 2 = the pfence: the store and pwb happened, the fence did
        // not, so nothing is persisted in the frozen image.
        let plan = CrashPlan::armed_at(2);

        plan.observe(CrashEventKind::Store, Some(&tracker));
        tracker.record_store(addr, 7);
        plan.observe(CrashEventKind::Pwb, Some(&tracker));
        tracker.on_pwb(addr);
        plan.observe(CrashEventKind::Pfence, Some(&tracker));
        tracker.on_pfence();

        assert!(plan.triggered());
        assert_eq!(plan.triggered_on(), Some(CrashEventKind::Pfence));
        let frozen = plan.crash_image().unwrap();
        assert_eq!(frozen.read(addr), None, "fence was lost to the crash");
        // The live tracker, by contrast, saw the whole sequence.
        assert_eq!(tracker.crash_image().read(addr), Some(7));
    }

    #[test]
    fn first_capture_wins() {
        let tracker = PersistenceTracker::new();
        let plan = CrashPlan::armed_at(0);
        let x = 0u64;
        let addr = &x as *const u64 as usize;
        plan.observe(CrashEventKind::Store, Some(&tracker));
        tracker.record_store(addr, 1);
        tracker.on_pwb(addr);
        tracker.on_pfence();
        // Later events do not overwrite the frozen image.
        plan.observe(CrashEventKind::Pfence, Some(&tracker));
        assert!(plan.crash_image().unwrap().is_empty());
        assert_eq!(plan.events_seen(), 2);
    }

    #[test]
    fn trigger_is_reported() {
        assert_eq!(CrashPlan::armed_at(17).trigger(), Some(17));
        assert_eq!(CrashEventKind::Store.name(), "store");
        assert_eq!(CrashEventKind::Pwb.name(), "pwb");
        assert_eq!(CrashEventKind::Pfence.name(), "pfence");
    }
}
