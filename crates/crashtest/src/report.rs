//! Case identification, violation records and reproduction strings.
//!
//! Every sweep is identified by four coordinates — structure, durability method,
//! policy, history — and every violation it finds carries a `repro` string that is a
//! complete `crashtest` binary invocation replaying exactly that crash point. The
//! coordinates use the same keys the binary's CLI accepts, so a repro string can be
//! pasted verbatim.

/// Which operation history a sweep replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistorySpec {
    /// The fixed scripted history (`flit_workload::scripted_map_history` /
    /// `scripted_queue_history`).
    Scripted,
    /// A seeded random history (`flit_workload::random_map_history` /
    /// `random_queue_history`).
    Random {
        /// RNG seed; the history is a pure function of `(seed, ops, key_range)`.
        seed: u64,
        /// Number of operations.
        ops: usize,
        /// Key universe for map histories (ignored by queue histories).
        key_range: u64,
    },
}

impl HistorySpec {
    /// CLI-compatible label (`scripted` or `random` plus its parameters).
    pub fn label(&self) -> String {
        match self {
            HistorySpec::Scripted => "scripted".to_string(),
            HistorySpec::Random {
                seed,
                ops,
                key_range,
            } => format!("random seed={seed:#x} ops={ops} keys={key_range}"),
        }
    }

    /// The CLI flags reproducing this history.
    fn cli_flags(&self) -> String {
        match self {
            HistorySpec::Scripted => "--history scripted".to_string(),
            HistorySpec::Random {
                seed,
                ops,
                key_range,
            } => format!("--history random --seed {seed:#x} --ops {ops} --key-range {key_range}"),
        }
    }

    /// The map history this spec denotes.
    pub fn map_history(&self) -> Vec<flit_workload::MapOp> {
        match *self {
            HistorySpec::Scripted => flit_workload::scripted_map_history(),
            HistorySpec::Random {
                seed,
                ops,
                key_range,
            } => flit_workload::random_map_history(seed, ops, key_range),
        }
    }

    /// The queue history this spec denotes.
    pub fn queue_history(&self) -> Vec<flit_workload::QueueOp> {
        match *self {
            HistorySpec::Scripted => flit_workload::scripted_queue_history(),
            HistorySpec::Random { seed, ops, .. } => flit_workload::random_queue_history(seed, ops),
        }
    }
}

/// The coordinates of one sweep: structure × durability method × policy ×
/// history × elision mode × commit mode (plus the broken-acknowledgment flag).
#[derive(Debug, Clone)]
pub struct CaseMeta {
    /// Structure key (`list`, `hashtable`, `bst`, `skiplist`, `msqueue`, `hamt`,
    /// or `hamt-snapshot` for the snapshot-consistency sweep).
    pub structure: &'static str,
    /// Durability-method key (`automatic`, `nvtraverse`, `manual`, `volatile-broken`).
    pub method: &'static str,
    /// Policy key (`plain`, `flit-ht`, `flit-adjacent`, `flit-cacheline`,
    /// `link-persist`).
    pub policy: &'static str,
    /// The history replayed.
    pub history: HistorySpec,
    /// Persist-epoch elision mode the backend ran with (`on` sweeps the elided
    /// instruction stream, `off` the paper-literal one).
    pub elision: flit_pmem::ElisionMode,
    /// Commit mode the replayed [`FlitDb`](flit::FlitDb) ran with (`immediate`
    /// sweeps the strict per-operation contract, `batched-k` the group-commit
    /// acked-floor contract).
    pub commit: flit_pmem::CommitMode,
    /// `true` for the broken-acknowledgment control (obligations acknowledged
    /// without fencing); such sweeps are *expected* to find violations.
    pub broken_acks: bool,
}

impl CaseMeta {
    /// Compact identifier, e.g.
    /// `list/automatic/flit-ht/scripted/elision-on/commit-batched-8`, with a
    /// trailing `/ack-unfenced` for the broken-acknowledgment control.
    pub fn id(&self) -> String {
        format!(
            "{}/{}/{}/{}/elision-{}/commit-{}{}",
            self.structure,
            self.method,
            self.policy,
            self.history.label(),
            self.elision.name(),
            self.commit.name(),
            if self.broken_acks {
                "/ack-unfenced"
            } else {
                ""
            }
        )
    }

    /// A complete `crashtest` invocation replaying one crash point of this case.
    pub fn repro(&self, crash_event: u64) -> String {
        format!(
            "crashtest --structures {} --methods {} --policies {} {} --elision {} --commit {}{} \
             --crash-at {}",
            self.structure,
            self.method,
            self.policy,
            self.history.cli_flags(),
            self.elision.name(),
            self.commit.name(),
            if self.broken_acks {
                " --broken-acks"
            } else {
                ""
            },
            crash_event
        )
    }
}

/// One durability violation found by a sweep.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The crash point as a **stable absolute event index** (construction events
    /// included). Arena allocation makes the event stream layout-independent, so
    /// the index — and with it the repro string — is portable across runs and
    /// machines.
    pub crash_event: u64,
    /// The kind of persistence event the crash landed on (`store`/`pwb`/`pfence`),
    /// `end` for the nothing-lost control point after the final event, or
    /// `live-run` for a *functional* violation: an operation's live return value
    /// diverged from the sequential model during the replay (a linearizability
    /// bug, independent of the injected crash).
    pub triggered_on: &'static str,
    /// Operations of the history that had completed before the crash.
    pub completed_ops: usize,
    /// Human-readable description of the divergence (expected vs recovered state).
    pub detail: String,
    /// Complete `crashtest` invocation replaying this exact failure.
    pub repro: String,
    /// The replay handle's flight-recorder tail: the last persistence events
    /// (store/pwb/pfence/elisions, with word addresses and store versions)
    /// recorded up to the first operation boundary at or past the crash point —
    /// the instruction stream the crash landed in, ready to read. Empty for
    /// pre-crash `live-run` violations of a counting pass.
    pub flight: Vec<flit::FlightEvent>,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "crash at event {} (on {}, {} ops completed): {}\n  repro: {}",
            self.crash_event, self.triggered_on, self.completed_ops, self.detail, self.repro
        )?;
        if !self.flight.is_empty() {
            write!(f, "\n  flight recorder ({} events):", self.flight.len())?;
            for e in &self.flight {
                write!(
                    f,
                    "\n    [{}] {} word={:#x} v={}",
                    e.index,
                    e.kind.name(),
                    e.word,
                    e.store_version
                )?;
            }
        }
        Ok(())
    }
}

/// The outcome of sweeping one case.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// The case's coordinates.
    pub case: CaseMeta,
    /// Events generated by structure construction alone, as measured by the
    /// counting pass. Crash indices below this value fall in the *construction
    /// window*, which the sweep covers too: there recovery must yield exactly the
    /// empty structure.
    pub events_construction: u64,
    /// Total events generated by construction + the full history (counting pass).
    /// The sweep's absolute crash indices range over `0..=events_total`.
    pub events_total: u64,
    /// Crash points actually injected (≤ the full event span when a budget
    /// applies).
    pub points_tested: usize,
    /// Violations found, in crash-event order.
    pub violations: Vec<Violation>,
}

impl SweepReport {
    /// `true` when the sweep found no violations.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// One summary line for console output.
    pub fn summary_line(&self) -> String {
        format!(
            "{:<55} events {:>6} (constr {:>5})  points {:>5}  violations {:>3}",
            self.case.id(),
            self.events_total,
            self.events_construction,
            self.points_tested,
            self.violations.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn case() -> CaseMeta {
        CaseMeta {
            structure: "list",
            method: "automatic",
            policy: "flit-ht",
            history: HistorySpec::Random {
                seed: 0x2a,
                ops: 64,
                key_range: 16,
            },
            elision: flit_pmem::ElisionMode::Enabled,
            commit: flit_pmem::CommitMode::Batched(8),
            broken_acks: false,
        }
    }

    #[test]
    fn repro_string_round_trips_the_coordinates() {
        let repro = case().repro(17);
        for needle in [
            "--structures list",
            "--methods automatic",
            "--policies flit-ht",
            "--history random",
            "--seed 0x2a",
            "--ops 64",
            "--key-range 16",
            "--elision on",
            "--commit batched-8",
            "--crash-at 17",
        ] {
            assert!(repro.contains(needle), "missing {needle:?} in {repro:?}");
        }
        assert!(!repro.contains("--broken-acks"));
        assert!(case().id().ends_with("/elision-on/commit-batched-8"));
        let broken = CaseMeta {
            broken_acks: true,
            ..case()
        };
        assert!(broken.repro(17).contains("--broken-acks"));
        assert!(broken.id().ends_with("/ack-unfenced"));
    }

    #[test]
    fn history_specs_produce_histories() {
        assert!(!HistorySpec::Scripted.map_history().is_empty());
        assert!(!HistorySpec::Scripted.queue_history().is_empty());
        let spec = HistorySpec::Random {
            seed: 1,
            ops: 20,
            key_range: 8,
        };
        assert_eq!(spec.map_history().len(), 20);
        assert_eq!(spec.queue_history().len(), 20);
    }

    #[test]
    fn violation_display_mentions_the_repro() {
        let v = Violation {
            crash_event: 5,
            triggered_on: "pwb",
            completed_ops: 2,
            detail: "x".into(),
            repro: case().repro(5),
            flight: vec![flit::FlightEvent {
                index: 3,
                kind: flit::FlightEventKind::Pwb,
                word: 0x40,
                store_version: 7,
            }],
        };
        let s = v.to_string();
        assert!(s.contains("repro: crashtest"));
        assert!(s.contains("flight recorder (1 events)"));
        assert!(s.contains("[3] pwb word=0x40 v=7"));
    }
}
