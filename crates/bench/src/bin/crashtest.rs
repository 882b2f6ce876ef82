//! `crashtest` — bounded crash-injection sweeps from the command line and CI.
//!
//! ```text
//! cargo run -p flit-bench --release --bin crashtest -- [flags]
//!
//!   --structures a,b,..   list|hashtable|bst|skiplist|msqueue|hamt (default: all)
//!                         plus the pseudo-structure hamt-snapshot: the HAMT
//!                         snapshot-consistency sweep (runs by default; when an
//!                         explicit list is given it runs only if listed)
//!   --methods a,b,..      automatic|nvtraverse|manual|volatile-broken
//!                         (default: the three correct methods)
//!   --policies a,b,..     plain|flit-ht|flit-adjacent|flit-cacheline|link-persist
//!                         (default: plain,flit-ht,flit-adjacent,link-persist)
//!   --history KIND        scripted|random                       (default: scripted)
//!   --seed N              random-history seed (0x.. accepted)   (default: 0x2a)
//!   --ops N               random-history length                 (default: 48)
//!   --key-range N         random-history key universe           (default: 12)
//!   --budget N            max crash points per case, 0 = every event (default: 64)
//!   --elision MODE        on|off|both: persist-epoch elision of the replayed
//!                         backend (default: both — sweep the elided stream AND
//!                         the paper-literal one; with --crash-at the default is
//!                         `on` only, because crash indices are stream-specific)
//!   --crash-at K          inject exactly one crash point (repro mode). K is a
//!                         stable ABSOLUTE event index — construction events
//!                         included — portable across runs and machines thanks
//!                         to arena allocation (flit-alloc)
//!   --commit a,b,..       immediate|batched-<k>: commit modes the replayed
//!                         databases run with (default: immediate). Batched
//!                         sweeps check the group-commit contract: acknowledged
//!                         operations survive, the unacknowledged tail recovers
//!                         to a consistent prefix
//!   --broken-acks         acknowledge obligations WITHOUT fencing in the main
//!                         matrix (repro mode for acknowledge-before-fence
//!                         violations; such cases are expected to fail)
//!   --json PATH           write a machine-readable report (CI artifact)
//!   --skip-control        do not run the deliberately broken controls
//!                         (volatile-broken, and acknowledge-before-fence when
//!                         a batched commit mode is requested)
//! ```
//!
//! Sweeps cover the full absolute event span `0..=events_total`, *including the
//! construction window*: a crash before the structure's recovery root became
//! durable must recover to the empty structure, purely from the frozen image and
//! the arena's root table.
//!
//! Exit status is `0` only when every correct-method sweep found zero violations
//! **and** the broken control (unless skipped) found at least one — a control that
//! fails to fail means the harness itself is broken. Violations print complete
//! repro strings: paste the flags after `crashtest` to replay one crash point.

use flit_bench::parse_u64;
use flit_crashtest::{
    run_case, run_hamt_snapshot_case, run_matrix, HistorySpec, MethodKind, PolicyKind,
    StructureKind, SweepReport, SweepSettings, SNAPSHOT_STRUCTURE,
};
use flit_obs::json_str;
use flit_pmem::{CommitMode, ElisionMode};
use flit_workload::applicable;

struct Args {
    structures: Vec<StructureKind>,
    /// Run the HAMT snapshot-consistency sweep ([`run_hamt_snapshot_case`]).
    snapshot_sweep: bool,
    methods: Vec<MethodKind>,
    policies: Vec<PolicyKind>,
    history: HistorySpec,
    settings: SweepSettings,
    elisions: Vec<ElisionMode>,
    commits: Vec<CommitMode>,
    json: Option<String>,
    skip_control: bool,
}

fn parse_list<T>(value: &str, parse: impl Fn(&str) -> Option<T>, what: &str) -> Vec<T> {
    value
        .split(',')
        .map(|item| {
            parse(item.trim()).unwrap_or_else(|| {
                eprintln!("unknown {what} {item:?}");
                std::process::exit(2);
            })
        })
        .collect()
}

fn parse_args() -> Args {
    let mut structures = StructureKind::ALL.to_vec();
    let mut snapshot_sweep = None;
    let mut methods = MethodKind::CORRECT.to_vec();
    let mut policies = vec![
        PolicyKind::Plain,
        PolicyKind::FlitHt,
        PolicyKind::FlitAdjacent,
        PolicyKind::LinkPersist,
    ];
    let mut history_kind = "scripted".to_string();
    let mut seed = 0x2au64;
    let mut ops = 48usize;
    let mut key_range = 12u64;
    let mut budget = 64usize;
    let mut crash_at = None;
    let mut elisions = None;
    let mut commits = vec![CommitMode::Immediate];
    let mut broken_acks = false;
    let mut json = None;
    let mut skip_control = false;

    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> String {
        *i += 1;
        argv.get(*i).cloned().unwrap_or_else(|| {
            eprintln!("flag {} needs a value", argv[*i - 1]);
            std::process::exit(2);
        })
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--structures" => {
                let v = value(&mut i);
                // `hamt-snapshot` is a pseudo-structure: it selects the snapshot
                // sweep, not a StructureKind, so repro strings for snapshot
                // violations replay through the same flag.
                snapshot_sweep = Some(v.split(',').any(|s| s.trim() == SNAPSHOT_STRUCTURE));
                let rest: Vec<&str> = v
                    .split(',')
                    .map(str::trim)
                    .filter(|s| *s != SNAPSHOT_STRUCTURE)
                    .collect();
                structures = if rest.is_empty() {
                    Vec::new()
                } else {
                    parse_list(&rest.join(","), StructureKind::parse, "structure")
                };
            }
            "--methods" => methods = parse_list(&value(&mut i), MethodKind::parse, "method"),
            "--policies" => policies = parse_list(&value(&mut i), PolicyKind::parse, "policy"),
            "--history" => history_kind = value(&mut i),
            "--seed" => seed = parse_u64(&value(&mut i)).expect("numeric --seed"),
            "--ops" => ops = value(&mut i).parse().expect("numeric --ops"),
            "--key-range" => key_range = parse_u64(&value(&mut i)).expect("numeric --key-range"),
            "--budget" => budget = value(&mut i).parse().expect("numeric --budget"),
            "--crash-at" => crash_at = Some(parse_u64(&value(&mut i)).expect("numeric --crash-at")),
            "--elision" => {
                let v = value(&mut i);
                elisions = Some(match v.as_str() {
                    "both" => vec![ElisionMode::Enabled, ElisionMode::Disabled],
                    other => vec![ElisionMode::parse(other).unwrap_or_else(|| {
                        eprintln!("unknown --elision {other:?}: expected on|off|both");
                        std::process::exit(2);
                    })],
                });
            }
            "--commit" => commits = parse_list(&value(&mut i), CommitMode::parse, "commit mode"),
            "--broken-acks" => broken_acks = true,
            "--json" => json = Some(value(&mut i)),
            "--skip-control" => skip_control = true,
            other => {
                eprintln!("unknown flag {other:?} (see the module docs for usage)");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let history = match history_kind.as_str() {
        "scripted" => HistorySpec::Scripted,
        "random" => HistorySpec::Random {
            seed,
            ops,
            key_range,
        },
        other => {
            eprintln!("unknown --history {other:?}: expected scripted|random");
            std::process::exit(2);
        }
    };
    // Crash indices are stream-specific (elision removes fence events), so repro
    // mode must not silently replay the index under both streams: default to the
    // elided stream and let the repro string's explicit --elision pin the right one.
    let elisions = elisions.unwrap_or_else(|| {
        if crash_at.is_some() {
            eprintln!("note: --crash-at without --elision replays the elision-on stream only");
            vec![ElisionMode::Enabled]
        } else {
            vec![ElisionMode::Enabled, ElisionMode::Disabled]
        }
    });
    Args {
        structures,
        // Default matrix: the snapshot sweep rides along. Explicit --structures
        // lists opt in by naming `hamt-snapshot`.
        snapshot_sweep: snapshot_sweep.unwrap_or(true),
        methods,
        policies,
        history,
        settings: SweepSettings {
            budget,
            crash_at,
            elision: ElisionMode::Enabled,
            commit: CommitMode::Immediate,
            broken_acks,
        },
        elisions,
        commits,
        json,
        skip_control,
    }
}

fn report_json(report: &SweepReport, expected_violations: bool) -> String {
    let violations: Vec<String> = report
        .violations
        .iter()
        .map(|v| {
            format!(
                r#"{{"crash_event":{},"on":"{}","completed_ops":{},"detail":{},"repro":{}}}"#,
                v.crash_event,
                v.triggered_on,
                v.completed_ops,
                json_str(&v.detail),
                json_str(&v.repro)
            )
        })
        .collect();
    let ok = if expected_violations {
        !report.clean()
    } else {
        report.clean()
    };
    format!(
        r#"{{"case":{},"structure":"{}","method":"{}","policy":"{}","elision":"{}","commit":"{}","broken_acks":{},"events_construction":{},"events_total":{},"points_tested":{},"expected_violations":{},"ok":{},"violations":[{}]}}"#,
        json_str(&report.case.id()),
        report.case.structure,
        report.case.method,
        report.case.policy,
        report.case.elision.name(),
        report.case.commit.name(),
        report.case.broken_acks,
        report.events_construction,
        report.events_total,
        report.points_tested,
        expected_violations,
        ok,
        violations.join(",")
    )
}

fn main() {
    let args = parse_args();
    let started = std::time::Instant::now();

    println!(
        "flit-crashtest sweep — history {}, budget {} point(s){}",
        args.history.label(),
        if args.settings.budget == 0 {
            "every-event".to_string()
        } else {
            args.settings.budget.to_string()
        },
        match args.settings.crash_at {
            Some(k) => format!(", single crash index {k}"),
            None => String::new(),
        }
    );

    // The main matrix: correct methods must sweep clean, under every requested
    // elision mode (the two modes replay different instruction streams) and
    // every requested commit mode (immediate checks the strict per-operation
    // contract, batched the group-commit acked-floor contract).
    let mut reports = Vec::new();
    for &elision in &args.elisions {
        for &commit in &args.commits {
            let settings = SweepSettings {
                elision,
                commit,
                ..args.settings
            };
            reports.extend(run_matrix(
                &args.structures,
                &args.methods,
                &args.policies,
                args.history,
                &settings,
            ));
            if args.snapshot_sweep {
                // The snapshot-consistency sweep: a snapshot taken mid-history
                // and held across the crash must replay to exactly its frozen
                // contents from the retained-root table.
                let policy = args.policies.first().copied().unwrap_or(PolicyKind::FlitHt);
                reports.push(run_hamt_snapshot_case(policy, args.history, &settings));
            }
        }
    }
    let mut failed = false;
    println!("\n=== sweep matrix ===");
    for report in &reports {
        // --broken-acks turns every case into an expected-to-fail control
        // (repro mode for acknowledge-before-fence violations).
        let broken_method = report.case.method == MethodKind::VolatileBroken.key();
        let expected = report.case.broken_acks || broken_method;
        println!("{}", report.summary_line());
        if expected {
            // Explicitly requested broken method: it must fail, like the control.
            if report.clean() {
                failed = true;
                println!(
                    "  HARNESS BUG: {} swept clean although its durability method is \
                     deliberately broken",
                    report.case.id()
                );
            } else {
                println!("  failed as expected, e.g.: {}", report.violations[0]);
            }
            continue;
        }
        if !report.clean() {
            failed = true;
            for v in &report.violations {
                println!("  VIOLATION: {v}");
            }
        }
    }

    // The broken control: it must FAIL, proving the harness can catch bugs.
    let mut control_reports = Vec::new();
    if !args.skip_control {
        println!("\n=== broken control (volatile-broken: violations are EXPECTED) ===");
        for &structure in &args.structures {
            for &elision in &args.elisions {
                // Pick a control policy applicable to the structure; flit-HT applies
                // to every structure, so the control is never silently skipped.
                let policy = args
                    .policies
                    .iter()
                    .copied()
                    .find(|&p| applicable(structure, MethodKind::VolatileBroken, p))
                    .unwrap_or(PolicyKind::FlitHt);
                let settings = SweepSettings {
                    elision,
                    commit: CommitMode::Immediate,
                    broken_acks: false,
                    ..args.settings
                };
                let report = run_case(
                    structure,
                    MethodKind::VolatileBroken,
                    policy,
                    args.history,
                    &settings,
                )
                .expect("a supported control policy was selected");
                println!("{}", report.summary_line());
                if report.clean() {
                    failed = true;
                    println!(
                        "  HARNESS BUG: the broken control swept clean on {} — crash injection is \
                     not detecting lost operations",
                        report.case.id()
                    );
                } else {
                    println!(
                        "  control failed as expected, e.g.: {}",
                        report.violations[0]
                    );
                }
                control_reports.push(report);
            }
        }
        // The batched contract's own control: acknowledging obligations without
        // fencing claims durability for operations whose write-backs are still
        // pending — the sweep must catch the lie, proving the acked-floor check
        // has teeth. Runs once per requested batched commit mode.
        let batched: Vec<CommitMode> = args
            .commits
            .iter()
            .copied()
            .filter(|c| c.is_batched())
            .collect();
        if !batched.is_empty() {
            println!(
                "\n=== broken control (acknowledge-before-fence: violations are EXPECTED) ==="
            );
        }
        for &commit in &batched {
            for &structure in &args.structures {
                let settings = SweepSettings {
                    elision: ElisionMode::Enabled,
                    commit,
                    broken_acks: true,
                    ..args.settings
                };
                let report = run_case(
                    structure,
                    MethodKind::Automatic,
                    PolicyKind::FlitHt,
                    args.history,
                    &settings,
                )
                .expect("flit-ht supports every structure");
                println!("{}", report.summary_line());
                if report.clean() {
                    failed = true;
                    println!(
                        "  HARNESS BUG: acknowledge-before-fence swept clean on {} — the \
                         acked-floor check is not detecting lost acknowledged operations",
                        report.case.id()
                    );
                } else {
                    println!(
                        "  control failed as expected, e.g.: {}",
                        report.violations[0]
                    );
                }
                control_reports.push(report);
            }
        }
        if control_reports.is_empty() && !(args.structures.is_empty() && args.snapshot_sweep) {
            // The control is the harness's self-check: running zero control cases
            // (e.g. an empty --structures list) must not be mistaken for success.
            failed = true;
            println!("HARNESS BUG: no broken-control case ran — the self-check was skipped");
        }
    }

    if let Some(path) = &args.json {
        let mut entries: Vec<String> = reports
            .iter()
            .map(|r| report_json(r, r.case.method == MethodKind::VolatileBroken.key()))
            .collect();
        entries.extend(control_reports.iter().map(|r| report_json(r, true)));
        let doc = format!(
            r#"{{"history":{},"budget":{},"ok":{},"elapsed_ms":{},"reports":[{}]}}"#,
            json_str(&args.history.label()),
            args.settings.budget,
            !failed,
            started.elapsed().as_millis(),
            entries.join(",")
        );
        std::fs::write(path, doc).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        });
        println!("\nwrote JSON report to {path}");
    }

    println!(
        "\n{} case(s) swept in {:.1}s — {}",
        reports.len() + control_reports.len(),
        started.elapsed().as_secs_f64(),
        if failed { "FAILED" } else { "OK" }
    );
    std::process::exit(i32::from(failed));
}
