//! `killtest` — process-kill crash rounds and corruption injection against
//! file-backed pools, from the command line and CI.
//!
//! ```text
//! cargo run -p flit-bench --release --bin killtest -- [flags]
//!
//!   --rounds N            seeded SIGKILL rounds per commit mode  (default: 10)
//!   --ops N               workload operations per round          (default: 150000)
//!   --hamt-rounds N       HAMT snapshot rounds per commit mode   (default: 5)
//!   --hamt-ops N          operations per HAMT snapshot round     (default: 20000;
//!                         the snapshot is taken after ops/3 operations and held
//!                         until the kill; copy-on-write churn makes these rounds
//!                         allocation-heavier than the hash-table rounds)
//!   --seed N              base seed for the kill-delay schedule  (default: 0x2a)
//!   --commit a,b,..       immediate|batched-<k>|both             (default: both,
//!                         where `both` = immediate,batched-8)
//!   --dir PATH            working directory for pool/sidecar files
//!                         (default: target/killtest under the current dir)
//!   --corruption-only     run only the corruption-injection suite
//!   --skip-corruption     run only the kill rounds
//!   --keep-pools          keep pool/sidecar files of passing rounds too
//!                         (for `flitctl inspect` / the CI obs-smoke job)
//! ```
//!
//! Each round spawns **this same binary** as a child (the hidden
//! `--kill-child` dispatch), which creates a fresh pool and runs the
//! deterministic hash-table workload while reporting its acknowledged floor
//! through a sidecar file; the parent SIGKILLs it mid-traffic at a
//! seed-derived point, re-opens the pool (validate → adopt → recover → GC)
//! and requires, judged by the crash sweeps' own checks: the recovered map
//! equals the model state after exactly `c` operations for some `c` at or
//! above the acknowledged floor (for HAMT rounds, the retained snapshot also
//! passes the snapshot sweep's check); the pool reads
//! dirty unless the child got as far as its orderly close (each round line
//! prints `pool dirty` or `pool clean`); and a second GC pass reclaims zero
//! slots. The corruption suite then clobbers one
//! persisted field of a valid pool at a time and requires each case to
//! surface as its matching typed `OpenError`.
//!
//! Exit status is `0` only when every round and every corruption case passed.
//! Failing rounds leave their pool and sidecar files under `--dir` so CI can
//! upload them as artifacts.

use std::path::PathBuf;
use std::process::ExitCode;

use flit_bench::parse_u64;
use flit_crashtest::kill::{
    child_main, child_main_hamt, corruption_suite, run_kill_round, KillRound, CHILD_FLAG,
};
use flit_pmem::CommitMode;

struct Args {
    rounds: u64,
    ops: u64,
    hamt_rounds: u64,
    hamt_ops: u64,
    seed: u64,
    commits: Vec<CommitMode>,
    dir: PathBuf,
    corruption_only: bool,
    skip_corruption: bool,
    keep_pools: bool,
}

fn parse_commits(s: &str) -> Option<Vec<CommitMode>> {
    let mut out = Vec::new();
    for word in s.split(',') {
        if word == "both" {
            out.push(CommitMode::Immediate);
            out.push(CommitMode::Batched(8));
        } else {
            out.push(CommitMode::parse(word)?);
        }
    }
    Some(out)
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        rounds: 10,
        ops: 150_000,
        hamt_rounds: 5,
        hamt_ops: 20_000,
        seed: 0x2a,
        commits: vec![CommitMode::Immediate, CommitMode::Batched(8)],
        dir: PathBuf::from("target/killtest"),
        corruption_only: false,
        skip_corruption: false,
        keep_pools: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--rounds" => args.rounds = parse_u64(&val("--rounds")?).ok_or("bad --rounds")?,
            "--ops" => args.ops = parse_u64(&val("--ops")?).ok_or("bad --ops")?.max(1),
            "--hamt-rounds" => {
                args.hamt_rounds = parse_u64(&val("--hamt-rounds")?).ok_or("bad --hamt-rounds")?
            }
            "--hamt-ops" => {
                args.hamt_ops = parse_u64(&val("--hamt-ops")?)
                    .ok_or("bad --hamt-ops")?
                    .max(3)
            }
            "--seed" => args.seed = parse_u64(&val("--seed")?).ok_or("bad --seed")?,
            "--commit" => {
                args.commits = parse_commits(&val("--commit")?).ok_or("bad --commit")?;
            }
            "--dir" => args.dir = PathBuf::from(val("--dir")?),
            "--corruption-only" => args.corruption_only = true,
            "--skip-corruption" => args.skip_corruption = true,
            "--keep-pools" => args.keep_pools = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// The hidden child dispatch: `killtest --kill-child <pool> <sidecar> <ops>
/// <commit>` runs the hash-table workload instead of the harness; the
/// `... hamt <snap_at>` suffix runs the HAMT snapshot workload.
fn child_dispatch() -> Option<ExitCode> {
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) != Some(CHILD_FLAG) {
        return None;
    }
    let hamt_snap = match argv.len() {
        6 => None,
        8 if argv[6] == "hamt" => match parse_u64(&argv[7]) {
            Some(n) => Some(n),
            None => return Some(ExitCode::from(2)),
        },
        _ => {
            eprintln!(
                "usage: killtest {CHILD_FLAG} <pool> <sidecar> <ops> <commit> [hamt <snap_at>]"
            );
            return Some(ExitCode::from(2));
        }
    };
    let ops = match parse_u64(&argv[4]) {
        Some(n) => n,
        None => return Some(ExitCode::from(2)),
    };
    let commit = match CommitMode::parse(&argv[5]) {
        Some(c) => c,
        None => return Some(ExitCode::from(2)),
    };
    let run = match hamt_snap {
        Some(snap_at) => child_main_hamt(argv[2].as_ref(), argv[3].as_ref(), ops, commit, snap_at),
        None => child_main(argv[2].as_ref(), argv[3].as_ref(), ops, commit),
    };
    match run {
        Ok(()) => Some(ExitCode::SUCCESS),
        Err(e) => {
            eprintln!("killtest child: {e}");
            Some(ExitCode::from(3))
        }
    }
}

fn main() -> ExitCode {
    if let Some(code) = child_dispatch() {
        return code;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("killtest: {e}");
            return ExitCode::from(2);
        }
    };
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("killtest: current_exe: {e}");
            return ExitCode::from(2);
        }
    };

    let mut failures = 0u64;

    if !args.corruption_only {
        for &commit in &args.commits {
            // Hash-table rounds, then the allocation-heavier HAMT snapshot
            // rounds (a snapshot is taken at ops/3 and held until the kill;
            // the reopened pool must replay it to exactly its frozen
            // contents).
            let mut specs: Vec<(&str, KillRound)> = Vec::new();
            for round in 0..args.rounds {
                specs.push((
                    "ht",
                    KillRound {
                        exe: exe.clone(),
                        dir: args.dir.clone(),
                        round,
                        seed: args.seed,
                        ops: args.ops,
                        commit,
                        keep_files: args.keep_pools,
                        hamt_snap: None,
                    },
                ));
            }
            for round in 0..args.hamt_rounds {
                specs.push((
                    "hamt",
                    KillRound {
                        exe: exe.clone(),
                        dir: args.dir.clone(),
                        round,
                        seed: args.seed,
                        ops: args.hamt_ops,
                        commit,
                        keep_files: args.keep_pools,
                        hamt_snap: Some(args.hamt_ops / 3),
                    },
                ));
            }
            for (kind, spec) in specs {
                match run_kill_round(&spec) {
                    Ok(report) => println!(
                        "{kind} round {:>3} [{}]: ok — prefix {} (floor {}), pool {}, {} leaked \
                         slot(s) reclaimed, open {}us (validate {}us, adopt {}us, recover {}us, \
                         gc {}us){}",
                        spec.round,
                        commit.name(),
                        report.matched_prefix,
                        report.acked_floor,
                        if report.clean_close { "clean" } else { "dirty" },
                        report.reclaimed_slots,
                        report.timings.total_ns() / 1_000,
                        report.timings.validate_ns / 1_000,
                        report.timings.adopt_ns / 1_000,
                        report.timings.recover_ns / 1_000,
                        report.timings.gc_ns / 1_000,
                        if report.child_finished {
                            ", child finished first"
                        } else {
                            ""
                        },
                    ),
                    Err(v) => {
                        failures += 1;
                        eprintln!(
                            "{kind} round {:>3} [{}]: FAIL — {v} (pool kept at {})",
                            spec.round,
                            commit.name(),
                            spec.pool_path().display(),
                        );
                    }
                }
            }
        }
    }

    if !args.skip_corruption {
        for outcome in corruption_suite(&args.dir) {
            match outcome.failure {
                None => println!("corruption {:<36}: ok", outcome.name),
                Some(why) => {
                    failures += 1;
                    eprintln!("corruption {:<36}: FAIL — {why}", outcome.name);
                }
            }
        }
    }

    if failures > 0 {
        eprintln!("killtest: {failures} failure(s)");
        ExitCode::FAILURE
    } else {
        println!("killtest: all rounds and corruption cases passed");
        ExitCode::SUCCESS
    }
}
