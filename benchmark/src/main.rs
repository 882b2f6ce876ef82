//! `flit-benchmark`: the repository's benchmark.
//!
//! ```text
//! flit-benchmark --workload <name> [--seed <n>] [--trace 0|1] [--smoke] [--out <dir>]
//!                [--seconds <run_seconds>]
//! flit-benchmark diff <setA> <setB> [--aa] [--spec BENCHMARK.json]
//! ```
//!
//! How much a run does is fixed per workload (`spec::WORKLOADS`), not set on
//! the command line. `--seconds` exists because the driver that runs
//! `BENCHMARK.json`'s command appends it: the only value accepted is the
//! `run_seconds` that file declares for the fixed shape.

use std::path::PathBuf;

use flit_benchmark::probes::Charges;
use flit_benchmark::run::{self, Options, Report};
use flit_benchmark::subjects::LATENCY;
use flit_benchmark::{contract, diff, json, spec, sys};

/// `--seed` when the flag is absent.
const DEFAULT_SEED: u64 = 1;
/// How many processes a run may go through looking for a spin calibration that
/// charges what the latency model says (see [`Charges::in_band`]). About half
/// of all draws come out of band on the machine this was written on, and a
/// draw costs 50 ms: twelve leave one run in thousands out of band by chance.
const CALIBRATION_DRAWS: u32 = 12;
/// Carries the draw number across a re-execution.
const DRAW_VAR: &str = "FLIT_BENCHMARK_CALIBRATION_DRAW";

const USAGE: &str = "usage: flit-benchmark --workload <name> [--seed <n>] [--trace 0|1] [--smoke] \
                     [--out <dir>] [--seconds <run_seconds of ./BENCHMARK.json>]\n       \
                     flit-benchmark diff <setA> <setB> [--aa] [--spec BENCHMARK.json]";

struct Cli {
    options: Options,
    out: Option<PathBuf>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut workload = None;
    let (mut seed, mut trace, mut smoke, mut out) = (DEFAULT_SEED, false, false, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        let number = |s: &String| {
            s.parse::<u64>()
                .map_err(|_| format!("{flag}: {s:?} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(spec::workload(name).ok_or_else(|| {
                    let known: Vec<_> = spec::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?}; known: {}", known.join(", "))
                })?);
            }
            "--seed" => seed = number(value()?)?,
            "--seconds" => check_seconds(number(value()?)?)?,
            "--trace" => trace = number(value()?)? != 0,
            "--smoke" => smoke = true,
            "--out" => out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(Cli {
        options: Options {
            workload: workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?,
            seed,
            trace,
            smoke,
            out_root: out_root(),
        },
        out,
    })
}

/// A run's length is a property of its workload's fixed shape, which
/// `BENCHMARK.json` declares as `run_seconds`; a caller asking for any other
/// length is refused rather than given a run it did not ask for.
fn check_seconds(asked: u64) -> Result<(), String> {
    let declared = contract::load(std::path::Path::new(contract::FILE))?.run_seconds;
    if asked == declared {
        Ok(())
    } else {
        Err(format!(
            "--seconds {asked}: a run's shape is fixed, and {} declares it as {declared} s",
            contract::FILE
        ))
    }
}

/// Where pool files and traces go: beside the build directory the binary runs
/// from (`<target>/flit-benchmark-out`), which is inside the checkout and
/// never under version control.
fn out_root() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.join("flit-benchmark-out")))
        .unwrap_or_else(|| PathBuf::from("benchmark/out"))
}

/// The latency model calibrates its spin loop once per process, on first use,
/// and a process whose calibration came out on the wrong side of a rounding
/// edge charges every pwb a quarter more. That is a property of the process,
/// not of anything a run measures, so such a process replaces itself (same
/// pid, same arguments) to draw again, a bounded number of times.
fn settle_calibration(args: &[String]) -> (Charges, u32) {
    let draw = std::env::var(DRAW_VAR)
        .ok()
        .and_then(|d| d.parse().ok())
        .unwrap_or(1);
    let charges = Charges::measure(5, 20_000);
    #[cfg(unix)]
    if !charges.in_band() && draw < CALIBRATION_DRAWS {
        use std::os::unix::process::CommandExt;
        if let Ok(exe) = std::env::current_exe() {
            // `exec` only returns on failure; the run then goes ahead as it is.
            let _ = std::process::Command::new(exe)
                .args(args)
                .env(DRAW_VAR, (draw + 1).to_string())
                .exec();
        }
    }
    (charges, draw)
}

fn result_json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(m.name),
                m.value,
                json::quote(m.unit)
            )
        })
        .collect();
    format!(
        "\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("diff") {
        match diff::run(&args[1..]) {
            Ok(code) => std::process::exit(code),
            Err(e) => {
                eprintln!("flit-benchmark diff: {e}");
                std::process::exit(2);
            }
        }
    }
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("flit-benchmark: {e}");
            std::process::exit(2);
        }
    };
    let opts = &cli.options;
    if let Err(e) = std::fs::create_dir_all(&opts.out_root) {
        eprintln!("flit-benchmark: creating {}: {e}", opts.out_root.display());
        std::process::exit(2);
    }

    sys::fix_malloc_mmap_threshold();
    let cpu = sys::pin_client_thread();
    let (charges, draw) = settle_calibration(&args);
    let fingerprint = format!(
        "\"nproc\": {}, \"rustc\": {}, \"latency_model\": {}, \"pool_dir\": {}, \"pinned_cpu\": {}",
        sys::nproc(),
        json::quote(&sys::rustc_version()),
        json::quote(&format!(
            "SimNvram spin-charged Optane model: {} ns/pwb, {} ns/pfence, elision on, CommitMode::Immediate",
            LATENCY.pwb_ns, LATENCY.pfence_ns
        )),
        json::quote(&opts.out_root.display().to_string()),
        cpu.map_or("null".to_string(), |c| c.to_string()),
    );
    println!(
        "# flit-benchmark {} seed={} trace={}{}; one client thread, closed loop",
        opts.workload.name,
        opts.seed,
        u8::from(opts.trace),
        if opts.smoke { " smoke" } else { "" },
    );
    println!(
        "# every time below is relative to SimNvram's spin-charged Optane model ({} ns/pwb, \
         {} ns/pfence, elision on, CommitMode::Immediate) - not a device measurement",
        LATENCY.pwb_ns, LATENCY.pfence_ns
    );
    println!("# machine: {{{fingerprint}}}");
    println!(
        "# latency model as realised by this process: {:.1} ns/pwb, {:.1} ns/pfence \
         (calibration draw {draw} of {CALIBRATION_DRAWS})",
        charges.pwb_ns, charges.pfence_ns
    );

    let mut report = run::run(opts);
    report.notes.extend(charges.note());
    for m in &report.metrics {
        println!("{:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for note in &report.notes {
        println!("# {note}");
    }
    let result = result_json(&report);
    if let Some(dir) = &cli.out {
        let path = dir.join(format!(
            "{}-seed{}-trace{}.json",
            opts.workload.name,
            opts.seed,
            u8::from(opts.trace),
        ));
        let record = format!(
            "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"smoke\": {}, \
             \"fingerprint\": {{{fingerprint}}}, {result}}}\n",
            json::quote(opts.workload.name),
            opts.seed,
            u8::from(opts.trace),
            opts.smoke,
        );
        if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, record)) {
            eprintln!("flit-benchmark: writing {}: {e}", path.display());
            std::process::exit(2);
        }
    }
    println!("{{{result}}}");
    std::process::exit(i32::from(report.failed != 0));
}
