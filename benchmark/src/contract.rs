//! What `BENCHMARK.json` fixes and the binary must not keep a copy of: the
//! workload names, the end-to-end metrics with their directions and bounds,
//! and the declared length of a run.

use std::path::Path;

use crate::json::{self, Value};

/// The file, relative to the repository root every command runs from.
pub const FILE: &str = "BENCHMARK.json";

/// One end-to-end metric as `BENCHMARK.json` declares it.
pub struct MetricSpec {
    /// Name, as it appears in a run's result object.
    pub name: String,
    /// Direction: a larger value is worse.
    pub lower_is_better: bool,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// The parts of `BENCHMARK.json` the binary reads.
pub struct Contract {
    /// `run_seconds`: the nominal length of a run's measured chunks.
    pub run_seconds: u64,
    /// Workload names, in the file's order.
    pub workloads: Vec<String>,
    /// End-to-end metrics, in the file's order.
    pub end_to_end: Vec<MetricSpec>,
}

/// Read `path`.
pub fn load(path: &Path) -> Result<Contract, String> {
    let at = |what: &str| format!("{}: {what}", path.display());
    let text = std::fs::read_to_string(path).map_err(|e| at(&e.to_string()))?;
    let doc = json::parse(&text).map_err(|e| at(&e))?;
    let list = |key: &str| {
        doc.get(key)
            .and_then(Value::as_arr)
            .ok_or_else(|| at(&format!("no \"{key}\" array")))
    };
    let name_of = |v: &Value| {
        v.get("name")
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| at("entry without a name"))
    };
    let run_seconds = doc
        .get("run_seconds")
        .and_then(Value::as_f64)
        .filter(|s| s.fract() == 0.0 && *s >= 1.0)
        .ok_or_else(|| at("no whole \"run_seconds\""))? as u64;
    let workloads = list("workloads")?
        .iter()
        .map(name_of)
        .collect::<Result<_, _>>()?;
    let end_to_end = list("end_to_end")?
        .iter()
        .map(|m| {
            Ok(MetricSpec {
                name: name_of(m)?,
                lower_is_better: m.get("better").and_then(Value::as_str) != Some("higher"),
                bound: m
                    .get("bound")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| at("metric without a bound"))?,
            })
        })
        .collect::<Result<_, String>>()?;
    Ok(Contract {
        run_seconds,
        workloads,
        end_to_end,
    })
}
