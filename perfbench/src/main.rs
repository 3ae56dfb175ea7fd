//! The repository's benchmark: one binary for every workload.
//!
//! ```text
//! perfbench --workload <fig4-cold|fleet-rerun|serve-mix> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Every workload builds its inputs from `--seed` alone, measures for
//! `--seconds` in 20 slices that each start with a timed set-up,
//! checks its outputs against a reference, and prints one JSON line last:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` a separate, traced
//! run prints each layer's ledger table on stderr and reports the
//! per-layer metrics. Layers a workload does not exercise report 0.
//!
//! Hidden modes: the binary is also its own shard worker (the shard
//! crate's `--shard-worker` flag block), its own daemon (`--daemon`) and
//! its own one-sweep process (`--fig4-once`).
//! Test-only flags: `--tiny` shrinks every input; `--corrupt-reference`
//! damages the reference so the output checks must fail.

mod fig4;
mod fleet;
mod host;
mod measure;
mod serve;

use std::path::PathBuf;
use std::time::Duration;

use measure::Outcome;

/// The benchmark's definition. It is the one list of metric names and
/// units: the run reports exactly the metrics of the section its mode
/// selects.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`
/// (`end_to_end` or `per_layer`), in file order. The file's metric
/// objects are flat and their strings hold no quotes or brackets, which
/// is all this scanner needs.
pub fn declared(section: &str) -> Vec<(&'static str, &'static str)> {
    let key = format!("\"{section}\"");
    let start = BENCHMARK_JSON
        .find(&key)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section} section"));
    let body = &BENCHMARK_JSON[start..];
    let body = &body[..body.find(']').expect("the section's list ends")];
    let field = |object: &'static str, name: &str| -> &'static str {
        let at = object
            .find(&format!("\"{name}\""))
            .unwrap_or_else(|| panic!("a {section} metric lacks {name}"));
        let rest = &object[at + name.len() + 2..];
        let open = rest.find('"').expect("a string value") + 1;
        &rest[open..open + rest[open..].find('"').expect("the string ends")]
    };
    body.split('{')
        .skip(1)
        .map(|object| (field(object, "name"), field(object, "unit")))
        .collect()
}

/// Emits every per-layer metric from the values one workload measured;
/// layers it does not exercise report 0.
pub fn emit_layers(values: &[(&str, f64)], out: &mut Outcome) {
    let per_layer = declared("per_layer");
    for (name, _) in values {
        assert!(
            per_layer.iter().any(|(n, _)| n == name),
            "{name} is not a per_layer metric of BENCHMARK.json"
        );
    }
    for (name, unit) in per_layer {
        let value = values
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v);
        out.metric(name, value, unit);
    }
}

/// Whether a run reported exactly the metrics of `section`, with their
/// units; the first difference if not.
fn reports_section(out: &Outcome, section: &str) -> Result<(), String> {
    let want = declared(section);
    let got: Vec<(&str, &str)> = out
        .metrics
        .iter()
        .map(|m| (m.name.as_str(), m.unit))
        .collect();
    for w in &want {
        if !got.contains(w) {
            return Err(format!("{section} metric {w:?} was not reported"));
        }
    }
    match got.iter().find(|g| !want.contains(g)) {
        Some(extra) => Err(format!("{extra:?} is not a {section} metric")),
        None => Ok(()),
    }
}

/// One run's settings, all from the command line.
pub struct RunConfig {
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub tiny: bool,
    pub corrupt: bool,
    /// Scratch directory inside the checkout, removed at exit.
    pub work: PathBuf,
}

const WORKLOADS: &[&str] = &["fig4-cold", "fleet-rerun", "serve-mix"];

fn parse(args: &[String]) -> Result<(String, RunConfig), String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let (mut tiny, mut corrupt) = (false, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--tiny" => tiny = true,
            "--corrupt-reference" => corrupt = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {WORKLOADS:?})"
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let work = PathBuf::from(".bench_work").join(format!("{workload}-{}", std::process::id()));
    Ok((
        workload,
        RunConfig {
            seed: seed.ok_or("--seed is required")?,
            seconds: Duration::from_secs_f64(seconds),
            trace: trace.ok_or("--trace is required")?,
            tiny,
            corrupt,
            work,
        },
    ))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if mpdp_shard::parse_worker_invocation(&args).is_some() {
        fleet::worker_main(&args);
    }
    if args.get(1).map(String::as_str) == Some(serve::DAEMON_FLAG) {
        serve::daemon_main(&args[2..]);
    }
    if args.get(1).map(String::as_str) == Some(fig4::ONCE_FLAG) {
        fig4::once_main(&args[2..]);
    }
    let (workload, cfg) = match parse(&args[1..]) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = measure::fresh_dir(&cfg.work) {
        eprintln!("perfbench: cannot create {}: {e}", cfg.work.display());
        std::process::exit(1);
    }
    let result = match workload.as_str() {
        "fig4-cold" => fig4::run(&cfg),
        "fleet-rerun" => fleet::run(&cfg),
        _ => serve::run(&cfg),
    };
    let _ = std::fs::remove_dir_all(&cfg.work);
    let _ = std::fs::remove_dir(".bench_work");
    let section = if cfg.trace { "per_layer" } else { "end_to_end" };
    let result = result.and_then(|out| reports_section(&out, section).map(|()| out));
    match result {
        Ok(out) => {
            for p in &out.problems {
                eprintln!("perfbench: check failed: {p}");
            }
            println!("{}", out.json());
        }
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_sections_scan() {
        let e2e = declared("end_to_end");
        assert!(e2e.contains(&("setup_s", "s")), "{e2e:?}");
        let layers = declared("per_layer");
        assert!(layers.contains(&("cache.hits", "count")), "{layers:?}");
        assert!(layers.iter().all(|(n, u)| !n.is_empty() && !u.is_empty()));
    }
}
