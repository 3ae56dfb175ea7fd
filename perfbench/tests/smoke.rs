//! Tiny-size runs of every workload through the real binary.
//!
//! Each run must print every metric named in `BENCHMARK.json` with its
//! unit, pass its own output checks (including the ledger conservation
//! check in the traced mode), and fail them when the reference is
//! corrupted. Seed 7 is a tuning seed; 9001 is held out and used nowhere
//! else.

use std::process::Command;

const SEEDS: [&str; 2] = ["7", "9001"];

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("{section} section"));
    let body = &text[start..start + text[start..].find(']').expect("section ends")];
    let field = |chunk: &str, key: &str| -> Option<String> {
        let at = chunk.find(&format!("\"{key}\""))?;
        let rest = &chunk[at + key.len() + 2..];
        let open = rest.find('"')? + 1;
        let close = open + rest[open..].find('"')?;
        Some(rest[open..close].to_string())
    };
    body.split('{')
        .skip(1)
        .map(|chunk| {
            (
                field(chunk, "name").expect("metric name"),
                field(chunk, "unit").expect("metric unit"),
            )
        })
        .collect()
}

struct Result {
    correct: bool,
    failed: u64,
    attempted: u64,
    line: String,
    stderr: String,
}

fn run(workload: &str, seed: &str, trace: &str, extra: &[&str]) -> Result {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", seed, "--seconds", "1"])
        .args(["--trace", trace, "--tiny"])
        .args(extra)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(
        out.status.success(),
        "{workload}: exit {}: {stderr}",
        out.status
    );
    let line = stdout.lines().last().expect("a result line").to_string();
    let num = |key: &str| -> u64 {
        let at = line.find(&format!("\"{key}\": ")).expect(key) + key.len() + 4;
        let digits: String = line[at..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        digits.parse().expect("whole number")
    };
    Result {
        correct: line.starts_with("{\"correct\": true,"),
        failed: num("failed"),
        attempted: num("attempted"),
        line,
        stderr,
    }
}

fn assert_metrics(r: &Result, section: &str) {
    for (name, unit) in declared(section) {
        let want = format!("\"{name}\": {{\"value\": ");
        let at = r
            .line
            .find(&want)
            .unwrap_or_else(|| panic!("{name} missing from {}", r.line));
        let tail = &r.line[at + want.len()..];
        assert!(
            tail.split('}')
                .next()
                .expect("value")
                .ends_with(&format!("\"unit\": \"{unit}\"")),
            "{name} lacks unit {unit}: {}",
            r.line
        );
    }
}

fn smoke(workload: &str) {
    for seed in SEEDS {
        let r = run(workload, seed, "0", &[]);
        assert!(r.correct, "{workload} seed {seed}: {}", r.stderr);
        assert!(r.attempted > 0 && r.failed == 0, "{}", r.line);
        assert_metrics(&r, "end_to_end");
    }
    let traced = run(workload, SEEDS[1], "1", &[]);
    assert!(traced.correct, "{workload} traced: {}", traced.stderr);
    assert!(
        traced.stderr.contains("(conservation share 5%: ok)"),
        "{workload} ledger: {}",
        traced.stderr
    );
    assert_metrics(&traced, "per_layer");
    let corrupted = run(workload, SEEDS[0], "0", &["--corrupt-reference"]);
    assert!(
        !corrupted.correct,
        "{workload}: checks passed against a corrupted reference"
    );
}

#[test]
fn fig4_cold() {
    smoke("fig4-cold");
}

#[test]
fn fleet_rerun() {
    smoke("fleet-rerun");
}

#[test]
fn serve_mix() {
    smoke("serve-mix");
}
