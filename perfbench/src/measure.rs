//! Clocks, order statistics, process accounting and the result record
//! shared by every workload.

use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Microseconds in a duration, as a float with sub-microsecond digits.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Times one call.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// Nearest-rank quantile of `values` (`q` in `[0, 1]`); sorts in place.
/// `NaN` sorts last, so a failed request recorded as `f64::INFINITY`
/// counts as missing every latency limit.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    values.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

/// Median of `values`; sorts in place.
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// Slices a measurement window is cut into. Each slice starts with one
/// timed set-up, so `setup_s` samples the whole run, not its first second.
pub const SLICES: u32 = 20;

/// `setup_s` from set-up samples already in nominal-host seconds: their
/// median.
pub fn setup_metric(out: &mut Outcome, setups: &[f64]) {
    let mut s = setups.to_vec();
    out.metric("setup_s", median(&mut s), "s");
}

/// Prints the wall-clock figures on stderr: throughput and per-op
/// latency. They stay out of the result line because wall time on the
/// benchmark host moves 20–40% between runs (see the README), more than
/// any regression bound can hold; CPU time per op is the gated figure.
pub fn report_wall(workload: &str, ops: usize, busy: Duration, op: &str, latencies: &mut [f64]) {
    eprintln!(
        "{workload}: {:.1} ops/s over {:.1} s; {op} latency p50 {:.0} us, p90 {:.0} us, \
         p99 {:.0} us ({} samples)",
        ops as f64 / busy.as_secs_f64(),
        busy.as_secs_f64(),
        quantile(latencies, 0.5),
        quantile(latencies, 0.9),
        quantile(latencies, 0.99),
        latencies.len()
    );
}

/// Prints the host normalization on stderr: CPU per op as measured, and
/// the host's median slowness over the run.
pub fn report_host(workload: &str, ops: usize, norm: &crate::host::Nominal) {
    eprintln!(
        "{workload}: {:.1} ops per measured CPU second, {:.1} per nominal CPU second; \
         host slowness median {:.3} over {} samples",
        ops as f64 / norm.raw.as_secs_f64(),
        ops as f64 / norm.nominal_s,
        norm.median_slowness(),
        norm.samples.len()
    );
}

/// Median of durations, in microseconds.
pub fn median_us(values: &[Duration]) -> f64 {
    let mut v: Vec<f64> = values.iter().map(|d| us(*d)).collect();
    median(&mut v)
}

#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;

/// CPU time and peak RSS in bytes of this process (`children == false`)
/// or of all its reaped children and their reaped descendants (`children
/// == true`; the RSS is then the largest child's).
fn rusage(children: bool) -> (Duration, u64) {
    let mut ru = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    let who = if children {
        RUSAGE_CHILDREN
    } else {
        RUSAGE_SELF
    };
    // SAFETY: `RUsage` matches the x86-64/aarch64 Linux `struct rusage`
    // layout (two `timeval`s then fourteen `long`s), and `ru` is a valid,
    // exclusively borrowed value for the call's duration.
    let rc = unsafe { getrusage(who, &mut ru) };
    assert_eq!(rc, 0, "getrusage cannot fail for SELF/CHILDREN");
    let tv = |t: [i64; 2]| Duration::from_secs(t[0] as u64) + Duration::from_micros(t[1] as u64);
    (tv(ru.utime) + tv(ru.stime), ru.maxrss.max(0) as u64 * 1024)
}

/// CPU time of this process plus every child it has reaped.
pub fn cpu_self_and_children() -> Duration {
    rusage(false).0 + rusage(true).0
}

/// CPU time of this process alone.
pub fn cpu_self() -> Duration {
    rusage(false).0
}

/// Peak RSS (`VmHWM`) of this process in KiB.
pub fn own_peak_rss_kib() -> Option<u64> {
    proc_status_field(std::process::id(), "VmHWM")
}

/// `utime + stime` of a live process from `/proc/<pid>/stat`.
pub fn proc_cpu(pid: u32) -> Option<Duration> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, 12 and 13 after `) `.
    let rest = &text[text.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split(' ').collect();
    let ticks: u64 = fields.get(11)?.parse::<u64>().ok()? + fields.get(12)?.parse::<u64>().ok()?;
    // USER_HZ is 100 on every Linux ABI this runs on.
    Some(Duration::from_millis(ticks * 10))
}

/// One `Key:   <n> kB`-style field of `/proc/<pid>/status`, as a number.
pub fn proc_status_field(pid: u32, key: &str) -> Option<u64> {
    status_field(
        &std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?,
        key,
    )
}

fn status_field(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Voluntary plus involuntary context switches summed over every live
/// thread of `pid`.
pub fn proc_ctx_switches(pid: u32) -> u64 {
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("status")).ok())
        .map(|s| {
            status_field(&s, "voluntary_ctxt_switches").unwrap_or(0)
                + status_field(&s, "nonvoluntary_ctxt_switches").unwrap_or(0)
        })
        .sum()
}

/// `(write syscalls, bytes passed to write)` of `pid` (`self` for this
/// process) from `/proc/<pid>/io`, all threads included.
pub fn proc_io(pid: &str) -> Option<(u64, u64)> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/io")).ok()?;
    Some((status_field(&text, "syscw")?, status_field(&text, "wchar")?))
}

/// A fresh, empty directory (anything already there is removed).
pub fn fresh_dir(path: &Path) -> std::io::Result<()> {
    let _ = std::fs::remove_dir_all(path);
    std::fs::create_dir_all(path)
}

/// One metric of the result line.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one run reports: the output checks, the op accounting and
/// the metrics of the selected mode.
#[derive(Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Why `correct` is false, one line each (printed to stderr).
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn new() -> Self {
        Outcome {
            correct: true,
            ..Outcome::default()
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Records an output check; a failed one marks the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.correct = false;
            self.problems.push(what());
        }
    }

    /// The single JSON result line.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { -1.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// A wall-time ledger: named rows that must tile a measured total, the
/// wall-clock form of the cycle ledger's conservation rule (its buckets
/// sum to horizon × processors).
pub struct Ledger {
    pub title: String,
    pub total: Duration,
    pub rows: Vec<(String, Duration)>,
}

/// Largest share of the measured total the ledger rows may leave
/// unexplained (or over-explain) before the conservation check fails.
/// Checked on the ledger summed over a whole traced run, so a single
/// preemption between two spans cannot fail it.
pub const CONSERVATION_SHARE: f64 = 0.05;

impl Ledger {
    pub fn new(title: &str) -> Self {
        Ledger {
            title: title.to_string(),
            total: Duration::ZERO,
            rows: Vec::new(),
        }
    }

    /// Adds `d` to row `name`, creating it on first use.
    pub fn add(&mut self, name: &str, d: Duration) {
        match self.rows.iter_mut().find(|(n, _)| n == name) {
            Some((_, acc)) => *acc += d,
            None => self.rows.push((name.to_string(), d)),
        }
    }

    /// Adds another ledger's total and rows to this one.
    pub fn absorb(&mut self, other: &Ledger) {
        self.total += other.total;
        for (name, d) in &other.rows {
            self.add(name, *d);
        }
    }

    /// Total minus the rows, signed, in microseconds.
    pub fn unattributed_us(&self) -> f64 {
        us(self.total) - self.rows.iter().map(|(_, d)| us(*d)).sum::<f64>()
    }

    /// Whether the rows sum to the total within [`CONSERVATION_SHARE`].
    pub fn conserved(&self) -> bool {
        self.total > Duration::ZERO
            && self.unattributed_us().abs() <= CONSERVATION_SHARE * us(self.total)
    }

    /// The printed table, one row per line, shares of the total.
    pub fn render(&self) -> String {
        let total = us(self.total);
        let mut out = format!("ledger {}: total {:.0} us\n", self.title, total);
        for (name, d) in &self.rows {
            let _ = writeln!(
                out,
                "  {name:<28} {:>12.0} us {:>6.2}%",
                us(*d),
                100.0 * us(*d) / total
            );
        }
        let _ = writeln!(
            out,
            "  {:<28} {:>12.0} us {:>6.2}%  (conservation share {:.0}%: {})",
            "unattributed",
            self.unattributed_us(),
            100.0 * self.unattributed_us() / total,
            100.0 * CONSERVATION_SHARE,
            if self.conserved() { "ok" } else { "VIOLATED" }
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), 50.0);
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(quantile(&mut v, 1.0), 100.0);
        let mut failed = vec![1.0, f64::INFINITY, 2.0];
        assert_eq!(quantile(&mut failed, 1.0), f64::INFINITY);
    }

    #[test]
    fn ledger_conservation() {
        let mut l = Ledger::new("t");
        l.total = Duration::from_micros(1000);
        l.add("a", Duration::from_micros(600));
        l.add("b", Duration::from_micros(380));
        assert!(l.conserved());
        l.add("a", Duration::from_micros(100));
        assert!(!l.conserved(), "rows exceed the total by 8%");
    }

    #[test]
    fn process_accounting_reads_this_process() {
        assert!(rusage(false).1 > 0);
        let pid = std::process::id();
        assert!(proc_status_field(pid, "VmHWM").is_some());
        assert!(proc_io("self").is_some());
        assert!(proc_cpu(pid).is_some());
        assert!(proc_ctx_switches(pid) > 0);
    }
}
