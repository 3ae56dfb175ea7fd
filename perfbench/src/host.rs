//! Host-speed normalization of the gated times.
//!
//! The benchmark host shares its cores with other tenants, and their load
//! slows this process by up to 1.6× in phases that last from under a
//! second to minutes. CPU time is inflated as much as wall time (the
//! slowdown is contention for the core's caches, not waiting), so CPU per
//! op alone does not cancel it. A fixed calibration kernel, which no
//! program change can touch, is therefore timed between stretches of work
//! — on the one CPU the stretch was pinned to, or on every CPU when its
//! processes float — and each stretch's CPU time is divided by the
//! slowness around it, giving seconds on a host running at nominal speed.

use std::collections::{BTreeMap, HashMap};
use std::time::Duration;

/// Thread CPU time of the calibration kernel at nominal speed: about its
/// median on an Intel Xeon vCPU (2 per guest), where it ranges over
/// 0.8–1.2 of this. Only the ratio to it matters: both sides of a
/// comparison run on the same host.
const NOMINAL: Duration = Duration::from_micros(2000);
/// Iterations of the calibration kernel.
const KERNEL_STEPS: u64 = 6_000;

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
/// Words of a 1024-CPU affinity mask.
const MASK_WORDS: usize = 16;

fn thread_cpu() -> Duration {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` matches the 64-bit Linux `struct timespec` and is a
    // valid, exclusively borrowed value for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock exists");
    Duration::new(ts.sec as u64, ts.nsec as u32)
}

/// The CPUs the calling thread may run on.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed.
    let rc = unsafe { sched_getaffinity(0, MASK_WORDS * 8, mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
        .collect()
}

/// Restricts the calling thread to `cpu`; false if the kernel refused.
/// Allocates nothing, so a forked child may call it before `exec`.
pub fn pin_to(cpu: usize) -> bool {
    set_cpus(&[cpu])
}

/// Restricts the calling thread to `cpus`; false if the kernel refused.
fn set_cpus(cpus: &[usize]) -> bool {
    let mut mask = [0u64; MASK_WORDS];
    for &cpu in cpus {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a readable buffer of exactly the size passed;
    // pid 0 is the calling thread.
    unsafe { sched_setaffinity(0, MASK_WORDS * 8, mask.as_ptr()) == 0 }
}

/// The calibration kernel: hashing, ordered-map inserts, string
/// formatting and sorting on a small working set — the mix of work whose
/// speed the host's slow phases change the most. Deterministic.
fn kernel() -> usize {
    let mut hashed = HashMap::new();
    let mut ordered = BTreeMap::new();
    let mut words = Vec::with_capacity(257);
    let mut z = 7u64;
    for i in 0..KERNEL_STEPS {
        z = z
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        hashed.insert(z % 5000, i);
        ordered.insert((z >> 20) % 3000, i);
        words.push(format!("{}", z % 1000));
        if words.len() > 256 {
            words.sort();
            words.clear();
        }
    }
    hashed.len() + ordered.len() + words.len()
}

/// Runs the kernel on a thread pinned to `cpu`; its thread CPU time. An
/// unpinnable thread still measures the CPU it lands on.
fn kernel_on(cpu: usize) -> Duration {
    std::thread::spawn(move || {
        set_cpus(&[cpu]);
        let t0 = thread_cpu();
        std::hint::black_box(kernel());
        thread_cpu() - t0
    })
    .join()
    .expect("calibration thread")
}

/// The slowness of one CPU now: the kernel's CPU time there as a multiple
/// of its nominal time.
pub fn slowness_on(cpu: usize) -> f64 {
    kernel_on(cpu).as_secs_f64() / NOMINAL.as_secs_f64()
}

/// The host's slowness now: the mean of every allowed CPU's.
pub fn slowness() -> f64 {
    let cpus = allowed_cpus();
    if cpus.is_empty() {
        return slowness_on(0);
    }
    cpus.iter().map(|&cpu| slowness_on(cpu)).sum::<f64>() / cpus.len() as f64
}

/// Runs `f` on the calling thread pinned to `cpu` (threads it spawns
/// inherit the pin), and returns its output with the mean slowness of
/// that CPU just before and just after it. The thread's CPUs are restored
/// afterwards.
pub fn pinned<T>(cpu: usize, f: impl FnOnce() -> T) -> (T, f64) {
    let was = allowed_cpus();
    let before = slowness_on(cpu);
    let pin = set_cpus(&[cpu]);
    let out = f();
    if pin {
        set_cpus(&was);
    }
    let after = slowness_on(cpu);
    (out, (before + after) / 2.0)
}

/// CPU time, as measured and at nominal host speed.
#[derive(Default)]
pub struct Nominal {
    /// CPU time as measured.
    pub raw: Duration,
    /// CPU time at nominal host speed, in seconds.
    pub nominal_s: f64,
    /// The slowness each stretch was divided by.
    pub samples: Vec<f64>,
}

impl Nominal {
    /// Counts a stretch of `d` CPU time run at `slowness`.
    pub fn add(&mut self, d: Duration, slowness: f64) {
        self.raw += d;
        self.nominal_s += d.as_secs_f64() / slowness;
        self.samples.push(slowness);
    }

    /// Median slowness over the run.
    pub fn median_slowness(&self) -> f64 {
        crate::measure::median(&mut self.samples.clone())
    }
}

/// Accumulates a workload's CPU time in nominal-host seconds. Call
/// [`NormCpu::checkpoint`] between stretches of work (at most a few
/// hundred milliseconds apart, with nothing running): the CPU time since
/// the last checkpoint is divided by the mean slowness measured at its two
/// ends. The calibration's own CPU time is left out.
pub struct NormCpu<F: Fn() -> Duration> {
    read: F,
    last_cpu: Duration,
    last_slowness: f64,
    pub total: Nominal,
}

impl<F: Fn() -> Duration> NormCpu<F> {
    pub fn start(read: F) -> Self {
        let last_slowness = slowness();
        let last_cpu = read();
        NormCpu {
            read,
            last_cpu,
            last_slowness,
            total: Nominal::default(),
        }
    }

    pub fn checkpoint(&mut self) {
        let d = (self.read)().saturating_sub(self.last_cpu);
        let s = slowness();
        self.total.add(d, (self.last_slowness + s) / 2.0);
        self.last_slowness = s;
        self.last_cpu = (self.read)();
    }

    /// Runs `f` outside the count (a set-up between slices, say): the CPU
    /// time up to now is counted, `f`'s is not.
    pub fn outside<T>(&mut self, f: impl FnOnce() -> T) -> T {
        self.checkpoint();
        let out = f();
        self.last_slowness = slowness();
        self.last_cpu = (self.read)();
        out
    }
}

/// Times `f` pinned to `cpu` (see [`pinned`]), in nominal-host seconds.
pub fn pinned_wall<T>(cpu: usize, f: impl FnOnce() -> T) -> (T, f64) {
    let ((out, wall), s) = pinned(cpu, || crate::measure::timed(f));
    (out, wall.as_secs_f64() / s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_measures_every_cpu() {
        let cpus = allowed_cpus();
        assert!(!cpus.is_empty());
        let s = slowness();
        assert!(s.is_finite() && s > 0.0, "slowness {s}");
        let ((), s) = pinned(cpus[0], || assert_eq!(allowed_cpus(), [cpus[0]]));
        assert!(s.is_finite() && s > 0.0, "slowness {s}");
        assert_eq!(allowed_cpus(), cpus, "the pin is undone");
        assert_eq!(kernel(), kernel(), "the kernel is deterministic");
    }
}
