//! `fig4-cold`: the paper's Figure 4 grid with Monte Carlo seeds, run
//! in-process on one worker thread with no cell cache.
//!
//! Almost all of its host time goes to the two simulator stacks, so it is
//! the workload that moves when the simulators do, and the one that must
//! not move when the cache, journal, fleet or daemon change.
//!
//! The untraced run times whole passes of `run_sweep(spec, 1)` plus the
//! three exports. The traced run alternates such a pass with a pass that
//! re-runs every cell layer by layer (`cell_table`, then both simulator
//! stacks through their `_probed` entry points) and recombines the stack
//! results, which must equal the engine's.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mpdp_bench::experiment::{fig4_seeded_spec, ExperimentConfig};
use mpdp_core::ids::TaskId;
use mpdp_core::policy::MpdpPolicy;
use mpdp_core::task::TaskTable;
use mpdp_core::time::Cycles;
use mpdp_faults::CompiledFaults;
use mpdp_kernel::KernelCosts;
use mpdp_obs::NullProbe;
use mpdp_sim::prototype::{run_prototype_probed, PrototypeConfig};
use mpdp_sim::theoretical::{run_theoretical_probed, TheoreticalConfig};
use mpdp_sim::trace::Trace;
use mpdp_sweep::{
    cell_table, cells_csv, report_json, run_sweep, summary_csv, ArrivalSpec, CellResult,
    StackResult, SweepReport, SweepSpec,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::host::{allowed_cpus, pinned, pinned_wall, Nominal};
use crate::measure::{
    cpu_self, median, own_peak_rss_kib, report_host, report_wall, setup_metric, timed, us, Ledger,
    Outcome, SLICES,
};
use crate::RunConfig;

/// Monte Carlo seeds per grid coordinate: 9 coordinates × 8 seeds = 72
/// cells per pass.
const SEEDS: usize = 8;
const TINY_SEEDS: usize = 2;

/// The workload's input: the Figure 4 grid, its Monte Carlo seeds drawn
/// from `seed` through the spec's master seed.
pub fn spec(seed: u64, tiny: bool) -> SweepSpec {
    let seeds = if tiny { TINY_SEEDS } else { SEEDS };
    fig4_seeded_spec(&ExperimentConfig::default(), seeds).with_master_seed(seed)
}

/// The three exports a sweep user reads: per-cell CSV, summary CSV and
/// the JSON report.
pub fn exports(report: &SweepReport) -> String {
    let mut out = cells_csv(report);
    out.push_str(&summary_csv(report));
    out.push_str(&report_json(report));
    out
}

/// Flips one digit of an export, so the byte comparison must fail.
pub fn corrupt(bytes: &mut String) {
    let pos = bytes
        .find(|c: char| c.is_ascii_digit())
        .expect("exports carry digits");
    let digit = bytes.as_bytes()[pos];
    let flipped = if digit == b'9' {
        '0'
    } else {
        (digit + 1) as char
    };
    bytes.replace_range(pos..=pos, &flipped.to_string());
}

struct Reference {
    report: SweepReport,
    bytes: String,
}

/// The set-up: build the spec and run the reference sweep. Timed pinned
/// to `cpu`, in nominal-host seconds.
fn setup_once(cfg: &RunConfig, cpu: usize) -> Result<(Reference, f64), String> {
    let (reference, s) = pinned_wall(cpu, || {
        let report = run_sweep(&spec(cfg.seed, cfg.tiny), 1)?;
        let bytes = exports(&report);
        Ok::<_, mpdp_sweep::SweepError>(Reference { report, bytes })
    });
    Ok((reference.map_err(|e| format!("reference sweep: {e}"))?, s))
}

/// Marks this binary's one-sweep mode: `--fig4-once <seed> <0|1 tiny>`.
pub const ONCE_FLAG: &str = "--fig4-once";

/// One-sweep mode: the workload's sweep and exports, once, in a fresh
/// process, so its peak RSS is what a user running the sweep sees. Prints
/// that peak in KiB.
pub fn once_main(args: &[String]) -> ! {
    let (Some(Ok(seed)), Some(tiny)) = (args.first().map(|s| s.parse()), args.get(1)) else {
        std::process::exit(2)
    };
    let Ok(report) = run_sweep(&spec(seed, tiny == "1"), 1) else {
        std::process::exit(1)
    };
    std::hint::black_box(exports(&report));
    match own_peak_rss_kib() {
        Some(kib) => {
            println!("{kib}");
            std::process::exit(0)
        }
        None => std::process::exit(1),
    }
}

/// One-sweep processes whose peak RSS `peak_rss_mib` takes the median of.
const RSS_PROCESSES: usize = 9;

/// Median peak RSS in MiB of a few one-sweep processes.
fn sweep_process_rss(cfg: &RunConfig) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut kib = Vec::new();
    for _ in 0..RSS_PROCESSES {
        let run = std::process::Command::new(&exe)
            .args([
                ONCE_FLAG,
                &cfg.seed.to_string(),
                if cfg.tiny { "1" } else { "0" },
            ])
            .output()
            .map_err(|e| format!("one-sweep process: {e}"))?;
        let peak = String::from_utf8_lossy(&run.stdout).trim().parse::<f64>();
        match peak {
            Ok(k) if run.status.success() => kib.push(k),
            _ => return Err(format!("one-sweep process exited with {}", run.status)),
        }
    }
    Ok(median(&mut kib) / 1024.0)
}

/// One untraced pass: the engine's own sweep plus exports.
fn untraced_pass(spec: &SweepSpec, reference: &Reference, out: &mut Outcome) -> SweepReport {
    let report = run_sweep(spec, 1).expect("reference sweep of the same spec succeeded");
    let bytes = exports(&report);
    let mismatched = report
        .cells
        .iter()
        .zip(&reference.report.cells)
        .filter(|(a, b)| a != b)
        .count();
    out.attempted += report.cells.len() as u64;
    out.failed += mismatched as u64;
    out.check(mismatched == 0 && bytes == reference.bytes, || {
        format!("pass differs from the reference ({mismatched} cells)")
    });
    report
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    // Set-ups and passes take turns on each CPU, pinned: the sweep's one
    // worker thread inherits the pin, so each is normalized by the speed of
    // the CPU it ran on.
    let cpus = allowed_cpus();
    let cpu = |k: usize| cpus.get(k % cpus.len().max(1)).copied().unwrap_or(0);
    let (clean, first_setup) = setup_once(cfg, cpu(0))?;
    let mut reference = Reference {
        report: clean.report.clone(),
        bytes: clean.bytes.clone(),
    };
    if cfg.corrupt {
        corrupt(&mut reference.bytes);
        reference.report.cells[0].real.switches += 1;
    }
    let spec = spec(cfg.seed, cfg.tiny);
    if cfg.trace {
        traced(cfg, &spec, &reference, &mut out);
        return Ok(out);
    }

    let mut setups = vec![first_setup];
    let mut cpu_time = Nominal::default();
    let mut busy = Duration::ZERO;
    let mut cell_us = Vec::new();
    let mut cells = 0usize;
    let mut passes = 0;
    for slice in 0..SLICES as usize {
        if slice > 0 {
            let (again, d) = setup_once(cfg, cpu(slice))?;
            out.check(again.bytes == clean.bytes, || {
                "set-up sweeps disagree".into()
            });
            setups.push(d);
        }
        let t0 = Instant::now();
        while t0.elapsed() < cfg.seconds / SLICES {
            let ((report, wall, used), slowness) = pinned(cpu(passes), || {
                let cpu0 = cpu_self();
                let (report, wall) = timed(|| untraced_pass(&spec, &reference, &mut out));
                (report, wall, cpu_self() - cpu0)
            });
            cpu_time.add(used, slowness);
            passes += 1;
            busy += wall;
            cell_us.extend(report.profiles.iter().map(|p| us(p.wall)));
            cells += report.cells.len();
        }
    }
    setup_metric(&mut out, &setups);
    out.metric("ops_per_cpu_s", cells as f64 / cpu_time.nominal_s, "1/s");
    out.metric("peak_rss_mib", sweep_process_rss(cfg)?, "MiB");
    report_wall("fig4-cold", cells, busy, "cell", &mut cell_us);
    report_host("fig4-cold", cells, &cpu_time);
    Ok(out)
}

/// What one layer-by-layer pass measured.
#[derive(Default)]
struct LayerPass {
    ledger_rows: Vec<(&'static str, Duration)>,
    prototype_by_procs: [Duration; 3],
    tables_built: u64,
    loop_iterations: u64,
    context_switches: u64,
    sched_passes: u64,
    context_words: u64,
}

impl LayerPass {
    /// The pass's exact work counters, which every pass must repeat.
    fn counters(&self) -> [u64; 5] {
        [
            self.tables_built,
            self.loop_iterations,
            self.context_switches,
            self.sched_passes,
            self.context_words,
        ]
    }
}

/// Folds a stack's trace the way the engine does: target-task responses
/// plus every hard-deadline completion.
fn fold(trace: &Trace, target: TaskId) -> StackResult {
    let mut out = StackResult::default();
    for c in &trace.completions {
        if c.task == target {
            out.aperiodic.observe(c.response);
        }
        if c.deadline.is_some() {
            out.periodic.observe_completion(c);
        }
    }
    out
}

/// The cell's burst arrivals, drawn from its RNG stream exactly as the
/// engine draws them (the automotive table build consumes no draws).
fn burst_arrivals(spec: &SweepSpec, rng: &mut StdRng) -> (Vec<(Cycles, usize)>, Cycles) {
    let ArrivalSpec::Bursts { activations, gap } = spec.arrivals else {
        panic!("the seeded Figure 4 spec uses burst arrivals");
    };
    let arrivals: Vec<(Cycles, usize)> = (0..activations.max(1))
        .map(|i| {
            let jitter = Cycles::from_millis(rng.gen_range(0u64..100));
            (Cycles::from_secs(1) + gap * i as u64 + jitter, 0usize)
        })
        .collect();
    let last = arrivals.last().map_or(Cycles::from_secs(1), |a| a.0);
    (arrivals, last + gap + Cycles::from_secs(5))
}

type Table = Option<(Arc<TaskTable>, TaskId)>;

/// Re-runs every cell layer by layer and returns the recombined report.
/// Tables are memoized per grid coordinate, as the engine's table cache
/// does, so the pass does the same work as the untraced one.
fn layer_pass(spec: &SweepSpec) -> (Vec<CellResult>, LayerPass) {
    let mut lp = LayerPass::default();
    let (mut table_t, mut arrivals_t, mut theo_t, mut proto_t, mut fold_t) = (
        Duration::ZERO,
        Duration::ZERO,
        Duration::ZERO,
        Duration::ZERO,
        Duration::ZERO,
    );
    let mut tables: HashMap<(u64, usize, usize), Table> = HashMap::new();
    let mut cells = Vec::new();
    for cell in spec.cells() {
        let knob = &spec.knobs[cell.knob_index];
        let key = (cell.utilization.to_bits(), cell.n_procs, cell.knob_index);
        let t = Instant::now();
        let built = tables
            .entry(key)
            .or_insert_with(|| {
                lp.tables_built += 1;
                cell_table(spec, &cell).map(|(t, id)| (Arc::new(t), id))
            })
            .clone();
        table_t += t.elapsed();
        let Some((table, target)) = built else {
            cells.push(CellResult {
                cell,
                knob_label: knob.label.clone(),
                schedulable: false,
                theoretical: StackResult::default(),
                real: StackResult::default(),
            });
            continue;
        };

        let t = Instant::now();
        let mut rng = StdRng::seed_from_u64(spec.cell_stream(&cell));
        let (arrivals, horizon) = burst_arrivals(spec, &mut rng);
        let faults = CompiledFaults::none();
        arrivals_t += t.elapsed();

        let t = Instant::now();
        let (theo, NullProbe) = run_theoretical_probed(
            MpdpPolicy::new(Arc::clone(&table)).with_degradation(knob.degradation),
            &arrivals,
            TheoreticalConfig::new(horizon)
                .with_tick(knob.tick)
                .with_overhead(knob.theoretical_overhead),
            &faults,
            NullProbe,
        )
        .expect("theoretical stack accepts a cell the engine ran");
        theo_t += t.elapsed();

        let t = Instant::now();
        let (real, NullProbe) = run_prototype_probed(
            MpdpPolicy::new(table).with_degradation(knob.degradation),
            &arrivals,
            PrototypeConfig::new(horizon)
                .with_tick(knob.tick)
                .with_kernel_costs(KernelCosts::default().with_context_scale(knob.context_scale)),
            &faults,
            NullProbe,
        )
        .expect("prototype stack accepts a cell the engine ran");
        let d = t.elapsed();
        proto_t += d;
        lp.prototype_by_procs[cell.n_procs.clamp(2, 4) - 2] += d;
        lp.loop_iterations += real.loop_iterations;
        lp.context_switches += real.kernel.context_switches;
        lp.sched_passes += real.kernel.sched_passes;
        lp.context_words += real.kernel.context_words;

        let t = Instant::now();
        let mut theoretical = fold(&theo.trace, target);
        theoretical.switches = theo.switches;
        theoretical.survival = theo.survival;
        let mut real_result = fold(&real.trace, target);
        real_result.switches = real.kernel.context_switches;
        real_result.sched_passes = real.kernel.sched_passes;
        real_result.context_words = real.kernel.context_words;
        real_result.survival = real.survival;
        cells.push(CellResult {
            cell,
            knob_label: knob.label.clone(),
            schedulable: true,
            theoretical,
            real: real_result,
        });
        fold_t += t.elapsed();
    }
    lp.ledger_rows = vec![
        ("analysis.table", table_t),
        ("sweep.arrivals", arrivals_t),
        ("sim.theoretical", theo_t),
        ("sim.prototype", proto_t),
        ("sweep.fold", fold_t),
    ];
    (cells, lp)
}

fn traced(cfg: &RunConfig, spec: &SweepSpec, reference: &Reference, out: &mut Outcome) {
    let mut untraced_us = Vec::new();
    let mut traced_us = Vec::new();
    let mut rows: HashMap<String, Vec<f64>> = HashMap::new();
    let mut by_procs: [Vec<f64>; 3] = Default::default();
    let mut ns_per_iteration = Vec::new();
    let mut unattributed = Vec::new();
    let mut all = Ledger::new("fig4-cold, all traced passes");
    let mut last: Option<LayerPass> = None;
    let window = Instant::now();
    while last.is_none() || window.elapsed() < cfg.seconds {
        let (_, wall) = timed(|| untraced_pass(spec, reference, out));
        untraced_us.push(us(wall));

        let t0 = Instant::now();
        let (cells, lp) = layer_pass(spec);
        let t = Instant::now();
        let report = SweepReport {
            cells,
            faulted: spec.is_faulted(),
            workers: 1,
            wall: Duration::ZERO,
            profiles: Vec::new(),
        };
        let bytes = exports(&report);
        let report_t = t.elapsed();
        let mut ledger = Ledger::new("fig4-cold traced pass");
        ledger.total = t0.elapsed();
        for (name, d) in &lp.ledger_rows {
            ledger.add(name, *d);
        }
        ledger.add("sweep.report", report_t);

        let mismatched = report
            .cells
            .iter()
            .zip(&reference.report.cells)
            .filter(|(a, b)| a != b)
            .count();
        out.attempted += report.cells.len() as u64;
        out.failed += mismatched as u64;
        out.check(mismatched == 0 && bytes == reference.bytes, || {
            format!("layer-by-layer pass differs from run_cell's ({mismatched} cells)")
        });

        traced_us.push(us(ledger.total));
        for (name, d) in &ledger.rows {
            rows.entry(name.clone()).or_default().push(us(*d));
        }
        for (i, d) in lp.prototype_by_procs.iter().enumerate() {
            by_procs[i].push(us(*d));
        }
        let proto = ledger.rows.iter().find(|(n, _)| n == "sim.prototype");
        let proto = proto.map_or(0.0, |(_, d)| us(*d));
        ns_per_iteration.push(1e3 * proto / lp.loop_iterations.max(1) as f64);
        unattributed.push(ledger.unattributed_us());
        all.absorb(&ledger);
        if let Some(prev) = &last {
            out.check(prev.counters() == lp.counters(), || {
                "exact counters changed between passes".into()
            });
        }
        last = Some(lp);
    }
    let lp = last.expect("at least one traced pass");
    eprint!("{}", all.render());
    out.check(all.conserved(), || all.render());
    let untraced = median(&mut untraced_us);
    let traced_total = median(&mut traced_us);
    eprintln!(
        "fig4-cold: untraced pass {untraced:.0} us, traced pass {traced_total:.0} us, \
         tracing overhead {:.0} us",
        traced_total - untraced
    );
    let mut row = |name: &str| median(rows.get_mut(name).expect("row recorded every pass"));
    let (table, theo, proto, report) = (
        row("analysis.table"),
        row("sim.theoretical"),
        row("sim.prototype"),
        row("sweep.report"),
    );
    crate::emit_layers(
        &[
            ("analysis.table_us", table),
            ("analysis.tables_built", lp.tables_built as f64),
            ("sim.theoretical_us", theo),
            ("sim.prototype_us", proto),
            ("sim.prototype_us.p2", median(&mut by_procs[0])),
            ("sim.prototype_us.p3", median(&mut by_procs[1])),
            ("sim.prototype_us.p4", median(&mut by_procs[2])),
            (
                "sim.prototype_ns_per_iteration",
                median(&mut ns_per_iteration),
            ),
            ("sim.prototype_loop_iterations", lp.loop_iterations as f64),
            ("kernel.context_switches", lp.context_switches as f64),
            ("kernel.sched_passes", lp.sched_passes as f64),
            ("kernel.context_words", lp.context_words as f64),
            ("sweep.report_us", report),
            ("sweep.unattributed_us", median(&mut unattributed)),
            ("trace.untraced_total_us", untraced),
            ("trace.traced_total_us", traced_total),
            ("trace.overhead_us", traced_total - untraced),
        ],
        out,
    );
}
