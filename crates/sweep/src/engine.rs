//! The sweep executor: fans the cell grid over a scoped-thread worker pool
//! and produces one [`CellResult`] per cell.
//!
//! # Determinism contract
//!
//! `run_sweep(spec, 1)` and `run_sweep(spec, N)` produce **byte-identical**
//! reports. Three properties make that hold:
//!
//! 1. A cell's entire input — task set, arrival stream, simulator configs —
//!    is a pure function of `(spec, cell.index)`; its RNG stream is seeded
//!    from [`SweepSpec::cell_stream`] and never shared across cells.
//! 2. Workers claim cells through one atomic counter but write each result
//!    into the slot reserved for its cell index; no result depends on
//!    claim order.
//! 3. Aggregation (in [`report`](crate::report)) folds cells in index
//!    order and keeps all statistics in integer cycles until the final
//!    formatting step (see `ResponseAccumulator`).
//!
//! Wall-clock time is measured for the caller's benefit but deliberately
//! kept out of every export.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mpdp_analysis::baselines::{aperiodic_first, background_service};
use mpdp_analysis::tool::{prepare, ToolOptions};
use mpdp_core::ids::TaskId;
use mpdp_core::policy::MpdpPolicy;
use mpdp_core::task::{AperiodicTask, MemoryProfile, TaskTable};
use mpdp_core::time::Cycles;
use mpdp_faults::{fault_stream, CompiledFaults};
use mpdp_kernel::KernelCosts;
use mpdp_obs::{EventRecorder, NullProbe, Probe};
use mpdp_sim::prototype::{ContentionMemo, PrototypeConfig, PrototypeSim};
use mpdp_sim::stats::{ResponseAccumulator, SurvivalStats};
use mpdp_sim::theoretical::{run_theoretical_probed, TheoreticalConfig};
use mpdp_sim::trace::Trace;
use mpdp_workload::{automotive_task_set, random_task_set, TaskGenConfig};

use crate::cache::CellCache;
use crate::error::SweepError;
use crate::report::{StreamingExports, StreamingReport};
use crate::spec::{ArrivalSpec, CellSpec, Knobs, PolicyKind, SweepSpec, WorkloadSpec};

/// What one simulator stack produced for one cell.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StackResult {
    /// Responses of the target aperiodic task.
    pub aperiodic: ResponseAccumulator,
    /// All hard-deadline (periodic) completions, with miss bookkeeping.
    pub periodic: ResponseAccumulator,
    /// Context switches.
    pub switches: u64,
    /// Scheduling passes (prototype only; zero on the theoretical stack).
    pub sched_passes: u64,
    /// Context words moved over the bus (prototype only).
    pub context_words: u64,
    /// Survivability bookkeeping (all-zero unless the cell's knob injects
    /// faults or runs a non-inert degradation policy).
    pub survival: SurvivalStats,
}

/// The outcome of one cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// The cell's grid coordinates.
    pub cell: CellSpec,
    /// Label of the knob setting the cell ran under.
    pub knob_label: String,
    /// Whether the offline analysis admitted the task set. Unschedulable
    /// cells (possible in Monte Carlo mode at high utilization) carry empty
    /// stacks and are reported, not dropped.
    pub schedulable: bool,
    /// Theoretical-simulator results.
    pub theoretical: StackResult,
    /// Prototype-stack results.
    pub real: StackResult,
}

impl CellResult {
    /// Prototype mean over theoretical mean, as the paper's slowdown
    /// percentage; `None` if either side has no aperiodic completions.
    pub fn slowdown_pct(&self) -> Option<f64> {
        let theo = self.theoretical.aperiodic.finalize()?.mean_s;
        let real = self.real.aperiodic.finalize()?.mean_s;
        Some(100.0 * (real / theo - 1.0))
    }
}

/// Wall-time/throughput self-profile of one cell. Run metadata for the
/// caller's eyes (a `--profile` flag, a progress bar): wall-clock is
/// non-deterministic by nature, so profiles are **never** exported and
/// never enter [`CellResult`].
#[derive(Debug, Clone, Copy)]
pub struct CellProfile {
    /// Cell index.
    pub index: usize,
    /// Wall-clock time spent simulating both stacks of this cell.
    pub wall: Duration,
    /// Simulated horizon in cycles (each stack covered this span; zero for
    /// unschedulable cells, which run no simulation).
    pub sim_cycles: u64,
    /// Completion records folded into the cell's accumulators, both stacks.
    pub completions: u64,
}

impl CellProfile {
    /// Simulated megacycles per wall-second, both stacks combined.
    pub fn throughput_mcps(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            (2 * self.sim_cycles) as f64 / 1e6 / secs
        }
    }
}

/// A completed sweep: every cell's result in canonical order, plus run
/// metadata (excluded from exports).
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Cell results, ordered by cell index.
    pub cells: Vec<CellResult>,
    /// Whether any knob injected faults or enforced degradation; exports
    /// gate their survivability columns on this so fault-free sweeps stay
    /// byte-identical to older builds.
    pub faulted: bool,
    /// Worker threads used.
    pub workers: usize,
    /// Wall-clock duration of the fan-out (not exported).
    pub wall: Duration,
    /// Per-cell self-profiles, ordered by cell index (not exported).
    pub profiles: Vec<CellProfile>,
}

/// Cache key of an analyzed table: the exact cell coordinates that reach
/// the offline analysis. The seed axis is deliberately absent — it only
/// perturbs arrival phases — and the knob axis is collapsed to its index,
/// which covers every analysis-relevant knob (tick, WCET margin, policy).
type TableKey = (u64, usize, usize);

/// Cached value: the analyzed table (shared, clone-on-write) and the
/// sweep's target aperiodic task, or `None` for unschedulable coordinates.
type CachedTable = Option<(Arc<TaskTable>, TaskId)>;

/// Per-sweep memo of analyzed task tables, shared by every worker.
///
/// The offline analysis (`prepare()` and the promotion fixed point) is a
/// pure function of `(workload, utilization, n_procs, knob)`; sweeping the
/// seed axis re-runs it redundantly for every cell. Workloads that draw
/// from the cell's RNG stream ([`WorkloadSpec::Random`]) bypass the cache
/// entirely, so caching can never perturb a stream. Both sides of a miss
/// race may compute the table; both compute the identical value (purity),
/// so the second insert is harmless.
#[derive(Debug, Default)]
pub struct TableCache {
    tables: Mutex<HashMap<TableKey, CachedTable>>,
}

impl TableCache {
    /// An empty cache. One cache serves one spec: keys assume the spec's
    /// workload and knob list are fixed for the cache's lifetime.
    pub fn new() -> Self {
        TableCache::default()
    }

    fn get_or_build(
        &self,
        spec: &SweepSpec,
        cell: &CellSpec,
        knob: &Knobs,
        rng: &mut StdRng,
    ) -> Option<(Arc<TaskTable>, TaskId)> {
        if !matches!(spec.workload, WorkloadSpec::Automotive) {
            // The generator seed comes from `rng`: building is part of the
            // cell's RNG stream and must happen exactly once per cell.
            return build_cell_table(spec, cell, knob, rng).map(|(t, id)| (Arc::new(t), id));
        }
        let key = (cell.utilization.to_bits(), cell.n_procs, cell.knob_index);
        if let Some(hit) = self
            .tables
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&key)
        {
            return hit.clone();
        }
        // Build outside the lock so a slow analysis never serializes the
        // other workers' cache hits.
        let built = build_cell_table(spec, cell, knob, rng).map(|(t, id)| (Arc::new(t), id));
        self.tables
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(key, built.clone());
        built
    }
}

/// Per-worker scratch reused across every cell the worker claims, so the
/// fan-out does not re-allocate the arrival stream per cell, and pays for
/// each distinct contention fixed point once per sweep instead of once
/// per cell. A worker's scratch lives exactly as long as its sweep, so
/// nothing carries over between sweeps.
#[derive(Debug, Default)]
pub(crate) struct CellScratch {
    arrivals: Vec<(Cycles, usize)>,
    memo: ContentionMemo,
}

/// Runs every cell of `spec` over `workers` threads (clamped to at least
/// one) and returns the report. See the module docs for the determinism
/// contract.
///
/// # Errors
///
/// Returns the spec's [`SweepSpec::validate`] rejection without running
/// any cell, or the lowest-indexed cell failure (worker count never
/// changes *which* error is reported).
pub fn run_sweep(spec: &SweepSpec, workers: usize) -> Result<SweepReport, SweepError> {
    run_sweep_with_cache(spec, workers, None)
}

/// [`run_sweep`] consulting a persistent [`CellCache`] before each cell:
/// hits skip both simulators entirely, misses run and then populate the
/// cache. A hit reconstructs the identical [`CellResult`] a cold run
/// would produce (the payload is content-addressed by the cell's input
/// fingerprint), so exports remain byte-identical with any mix of hits
/// and misses. `None` is exactly [`run_sweep`].
///
/// # Errors
///
/// Same as [`run_sweep`].
pub fn run_sweep_with_cache(
    spec: &SweepSpec,
    workers: usize,
    cell_cache: Option<&CellCache>,
) -> Result<SweepReport, SweepError> {
    type Slot = Mutex<Option<Result<(CellResult, CellProfile), SweepError>>>;
    spec.validate()?;
    let cells = spec.cells();
    let start = Instant::now();
    let slots: Vec<Slot> = cells.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let workers = workers.max(1).min(cells.len().max(1));
    let cache = TableCache::default();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut scratch = CellScratch::default();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(cell) = cells.get(i) else { break };
                    let t0 = Instant::now();
                    let result = match cell_cache.and_then(|cc| cc.lookup(spec, cell)) {
                        Some(hit) => Ok((
                            hit,
                            CellProfile {
                                index: cell.index,
                                wall: t0.elapsed(),
                                // A hit simulates nothing; profiles are run
                                // metadata and never exported, so the zero
                                // is honest, not a determinism hazard.
                                sim_cycles: 0,
                                completions: 0,
                            },
                        )),
                        None => run_cell_inner(
                            spec,
                            cell,
                            NullProbe,
                            NullProbe,
                            Some(&cache),
                            &mut scratch,
                        )
                        .map(|(c, _, _, horizon)| {
                            if let Some(cc) = cell_cache {
                                cc.insert(spec, cell, &c);
                            }
                            let completions = (c.theoretical.aperiodic.len()
                                + c.theoretical.periodic.len()
                                + c.real.aperiodic.len()
                                + c.real.periodic.len())
                                as u64;
                            let profile = CellProfile {
                                index: cell.index,
                                wall: t0.elapsed(),
                                sim_cycles: horizon.as_u64(),
                                completions,
                            };
                            (c, profile)
                        }),
                    };
                    // A poisoned slot mutex means another worker panicked
                    // while holding it; the store below is a single
                    // assignment, so recover the guard rather than cascade
                    // the panic.
                    let mut slot = slots[i].lock().unwrap_or_else(|e| e.into_inner());
                    *slot = Some(result);
                }
            });
        }
    });
    let mut out = Vec::with_capacity(cells.len());
    let mut profiles = Vec::with_capacity(cells.len());
    for (i, slot) in slots.into_iter().enumerate() {
        match slot.into_inner().unwrap_or_else(|e| e.into_inner()) {
            Some(result) => {
                let (cell, profile) = result?;
                out.push(cell);
                profiles.push(profile);
            }
            None => return Err(SweepError::MissingCell(i)),
        }
    }
    Ok(SweepReport {
        cells: out,
        faulted: spec.is_faulted(),
        workers,
        wall: start.elapsed(),
        profiles,
    })
}

/// What [`run_sweep_streaming`] produces: the finished exports plus the
/// run metadata [`SweepReport`] would have carried. There is no
/// `cells` vector — per-cell results were folded into the exports and
/// dropped as they arrived.
#[derive(Debug, Clone)]
pub struct StreamedSweep {
    /// The three export documents, byte-identical to rendering a
    /// [`SweepReport`] from the same spec.
    pub exports: StreamingExports,
    /// Cells executed (the full grid).
    pub cells: usize,
    /// Whether any knob injected faults or enforced degradation.
    pub faulted: bool,
    /// Worker threads used.
    pub workers: usize,
    /// Wall-clock duration of the fan-out (not exported).
    pub wall: Duration,
    /// High-water mark of the reorder buffer — the streaming path's
    /// extra memory, in buffered cell results (bounded by how far ahead
    /// of the slowest cell the other workers ran; O(workers) in
    /// practice, never O(cells)).
    pub peak_pending: usize,
}

/// [`run_sweep`] with streaming finalization: cell results are folded
/// into the growing CSV/JSON exports **as workers finish them** (in
/// cell-index order, via a small reorder buffer) instead of being
/// accumulated into a `Vec<CellResult>` and rendered at the end. Memory
/// is O(workers + open group accumulators); the exports are
/// byte-identical to the batch path's at any worker count. Pass a
/// [`CellCache`] to also skip cells whose inputs are already cached.
///
/// # Errors
///
/// Same as [`run_sweep`]: the spec's validation rejection, or the
/// lowest-indexed cell failure.
pub fn run_sweep_streaming(
    spec: &SweepSpec,
    workers: usize,
    cell_cache: Option<&CellCache>,
) -> Result<StreamedSweep, SweepError> {
    spec.validate()?;
    let cells = spec.cells();
    let start = Instant::now();
    let next = AtomicUsize::new(0);
    let workers = workers.max(1).min(cells.len().max(1));
    let cache = TableCache::default();
    let (tx, rx) = std::sync::mpsc::channel::<(usize, Result<CellResult, SweepError>)>();
    let mut stream = StreamingReport::new(spec.is_faulted());
    let mut first_error: Option<(usize, SweepError)> = None;
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let (next, cache) = (&next, &cache);
            let cells = &cells;
            scope.spawn(move || {
                let mut scratch = CellScratch::default();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(cell) = cells.get(i) else { break };
                    let result = match cell_cache.and_then(|cc| cc.lookup(spec, cell)) {
                        Some(hit) => Ok(hit),
                        None => run_cell_inner(
                            spec,
                            cell,
                            NullProbe,
                            NullProbe,
                            Some(cache),
                            &mut scratch,
                        )
                        .map(|(c, _, _, _)| {
                            if let Some(cc) = cell_cache {
                                cc.insert(spec, cell, &c);
                            }
                            c
                        }),
                    };
                    if tx.send((i, result)).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);
        // The fold runs on this thread, concurrently with the workers:
        // each arriving result is consumed (exported and dropped) here.
        for (i, result) in rx {
            match result {
                Ok(cell) => stream.push(cell),
                Err(e) => {
                    if first_error.as_ref().is_none_or(|(j, _)| i < *j) {
                        first_error = Some((i, e));
                    }
                }
            }
        }
    });
    if let Some((_, e)) = first_error {
        return Err(e);
    }
    if stream.folded() != cells.len() {
        return Err(SweepError::MissingCell(stream.folded()));
    }
    let peak_pending = stream.peak_pending();
    Ok(StreamedSweep {
        exports: stream.finish(),
        cells: cells.len(),
        faulted: spec.is_faulted(),
        workers,
        wall: start.elapsed(),
        peak_pending,
    })
}

/// Everything the observability layer captured while re-running one cell
/// probed: one [`EventRecorder`] per stack plus the cell's horizon (the
/// denominator of each ledger's conservation invariant).
#[derive(Debug, Clone)]
pub struct CellObservation {
    /// Recorder threaded through the theoretical stack.
    pub theoretical: EventRecorder,
    /// Recorder threaded through the prototype stack.
    pub real: EventRecorder,
    /// Simulated horizon (zero for unschedulable cells, which run nothing).
    pub horizon: Cycles,
}

/// [`run_cell`] with an [`EventRecorder`] threaded through both stacks.
/// The returned [`CellResult`] is identical to the unprobed one —
/// observation never perturbs the simulation.
///
/// # Errors
///
/// Same as [`run_cell`].
pub fn run_cell_probed(
    spec: &SweepSpec,
    cell: &CellSpec,
) -> Result<(CellResult, CellObservation), SweepError> {
    let (result, theoretical, real, horizon) = run_cell_inner(
        spec,
        cell,
        EventRecorder::new(cell.n_procs),
        EventRecorder::new(cell.n_procs),
        None,
        &mut CellScratch::default(),
    )?;
    Ok((
        result,
        CellObservation {
            theoretical,
            real,
            horizon,
        },
    ))
}

/// [`run_sweep`], then a probed re-run of cell `trace_cell` for trace
/// export. The re-run is a pure function of `(spec, trace_cell)` — worker
/// count cannot perturb it — so the observation obeys the same determinism
/// contract as the report.
///
/// # Errors
///
/// Same as [`run_sweep`], plus [`SweepError::MissingCell`] when
/// `trace_cell` is outside the grid.
pub fn run_sweep_traced(
    spec: &SweepSpec,
    workers: usize,
    trace_cell: usize,
) -> Result<(SweepReport, CellObservation), SweepError> {
    let report = run_sweep(spec, workers)?;
    let cells = spec.cells();
    let cell = cells
        .get(trace_cell)
        .ok_or(SweepError::MissingCell(trace_cell))?;
    let (_, observation) = run_cell_probed(spec, cell)?;
    Ok((report, observation))
}

/// Runs one cell on both stacks. Public so callers can run single cells
/// (e.g. the Figure 4 point API) through exactly the engine's code path.
///
/// # Errors
///
/// [`SweepError::Cell`] when either simulator rejects the cell's inputs.
pub fn run_cell(spec: &SweepSpec, cell: &CellSpec) -> Result<CellResult, SweepError> {
    run_cell_inner(
        spec,
        cell,
        NullProbe,
        NullProbe,
        None,
        &mut CellScratch::default(),
    )
    .map(|(c, _, _, _)| c)
}

/// [`run_cell`] sharing a sweep-scoped [`TableCache`] — the self-healing
/// executor's runner (so resumed/retried sweeps get the same analysis
/// memoization as the plain fan-out) and the entry point for long-lived
/// callers like the `mpdpd` admission daemon, whose repeated queries
/// against one `(workload, procs, knob)` coordinate hit the RTA cache.
pub fn run_cell_cached(
    spec: &SweepSpec,
    cell: &CellSpec,
    cache: &TableCache,
) -> Result<CellResult, SweepError> {
    run_cell_inner(
        spec,
        cell,
        NullProbe,
        NullProbe,
        Some(cache),
        &mut CellScratch::default(),
    )
    .map(|(c, _, _, _)| c)
}

/// The single cell code path, generic over one probe per stack. With
/// [`NullProbe`]s this monomorphizes to the pre-observability engine.
fn run_cell_inner<PT: Probe, PR: Probe>(
    spec: &SweepSpec,
    cell: &CellSpec,
    theo_probe: PT,
    real_probe: PR,
    cache: Option<&TableCache>,
    scratch: &mut CellScratch,
) -> Result<(CellResult, PT, PR, Cycles), SweepError> {
    let knob = &spec.knobs[cell.knob_index];
    let mut rng = StdRng::seed_from_u64(spec.cell_stream(cell));

    let built = match cache {
        Some(cache) => cache.get_or_build(spec, cell, knob, &mut rng),
        None => build_cell_table(spec, cell, knob, &mut rng).map(|(t, id)| (Arc::new(t), id)),
    };
    let (table, target) = match built {
        Some(pair) => pair,
        None => {
            return Ok((
                CellResult {
                    cell: *cell,
                    knob_label: knob.label.clone(),
                    schedulable: false,
                    theoretical: StackResult::default(),
                    real: StackResult::default(),
                },
                theo_probe,
                real_probe,
                Cycles::ZERO,
            ))
        }
    };
    let horizon = build_arrivals_into(spec, &mut rng, &mut scratch.arrivals);
    let arrivals = &mut scratch.arrivals;

    // Compile the knob's fault plan against this cell's coordinates. The
    // stream is salted away from the cell's workload stream so adding a
    // fault plan never perturbs the task set or the nominal arrivals.
    let faults = if knob.faults.is_empty() {
        CompiledFaults::none()
    } else {
        let compiled = knob
            .faults
            .compile(fault_stream(spec.cell_stream(cell)), cell.n_procs);
        if !compiled.extra_arrivals().is_empty() {
            // Overload-burst arrivals join the nominal stream; both sides
            // are sorted, and the simulators require the merge to be too.
            arrivals.extend_from_slice(compiled.extra_arrivals());
            arrivals.sort_by_key(|&(at, idx)| (at, idx));
        }
        compiled
    };
    let cell_err = |source| SweepError::Cell {
        cell: cell.index,
        source,
    };

    let (theo, theo_probe) = run_theoretical_probed(
        MpdpPolicy::new(Arc::clone(&table)).with_degradation(knob.degradation),
        arrivals,
        TheoreticalConfig::new(horizon)
            .with_tick(knob.tick)
            .with_overhead(knob.theoretical_overhead),
        &faults,
        theo_probe,
    )
    .map_err(cell_err)?;
    let (real, real_probe) = PrototypeSim::probed(
        MpdpPolicy::new(table).with_degradation(knob.degradation),
        PrototypeConfig::new(horizon)
            .with_tick(knob.tick)
            .with_kernel_costs(KernelCosts::default().with_context_scale(knob.context_scale)),
        real_probe,
    )
    .with_faults(faults)
    .run_with_memo(arrivals, &mut scratch.memo)
    .map_err(cell_err)?;

    let mut theoretical = stack_result(&theo.trace, target);
    theoretical.switches = theo.switches;
    theoretical.survival = theo.survival;
    let mut real_result = stack_result(&real.trace, target);
    real_result.switches = real.kernel.context_switches;
    real_result.sched_passes = real.kernel.sched_passes;
    real_result.context_words = real.kernel.context_words;
    real_result.survival = real.survival;

    Ok((
        CellResult {
            cell: *cell,
            knob_label: knob.label.clone(),
            schedulable: true,
            theoretical,
            real: real_result,
        },
        theo_probe,
        real_probe,
        horizon,
    ))
}

/// Reconstructs the analyzed task table a cell ran under, `None` if the
/// offline analysis rejects it (the cell is then reported unschedulable).
/// A pure function of `(spec, cell)` — the RNG is re-derived from the
/// cell's stream exactly as the engine does it — so audit tooling can
/// rebuild the table long after the sweep without perturbing anything.
pub fn cell_table(spec: &SweepSpec, cell: &CellSpec) -> Option<(TaskTable, TaskId)> {
    let knob = &spec.knobs[cell.knob_index];
    let mut rng = StdRng::seed_from_u64(spec.cell_stream(cell));
    build_cell_table(spec, cell, knob, &mut rng)
}

/// Builds the analyzed task table for a cell, `None` if the offline
/// analysis rejects it. Also returns the target aperiodic task id.
fn build_cell_table(
    spec: &SweepSpec,
    cell: &CellSpec,
    knob: &Knobs,
    rng: &mut StdRng,
) -> Option<(TaskTable, TaskId)> {
    let (periodic, aperiodic) = match spec.workload {
        WorkloadSpec::Automotive => {
            let set = automotive_task_set(cell.utilization, cell.n_procs, knob.tick);
            (set.periodic, set.aperiodic)
        }
        WorkloadSpec::Random {
            tasks,
            aperiodic_exec,
        } => {
            let cfg =
                TaskGenConfig::new(tasks * cell.n_procs, cell.utilization * cell.n_procs as f64)
                    .with_seed(rng.gen())
                    .with_tick(knob.tick)
                    .with_period_ticks(2, 40);
            let periodic: Vec<_> = random_task_set(&cfg)
                .iter()
                .map(|t| t.clone().with_profile(MemoryProfile::compute_bound()))
                .collect();
            let aperiodic = vec![AperiodicTask::new(
                TaskId::new(1000),
                "mc-aperiodic",
                aperiodic_exec,
            )];
            (periodic, aperiodic)
        }
    };
    let table = match knob.policy {
        PolicyKind::Mpdp => prepare(
            periodic,
            aperiodic,
            cell.n_procs,
            ToolOptions::new()
                .with_quantization(knob.tick)
                .with_wcet_margin(knob.wcet_margin),
        )
        .ok()?,
        PolicyKind::Background => background_service(periodic, aperiodic, cell.n_procs).ok()?,
        PolicyKind::AperiodicFirst => aperiodic_first(periodic, aperiodic, cell.n_procs).ok()?,
    };
    let target = table.aperiodic().first()?.id();
    Some((table, target))
}

/// Builds the cell's aperiodic arrival stream into a caller-owned buffer
/// (cleared first), so a worker sweeping many cells reuses one
/// allocation. Returns the simulation horizon. The RNG draws depend only
/// on the spec — buffer reuse never touches a cell's stream.
fn build_arrivals_into(
    spec: &SweepSpec,
    rng: &mut StdRng,
    out: &mut Vec<(Cycles, usize)>,
) -> Cycles {
    out.clear();
    match &spec.arrivals {
        &ArrivalSpec::Bursts { activations, gap } => {
            out.extend((0..activations.max(1)).map(|i| {
                // Sub-tick phase jitter: the camera is not synchronized
                // to the scheduler tick.
                let jitter = Cycles::from_millis(rng.gen_range(0u64..100));
                (Cycles::from_secs(1) + gap * i as u64 + jitter, 0usize)
            }));
            // `activations.max(1)` above guarantees a last element; fall
            // back to the burst origin rather than panic if that changes.
            let last = out.last().map_or(Cycles::from_secs(1), |a| a.0);
            last + gap + Cycles::from_secs(5)
        }
        &ArrivalSpec::Poisson { mean_gap, window } => {
            out.extend(
                mpdp_workload::poisson_arrivals(rng, mean_gap, window)
                    .into_iter()
                    .map(|t| (t, 0usize)),
            );
            window + Cycles::from_secs(10)
        }
        ArrivalSpec::Explicit { arrivals, horizon } => {
            out.extend_from_slice(arrivals);
            *horizon
        }
    }
}

/// Folds a trace into per-stack accumulators.
fn stack_result(trace: &Trace, target: TaskId) -> StackResult {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> SweepSpec {
        SweepSpec {
            utilizations: vec![0.4],
            proc_counts: vec![2],
            seeds: vec![0, 1],
            knobs: vec![Knobs::default()],
            workload: WorkloadSpec::Automotive,
            arrivals: ArrivalSpec::Bursts {
                activations: 1,
                gap: Cycles::from_secs(12),
            },
            master_seed: 42,
        }
    }

    #[test]
    fn single_worker_run_covers_every_cell() {
        let spec = tiny_spec();
        let report = run_sweep(&spec, 1).expect("valid spec");
        assert!(!report.faulted);
        assert_eq!(report.cells.len(), 2);
        for (i, cell) in report.cells.iter().enumerate() {
            assert_eq!(cell.cell.index, i);
            assert!(cell.schedulable);
            assert!(!cell.theoretical.aperiodic.is_empty());
            assert!(!cell.real.aperiodic.is_empty());
            assert!(cell.slowdown_pct().expect("both stacks completed") > 0.0);
        }
    }

    #[test]
    fn sweep_collects_one_profile_per_cell() {
        let spec = tiny_spec();
        let report = run_sweep(&spec, 2).expect("valid spec");
        assert_eq!(report.profiles.len(), report.cells.len());
        for (i, p) in report.profiles.iter().enumerate() {
            assert_eq!(p.index, i);
            assert!(p.sim_cycles > 0, "schedulable cells simulate a horizon");
            assert!(p.completions > 0);
        }
    }

    #[test]
    fn probed_cell_matches_unprobed_and_conserves() {
        let spec = tiny_spec();
        let cells = spec.cells();
        let plain = run_cell(&spec, &cells[0]).expect("cell runs");
        let (probed, obs) = run_cell_probed(&spec, &cells[0]).expect("cell runs");
        // Observation never perturbs the simulation: identical results.
        assert_eq!(plain, probed);
        // Both stacks' ledgers partition horizon × n_procs exactly.
        obs.theoretical
            .ledger()
            .check_conservation(obs.horizon)
            .expect("theoretical ledger conserves");
        obs.real
            .ledger()
            .check_conservation(obs.horizon)
            .expect("prototype ledger conserves");
        assert!(obs.real.count_events("isr-enter") > 0);
    }

    #[test]
    fn traced_sweep_observation_is_worker_independent() {
        let spec = tiny_spec();
        let (_, obs1) = run_sweep_traced(&spec, 1, 1).expect("valid spec");
        let (_, obs8) = run_sweep_traced(&spec, 8, 1).expect("valid spec");
        assert_eq!(obs1.real.events(), obs8.real.events());
        assert_eq!(obs1.real.spans(), obs8.real.spans());
        assert!(matches!(
            run_sweep_traced(&spec, 1, 99),
            Err(SweepError::MissingCell(99))
        ));
    }

    #[test]
    fn streaming_exports_match_batch_at_any_worker_count() {
        let spec = tiny_spec();
        let batch = run_sweep(&spec, 1).expect("valid spec");
        let expected = (
            crate::report::cells_csv(&batch),
            crate::report::summary_csv(&batch),
            crate::report::report_json(&batch),
        );
        for workers in [1usize, 8] {
            let streamed = run_sweep_streaming(&spec, workers, None).expect("valid spec");
            assert_eq!(streamed.cells, batch.cells.len());
            assert_eq!(streamed.exports.cells_csv, expected.0, "workers={workers}");
            assert_eq!(
                streamed.exports.summary_csv, expected.1,
                "workers={workers}"
            );
            assert_eq!(
                streamed.exports.report_json, expected.2,
                "workers={workers}"
            );
        }
        let serial = run_sweep_streaming(&spec, 1, None).expect("valid spec");
        assert_eq!(serial.peak_pending, 1, "in-order arrivals fold immediately");
    }

    #[test]
    fn warm_cache_reruns_hit_every_cell_and_stay_byte_identical() {
        let spec = tiny_spec();
        let dir = std::env::temp_dir().join(format!("mpdp-engine-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let plain = run_sweep(&spec, 1).expect("valid spec");
        let expected = crate::report::cells_csv(&plain);

        let cache = CellCache::open(&dir).expect("cache opens");
        let cold = run_sweep_with_cache(&spec, 2, Some(&cache)).expect("cold run");
        assert_eq!(crate::report::cells_csv(&cold), expected);
        let stats = cache.stats();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses as usize, plain.cells.len());

        let warm = run_sweep_with_cache(&spec, 2, Some(&cache)).expect("warm run");
        assert_eq!(crate::report::cells_csv(&warm), expected);
        let stats = cache.stats();
        assert_eq!(
            stats.hits as usize,
            plain.cells.len(),
            "warm run is all hits"
        );
        assert_eq!(stats.misses as usize, plain.cells.len());

        // The streaming path shares the same cache and the same bytes.
        let streamed = run_sweep_streaming(&spec, 2, Some(&cache)).expect("streamed warm");
        assert_eq!(streamed.exports.cells_csv, expected);
        assert_eq!(
            cache.stats().hits as usize,
            2 * plain.cells.len(),
            "streamed warm run is all hits too"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn seeds_change_the_arrival_phase_but_not_the_workload() {
        let spec = tiny_spec();
        let report = run_sweep(&spec, 2).expect("valid spec");
        let [a, b] = &report.cells[..] else {
            panic!("two cells")
        };
        // Same automotive table; both cells stay schedulable and miss-free.
        assert_eq!(a.real.periodic.miss_ratio(), 0.0);
        assert_eq!(b.real.periodic.miss_ratio(), 0.0);
        // Distinct seed coordinates give distinct RNG streams and thus
        // distinct arrival phases. (The *response* may legitimately
        // coincide — MPDP serves the lone aperiodic on arrival — so assert
        // on the stream, not the chaotic outcome.)
        let cells = spec.cells();
        let mut rng_a = StdRng::seed_from_u64(spec.cell_stream(&cells[0]));
        let mut rng_b = StdRng::seed_from_u64(spec.cell_stream(&cells[1]));
        let (mut arr_a, mut arr_b) = (Vec::new(), Vec::new());
        build_arrivals_into(&spec, &mut rng_a, &mut arr_a);
        build_arrivals_into(&spec, &mut rng_b, &mut arr_b);
        assert_ne!(
            arr_a, arr_b,
            "distinct seeds produced identical arrival phases"
        );
    }
}
