//! Differential tests for the simulator hot path, off the committed grids.
//!
//! Three rewrites must reproduce the code they replaced bit for bit:
//! the promotion scan over the Periodic Ready Queue (instead of every job
//! slot), the allocation-free `assign_into`, and the contention memo that
//! a sweep worker shares across its cells. The goldens pin only the
//! Figure 4 and 104-cell grids, so these properties run both versions on
//! UUniFast random task sets under random fault plans and degradation
//! settings:
//!
//! * per step: a lockstep policy runs every promotion scan, promotion
//!   instant and assignment both ways on the live state and requires the
//!   same answer, inside both simulator stacks;
//! * per cell: cells rebuilt with the reference implementations and a
//!   fresh memo per cell equal the engine's `CellResult`s;
//! * per memo: a random sequence of cells (repeats included) run through
//!   one shared memo equals the same cells run with fresh memos.

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mpdp_core::ids::{JobId, ProcId};
use mpdp_core::policy::{
    DegradationPolicy, FailoverReport, Job, MpdpPolicy, OverrunAction, Scheduler,
};
use mpdp_core::task::TaskTable;
use mpdp_core::time::Cycles;
use mpdp_faults::{
    fault_stream, BusSpike, CompiledFaults, FailStop, FaultPlan, InterruptFaults, OverloadBurst,
    WcetOverrun,
};
use mpdp_kernel::KernelCosts;
use mpdp_obs::NullProbe;
use mpdp_sim::prototype::{ContentionMemo, PrototypeConfig, PrototypeSim};
use mpdp_sim::theoretical::{run_theoretical_probed, TheoreticalConfig};
use mpdp_sim::trace::Trace;
use mpdp_sweep::{
    cell_table, run_sweep, ArrivalSpec, CellResult, CellSpec, Knobs, StackResult, SweepSpec,
    WorkloadSpec,
};

/// Which promotion scan and assignment a [`Checked`] policy runs.
#[derive(Debug, Clone, Copy)]
enum Mode {
    /// The replaced implementations only.
    Reference,
    /// The current implementations, each call checked against the
    /// reference on the same state.
    Lockstep,
}

/// `MpdpPolicy` with its hot-path entry points routed by [`Mode`].
#[derive(Debug, Clone)]
struct Checked {
    inner: MpdpPolicy,
    mode: Mode,
}

impl Scheduler for Checked {
    fn table(&self) -> &TaskTable {
        self.inner.table()
    }
    fn n_procs(&self) -> usize {
        self.inner.n_procs()
    }
    fn job(&self, id: JobId) -> &Job {
        self.inner.job(id)
    }
    fn release_due(&mut self, now: Cycles) -> Vec<JobId> {
        self.inner.release_due(now)
    }
    fn release_aperiodic(&mut self, task_index: usize, now: Cycles) -> JobId {
        self.inner.release_aperiodic(task_index, now)
    }
    fn promote_due(&mut self, now: Cycles) -> Vec<JobId> {
        match self.mode {
            Mode::Reference => self.inner.promote_due_reference(now),
            Mode::Lockstep => {
                let mut reference = self.inner.clone();
                let want = reference.promote_due_reference(now);
                let got = self.inner.promote_due(now);
                assert_eq!(got, want, "promote_due at {now:?}");
                assert_eq!(
                    self.inner.assign(),
                    reference.assign_reference(),
                    "queues after promote_due at {now:?}"
                );
                got
            }
        }
    }
    fn next_promotion_time(&self) -> Option<Cycles> {
        let reference = self.inner.next_promotion_time_reference();
        if let Mode::Lockstep = self.mode {
            assert_eq!(self.inner.next_promotion_time(), reference);
        }
        reference
    }
    fn next_release_time(&self) -> Option<Cycles> {
        self.inner.next_release_time()
    }
    fn set_running(&mut self, proc: ProcId, job: Option<JobId>) {
        self.inner.set_running(proc, job)
    }
    fn running(&self) -> &[Option<JobId>] {
        self.inner.running()
    }
    fn complete(&mut self, id: JobId, now: Cycles) -> Job {
        self.inner.complete(id, now)
    }
    fn assign(&self) -> Vec<Option<JobId>> {
        let reference = self.inner.assign_reference();
        if let Mode::Lockstep = self.mode {
            // A dirty, wrongly sized buffer: `assign_into` must replace it.
            let mut desired = vec![Some(JobId::new(u32::MAX)); self.n_procs() + 3];
            self.inner.assign_into(&mut desired);
            assert_eq!(desired, reference, "assign_into");
        }
        reference
    }
    fn pick_for_idle(&self, proc: ProcId) -> Option<JobId> {
        self.inner.pick_for_idle(proc)
    }
    fn degradation(&self) -> DegradationPolicy {
        self.inner.degradation()
    }
    fn is_alive(&self, proc: ProcId) -> bool {
        self.inner.is_alive(proc)
    }
    fn try_release_aperiodic(&mut self, task_index: usize, now: Cycles) -> Option<JobId> {
        self.inner.try_release_aperiodic(task_index, now)
    }
    fn detect_missed(&mut self, now: Cycles) -> Vec<JobId> {
        self.inner.detect_missed(now)
    }
    fn kill_job(&mut self, id: JobId, now: Cycles) -> Job {
        self.inner.kill_job(id, now)
    }
    fn demote_job(&mut self, id: JobId) {
        self.inner.demote_job(id)
    }
    fn fail_processor(&mut self, proc: ProcId, now: Cycles) -> FailoverReport {
        self.inner.fail_processor(proc, now)
    }
    fn guaranteed_tasks(&self) -> (usize, usize) {
        self.inner.guaranteed_tasks()
    }
}

/// Folds a stack's trace the way the engine does.
fn fold(trace: &Trace, target: mpdp_core::ids::TaskId) -> StackResult {
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

/// Rebuilds one cell outside the engine: its table, its explicit arrivals
/// merged with the fault plan's bursts, and both stacks run over `policy`
/// with the prototype solving through `memo`.
fn rebuild_cell<S: Scheduler>(
    spec: &SweepSpec,
    cell: &CellSpec,
    policy: impl Fn(MpdpPolicy) -> S,
    memo: &mut ContentionMemo,
) -> CellResult {
    let knob = &spec.knobs[cell.knob_index];
    let Some((table, target)) = cell_table(spec, cell) else {
        return CellResult {
            cell: *cell,
            knob_label: knob.label.clone(),
            schedulable: false,
            theoretical: StackResult::default(),
            real: StackResult::default(),
        };
    };
    let ArrivalSpec::Explicit { arrivals, horizon } = &spec.arrivals else {
        panic!("differential specs use explicit arrivals");
    };
    let mut arrivals = arrivals.clone();
    let faults = if knob.faults.is_empty() {
        CompiledFaults::none()
    } else {
        let compiled = knob
            .faults
            .compile(fault_stream(spec.cell_stream(cell)), cell.n_procs);
        arrivals.extend_from_slice(compiled.extra_arrivals());
        arrivals.sort_by_key(|&(at, idx)| (at, idx));
        compiled
    };
    let table = Arc::new(table);
    let (theo, NullProbe) = run_theoretical_probed(
        policy(MpdpPolicy::new(Arc::clone(&table)).with_degradation(knob.degradation)),
        &arrivals,
        TheoreticalConfig::new(*horizon)
            .with_tick(knob.tick)
            .with_overhead(knob.theoretical_overhead),
        &faults,
        NullProbe,
    )
    .expect("theoretical stack accepts the cell");
    let (real, NullProbe) = PrototypeSim::probed(
        policy(MpdpPolicy::new(table).with_degradation(knob.degradation)),
        PrototypeConfig::new(*horizon)
            .with_tick(knob.tick)
            .with_kernel_costs(KernelCosts::default().with_context_scale(knob.context_scale)),
        NullProbe,
    )
    .with_faults(faults)
    .run_with_memo(&arrivals, memo)
    .expect("prototype stack accepts the cell");
    let mut theoretical = fold(&theo.trace, target);
    theoretical.switches = theo.switches;
    theoretical.survival = theo.survival;
    let mut real_result = fold(&real.trace, target);
    real_result.switches = real.kernel.context_switches;
    real_result.sched_passes = real.kernel.sched_passes;
    real_result.context_words = real.kernel.context_words;
    real_result.survival = real.survival;
    CellResult {
        cell: *cell,
        knob_label: knob.label.clone(),
        schedulable: true,
        theoretical,
        real: real_result,
    }
}

fn reference(p: MpdpPolicy) -> Checked {
    Checked {
        inner: p,
        mode: Mode::Reference,
    }
}

fn lockstep(p: MpdpPolicy) -> Checked {
    Checked {
        inner: p,
        mode: Mode::Lockstep,
    }
}

/// A random fault plan for a cell of `n_procs` processors over
/// `horizon_ms`: each fault kind present with probability ½.
fn random_plan(rng: &mut StdRng, n_procs: usize, horizon_ms: u64) -> FaultPlan {
    let at = |rng: &mut StdRng, lo: f64, hi: f64| {
        Cycles::from_millis((horizon_ms as f64 * rng.gen_range(lo..hi)) as u64)
    };
    let mut plan = FaultPlan::default();
    if rng.gen_bool(0.5) {
        plan = plan.with_wcet(WcetOverrun::new(
            rng.gen_range(0.05..0.6),
            rng.gen_range(1.1..2.5),
        ));
    }
    if rng.gen_bool(0.5) {
        let start = at(rng, 0.1, 0.8);
        plan = plan.with_burst(OverloadBurst::new(
            start,
            rng.gen_range(1usize..6),
            Cycles::from_millis(7),
        ));
    }
    // A fail-stop needs a surviving processor to re-home onto.
    if n_procs > 1 && rng.gen_bool(0.5) {
        let proc = rng.gen_range(0..n_procs);
        plan = plan.with_fail_stop(FailStop::new(proc, at(rng, 0.2, 0.8)));
    }
    if rng.gen_bool(0.5) {
        plan = plan.with_interrupts(InterruptFaults {
            lost_probability: rng.gen_range(0.0..0.3),
            spurious: vec![at(rng, 0.1, 0.9)],
        });
    }
    if rng.gen_bool(0.5) {
        let start = at(rng, 0.1, 0.7);
        plan = plan.with_bus_spike(BusSpike::new(
            start,
            Cycles::from_millis(horizon_ms / 10),
            rng.gen_range(1.2..4.0),
        ));
    }
    plan
}

/// A random degradation policy: any overrun action (or none), any budget
/// margin, shedding on or off.
fn random_degradation(rng: &mut StdRng) -> DegradationPolicy {
    let mut d = DegradationPolicy::default().with_budget_margin(rng.gen_range(1.0..1.5));
    d.overrun = [
        None,
        Some(OverrunAction::RunToCompletion),
        Some(OverrunAction::Kill),
        Some(OverrunAction::Demote),
    ][rng.gen_range(0usize..4)];
    if rng.gen_bool(0.5) {
        d.shed_limit = Some(rng.gen_range(1usize..4));
    }
    d
}

/// A random UUniFast spec drawn from `seed`: one processor count, two
/// utilizations, two seeds, a fault-free knob and a faulted one, explicit
/// arrivals.
fn random_spec(seed: u64) -> SweepSpec {
    const HORIZON_MS: u64 = 1_500;
    let mut rng = StdRng::seed_from_u64(seed);
    let n_procs = rng.gen_range(1usize..=4);
    let tick = Cycles::from_millis(25 * rng.gen_range(1u64..4));
    let mut at_ms: Vec<u64> = (0..rng.gen_range(1usize..6))
        .map(|_| rng.gen_range(0..HORIZON_MS - 200))
        .collect();
    at_ms.sort_unstable();
    let faulted = Knobs::named("faulted")
        .with_tick(tick)
        .with_faults(random_plan(&mut rng, n_procs, HORIZON_MS))
        .with_degradation(random_degradation(&mut rng));
    SweepSpec {
        utilizations: vec![rng.gen_range(0.25..0.7), rng.gen_range(0.25..0.7)],
        proc_counts: vec![n_procs],
        seeds: vec![seed, seed + 1],
        knobs: vec![Knobs::named("clean").with_tick(tick), faulted],
        workload: WorkloadSpec::Random {
            tasks: 3,
            aperiodic_exec: Cycles::from_millis(20),
        },
        arrivals: ArrivalSpec::Explicit {
            arrivals: at_ms
                .into_iter()
                .map(|ms| (Cycles::from_millis(ms), 0))
                .collect(),
            horizon: Cycles::from_millis(HORIZON_MS),
        },
        master_seed: seed ^ 0x5EED,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every promotion scan, promotion instant and assignment agrees with
    /// the reference at every step of both stacks, and the engine's cells
    /// (one memo shared by the sweep's worker) equal cells rebuilt with
    /// the reference implementations and a fresh memo each.
    #[test]
    fn engine_cells_match_the_reference_step_by_step(seed in any::<u64>()) {
        let spec = random_spec(seed);
        let report = run_sweep(&spec, 1)
            .map_err(|e| TestCaseError::fail(format!("sweep failed: {e}")))?;
        for (cell, engine) in spec.cells().iter().zip(&report.cells) {
            let checked = rebuild_cell(&spec, cell, lockstep, &mut ContentionMemo::new());
            let reference = rebuild_cell(&spec, cell, reference, &mut ContentionMemo::new());
            prop_assert_eq!(&checked, &reference, "cell {}", cell.index);
            prop_assert_eq!(engine, &reference, "cell {}", cell.index);
        }
    }

    /// One memo carried through a random sequence of cells — repeats and
    /// all — answers exactly as fresh memos do.
    #[test]
    fn a_shared_memo_matches_fresh_memos(
        seed in any::<u64>(),
        order in prop::collection::vec(0usize..8, 1..12),
    ) {
        let spec = random_spec(seed);
        let cells = spec.cells();
        let mut shared = ContentionMemo::new();
        for i in order {
            let cell = &cells[i % cells.len()];
            let warm = rebuild_cell(&spec, cell, |p| p, &mut shared);
            let fresh = rebuild_cell(&spec, cell, |p| p, &mut ContentionMemo::new());
            prop_assert_eq!(warm, fresh, "cell {}", cell.index);
        }
    }
}

/// The memo is worth sharing: the second run of a cell through a warm
/// memo solves nothing new.
#[test]
fn a_warm_memo_solves_nothing_new_for_a_repeated_cell() {
    let spec = SweepSpec {
        utilizations: vec![0.5],
        proc_counts: vec![3],
        seeds: vec![1],
        knobs: vec![Knobs::default()],
        workload: WorkloadSpec::Automotive,
        arrivals: ArrivalSpec::Explicit {
            arrivals: vec![(Cycles::from_millis(300), 0)],
            horizon: Cycles::from_secs(2),
        },
        master_seed: 3,
    };
    let cell = &spec.cells()[0];
    let mut memo = ContentionMemo::new();
    let first = rebuild_cell(&spec, cell, |p| p, &mut memo);
    let solves = memo.solves();
    assert!(solves > 0 && memo.len() as u64 == solves);
    let second = rebuild_cell(&spec, cell, |p| p, &mut memo);
    assert_eq!(first, second);
    assert_eq!(memo.solves(), solves, "a repeated cell hits every vector");
}
