//! Static partitioning of periodic tasks onto processors.
//!
//! MPDP is hybrid local/global: before promotion a periodic job may run
//! anywhere, but *after* promotion it runs on its design-time processor, so
//! the upper-band guarantee is a per-processor fixed-priority problem.
//! "Initially, periodic tasks are statically distributed among the
//! processors. The uniprocessor formula is used to compute worst case
//! response times of periodic tasks on a single processor" (paper §4.1).
//!
//! Three bin-packing heuristics are provided, all *decreasing* (tasks
//! considered in order of falling utilization) with exact response-time
//! admission: a task is placed on a processor only if the whole group —
//! existing tasks plus the candidate — passes the RTA there.
//!
//! # Examples
//!
//! ```
//! use mpdp_analysis::partition::{partition, PartitionHeuristic};
//! use mpdp_workload::automotive_task_set;
//! use mpdp_core::time::DEFAULT_TICK;
//!
//! # fn main() -> Result<(), mpdp_core::TaskSetError> {
//! let set = automotive_task_set(0.5, 2, DEFAULT_TICK);
//! let assigned = partition(set.periodic, 2, PartitionHeuristic::WorstFitDecreasing)?;
//! assert!(assigned.iter().any(|t| t.processor().index() == 0));
//! assert!(assigned.iter().any(|t| t.processor().index() == 1));
//! # Ok(())
//! # }
//! ```

use mpdp_core::error::TaskSetError;
use mpdp_core::ids::ProcId;
use mpdp_core::rta;
use mpdp_core::task::PeriodicTask;

/// Which bin-packing heuristic orders the candidate processors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PartitionHeuristic {
    /// First processor (by index) that admits the task.
    FirstFitDecreasing,
    /// Admitting processor with the *highest* remaining utilization
    /// (tightest fit).
    BestFitDecreasing,
    /// Admitting processor with the *lowest* current utilization — spreads
    /// load, which is what a reactive system wants (more slack everywhere
    /// for aperiodic work). This is the default.
    #[default]
    WorstFitDecreasing,
}

/// Assigns every task a processor using `heuristic`, with RTA admission.
///
/// Tasks keep their ids, parameters, and priorities; only the processor
/// assignment is (re)written. Returns the tasks in their input order.
///
/// # Errors
///
/// [`TaskSetError::PartitioningFailed`] naming the first task no processor
/// could admit.
///
/// # Panics
///
/// Panics if `n_procs` is zero.
pub fn partition(
    tasks: Vec<PeriodicTask>,
    n_procs: usize,
    heuristic: PartitionHeuristic,
) -> Result<Vec<PeriodicTask>, TaskSetError> {
    let assignment = assign(&tasks, n_procs, heuristic)?;
    Ok(tasks
        .into_iter()
        .zip(assignment)
        .map(|(t, proc)| t.with_processor(proc))
        .collect())
}

/// The processor [`partition`] gives each task, in input order, computed
/// on borrowed tasks: each candidate is tried by pushing the task onto the
/// processor's group, checking the members its arrival can delay, and
/// popping it again on failure.
pub(crate) fn assign(
    tasks: &[PeriodicTask],
    n_procs: usize,
    heuristic: PartitionHeuristic,
) -> Result<Vec<ProcId>, TaskSetError> {
    assert!(n_procs > 0, "at least one processor");
    // Consider tasks in decreasing utilization order.
    let mut order: Vec<usize> = (0..tasks.len()).collect();
    order.sort_by(|&a, &b| {
        tasks[b]
            .utilization()
            .partial_cmp(&tasks[a].utilization())
            .expect("utilizations are finite")
            .then(tasks[a].id().cmp(&tasks[b].id()))
    });

    let mut groups: Vec<Vec<&PeriodicTask>> = vec![Vec::new(); n_procs];
    // Running group utilizations, summed in placement order exactly as
    // `Iterator::sum` over the group would.
    let mut utils: Vec<f64> = vec![0.0; n_procs];
    let mut assignment: Vec<ProcId> = vec![ProcId::new(0); tasks.len()];
    let mut candidates: Vec<usize> = Vec::with_capacity(n_procs);

    for &i in &order {
        let task = &tasks[i];
        candidates.clear();
        candidates.extend(0..n_procs);
        match heuristic {
            PartitionHeuristic::FirstFitDecreasing => {}
            PartitionHeuristic::BestFitDecreasing => {
                candidates.sort_by(|&a, &b| {
                    utils[b]
                        .partial_cmp(&utils[a])
                        .expect("finite")
                        .then(a.cmp(&b))
                });
            }
            PartitionHeuristic::WorstFitDecreasing => {
                candidates.sort_by(|&a, &b| {
                    utils[a]
                        .partial_cmp(&utils[b])
                        .expect("finite")
                        .then(a.cmp(&b))
                });
            }
        }
        let placed = candidates.iter().copied().find(|&p| {
            let group = &mut groups[p];
            group.push(task);
            if admits(group) {
                true
            } else {
                group.pop();
                false
            }
        });
        let Some(p) = placed else {
            return Err(TaskSetError::PartitioningFailed(task.id()));
        };
        utils[p] += task.utilization();
        assignment[i] = ProcId::new(p as u32);
    }
    Ok(assignment)
}

/// Whether a group whose members all passed the response-time analysis
/// still passes it with its last member just added. Only the newcomer and
/// the members it outranks can change: a member's interference set is the
/// strictly higher-priority tasks, so the rest are already verified.
fn admits(group: &[&PeriodicTask]) -> bool {
    let newcomer = group.len() - 1;
    let high = group[newcomer].priorities().high;
    (0..group.len())
        .filter(|&k| k == newcomer || group[k].priorities().high < high)
        .all(|k| rta::worst_case_response(group, k).is_ok())
}

/// Reference implementation of [`partition`]: the version that cloned the
/// processor's group and the candidate for every trial and ran
/// [`rta::analyze`] on the copy. Kept for the differential tests, which
/// require both to return the same assignment or the same error.
#[cfg(any(test, feature = "reference"))]
pub fn partition_reference(
    tasks: Vec<PeriodicTask>,
    n_procs: usize,
    heuristic: PartitionHeuristic,
) -> Result<Vec<PeriodicTask>, TaskSetError> {
    assert!(n_procs > 0, "at least one processor");
    let mut order: Vec<usize> = (0..tasks.len()).collect();
    order.sort_by(|&a, &b| {
        tasks[b]
            .utilization()
            .partial_cmp(&tasks[a].utilization())
            .expect("utilizations are finite")
            .then(tasks[a].id().cmp(&tasks[b].id()))
    });
    let group_util =
        |group: &[PeriodicTask]| -> f64 { group.iter().map(PeriodicTask::utilization).sum() };

    let mut groups: Vec<Vec<PeriodicTask>> = vec![Vec::new(); n_procs];
    let mut assignment: Vec<Option<ProcId>> = vec![None; tasks.len()];

    for &i in &order {
        let task = &tasks[i];
        let mut candidates: Vec<usize> = (0..n_procs).collect();
        match heuristic {
            PartitionHeuristic::FirstFitDecreasing => {}
            PartitionHeuristic::BestFitDecreasing => {
                candidates.sort_by(|&a, &b| {
                    group_util(&groups[b])
                        .partial_cmp(&group_util(&groups[a]))
                        .expect("finite")
                        .then(a.cmp(&b))
                });
            }
            PartitionHeuristic::WorstFitDecreasing => {
                candidates.sort_by(|&a, &b| {
                    group_util(&groups[a])
                        .partial_cmp(&group_util(&groups[b]))
                        .expect("finite")
                        .then(a.cmp(&b))
                });
            }
        }
        let mut placed = false;
        for p in candidates {
            let proc = ProcId::new(p as u32);
            let mut trial: Vec<PeriodicTask> = groups[p].clone();
            trial.push(task.clone().with_processor(proc));
            if rta::analyze_reference(&trial, n_procs).is_ok() {
                groups[p].push(task.clone().with_processor(proc));
                assignment[i] = Some(proc);
                placed = true;
                break;
            }
        }
        if !placed {
            return Err(TaskSetError::PartitioningFailed(task.id()));
        }
    }

    Ok(tasks
        .into_iter()
        .enumerate()
        .map(|(i, t)| {
            let proc = assignment[i].expect("every task placed");
            t.with_processor(proc)
        })
        .collect())
}

/// Per-processor utilization of an assigned task set.
pub fn per_proc_utilization(tasks: &[PeriodicTask], n_procs: usize) -> Vec<f64> {
    let mut out = vec![0.0; n_procs];
    for t in tasks {
        out[t.processor().index()] += t.utilization();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpdp_core::ids::TaskId;
    use mpdp_core::priority::Priority;
    use mpdp_core::time::Cycles;

    fn t(id: u32, c: u64, period: u64) -> PeriodicTask {
        PeriodicTask::new(
            TaskId::new(id),
            format!("t{id}"),
            Cycles::new(c),
            Cycles::new(period),
        )
        .with_priorities(Priority::new(100 - id), Priority::new(100 - id))
    }

    #[test]
    fn worst_fit_spreads_load() {
        // Four half-utilization tasks on two processors: two per processor.
        let tasks = vec![t(0, 50, 100), t(1, 50, 100), t(2, 40, 100), t(3, 40, 100)];
        let assigned = partition(tasks, 2, PartitionHeuristic::WorstFitDecreasing).unwrap();
        let utils = per_proc_utilization(&assigned, 2);
        assert!((utils[0] - 0.9).abs() < 1e-9);
        assert!((utils[1] - 0.9).abs() < 1e-9);
    }

    #[test]
    fn first_fit_packs_onto_low_indices() {
        let tasks = vec![t(0, 10, 100), t(1, 10, 100), t(2, 10, 100)];
        let assigned = partition(tasks, 3, PartitionHeuristic::FirstFitDecreasing).unwrap();
        assert!(assigned.iter().all(|t| t.processor() == ProcId::new(0)));
    }

    #[test]
    fn best_fit_prefers_tightest_admitting_processor() {
        // Seed: one big task; best-fit then squeezes the next task beside it
        // while worst-fit would go to the empty processor.
        let tasks = vec![t(0, 60, 100), t(1, 10, 100)];
        let bf = partition(tasks.clone(), 2, PartitionHeuristic::BestFitDecreasing).unwrap();
        assert_eq!(bf[0].processor(), bf[1].processor());
        let wf = partition(tasks, 2, PartitionHeuristic::WorstFitDecreasing).unwrap();
        assert_ne!(wf[0].processor(), wf[1].processor());
    }

    #[test]
    fn admission_is_exact_not_utilization_based() {
        // Two tasks each 60% utilization cannot share one processor even
        // though first-fit by utilization < 1.2 might try; RTA rejects.
        let tasks = vec![t(0, 60, 100), t(1, 60, 100)];
        let assigned = partition(tasks, 2, PartitionHeuristic::FirstFitDecreasing).unwrap();
        assert_ne!(assigned[0].processor(), assigned[1].processor());
    }

    #[test]
    fn failure_reported_when_overloaded() {
        let tasks = vec![t(0, 80, 100), t(1, 80, 100), t(2, 80, 100)];
        let err = partition(tasks, 2, PartitionHeuristic::WorstFitDecreasing).unwrap_err();
        assert!(matches!(err, TaskSetError::PartitioningFailed(_)));
    }

    #[test]
    fn preserves_input_order_and_ids() {
        let tasks = vec![t(3, 10, 100), t(1, 20, 100), t(2, 30, 100)];
        let assigned = partition(tasks, 2, PartitionHeuristic::WorstFitDecreasing).unwrap();
        let ids: Vec<u32> = assigned.iter().map(|t| t.id().as_u32()).collect();
        assert_eq!(ids, vec![3, 1, 2]);
    }
}
