//! Sensitivity analysis: how much load can a configuration carry before the
//! guarantees break?
//!
//! The classic measure is the **breakdown utilization** (Lehoczky, Sha &
//! Ding): scale every period down (load up) until the exact schedulability
//! test first fails. The offline tool uses it to answer "how much margin
//! does this partitioning have?" and the experiments use it to position the
//! paper's 40–60% operating range against the workload's actual limit.

use mpdp_core::error::TaskSetError;
use mpdp_core::task::PeriodicTask;
use mpdp_core::time::Cycles;

use crate::partition::{assign, PartitionHeuristic};

/// Scales a task set's utilization by `factor` by dividing every period and
/// deadline (WCETs are untouched, so utilization multiplies by `factor`).
///
/// Periods are floored at each task's WCET, which caps the per-task
/// utilization at 1.
///
/// # Panics
///
/// Panics if `factor` is not finite and positive.
pub fn scale_load(tasks: &[PeriodicTask], factor: f64) -> Vec<PeriodicTask> {
    assert!(
        factor.is_finite() && factor > 0.0,
        "scale factor must be positive"
    );
    tasks
        .iter()
        .map(|t| {
            let period = Cycles::new(((t.period().as_u64() as f64 / factor).round() as u64).max(1))
                .max(t.wcet());
            let deadline =
                Cycles::new(((t.deadline().as_u64() as f64 / factor).round() as u64).max(1))
                    .max(t.wcet())
                    .min(period);
            PeriodicTask::new(t.id(), t.name(), t.wcet(), period)
                .with_deadline(deadline)
                .with_offset(t.offset())
                .with_priorities(t.priorities().low, t.priorities().high)
                .with_processor(t.processor())
                .with_profile(*t.profile())
                .with_stack_words(t.stack_words())
        })
        .collect()
}

/// Whether the set, scaled by `factor`, can still be partitioned and
/// verified schedulable on `n_procs` processors.
pub fn is_schedulable_at(
    tasks: &[PeriodicTask],
    n_procs: usize,
    factor: f64,
    heuristic: PartitionHeuristic,
) -> bool {
    // A successful partition already verified every processor's group
    // with the response-time analysis, so it decides the answer alone.
    assign(&scale_load(tasks, factor), n_procs, heuristic).is_ok()
}

/// Reference implementation of [`is_schedulable_at`]: partition, then
/// re-run the whole analysis on the assigned set. Kept for the
/// differential tests.
#[cfg(any(test, feature = "reference"))]
pub fn is_schedulable_at_reference(
    tasks: &[PeriodicTask],
    n_procs: usize,
    factor: f64,
    heuristic: PartitionHeuristic,
) -> bool {
    let scaled = scale_load(tasks, factor);
    match crate::partition::partition_reference(scaled, n_procs, heuristic) {
        Ok(assigned) => mpdp_core::rta::analyze_reference(&assigned, n_procs).is_ok(),
        Err(_) => false,
    }
}

/// Finds the **breakdown utilization** by binary search on the load
/// factor: the system utilization (`Σ C/T / m`) achieved at the largest
/// factor (within `tolerance`) at which the scaled set is still
/// schedulable. A set whose scaling saturates while still schedulable
/// (every period floored at its WCET) reports the saturated utilization.
///
/// # Errors
///
/// [`TaskSetError::Unschedulable`] if the set is not schedulable even at
/// its given load (factor 1.0).
///
/// # Panics
///
/// Panics if `tasks` is empty or `tolerance` is not positive.
pub fn breakdown_utilization(
    tasks: &[PeriodicTask],
    n_procs: usize,
    heuristic: PartitionHeuristic,
    tolerance: f64,
) -> Result<f64, TaskSetError> {
    assert!(!tasks.is_empty(), "need at least one task");
    assert!(tolerance > 0.0, "tolerance must be positive");
    if !is_schedulable_at(tasks, n_procs, 1.0, heuristic) {
        return Err(TaskSetError::Unschedulable(tasks[0].id()));
    }
    let util_at = |factor: f64| -> f64 {
        scale_load(tasks, factor)
            .iter()
            .map(PeriodicTask::utilization)
            .sum::<f64>()
            / n_procs as f64
    };
    // Exponential probe for an unschedulable upper bound.
    let mut lo = 1.0f64;
    let mut hi = 2.0f64;
    let mut guard = 0;
    while is_schedulable_at(tasks, n_procs, hi, heuristic) {
        lo = hi;
        hi *= 2.0;
        guard += 1;
        if guard > 16 {
            // The period floor saturated every task at U = 1 while the set
            // stayed schedulable: report the saturated utilization.
            return Ok(util_at(lo));
        }
    }
    while hi - lo > tolerance {
        let mid = (lo + hi) / 2.0;
        if is_schedulable_at(tasks, n_procs, mid, heuristic) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(util_at(lo))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpdp_core::ids::TaskId;
    use mpdp_core::priority::Priority;
    use mpdp_core::time::DEFAULT_TICK;
    use mpdp_workload::automotive_task_set;

    fn simple(id: u32, c: u64, t: u64) -> PeriodicTask {
        PeriodicTask::new(
            TaskId::new(id),
            format!("t{id}"),
            Cycles::new(c),
            Cycles::new(t),
        )
        .with_priorities(Priority::new(100 - id), Priority::new(100 - id))
    }

    #[test]
    fn scaling_multiplies_utilization() {
        let tasks = vec![simple(0, 10, 100)];
        let scaled = scale_load(&tasks, 2.0);
        assert_eq!(scaled[0].period(), Cycles::new(50));
        assert!((scaled[0].utilization() - 0.2).abs() < 1e-12);
        // WCET floor: scaling cannot push utilization past 1.
        let maxed = scale_load(&tasks, 100.0);
        assert_eq!(maxed[0].period(), Cycles::new(10));
    }

    #[test]
    fn single_task_breaks_down_at_full_processor() {
        let tasks = vec![simple(0, 10, 100)];
        let util = breakdown_utilization(&tasks, 1, PartitionHeuristic::default(), 0.01).unwrap();
        // One task alone saturates at U = 1 and stays schedulable.
        assert!((util - 1.0).abs() < 0.05, "breakdown utilization {util}");
    }

    #[test]
    fn automotive_breakdown_is_above_the_papers_operating_range() {
        let set = automotive_task_set(0.4, 2, DEFAULT_TICK);
        let util =
            breakdown_utilization(&set.periodic, 2, PartitionHeuristic::default(), 0.02).unwrap();
        // The paper operates at 40–60%; the exact test admits well beyond
        // that but at most full capacity.
        assert!(util > 0.6 && util <= 1.0, "breakdown at {util}");
    }

    #[test]
    fn overloaded_input_is_rejected() {
        let tasks = vec![simple(0, 80, 100), simple(1, 80, 100)];
        assert!(breakdown_utilization(&tasks, 1, PartitionHeuristic::default(), 0.01).is_err());
    }

    #[test]
    fn more_processors_do_not_lower_the_breakdown() {
        let set = automotive_task_set(0.3, 2, DEFAULT_TICK);
        let u2 =
            breakdown_utilization(&set.periodic, 2, PartitionHeuristic::default(), 0.05).unwrap();
        let u3 =
            breakdown_utilization(&set.periodic, 3, PartitionHeuristic::default(), 0.05).unwrap();
        assert!(u3 >= u2 * 0.9, "u2={u2} u3={u3}");
    }
}
