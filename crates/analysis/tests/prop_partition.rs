//! Differential tests for the clone-free partition and response-time
//! analysis.
//!
//! `partition` now tries each candidate on a group of borrowed tasks and
//! checks only the members the candidate can delay; `rta::analyze` groups
//! the tasks by processor once; `worst_case_response` iterates the
//! higher-priority tasks in place; `is_schedulable_at` lets a successful
//! partition decide. These functions build every sweep cell's task table
//! and every mpdpd admission verdict, so each must answer exactly as the
//! version it replaced: the same assignment, the same results, or the same
//! error variant naming the same task.
//!
//! Inputs are UUniFast sets from `mpdp_workload::taskgen` on 1–4
//! processors under all three heuristics, at load factors 0.5–3.0. Loads up
//! to 1.3 per processor and the larger factors make many sets
//! unschedulable; appended copies of existing tasks (fresh ids, same
//! parameters and priorities) add equal-utilization and equal-priority
//! ties.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mpdp_analysis::partition::partition_reference;
use mpdp_analysis::sensitivity::is_schedulable_at_reference;
use mpdp_analysis::{is_schedulable_at, partition, scale_load, PartitionHeuristic};
use mpdp_core::ids::{ProcId, TaskId};
use mpdp_core::rta;
use mpdp_core::task::PeriodicTask;
use mpdp_workload::taskgen::{random_task_set, TaskGenConfig};

const HEURISTICS: [PartitionHeuristic; 3] = [
    PartitionHeuristic::FirstFitDecreasing,
    PartitionHeuristic::BestFitDecreasing,
    PartitionHeuristic::WorstFitDecreasing,
];

/// A UUniFast set of `n` tasks at `load` per processor, with `ties` copies
/// of randomly chosen tasks appended under fresh ids.
fn task_set(seed: u64, n: usize, procs: usize, load: f64, ties: usize) -> Vec<PeriodicTask> {
    let mut config = TaskGenConfig::new(n, load * procs as f64).with_seed(seed);
    if seed.is_multiple_of(3) {
        config = config.with_deadline_fraction(0.5, 1.0);
    }
    let mut tasks = random_task_set(&config);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x71E5);
    for k in 0..ties {
        let t = tasks[rng.gen_range(0..n)].clone();
        let id = TaskId::new(1000 + k as u32);
        tasks.push(
            PeriodicTask::new(id, format!("tie{k}"), t.wcet(), t.period())
                .with_deadline(t.deadline())
                .with_priorities(t.priorities().low, t.priorities().high),
        );
    }
    tasks
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// `partition` and `is_schedulable_at` agree with the reference for
    /// every heuristic, at the given load and scaled by `factor`.
    #[test]
    fn partition_and_schedulability_match_the_reference(
        seed in any::<u64>(),
        n in 1usize..=14,
        procs in 1usize..=4,
        load in 0.2f64..1.3,
        ties in 0usize..=4,
        factor in 0.5f64..=3.0,
    ) {
        let tasks = task_set(seed, n, procs, load, ties);
        let scaled = scale_load(&tasks, factor);
        for h in HEURISTICS {
            for set in [&tasks, &scaled] {
                prop_assert_eq!(
                    partition(set.clone(), procs, h),
                    partition_reference(set.clone(), procs, h),
                    "{:?} on {} procs", h, procs
                );
            }
            prop_assert_eq!(
                is_schedulable_at(&tasks, procs, factor, h),
                is_schedulable_at_reference(&tasks, procs, factor, h),
                "{:?} on {} procs at factor {}", h, procs, factor
            );
        }
    }

    /// `rta::analyze` returns the reference's results, or its first error,
    /// on arbitrary assignments: overloaded groups, empty processors and
    /// out-of-range processors included.
    #[test]
    fn analyze_matches_the_reference_on_any_assignment(
        seed in any::<u64>(),
        n in 1usize..=14,
        procs in 1usize..=4,
        load in 0.2f64..1.3,
        ties in 0usize..=4,
        factor in 0.5f64..=3.0,
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA55);
        // One set in twenty names a processor past the platform.
        let limit = if rng.gen_range(0..20) == 0 { procs + 1 } else { procs };
        let tasks: Vec<PeriodicTask> = scale_load(&task_set(seed, n, procs, load, ties), factor)
            .into_iter()
            .map(|t| t.with_processor(ProcId::new(rng.gen_range(0..limit) as u32)))
            .collect();
        prop_assert_eq!(
            rta::analyze(&tasks, procs),
            rta::analyze_reference(&tasks, procs)
        );
        let group: Vec<&PeriodicTask> = tasks.iter().collect();
        for i in 0..group.len() {
            prop_assert_eq!(
                rta::worst_case_response(&group, i),
                rta::worst_case_response_reference(&group, i),
                "task {}", i
            );
        }
    }
}

/// The generator reaches both verdicts, so neither property holds
/// vacuously.
#[test]
fn the_inputs_cover_schedulable_and_unschedulable_sets() {
    let (mut ok, mut failed) = (0, 0);
    for seed in 0..200u64 {
        let procs = 1 + (seed % 4) as usize;
        let tasks = task_set(seed, 8, procs, 0.9, (seed % 3) as usize);
        match partition(tasks, procs, PartitionHeuristic::WorstFitDecreasing) {
            Ok(_) => ok += 1,
            Err(_) => failed += 1,
        }
    }
    assert!(ok > 20 && failed > 20, "{ok} schedulable, {failed} not");
}
