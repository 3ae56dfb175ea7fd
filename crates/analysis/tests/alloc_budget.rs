//! Heap-allocation budget of one schedulability query.
//!
//! `is_schedulable_at` is the whole of an mpdpd `at` query and of every
//! admission decision: scale the guaranteed set, then partition it with
//! response-time admission. This binary counts the allocations of one
//! query on the automotive set through a counting global allocator and
//! pins a ceiling on them, so a clone or a collected `Vec` that creeps
//! back into the partition trial or the analysis shows up as a failure.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mpdp_analysis::{is_schedulable_at, PartitionHeuristic};
use mpdp_core::time::DEFAULT_TICK;
use mpdp_workload::automotive_task_set;

/// Counts allocations made on the current thread, so the test harness's
/// other threads never pollute the figure.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a thread-local `Cell` with a const initializer, so updating
// it neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // upholds `GlobalAlloc::realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Allocations of one query: the 18-task automotive set at 50% on 2
/// processors, scaled by 1.1, partitioned worst-fit decreasing. When every
/// partition trial cloned the processor's group and the candidate (task
/// name included) and ran the whole analysis on the copy, and the verdict
/// re-analyzed the assigned set, the query made 555 allocations. It now
/// makes 30: 19 to scale the set (the copy and its task names), the rest
/// for the partition's order, groups and assignment.
const CEILING: u64 = 31;

#[test]
fn an_at_query_on_the_automotive_set_stays_within_its_allocation_budget() {
    let set = automotive_task_set(0.5, 2, DEFAULT_TICK);
    let before = allocations();
    let schedulable = is_schedulable_at(
        &set.periodic,
        2,
        1.1,
        PartitionHeuristic::WorstFitDecreasing,
    );
    let used = allocations() - before;

    assert!(schedulable, "the automotive set carries 10% more load");
    assert!(
        used <= CEILING,
        "{used} allocations exceed the budget of {CEILING}"
    );
}
