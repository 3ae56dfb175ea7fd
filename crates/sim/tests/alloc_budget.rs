//! Heap-allocation budget of one prototype run.
//!
//! The prototype's event loop runs once per scheduling event, hundreds of
//! thousands of times per sweep, so an allocation that sneaks into it
//! costs more than any arithmetic. This binary counts the allocations of
//! one fixed Figure 4 cell — the automotive set at 60% utilization on 4
//! processors, four camera activations 12 s apart — through a counting
//! global allocator, and pins a ceiling on them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mpdp_analysis::{prepare, ToolOptions};
use mpdp_core::policy::MpdpPolicy;
use mpdp_core::time::{Cycles, DEFAULT_TICK};
use mpdp_sim::prototype::{run_prototype, PrototypeConfig};
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

/// Allocations (including reallocations) of the fixed cell's prototype
/// run, from building the simulator to its outcome. The run takes 5,143
/// event-loop iterations. Before the loop reused one assignment buffer,
/// and before one contention memo served both the speeds and the queueing
/// delay, it made 28,169 allocations (≈5.5 per iteration); it now makes
/// 6,865 (≈1.3), most of them in the interrupt controller's routing and
/// in per-pass job lists.
const CEILING: u64 = 7_000;

#[test]
fn fig4_cell_prototype_run_stays_within_its_allocation_budget() {
    let tick = DEFAULT_TICK;
    let set = automotive_task_set(0.6, 4, tick);
    let table = prepare(
        set.periodic,
        set.aperiodic,
        4,
        ToolOptions::new()
            .with_quantization(tick)
            .with_wcet_margin(1.15),
    )
    .expect("the Figure 4 set is schedulable at 60% on 4 processors");
    let gap = Cycles::from_secs(12);
    let arrivals: Vec<(Cycles, usize)> = (0..4u64)
        .map(|i| (Cycles::from_secs(1) + gap * i, 0))
        .collect();
    let horizon = Cycles::from_secs(1) + gap * 4 + Cycles::from_secs(5);
    let config = PrototypeConfig::new(horizon).with_tick(tick);
    let policy = MpdpPolicy::new(table);

    let before = allocations();
    let outcome = run_prototype(policy, &arrivals, config).expect("valid run");
    let used = allocations() - before;

    assert_eq!(outcome.trace.deadline_misses(), 0);
    assert!(
        used <= CEILING,
        "{used} allocations over {} loop iterations exceeds the budget of {CEILING}",
        outcome.loop_iterations
    );
}
