//! Allocation budget of the DAG text codec.
//!
//! Every workflow crosses the TCP runtime as text: the submitter writes
//! it, the master parses and writes it again, and every worker parses it.
//! A counting global allocator records the allocations the test thread
//! makes while a probe is armed, so the budget is exact and does not
//! depend on the machine.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dewe::dag::{parse_workflow, write_workflow};
use dewe::montage::MontageConfig;

struct Counter;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static COUNT: Cell<usize> = const { Cell::new(0) };
}

fn note() {
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            COUNT.with(|c| c.set(c.get() + 1));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, which upholds the `GlobalAlloc` contract; `note` only
// touches const-initialized thread-locals and never allocates.
unsafe impl GlobalAlloc for Counter {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counter = Counter;

/// Run `f` and count the allocations (reallocations included) this
/// thread made while it ran.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, usize) {
    COUNT.with(|c| c.set(0));
    ARMED.with(|a| a.set(true));
    let r = f();
    ARMED.with(|a| a.set(false));
    (r, COUNT.with(Cell::get))
}

#[test]
fn parse_allocates_at_most_ten_times_per_job() {
    let wf = MontageConfig::degree(2.0).build();
    let text = write_workflow(&wf);
    let (parsed, allocs) = allocations(|| parse_workflow(&text).expect("writer output parses"));
    assert_eq!(parsed.job_count(), wf.job_count());
    let per_job = allocs as f64 / wf.job_count() as f64;
    assert!(
        per_job <= 10.0,
        "{allocs} allocations for {} jobs = {per_job:.2} per job",
        wf.job_count()
    );
}

#[test]
fn write_allocates_logarithmically_in_output_size() {
    let wf = MontageConfig::degree(2.0).build();
    let (text, allocs) = allocations(|| write_workflow(&wf));
    // Growing one buffer by doubling takes about log2(bytes) steps; a
    // handful more cover the explicit-edge scan. Anything per job or per
    // line blows through this.
    let log2_bytes = (usize::BITS - text.len().leading_zeros()) as usize;
    assert!(
        allocs <= 2 * log2_bytes,
        "{allocs} allocations to write {} bytes ({} jobs)",
        text.len(),
        wf.job_count()
    );
}
