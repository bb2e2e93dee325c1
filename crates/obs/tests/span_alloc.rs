//! Span cost in aggregating mode: a pipeline opens one span per (pass,
//! function), so reopening a (category, name) row that already exists
//! must not touch the heap — no name copy, no argument strings.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mao_obs::Recorder;

/// Counts allocations made by the current thread, so the test harness's
/// other threads cannot disturb the count.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees carry over; counting touches only a const-initialized
// thread-local `Cell`, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// One pass span around one function span, both carrying payloads, the
/// shape `run_pipeline_observed` records.
fn pass_over_function(rec: &Recorder, function: &str) {
    let mut pass = rec.span("pass", "REDTEST");
    {
        let mut span = rec.span("function", function);
        span.counter("transformations", 3);
        span.arg("key", 0xfeed_u64);
    }
    pass.counter("matches", 7);
}

#[test]
fn reopening_an_existing_key_allocates_nothing() {
    let rec = Recorder::aggregating();
    let name = String::from("some_function");
    // The first open creates both rows (and this thread's span stack).
    pass_over_function(&rec, &name);

    let before = allocations();
    for _ in 0..100 {
        pass_over_function(&rec, &name);
    }
    let allocated = allocations() - before;
    assert_eq!(
        allocated, 0,
        "100 reopened span pairs allocated {allocated} times"
    );

    let totals = rec.totals();
    let function = totals.iter().find(|t| t.cat == "function").unwrap();
    assert_eq!(
        (function.name.as_str(), function.count),
        ("some_function", 101)
    );
    let pass = totals.iter().find(|t| t.cat == "pass").unwrap();
    assert_eq!((pass.name.as_str(), pass.count), ("REDTEST", 101));
}
