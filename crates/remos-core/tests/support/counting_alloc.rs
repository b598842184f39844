//! The counting global allocator behind the allocation-contract tests
//! (`zero_alloc.rs` here, `tests/served_alloc.rs` at the repo root): each
//! includes this file with `#[path]`, which installs it for that test
//! binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Pass-through system allocator that counts every acquisition path
/// (fresh, zeroed, and growth). Frees are deliberately not counted: the
/// contract under test is "no heap traffic at steady state", and any
/// dealloc without a matching counted alloc would imply a buffer from
/// the warmup era being dropped, which shrink-free reuse never does.
struct CountingAlloc;

thread_local! {
    /// Acquisitions made by this thread. Const-initialised and without a
    /// destructor, so touching it from inside the allocator neither
    /// allocates nor registers anything.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Count one acquisition against the calling thread (nothing, for a
/// thread already past its thread-local teardown).
fn count() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Acquisitions the calling thread has made so far.
pub fn alloc_count() -> u64 {
    ALLOCS.with(Cell::get)
}
