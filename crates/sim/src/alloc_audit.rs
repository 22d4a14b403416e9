//! Test-only counting global allocator (feature `alloc_audit`).
//!
//! Enabling the feature installs a [`GlobalAlloc`] that forwards to the
//! system allocator while counting every allocation event, so a test
//! can prove a hot path allocation-free: snapshot the counters, run the
//! steady state, and assert the delta. The process-wide counters are
//! monotonic — audits of concurrent code should measure the whole
//! process and reason in per-unit-of-work bounds. An exact-zero audit of
//! single-threaded code reads the calling thread's own count instead, so
//! allocations on other threads (a test harness starting the next test,
//! say) cannot land in its window.
//!
//! Never enable this feature in a benchmarking or production build: the
//! counter increments per allocation are cheap but not free, and the
//! point of the audited hot paths is that they do not allocate at all.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialised with no destructor, so reading it never
    // allocates and the allocator cannot recurse into itself.
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_thread_allocation() {
    // `try_with` fails only while the thread is being torn down; the
    // event then goes uncounted rather than panicking inside `alloc`.
    let _ = THREAD_ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Forwards to [`System`], counting allocation events (`alloc` and
/// growth-side `realloc`) and bytes requested.
pub struct CountingAllocator;

// SAFETY: defers entirely to the system allocator; the counters are
// plain relaxed atomics and a const-initialised thread-local `Cell`,
// none of which allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        count_thread_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        count_thread_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: CountingAllocator = CountingAllocator;

/// A point-in-time reading of the allocation counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Allocation events (calls to `alloc` plus reallocations) so far,
    /// process-wide.
    pub allocations: u64,
    /// Total bytes requested by those events.
    pub bytes: u64,
    /// Allocation events so far on the thread that took the snapshot.
    pub thread_allocations: u64,
}

impl AllocSnapshot {
    /// Reads the current counters.
    #[must_use]
    pub fn now() -> Self {
        Self {
            allocations: ALLOCATIONS.load(Ordering::Relaxed),
            bytes: ALLOCATED_BYTES.load(Ordering::Relaxed),
            thread_allocations: THREAD_ALLOCATIONS.with(Cell::get),
        }
    }

    /// Process-wide allocation events since `earlier`.
    #[must_use]
    pub fn allocations_since(&self, earlier: &Self) -> u64 {
        self.allocations - earlier.allocations
    }

    /// Allocation events on this thread since `earlier`, which must have
    /// been taken on the same thread.
    #[must_use]
    pub fn thread_allocations_since(&self, earlier: &Self) -> u64 {
        self.thread_allocations - earlier.thread_allocations
    }
}
