//! Counting global allocator for the traced pass.
//!
//! Installed for the whole `perf` binary but inert until
//! [`set_counting`]`(true)`: the untraced pass pays one relaxed load per
//! allocation and nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are side effects that touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[inline]
fn note(size: usize) {
    // Relaxed: the counters are statistics and publish no other data.
    if COUNTING.load(Ordering::Relaxed) {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

/// Turns counting on or off (process-wide).
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// `(allocation calls, bytes requested)` counted so far.
pub fn counts() -> (u64, u64) {
    (CALLS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed))
}

/// Runs `f` with counting on and returns its result with the
/// `(calls, bytes)` it allocated on every thread.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (c0, b0) = counts();
    set_counting(true);
    let out = f();
    set_counting(false);
    let (c1, b1) = counts();
    (out, c1 - c0, b1 - b0)
}
