//! Allocation budget of the record layout, counted with a
//! `#[global_allocator]` of this binary's own: a plain nonzero owns no
//! heap block, a queued nonzero exactly one, one QCOO CP-ALS iteration
//! allocates at most 25 blocks per nonzero (≈ 55 when a `QRecord` was a
//! coordinate box, a deque buffer and a box per queued row, and the join
//! cloned every record it paired), and one COO iteration at most 4250
//! bytes per nonzero. `perf/` measures the same quantities as
//! `core.alloc.count_per_nnz_iter` and `core.alloc.bytes_per_nnz_iter`;
//! this keeps the gains under tier-1.
//!
//! One `#[test]` only: the counter is process-wide, so nothing else may
//! run beside the counted sections.

use cstf_core::records::{CooRecord, QRecord, Row};
use cstf_core::{CpAls, Strategy};
use cstf_dataflow::prelude::*;
use cstf_tensor::random::RandomTensor;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// Counts one allocator call that hands out `size` bytes.
fn note(size: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(size as u64, Ordering::Relaxed);
}

struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a side effect that touches no allocator state.
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

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `f`'s result, and the allocator calls made and bytes they handed out,
/// on any thread, while it ran.
fn allocated<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (calls, bytes) = (
        ALLOCATIONS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    let out = f();
    (
        out,
        ALLOCATIONS.load(Ordering::Relaxed) - calls,
        BYTES.load(Ordering::Relaxed) - bytes,
    )
}

#[test]
fn records_and_one_qcoo_iteration_stay_within_the_allocation_budget() {
    // A partition of plain nonzeros clones as one block: the vector's.
    let records: Vec<CooRecord> = (0..1000u32)
        .map(|i| CooRecord::new(&[i, i + 1, i + 2], f64::from(i)))
        .collect();
    let (copy, blocks, _) = allocated(|| records.clone());
    assert_eq!(copy, records);
    assert_eq!(blocks, 1, "a CooRecord owns a heap block");

    // A full queue clones as one block: the stripe.
    let mut queued = QRecord::new(records[0].clone());
    for fill in [1.5, 2.5, 3.5] {
        let row: Row = vec![fill; 8].into_boxed_slice();
        queued.rotate(row, 2);
    }
    let (copy, blocks, _) = allocated(|| queued.clone());
    assert_eq!(copy, queued);
    assert_eq!(blocks, 1, "a full QRecord owns more than its stripe");

    // One iteration = N MTTKRPs + solves: a run of one minus a run of
    // none, which pays the same cluster start-up, tensor distribution and
    // queue prologue.
    let tensor = RandomTensor::new(vec![60, 50, 40])
        .nnz(20_000)
        .seed(11)
        .build();
    let run = |strategy: Strategy, iterations: usize| {
        let cluster = Cluster::new(ClusterConfig::local(2).nodes(4));
        CpAls::new(4)
            .strategy(strategy)
            .max_iterations(iterations)
            .seed(3)
            .run(&cluster, &tensor)
            .unwrap()
    };
    let (_, one, _) = allocated(|| run(Strategy::Qcoo, 1));
    let (_, none, _) = allocated(|| run(Strategy::Qcoo, 0));
    let per_nnz = one.saturating_sub(none) as f64 / tensor.nnz() as f64;
    assert!(
        per_nnz <= 25.0,
        "one QCOO iteration allocated {per_nnz:.1} blocks per nonzero (budget 25)"
    );

    // One COO iteration, measured the same way, in bytes: ≈ 3730 per
    // nonzero with the Hadamard product taken in place and each join's
    // pairs written once, ≈ 4770 when every product took a fresh row and
    // each join built per-key vectors and flattened them.
    let (_, _, one) = allocated(|| run(Strategy::Coo, 1));
    let (_, _, none) = allocated(|| run(Strategy::Coo, 0));
    let bytes_per_nnz = one.saturating_sub(none) as f64 / tensor.nnz() as f64;
    assert!(
        bytes_per_nnz <= 4250.0,
        "one COO iteration allocated {bytes_per_nnz:.0} bytes per nonzero (budget 4250)"
    );
}
