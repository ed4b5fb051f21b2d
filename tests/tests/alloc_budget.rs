//! Allocation budget of the record layout, counted with a
//! `#[global_allocator]` of this binary's own: a plain nonzero owns no
//! heap block, a queued nonzero none with an inline stripe and one with a
//! boxed stripe, one QCOO CP-ALS iteration allocates at most 8 blocks per
//! nonzero (≈ 15.7 when every queue stripe was boxed, ≈ 55 when a
//! `QRecord` was a coordinate box, a deque buffer and a box per queued
//! row, and the join cloned every record it paired), and one COO iteration
//! at most 3300 bytes per nonzero. `perf/` measures the same quantities as
//! `core.alloc.count_per_nnz_iter` and `core.alloc.bytes_per_nnz_iter`;
//! this keeps the gains under tier-1.
//!
//! One `#[test]` only: the counter is process-wide, so nothing else may
//! run beside the counted sections.

use cstf_core::records::{CooRecord, QRecord, Row, Stripe};
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

    // A full queue clones as a flat copy with an inline stripe, and as
    // one block, the stripe, with a boxed one.
    fn full_queue<S: Stripe>(entry: &CooRecord) -> QRecord<S> {
        let mut queued = QRecord::new(entry.clone());
        for fill in [1.5, 2.5, 3.5] {
            let row: Row = vec![fill; 8].into_boxed_slice();
            queued.rotate(row, 2);
        }
        queued
    }
    let inline = full_queue::<[f64; 16]>(&records[0]);
    let (copy, blocks, _) = allocated(|| inline.clone());
    assert_eq!(copy, inline);
    assert_eq!(blocks, 0, "a full inline QRecord owns a heap block");
    let boxed = full_queue::<Box<[f64]>>(&records[0]);
    let (copy, blocks, _) = allocated(|| boxed.clone());
    assert_eq!(copy, boxed);
    assert_eq!(blocks, 1, "a full boxed QRecord owns more than its stripe");

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
        per_nnz <= 8.0,
        "one QCOO iteration allocated {per_nnz:.1} blocks per nonzero (budget 8)"
    );

    // One COO iteration, measured the same way, in bytes: ≈ 2980 per
    // nonzero with every shuffle bucket allocated at its final size,
    // ≈ 3730 when the buckets grew by doubling, ≈ 4770 when every
    // Hadamard product took a fresh row and each join built per-key
    // vectors and flattened them.
    let (_, _, one) = allocated(|| run(Strategy::Coo, 1));
    let (_, _, none) = allocated(|| run(Strategy::Coo, 0));
    let bytes_per_nnz = one.saturating_sub(none) as f64 / tensor.nnz() as f64;
    assert!(
        bytes_per_nnz <= 3300.0,
        "one COO iteration allocated {bytes_per_nnz:.0} bytes per nonzero (budget 3300)"
    );
}
