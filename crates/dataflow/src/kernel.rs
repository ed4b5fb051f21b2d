//! What is left of the task-kernel layer: the in-place merge a reduce
//! takes to merge fetched rows by reference, and the names the benchmark
//! harness (`perf/`) pins.
//!
//! Every per-key combine runs the one indexed fold of `rdd/pair.rs`.
//! [`KernelOps`] is how a caller of
//! [`crate::rdd::Rdd::reduce_by_key_kernel`] hands that fold an in-place
//! merge, so that records fetched from the shared (`Arc`) shuffle buckets
//! merge by reference: one clone per distinct key, not one per record.
//! [`KernelStrategy`] and [`pool`] select and measure nothing; they stay
//! only because `perf/` names them, and go with ROADMAP's benchmark-only
//! item.

/// A one-value placeholder for the combine kernel, which selects nothing:
/// every combine runs the one fold. It is spelled `KernelStrategy::default()`,
/// and stays only because `perf/` passes it to
/// [`crate::rdd::Rdd::reduce_by_key_kernel`] and sets it in
/// `cstf_core::planner::PlanConfig::kernel`; it goes with ROADMAP's
/// benchmark-only item.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KernelStrategy(());

/// Erased in-place merge: `merge(accumulator, record)`.
pub(crate) type MergeFn<C> = Box<dyn Fn(&mut C, &C) + Send + Sync>;

/// The one type-specific operation a by-reference reduce needs beyond
/// `Clone` (which seeds each key's combiner): merging a borrowed record
/// into a combiner in place. `perf/` builds one through
/// `cstf_core::records::row_kernel_ops`; the name goes with ROADMAP's
/// benchmark-only item.
pub struct KernelOps<C> {
    pub(crate) merge_in_place: MergeFn<C>,
}

impl<C> KernelOps<C> {
    /// Ops with the given in-place merge.
    ///
    /// `merge_in_place(acc, rec)` must perform exactly the same
    /// floating-point operations, in the same order, as the owning reduce
    /// function `f(acc, rec)` the caller passes alongside — that is what
    /// keeps a by-reference reduce bit-identical to a by-value one.
    pub fn new(merge_in_place: impl Fn(&mut C, &C) + Send + Sync + 'static) -> Self {
        KernelOps {
            merge_in_place: Box::new(merge_in_place),
        }
    }
}

pub mod pool {
    //! What is left of the row arena: a stub that always reports no reuse.
    //!
    //! Rows are plain allocations everywhere, so nothing is pooled. The two
    //! functions stay only because the benchmark harness (`perf/`) calls
    //! them by path to report `dataflow.kernel.arena_hit_rate`; they go
    //! with that metric.

    /// Process-wide `(hits, misses)` of the row arena: always `(0, 0)`.
    pub fn total_stats() -> (u64, u64) {
        (0, 0)
    }

    /// Resets the row arena's counters: does nothing.
    pub fn reset_total_stats() {}
}
