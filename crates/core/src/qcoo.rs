//! CSTF-QCOO: the queued-COO MTTKRP pipeline (paper §4.2, Algorithm 3).
//!
//! CSTF-COO pays `N − 1` joins per MTTKRP because every mode's factor rows
//! must be fetched anew. But consecutive MTTKRPs in CP-ALS share all but
//! one factor (Figure 1): updating `A` needs `{B, C}`, updating `B` needs
//! `{C, A}` — only `A` is new, and it was *just produced*. QCOO therefore
//! carries a FIFO queue of factor rows inside every tensor record:
//!
//! ```text
//! state:  (i_k, ((i,j,k,x), Queue(A(i,:), B(j,:))))      keyed by mode-3
//! STAGE 1: join with C row RDD on k
//! STAGE 2: map — enqueue C(k,:), dequeue A(i,:); re-key by i
//! STAGE 3: mapValues — reduce queue to B(j,:)∗C(k,:)∗x; reduceByKey on i
//! ```
//!
//! STAGE 2's output is simultaneously the input of the *next* MTTKRP's
//! STAGE 1 (it is already keyed by the next join mode), so each MTTKRP
//! costs one join + one reduceByKey = 2 shuffles (Table 4), at the price of
//! `(N−1)·nnz·R` carried state. The state RDD is cached after each
//! rotation and the previous one unpersisted, exactly as §4.2 describes.
//! Dropping the previous state also releases the shuffle outputs that
//! built it (join *s − 1* and older, the prologue's joins at step 1), so
//! the shuffle service holds one generation of join output — join *s*,
//! which feeds the live state and lets an evicted block recompute with
//! one join. The lineage stays: a node loss re-runs the released joins.
//!
//! The queue stripe of every record is stored inline when it is narrow
//! enough ([`StripeKind`]): the storage is picked once per plan from the
//! queue width `(N−1)·R`, so each copy a stage boundary makes of a record
//! is one flat memcpy, and only wide queues keep a heap block per record.
//!
//! Because each stage consumes the previous stage's output, a QCOO step
//! is a *chain* in the scheduler's stage DAG ([`cstf_dataflow::Job`]): its
//! critical path equals its serial stage sum, so concurrent wave
//! scheduling neither helps nor hurts it (the `ablation_scheduler`
//! experiment shows ratio 1.0, against COO's strict improvement).

use crate::mttkrp::{JoinContext, Persisted};
use crate::planner::PlanConfig;
use crate::records::{CooRecord, QRecord, Stripe};
use cstf_dataflow::prelude::*;
use cstf_tensor::DenseMatrix;

/// Every this many steps the rotated state is checkpointed instead of
/// cached, truncating the otherwise ever-growing lineage chain (standard
/// practice for iterative Spark jobs). It bounds how far a node loss
/// replays and how long the lineage grows; memory it does not bound —
/// each swap already releases the previous generation's shuffles.
const CHECKPOINT_INTERVAL: u64 = 8;

/// The stripe storage of a queue of `(N−1)·R` doubles: the smallest
/// inline array that holds it, or a box above the largest. Two inline
/// sizes, because one array pays its full size for every record — a
/// single 16-double array would carry an order-4, rank-2 queue (6 doubles)
/// at nearly three times its bytes, and a single 8-double one would leave
/// an order-3, rank-8 queue (16 doubles) on the heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StripeKind {
    /// `[f64; 8]`.
    Inline8,
    /// `[f64; 16]`.
    Inline16,
    /// `Box<[f64]>`.
    Boxed,
}

impl StripeKind {
    fn for_width(width: usize) -> Self {
        match width {
            0..=8 => StripeKind::Inline8,
            9..=16 => StripeKind::Inline16,
            _ => StripeKind::Boxed,
        }
    }
}

/// A [`QcooState`] of any stripe storage: what a
/// [`crate::planner::Plan`] drives.
pub(crate) trait QueueSteps {
    /// The output mode the next [`QueueSteps::step`] will compute.
    fn next_output_mode(&self) -> usize;

    /// Performs one MTTKRP (Table 2, right column): joins the current
    /// factor of the key mode, rotates every queue, reduces, and returns
    /// `M` for [`QueueSteps::next_output_mode`]. The rotated state is
    /// cached and the previous state unpersisted.
    fn step(
        &mut self,
        cluster: &Cluster,
        factors: &[DenseMatrix],
        config: &PlanConfig,
    ) -> DenseMatrix;

    /// Drops the cached state (dropping the state does the same).
    /// Idempotent.
    fn release(&self);
}

/// Builds the queued state ([`QcooState::new`]) in the stripe storage
/// its queue width picks.
pub(crate) fn start(
    cluster: &Cluster,
    tensor: &Rdd<CooRecord>,
    factors: &[DenseMatrix],
    config: &PlanConfig,
) -> Box<dyn QueueSteps> {
    let width = (factors.len() - 1) * config.rank;
    match StripeKind::for_width(width) {
        StripeKind::Inline8 => {
            Box::new(QcooState::<[f64; 8]>::new(cluster, tensor, factors, config))
        }
        StripeKind::Inline16 => Box::new(QcooState::<[f64; 16]>::new(
            cluster, tensor, factors, config,
        )),
        StripeKind::Boxed => Box::new(QcooState::<Box<[f64]>>::new(
            cluster, tensor, factors, config,
        )),
    }
}

/// The persistent distributed state of a QCOO CP-ALS run, its queues
/// stored in `S`.
///
/// Created once by [`QcooState::new`] (the "overhead of N shuffles before
/// the first MTTKRP" the paper measures in Figure 5's mode-1 bars), then
/// advanced with [`QueueSteps::step`] once per MTTKRP, cycling through
/// output modes `0, 1, …, N−1, 0, …`. The plan validates every input
/// before it reaches either.
struct QcooState<S: Stripe> {
    /// The live queue state; replacing or dropping it unpersists it and
    /// releases the shuffles that built it, so a state that is dropped
    /// without [`QueueSteps::release`] — or whose prologue or step job
    /// aborted — leaves no blocks or dead shuffle outputs behind.
    state: Persisted<(u32, QRecord<S>)>,
    /// Tensor order `N`.
    order: usize,
    /// Mode whose index currently keys the state — also the mode whose
    /// factor the next [`QueueSteps::step`] joins.
    key_mode: usize,
    steps_taken: u64,
}

impl<S: Stripe> QcooState<S> {
    /// Builds the initial queued state: `N − 1` joins load the rows of
    /// factors `0..N−1` into every record's queue, leaving the state keyed
    /// by mode `N−1` — ready for the first mode-0 MTTKRP (Algorithm 3
    /// lines 1-2). The queue is persisted at `config.storage`; levels that
    /// spill let it (the `(N−1)·nnz·R` payload, QCOO's dominant resident
    /// cost) run under a memory budget smaller than the working set.
    fn new(
        cluster: &Cluster,
        tensor: &Rdd<CooRecord>,
        factors: &[DenseMatrix],
        config: &PlanConfig,
    ) -> Self {
        let order = factors.len();
        let capacity = order - 1;
        let ctx = JoinContext::new(config);
        let mut state: Rdd<(u32, QRecord<S>)> = tensor.map(|rec| (rec.coord[0], QRecord::new(rec)));
        for (m, factor) in factors.iter().enumerate().take(order - 1) {
            let factor_rdd = ctx.factor_rdd(cluster, factor);
            let next = m + 1;
            state = state
                .join_with(&factor_rdd, ctx.partitions)
                .map(move |(_, (mut q, row))| {
                    q.rotate(row, capacity);
                    (q.entry.coord[next], q)
                });
        }
        // Materialize eagerly: the N−1 initialization shuffles are the
        // prologue overhead the paper attributes to queue setup, and they
        // must be paid (and recorded) here, not inside the first step.
        let state = Persisted(state.persist(config.storage));
        let _ = state.count();
        QcooState {
            state,
            order,
            key_mode: order - 1,
            steps_taken: 0,
        }
    }
}

impl<S: Stripe> QueueSteps for QcooState<S> {
    fn next_output_mode(&self) -> usize {
        (self.key_mode + 1) % self.order
    }

    fn step(
        &mut self,
        cluster: &Cluster,
        factors: &[DenseMatrix],
        config: &PlanConfig,
    ) -> DenseMatrix {
        let out_mode = self.next_output_mode();
        let capacity = self.order - 1;
        let ctx = JoinContext::new(config);
        let factor_rdd = ctx.factor_rdd(cluster, &factors[self.key_mode]);
        // STAGE 1 (join) + STAGE 2 (rotate & re-key) — one shuffle (the
        // factor side is narrow when co-partitioned). The rotation copies
        // each joined row into the queue's stripe and drops it.
        let joined = self.state.join_with(&factor_rdd, ctx.partitions);
        let rotated_raw = joined.map(move |(_, (mut q, row))| {
            q.rotate(row, capacity);
            (q.entry.coord[out_mode], q)
        });
        // Periodic lineage truncation; otherwise persistence at the
        // configured level, as §4.2 describes.
        let rotated = Persisted(
            if (self.steps_taken + 1).is_multiple_of(CHECKPOINT_INTERVAL) {
                rotated_raw.checkpoint()
            } else {
                rotated_raw.persist(config.storage)
            },
        );

        // STAGE 3: reduce queues and sum per output row — second shuffle.
        // Running this action also materializes (and caches) `rotated`.
        let rank = config.rank;
        let rows = rotated.map_values(move |q| q.reduce_queue(rank));
        let m = ctx.sum_rows(rows, factors[out_mode].rows());

        // Swap in the rotated state; the assignment drops the old one from
        // the cache ("removed from the cache by explicitly asking Spark to
        // unpersist the old RDD", §4.2) and releases the shuffles below
        // it, keeping the join that feeds the new one.
        self.state = rotated;
        self.key_mode = out_mode;
        self.steps_taken += 1;
        m
    }

    fn release(&self) {
        self.state.unpersist();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factors::tensor_to_rdd;
    use crate::planner::testing::*;
    use crate::planner::{plan, Partitioning, Plan, Strategy};
    use cstf_tensor::mttkrp::mttkrp as mttkrp_seq;
    use cstf_tensor::random::RandomTensor;
    use cstf_tensor::{CooTensor, DenseMatrix};
    use rand::{rngs::StdRng, SeedableRng};

    fn qcoo_plan(t: &CooTensor, factors: &[DenseMatrix]) -> (Cluster, Plan) {
        let c = cluster();
        let config = config(Partitioning::CoPartitionedFactors);
        let p = plan(&c, t, Strategy::Qcoo, &config, factors).unwrap();
        (c, p)
    }

    fn assert_matches_sequential(
        t: &CooTensor,
        factors: &[DenseMatrix],
        mode: usize,
        m: &DenseMatrix,
    ) {
        let refs: Vec<&DenseMatrix> = factors.iter().collect();
        let seq = mttkrp_seq(t, &refs, mode).unwrap();
        let diff = m.max_abs_diff(&seq);
        assert!(diff < 1e-9, "mode {mode}: diff {diff}");
    }

    #[test]
    fn two_significant_shuffles_per_step() {
        // Table 4: QCOO performs 2 tensor-sized shuffles per MTTKRP (the
        // state-side join and the reduce). A pre-partitioned tensor is
        // co-partitioning for QCOO, whose state is keyed anew every step.
        assert_shuffle_counts(
            Strategy::Qcoo,
            &[
                (Partitioning::None, [3, 0, 2]),
                (Partitioning::PrePartitionedTensor, [2, 1, 2]),
            ],
        );
    }

    #[test]
    fn co_partitioned_step_runs_two_stages_and_matches_legacy_bitwise() {
        // State-side join shuffle + reduce = 2 raw stages; the factor side
        // of the join was narrow.
        assert_shuffle_counts(
            Strategy::Qcoo,
            &[(Partitioning::CoPartitionedFactors, [2, 1, 2])],
        );
        let (_, co, _) = mode0_run(Strategy::Qcoo, Partitioning::CoPartitionedFactors);
        let (_, legacy, _) = mode0_run(Strategy::Qcoo, Partitioning::None);
        assert_bits_eq(&co, &legacy);
    }

    #[test]
    fn intermediate_state_bytes_match_table4() {
        // QCOO state records carry (N−1)·R doubles: the join shuffle moves
        // key + record + queue per nonzero, the reduce one row each.
        assert_shuffle_writes(Strategy::Qcoo, |nnz, _| {
            vec![(nnz, KEY + RECORD + QUEUE), (nnz, KEY + ROW)]
        });
    }

    #[test]
    fn init_rejects_bad_shapes() {
        assert_bad_inputs_fail(Strategy::Qcoo);
    }

    #[test]
    fn second_cycle_still_correct() {
        // After a full cycle the queue holds re-joined rows; a second cycle
        // must still match (this is the steady state CP-ALS runs in).
        let t = RandomTensor::new(vec![10, 8, 9]).nnz(120).seed(5).build();
        let factors = random_factors(t.shape(), 2, 23);
        let (_, mut p) = qcoo_plan(&t, &factors);
        for _ in 0..2 {
            for mode in 0..3 {
                let m = p.mttkrp(&factors, mode).unwrap();
                assert_matches_sequential(&t, &factors, mode, &m);
            }
        }
        p.release();
    }

    #[test]
    fn updated_factor_is_used_on_next_step() {
        // Change a factor between steps: the next MTTKRP that depends on it
        // must reflect the new values (the data-reuse flow of Figure 1).
        let t = RandomTensor::new(vec![6, 7, 8]).nnz(60).seed(6).build();
        let mut factors = random_factors(t.shape(), 2, 24);
        let (_, mut p) = qcoo_plan(&t, &factors);
        // Pretend the mode-0 result is the ALS update (same shape).
        factors[0] = p.mttkrp(&factors, 0).unwrap();
        let m1 = p.mttkrp(&factors, 1).unwrap();
        assert_matches_sequential(&t, &factors, 1, &m1);
        p.release();
    }

    #[test]
    fn old_state_is_unpersisted() {
        let t = RandomTensor::new(vec![8, 8, 8]).nnz(100).seed(8).build();
        let factors = random_factors(t.shape(), 2, 26);
        let (c, mut p) = qcoo_plan(&t, &factors);
        p.mttkrp(&factors, 0).unwrap();
        let after_one = c.block_manager().len();
        p.mttkrp(&factors, 1).unwrap();
        let after_two = c.block_manager().len();
        // Cache stays bounded: one live state RDD (+ the tensor blocks).
        assert_eq!(after_one, after_two);
        p.release();
        assert!(c.block_manager().is_empty());
    }

    #[test]
    fn shuffle_data_stays_at_one_generation() {
        // Dropping a queue releases the shuffles that built it; only the
        // join feeding the live queue stays. Seven steps end before the
        // first checkpoint, which would drop the lineage anyway.
        let t = RandomTensor::new(vec![8, 8, 8]).nnz(100).seed(8).build();
        let factors = random_factors(t.shape(), 2, 26);
        let (c, mut p) = qcoo_plan(&t, &factors);
        p.mttkrp(&factors, 0).unwrap();
        let after_one = c.shuffle_service().memory_bytes();
        assert!(after_one > 0);
        for step in 2..=7 {
            p.mttkrp(&factors, (step - 1) % 3).unwrap();
            let held = c.shuffle_service().memory_bytes();
            assert_eq!(held, after_one, "step {step}");
            assert_eq!(c.shuffle_service().live_shuffles(), 1, "step {step}");
        }
        p.release();
    }

    #[test]
    fn node_loss_replays_released_shuffles_bit_identically() {
        // Before step 5 a node loses its share of the live queue and of
        // the join feeding it; the lineage below reaches only released
        // shuffles, which re-run back to the cached tensor.
        let t = RandomTensor::new(vec![9, 8, 7]).nnz(150).seed(31).build();
        let factors = random_factors(t.shape(), 2, 32);
        let run = |fail_before: Option<usize>| -> Vec<DenseMatrix> {
            let (c, mut p) = qcoo_plan(&t, &factors);
            let ms = (0..6)
                .map(|step| {
                    if fail_before == Some(step) {
                        let (blocks, outputs) = c.simulate_node_failure(1);
                        assert!(blocks > 0 && outputs > 0);
                        c.metrics().reset();
                        let m = p.mttkrp(&factors, step % 3).unwrap();
                        // More than the step's own join and reduce ran.
                        assert!(c.metrics().snapshot().shuffle_count() > 2);
                        m
                    } else {
                        p.mttkrp(&factors, step % 3).unwrap()
                    }
                })
                .collect();
            p.release();
            ms
        };
        let quiet = run(None);
        let faulty = run(Some(4));
        for (q, f) in quiet.iter().zip(&faulty) {
            assert_bits_eq(q, f);
        }
    }

    #[test]
    fn long_run_with_checkpointing_stays_correct_and_bounded() {
        // 6 full cycles = 18 steps, crossing the checkpoints at steps 8 and
        // 16, each consuming the factor the previous steps updated.
        let t = RandomTensor::new(vec![9, 8, 7]).nnz(100).seed(77).build();
        let mut factors = random_factors(t.shape(), 2, 78);
        let mut rng = StdRng::seed_from_u64(79);
        let (c, mut p) = qcoo_plan(&t, &factors);
        let mut blocks_after_first = None;
        for cycle in 0..6 {
            for mode in 0..3 {
                let m = p.mttkrp(&factors, mode).unwrap();
                assert_matches_sequential(&t, &factors, mode, &m);
                factors[mode] = DenseMatrix::random(t.shape()[mode] as usize, 2, &mut rng);
                let blocks = c.block_manager().len();
                let first = *blocks_after_first.get_or_insert(blocks);
                assert!(blocks <= first, "cycle {cycle} mode {mode}: old state kept");
            }
            // An explicit global clear must also be safe: the live state
            // is cached or checkpointed, so lineage never needs the
            // dropped shuffle files.
            c.shuffle_service().clear();
        }
        p.release();
        assert!(c.block_manager().is_empty());
    }

    #[test]
    fn stripe_storage_flips_at_each_inline_size() {
        for (width, kind) in [
            (1, StripeKind::Inline8),
            (8, StripeKind::Inline8),
            (9, StripeKind::Inline16),
            (16, StripeKind::Inline16),
            (17, StripeKind::Boxed),
            (1000, StripeKind::Boxed),
        ] {
            assert_eq!(StripeKind::for_width(width), kind, "width {width}");
        }
    }

    /// Two cycles of steps of a `QcooState<S>`, each consuming the factor
    /// the previous step produced.
    fn run_steps<S: Stripe>(t: &CooTensor, factors: &[DenseMatrix]) -> Vec<DenseMatrix> {
        let c = cluster();
        let config = config(Partitioning::CoPartitionedFactors);
        let mut factors = factors.to_vec();
        let tensor = tensor_to_rdd(&c, t, config.partitions);
        let mut state = QcooState::<S>::new(&c, &tensor, &factors, &config);
        let ms = (0..2 * t.order())
            .map(|step| {
                let mode = state.next_output_mode();
                assert_eq!(mode, step % t.order());
                let m = state.step(&c, &factors, &config);
                factors[mode] = m.clone();
                m
            })
            .collect();
        state.release();
        assert!(c.block_manager().is_empty());
        ms
    }

    #[test]
    fn every_stripe_storage_computes_the_same_bits() {
        // Rank 2, order 3: a 4-double queue, which every storage holds.
        let t = RandomTensor::new(vec![9, 8, 7]).nnz(150).seed(41).build();
        let factors = random_factors(t.shape(), 2, 42);
        let boxed = run_steps::<Box<[f64]>>(&t, &factors);
        for inline in [
            run_steps::<[f64; 8]>(&t, &factors),
            run_steps::<[f64; 16]>(&t, &factors),
        ] {
            for (a, b) in inline.iter().zip(&boxed) {
                assert_bits_eq(a, b);
            }
        }
        assert_matches_sequential(&t, &factors, 0, &boxed[0]);
    }

    #[test]
    fn a_queue_wider_than_every_inline_stripe_runs_boxed() {
        // Order 3 at rank 9: an 18-double queue, past the 16-double array.
        let t = RandomTensor::new(vec![9, 8, 7]).nnz(150).seed(43).build();
        let factors = random_factors(t.shape(), 9, 44);
        let config = PlanConfig {
            rank: 9,
            ..config(Partitioning::CoPartitionedFactors)
        };
        assert_eq!(StripeKind::for_width(2 * config.rank), StripeKind::Boxed);
        let c = cluster();
        let mut p = plan(&c, &t, Strategy::Qcoo, &config, &factors).unwrap();
        for mode in 0..t.order() {
            let m = p.mttkrp(&factors, mode).unwrap();
            assert_matches_sequential(&t, &factors, mode, &m);
        }
        p.release();
    }
}
