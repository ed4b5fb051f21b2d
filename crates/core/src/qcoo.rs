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
//!
//! Because each stage consumes the previous stage's output, a QCOO step
//! is a *chain* in the [`cstf_dataflow::scheduler`]'s stage DAG: its
//! critical path equals its serial stage sum, so concurrent wave
//! scheduling neither helps nor hurts it (the `ablation_scheduler`
//! experiment shows ratio 1.0, against COO's strict improvement).

use crate::mttkrp::{JoinContext, MttkrpOptions, Persisted};
use crate::records::{CooRecord, QRecord};
use crate::{CstfError, Result};
use cstf_dataflow::prelude::*;
use cstf_tensor::DenseMatrix;

/// Options for [`QcooState::init_with`].
#[derive(Debug, Clone)]
pub struct QcooOptions {
    /// Pre-partition factor-row RDDs by the join partitioner so the factor
    /// side of every join is narrow (default on; disable to reproduce the
    /// pre-partitioner stage structure).
    pub co_partition_factors: bool,
    /// Storage level for the carried queue state — both the initial
    /// N−1-join prologue and every rotated state RDD. Levels that spill
    /// let the queue (the `(N−1)·nnz·R` payload, QCOO's dominant resident
    /// cost) run under a memory budget smaller than the working set.
    pub storage: StorageLevel,
    /// Task kernel of each step's final `reduceByKey` combine (queue
    /// rotation and reduction are the same code under either). See
    /// [`crate::mttkrp::MttkrpOptions::kernel`].
    pub kernel: KernelStrategy,
}

impl Default for QcooOptions {
    fn default() -> Self {
        QcooOptions {
            co_partition_factors: true,
            storage: StorageLevel::MemoryRaw,
            kernel: KernelStrategy::default(),
        }
    }
}

/// Every this many steps the rotated state is checkpointed instead of
/// cached, truncating the otherwise ever-growing lineage chain (standard
/// practice for iterative Spark jobs).
const CHECKPOINT_INTERVAL: u64 = 8;

/// The persistent distributed state of a QCOO CP-ALS run.
///
/// Created once with [`QcooState::init`] (the "overhead of N shuffles
/// before the first MTTKRP" the paper measures in Figure 5's mode-1 bars),
/// then advanced with [`QcooState::step`] once per MTTKRP, cycling through
/// output modes `0, 1, …, N−1, 0, …`.
pub struct QcooState {
    cluster: Cluster,
    /// The live queue state; replacing or dropping it unpersists it, so a
    /// state that is dropped without [`QcooState::release`] — or whose
    /// `init`/`step` job aborted — leaves no blocks behind.
    state: Persisted<(u32, QRecord)>,
    shape: Vec<u32>,
    rank: usize,
    /// Partition count, factor co-partitioning and task kernel of every
    /// step's join and reduce (never combined map-side, as Table 4 counts).
    join_opts: MttkrpOptions,
    /// Mode whose index currently keys the state — also the mode whose
    /// factor the next [`QcooState::step`] joins.
    key_mode: usize,
    steps_taken: u64,
    /// Storage level applied to each rotated state RDD.
    storage: StorageLevel,
}

impl QcooState {
    /// Builds the initial queued state: `N − 1` joins load the rows of
    /// factors `0..N−1` into every record's queue, leaving the state keyed
    /// by mode `N−1` — ready for the first mode-0 MTTKRP (Algorithm 3
    /// lines 1-2).
    pub fn init(
        cluster: &Cluster,
        tensor: &Rdd<CooRecord>,
        factors: &[DenseMatrix],
        shape: &[u32],
        rank: usize,
        partitions: usize,
    ) -> Result<Self> {
        Self::init_with(
            cluster,
            tensor,
            factors,
            shape,
            rank,
            partitions,
            QcooOptions::default(),
        )
    }

    /// [`QcooState::init`] with explicit [`QcooOptions`] (factor
    /// co-partitioning, queue storage level, task kernel).
    #[allow(clippy::too_many_arguments)]
    pub fn init_with(
        cluster: &Cluster,
        tensor: &Rdd<CooRecord>,
        factors: &[DenseMatrix],
        shape: &[u32],
        rank: usize,
        partitions: usize,
        opts: QcooOptions,
    ) -> Result<Self> {
        let order = shape.len();
        if order < 2 {
            return Err(CstfError::Config(format!(
                "QCOO needs an order ≥ 2 tensor, got {order}"
            )));
        }
        if factors.len() != order {
            return Err(CstfError::Config(format!(
                "{} factors for order-{order} tensor",
                factors.len()
            )));
        }
        let capacity = order - 1;
        let join_opts = MttkrpOptions {
            partitions: Some(partitions),
            map_side_combine: false,
            co_partition_factors: opts.co_partition_factors,
            kernel: opts.kernel,
        };
        let ctx = JoinContext::new(cluster, &join_opts);
        let mut state: Rdd<(u32, QRecord)> = tensor.map(|rec| (rec.coord[0], QRecord::new(rec)));
        for (m, factor) in factors.iter().enumerate().take(order - 1) {
            let factor_rdd = ctx.factor_rdd(cluster, factor);
            let next = m + 1;
            state = state.join_by(&factor_rdd, ctx.partitioner.clone()).map(
                move |(_, (mut q, row))| {
                    q.rotate(row, capacity);
                    (q.entry.coord[next], q)
                },
            );
        }
        // Materialize eagerly: the N−1 initialization shuffles are the
        // prologue overhead the paper attributes to queue setup, and they
        // must be paid (and recorded) here, not inside the first step.
        let state = Persisted(state.persist(opts.storage));
        let _ = state.count();
        Ok(QcooState {
            cluster: cluster.clone(),
            state,
            shape: shape.to_vec(),
            rank,
            join_opts,
            key_mode: order - 1,
            steps_taken: 0,
            storage: opts.storage,
        })
    }

    /// Tensor order `N`.
    pub fn order(&self) -> usize {
        self.shape.len()
    }

    /// The output mode the next [`QcooState::step`] will compute.
    pub fn next_output_mode(&self) -> usize {
        (self.key_mode + 1) % self.order()
    }

    /// The mode whose factor matrix the next step must be given.
    pub fn next_join_mode(&self) -> usize {
        self.key_mode
    }

    /// MTTKRP steps taken so far.
    pub fn steps_taken(&self) -> u64 {
        self.steps_taken
    }

    /// Performs one MTTKRP (Table 2, right column): joins
    /// `factor_of_key_mode` (the *current* matrix for
    /// [`QcooState::next_join_mode`]), rotates every queue, reduces, and
    /// returns `(output_mode, Mₙ)`. The rotated state is cached and the
    /// previous state unpersisted.
    ///
    /// # Errors
    ///
    /// Returns a config error if the factor's shape does not match the
    /// join mode.
    pub fn step(&mut self, factor_of_key_mode: &DenseMatrix) -> Result<(usize, DenseMatrix)> {
        let order = self.order();
        let join_mode = self.key_mode;
        let out_mode = self.next_output_mode();
        if factor_of_key_mode.rows() != self.shape[join_mode] as usize
            || factor_of_key_mode.cols() != self.rank
        {
            return Err(CstfError::Config(format!(
                "join factor is {}x{}, expected {}x{} for mode {join_mode}",
                factor_of_key_mode.rows(),
                factor_of_key_mode.cols(),
                self.shape[join_mode],
                self.rank
            )));
        }

        let capacity = order - 1;
        let ctx = JoinContext::new(&self.cluster, &self.join_opts);
        let factor_rdd = ctx.factor_rdd(&self.cluster, factor_of_key_mode);
        // STAGE 1 (join) + STAGE 2 (rotate & re-key) — one shuffle (the
        // factor side is narrow when co-partitioned). The rotation
        // recycles each dequeued stale row into the kernel arena.
        let rotated_raw = self
            .state
            .join_by(&factor_rdd, ctx.partitioner.clone())
            .map(move |(_, (mut q, row))| {
                q.rotate(row, capacity);
                (q.entry.coord[out_mode], q)
            });
        // Periodic lineage truncation; otherwise persistence at the
        // configured level, as §4.2 describes.
        let rotated = Persisted(
            if (self.steps_taken + 1).is_multiple_of(CHECKPOINT_INTERVAL) {
                rotated_raw.checkpoint()
            } else {
                rotated_raw.persist(self.storage)
            },
        );

        // STAGE 3: reduce queues and sum per output row — second shuffle.
        // Running this action also materializes (and caches) `rotated`.
        // The reduction draws its output row from the arena.
        let rank = self.rank;
        let rows = rotated.map_values(move |q| q.reduce_queue(rank));
        let m = ctx.sum_rows(rows, self.shape[out_mode] as usize, self.rank);

        // Swap in the rotated state; the assignment drops the old one from
        // the cache ("removed from the cache by explicitly asking Spark to
        // unpersist the old RDD", §4.2).
        self.state = rotated;
        self.key_mode = out_mode;
        self.steps_taken += 1;
        Ok((out_mode, m))
    }

    /// Drops the cached state (call when done with the decomposition;
    /// dropping the `QcooState` does the same). Idempotent.
    pub fn release(&self) {
        self.state.unpersist();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factors::tensor_to_rdd;
    use cstf_dataflow::ClusterConfig;
    use cstf_tensor::mttkrp::mttkrp as mttkrp_seq;
    use cstf_tensor::random::RandomTensor;
    use cstf_tensor::CooTensor;
    use rand::{rngs::StdRng, SeedableRng};

    fn cluster() -> Cluster {
        Cluster::new(ClusterConfig::local(4).nodes(4))
    }

    fn random_factors(shape: &[u32], rank: usize, seed: u64) -> Vec<DenseMatrix> {
        let mut rng = StdRng::seed_from_u64(seed);
        shape
            .iter()
            .map(|&s| DenseMatrix::random(s as usize, rank, &mut rng))
            .collect()
    }

    /// With factors held fixed, cycling through all N modes must produce
    /// the same MTTKRP outputs as the sequential reference.
    fn check_full_cycle(t: &CooTensor, rank: usize, seed: u64) {
        let c = cluster();
        let rdd = tensor_to_rdd(&c, t, 8).persist(StorageLevel::MemoryRaw);
        let factors = random_factors(t.shape(), rank, seed);
        let refs: Vec<&DenseMatrix> = factors.iter().collect();
        let mut q = QcooState::init(&c, &rdd, &factors, t.shape(), rank, 16).unwrap();
        for expect_mode in 0..t.order() {
            assert_eq!(q.next_output_mode(), expect_mode);
            let join_mode = q.next_join_mode();
            let (mode, m) = q.step(&factors[join_mode]).unwrap();
            assert_eq!(mode, expect_mode);
            let seq = mttkrp_seq(t, &refs, mode).unwrap();
            let diff = m.max_abs_diff(&seq);
            assert!(diff < 1e-9, "mode {mode}: diff {diff}");
        }
        assert_eq!(q.steps_taken(), t.order() as u64);
    }

    #[test]
    fn matches_sequential_third_order() {
        let t = RandomTensor::new(vec![12, 9, 15]).nnz(200).seed(3).build();
        check_full_cycle(&t, 3, 21);
    }

    #[test]
    fn matches_sequential_fourth_order() {
        let t = RandomTensor::new(vec![8, 6, 7, 5]).nnz(150).seed(4).build();
        check_full_cycle(&t, 2, 22);
    }

    #[test]
    fn second_cycle_still_correct() {
        // After a full cycle the queue holds re-joined rows; a second cycle
        // must still match (this is the steady state CP-ALS runs in).
        let t = RandomTensor::new(vec![10, 8, 9]).nnz(120).seed(5).build();
        let c = cluster();
        let rdd = tensor_to_rdd(&c, &t, 8).persist(StorageLevel::MemoryRaw);
        let factors = random_factors(t.shape(), 2, 23);
        let refs: Vec<&DenseMatrix> = factors.iter().collect();
        let mut q = QcooState::init(&c, &rdd, &factors, t.shape(), 2, 16).unwrap();
        for _ in 0..2 {
            for mode in 0..3 {
                let (m_mode, m) = q.step(&factors[q.next_join_mode()]).unwrap();
                assert_eq!(m_mode, mode);
                let seq = mttkrp_seq(&t, &refs, mode).unwrap();
                assert!(m.max_abs_diff(&seq) < 1e-9);
            }
        }
    }

    #[test]
    fn updated_factor_is_used_on_next_step() {
        // Change a factor between steps: the next MTTKRP that depends on it
        // must reflect the new values (the data-reuse flow of Figure 1).
        let t = RandomTensor::new(vec![6, 7, 8]).nnz(60).seed(6).build();
        let c = cluster();
        let rdd = tensor_to_rdd(&c, &t, 4).persist(StorageLevel::MemoryRaw);
        let mut factors = random_factors(t.shape(), 2, 24);
        let mut q = QcooState::init(&c, &rdd, &factors, t.shape(), 2, 8).unwrap();

        // Step 0 (update mode 0) with original factors.
        let (_, m0) = q.step(&factors[2]).unwrap();
        factors[0] = m0; // pretend this is the ALS update (same shape)

        // Step 1 consumes the *new* factor 0.
        let (_, m1) = q.step(&factors[0]).unwrap();
        let refs: Vec<&DenseMatrix> = factors.iter().collect();
        let seq = mttkrp_seq(&t, &refs, 1).unwrap();
        assert!(m1.max_abs_diff(&seq) < 1e-9);
    }

    #[test]
    fn two_significant_shuffles_per_step() {
        // Table 4: QCOO performs 2 tensor-sized shuffles per MTTKRP.
        let t = RandomTensor::new(vec![10, 10, 10]).nnz(300).seed(7).build();
        let c = cluster();
        let rdd = tensor_to_rdd(&c, &t, 8).persist(StorageLevel::MemoryRaw);
        let _ = rdd.count();
        let factors = random_factors(t.shape(), 2, 25);
        let mut q = QcooState::init(&c, &rdd, &factors, t.shape(), 2, 16).unwrap();
        c.metrics().reset();
        let _ = q.step(&factors[2]).unwrap();
        let m = c.metrics().snapshot();
        assert_eq!(m.significant_shuffle_count(t.nnz() as u64 / 2), 2);
    }

    #[test]
    fn old_state_is_unpersisted() {
        let t = RandomTensor::new(vec![8, 8, 8]).nnz(100).seed(8).build();
        let c = cluster();
        let rdd = tensor_to_rdd(&c, &t, 4).persist(StorageLevel::MemoryRaw);
        let _ = rdd.count();
        let factors = random_factors(t.shape(), 2, 26);
        let blocks_before_init = c.block_manager().len();
        let mut q = QcooState::init(&c, &rdd, &factors, t.shape(), 2, 8).unwrap();
        let _ = q.step(&factors[2]).unwrap();
        let after_one = c.block_manager().len();
        let _ = q.step(&factors[0]).unwrap();
        let after_two = c.block_manager().len();
        // Cache stays bounded: one live state RDD (+ the tensor blocks).
        assert_eq!(after_one, after_two);
        assert!(after_one >= blocks_before_init);
        q.release();
        assert!(c.block_manager().len() < after_two);
    }

    #[test]
    fn long_run_with_checkpointing_stays_correct_and_bounded() {
        let t = RandomTensor::new(vec![9, 8, 7]).nnz(100).seed(77).build();
        let c = cluster();
        let rdd = tensor_to_rdd(&c, &t, 4).persist(StorageLevel::MemoryRaw);
        let _ = rdd.count();
        let factors = random_factors(t.shape(), 2, 78);
        let refs: Vec<&DenseMatrix> = factors.iter().collect();
        let mut q = QcooState::init(&c, &rdd, &factors, t.shape(), 2, 8).unwrap();
        // 6 full cycles = 18 steps, crossing the checkpoints at 8 and 16.
        for cycle in 0..6 {
            for mode in 0..3 {
                let (m_mode, m) = q.step(&factors[q.next_join_mode()]).unwrap();
                assert_eq!(m_mode, mode);
                let seq = cstf_tensor::mttkrp::mttkrp(&t, &refs, mode).unwrap();
                assert!(m.max_abs_diff(&seq) < 1e-9, "cycle {cycle} mode {mode}");
            }
            // An explicit global clear must also be safe: the live state
            // is cached or checkpointed, so lineage never needs the
            // dropped shuffle files.
            c.shuffle_service().clear();
        }
        assert_eq!(q.steps_taken(), 18);
        q.release();
    }

    #[test]
    fn co_partitioned_step_runs_two_stages_and_matches_legacy_bitwise() {
        let t = RandomTensor::new(vec![10, 10, 10]).nnz(300).seed(7).build();
        let c = cluster();
        let rdd = tensor_to_rdd(&c, &t, 8).persist(StorageLevel::MemoryRaw);
        let _ = rdd.count();
        let factors = random_factors(t.shape(), 2, 25);

        let legacy_opts = QcooOptions {
            co_partition_factors: false,
            ..QcooOptions::default()
        };
        let mut legacy =
            QcooState::init_with(&c, &rdd, &factors, t.shape(), 2, 16, legacy_opts).unwrap();
        let (_, m_legacy) = legacy.step(&factors[2]).unwrap();
        legacy.release();

        let mut fast = QcooState::init(&c, &rdd, &factors, t.shape(), 2, 16).unwrap();
        c.metrics().reset();
        let (_, m_fast) = fast.step(&factors[2]).unwrap();
        let m = c.metrics().snapshot();
        // State-side join shuffle + reduce = 2 raw stages; the factor side
        // of the join was narrow.
        assert_eq!(m.shuffle_count(), 2);
        assert_eq!(m.skipped_shuffle_count(), 1);
        fast.release();

        for i in 0..m_fast.rows() {
            for (a, b) in m_fast.row(i).iter().zip(m_legacy.row(i)) {
                assert_eq!(a.to_bits(), b.to_bits(), "row {i}");
            }
        }
    }

    #[test]
    fn kernel_strategies_bit_identical_over_full_cycle() {
        // The sorted-runs kernel must reproduce the record-at-a-time step
        // outputs bit for bit across a full mode cycle, because the per-key
        // operation sequence is unchanged.
        let t = RandomTensor::new(vec![8, 20, 20]).nnz(350).seed(41).build();
        let c = cluster();
        let rdd = tensor_to_rdd(&c, &t, 8).persist(StorageLevel::MemoryRaw);
        let _ = rdd.count();
        let factors = random_factors(t.shape(), 3, 42);

        let run = |kernel: KernelStrategy| {
            let opts = QcooOptions {
                kernel,
                ..QcooOptions::default()
            };
            let mut q = QcooState::init_with(&c, &rdd, &factors, t.shape(), 3, 16, opts).unwrap();
            c.metrics().reset();
            let mut out = Vec::new();
            for _ in 0..t.order() {
                let (_, m) = q.step(&factors[q.next_join_mode()]).unwrap();
                out.push(m);
            }
            let snap = c.metrics().snapshot();
            q.release();
            (out, snap)
        };

        let (legacy, legacy_m) = run(KernelStrategy::RecordAtATime);
        let (sorted, sorted_m) = run(KernelStrategy::SortedRuns);

        for (step, (a, b)) in legacy.iter().zip(sorted.iter()).enumerate() {
            for i in 0..a.rows() {
                for (x, y) in a.row(i).iter().zip(b.row(i)) {
                    assert_eq!(x.to_bits(), y.to_bits(), "step {step} row {i}");
                }
            }
        }

        assert_eq!(legacy_m.total_kernel_runs(), 0);
        // One kernel reduce per step; its runs = distinct output-mode
        // indices that actually occur among the nonzeros.
        let distinct: u64 = (0..t.order())
            .map(|mode| {
                let set: std::collections::BTreeSet<u32> =
                    t.iter().map(|(coord, _)| coord[mode]).collect();
                set.len() as u64
            })
            .sum();
        assert_eq!(sorted_m.total_kernel_runs(), distinct);
        assert!(sorted_m.total_arena_hits() > 0, "pooled rows never reused");
    }

    #[test]
    fn init_rejects_bad_shapes() {
        let t = RandomTensor::new(vec![5, 5, 5]).nnz(10).seed(9).build();
        let c = cluster();
        let rdd = tensor_to_rdd(&c, &t, 2);
        let factors = random_factors(t.shape(), 2, 27);
        assert!(QcooState::init(&c, &rdd, &factors[..2], t.shape(), 2, 4).is_err());
        let mut q = QcooState::init(&c, &rdd, &factors, t.shape(), 2, 4).unwrap();
        let wrong = DenseMatrix::zeros(3, 2);
        assert!(q.step(&wrong).is_err());
    }

    #[test]
    fn intermediate_state_bytes_match_table4() {
        // QCOO state records carry (N−1)·R doubles: for N=3, R=2 the join
        // shuffle moves ≈ 2·nnz·R doubles of queue payload.
        let t = RandomTensor::new(vec![16, 16, 16])
            .nnz(400)
            .seed(10)
            .build();
        let rank = 2;
        let c = cluster();
        let rdd = tensor_to_rdd(&c, &t, 8).persist(StorageLevel::MemoryRaw);
        let _ = rdd.count();
        let factors = random_factors(t.shape(), rank, 28);
        let mut q = QcooState::init(&c, &rdd, &factors, t.shape(), rank, 16).unwrap();
        c.metrics().reset();
        let _ = q.step(&factors[2]).unwrap();
        let m = c.metrics().snapshot();
        let join_stage = m
            .stages()
            .find(|s| s.name.contains("cogroup-left"))
            .expect("state-side join shuffle");
        // Record: key 4 + coord (4+12) + val 8 + queue (4 + 2·(4+16)).
        let per_record = (4 + 4 + 12 + 8 + 4 + 2 * (4 + 8 * rank)) as u64;
        assert_eq!(join_stage.shuffle_write_bytes, per_record * t.nnz() as u64);
    }
}
