//! The benchmark's workloads: what each one feeds the program, how the
//! program is configured for it, and the recorded reason it exists.
//!
//! Inputs are generated from `--seed` by the parent, written as `.tns`
//! files, and only ever *read* by the measuring child — the program under
//! test receives generated inputs, never the seed.

use cstf_core::{CpAls, Partitioning, Strategy};
use cstf_tensor::datasets::{DatasetSpec, DELICIOUS4D, NELL1, SYNT3D};
use cstf_tensor::random::{sparse_low_rank_tensor, RandomTensor};
use cstf_tensor::CooTensor;
use std::path::{Path, PathBuf};

/// One common divisor applied to every workload's nonzero count so that
/// all driver runs fit the time cap (ISSUE: shrink every scale by one
/// common factor, never the repetition counts). The sizes in the table
/// below are the ISSUE's sizes divided by this.
pub const SCALE_DIV: f64 = 2.0;

/// Jobs per `jobs_small` burst.
pub const BURST_JOBS: usize = 40;

/// How a workload's input is generated.
#[derive(Debug, Clone, Copy)]
pub enum Input {
    /// A paper dataset stand-in at `scale` (full size ÷ scale).
    Dataset(DatasetSpec, f64),
    /// Exactly-rank-`rank` sparse tensor with `support` indices per mode.
    LowRank {
        shape: [u32; 3],
        rank: usize,
        support: usize,
    },
    /// `count` small uniform random tensors (one per job).
    SmallJobs {
        shape: [u32; 3],
        nnz: usize,
        count: usize,
    },
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub input: Input,
    pub strategy: Strategy,
    pub partitioning: Partitioning,
    pub rank: usize,
    /// ALS iterations of the full run.
    pub iterations: usize,
    /// `Some(f)`: the fit is evaluated after every iteration and the final
    /// fit must reach `f`. `None`: fit evaluation is skipped.
    pub min_fit: Option<f64>,
    /// Memory budget as a share of the unbudgeted run's peak cached bytes.
    pub budget_share: Option<f64>,
    /// Job `j` starts from the random factors of seed `init_base + j`.
    /// Fixed in the table — `--seed` selects the input, not the starting
    /// point — except that a workload with `min_fit` moves it to the
    /// first start from which the sequential reference converges (see
    /// `child::choose_start`).
    pub init_base: u64,
}

pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "coo3_synt",
        why: "CSTF-COO on uniform synt3d: N-1 joins + 1 reduce per MTTKRP, so join/shuffle do the work and the cache almost none",
        input: Input::Dataset(SYNT3D, 1600.0),
        strategy: Strategy::Coo,
        partitioning: Partitioning::CoPartitionedFactors,
        rank: 8,
        iterations: 3,
        min_fit: None,
        budget_share: None,
        init_base: 42,
    },
    Workload {
        name: "qcoo3_synt",
        why: "headline QCOO (product default) on the same tensor: one join + one reduce + a persisted carried queue; cache and per-record allocation dominate, setup is large",
        input: Input::Dataset(SYNT3D, 1600.0),
        strategy: Strategy::Qcoo,
        partitioning: Partitioning::CoPartitionedFactors,
        rank: 8,
        iterations: 2,
        min_fit: None,
        budget_share: None,
        init_base: 42,
    },
    Workload {
        name: "qcoo4_deli",
        why: "order 4 and Zipf skew at the paper's rank 2: longer queues, heavy keys, reduce stragglers, narrow rows where per-record overhead dominates",
        input: Input::Dataset(DELICIOUS4D, 1500.0),
        strategy: Strategy::Qcoo,
        partitioning: Partitioning::CoPartitionedFactors,
        rank: 2,
        iterations: 2,
        min_fit: None,
        budget_share: None,
        init_base: 42,
    },
    Workload {
        name: "spmv3_nell",
        why: "DFacTo SpMV chain on compressible nell1, pre-partitioned: u64 fiber keys, reduces feeding reduces, canonical sort; guards the knob-collapse item",
        input: Input::Dataset(NELL1, 1200.0),
        strategy: Strategy::DfactoSpmv,
        partitioning: Partitioning::PrePartitionedTensor,
        rank: 8,
        iterations: 4,
        min_fit: None,
        budget_share: None,
        init_base: 42,
    },
    Workload {
        name: "bcast3_converge",
        why: "default user path to a stated accuracy (fit >= 0.999 on an exactly rank-4 tensor): no join, no factor shuffle; driver-side fit/linalg and one reduce do the work (bypass for join/shuffle/cache)",
        input: Input::LowRank {
            shape: [2000, 1500, 1000],
            rank: 4,
            support: 45,
        },
        strategy: Strategy::CooBroadcast,
        partitioning: Partitioning::CoPartitionedFactors,
        rank: 4,
        iterations: 8,
        min_fit: Some(0.999),
        budget_share: None,
        init_base: 42,
    },
    Workload {
        name: "qcoo3_budget",
        why: "QCOO under a memory budget of a quarter of its peak: cache writes, evictions and lineage recomputes beside reads; a cache gain that costs the eviction path shows here",
        input: Input::Dataset(SYNT3D, 3200.0),
        strategy: Strategy::Qcoo,
        partitioning: Partitioning::CoPartitionedFactors,
        rank: 8,
        iterations: 2,
        min_fit: None,
        budget_share: Some(0.25),
        init_base: 42,
    },
    Workload {
        name: "jobs_small",
        why: "closed burst of 40 tiny COO/QCOO jobs through a fair(2) JobServer with 4 tenant pools: executor wake-ups, scheduler and dispatcher do all the work, kernels none",
        input: Input::SmallJobs {
            shape: [60, 50, 40],
            nnz: 2000,
            count: BURST_JOBS,
        },
        strategy: Strategy::Coo,
        partitioning: Partitioning::CoPartitionedFactors,
        rank: 2,
        iterations: 2,
        min_fit: None,
        budget_share: None,
        init_base: 42,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// True for the job-server burst workload (many inputs, many jobs).
    pub fn is_burst(&self) -> bool {
        matches!(self.input, Input::SmallJobs { .. })
    }

    /// The CP-ALS configuration of job `job` (0 for the single-run
    /// workloads). Burst jobs alternate COO/QCOO and differ in init seed.
    pub fn cp_als(&self, job: usize, iterations: usize) -> CpAls {
        let als = CpAls::new(self.rank)
            .strategy(self.strategy_of(job))
            .partitioning(self.partitioning)
            .max_iterations(iterations)
            .seed(self.init_seed(job));
        if self.min_fit.is_some() {
            als
        } else {
            als.skip_fit()
        }
    }

    pub fn strategy_of(&self, job: usize) -> Strategy {
        if self.is_burst() && job % 2 == 1 {
            Strategy::Qcoo
        } else {
            self.strategy
        }
    }

    /// Seed of job `job`'s random factor initialization.
    pub fn init_seed(&self, job: usize) -> u64 {
        self.init_base + job as u64
    }

    /// Generates this workload's input tensors from `seed`. `extra_div`
    /// shrinks the nonzero count further (`quick` mode passes 10).
    pub fn generate(&self, seed: u64, extra_div: f64) -> Vec<CooTensor> {
        let div = SCALE_DIV * extra_div;
        match self.input {
            Input::Dataset(spec, scale) => vec![spec.generate(scale * div, seed)],
            Input::LowRank {
                shape,
                rank,
                support,
            } => {
                // nnz ≈ rank · support³, so the support shrinks by ∛div.
                let support = ((support as f64) / div.cbrt()).round().max(4.0) as usize;
                vec![sparse_low_rank_tensor(&shape, rank, support, seed).0]
            }
            Input::SmallJobs { shape, nnz, count } => {
                let nnz = ((nnz as f64 / div).ceil() as usize).max(64);
                (0..count as u64)
                    .map(|j| {
                        RandomTensor::new(shape.to_vec())
                            .nnz(nnz)
                            .seed(seed.wrapping_mul(1000).wrapping_add(j))
                            .build()
                    })
                    .collect()
            }
        }
    }

    /// Writes the generated inputs as `.tns` under `dir` and returns the
    /// paths (one per job). The bytes are a pure function of
    /// `(workload, seed, extra_div)`.
    pub fn write_inputs(
        &self,
        dir: &Path,
        seed: u64,
        extra_div: f64,
    ) -> std::io::Result<Vec<PathBuf>> {
        std::fs::create_dir_all(dir)?;
        let mut paths = Vec::new();
        for (j, tensor) in self.generate(seed, extra_div).iter().enumerate() {
            let path = dir.join(format!("{}-s{}-d{}-{}.tns", self.name, seed, extra_div, j));
            std::fs::write(&path, tns_bytes(tensor))?;
            paths.push(path);
        }
        Ok(paths)
    }
}

/// `.tns` serialization of `t` (values print in shortest round-trip form,
/// so a reader recovers every `f64` bit for bit).
pub fn tns_bytes(t: &CooTensor) -> Vec<u8> {
    let mut out = Vec::with_capacity(t.nnz() * 24);
    cstf_tensor::io::write_tns(t, &mut out).expect("write to Vec");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        for w in WORKLOADS.iter() {
            let bytes = |seed: u64| -> Vec<Vec<u8>> {
                w.generate(seed, 10.0).iter().map(tns_bytes).collect()
            };
            let (a, again, b) = (bytes(7), bytes(7), bytes(8));
            assert_eq!(
                a, again,
                "{}: same seed must give identical .tns bytes",
                w.name
            );
            assert_ne!(a, b, "{}: another seed must give other inputs", w.name);
            assert_eq!(a.len(), if w.is_burst() { BURST_JOBS } else { 1 });
        }
    }

    #[test]
    fn written_inputs_read_back_bit_for_bit() {
        let dir = std::env::temp_dir().join(format!("perf-inputs-{}", std::process::id()));
        let w = by_name("qcoo4_deli").unwrap();
        let paths = w.write_inputs(&dir, 3, 10.0).unwrap();
        let generated = &w.generate(3, 10.0)[0];
        let read = cstf_tensor::io::read_tns_file(&paths[0]).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(read.order(), 4);
        assert_eq!(read.nnz(), generated.nnz());
        assert_eq!(read.flat_indices(), generated.flat_indices());
        let bits = |t: &CooTensor| t.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&read), bits(generated));
    }

    #[test]
    fn job_configurations_follow_the_table() {
        let burst = by_name("jobs_small").unwrap();
        assert_eq!(burst.strategy_of(0), Strategy::Coo);
        assert_eq!(burst.strategy_of(1), Strategy::Qcoo);
        assert_ne!(burst.init_seed(0), burst.init_seed(1));
        let solo = by_name("spmv3_nell").unwrap();
        assert_eq!(solo.strategy_of(1), Strategy::DfactoSpmv);
        assert!(by_name("nope").is_none());
    }
}
