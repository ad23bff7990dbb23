//! Gómez-Luna replicated shared-memory histogram on the simulated device.
//!
//! Section IV-A: the histogram is replicated per thread block (and further
//! replicated within the block when shared memory allows) so that atomic
//! updates spread over many copies; per-block copies are then combined
//! into the single global histogram.
//!
//! Two launch shapes, selected by [`KernelPlan::fused_histogram`]:
//!
//! * **Fused (default)** — `hist_fused_reduction`: full privatization in a
//!   single kernel. A smaller grid (each block strides a larger input
//!   partition, so its replica amortizes over more data) reduces its
//!   shared-memory replicas and *commits* them straight into the global
//!   histogram with consecutive-address atomics, which the L2 resolves at
//!   sector granularity ([`gpu_sim::Traffic::global_atomic_coalesced`]). This
//!   eliminates both the partials round-trip through DRAM and the
//!   latency-bound tree-reduce launch.
//! * **Unfused** — the paper's Table I pair: `hist_blockwise_reduction`
//!   writes one partial histogram per block, then `hist_gridwise_reduction`
//!   tree-reduces the partials. Retained verbatim for comparison, and used
//!   automatically whenever the histogram does not fit a block's shared
//!   memory (large-bin codebooks cannot be privatized).

use super::Histogram;
use crate::plan::KernelPlan;
use gpu_sim::atomic::{expected_conflicts, histogram_skew};
use gpu_sim::{Access, DeviceSpec, Gpu, GridDim, Launch, Traffic};
use rayon::prelude::*;

/// Number of threads per block for the histogram kernels.
const BLOCK_THREADS: u32 = 256;

/// The counters the histogram kernels charge for: measured from the data
/// by [`histogram_with_plan`], estimated by the autotuner
/// ([`crate::tune`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct HistCounters {
    /// Input symbols.
    pub n: u64,
    /// Histogram bins.
    pub bins: u64,
    /// Native symbol width, bytes.
    pub symbol_bytes: u64,
    /// Shared-memory atomics that serialize, counted per warp.
    pub conflicts: u64,
}

/// Compute the histogram of `data` on the device under the default
/// (fused) plan. See [`histogram_with_plan`].
pub fn histogram(gpu: &Gpu, data: &[u16], num_symbols: usize, symbol_bytes: u64) -> Histogram {
    histogram_with_plan(gpu, data, num_symbols, symbol_bytes, KernelPlan::default())
}

/// Compute the histogram of `data` on the device, charging modeled time to
/// the device clock. `symbol_bytes` is the dataset's native symbol width
/// (the basis of the input-read traffic and the GB/s figures). The result
/// is identical for every plan; only the modeled launch/traffic shape
/// differs.
pub fn histogram_with_plan(
    gpu: &Gpu,
    data: &[u16],
    num_symbols: usize,
    symbol_bytes: u64,
    plan: KernelPlan,
) -> Histogram {
    let spec = gpu.spec();
    let bins = num_symbols as u64;
    // Each block histograms its own partition of the input.
    let chunk = data.len().div_ceil(grid_blocks(spec, bins, plan).0 as usize).max(1);
    let partials: Vec<Histogram> =
        data.par_chunks(chunk).map(|part| super::serial::histogram(part, num_symbols)).collect();
    let out: Histogram =
        (0..num_symbols).into_par_iter().map(|bin| partials.iter().map(|p| p[bin]).sum()).collect();

    // Conflicts serialize at warp granularity: the hardware resolves a
    // warp's same-address atomics as one multi-update transaction, so the
    // serialization cost is per warp-instruction, not per lane.
    let n = data.len() as u64;
    let copies = replicas(spec, bins);
    let conflicts = expected_conflicts(n, bins * copies, histogram_skew(&out) / copies as f64)
        / u64::from(spec.warp_size);
    for launch in launches(spec, &HistCounters { n, bins, symbol_bytes, conflicts }, plan) {
        gpu.charge(&launch);
    }
    out
}

/// Replication degree: how many shared-memory copies of the histogram fit
/// per block (at least 1; the paper's kernel degrades to a single copy for
/// large codebooks such as 8192 bins).
fn replicas(spec: &DeviceSpec, bins: u64) -> u64 {
    (spec.shared_mem_per_block as u64 / (bins * 4).max(1)).clamp(1, 8)
}

/// The grid's block count, and whether the fused kernel runs. Full
/// privatization needs at least one complete replica in shared memory;
/// past that the fused commit has nothing to commit from and the
/// two-kernel global-memory path is the only option.
fn grid_blocks(spec: &DeviceSpec, bins: u64, plan: KernelPlan) -> (u32, bool) {
    if plan.fused_histogram && bins * 4 <= spec.shared_mem_per_block as u64 {
        // Half the unfused grid: each replica covers twice the input, so
        // the commit phase (one atomic per bin per block) stays cheap
        // relative to the read phase it piggybacks on.
        ((spec.sm_count * 4).min(512), true)
    } else {
        // One block per SM-resident slot; each block strides the input.
        ((spec.sm_count * 8).min(1024), false)
    }
}

/// The histogram kernels `plan` launches for `c` on `spec`, in launch
/// order.
pub(crate) fn launches(spec: &DeviceSpec, c: &HistCounters, plan: KernelPlan) -> Vec<Launch> {
    let (blocks, fused) = grid_blocks(spec, c.bins, plan);
    let grid = GridDim::new(blocks, BLOCK_THREADS);
    // The partial histograms: one per non-empty block partition.
    let partials = c.n.div_ceil(c.n.div_ceil(u64::from(blocks)).max(1));

    // Traffic shared by both launch shapes: every input element is read
    // once, coalesced, and performs one shared-memory atomic into one of
    // the replicas.
    let mut read = Traffic::new();
    read.read(Access::Coalesced, c.n, c.symbol_bytes);
    read.shared_atomic(c.n, c.conflicts);
    read.shared(replicas(spec, c.bins) * c.bins * 4);
    read.ops(2 * c.n);
    if fused {
        // Commit: each block adds its reduced replica into the global
        // histogram bin-by-bin. Lanes hit consecutive bins (distinct
        // addresses within a warp), so the L2 folds the adds into
        // sector-granular RMW traffic; the serialization chain is the
        // per-bin collision across blocks, at most one per committer.
        read.global_atomic_coalesced(partials * c.bins, 4, partials);
        read.ops(partials * c.bins);
        return vec![Launch { name: "hist_fused_reduction", grid, traffic: read }];
    }
    // The paper's two-kernel pair: each block writes one partial, then a
    // gridwise tree-reduce folds the partials.
    read.write(Access::Coalesced, u64::from(blocks) * c.bins, 4);
    let mut fold = Traffic::new();
    fold.read(Access::Coalesced, partials * c.bins, 8);
    fold.write(Access::Coalesced, c.bins, 8);
    fold.ops(partials * c.bins);
    vec![
        Launch { name: "hist_blockwise_reduction", grid, traffic: read },
        Launch {
            name: "hist_gridwise_reduction",
            grid: GridDim::cover(c.bins as usize, BLOCK_THREADS),
            traffic: fold,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceSpec;

    #[test]
    fn matches_serial() {
        let data: Vec<u16> = (0..30_000u32).map(|i| (i % 777) as u16).collect();
        let gpu = Gpu::new(DeviceSpec::test_part());
        let h = histogram(&gpu, &data, 1024, 2);
        assert_eq!(h, crate::histogram::serial::histogram(&data, 1024));
    }

    #[test]
    fn fused_and_unfused_agree() {
        let data: Vec<u16> = (0..50_000u32).map(|i| ((i * 31) % 613) as u16).collect();
        let g1 = Gpu::new(DeviceSpec::test_part());
        let g2 = Gpu::new(DeviceSpec::test_part());
        let fused = histogram_with_plan(&g1, &data, 1024, 2, KernelPlan::fused());
        let unfused = histogram_with_plan(&g2, &data, 1024, 2, KernelPlan::unfused());
        assert_eq!(fused, unfused);
    }

    #[test]
    fn empty_input_gives_zero_histogram() {
        let gpu = Gpu::new(DeviceSpec::test_part());
        let h = histogram(&gpu, &[], 16, 2);
        assert_eq!(h, vec![0u64; 16]);
    }

    #[test]
    fn fused_plan_charges_one_kernel() {
        let gpu = Gpu::new(DeviceSpec::test_part());
        let _ = histogram(&gpu, &[1, 2, 3], 8, 2);
        assert_eq!(gpu.clock().launches(), 1);
        assert!(gpu.elapsed_matching("hist_fused") > 0.0);
        assert_eq!(gpu.elapsed_matching("hist_gridwise"), 0.0);
    }

    #[test]
    fn unfused_plan_charges_two_kernels() {
        let gpu = Gpu::new(DeviceSpec::test_part());
        let _ = histogram_with_plan(&gpu, &[1, 2, 3], 8, 2, KernelPlan::unfused());
        assert_eq!(gpu.clock().launches(), 2);
        assert!(gpu.elapsed_matching("hist_blockwise") > 0.0);
        assert!(gpu.elapsed_matching("hist_gridwise") > 0.0);
    }

    #[test]
    fn large_bin_histogram_falls_back_to_two_kernels() {
        // 65536 bins x 4 B = 256 KiB: no block can privatize that, so the
        // fused plan degrades to the two-kernel global-memory path.
        let gpu = Gpu::v100();
        let data: Vec<u16> = (0..10_000u32).map(|i| (i % 60_000) as u16).collect();
        let h = histogram_with_plan(&gpu, &data, 65_536, 2, KernelPlan::fused());
        assert_eq!(h, crate::histogram::serial::histogram(&data, 65_536));
        assert_eq!(gpu.clock().launches(), 2);
        assert!(gpu.elapsed_matching("hist_gridwise") > 0.0);
    }

    #[test]
    fn fused_is_faster_than_unfused_at_scale() {
        // The whole point of the fusion: the commit is cheaper than the
        // partials round-trip plus the latency-bound tree-reduce launch.
        let data: Vec<u16> = (0..(8 << 20)).map(|i| (i % 1024) as u16).collect();
        let g1 = Gpu::v100();
        let _ = histogram_with_plan(&g1, &data, 1024, 2, KernelPlan::fused());
        let g2 = Gpu::v100();
        let _ = histogram_with_plan(&g2, &data, 1024, 2, KernelPlan::unfused());
        assert!(g1.elapsed() < g2.elapsed(), "fused {} >= unfused {}", g1.elapsed(), g2.elapsed());
    }

    #[test]
    fn modeled_throughput_near_bandwidth_on_v100() {
        // Table V: histogramming reaches ~200-276 GB/s on the V100 for
        // large inputs (reads dominate; atomics and the final reduction
        // cost the rest). Check the model lands in a sane band.
        let data: Vec<u16> = (0..(64 << 20) / 2).map(|i| (i % 1024) as u16).collect();
        let gpu = Gpu::v100();
        let _ = histogram(&gpu, &data, 1024, 2);
        let gbps = gpu_sim::gbps(gpu_sim::throughput((data.len() * 2) as u64, gpu.elapsed()));
        assert!(gbps > 80.0 && gbps < 900.0, "modeled {gbps} GB/s");
    }

    #[test]
    fn skewed_data_is_slower_than_uniform() {
        let uniform: Vec<u16> = (0..2_000_000u32).map(|i| (i % 1024) as u16).collect();
        let skewed: Vec<u16> = vec![7u16; 2_000_000];
        let g1 = Gpu::v100();
        let _ = histogram(&g1, &uniform, 1024, 2);
        let g2 = Gpu::v100();
        let _ = histogram(&g2, &skewed, 1024, 2);
        assert!(g2.elapsed() > g1.elapsed(), "skewed {} <= uniform {}", g2.elapsed(), g1.elapsed());
    }
}
