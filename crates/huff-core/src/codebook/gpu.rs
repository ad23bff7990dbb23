//! Codebook construction on the simulated device.
//!
//! Two paths, matching Table III:
//!
//! * [`parallel_on_gpu`] — "Ours": Thrust-style sort, then the
//!   `GenerateCL` and `GenerateCW` kernels, each launched once and
//!   internally grid-synced (Cooperative Groups), with canonization folded
//!   into `GenerateCW`.
//! * [`serial_on_gpu`] — "cuSZ (serial)": the serial heap construction run
//!   on a single device thread (latency-bound — the motivation experiment
//!   of Section II-C), followed by the partially-parallelized canonization
//!   kernel.

use super::generate_cl::{generate_cl, ClStats};
use super::generate_cw::generate_cw;
use super::CanonicalCodebook;
use crate::error::{HuffError, Result};
use gpu_sim::{Access, Gpu, GridDim, Launch, Traffic};
use rayon::prelude::*;

/// Modeled per-phase times (seconds) of the parallel construction.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ParallelCodebookTimes {
    /// Histogram sort (Thrust stand-in).
    pub sort: f64,
    /// GenerateCL kernel.
    pub generate_cl: f64,
    /// GenerateCW kernel (canonization folded in).
    pub generate_cw: f64,
    /// Sum of the above.
    pub total: f64,
}

/// Modeled per-phase times (seconds) of the serial baseline on the device.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SerialCodebookTimes {
    /// Single-thread tree + base-codebook construction.
    pub gen_codebook: f64,
    /// Canonization kernel.
    pub canonize: f64,
    /// Sum of the above.
    pub total: f64,
}

/// Build the canonical codebook with the paper's parallel two-phase
/// algorithm on the device, charging modeled time to `gpu`'s clock.
pub fn parallel_on_gpu(
    gpu: &Gpu,
    freqs: &[u64],
) -> Result<(CanonicalCodebook, ParallelCodebookTimes)> {
    let mut pairs: Vec<(u64, u16)> =
        freqs.iter().enumerate().filter(|(_, &f)| f > 0).map(|(s, &f)| (f, s as u16)).collect();
    if pairs.is_empty() {
        return Err(HuffError::EmptyHistogram);
    }
    // The Thrust sort, stable by frequency.
    pairs.par_sort_by(|a, b| a.0.cmp(&b.0));
    let sorted_freqs: Vec<u64> = pairs.iter().map(|&(f, _)| f).collect();
    let (cl, stats) = generate_cl(&sorted_freqs, gpu.spec().sm_count as usize);

    // Map lengths back to symbols and fix the within-level order to
    // ascending symbol, so the codebook matches `codebook::parallel` and is
    // reproducible from lengths alone.
    let mut lengths = vec![0u32; freqs.len()];
    for (i, &(_, s)) in pairs.iter().enumerate() {
        lengths[s as usize] = cl[i];
    }
    let mut order: Vec<u16> =
        (0..freqs.len()).filter(|&s| lengths[s] > 0).map(|s| s as u16).collect();
    order.sort_unstable_by_key(|&s| (lengths[s as usize], s));
    let cl_desc: Vec<u32> = order.iter().rev().map(|&s| lengths[s as usize]).collect();
    let cw = generate_cw(&cl_desc)?;

    let [sort, generate_cl, generate_cw] =
        launches(pairs.len() as u64, &stats, cw.levels).map(|l| gpu.charge(&l).total);
    let book = CanonicalCodebook::assemble(freqs.len(), &order, cw)?;
    let times = ParallelCodebookTimes {
        sort,
        generate_cl,
        generate_cw,
        total: sort + generate_cl + generate_cw,
    };
    Ok((book, times))
}

/// The parallel construction's three kernels for `n` coded symbols, in
/// launch order: the sort, `GenerateCL` (priced from its run statistics)
/// and `GenerateCW` over `cw_levels` length levels.
pub(crate) fn launches(n: u64, cl: &ClStats, cw_levels: u32) -> [Launch; 3] {
    let grid = GridDim::cover(n as usize, 256);
    let sort = gpu_sim::sort::ledger(n, std::mem::size_of::<(u64, u16)>() as u64);

    // Per-round regions: NewNodeFromSmallestTwo, leaf selection, PARMERGE
    // (partition + merge), MELD, UPDATELEAFNODE.
    let mut gen_cl = Traffic::new();
    for _ in 0..5 * cl.rounds {
        gen_cl.grid_sync();
    }
    // Structure-of-arrays node records: 16 B (freq + leader/aux).
    gen_cl.read(Access::Coalesced, cl.selection_scans, 16);
    gen_cl.read(Access::Coalesced, cl.merged_elements, 16);
    gen_cl.write(Access::Coalesced, cl.merged_elements, 16);
    gen_cl.write(Access::Coalesced, cl.melds, 24);
    gen_cl.read(Access::Coalesced, cl.leaf_updates, 12);
    gen_cl.write(Access::Coalesced, cl.leaf_updates / 2, 12);
    gen_cl.read(Access::Random, cl.search_steps, 8);
    gen_cl.ops(
        cl.selection_scans
            + 2 * cl.merged_elements
            + cl.melds
            + 2 * cl.leaf_updates
            + cl.search_steps,
    );
    // Atomic max on copy.size per selected leaf.
    gen_cl.global_atomic(cl.selection_scans / 4, cl.rounds);

    // PARREVERSE + per-level regions (assign, metadata) + final
    // reverse-codebook write; canonization is folded in.
    let levels = u64::from(cw_levels);
    let mut gen_cw = Traffic::new();
    gen_cw.grid_sync();
    for _ in 0..2 * levels {
        gen_cw.grid_sync();
    }
    gen_cw.read(Access::Coalesced, n, 4);
    gen_cw.write(Access::Coalesced, n, 12);
    gen_cw.write(Access::Coalesced, n, 2); // reverse codebook
    gen_cw.ops(3 * n + levels);
    // ATOMICMIN per level boundary search.
    gen_cw.global_atomic(levels * 32, levels);

    [
        Launch { name: "codebook_sort", grid, traffic: sort },
        Launch { name: "generate_cl", grid, traffic: gen_cl },
        Launch { name: "generate_cw", grid, traffic: gen_cw },
    ]
}

/// Build the codebook with the *serial* algorithm on one device thread,
/// then canonize with the partially-parallelized canonization kernel — the
/// cuSZ baseline ("GEN. CODEBOOK" + "CANONIZE" in Table III).
pub fn serial_on_gpu(gpu: &Gpu, freqs: &[u64]) -> Result<(CanonicalCodebook, SerialCodebookTimes)> {
    let n = freqs.iter().filter(|&&f| f > 0).count() as u64;
    if n == 0 {
        return Err(HuffError::EmptyHistogram);
    }

    // Serial heap construction on one thread: every heap operation is a
    // chain of dependent global-memory accesses. Calibrated from the
    // access pattern of a binary-heap build-and-drain: ~1.6 dependent
    // accesses per element-level.
    let log_n = (n.max(2) as f64).log2();
    let dependent_accesses = (1.6 * n as f64 * log_n) as u64;
    let (base, gen_cost) = gpu.launch_timed("serial_gen_codebook", GridDim::new(1, 1), |scope| {
        scope.sequential(dependent_accesses, || super::serial::base_codebook(freqs))
    });
    let base = base?;

    // Canonization kernel: parallel scan + serial loose radix sort (RAW
    // dependency) + parallel reverse-codebook build (Section IV-B2; ~200 us
    // for 1024 codewords on the V100).
    let (canonize_out, canon_cost) =
        gpu.launch_timed("canonize", GridDim::cover(base.len(), 256), |scope| {
            let out = super::serial::canonize(&base);
            if let Ok((_, stats)) = &out {
                let t = scope.traffic();
                t.read(Access::Coalesced, stats.scan_ops, 8);
                t.global_atomic(stats.scan_ops / 8, 8);
                t.write(Access::Coalesced, stats.reverse_ops, 4);
                t.ops(stats.scan_ops + stats.reverse_ops);
                t.grid_sync();
                t.grid_sync();
                // The serial RAW radix chain: dependent accesses, partially
                // cached (≈0.4 global round trips per element).
                scope.traffic().sequential((stats.radix_ops as f64 * 0.4) as u64);
            }
            out
        });
    let (book, _stats) = canonize_out?;

    let times = SerialCodebookTimes {
        gen_codebook: gen_cost.total,
        canonize: canon_cost.total,
        total: gen_cost.total + canon_cost.total,
    };
    Ok((book, times))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree;
    use gpu_sim::DeviceSpec;

    fn random_freqs(n: usize) -> Vec<u64> {
        (0..n as u64).map(|i| (i.wrapping_mul(6364136223846793005) >> 33) % 100_000 + 1).collect()
    }

    #[test]
    fn parallel_gpu_codebook_is_optimal() {
        let gpu = Gpu::new(DeviceSpec::test_part());
        let freqs = random_freqs(512);
        let (book, times) = parallel_on_gpu(&gpu, &freqs).unwrap();
        let reference = tree::codeword_lengths(&freqs).unwrap();
        assert_eq!(
            tree::weighted_length(&freqs, &book.lengths()),
            tree::weighted_length(&freqs, &reference)
        );
        assert!(times.generate_cl > 0.0);
        assert!(times.generate_cw > 0.0);
        assert!((times.total - (times.sort + times.generate_cl + times.generate_cw)).abs() < 1e-12);
    }

    #[test]
    fn serial_gpu_matches_parallel_totals() {
        let gpu = Gpu::new(DeviceSpec::test_part());
        let freqs = random_freqs(256);
        let (sbook, st) = serial_on_gpu(&gpu, &freqs).unwrap();
        let (pbook, _) = parallel_on_gpu(&gpu, &freqs).unwrap();
        assert_eq!(
            tree::weighted_length(&freqs, &sbook.lengths()),
            tree::weighted_length(&freqs, &pbook.lengths())
        );
        assert!(st.gen_codebook > 0.0);
        assert!(st.canonize > 0.0);
    }

    #[test]
    fn v100_parallel_time_in_paper_band_1024() {
        // Table III, Ours/V100, 1024 symbols: total 0.544 ms. Accept a
        // generous band — the shape (sub-millisecond, dominated by round
        // syncs) is what matters.
        let gpu = Gpu::v100();
        let freqs = random_freqs(1024);
        let (_, t) = parallel_on_gpu(&gpu, &freqs).unwrap();
        assert!(t.total > 0.1e-3 && t.total < 3.0e-3, "modeled {} s", t.total);
    }

    #[test]
    fn v100_serial_time_in_paper_band_8192() {
        // Table III, cuSZ/V100, 8192 symbols: ~59 ms gen + 1.4 ms canonize.
        let gpu = Gpu::v100();
        let freqs = random_freqs(8192);
        let (_, t) = serial_on_gpu(&gpu, &freqs).unwrap();
        assert!(t.gen_codebook > 20.0e-3 && t.gen_codebook < 200.0e-3, "gen {}", t.gen_codebook);
        assert!(t.canonize > 0.2e-3 && t.canonize < 5.0e-3, "canonize {}", t.canonize);
    }

    #[test]
    fn parallel_beats_serial_on_gpu_at_every_size() {
        // The headline of Table III: the parallel construction wins on the
        // GPU for all tested sizes, with the gap growing with n.
        let mut speedups = Vec::new();
        for n in [256usize, 1024, 4096] {
            let freqs = random_freqs(n);
            let g1 = Gpu::v100();
            let (_, ts) = serial_on_gpu(&g1, &freqs).unwrap();
            let g2 = Gpu::v100();
            let (_, tp) = parallel_on_gpu(&g2, &freqs).unwrap();
            assert!(ts.total > tp.total, "n={n}: serial {} <= parallel {}", ts.total, tp.total);
            speedups.push(ts.total / tp.total);
        }
        assert!(speedups.windows(2).all(|w| w[1] > w[0]), "speedup not growing: {speedups:?}");
    }

    #[test]
    fn empty_histogram_rejected() {
        let gpu = Gpu::new(DeviceSpec::test_part());
        assert!(parallel_on_gpu(&gpu, &[0, 0]).is_err());
        assert!(serial_on_gpu(&gpu, &[0]).is_err());
    }
}
