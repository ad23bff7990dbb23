//! Device primitive: parallel prefix sum (scan).
//!
//! The Rahmani-style baseline encoder (Section III-B) computes every encoded
//! symbol's write offset with a classical parallel scan; the reduce/shuffle
//! encoder also needs small scans for per-chunk bit lengths. This is a
//! blocked two-level work-efficient scan: block-local scans, a scan of block
//! totals, then a uniform add — 3n element moves, which is what the ledger
//! charges.

use crate::exec::KernelScope;
use crate::traffic::{Access, Traffic};
use rayon::prelude::*;

/// Exclusive prefix sum of `input`, accounting traffic on `scope`.
///
/// Returns a vector `out` with `out[0] = 0` and
/// `out[i] = input[0] + ... + input[i-1]`, plus the grand total.
pub fn exclusive_scan(scope: &mut KernelScope, input: &[u64]) -> (Vec<u64>, u64) {
    let n = input.len();
    if n == 0 {
        return (Vec::new(), 0);
    }
    let block = 4096usize;
    let nblocks = n.div_ceil(block);

    // Phase 1: per-block exclusive scans, collecting block totals.
    let mut out = vec![0u64; n];
    let totals: Vec<u64> = out
        .par_chunks_mut(block)
        .zip(input.par_chunks(block))
        .map(|(o, i)| {
            let mut acc = 0u64;
            for (dst, &src) in o.iter_mut().zip(i) {
                *dst = acc;
                acc += src;
            }
            acc
        })
        .collect();

    // Phase 2: scan of block totals (small, host-serial; the device would
    // use a single block).
    let mut block_offsets = vec![0u64; nblocks];
    let mut acc = 0u64;
    for (off, &t) in block_offsets.iter_mut().zip(&totals) {
        *off = acc;
        acc += t;
    }
    let grand_total = acc;

    // Phase 3: uniform add of block offsets.
    out.par_chunks_mut(block).zip(block_offsets.par_iter()).for_each(|(o, &off)| {
        if off != 0 {
            for v in o.iter_mut() {
                *v += off;
            }
        }
    });

    scope.traffic().absorb(&exclusive_scan_ledger(n as u64));
    (out, grand_total)
}

/// The traffic [`exclusive_scan`] charges for `n` elements (none for an
/// empty input).
pub fn exclusive_scan_ledger(n: u64) -> Traffic {
    let mut t = Traffic::new();
    if n == 0 {
        return t;
    }
    t.read(Access::Coalesced, n, 8);
    t.write(Access::Coalesced, n, 8);
    t.read(Access::Coalesced, n, 8); // uniform-add pass re-reads
    t.write(Access::Coalesced, n, 8);
    t.ops(3 * n);
    t.grid_sync();
    t.grid_sync();
    t
}

/// Elements scanned per block by [`single_pass_scan`].
pub const SINGLE_PASS_BLOCK: usize = 4096;

/// Exclusive prefix sum via a decoupled-lookback single pass
/// (Merrill & Garland style), accounting traffic on `scope`.
///
/// Same result as [`exclusive_scan`], but modeled as one fused pass: each
/// block scans its tile, publishes an aggregate/prefix descriptor, and
/// resolves its exclusive offset by inspecting predecessors' descriptors
/// instead of waiting on a device-wide barrier. The ledger charges ~2n
/// element moves (vs. 4n for the two-level scan's uniform-add re-read),
/// one small descriptor write plus an expected two-descriptor lookback
/// window per block, and — crucially — **zero grid syncs**, which is what
/// lets callers run it as an epilogue inside another kernel.
pub fn single_pass_scan(scope: &mut KernelScope, input: &[u64]) -> (Vec<u64>, u64) {
    let n = input.len();
    if n == 0 {
        return (Vec::new(), 0);
    }
    let block = SINGLE_PASS_BLOCK;
    let nblocks = n.div_ceil(block);

    // Per-block exclusive scans, collecting block totals (the device would
    // do this in shared memory while the lookback resolves).
    let mut out = vec![0u64; n];
    let totals: Vec<u64> = out
        .par_chunks_mut(block)
        .zip(input.par_chunks(block))
        .map(|(o, i)| {
            let mut acc = 0u64;
            for (dst, &src) in o.iter_mut().zip(i) {
                *dst = acc;
                acc += src;
            }
            acc
        })
        .collect();

    // Lookback resolution: block k's exclusive offset is the running sum of
    // predecessors' aggregates; on the host this is the same serial scan,
    // but no grid-wide barrier separates it from the tile scans.
    let mut block_offsets = vec![0u64; nblocks];
    let mut acc = 0u64;
    for (off, &t) in block_offsets.iter_mut().zip(&totals) {
        *off = acc;
        acc += t;
    }
    let grand_total = acc;

    out.par_chunks_mut(block).zip(block_offsets.par_iter()).for_each(|(o, &off)| {
        if off != 0 {
            for v in o.iter_mut() {
                *v += off;
            }
        }
    });

    scope.traffic().absorb(&single_pass_scan_ledger(n as u64));
    (out, grand_total)
}

/// The traffic [`single_pass_scan`] charges for `n` elements (none for an
/// empty input).
pub fn single_pass_scan_ledger(n: u64) -> Traffic {
    let mut t = Traffic::new();
    if n == 0 {
        return t;
    }
    let b = n.div_ceil(SINGLE_PASS_BLOCK as u64);
    t.read(Access::Coalesced, n, 8);
    t.write(Access::Coalesced, n, 8);
    // Descriptor publication (aggregate + status flag, 16 B, one thread per
    // block -> strided) and the expected-two-predecessor lookback window.
    t.write(Access::Strided, b, 16);
    t.read(Access::Strided, 2 * b, 16);
    t.shared(SINGLE_PASS_BLOCK as u64 * 8); // tile scan workspace
    t.ops(2 * n + 8 * b);
    t
}

/// Inclusive prefix sum of `input` (each element includes itself).
pub fn inclusive_scan(scope: &mut KernelScope, input: &[u64]) -> Vec<u64> {
    let (mut out, _) = exclusive_scan(scope, input);
    out.par_iter_mut().zip(input.par_iter()).for_each(|(o, &i)| *o += i);
    let t = scope.traffic();
    t.read(Access::Coalesced, input.len() as u64, 8);
    t.write(Access::Coalesced, input.len() as u64, 8);
    t.ops(input.len() as u64);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceSpec;
    use crate::exec::Gpu;
    use crate::grid::GridDim;

    fn with_scope<R>(f: impl FnOnce(&mut KernelScope) -> R) -> R {
        let g = Gpu::new(DeviceSpec::test_part());
        g.launch("scan_test", GridDim::new(1, 32), f)
    }

    #[test]
    fn exclusive_scan_small() {
        let (out, total) = with_scope(|s| exclusive_scan(s, &[3, 1, 4, 1, 5]));
        assert_eq!(out, vec![0, 3, 4, 8, 9]);
        assert_eq!(total, 14);
    }

    #[test]
    fn exclusive_scan_empty() {
        let (out, total) = with_scope(|s| exclusive_scan(s, &[]));
        assert!(out.is_empty());
        assert_eq!(total, 0);
    }

    #[test]
    fn exclusive_scan_crosses_blocks() {
        // Larger than one 4096 block: verify against serial reference.
        let input: Vec<u64> = (0..10_000u64).map(|i| i % 7).collect();
        let (out, total) = with_scope(|s| exclusive_scan(s, &input));
        let mut acc = 0u64;
        for (i, &v) in input.iter().enumerate() {
            assert_eq!(out[i], acc, "at {i}");
            acc += v;
        }
        assert_eq!(total, acc);
    }

    #[test]
    fn inclusive_matches_exclusive_plus_self() {
        let input = vec![2u64, 0, 9, 9, 1];
        let inc = with_scope(|s| inclusive_scan(s, &input));
        assert_eq!(inc, vec![2, 2, 11, 20, 21]);
    }

    #[test]
    fn single_pass_matches_two_level_scan() {
        let input: Vec<u64> = (0..10_000u64).map(|i| (i * 31) % 13).collect();
        let (two_level, total_a) = with_scope(|s| exclusive_scan(s, &input));
        let (single, total_b) = with_scope(|s| single_pass_scan(s, &input));
        assert_eq!(single, two_level);
        assert_eq!(total_a, total_b);
    }

    #[test]
    fn single_pass_scan_empty() {
        let (out, total) = with_scope(|s| single_pass_scan(s, &[]));
        assert!(out.is_empty());
        assert_eq!(total, 0);
    }

    #[test]
    fn single_pass_charges_no_grid_syncs_and_less_traffic() {
        let g = Gpu::new(DeviceSpec::test_part());
        g.launch("two_level", GridDim::new(1, 32), |s| {
            let _ = exclusive_scan(s, &vec![1u64; 100_000]);
        });
        g.launch("single_pass", GridDim::new(1, 32), |s| {
            let _ = single_pass_scan(s, &vec![1u64; 100_000]);
        });
        let c = g.clock();
        let two = &c.records()[0].traffic;
        let one = &c.records()[1].traffic;
        assert_eq!(two.grid_syncs, 2);
        assert_eq!(one.grid_syncs, 0);
        assert_eq!(one.read_coalesced, 100_000 * 8);
        assert_eq!(one.write_coalesced, 100_000 * 8);
        assert!(one.logical_dram_bytes() < two.logical_dram_bytes());
    }

    #[test]
    fn scan_accounts_traffic() {
        let g = Gpu::new(DeviceSpec::test_part());
        g.launch("scan", GridDim::new(1, 32), |s| {
            let _ = exclusive_scan(s, &vec![1u64; 1000]);
        });
        let c = g.clock();
        let t = &c.records()[0].traffic;
        assert_eq!(t.read_coalesced, 2 * 8000);
        assert_eq!(t.write_coalesced, 2 * 8000);
    }
}
