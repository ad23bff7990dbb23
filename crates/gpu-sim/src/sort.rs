//! Device primitive: parallel sort — the Thrust stand-in.
//!
//! GenerateCL requires its input histogram sorted by ascending frequency
//! (Section IV-B1: "the histogram is sorted in ascending order using
//! Thrust. This operation is low-cost, as n is relatively small"). We sort
//! on the host with rayon and charge a 4-pass LSD radix sort's traffic.

use crate::exec::KernelScope;
use crate::traffic::{Access, Traffic};
use rayon::prelude::*;

/// Sort `(key, value)` pairs by ascending key, stably, accounting the
/// traffic of a 4-pass radix sort over `keys.len()` elements.
pub fn sort_pairs_by_key<K, V>(scope: &mut KernelScope, pairs: &mut [(K, V)])
where
    K: Ord + Send + Sync,
    V: Send,
{
    pairs.par_sort_by(|a, b| a.0.cmp(&b.0));
    account(scope, pairs.len(), std::mem::size_of::<(K, V)>() as u64);
}

/// Sort a key slice ascending.
pub fn sort_keys<K: Ord + Send>(scope: &mut KernelScope, keys: &mut [K]) {
    keys.par_sort_unstable();
    account(scope, keys.len(), std::mem::size_of::<K>() as u64);
}

fn account(scope: &mut KernelScope, n: usize, elem_bytes: u64) {
    scope.traffic().absorb(&ledger(n as u64, elem_bytes));
}

/// The traffic of a 4-pass LSD radix sort over `n` elements of
/// `elem_bytes` bytes each.
pub fn ledger(n: u64, elem_bytes: u64) -> Traffic {
    const RADIX_PASSES: u64 = 4;
    let mut t = Traffic::new();
    t.read(Access::Coalesced, RADIX_PASSES * n, elem_bytes);
    // Scatter phase of each pass is data-dependent but bucketed; charge half
    // coalesced, half strided.
    t.write(Access::Coalesced, RADIX_PASSES * n / 2, elem_bytes);
    t.write(Access::Strided, RADIX_PASSES * n / 2, elem_bytes);
    t.ops(RADIX_PASSES * 2 * n);
    t.grid_sync();
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceSpec;
    use crate::exec::Gpu;
    use crate::grid::GridDim;

    fn with_scope<R>(f: impl FnOnce(&mut KernelScope) -> R) -> R {
        let g = Gpu::new(DeviceSpec::test_part());
        g.launch("sort_test", GridDim::new(1, 32), f)
    }

    #[test]
    fn sorts_pairs_ascending_by_key() {
        let mut p = vec![(5u64, 'a'), (1, 'b'), (3, 'c')];
        with_scope(|s| sort_pairs_by_key(s, &mut p));
        assert_eq!(p, vec![(1, 'b'), (3, 'c'), (5, 'a')]);
    }

    #[test]
    fn stable_for_equal_keys() {
        let mut p = vec![(1u32, 0usize), (1, 1), (0, 2), (1, 3)];
        with_scope(|s| sort_pairs_by_key(s, &mut p));
        assert_eq!(p, vec![(0, 2), (1, 0), (1, 1), (1, 3)]);
    }

    #[test]
    fn sorts_keys() {
        let mut k = vec![9u16, 2, 7, 2];
        with_scope(|s| sort_keys(s, &mut k));
        assert_eq!(k, vec![2, 2, 7, 9]);
    }

    #[test]
    fn sort_is_cheap_relative_to_data_size() {
        // Paper: sorting the n-symbol histogram is low-cost vs the input.
        let g = Gpu::new(DeviceSpec::v100());
        g.launch("sort", GridDim::new(1, 32), |s| {
            let mut pairs: Vec<(u64, u32)> = (0..1024u64).rev().map(|i| (i, i as u32)).collect();
            sort_pairs_by_key(s, &mut pairs);
        });
        assert!(g.elapsed() < 100.0e-6, "sort of 1024 keys modeled {} s", g.elapsed());
    }
}
