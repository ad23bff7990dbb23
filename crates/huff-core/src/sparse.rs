//! Dense-to-sparse storage for breaking units — the cuSPARSE substitute.
//!
//! A *breaking* unit is a run of `2^r` symbols whose merged codeword
//! exceeds the representative word width (Section IV-C). The paper filters
//! them out with a cheap reduction ("backtrace the breaking points ...
//! about 300 us") and stores them via a cuSPARSE dense-to-sparse
//! conversion. Here the sparse structure stores, per breaking unit, its
//! global unit index and its raw symbols; the decoder splices them back in
//! at unit boundaries.

use serde::{Deserialize, Serialize};

/// Sparse sidecar of breaking units.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SparseOutliers {
    /// Global unit indices (chunk-major), strictly ascending.
    indices: Vec<u64>,
    /// CSR-style offsets into `symbols`: unit `k`'s raw symbols are
    /// `symbols[offsets[k]..offsets[k+1]]`.
    offsets: Vec<u32>,
    /// Concatenated raw symbols of all breaking units.
    symbols: Vec<u16>,
}

impl SparseOutliers {
    /// An empty sidecar.
    pub fn new() -> Self {
        SparseOutliers { indices: Vec::new(), offsets: vec![0], symbols: Vec::new() }
    }

    /// Build from per-unit records `(global_unit_index, raw_symbols)`,
    /// which must arrive in ascending index order.
    pub fn from_units(units: Vec<(u64, Vec<u16>)>) -> Self {
        let mut out = SparseOutliers::new();
        for (idx, syms) in units {
            out.push(idx, &syms);
        }
        out
    }

    /// Append one breaking unit.
    ///
    /// # Panics
    /// Panics if `index` is not strictly greater than the last stored one.
    pub fn push(&mut self, index: u64, raw_symbols: &[u16]) {
        if let Some(&last) = self.indices.last() {
            assert!(index > last, "outlier units must be pushed in ascending order");
        }
        self.indices.push(index);
        self.symbols.extend_from_slice(raw_symbols);
        self.offsets.push(self.symbols.len() as u32);
    }

    /// Number of breaking units.
    pub fn num_units(&self) -> usize {
        self.indices.len()
    }

    /// Total raw symbols stored.
    pub fn total_symbols(&self) -> usize {
        self.symbols.len()
    }

    /// True when no unit broke.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Iterate `(global_unit_index, symbols)`.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &[u16])> {
        self.iter_from(0)
    }

    /// Iterate `(global_unit_index, symbols)` from the first unit whose
    /// index is at least `start`: one binary search, then a walk. A
    /// decoder keeps this cursor across a chunk's units instead of
    /// searching per unit.
    pub fn iter_from(&self, start: u64) -> impl Iterator<Item = (u64, &[u16])> {
        let k0 = self.indices.partition_point(|&i| i < start);
        self.indices[k0..].iter().enumerate().map(move |(k, &idx)| {
            let k = k0 + k;
            (idx, &self.symbols[self.offsets[k] as usize..self.offsets[k + 1] as usize])
        })
    }

    /// Storage cost of the sidecar in bits (indices + offsets + raw
    /// symbols) — counted against the compression ratio.
    pub fn storage_bits(&self) -> u64 {
        (self.indices.len() as u64) * 64
            + (self.offsets.len() as u64) * 32
            + (self.symbols.len() as u64) * 16
    }

    /// Merge a list of per-chunk sidecars (ascending chunk order) into one.
    pub fn concat(parts: Vec<SparseOutliers>) -> Self {
        let mut out = SparseOutliers::new();
        for part in parts {
            for (idx, syms) in part.iter() {
                out.push(idx, syms);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_lookup() {
        let mut s = SparseOutliers::new();
        s.push(5, &[1, 2, 3]);
        s.push(9, &[4]);
        assert_eq!(s.iter_from(5).next(), Some((5, &[1u16, 2, 3][..])));
        assert_eq!(s.iter_from(9).next(), Some((9, &[4u16][..])));
        // No unit 7: a cursor from 7 starts at the next unit.
        assert_eq!(s.iter_from(7).next(), Some((9, &[4u16][..])));
        assert_eq!(s.iter_from(6).map(|(i, _)| i).collect::<Vec<_>>(), vec![9]);
        assert_eq!(s.iter_from(0).map(|(i, _)| i).collect::<Vec<_>>(), vec![5, 9]);
        assert_eq!(s.iter_from(10).next(), None);
        assert_eq!(s.num_units(), 2);
        assert_eq!(s.total_symbols(), 4);
    }

    #[test]
    #[should_panic(expected = "ascending order")]
    fn out_of_order_rejected() {
        let mut s = SparseOutliers::new();
        s.push(5, &[1]);
        s.push(5, &[2]);
    }

    #[test]
    fn empty_sidecar() {
        let s = SparseOutliers::new();
        assert!(s.is_empty());
        assert_eq!(s.iter_from(0).next(), None);
        assert_eq!(s.storage_bits(), 32); // the single base offset
    }

    #[test]
    fn from_units_and_iter() {
        let s = SparseOutliers::from_units(vec![(1, vec![7, 7]), (3, vec![8])]);
        let collected: Vec<(u64, Vec<u16>)> =
            s.iter().map(|(i, syms)| (i, syms.to_vec())).collect();
        assert_eq!(collected, vec![(1, vec![7, 7]), (3, vec![8])]);
    }

    #[test]
    fn concat_preserves_order() {
        let a = SparseOutliers::from_units(vec![(1, vec![1])]);
        let b = SparseOutliers::from_units(vec![(4, vec![2]), (6, vec![3])]);
        let c = SparseOutliers::concat(vec![a, b]);
        assert_eq!(c.num_units(), 3);
        assert_eq!(c.iter_from(2).next(), Some((4, &[2u16][..])));
    }

    #[test]
    fn storage_bits_accounting() {
        let s = SparseOutliers::from_units(vec![(0, vec![1, 2])]);
        assert_eq!(s.storage_bits(), 64 + 2 * 32 + 2 * 16);
    }
}
