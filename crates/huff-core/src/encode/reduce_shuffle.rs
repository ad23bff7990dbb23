//! The complete `ReduceShuffleMerge<M, r>` encoder (Section IV-C-c).
//!
//! Per chunk of `N = 2^M` symbols: REDUCE-merge folds `2^r` codewords per
//! unit (breaking units are filtered into the sparse sidecar), SHUFFLE-merge
//! densifies the `2^s` units into a contiguous bitstream, and the
//! coalescing-copy stage concatenates chunk substreams at bit offsets
//! computed by a prefix sum over the blockwise code lengths.
//!
//! Breaking-point strategies (the paper's future work is the second):
//! * [`BreakingStrategy::SparseSidecar`] — the paper's approach: filter the
//!   unit out (it contributes zero bits) and store its raw symbols
//!   out-of-band via dense-to-sparse conversion.
//! * [`BreakingStrategy::WidenWord`] — re-encode the *whole chunk* with a
//!   64-bit representative word, halving the reduce parallelism for that
//!   chunk but keeping every codeword in-band.

use super::reduce_merge::reduce_chunk;
use super::shuffle_merge::{shuffle_chunk, ShuffleStats};
use super::{ChunkedStream, MergeConfig, Word};
use crate::bitstream::BitWriter;
use crate::codebook::CanonicalCodebook;
use crate::error::Result;
use crate::sparse::SparseOutliers;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// How to handle units whose merged codeword exceeds the word width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum BreakingStrategy {
    /// Filter breaking units out and store raw symbols sparsely (paper).
    #[default]
    SparseSidecar,
    /// Re-encode affected chunks with a 64-bit word (future-work ablation).
    WidenWord,
}

/// One encoded chunk before coalescing.
///
/// Borrows the input: breaking units reference their raw symbols in place
/// rather than cloning them (the backtrace kernel touches every unit, so a
/// per-unit allocation here was measurable on low-entropy inputs).
#[derive(Debug, Clone)]
pub struct EncodedChunk<'a> {
    /// Dense payload words (u32), left-aligned.
    pub words: Vec<u32>,
    /// Payload bits.
    pub bit_len: u64,
    /// Local breaking-unit indices with their raw symbols, borrowed from
    /// the chunk's input slice.
    pub breaking: Vec<(u32, &'a [u16])>,
    /// Shuffle statistics (for the cost model).
    pub shuffle: ShuffleStats,
}

/// Encode one chunk with word type `W`. `symbols.len() <= 2^M`.
pub fn encode_chunk<'a, W: Word>(
    symbols: &'a [u16],
    book: &CanonicalCodebook,
    config: MergeConfig,
) -> EncodedChunk<'a> {
    let (words_w, mut lens, breaking_idx) = reduce_chunk::<W>(symbols, book, config.reduction);
    // Pad the unit arrays to the power-of-two cell count SHUFFLE needs.
    let cells = words_w.len().next_power_of_two().max(2);
    let mut words = vec![W::ZERO; cells];
    words[..words_w.len()].copy_from_slice(&words_w);
    lens.resize(cells, 0);

    let (bit_len, shuffle) = shuffle_chunk::<W>(&mut words, &lens);

    // Repack into u32 payload cells regardless of W (the coalescing stage
    // and the decoder work on a single layout).
    let words32: Vec<u32> = if W::BITS == 32 {
        words.iter().map(|w| w.to_u64() as u32).collect()
    } else {
        words
            .iter()
            .flat_map(|w| {
                let v = w.to_u64();
                [(v >> 32) as u32, v as u32]
            })
            .collect()
    };

    let unit_size = config.unit_symbols();
    let breaking = breaking_idx
        .into_iter()
        .map(|u| {
            let lo = u as usize * unit_size;
            let hi = (lo + unit_size).min(symbols.len());
            (u, &symbols[lo..hi])
        })
        .collect();

    EncodedChunk { words: words32, bit_len, breaking, shuffle }
}

/// Encode `symbols` into a [`ChunkedStream`] using the reduce-shuffle
/// scheme. Chunks are processed in parallel (each maps to a thread block on
/// the device); the final coalescing pass concatenates them at bit offsets.
pub fn encode(
    symbols: &[u16],
    book: &CanonicalCodebook,
    config: MergeConfig,
    strategy: BreakingStrategy,
) -> Result<ChunkedStream> {
    assemble(symbols.len(), &encode_chunks(symbols, book, config, strategy), config)
}

/// Reduce and shuffle every chunk of `symbols` in parallel, applying
/// `strategy` to chunks with breaking units.
pub fn encode_chunks<'a>(
    symbols: &'a [u16],
    book: &CanonicalCodebook,
    config: MergeConfig,
    strategy: BreakingStrategy,
) -> Vec<EncodedChunk<'a>> {
    symbols
        .par_chunks(config.chunk_symbols().max(1))
        .map(|c| {
            let first = encode_chunk::<u32>(c, book, config);
            match strategy {
                BreakingStrategy::SparseSidecar => first,
                BreakingStrategy::WidenWord if first.breaking.is_empty() => first,
                BreakingStrategy::WidenWord => encode_chunk::<u64>(c, book, config),
            }
        })
        .collect()
}

/// Coalesce per-chunk payloads into the final stream ("get blockwise code
/// len" → prefix sum → "coalescing copy" in Table I).
pub fn assemble(
    num_symbols: usize,
    chunks: &[EncodedChunk<'_>],
    config: MergeConfig,
) -> Result<ChunkedStream> {
    let chunk_bit_lens: Vec<u64> = chunks.iter().map(|c| c.bit_len).collect();
    let mut chunk_bit_offsets = Vec::with_capacity(chunks.len());
    let mut acc = 0u64;
    for &l in &chunk_bit_lens {
        chunk_bit_offsets.push(acc);
        acc += l;
    }
    let total_bits = acc;

    let mut writer = BitWriter::with_capacity_bits(total_bits as usize);
    for c in chunks {
        let mut remaining = c.bit_len;
        for &w in &c.words {
            if remaining == 0 {
                break;
            }
            let take = remaining.min(32) as u32;
            writer.push_bits(u64::from(w) >> (32 - take), take);
            remaining -= u64::from(take);
        }
    }
    let (bytes, written) = writer.finish();
    debug_assert_eq!(written, total_bits);

    let units_per_chunk = config.units_per_chunk() as u64;
    let mut outliers = SparseOutliers::new();
    for (ci, c) in chunks.iter().enumerate() {
        for (u, syms) in &c.breaking {
            outliers.push(ci as u64 * units_per_chunk + u64::from(*u), syms);
        }
    }

    Ok(ChunkedStream {
        config,
        bytes,
        chunk_bit_lens,
        chunk_bit_offsets,
        total_bits,
        num_symbols,
        outliers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codebook;
    use crate::decode;

    fn book4() -> CanonicalCodebook {
        codebook::parallel(&[8, 4, 2, 2], 2).unwrap()
    }

    fn symbols(n: usize) -> Vec<u16> {
        // Distribution roughly matching the codebook's freqs 8:4:2:2.
        (0..n)
            .map(|i| {
                let x = (i as u64).wrapping_mul(2654435761) % 16;
                match x {
                    0..=7 => 0u16,
                    8..=11 => 1,
                    12..=13 => 2,
                    _ => 3,
                }
            })
            .collect()
    }

    #[test]
    fn stream_bits_match_serial_concatenation() {
        let b = book4();
        let syms = symbols(5000);
        let stream =
            encode(&syms, &b, MergeConfig::new(8, 2), BreakingStrategy::SparseSidecar).unwrap();
        assert!(stream.outliers.is_empty());
        // Serial reference: concatenate every codeword.
        let serial = super::super::serial::encode(&syms, &b).unwrap();
        assert_eq!(stream.total_bits, serial.bit_len);
        assert_eq!(stream.bytes, serial.bytes);
    }

    #[test]
    fn roundtrip_via_chunked_decoder() {
        let b = book4();
        let syms = symbols(3000);
        for (m, r) in [(8, 2), (10, 3), (6, 1), (10, 4)] {
            let stream =
                encode(&syms, &b, MergeConfig::new(m, r), BreakingStrategy::SparseSidecar).unwrap();
            let decoded = decode::chunked::decode(&stream, &b).unwrap();
            assert_eq!(decoded, syms, "M={m} r={r}");
        }
    }

    #[test]
    fn partial_tail_chunk_roundtrips() {
        let b = book4();
        for n in [1usize, 7, 255, 256, 257, 1023] {
            let syms = symbols(n);
            let stream =
                encode(&syms, &b, MergeConfig::new(8, 2), BreakingStrategy::SparseSidecar).unwrap();
            let decoded = decode::chunked::decode(&stream, &b).unwrap();
            assert_eq!(decoded, syms, "n={n}");
        }
    }

    #[test]
    fn empty_input() {
        let b = book4();
        let stream =
            encode(&[], &b, MergeConfig::default(), BreakingStrategy::SparseSidecar).unwrap();
        assert_eq!(stream.total_bits, 0);
        assert_eq!(stream.num_chunks(), 0);
        let decoded = decode::chunked::decode(&stream, &b).unwrap();
        assert!(decoded.is_empty());
    }

    fn skewed_book() -> (CanonicalCodebook, Vec<u16>) {
        // Codeword lengths 1..12 (complete code): a burst of four 12-bit
        // codes inside a 16-symbol unit gives 4*12 + 12*1 = 60 bits —
        // breaking a u32 word but fitting a u64 one.
        let lengths = [1u32, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 12];
        let book = CanonicalCodebook::from_lengths(&lengths).unwrap();
        let syms: Vec<u16> = (0..4096usize).map(|i| if i % 512 < 4 { 12u16 } else { 0 }).collect();
        (book, syms)
    }

    #[test]
    fn breaking_units_roundtrip_via_sidecar() {
        let (book, syms) = skewed_book();
        assert_eq!(book.code(12).len(), 12);
        let stream =
            encode(&syms, &book, MergeConfig::new(8, 4), BreakingStrategy::SparseSidecar).unwrap();
        assert!(!stream.outliers.is_empty(), "expected breaking units");
        assert!(stream.breaking_fraction() > 0.0);
        let decoded = decode::chunked::decode(&stream, &book).unwrap();
        assert_eq!(decoded, syms);
    }

    #[test]
    fn widen_word_strategy_avoids_sidecar() {
        let (book, syms) = skewed_book();
        let stream =
            encode(&syms, &book, MergeConfig::new(8, 4), BreakingStrategy::WidenWord).unwrap();
        assert!(stream.outliers.is_empty(), "wide word should absorb breaking units");
        let decoded = decode::chunked::decode(&stream, &book).unwrap();
        assert_eq!(decoded, syms);
    }

    #[test]
    fn compression_ratio_reflects_entropy() {
        let b = book4();
        let syms = symbols(100_000);
        let stream =
            encode(&syms, &b, MergeConfig::default(), BreakingStrategy::SparseSidecar).unwrap();
        let cr = stream.compression_ratio(16);
        // avg bits = 8/16*1 + 4/16*2 + 4/16*3 = 1.75 → ratio vs 16-bit raw ≈ 9.1.
        assert!(cr > 7.0 && cr < 10.0, "ratio {cr}");
    }

    #[test]
    fn offsets_are_prefix_sums() {
        let b = book4();
        let syms = symbols(4096);
        let stream =
            encode(&syms, &b, MergeConfig::new(8, 2), BreakingStrategy::SparseSidecar).unwrap();
        let mut acc = 0;
        for (off, len) in stream.chunk_bit_offsets.iter().zip(&stream.chunk_bit_lens) {
            assert_eq!(*off, acc);
            acc += len;
        }
        assert_eq!(acc, stream.total_bits);
    }
}
