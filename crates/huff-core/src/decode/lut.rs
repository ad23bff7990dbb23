//! Second-generation decoder: multi-bit LUT decoding with subchunk
//! self-synchronization (the gap array).
//!
//! A bit-serial decoder ([`super::canonical`]) consumes one bit per
//! `First`/`Entry` probe, so a symbol costs `code-length` dependent
//! steps. Rivera et al. 2022 ("Optimizing Huffman Decoding for
//! Error-Bounded Lossy Compression on GPUs", the companion to the source
//! paper) replace that walk with two ideas this module reproduces:
//!
//! 1. **Decode LUT** ([`DecodeLut`]): a table indexed by the next
//!    `L = min(max_len, 12)` stream bits whose entry yields the decoded
//!    symbol *and* the consumed codeword length in one probe. Codewords
//!    longer than `L` bits hit a slow-path marker and fall back to the
//!    bit-serial walk — rare by construction, since canonical Huffman
//!    assigns short codes to frequent symbols.
//! 2. **Subchunk gap array**: each chunk's payload is cut into fixed-width
//!    bit subsequences. Huffman streams self-synchronize: stepping
//!    codeword lengths from *any* correct boundary reaches the next
//!    subsequence's first boundary (its *gap*). A sync pass iterates that
//!    propagation to a fixed point — after pass `k` the first `k+1` gaps
//!    are exact, so it settles in at most `n_sub` passes (typically 1–2) —
//!    then every subsequence decodes independently and a compaction pass
//!    concatenates the outputs.
//!
//! Both are *device* designs: they are what the modeled kernels in
//! [`super::gpu`] are charged for. On the host, every backend's bytes
//! come from the one chunked routine ([`super::chunked`]), since each
//! chunk already starts at a known offset. What this module runs on the
//! host is the count walk `gap_stats`: the sync pass above, stepping
//! codewords with the shared multi-symbol loop (`decode::multi`) into one
//! scratch buffer and keeping only the [`GapStats`] counters the LUT
//! kernels are priced from. The walks step exactly the codewords a
//! one-symbol probe would, so the counters are those of the algorithm.
//!
//! Neither structure is serialized: both derive deterministically from the
//! archive's codeword lengths (see FORMAT.md § "Decode LUT and gap
//! array").

use super::chunked;
use super::multi::MultiLut;
use crate::bitstream::BitReader;
use crate::codebook::CanonicalCodebook;
use crate::encode::ChunkedStream;
use crate::error::{HuffError, Result};

/// Default LUT index width: the paper's `L = min(max_len, 12)`.
pub const DEFAULT_LUT_BITS: u32 = 12;

/// Default subsequence width in bits for the gap-array sync pass.
pub const DEFAULT_SUBCHUNK_BITS: u64 = 256;

/// Hard cap on the LUT index width (a 2^24-entry table is 64 MiB; wider
/// tables stop fitting anything resembling on-chip memory).
const MAX_LUT_BITS: u32 = 24;

/// Multi-bit decode table: `1 << bits` entries, each packing a symbol in
/// the low 16 bits and the consumed codeword length in bits 16..24. A zero
/// length marks the slow path (codeword longer than the table index).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeLut {
    bits: u32,
    entries: Vec<u32>,
}

impl DecodeLut {
    /// Build the table for `book` over the next `min(max_len, max_bits)`
    /// stream bits. Every codeword of length `l <= bits` fills the
    /// `2^(bits-l)` indices sharing its prefix; prefix-freeness guarantees
    /// the ranges never overlap.
    pub fn build(book: &CanonicalCodebook, max_bits: u32) -> Self {
        let bits = book.max_len().min(max_bits).clamp(1, MAX_LUT_BITS);
        let mut entries = vec![0u32; 1usize << bits];
        let (first, entry, count, rev) = (book.first(), book.entry(), book.count(), book.reverse());
        for l in 1..=bits {
            let li = l as usize;
            if li >= count.len() {
                break;
            }
            for k in 0..u64::from(count[li]) {
                let code = first[li] + k;
                let sym = rev[entry[li] as usize + k as usize];
                let lo = (code << (bits - l)) as usize;
                let hi = ((code + 1) << (bits - l)) as usize;
                entries[lo..hi].fill((l << 16) | u32::from(sym));
            }
        }
        DecodeLut { bits, entries }
    }

    /// The index width `L` in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Table footprint in bytes (4 bytes per entry) — what a kernel would
    /// stage into shared memory.
    pub fn table_bytes(&self) -> u64 {
        self.entries.len() as u64 * 4
    }

    /// Probe the table with an `L`-bit MSB-aligned window. Returns the
    /// symbol and consumed length, or `None` for the slow path.
    pub fn lookup(&self, window: u64) -> Option<(u16, u32)> {
        let e = self.entries[window as usize];
        let len = e >> 16;
        if len == 0 {
            None
        } else {
            Some((e as u16, len))
        }
    }
}

/// Subchunk geometry for the gap-array sync pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubchunkConfig {
    /// Subsequence width in bits. Smaller widths expose more parallelism
    /// per chunk but lengthen the sync fixpoint; zero is treated as 1.
    pub width_bits: u64,
}

impl Default for SubchunkConfig {
    fn default() -> Self {
        SubchunkConfig { width_bits: DEFAULT_SUBCHUNK_BITS }
    }
}

/// Work counters of a gap-array decode, aggregated over chunks. These
/// feed the GPU traffic model ([`super::gpu`]): the sync pass is charged
/// by `sync_steps` (divergent strided walks), the decode pass by
/// `decoded_symbols` (coalesced LUT probes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GapStats {
    /// Total subsequences across all chunks.
    pub subsequences: u64,
    /// Worst-case sync passes any chunk needed (block-level barriers).
    pub max_sync_passes: u64,
    /// Codeword-length steps performed across all sync passes.
    pub sync_steps: u64,
    /// Coded (non-outlier) symbols decoded in the decode pass.
    pub decoded_symbols: u64,
}

impl GapStats {
    /// Analytic estimate for a stream when measured counters are not
    /// available (the best-effort kernel, where damaged chunks skip
    /// decoding but the model keeps the undamaged-shape cost — same
    /// convention as the bit-serial kernel).
    pub fn estimate(stream: &ChunkedStream, cfg: SubchunkConfig) -> GapStats {
        let w = cfg.width_bits.max(1);
        let n = stream.num_symbols as u64;
        GapStats {
            subsequences: stream.chunk_bit_lens.iter().map(|&l| l.div_ceil(w)).sum(),
            max_sync_passes: 2,
            sync_steps: n,
            decoded_symbols: n,
        }
    }
}

/// Walk codeword lengths from a candidate boundary `gap` until the first
/// boundary at or past `end`, decoding into `scratch`. Returns the exit
/// and how many codewords the walk stepped, or `None` when the
/// speculative walk fails (a wrong guess landed mid-codeword on garbage)
/// — corrected by a later pass once the left neighbor's gap is exact.
/// Every codeword stepped counts in `sync_steps`, the one that fails
/// included.
fn sync_exit(
    mut reader: BitReader<'_>,
    gap: u64,
    end: u64,
    table: &MultiLut<'_>,
    scratch: &mut [u16],
    stats: &mut GapStats,
) -> Option<(u64, usize)> {
    if gap >= end {
        return Some((gap, 0));
    }
    reader.skip(gap).ok()?;
    let (steps, walked) = table.decode(&mut reader, end, scratch);
    stats.sync_steps += steps as u64 + u64::from(walked.is_err());
    walked.ok().map(|()| (reader.position(), steps))
}

/// The sync pass over the payload bit span `[off, off + len)` of one
/// chunk, adding its counters to `stats`.
fn span_stats(
    reader: BitReader<'_>,
    off: u64,
    len: u64,
    table: &MultiLut<'_>,
    w: u64,
    scratch: &mut [u16],
    stats: &mut GapStats,
) -> Result<()> {
    if len == 0 {
        return Ok(());
    }
    let end_bits = off + len;
    let n_sub = usize::try_from(len.div_ceil(w))
        .map_err(|_| HuffError::CorruptStream("subsequence count overflows"))?;
    stats.subsequences += n_sub as u64;
    let sub_start = |i: usize| off + i as u64 * w;
    let sub_end = |i: usize| (sub_start(i) + w).min(end_bits);

    // gaps[0] = off is correct by construction; each pass re-walks the
    // subsequences whose gap changed and proposes the exit as the next
    // subsequence's gap. After pass k the first k+1 gaps are exact
    // (induction on the chunk's real boundary chain), so the fixpoint
    // arrives in at most n_sub passes; the cap turns a non-converging
    // stream into an error instead of a loop. A walk from a gap at or
    // past its subsequence's start steps at most one codeword per bit up
    // to its end, so a scratch slice as wide as the subsequence never
    // fills early.
    let mut gaps: Vec<u64> = (0..n_sub).map(sub_start).collect();
    let mut exits: Vec<Option<(u64, usize)>> = vec![None; n_sub];
    let mut dirty = vec![true; n_sub];
    let mut passes = 0u64;
    loop {
        for i in 0..n_sub {
            if std::mem::take(&mut dirty[i]) {
                let slot = &mut scratch[..(sub_end(i) - sub_start(i)) as usize];
                exits[i] = sync_exit(reader.clone(), gaps[i], sub_end(i), table, slot, stats);
            }
        }
        passes += 1;
        let mut changed = false;
        for i in 0..n_sub - 1 {
            // A failed speculative walk proposes the subsequence boundary
            // itself until a later pass corrects it.
            let proposal = exits[i].map_or_else(|| sub_end(i), |(exit, _)| exit);
            if gaps[i + 1] != proposal {
                gaps[i + 1] = proposal;
                dirty[i + 1] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
        if passes > n_sub as u64 {
            return Err(HuffError::CorruptStream("subchunk synchronization did not converge"));
        }
    }
    stats.max_sync_passes = stats.max_sync_passes.max(passes);
    // The settled walks are the decode pass: each subsequence decodes
    // the codewords starting in [gap, sub_end).
    for exit in exits {
        let (_, count) = exit.ok_or(HuffError::CorruptStream("subsequence walk failed"))?;
        stats.decoded_symbols += count as u64;
    }
    Ok(())
}

/// The gap-array work counters of `stream`: the sync pass over every
/// chunk, counted but not decoded. One scratch buffer, as wide as a
/// subsequence, takes every walk's codewords. Errors when a chunk span
/// lies past the payload or a settled walk fails; the symbols themselves
/// come from [`chunked::decode`].
pub(crate) fn gap_stats(
    stream: &ChunkedStream,
    table: &MultiLut<'_>,
    cfg: SubchunkConfig,
) -> Result<GapStats> {
    let w = cfg.width_bits.max(1);
    let limit = chunked::readable_bits(stream);
    let widest = stream.chunk_bit_lens.iter().copied().max().unwrap_or(0).min(w).min(limit);
    let mut scratch = vec![0u16; widest as usize];
    let mut stats = GapStats::default();
    for (&off, &len) in stream.chunk_bit_offsets.iter().zip(&stream.chunk_bit_lens) {
        if off.checked_add(len).is_none_or(|e| e > limit) {
            return Err(HuffError::CorruptStream("chunk span beyond payload"));
        }
        // Each walk reads no further than its chunk's end, so a
        // speculative walk fails there instead of running on.
        let reader = BitReader::new(&stream.bytes, off + len);
        span_stats(reader, off, len, table, w, &mut scratch, &mut stats)?;
    }
    Ok(stats)
}

/// Decode with explicit LUT and subchunk geometry, returning the work
/// counters alongside the symbols. The symbols come from the chunked
/// routine every backend shares; the counters from `gap_stats`, whose
/// walks probe a multi-symbol table of the LUT's index width (at most
/// [`DEFAULT_LUT_BITS`]). The counters do not depend on that width.
pub fn decode_with(
    stream: &ChunkedStream,
    book: &CanonicalCodebook,
    lut: &DecodeLut,
    cfg: SubchunkConfig,
) -> Result<(Vec<u16>, GapStats)> {
    let symbols = chunked::decode(stream, book)?;
    let stats = gap_stats(stream, &MultiLut::new(book, lut.bits()), cfg)?;
    Ok((symbols, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codebook;
    use crate::decode::{decode_stream_best_effort, DecoderKind};
    use crate::encode::{reduce_shuffle, BreakingStrategy, MergeConfig};

    fn stream_and_book(n: usize) -> (ChunkedStream, CanonicalCodebook, Vec<u16>) {
        let freqs = [97u64, 53, 31, 17, 11, 7, 5, 3];
        let book = codebook::parallel(&freqs, 4).unwrap();
        let syms: Vec<u16> =
            (0..n).map(|i| ((i as u64).wrapping_mul(48271) >> 7) as u16 % 8).collect();
        let stream = reduce_shuffle::encode(
            &syms,
            &book,
            MergeConfig::new(9, 2),
            BreakingStrategy::SparseSidecar,
        )
        .unwrap();
        (stream, book, syms)
    }

    /// The strict LUT-kind decode: the chunked routine plus the count
    /// walk.
    fn decode(stream: &ChunkedStream, book: &CanonicalCodebook) -> Result<Vec<u16>> {
        let lut = DecodeLut::build(book, DEFAULT_LUT_BITS);
        decode_with(stream, book, &lut, SubchunkConfig::default()).map(|(s, _)| s)
    }

    fn walk(stream: &ChunkedStream, book: &CanonicalCodebook) -> Result<GapStats> {
        gap_stats(stream, &MultiLut::new(book, DEFAULT_LUT_BITS), SubchunkConfig::default())
    }

    #[test]
    fn lut_entries_cover_short_codes() {
        // Lengths (1, 2, 2): codes 0, 10, 11.
        let book = CanonicalCodebook::from_lengths(&[1, 2, 2]).unwrap();
        let lut = DecodeLut::build(&book, 12);
        assert_eq!(lut.bits(), 2); // min(max_len, 12)
        assert_eq!(lut.lookup(0b00), Some((0, 1)));
        assert_eq!(lut.lookup(0b01), Some((0, 1)));
        assert_eq!(lut.lookup(0b10), Some((1, 2)));
        assert_eq!(lut.lookup(0b11), Some((2, 2)));
        assert_eq!(lut.table_bytes(), 16);
    }

    #[test]
    fn long_codes_hit_slow_path_marker() {
        // An incomplete codebook leaves unassigned windows at zero.
        let book = CanonicalCodebook::from_lengths(&[2, 2, 2]).unwrap();
        let lut = DecodeLut::build(&book, 12);
        assert_eq!(lut.bits(), 2);
        assert_eq!(lut.lookup(0b11), None);
    }

    #[test]
    fn lut_decode_matches_chunked() {
        let (stream, book, syms) = stream_and_book(20_000);
        assert_eq!(decode(&stream, &book).unwrap(), syms);
        assert_eq!(decode(&stream, &book).unwrap(), chunked::decode(&stream, &book).unwrap());
    }

    #[test]
    fn subchunk_widths_all_agree() {
        let (stream, book, syms) = stream_and_book(6_000);
        let lut = DecodeLut::build(&book, DEFAULT_LUT_BITS);
        for width_bits in [1u64, 7, 32, 64, 256, 1 << 20] {
            let cfg = SubchunkConfig { width_bits };
            let (out, stats) = decode_with(&stream, &book, &lut, cfg).unwrap();
            assert_eq!(out, syms, "width {width_bits}");
            assert!(stats.max_sync_passes >= 1);
            assert!(stats.decoded_symbols > 0);
        }
    }

    #[test]
    fn narrow_lut_exercises_slow_path() {
        let (stream, book, syms) = stream_and_book(6_000);
        // max_len here exceeds 1 bit, so a 1-bit LUT forces the serial
        // fall-back for most symbols.
        let lut = DecodeLut::build(&book, 1);
        let (out, _) = decode_with(&stream, &book, &lut, SubchunkConfig::default()).unwrap();
        assert_eq!(out, syms);
    }

    #[test]
    fn deep_codebook_beyond_lut_roundtrips() {
        // 30-bit codewords: far past the 12-bit table, all slow path.
        let lengths: Vec<u32> = (1..=30).chain([30]).collect();
        let book = CanonicalCodebook::from_lengths(&lengths).unwrap();
        let syms: Vec<u16> = (0..2_000).map(|i| (i % 31) as u16).collect();
        let stream = reduce_shuffle::encode(
            &syms,
            &book,
            MergeConfig::new(8, 2),
            BreakingStrategy::SparseSidecar,
        )
        .unwrap();
        assert_eq!(decode(&stream, &book).unwrap(), syms);
    }

    #[test]
    fn single_nonzero_symbol_stream_decodes() {
        let book = codebook::parallel(&[0, 9, 0], 2).unwrap();
        let syms = vec![1u16; 5_000];
        let stream = reduce_shuffle::encode(
            &syms,
            &book,
            MergeConfig::new(8, 2),
            BreakingStrategy::SparseSidecar,
        )
        .unwrap();
        assert_eq!(decode(&stream, &book).unwrap(), syms);
    }

    #[test]
    fn all_equal_frequencies_at_lut_boundary() {
        // 4096 equally-frequent symbols -> complete 12-bit code, exactly
        // the table width; every window is a direct hit. 8192 symbols ->
        // 13-bit codes, every probe takes the slow path. Both roundtrip.
        for (n_syms, data_len) in [(4096usize, 8_000usize), (8192, 4_000)] {
            let lengths = vec![n_syms.trailing_zeros(); n_syms];
            let book = CanonicalCodebook::from_lengths(&lengths).unwrap();
            let syms: Vec<u16> =
                (0..data_len).map(|i| ((i * 2654435761) % n_syms) as u16).collect();
            let stream = reduce_shuffle::encode(
                &syms,
                &book,
                MergeConfig::new(9, 3),
                BreakingStrategy::SparseSidecar,
            )
            .unwrap();
            assert_eq!(decode(&stream, &book).unwrap(), syms, "{n_syms} symbols");
        }
    }

    #[test]
    fn header_count_exceeding_encoded_symbols_errors() {
        let (mut stream, book, syms) = stream_and_book(4_000);
        stream.num_symbols = syms.len() + stream.config.chunk_symbols();
        stream.chunk_bit_lens.push(0);
        stream.chunk_bit_offsets.push(stream.total_bits);
        assert!(matches!(decode(&stream, &book), Err(HuffError::CorruptStream(_))));
    }

    #[test]
    fn corrupt_chunk_span_errors_not_panics() {
        let (mut stream, book, _) = stream_and_book(4_000);
        if let Some(o) = stream.chunk_bit_offsets.first_mut() {
            *o = stream.total_bits + 100;
        }
        assert!(decode(&stream, &book).is_err());
        assert!(walk(&stream, &book).is_err());
    }

    #[test]
    fn truncated_payload_is_an_error_in_decode_and_walk() {
        // Physically truncate the payload while leaving the chunk table
        // intact: the decode and the count walk each return a structured
        // error instead of panicking in the bit reader.
        let (mut stream, book, _) = stream_and_book(20_000);
        assert!(stream.num_chunks() >= 3);
        let keep = stream.bytes.len() / 2;
        stream.bytes.truncate(keep);
        assert!(matches!(decode(&stream, &book), Err(HuffError::CorruptStream(_))));
        assert!(matches!(walk(&stream, &book), Err(HuffError::CorruptStream(_))));
    }

    #[test]
    fn misrecorded_chunk_length_fails_the_walk_not_the_decode() {
        // Shrink a chunk's recorded bit length so its span ends inside a
        // codeword. The symbols come from the chunk offsets, which still
        // hold. The walk reads no further than the recorded span, so its
        // last subsequence fails on the cut codeword: a structured error,
        // never a loop or a panic.
        let (mut stream, book, syms) = stream_and_book(20_000);
        let l = stream.chunk_bit_lens[1];
        stream.chunk_bit_lens[1] = l / 3 + 1;
        assert_eq!(chunked::decode(&stream, &book).unwrap(), syms);
        assert!(matches!(walk(&stream, &book), Err(HuffError::CorruptStream(_))));
    }

    #[test]
    fn best_effort_matches_chunked_best_effort() {
        let (stream, book, _) = stream_and_book(20_000);
        let n = stream.num_chunks();
        assert!(n >= 3);
        let mut damaged = vec![false; n];
        damaged[1] = true;
        let lut_out = decode_stream_best_effort(&stream, &book, &damaged, 0xDEAD, DecoderKind::Lut);
        let chk_out = chunked::decode_best_effort(&stream, &book, &damaged, 0xDEAD);
        assert_eq!(lut_out, chk_out);
    }

    #[test]
    fn empty_stream_decodes_empty() {
        let book = codebook::parallel(&[3, 1], 2).unwrap();
        let stream = reduce_shuffle::encode(
            &[],
            &book,
            MergeConfig::default(),
            BreakingStrategy::SparseSidecar,
        )
        .unwrap();
        assert!(decode(&stream, &book).unwrap().is_empty());
    }

    #[test]
    fn stats_count_real_work() {
        let (stream, book, syms) = stream_and_book(10_000);
        let lut = DecodeLut::build(&book, DEFAULT_LUT_BITS);
        let (out, stats) = decode_with(&stream, &book, &lut, SubchunkConfig::default()).unwrap();
        assert_eq!(out, syms);
        // Every coded symbol is stepped at least once during sync and
        // decoded exactly once.
        assert!(stats.decoded_symbols <= syms.len() as u64);
        assert!(stats.sync_steps >= stats.decoded_symbols);
        assert!(stats.subsequences >= stream.num_chunks() as u64);
        let est = GapStats::estimate(&stream, SubchunkConfig::default());
        assert_eq!(est.subsequences, stats.subsequences);
    }
}
