//! Parallel per-chunk decoder for [`ChunkedStream`]s.
//!
//! Chunking exists exactly to "facilitate the reverse process, decoding"
//! (Section III-A): every chunk's bit offset is known from the prefix sum,
//! so chunks decode independently in parallel. Breaking units are spliced
//! back from the sparse sidecar at unit boundaries — a breaking unit
//! contributed zero bits to the chunk payload, and its raw symbols replace
//! the decode at that position.
//!
//! Chunk independence is also what makes *recovery* possible: when a
//! chunk's payload bytes are damaged (see [`crate::integrity`]), every
//! other chunk still decodes from its own offset. Best-effort decoding
//! ([`super::decode_stream_best_effort`]) exploits this — damaged chunks
//! are sentinel-filled (except their breaking units, whose raw symbols
//! live in the header sidecar and survive payload damage) while intact
//! chunks decode normally.
//!
//! This is the one host decode routine: strict ([`decode`]) and
//! best-effort, it produces the bytes of every [`super::DecoderKind`].
//! The kind picks only the kernels the modeled device is charged for
//! ([`super::gpu`]).

use super::lut::DEFAULT_LUT_BITS;
use super::multi::MultiLut;
use crate::bitstream::BitReader;
use crate::codebook::CanonicalCodebook;
use crate::encode::ChunkedStream;
use crate::error::{HuffError, Result};
use crate::integrity::RecoveryReport;
use rayon::prelude::*;

/// Chunk `ci`'s symbol count and its first global reduce-unit index.
fn chunk_geometry(stream: &ChunkedStream, ci: usize) -> (usize, u64) {
    let chunk_syms = stream.config.chunk_symbols();
    let sym_count = chunk_syms.min(stream.num_symbols.saturating_sub(ci * chunk_syms));
    (sym_count, ci as u64 * stream.config.units_per_chunk() as u64)
}

/// Lay out chunk `ci`'s symbols: breaking units come from the sidecar,
/// and `fill` supplies each run of coded symbols between them, in
/// stream order. One cursor walks the sidecar from the chunk's first
/// unit, so a chunk costs one binary search, not one per unit.
fn splice_chunk(
    stream: &ChunkedStream,
    ci: usize,
    mut fill: impl FnMut(&mut [u16]) -> Result<()>,
) -> Result<Vec<u16>> {
    let (sym_count, first_unit) = chunk_geometry(stream, ci);
    let unit_syms = stream.config.unit_symbols().max(1);
    let mut out = vec![0u16; sym_count];
    let mut done = 0;
    for (unit, raw) in stream.outliers.iter_from(first_unit) {
        let start =
            usize::try_from(unit - first_unit).map_or(usize::MAX, |u| u.saturating_mul(unit_syms));
        if start >= sym_count {
            break;
        }
        fill(&mut out[done..start])?;
        let end = sym_count.min(start + unit_syms);
        if raw.len() != end - start {
            return Err(HuffError::CorruptStream("outlier unit length mismatch"));
        }
        out[start..end].copy_from_slice(raw);
        done = end;
    }
    fill(&mut out[done..])?;
    Ok(out)
}

/// The payload bits a decode may read: the header's `total_bits`, or
/// fewer when a best-effort read of a truncated archive holds fewer
/// bytes. Chunks past the bytes are marked damaged and never decoded.
pub(crate) fn readable_bits(stream: &ChunkedStream) -> u64 {
    stream.total_bits.min(stream.bytes.len() as u64 * 8)
}

/// Decode chunk `ci` of `stream` to symbols.
fn decode_chunk(stream: &ChunkedStream, table: &MultiLut<'_>, ci: usize) -> Result<Vec<u16>> {
    let mut reader = BitReader::new(&stream.bytes, readable_bits(stream));
    reader.skip(stream.chunk_bit_offsets[ci])?;
    splice_chunk(stream, ci, |run| table.decode(&mut reader, u64::MAX, run).1)
}

/// Decode a chunked stream back to symbols: every chunk in parallel from
/// its own offset. This is the host decode of every [`DecoderKind`].
///
/// [`DecoderKind`]: super::DecoderKind
pub fn decode(stream: &ChunkedStream, book: &CanonicalCodebook) -> Result<Vec<u16>> {
    let table = MultiLut::new(book, DEFAULT_LUT_BITS);
    let parts: Vec<Result<Vec<u16>>> = (0..stream.num_chunks())
        .into_par_iter()
        .map(|ci| decode_chunk(stream, &table, ci))
        .collect();

    let mut out = Vec::with_capacity(stream.num_symbols);
    for p in parts {
        out.extend_from_slice(&p?);
    }
    if out.len() != stream.num_symbols {
        return Err(HuffError::CorruptStream("decoded count disagrees with header"));
    }
    Ok(out)
}

/// Decode every chunk not marked in `damaged` (and every marked chunk's
/// breaking units, which live in the header sidecar); sentinel-fill the
/// rest. Chunks whose decode fails despite a clean checksum — possible
/// under [`crate::integrity::Verify::None`] — are sentinel-filled too.
/// Never panics and never returns an error: the report says what was
/// lost.
pub(crate) fn decode_best_effort(
    stream: &ChunkedStream,
    book: &CanonicalCodebook,
    damaged: &[bool],
    sentinel: u16,
) -> (Vec<u16>, RecoveryReport) {
    let table = MultiLut::new(book, DEFAULT_LUT_BITS);
    // Each chunk's symbols, plus its chunk-local lost ranges when it was
    // sentinel-filled.
    let parts: Vec<_> = (0..stream.num_chunks())
        .into_par_iter()
        .map(|ci| {
            if !damaged.get(ci).copied().unwrap_or(false) {
                if let Ok(syms) = decode_chunk(stream, &table, ci) {
                    return (syms, None);
                }
            }
            let (syms, lost) = fill_damaged_chunk(stream, ci, sentinel);
            (syms, Some(lost))
        })
        .collect();

    let mut symbols = Vec::with_capacity(stream.num_symbols);
    let mut report = RecoveryReport::clean(stream.num_chunks());
    for (ci, (part, lost)) in parts.into_iter().enumerate() {
        if let Some(lost) = lost {
            report_damage(&mut report, stream, ci, &lost);
        }
        symbols.extend_from_slice(&part);
    }
    (symbols, report)
}

/// Add damaged chunk `ci` and its chunk-local sentinel ranges `lost` to
/// `report`, merging a range that continues the previous chunk's.
fn report_damage(
    report: &mut RecoveryReport,
    stream: &ChunkedStream,
    ci: usize,
    lost: &[(usize, usize)],
) {
    let base = ci * stream.config.chunk_symbols();
    report.damaged_chunks.push(ci);
    for &(s, e) in lost {
        report.symbols_lost += e - s;
        match report.damaged_ranges.last_mut() {
            Some(last) if last.1 == base + s => last.1 = base + e,
            _ => report.damaged_ranges.push((base + s, base + e)),
        }
    }
}

/// The sentinel fill for one damaged chunk: breaking units come back
/// exactly from the sidecar, everything else becomes `sentinel`. Returns
/// the chunk's symbols plus the `[start, end)` *chunk-local* ranges that
/// were sentinel-filled.
fn fill_damaged_chunk(
    stream: &ChunkedStream,
    ci: usize,
    sentinel: u16,
) -> (Vec<u16>, Vec<(usize, usize)>) {
    let (sym_count, first_unit) = chunk_geometry(stream, ci);
    let unit_syms = stream.config.unit_symbols().max(1);

    let mut out = Vec::with_capacity(sym_count);
    let mut lost: Vec<(usize, usize)> = Vec::new();
    let mut outliers = stream.outliers.iter_from(first_unit).peekable();
    let n_units = sym_count.div_ceil(unit_syms);
    for u in 0..n_units {
        let global_unit = first_unit + u as u64;
        let in_unit = unit_syms.min(sym_count - u * unit_syms);
        match outliers.next_if(|&(i, _)| i == global_unit) {
            Some((_, raw)) if raw.len() == in_unit => out.extend_from_slice(raw),
            _ => {
                let start = out.len();
                out.resize(out.len() + in_unit, sentinel);
                // Merge with the previous run when adjacent.
                match lost.last_mut() {
                    Some(last) if last.1 == start => last.1 = start + in_unit,
                    _ => lost.push((start, start + in_unit)),
                }
            }
        }
    }
    (out, lost)
}

/// The report best-effort decoding *would* produce for `damaged`,
/// without decoding anything — used by archive verification.
pub fn damage_report(stream: &ChunkedStream, damaged: &[bool]) -> RecoveryReport {
    let mut report = RecoveryReport::clean(stream.num_chunks());
    for ci in (0..stream.num_chunks()).filter(|&ci| damaged.get(ci).copied().unwrap_or(false)) {
        let (_, lost) = fill_damaged_chunk(stream, ci, 0);
        report_damage(&mut report, stream, ci, &lost);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codebook;
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

    #[test]
    fn parallel_chunk_decode_matches_input() {
        let (stream, book, syms) = stream_and_book(20_000);
        assert_eq!(decode(&stream, &book).unwrap(), syms);
    }

    #[test]
    fn corrupt_offsets_detected() {
        let book = codebook::parallel(&[3, 1], 2).unwrap();
        let syms = vec![0u16, 1, 0, 0];
        let mut stream = reduce_shuffle::encode(
            &syms,
            &book,
            MergeConfig::new(2, 1),
            BreakingStrategy::SparseSidecar,
        )
        .unwrap();
        // Corrupt: point the first chunk past the end.
        if let Some(o) = stream.chunk_bit_offsets.first_mut() {
            *o = stream.total_bits + 100;
        }
        assert!(decode(&stream, &book).is_err());
    }

    #[test]
    fn best_effort_with_no_damage_matches_strict() {
        let (stream, book, syms) = stream_and_book(20_000);
        let damaged = vec![false; stream.num_chunks()];
        let (out, report) = decode_best_effort(&stream, &book, &damaged, u16::MAX);
        assert_eq!(out, syms);
        assert!(report.is_clean());
    }

    #[test]
    fn best_effort_sentinel_fills_marked_chunks() {
        let (stream, book, syms) = stream_and_book(20_000);
        let n = stream.num_chunks();
        assert!(n >= 3, "need several chunks, got {n}");
        let mut damaged = vec![false; n];
        damaged[1] = true;
        let (out, report) = decode_best_effort(&stream, &book, &damaged, 0xDEAD);
        assert_eq!(out.len(), syms.len());
        assert_eq!(report.damaged_chunks, vec![1]);
        assert!(report.symbols_lost > 0);
        let chunk_syms = stream.config.chunk_symbols();
        for i in 0..syms.len() {
            let in_damaged_range = report.damaged_ranges.iter().any(|&(s, e)| i >= s && i < e);
            if in_damaged_range {
                assert_eq!(out[i], 0xDEAD);
                assert!(i >= chunk_syms && i < 2 * chunk_syms);
            } else {
                assert_eq!(out[i], syms[i], "index {i}");
            }
        }
    }

    #[test]
    fn best_effort_catches_decode_failure_without_damage_flag() {
        let (mut stream, book, syms) = stream_and_book(10_000);
        // Break the last chunk's offset so its decode fails even though
        // no checksum flagged it.
        let n = stream.num_chunks();
        *stream.chunk_bit_offsets.last_mut().unwrap() = stream.total_bits + 9;
        let damaged = vec![false; n];
        let (out, report) = decode_best_effort(&stream, &book, &damaged, u16::MAX);
        assert_eq!(out.len(), syms.len());
        assert_eq!(report.damaged_chunks, vec![n - 1]);
    }

    #[test]
    fn serial_decode_matches_parallel() {
        // The serial kind runs this same routine on the host.
        use crate::decode::{decode_stream, decode_stream_best_effort, DecoderKind};
        let (stream, book, syms) = stream_and_book(20_000);
        assert_eq!(decode_stream(&stream, &book, DecoderKind::Serial).unwrap(), syms);
        let damaged = vec![false; stream.num_chunks()];
        let par = decode_best_effort(&stream, &book, &damaged, 0xBEEF);
        let ser = decode_stream_best_effort(&stream, &book, &damaged, 0xBEEF, DecoderKind::Serial);
        assert_eq!(par, ser);
    }

    #[test]
    fn single_nonzero_symbol_stream_decodes() {
        // Zero-entropy input: one coded symbol, 1-bit codes everywhere.
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
    fn header_count_exceeding_encoded_symbols_errors() {
        // A corrupt header claiming more symbols than the payload encodes
        // must surface a structured error from every strict path, and
        // never panic or loop.
        let (mut stream, book, syms) = stream_and_book(4_000);
        stream.num_symbols = syms.len() + stream.config.chunk_symbols();
        stream.chunk_bit_lens.push(0);
        stream.chunk_bit_offsets.push(stream.total_bits);
        assert!(matches!(decode(&stream, &book), Err(HuffError::CorruptStream(_))));
    }

    #[test]
    fn damage_report_matches_best_effort_report() {
        let (stream, book, _) = stream_and_book(30_000);
        let mut damaged = vec![false; stream.num_chunks()];
        damaged[0] = true;
        if stream.num_chunks() > 2 {
            damaged[2] = true;
        }
        let (_, live) = decode_best_effort(&stream, &book, &damaged, 0);
        let dry = damage_report(&stream, &damaged);
        assert_eq!(live, dry);
    }
}
