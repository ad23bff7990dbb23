//! Multi-shard archive frame: the container the batched pipeline emits.
//!
//! A frame concatenates independently-compressed shards, each a complete
//! RSH2 archive ([`crate::archive`]) with its own codebook, chunk table and
//! CRCs. Shards are self-contained on purpose: per-shard best-effort
//! recovery *composes* — damage inside one shard's body is localized by
//! that shard's own chunk checksums, and even a shard whose header is
//! destroyed costs only that shard's symbol range, never the frame.
//!
//! Layout, version 1 (little-endian):
//!
//! ```text
//! magic "RSHM" | version u8 | symbol_bytes u8 | pad u16
//! total_symbols u64 | shard_symbols u64 | num_shards u32
//! shard_byte_len u64 × num_shards
//! header_crc u32               CRC32 of every byte preceding this field
//! shard bodies                 num_shards complete RSH2 archives
//! ```
//!
//! Shard `i` holds symbols `[i × shard_symbols, min((i+1) × shard_symbols,
//! total_symbols))`; only the last shard may be short. Frame-header damage
//! is fatal (the shard boundaries are required to find anything), exactly
//! mirroring the RSH2 rule that archive-header damage is fatal.
//!
//! A shard body is read as a bare RSH1/RSH2 archive only: the shard
//! decoders call the archive layer's single-format paths, never the
//! dispatching entry points, and [`parse`] rejects a shard body that is
//! itself an `RSHM` frame or an `RSHR` container — a structured error in
//! every recovery mode, never a recursion. Single-shard RSH2 archives
//! remain valid on their own; [`crate::container::sniff`] tells the
//! formats apart for [`crate::archive::decompress_with`] (see FORMAT.md
//! § "Multi-shard frame").

use crate::archive;
use crate::container::{self, Kind};
use crate::error::{HuffError, Result};
use crate::integrity::{
    crc32, DecompressOptions, RangeDecode, Recovered, RecoveryMode, RecoveryReport, Section,
    ShardTally, Verify,
};
use crate::wire::{self, Reader};
use rayon::prelude::*;
use std::ops::Range;

pub(crate) const MAGIC: &[u8; 4] = b"RSHM";
const VERSION: u8 = 1;

/// Parsed frame header: shard geometry plus the body byte ranges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameInfo {
    /// Container version (currently 1).
    pub version: u8,
    /// Native symbol width recorded in the header.
    pub symbol_bytes: u8,
    /// Total symbols across all shards.
    pub total_symbols: u64,
    /// Symbols per shard (the last shard may hold fewer).
    pub shard_symbols: u64,
    /// Byte range of each shard's RSH2 body within the frame.
    pub shard_ranges: Vec<Range<usize>>,
}

impl FrameInfo {
    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shard_ranges.len()
    }

    /// The symbol-index range shard `i` covers.
    ///
    /// Checked: a shard index whose symbol offset would overflow `u64` (or
    /// the address space) is a structured error, never a silent wrap into
    /// another shard's range.
    pub fn shard_symbol_range(&self, i: usize) -> Result<Range<usize>> {
        let at = |k: u64| -> Result<usize> {
            let off = k
                .checked_mul(self.shard_symbols)
                .ok_or_else(|| bad(format!("shard {i} symbol offset overflows u64")))?
                .min(self.total_symbols);
            off.try_into()
                .map_err(|_| bad(format!("shard {i} symbol offset exceeds address space")))
        };
        let hi_idx = (i as u64)
            .checked_add(1)
            .ok_or_else(|| bad(format!("shard {i} symbol offset overflows u64")))?;
        Ok(at(i as u64)?..at(hi_idx)?)
    }
}

fn bad(msg: impl Into<String>) -> HuffError {
    HuffError::BadArchive(msg.into())
}

/// The shard count as the u32 the header stores. A count that does not
/// fit is a serialization error, not a silent truncation (a truncated
/// count would make the header CRC sign a wrong shard table).
fn shard_count_u32(n: usize) -> Result<u32> {
    u32::try_from(n).map_err(|_| bad(format!("{n} shards exceed the frame format's u32 count")))
}

/// Concatenate per-shard RSH2 archives into a frame.
///
/// `shards.len()` must equal `ceil(total_symbols / shard_symbols)` — the
/// geometry is stored once in the frame header, not per shard.
pub fn assemble(
    shards: &[Vec<u8>],
    total_symbols: u64,
    shard_symbols: u64,
    symbol_bytes: u8,
) -> Result<Vec<u8>> {
    if shard_symbols == 0 {
        return Err(bad("a frame needs a nonzero shard size"));
    }
    if shards.is_empty() && total_symbols != 0 {
        return Err(bad("a frame needs at least one shard"));
    }
    let expected = total_symbols.div_ceil(shard_symbols);
    if shards.len() as u64 != expected {
        return Err(bad(format!(
            "{} shards inconsistent with {total_symbols} symbols at {shard_symbols}/shard",
            shards.len()
        )));
    }
    let body: usize = shards.iter().map(Vec::len).sum();
    let mut buf = Vec::with_capacity(32 + 8 * shards.len() + body);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&[VERSION, symbol_bytes, 0, 0]);
    buf.extend_from_slice(&total_symbols.to_le_bytes());
    buf.extend_from_slice(&shard_symbols.to_le_bytes());
    buf.extend_from_slice(&shard_count_u32(shards.len())?.to_le_bytes());
    for s in shards {
        buf.extend_from_slice(&(s.len() as u64).to_le_bytes());
    }
    let header_crc = crc32(&buf);
    buf.extend_from_slice(&header_crc.to_le_bytes());
    for s in shards {
        buf.extend_from_slice(s);
    }
    Ok(buf)
}

/// Parse and (unless `verify` is [`Verify::None`]) checksum the frame
/// header. Header damage is fatal: without the shard table nothing inside
/// the frame can be located. So is a shard body that is itself a frame or
/// a raw container, and a shard whose symbol range its declared body
/// could not encode.
pub fn parse(bytes: &[u8], verify: Verify) -> Result<FrameInfo> {
    let mut r = Reader::new(bytes);
    if r.take(4)? != MAGIC {
        return Err(bad("bad frame magic"));
    }
    let version = r.u8()?;
    if version != VERSION {
        return Err(bad(format!("unsupported frame version {version}")));
    }
    let symbol_bytes = r.u8()?;
    r.skip(2)?;
    let total_symbols = r.u64_le()?;
    let shard_symbols = r.u64_le()?;
    let num_shards = r.count("shards", 8)?;
    if shard_symbols == 0 || (num_shards == 0 && total_symbols != 0) {
        return Err(bad("empty frame geometry"));
    }
    if num_shards as u64 != total_symbols.div_ceil(shard_symbols) {
        return Err(bad(format!(
            "{num_shards} shards inconsistent with {total_symbols} symbols at \
             {shard_symbols}/shard"
        )));
    }
    let lens = (0..num_shards).map(|_| r.u64_le()).collect::<Result<Vec<_>>>()?;
    let header_end = r.pos();
    let stored_crc = r.u32_le()?;
    if verify != Verify::None {
        let got = crc32(&bytes[..header_end]);
        if got != stored_crc {
            return Err(HuffError::ChecksumMismatch {
                section: Section::Header,
                chunk: None,
                expected: stored_crc,
                got,
            });
        }
    }
    let mut info = FrameInfo {
        version,
        symbol_bytes,
        total_symbols,
        shard_symbols,
        shard_ranges: Vec::with_capacity(num_shards),
    };
    let mut off = r.pos();
    for (i, &l) in lens.iter().enumerate() {
        // A coded symbol costs at least one bit (a lone symbol's code is
        // one bit long) and a stored outlier sixteen, so a body of `l`
        // bytes holds at most 8·l symbols. A range past that is a forged
        // count, not damage to recover from.
        let syms = info.shard_symbol_range(i)?.len() as u64;
        if !wire::fits(syms, 1, l.saturating_mul(8)) {
            return Err(bad(format!("shard {i} declares {syms} symbols in a {l}-byte body")));
        }
        let len: usize = l.try_into().map_err(|_| bad("shard length exceeds address space"))?;
        let end = off.checked_add(len).ok_or_else(|| bad("shard table overflows frame"))?;
        // A shard body is a bare RSH1/RSH2 archive. A body that is itself
        // a frame or a raw container breaks the frame's structure, so it
        // is fatal like header damage; any other unreadable body is only
        // that shard's damage.
        let nested = match container::sniff(bytes.get(off..).unwrap_or_default()) {
            Ok(Kind::Frame) => Some("an RSHM frame"),
            Ok(Kind::Raw) => Some("an RSHR raw container"),
            _ => None,
        };
        if let Some(what) = nested {
            return Err(bad(format!("shard {i} body is {what}, not an RSH1/RSH2 archive")));
        }
        info.shard_ranges.push(off..end);
        off = end;
    }
    Ok(info)
}

/// Decompress a frame under an explicit verification and recovery policy.
///
/// Strict mode requires every shard to verify and decode completely. In
/// best-effort mode each shard recovers independently: damage inside a
/// shard is handled by that shard's own chunk recovery; a shard that
/// cannot be parsed at all (dead header, missing body) is sentinel-filled
/// across its whole symbol range and reported as a single opaque damaged
/// chunk. Chunk indices and symbol ranges in the merged report are shifted
/// to frame-global coordinates.
pub fn decompress_with(bytes: &[u8], opts: &DecompressOptions) -> Result<Recovered> {
    let info = parse(bytes, opts.verify)?;
    let best_effort = opts.mode == RecoveryMode::BestEffort;

    // Decode shards in parallel; each is an independent archive.
    let results: Vec<Result<Recovered>> = info
        .shard_ranges
        .par_iter()
        .enumerate()
        .map(|(i, r)| {
            let expected = info.shard_symbol_range(i)?.len();
            let body = bytes
                .get(r.clone())
                .ok_or_else(|| bad(format!("shard {i} body extends past the frame")))?;
            let rec = archive::decompress_archive(body, opts)?;
            if rec.symbols.len() != expected {
                return Err(bad(format!(
                    "shard {i} decoded {} symbols, expected {expected}",
                    rec.symbols.len()
                )));
            }
            Ok(rec)
        })
        .collect();

    // The output is sized only once every shard has answered: a strict
    // error returns before anything is allocated for the declared symbol
    // count, and the buffer holds what the shards decoded plus the
    // best-effort fills.
    let mut len = 0;
    for (i, res) in results.iter().enumerate() {
        len += match res {
            Ok(rec) => rec.symbols.len(),
            Err(_) if best_effort => info.shard_symbol_range(i)?.len(),
            Err(e) => return Err(e.clone()),
        };
    }
    let mut symbols = Vec::with_capacity(len);
    let mut merged = ShardMerge::default();
    for (i, res) in results.into_iter().enumerate() {
        let range = info.shard_symbol_range(i)?;
        let chunk_base = merged.report.total_chunks;
        match res {
            Ok(rec) => {
                merged.readable(chunk_base, range.start, &rec.report);
                symbols.extend_from_slice(&rec.symbols);
            }
            Err(_) => {
                merged.unreadable(chunk_base, range.clone());
                symbols.resize(symbols.len() + range.len(), opts.sentinel);
            }
        }
    }
    Ok(Recovered {
        symbols,
        report: merged.report,
        symbol_bytes: info.symbol_bytes,
        shards: merged.shards,
    })
}

/// Per-shard recovery reports merged into frame-global coordinates, plus
/// the tally of how the shards came through. The one place the frame
/// decoders ([`decompress_with`], [`decode_range_with`], [`verify`]) map
/// shard-local damage to the frame.
#[derive(Debug, Default)]
struct ShardMerge {
    report: RecoveryReport,
    shards: ShardTally,
}

impl ShardMerge {
    /// Fold in a shard that was read: its damaged chunks shift by
    /// `chunk_base` (the shard's first frame-global chunk), its damaged
    /// symbol ranges by `sym_start` (the shard's first symbol), and the
    /// frame's chunk count grows to cover the shard's chunks.
    fn readable(&mut self, chunk_base: usize, sym_start: usize, shard: &RecoveryReport) {
        if shard.is_clean() {
            self.shards.ok += 1;
        } else {
            self.shards.recovered += 1;
        }
        let r = &mut self.report;
        r.total_chunks = r.total_chunks.max(chunk_base + shard.total_chunks);
        r.damaged_chunks.extend(shard.damaged_chunks.iter().map(|c| chunk_base + c));
        for &(s, e) in &shard.damaged_ranges {
            r.damaged_ranges.push((sym_start + s, sym_start + e));
            r.symbols_lost += e - s;
        }
    }

    /// Fold in a shard that could not be read at all: its internal chunk
    /// structure is unknown, so it counts as one opaque damaged chunk at
    /// `chunk_base` that loses the (frame-global) symbols `lost`.
    fn unreadable(&mut self, chunk_base: usize, lost: Range<usize>) {
        self.shards.recovered += 1;
        let r = &mut self.report;
        r.total_chunks = r.total_chunks.max(chunk_base + 1);
        r.damaged_chunks.push(chunk_base);
        r.symbols_lost += lost.len();
        r.damaged_ranges.push((lost.start, lost.end));
    }
}

/// Decode only the bytes of `range` (in decoded-output byte space) from a
/// multi-shard frame.
///
/// Each shard overlapping the range runs a bare-archive range decode over
/// its shard-local slice, so only the chunks covering the range are ever
/// decoded; untouched shards contribute nothing but their chunk count to
/// the report's totals (a cheap header peek, not a decode). Strict and
/// best-effort semantics per shard mirror [`decompress_with`]: in
/// best-effort mode a shard that cannot be read at all is sentinel-filled
/// across its overlap with the range and reported as one opaque damaged
/// chunk. `index_used` is true only when every touched shard located its
/// chunks through its seek index.
pub fn decode_range(
    bytes: &[u8],
    range: Range<u64>,
    opts: &DecompressOptions,
) -> Result<RangeDecode> {
    decode_range_with(bytes, range, opts, &mut |_, body, local| {
        archive::decode_archive_range(body, local, opts)
    })
}

/// Per-shard decode callback for [`decode_range_with`], called as
/// `(shard_index, shard_body, shard_local_byte_range)`.
pub(crate) type ShardRangeDecode<'a> =
    dyn FnMut(usize, &[u8], Range<u64>) -> Result<RangeDecode> + 'a;

/// [`decode_range`] with the per-shard decode step pluggable: the batch
/// layer substitutes a GPU-backed shard decode while reusing the exact
/// shard-window arithmetic and report merging here.
pub(crate) fn decode_range_with(
    bytes: &[u8],
    range: Range<u64>,
    opts: &DecompressOptions,
    shard_decode: &mut ShardRangeDecode<'_>,
) -> Result<RangeDecode> {
    if range.start > range.end {
        return Err(bad(format!("byte range {}..{} is inverted", range.start, range.end)));
    }
    let info = parse(bytes, opts.verify)?;
    let sb = u64::from(info.symbol_bytes.max(1));
    let total_bytes = info
        .total_symbols
        .checked_mul(sb)
        .ok_or_else(|| bad("frame decoded size overflows u64"))?;
    let shard_bytes = info
        .shard_symbols
        .checked_mul(sb)
        .ok_or_else(|| bad("frame shard byte size overflows u64"))?;
    let lo = range.start.min(total_bytes);
    let hi = range.end.min(total_bytes);
    let best_effort = opts.mode == RecoveryMode::BestEffort;

    // Per-shard chunk counts give the chunk-index base for shifting
    // shard-local reports into frame-global coordinates. An unreadable
    // shard counts as one opaque chunk, mirroring decompress_with.
    let mut chunk_base = Vec::with_capacity(info.num_shards() + 1);
    chunk_base.push(0usize);
    for r in &info.shard_ranges {
        let n = match bytes.get(r.clone()) {
            Some(body) => archive::chunk_count(body).unwrap_or(1),
            None => 1,
        };
        chunk_base.push(chunk_base[chunk_base.len() - 1] + n);
    }
    let total_chunks = chunk_base[info.num_shards()];

    let (s0, s1) = if lo == hi || shard_bytes == 0 {
        (0, 0)
    } else {
        ((lo / shard_bytes) as usize, (hi.div_ceil(shard_bytes) as usize).min(info.num_shards()))
    };

    let mut out = Vec::with_capacity((hi - lo) as usize);
    let mut merged = ShardMerge::default();
    let mut chunks_touched = 0usize;
    let mut index_probes = 0u64;
    let mut index_used = true;
    // `i` drives three parallel tables (shard_ranges, chunk_base, the
    // shard's symbol range), so the index loop is the clear shape here.
    #[allow(clippy::needless_range_loop)]
    for i in s0..s1 {
        let sym_range = info.shard_symbol_range(i)?;
        let shard_lo = (i as u64)
            .checked_mul(shard_bytes)
            .ok_or_else(|| bad(format!("shard {i} byte offset overflows u64")))?;
        let shard_hi = shard_lo.saturating_add(shard_bytes).min(total_bytes);
        let g_lo = lo.max(shard_lo);
        let g_hi = hi.min(shard_hi);
        let res = bytes
            .get(info.shard_ranges[i].clone())
            .ok_or_else(|| bad(format!("shard {i} body extends past the frame")))
            .and_then(|body| shard_decode(i, body, g_lo - shard_lo..g_hi - shard_lo));
        match res {
            Ok(r) => {
                merged.readable(chunk_base[i], sym_range.start, &r.report);
                chunks_touched += r.chunks_touched;
                index_probes += r.index_probes;
                index_used &= r.index_used;
                out.extend_from_slice(&r.bytes);
            }
            Err(_) if best_effort => {
                // The shard is unreadable as a whole: sentinel-fill its
                // overlap with the range, one opaque damaged chunk.
                let sent = u64::from(opts.sentinel).to_le_bytes();
                for p in g_lo..g_hi {
                    out.push(sent[(p % sb).min(7) as usize]);
                }
                chunks_touched += 1;
                index_used = false;
                let d_lo = ((g_lo / sb) as usize).max(sym_range.start);
                let d_hi = (g_hi.div_ceil(sb) as usize).min(sym_range.end).max(d_lo);
                merged.unreadable(chunk_base[i], d_lo..d_hi);
            }
            Err(e) => return Err(e),
        }
    }
    Ok(RangeDecode {
        bytes: out,
        // The frame's chunk count comes from the header peeks above, not
        // from the touched shards alone.
        report: RecoveryReport { total_chunks, ..merged.report },
        chunks_touched,
        total_chunks,
        index_probes,
        index_used,
    })
}

/// Check every shard's checksums without decoding any payload, merging
/// the per-shard reports into frame-global coordinates (same conventions
/// as [`decompress_with`]).
pub fn verify(bytes: &[u8]) -> Result<RecoveryReport> {
    let info = parse(bytes, Verify::Full)?;
    let mut merged = ShardMerge::default();
    for (i, r) in info.shard_ranges.iter().enumerate() {
        let range = info.shard_symbol_range(i)?;
        let chunk_base = merged.report.total_chunks;
        let shard_report = bytes
            .get(r.clone())
            .ok_or_else(|| bad("shard body extends past the frame"))
            .and_then(archive::verify_archive);
        match shard_report {
            Ok(sr) => merged.readable(chunk_base, range.start, &sr),
            Err(_) => merged.unreadable(chunk_base, range),
        }
    }
    Ok(merged.report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archive::{compress, CompressOptions};

    fn data(n: usize) -> Vec<u16> {
        (0..n)
            .map(|i| {
                let x = (i as u64).wrapping_mul(0x9E3779B97F4A7C15) >> 40;
                (x % 256) as u16
            })
            .collect()
    }

    fn frame_of(syms: &[u16], shard_symbols: usize) -> Vec<u8> {
        let shards: Vec<Vec<u8>> = syms
            .chunks(shard_symbols)
            .map(|s| compress(s, &CompressOptions::new(256)).unwrap())
            .collect();
        assemble(&shards, syms.len() as u64, shard_symbols as u64, 2).unwrap()
    }

    #[test]
    fn frame_roundtrips_bit_exactly() {
        let syms = data(30_000);
        let frame = frame_of(&syms, 8192);
        assert_eq!(container::sniff(&frame).unwrap(), Kind::Frame);
        let rec = decompress_with(&frame, &DecompressOptions::default()).unwrap();
        assert_eq!(rec.symbols, syms);
        assert!(rec.report.is_clean());
        assert!(verify(&frame).unwrap().is_clean());
    }

    #[test]
    fn parse_exposes_geometry() {
        let syms = data(10_000);
        let frame = frame_of(&syms, 4096);
        let info = parse(&frame, Verify::Full).unwrap();
        assert_eq!(info.num_shards(), 3);
        assert_eq!(info.total_symbols, 10_000);
        assert_eq!(info.shard_symbol_range(0).unwrap(), 0..4096);
        assert_eq!(info.shard_symbol_range(2).unwrap(), 8192..10_000);
        // Checked math: a shard index whose offset cannot fit must error
        // instead of wrapping (satellite of the seek-index PR).
        let silly = FrameInfo {
            version: 1,
            symbol_bytes: 2,
            total_symbols: u64::MAX,
            shard_symbols: u64::MAX / 2,
            shard_ranges: vec![],
        };
        assert!(silly.shard_symbol_range(3).is_err());
        // Shard bodies tile the tail of the frame.
        let mut cursor = info.shard_ranges[0].start;
        for r in &info.shard_ranges {
            assert_eq!(r.start, cursor);
            cursor = r.end;
        }
        assert_eq!(cursor, frame.len());
    }

    #[test]
    fn shard_count_overflow_is_an_error_not_a_truncation() {
        assert_eq!(shard_count_u32(0).unwrap(), 0);
        assert_eq!(shard_count_u32(u32::MAX as usize).unwrap(), u32::MAX);
        // On 64-bit targets a shard count past u32::MAX must refuse to
        // serialize rather than wrap to a small count the CRC then signs.
        if let Ok(n) = usize::try_from(u64::from(u32::MAX) + 1) {
            assert!(shard_count_u32(n).is_err());
        }
    }

    #[test]
    fn lut_decoder_roundtrips_through_frame_path() {
        let syms = data(30_000);
        let frame = frame_of(&syms, 8192);
        for decoder in [crate::decode::DecoderKind::Serial, crate::decode::DecoderKind::Lut] {
            let opts = DecompressOptions::default().with_decoder(decoder);
            let rec = decompress_with(&frame, &opts).unwrap();
            assert_eq!(rec.symbols, syms, "{}", decoder.name());
            assert!(rec.report.is_clean());
        }
    }

    #[test]
    fn geometry_mismatch_rejected() {
        let syms = data(1000);
        let shards = vec![compress(&syms, &CompressOptions::new(256)).unwrap()];
        assert!(assemble(&shards, 5000, 1000, 2).is_err());
        assert!(assemble(&[], 5000, 1000, 2).is_err());
        assert!(assemble(&[], 0, 0, 2).is_err());
    }

    #[test]
    fn empty_frame_roundtrips() {
        // Zero symbols → zero shards is valid geometry, not an error.
        let frame = assemble(&[], 0, 4096, 2).unwrap();
        assert_eq!(container::sniff(&frame).unwrap(), Kind::Frame);
        let info = parse(&frame, Verify::Full).unwrap();
        assert_eq!(info.num_shards(), 0);
        assert_eq!(info.total_symbols, 0);
        let rec = decompress_with(&frame, &DecompressOptions::default()).unwrap();
        assert!(rec.symbols.is_empty());
        assert!(rec.report.is_clean());
        assert!(verify(&frame).unwrap().is_clean());
        let r = decode_range(&frame, 0..100, &DecompressOptions::default()).unwrap();
        assert!(r.bytes.is_empty());
        assert_eq!(r.chunks_touched, 0);
        assert_eq!(r.total_chunks, 0);
    }

    #[test]
    fn range_decode_matches_full_decode_slice() {
        let syms = data(30_000);
        let frame = frame_of(&syms, 8192);
        let full = decompress_with(&frame, &DecompressOptions::default()).unwrap();
        let full_bytes: Vec<u8> = full.symbols.iter().flat_map(|&s| s.to_le_bytes()).collect();
        // Ranges within one shard, straddling the shard boundary at byte
        // 16_384, mid-symbol endpoints, the tail, and an empty range.
        for (a, b) in [(0, 64), (16_000, 17_000), (16_383, 16_385), (59_990, 60_000), (123, 123)] {
            let r = decode_range(&frame, a..b, &DecompressOptions::default()).unwrap();
            assert_eq!(r.bytes, &full_bytes[a as usize..b as usize], "{a}..{b}");
            assert!(r.report.is_clean());
        }
        let r = decode_range(&frame, 20_000..20_100, &DecompressOptions::default()).unwrap();
        assert!(r.chunks_touched < r.total_chunks, "small range must skip chunks");
        assert!(r.index_used, "fresh archives carry a seek index");
    }

    #[test]
    fn range_decode_dead_shard_sentinel_fills_overlap() {
        let syms = data(24_000);
        let frame = frame_of(&syms, 8192);
        let info = parse(&frame, Verify::Full).unwrap();
        let mut corrupt = frame.clone();
        corrupt[info.shard_ranges[1].start] = b'X'; // kill shard 1's magic

        assert!(decode_range(&corrupt, 16_000..33_000, &DecompressOptions::default()).is_err());

        let opts = DecompressOptions::best_effort().with_sentinel(0xABCD);
        let r = decode_range(&corrupt, 16_000..33_000, &opts).unwrap();
        assert_eq!(r.bytes.len(), 17_000);
        // Shard 1 occupies bytes 16_384..32_768 of the decoded output.
        assert!(r.bytes[384..16_768].chunks(2).all(|c| c == [0xCD, 0xAB]));
        assert_eq!(&r.bytes[..384], &make_bytes(&syms)[16_000..16_384]);
        assert_eq!(&r.bytes[16_768..], &make_bytes(&syms)[32_768..33_000]);
        assert!(!r.report.is_clean());
        assert!(!r.index_used);
    }

    fn make_bytes(syms: &[u16]) -> Vec<u8> {
        syms.iter().flat_map(|&s| s.to_le_bytes()).collect()
    }

    #[test]
    fn header_flip_is_fatal_even_best_effort() {
        let syms = data(5000);
        let mut frame = frame_of(&syms, 2048);
        frame[9] ^= 0x01; // total_symbols field
        let r = decompress_with(&frame, &DecompressOptions::best_effort());
        assert!(r.is_err());
    }

    #[test]
    fn shard_payload_damage_localizes_to_that_shard() {
        let syms = data(24_000);
        let frame = frame_of(&syms, 8192);
        let info = parse(&frame, Verify::Full).unwrap();
        // Flip a byte in the middle of shard 1's body (payload region).
        let mut corrupt = frame.clone();
        let r1 = info.shard_ranges[1].clone();
        corrupt[r1.start + (r1.len() * 3 / 4)] ^= 0x40;

        assert!(decompress_with(&corrupt, &DecompressOptions::default()).is_err());

        let opts = DecompressOptions::best_effort();
        let rec = decompress_with(&corrupt, &opts).unwrap();
        assert_eq!(rec.symbols.len(), syms.len());
        assert!(!rec.report.is_clean());
        // All damage lies within shard 1's symbol range.
        for &(s, e) in &rec.report.damaged_ranges {
            assert!(s >= 8192 && e <= 16_384, "range {s}..{e} outside shard 1");
        }
        // Shards 0 and 2 are bit-exact.
        assert_eq!(&rec.symbols[..8192], &syms[..8192]);
        assert_eq!(&rec.symbols[16_384..], &syms[16_384..]);
    }

    #[test]
    fn dead_shard_header_costs_only_that_shard() {
        let syms = data(24_000);
        let frame = frame_of(&syms, 8192);
        let info = parse(&frame, Verify::Full).unwrap();
        let mut corrupt = frame.clone();
        // Destroy shard 1's magic: the shard is unreadable as a whole.
        let r1 = info.shard_ranges[1].clone();
        corrupt[r1.start] = b'X';

        let opts = DecompressOptions::best_effort().with_sentinel(0xABCD);
        let rec = decompress_with(&corrupt, &opts).unwrap();
        assert_eq!(rec.symbols.len(), syms.len());
        assert_eq!(rec.report.damaged_ranges, vec![(8192, 16_384)]);
        assert_eq!(rec.report.symbols_lost, 8192);
        assert!(rec.symbols[8192..16_384].iter().all(|&s| s == 0xABCD));
        assert_eq!(&rec.symbols[..8192], &syms[..8192]);
        assert_eq!(&rec.symbols[16_384..], &syms[16_384..]);

        let report = verify(&corrupt).unwrap();
        assert!(!report.is_clean());
        assert_eq!(report.damaged_ranges, vec![(8192, 16_384)]);
    }

    #[test]
    fn truncated_frame_rejected() {
        let syms = data(4000);
        let frame = frame_of(&syms, 2048);
        for cut in [0, 3, 7, 20, 35, frame.len() / 2] {
            assert!(
                decompress_with(&frame[..cut], &DecompressOptions::default()).is_err(),
                "cut={cut}"
            );
        }
    }

    #[test]
    fn truncated_tail_shard_recovers_best_effort() {
        let syms = data(12_000);
        let frame = frame_of(&syms, 4096);
        let info = parse(&frame, Verify::Full).unwrap();
        // Cut mid-way through the last shard's body.
        let cut = info.shard_ranges[2].start + info.shard_ranges[2].len() / 2;
        let rec = decompress_with(&frame[..cut], &DecompressOptions::best_effort()).unwrap();
        assert_eq!(rec.symbols.len(), syms.len());
        // First two shards intact.
        assert_eq!(&rec.symbols[..8192], &syms[..8192]);
        assert!(!rec.report.is_clean());
    }

    #[test]
    fn chunk_indices_shift_across_shards() {
        let syms = data(16_384);
        let frame = frame_of(&syms, 8192);
        let info = parse(&frame, Verify::Full).unwrap();
        let mut corrupt = frame.clone();
        let r1 = info.shard_ranges[1].clone();
        corrupt[r1.end - 2] ^= 0x10; // last bytes of shard 1's payload
        let report = verify(&corrupt).unwrap();
        // Damaged chunk index must lie in the second shard's chunk range.
        let shard0_chunks =
            archive::verify(&frame[info.shard_ranges[0].clone()]).unwrap().total_chunks;
        assert!(report.damaged_chunks.iter().all(|&c| c >= shard0_chunks));
        assert_eq!(report.total_chunks, 2 * shard0_chunks);
    }
}
