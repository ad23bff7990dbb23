//! Self-contained compressed container.
//!
//! A downstream user wants `compress(data) -> bytes -> decompress`, not a
//! pile of kernels; this module is that API. The container stores only the
//! per-symbol codeword *lengths* — canonical codes are reconstructed
//! deterministically on decode ([`CanonicalCodebook::from_lengths`]), which
//! is one of the practical payoffs of canonization the paper highlights.
//!
//! Current layout, version 2 (little-endian):
//!
//! ```text
//! magic "RSH2" | symbol_bytes u8 | magnitude u8 | reduction u8 | flags u8
//! num_symbols u64 | codebook_len u32 | lengths u8 × codebook_len
//! num_chunks u32 | chunk_bit_lens u64 × num_chunks
//! outlier_units u32 | { unit_index u64, count u16, symbols u16 × count }*
//! total_bits u64
//! chunk_crcs u32 × num_chunks   CRC32 of each chunk's payload byte span
//! header_crc u32                CRC32 of every byte preceding this field
//! payload bytes
//! seek index trailer            optional (flags bit 0; FORMAT.md §10)
//! ```
//!
//! A chunk's *payload byte span* is `floor(off/8) .. ceil((off+len)/8)` of
//! the payload, where `off`/`len` are its bit offset and bit length — the
//! bytes a decoder must read to decode the chunk (a zero-length chunk has
//! an explicitly empty span and a CRC of `crc32(b"") == 0`). Adjacent
//! chunks share a boundary byte, so one damaged byte can (conservatively)
//! fail two chunk checksums. The header CRC covers everything before it,
//! including the chunk CRC table: header damage is always fatal, because
//! the codebook and chunk offsets are required to decode anything.
//!
//! The byte at offset 7 is a *flags* field (checksummed with the rest of
//! the header). Bit 0 set means a [`crate::seek::ChunkIndex`] trailer
//! follows the payload, giving [`decode_range`] O(1) chunk location;
//! unknown bits are reserved and ignored. Readers that predate the
//! trailer — and any reader that finds it damaged — simply stop at the
//! payload's computed end, so the section is fail-open by construction.
//!
//! Version 1 (`RSH1`, the original format) is identical minus the two
//! checksum fields and the trailer. [`deserialize`] reads both versions;
//! [`serialize`] writes version 2; [`serialize_v1`] is kept for
//! compatibility testing and interop with older readers.

use crate::codebook::{self, CanonicalCodebook};
use crate::container::{self, Kind};
use crate::decode;
use crate::encode::{self, BreakingStrategy, ChunkedStream, MergeConfig};
use crate::error::{HuffError, Result};
use crate::histogram;
use crate::integrity::{
    crc32, DecompressOptions, RangeDecode, Recovered, RecoveryMode, RecoveryReport, Section,
    ShardTally, Verify,
};
use crate::seek::ChunkIndex;
use crate::sparse::SparseOutliers;
use crate::wire::Reader;
use std::ops::Range;

pub(crate) const MAGIC_V1: &[u8; 4] = b"RSH1";
pub(crate) const MAGIC_V2: &[u8; 4] = b"RSH2";

/// Header flags bit (byte 7): a seek-index trailer follows the payload.
pub const FLAG_SEEK_INDEX: u8 = 1;

/// Options for [`compress`].
#[derive(Debug, Clone, Copy)]
pub struct CompressOptions {
    /// Number of symbols the histogram spans (e.g. 1024 quantization bins,
    /// 256 for byte data).
    pub num_symbols: usize,
    /// Chunk magnitude `M`.
    pub magnitude: u32,
    /// Reduction factor; `None` applies the Fig. 3 rule.
    pub reduction: Option<u32>,
    /// Breaking-point strategy.
    pub strategy: BreakingStrategy,
    /// Native symbol width recorded in the header (1 or 2 bytes).
    pub symbol_bytes: u8,
}

impl CompressOptions {
    /// Defaults for 2-byte symbols over `num_symbols` bins.
    pub fn new(num_symbols: usize) -> Self {
        CompressOptions {
            num_symbols,
            magnitude: 10,
            reduction: None,
            strategy: BreakingStrategy::SparseSidecar,
            symbol_bytes: 2,
        }
    }
}

/// Compress `symbols` into a self-contained archive.
///
/// The empty input is a first-class archive (zero chunks, an empty
/// codebook, an empty payload) rather than an error: range reads and
/// frame shards of size zero must roundtrip like anything else.
pub fn compress(symbols: &[u16], opts: &CompressOptions) -> Result<Vec<u8>> {
    if symbols.is_empty() {
        let config = MergeConfig::new(opts.magnitude, opts.reduction.unwrap_or(1).max(1));
        let stream = ChunkedStream {
            config,
            bytes: Vec::new(),
            chunk_bit_lens: Vec::new(),
            chunk_bit_offsets: Vec::new(),
            total_bits: 0,
            num_symbols: 0,
            outliers: SparseOutliers::new(),
        };
        return serialize(&stream, &CanonicalCodebook::empty(), opts.symbol_bytes);
    }
    let freqs =
        histogram::parallel_cpu::histogram(symbols, opts.num_symbols, rayon::current_num_threads());
    let book = codebook::parallel(&freqs, 16)?;
    let config = match opts.reduction {
        Some(r) => MergeConfig::new(opts.magnitude, r),
        None => MergeConfig::auto::<u32>(opts.magnitude, &freqs, &book),
    };
    let stream = encode::reduce_shuffle::encode(symbols, &book, config, opts.strategy)?;
    serialize(&stream, &book, opts.symbol_bytes)
}

/// Decompress an archive produced by [`compress`].
///
/// Equivalent to [`decompress_with`] under the default
/// [`DecompressOptions`]: full verification, strict mode.
pub fn decompress(archive: &[u8]) -> Result<Vec<u16>> {
    Ok(decompress_with(archive, &DecompressOptions::default())?.symbols)
}

/// Decompress under an explicit verification and recovery policy.
///
/// In [`RecoveryMode::Strict`] the first failed check aborts with a typed
/// error; the returned report is clean. In [`RecoveryMode::BestEffort`]
/// every chunk whose checksum passes (and whose decode succeeds) is
/// recovered, damaged regions are filled with `opts.sentinel`, and the
/// report lists what was lost. Header damage is fatal in both modes.
///
/// This is the single entry point for all three container formats
/// ([`container::sniff`]): multi-shard frames ([`crate::frame`], magic
/// `RSHM`) go to the frame decoder, store-raw containers (magic `RSHR`)
/// to the raw decoder.
pub fn decompress_with(archive: &[u8], opts: &DecompressOptions) -> Result<Recovered> {
    match container::sniff(archive)? {
        Kind::Archive => decompress_archive(archive, opts),
        Kind::Frame => crate::frame::decompress_with(archive, opts),
        Kind::Raw => container::decompress_raw(archive, opts),
    }
}

/// [`decompress_with`] for a bare RSH1/RSH2 archive; a frame's shards
/// decode through here, so a shard body is never re-dispatched.
pub(crate) fn decompress_archive(archive: &[u8], opts: &DecompressOptions) -> Result<Recovered> {
    let parsed = deserialize_with(archive, opts)?;
    let (symbols, report) = match opts.mode {
        RecoveryMode::Strict => {
            let symbols = decode::decode_stream(&parsed.stream, &parsed.book, opts.decoder)?;
            (symbols, RecoveryReport::clean(parsed.stream.num_chunks()))
        }
        RecoveryMode::BestEffort => decode::decode_stream_best_effort(
            &parsed.stream,
            &parsed.book,
            &parsed.chunk_damage,
            opts.sentinel,
            opts.decoder,
        ),
    };
    Ok(Recovered {
        symbols,
        report,
        symbol_bytes: parsed.symbol_bytes,
        shards: ShardTally::default(),
    })
}

/// Check an archive's checksums without decoding the payload.
///
/// Fails with a typed error when the archive is structurally invalid or
/// its header checksum does not match. Otherwise returns a report whose
/// `damaged_chunks` lists every chunk with a failing payload checksum
/// (with the symbol ranges that would be lost to best-effort recovery).
/// RSH1 archives carry no checksums, so they verify clean whenever they
/// parse. Frames and raw containers are dispatched like
/// [`decompress_with`].
///
/// ```
/// use huff_core::archive::{compress, layout, verify, CompressOptions};
/// use huff_core::integrity::Section;
///
/// let data: Vec<u16> = (0..10_000).map(|i| (i % 50) as u16).collect();
/// let packed = compress(&data, &CompressOptions::new(64)).unwrap();
/// assert!(verify(&packed).unwrap().is_clean());
///
/// // Flip one payload bit: verify localizes the damage to one chunk.
/// let sections = layout(&packed).unwrap();
/// let payload = &sections.iter().find(|(s, _)| *s == Section::Payload).unwrap().1;
/// let mut damaged = packed.clone();
/// damaged[payload.end - 1] ^= 0x10;
/// let report = verify(&damaged).unwrap();
/// assert_eq!(report.damaged_chunks.len(), 1);
/// ```
pub fn verify(archive: &[u8]) -> Result<RecoveryReport> {
    match container::sniff(archive)? {
        Kind::Archive => verify_archive(archive),
        Kind::Frame => crate::frame::verify(archive),
        Kind::Raw => container::verify_raw(archive),
    }
}

/// [`verify`] for a bare RSH1/RSH2 archive (a frame's shard body).
pub(crate) fn verify_archive(archive: &[u8]) -> Result<RecoveryReport> {
    let opts = DecompressOptions { mode: RecoveryMode::BestEffort, ..Default::default() };
    let parsed = deserialize_with(archive, &opts)?;
    Ok(decode::chunked::damage_report(&parsed.stream, &parsed.chunk_damage))
}

/// A fully parsed archive plus per-chunk verification results.
#[derive(Debug)]
pub struct Parsed {
    /// The chunked payload and its metadata.
    pub stream: ChunkedStream,
    /// The reconstructed canonical codebook.
    pub book: CanonicalCodebook,
    /// Native symbol width recorded in the header.
    pub symbol_bytes: u8,
    /// Container version (1 or 2).
    pub version: u8,
    /// `chunk_damage[ci]` is true when chunk `ci` failed its payload
    /// checksum or lies beyond a truncated payload. All-false for RSH1
    /// archives and under [`Verify::None`] / [`Verify::HeadersOnly`].
    pub chunk_damage: Vec<bool>,
}

/// Serialize a chunked stream + codebook into the current (RSH2)
/// container format, including checksums and the seek-index trailer.
///
/// Errors when a count field overflows its serialized width — a
/// structured [`HuffError::BadArchive`], never a silent `as` truncation.
pub fn serialize(
    stream: &ChunkedStream,
    book: &CanonicalCodebook,
    symbol_bytes: u8,
) -> Result<Vec<u8>> {
    let index = ChunkIndex::build(&stream.chunk_bit_lens, stream.total_bits)?;
    let tail = 4 * stream.num_chunks() + 4 + stream.bytes.len() + index.byte_len();
    let mut buf = header_bytes(MAGIC_V2, stream, book, symbol_bytes, FLAG_SEEK_INDEX, tail)?;
    for ci in 0..stream.num_chunks() {
        let span = chunk_byte_span(stream.chunk_bit_offsets[ci], stream.chunk_bit_lens[ci]);
        buf.extend_from_slice(&crc32(&stream.bytes[span]).to_le_bytes());
    }
    let header_crc = crc32(&buf);
    buf.extend_from_slice(&header_crc.to_le_bytes());
    buf.extend_from_slice(&stream.bytes);
    index.write_to(&mut buf)?;
    Ok(buf)
}

/// Serialize into the legacy RSH1 container (no checksums, no seek
/// index). Kept so the compatibility path stays testable; new archives
/// should use [`serialize`].
pub fn serialize_v1(
    stream: &ChunkedStream,
    book: &CanonicalCodebook,
    symbol_bytes: u8,
) -> Result<Vec<u8>> {
    let mut buf = header_bytes(MAGIC_V1, stream, book, symbol_bytes, 0, stream.bytes.len())?;
    buf.extend_from_slice(&stream.bytes);
    Ok(buf)
}

/// The byte span of the payload a chunk's bits occupy. A chunk with no
/// bits occupies no bytes: its span is explicitly empty (`start..start`)
/// even when its offset lands mid-byte, so its CRC never covers a byte
/// owned entirely by a neighbor.
fn chunk_byte_span(bit_offset: u64, bit_len: u64) -> Range<usize> {
    let start = (bit_offset / 8) as usize;
    if bit_len == 0 {
        return start..start;
    }
    let end = ((bit_offset + bit_len).div_ceil(8)) as usize;
    start..end
}

fn count_u32(n: usize, what: &str) -> Result<u32> {
    u32::try_from(n).map_err(|_| bad(format!("{n} {what} exceed the format's u32 count")))
}

fn count_u16(n: usize, what: &str) -> Result<u16> {
    u16::try_from(n).map_err(|_| bad(format!("{n} {what} exceed the format's u16 count")))
}

/// Everything up to (not including) the checksum fields — shared between
/// both container versions — in a buffer with room for `tail` more bytes,
/// so the caller appends the rest of the archive without reallocating.
fn header_bytes(
    magic: &[u8; 4],
    stream: &ChunkedStream,
    book: &CanonicalCodebook,
    symbol_bytes: u8,
    flags: u8,
    tail: usize,
) -> Result<Vec<u8>> {
    let lengths = book.lengths();
    let n_chunks = stream.chunk_bit_lens.len();
    let outlier_bytes = 10 * stream.outliers.num_units() + 2 * stream.outliers.total_symbols();
    let mut buf = Vec::with_capacity(36 + lengths.len() + 8 * n_chunks + outlier_bytes + tail);
    buf.extend_from_slice(magic);
    buf.push(symbol_bytes);
    buf.push(stream.config.magnitude as u8);
    buf.push(stream.config.reduction as u8);
    buf.push(flags);
    buf.extend_from_slice(&(stream.num_symbols as u64).to_le_bytes());

    buf.extend_from_slice(&count_u32(lengths.len(), "codebook entries")?.to_le_bytes());
    for l in &lengths {
        debug_assert!(*l <= 64);
        buf.push(*l as u8);
    }

    buf.extend_from_slice(&count_u32(n_chunks, "chunks")?.to_le_bytes());
    for &l in &stream.chunk_bit_lens {
        buf.extend_from_slice(&l.to_le_bytes());
    }

    buf.extend_from_slice(&count_u32(stream.outliers.num_units(), "outlier units")?.to_le_bytes());
    for (idx, syms) in stream.outliers.iter() {
        buf.extend_from_slice(&idx.to_le_bytes());
        buf.extend_from_slice(&count_u16(syms.len(), "outlier unit symbols")?.to_le_bytes());
        for &s in syms {
            buf.extend_from_slice(&s.to_le_bytes());
        }
    }

    buf.extend_from_slice(&stream.total_bits.to_le_bytes());
    Ok(buf)
}

/// Parse the container format back into a stream + codebook, verifying
/// fully and strictly (see [`deserialize_with`] for policy control).
pub fn deserialize(archive: &[u8]) -> Result<(ChunkedStream, CanonicalCodebook, u8)> {
    let p = deserialize_with(archive, &DecompressOptions::default())?;
    Ok((p.stream, p.book, p.symbol_bytes))
}

fn bad(msg: impl Into<String>) -> HuffError {
    HuffError::BadArchive(msg.into())
}

/// Parse the container under an explicit verification policy.
///
/// Structural damage (bad magic, truncated or inconsistent header) and —
/// unless `opts.verify` is [`Verify::None`] — a header checksum mismatch
/// are errors in every mode. Per-chunk payload checksums are checked
/// under [`Verify::Full`]: in strict mode the first mismatch is an
/// error; in best-effort mode failures are recorded in
/// [`Parsed::chunk_damage`] instead. A truncated *payload* is an error
/// in strict mode; in best-effort mode the missing tail chunks are
/// marked damaged.
pub fn deserialize_with(archive: &[u8], opts: &DecompressOptions) -> Result<Parsed> {
    let hdr = parse_header(archive, opts.verify)?;
    let n_chunks = hdr.n_chunks;
    let chunk_bit_lens: Vec<u64> = (0..n_chunks).map(|i| hdr.chunk_bit_len(archive, i)).collect();
    let mut chunk_bit_offsets = Vec::with_capacity(n_chunks);
    let mut acc = 0u64;
    for &l in &chunk_bit_lens {
        chunk_bit_offsets.push(acc);
        acc = acc.checked_add(l).ok_or_else(|| bad("chunk bit lengths overflow"))?;
    }
    let total_bits = hdr.total_bits;
    if total_bits != acc {
        return Err(bad(format!("payload length mismatch: header {total_bits}, chunks {acc}")));
    }

    let payload_bytes = hdr.payload_bytes();
    let avail = hdr.payload_avail(archive);
    let best_effort = opts.mode == RecoveryMode::BestEffort;
    if !best_effort && avail < payload_bytes {
        return Err(bad(format!("truncated: need {payload_bytes} more bytes")));
    }
    // Only the bytes present: the chunks past them are damaged (strict
    // mode rejected truncation above), and the decoder reads no further
    // than the bytes hold.
    let bytes = archive[hdr.payload_start..hdr.payload_start + avail].to_vec();

    // Per-chunk verification.
    let check_crc = hdr.version == 2 && opts.verify == Verify::Full;
    let mut chunk_damage = vec![false; n_chunks];
    for ci in 0..n_chunks {
        let span = chunk_byte_span(chunk_bit_offsets[ci], chunk_bit_lens[ci]);
        if span.end > avail {
            chunk_damage[ci] = true;
        } else if check_crc {
            let (expected, got) = (hdr.chunk_crc(archive, ci), crc32(&bytes[span]));
            if got != expected {
                if !best_effort {
                    return Err(HuffError::ChecksumMismatch {
                        section: Section::Payload,
                        chunk: Some(ci as u32),
                        expected,
                        got,
                    });
                }
                chunk_damage[ci] = true;
            }
        }
    }

    Ok(Parsed {
        stream: ChunkedStream {
            config: hdr.config,
            bytes,
            chunk_bit_lens,
            chunk_bit_offsets,
            total_bits,
            num_symbols: hdr.num_symbols,
            outliers: hdr.outliers,
        },
        book: hdr.book,
        symbol_bytes: hdr.symbol_bytes,
        version: hdr.version,
        chunk_damage,
    })
}

/// Map an archive's bytes to container sections.
///
/// Reads the header with the same walker as every decode path, without
/// verifying checksums; used by the fault-injection harness to aim
/// faults at specific sections. The returned ranges tile
/// `[0, archive.len())` in order. Fails on archives whose header does not
/// parse.
pub fn layout(archive: &[u8]) -> Result<Vec<(Section, Range<usize>)>> {
    let hdr = parse_header(archive, Verify::None)?;
    let codebook_end = hdr.chunk_table.start - 4;
    let total_bits_at = hdr.crc_table.as_ref().map_or(hdr.payload_start, |t| t.start) - 8;
    let mut sections = vec![
        (Section::Magic, 0..4),
        (Section::Config, 4..16),
        (Section::Codebook, 16..codebook_end),
        (Section::ChunkTable, codebook_end..hdr.chunk_table.end),
        (Section::Outliers, hdr.chunk_table.end..total_bits_at),
        (Section::TotalBits, total_bits_at..total_bits_at + 8),
    ];
    if let Some(crcs) = &hdr.crc_table {
        sections.push((Section::Checksums, crcs.start..hdr.payload_start));
    }
    // The payload's extent is computed from total_bits; anything after it
    // is the optional seek-index trailer (flags bit 0, version 2 only).
    let payload_end = hdr.payload_start + hdr.payload_avail(archive);
    let indexed = hdr.version == 2 && hdr.flags & FLAG_SEEK_INDEX != 0;
    if indexed && payload_end < archive.len() {
        sections.push((Section::Payload, hdr.payload_start..payload_end));
        sections.push((Section::SeekIndex, payload_end..archive.len()));
    } else {
        sections.push((Section::Payload, hdr.payload_start..archive.len()));
    }
    Ok(sections)
}

/// A parsed header with *positions* instead of materialized tables: the
/// chunk table and CRC table stay in the archive bytes so a range decode
/// reads only the words it needs.
pub(crate) struct HeaderView {
    version: u8,
    pub(crate) symbol_bytes: u8,
    flags: u8,
    config: MergeConfig,
    pub(crate) num_symbols: usize,
    book: CanonicalCodebook,
    n_chunks: usize,
    /// Byte range of `chunk_bit_lens` within the archive.
    chunk_table: Range<usize>,
    outliers: SparseOutliers,
    total_bits: u64,
    /// Byte range of the per-chunk CRC table (version 2).
    crc_table: Option<Range<usize>>,
    /// Where the payload starts; its nominal end is
    /// `start + total_bits.div_ceil(8)` (the archive may be shorter).
    payload_start: usize,
}

impl HeaderView {
    fn payload_bytes(&self) -> usize {
        (self.total_bits as usize).div_ceil(8)
    }

    /// Payload bytes actually present in the archive.
    fn payload_avail(&self, archive: &[u8]) -> usize {
        archive.len().saturating_sub(self.payload_start).min(self.payload_bytes())
    }

    fn chunk_bit_len(&self, archive: &[u8], i: usize) -> u64 {
        let at = self.chunk_table.start + 8 * i;
        u64::from_le_bytes(archive[at..at + 8].try_into().unwrap())
    }

    fn chunk_crc(&self, archive: &[u8], i: usize) -> u32 {
        let t = self.crc_table.as_ref().expect("v2 always has a crc table");
        let at = t.start + 4 * i;
        u32::from_le_bytes(archive[at..at + 4].try_into().unwrap())
    }
}

/// The one walker of the RSH1/RSH2 header, read in place: every read
/// path ([`deserialize_with`], [`layout`], [`range_window`] and
/// [`container::info`]) starts here. It builds the codebook and the
/// outlier sidecar but leaves the chunk and CRC tables in the archive
/// bytes, and never touches the payload. The header CRC is verified
/// unless `verify` is [`Verify::None`] — header damage stays fatal on
/// every path.
pub(crate) fn parse_header(archive: &[u8], verify: Verify) -> Result<HeaderView> {
    let mut r = Reader::new(archive);
    let Prefix { version, symbol_bytes, magnitude, reduction, flags, num_symbols } =
        Prefix::read(&mut r)?;
    if !(2..=24).contains(&magnitude) || reduction == 0 || reduction >= magnitude {
        return Err(bad(format!("bad config M={magnitude} r={reduction}")));
    }
    // Decoded output is little-endian u64 prefixes: at most 8 bytes.
    if symbol_bytes > 8 {
        return Err(bad(format!("bad symbol width {symbol_bytes}")));
    }
    let num_symbols: usize =
        num_symbols.try_into().map_err(|_| bad("symbol count exceeds address space"))?;
    let config = MergeConfig::new(magnitude, reduction);

    let cb_len = r.count("codebook entries", 1)?;
    let lengths: Vec<u32> = r.take(cb_len)?.iter().map(|&l| u32::from(l)).collect();
    // The empty input's archive stores no codebook at all; a missing
    // codebook with symbols present is still structural damage.
    let book = if cb_len == 0 && num_symbols == 0 {
        CanonicalCodebook::empty()
    } else {
        CanonicalCodebook::from_lengths(&lengths).map_err(|e| bad(format!("codebook: {e}")))?
    };

    let n_chunks = r.count("chunks", 8)?;
    if n_chunks != num_symbols.div_ceil(config.chunk_symbols()) {
        return Err(bad(format!("chunk count {n_chunks} inconsistent with {num_symbols} symbols")));
    }
    let chunk_table = r.pos()..r.pos() + 8 * n_chunks;
    r.skip(8 * n_chunks)?;

    let n_outliers = r.count("outlier units", 10)?;
    let unit_syms = config.unit_symbols().max(1);
    let mut outliers = SparseOutliers::new();
    let mut last_idx: Option<u64> = None;
    for _ in 0..n_outliers {
        let idx = r.u64_le()?;
        if last_idx.is_some_and(|l| idx <= l) {
            return Err(bad("outlier units out of order"));
        }
        last_idx = Some(idx);
        let count = usize::from(r.u16_le()?);
        let unit_base = (idx as usize)
            .checked_mul(unit_syms)
            .filter(|&b| b < num_symbols)
            .ok_or_else(|| bad(format!("outlier unit {idx} beyond {num_symbols} symbols")))?;
        let expected = unit_syms.min(num_symbols - unit_base);
        if count != expected {
            return Err(bad(format!(
                "outlier unit {idx} stores {count} symbols, unit holds {expected}"
            )));
        }
        let syms: Vec<u16> =
            r.take(2 * count)?.chunks_exact(2).map(|p| u16::from_le_bytes([p[0], p[1]])).collect();
        outliers.push(idx, &syms);
    }

    let total_bits = r.u64_le()?;

    // Version 2: chunk CRC table + header CRC, then the payload.
    let mut crc_table = None;
    if version == 2 {
        let crc_bytes =
            n_chunks.checked_mul(4).ok_or_else(|| bad("checksum table size overflow"))?;
        crc_table = Some(r.pos()..r.pos() + crc_bytes);
        r.skip(crc_bytes)?;
        let header_end = r.pos();
        let stored = r.u32_le()?;
        if verify != Verify::None {
            let got = crc32(&archive[..header_end]);
            if got != stored {
                return Err(HuffError::ChecksumMismatch {
                    section: Section::Header,
                    chunk: None,
                    expected: stored,
                    got,
                });
            }
        }
    }

    Ok(HeaderView {
        version,
        symbol_bytes,
        flags,
        config,
        num_symbols,
        book,
        n_chunks,
        chunk_table,
        outliers,
        total_bits,
        crc_table,
        payload_start: r.pos(),
    })
}

/// The fixed 16 bytes every RSH1/RSH2 header starts with, read but not
/// validated: the field offsets [`parse_header`] and [`chunk_count`] share.
struct Prefix {
    version: u8,
    symbol_bytes: u8,
    magnitude: u32,
    reduction: u32,
    flags: u8,
    num_symbols: u64,
}

impl Prefix {
    fn read(r: &mut Reader<'_>) -> Result<Self> {
        let version = match r.take(4)? {
            m if m == MAGIC_V1 => 1,
            m if m == MAGIC_V2 => 2,
            _ => return Err(bad("bad magic")),
        };
        Ok(Prefix {
            version,
            symbol_bytes: r.u8()?,
            magnitude: u32::from(r.u8()?),
            reduction: u32::from(r.u8()?),
            flags: r.u8()?,
            num_symbols: r.u64_le()?,
        })
    }
}

// ---------------------------------------------------------------------------
// Random-access range decode
// ---------------------------------------------------------------------------

/// Chunk count from a minimal header peek (magic through the count
/// field) — no codebook build, no chunk-table scan. The frame range
/// decoder uses this to map shard-local chunk indices to frame-global
/// ones without parsing untouched shards.
pub fn chunk_count(archive: &[u8]) -> Result<usize> {
    let mut r = Reader::new(archive);
    Prefix::read(&mut r)?;
    let cb_len = r.u32_le()? as usize;
    r.skip(cb_len)?;
    Ok(r.u32_le()? as usize)
}

/// Load and validate the seek-index trailer; `None` means "no usable
/// index" (absent flag, truncated archive, CRC failure, or disagreement
/// with the header) and the caller falls back to the prefix scan.
fn load_index(archive: &[u8], hdr: &HeaderView) -> Option<ChunkIndex> {
    if hdr.version != 2 || hdr.flags & FLAG_SEEK_INDEX == 0 {
        return None;
    }
    let trailer_start = hdr.payload_start.checked_add(hdr.payload_bytes())?;
    if trailer_start >= archive.len() {
        return None;
    }
    let idx = ChunkIndex::parse(&archive[trailer_start..])?;
    (idx.num_chunks() == hdr.n_chunks as u64 && idx.total_bits() == hdr.total_bits).then_some(idx)
}

/// The decode plan for one byte range: a rebased [`ChunkedStream`]
/// covering exactly the chunks the range touches, plus the bookkeeping
/// to map the window's output back to global coordinates.
///
/// Produced by [`range_window`]; consumed by [`decode_range`] on the
/// host and by `decode::gpu::decode_range_on_gpu` on the modeled device
/// (which charges the probe traffic to the cost model). [`RangeWindow::finish`]
/// turns the window's decoded symbols into the final [`RangeDecode`].
#[derive(Debug)]
pub struct RangeWindow {
    /// The covering chunks as a self-contained stream: offsets rebased
    /// to the window's first payload byte, outlier units rebased to the
    /// window's first unit.
    pub stream: ChunkedStream,
    /// The reconstructed codebook.
    pub book: CanonicalCodebook,
    /// Native symbol width from the header.
    pub symbol_bytes: u8,
    /// First covering chunk (global index).
    pub chunk_lo: usize,
    /// One past the last covering chunk (global index).
    pub chunk_hi: usize,
    /// Total chunks in the archive.
    pub total_chunks: usize,
    /// u64-word probes spent locating the window's chunk offsets.
    pub index_probes: u64,
    /// True when the offsets came from the seek index rather than the
    /// chunk-table prefix scan.
    pub index_used: bool,
    /// Per-window-chunk CRC damage (all false in strict mode, which
    /// errors instead).
    pub damage: Vec<bool>,
    /// The requested byte range, relative to the window's decoded output.
    pub local_bytes: Range<usize>,
}

impl RangeWindow {
    /// Map the window's decoded symbols to the requested bytes and shift
    /// the (window-local) report into global coordinates.
    pub fn finish(self, symbols: &[u16], mut report: RecoveryReport) -> RangeDecode {
        let sb = usize::from(self.symbol_bytes.max(1));
        let sym_base = self.chunk_lo * self.stream.config.chunk_symbols();
        report.total_chunks = self.total_chunks;
        for c in &mut report.damaged_chunks {
            *c += self.chunk_lo;
        }
        for r in &mut report.damaged_ranges {
            r.0 += sym_base;
            r.1 += sym_base;
        }
        let mut bytes = Vec::with_capacity(symbols.len() * sb);
        for &s in symbols {
            bytes.extend_from_slice(&u64::from(s).to_le_bytes()[..sb]);
        }
        let lo = self.local_bytes.start.min(bytes.len());
        let hi = self.local_bytes.end.clamp(lo, bytes.len());
        bytes.drain(hi..);
        bytes.drain(..lo);
        RangeDecode {
            bytes,
            report,
            chunks_touched: self.chunk_hi - self.chunk_lo,
            total_chunks: self.total_chunks,
            index_probes: self.index_probes,
            index_used: self.index_used,
        }
    }
}

/// Plan a range decode over a plain RSH1/RSH2 archive: locate the
/// covering chunks (seek index when present and valid, chunk-table
/// prefix scan otherwise), verify only their payload CRCs, and build the
/// rebased window stream. `range` is in *decoded output bytes* (symbols
/// serialized little-endian at the header's symbol width); it is clamped
/// to the output's extent, and an inverted range is an error.
pub fn range_window(
    archive: &[u8],
    range: Range<u64>,
    opts: &DecompressOptions,
) -> Result<RangeWindow> {
    if range.start > range.end {
        return Err(bad(format!("byte range {}..{} is inverted", range.start, range.end)));
    }
    let hdr = parse_header(archive, opts.verify)?;
    let sb = u64::from(hdr.symbol_bytes.max(1));
    let total_bytes = hdr.num_symbols as u64 * sb;
    let lo = range.start.min(total_bytes);
    let hi = range.end.min(total_bytes);
    let chunk_syms = hdr.config.chunk_symbols() as u64;

    // Covering chunk range; an empty byte range touches no chunks.
    let (c0, c1) = if lo == hi {
        (0, 0)
    } else {
        let sym_lo = lo / sb;
        let sym_hi = hi.div_ceil(sb).min(hdr.num_symbols as u64);
        ((sym_lo / chunk_syms) as usize, (sym_hi.div_ceil(chunk_syms) as usize).min(hdr.n_chunks))
    };
    let span = c1 - c0;

    // Absolute bit offsets off[c0..=c1]: O(1) probes per boundary with
    // the index, a prefix scan of the table without it. An index whose
    // offsets are not monotone within the payload is treated as absent
    // (fail-open), never trusted.
    let mut probes = 0u64;
    let mut index_used = false;
    let mut offs: Vec<u64> = Vec::with_capacity(span + 1);
    if let Some(idx) = load_index(archive, &hdr) {
        let mut p = 0u64;
        let cand: Vec<u64> = (0..=span).map(|k| idx.offset((c0 + k) as u64, &mut p)).collect();
        let monotone = cand.windows(2).all(|w| w[0] <= w[1]);
        if monotone && cand.last().is_none_or(|&e| e <= hdr.total_bits) {
            offs = cand;
            probes += p;
            index_used = true;
        }
    }
    if !index_used {
        let mut acc = 0u64;
        for i in 0..c1 {
            if i >= c0 {
                offs.push(acc);
            }
            acc = acc
                .checked_add(hdr.chunk_bit_len(archive, i))
                .ok_or_else(|| bad("chunk bit lengths overflow"))?;
            probes += 1;
        }
        offs.push(acc);
        if acc > hdr.total_bits {
            return Err(bad(format!(
                "covering chunks end at bit {acc}, past the payload's {}",
                hdr.total_bits
            )));
        }
    }

    // Copy the covering payload bytes that are present (strict mode
    // requires all of them); chunks past them are marked damaged below.
    let best_effort = opts.mode == RecoveryMode::BestEffort;
    let avail = hdr.payload_avail(archive);
    let w_start = (offs[0] / 8) as usize;
    let w_end = (offs[span].div_ceil(8)) as usize;
    if !best_effort && w_end > avail {
        return Err(bad(format!("truncated: need {} more payload bytes", w_end - avail)));
    }
    let src_lo = hdr.payload_start + w_start.min(avail);
    let src_hi = hdr.payload_start + w_end.min(avail);
    let bytes = archive[src_lo..src_hi].to_vec();

    // Verify only the covering chunks' CRCs; the chunks past the bytes
    // present are damaged.
    let check_crc = hdr.version == 2 && opts.verify == Verify::Full;
    let mut damage = vec![false; span];
    for k in 0..span {
        let ci = c0 + k;
        let s = chunk_byte_span(offs[k], offs[k + 1] - offs[k]);
        if s.end > avail {
            damage[k] = true;
        } else if check_crc {
            let got = crc32(&bytes[s.start - w_start..s.end - w_start]);
            if got != hdr.chunk_crc(archive, ci) {
                if !best_effort {
                    return Err(HuffError::ChecksumMismatch {
                        section: Section::Payload,
                        chunk: Some(ci as u32),
                        expected: hdr.chunk_crc(archive, ci),
                        got,
                    });
                }
                damage[k] = true;
            }
        }
    }

    // Rebase chunk offsets, symbol counts, and outlier units into the
    // window's coordinate system.
    let base_bits = w_start as u64 * 8;
    let chunk_bit_offsets: Vec<u64> = offs[..span].iter().map(|&o| o - base_bits).collect();
    let chunk_bit_lens: Vec<u64> = offs.windows(2).map(|w| w[1] - w[0]).collect();
    let num_symbols_w = if span == 0 {
        0
    } else {
        (hdr.num_symbols - c0 * chunk_syms as usize).min(span * chunk_syms as usize)
    };
    let upc = hdr.config.units_per_chunk() as u64;
    let unit_lo = c0 as u64 * upc;
    let unit_hi = c1 as u64 * upc;
    let mut outliers = SparseOutliers::new();
    for (u, syms) in hdr.outliers.iter() {
        if (unit_lo..unit_hi).contains(&u) {
            outliers.push(u - unit_lo, syms);
        }
    }

    let sym_base_bytes = c0 as u64 * chunk_syms * sb;
    Ok(RangeWindow {
        stream: ChunkedStream {
            config: hdr.config,
            bytes,
            chunk_bit_lens,
            chunk_bit_offsets,
            total_bits: offs[span] - base_bits,
            num_symbols: num_symbols_w,
            outliers,
        },
        book: hdr.book,
        symbol_bytes: hdr.symbol_bytes,
        chunk_lo: c0,
        chunk_hi: c1,
        total_chunks: hdr.n_chunks,
        index_probes: probes,
        index_used,
        damage,
        local_bytes: (lo - sym_base_bytes) as usize..(hi - sym_base_bytes) as usize,
    })
}

/// Decode only the chunks covering `range` (in decoded output bytes) and
/// return exactly those bytes.
///
/// The single entry point for all three container formats: RSHM frames
/// dispatch per covering shard, RSHR raw containers slice the stored
/// payload directly, and plain archives decode a [`range_window`]. The
/// range is clamped to the decoded output's extent — `lo..u64::MAX` reads
/// "from lo to the end" — and strict/best-effort semantics mirror
/// [`decompress_with`], restricted to the touched chunks.
///
/// ```
/// use huff_core::archive::{compress, decode_range, CompressOptions};
/// use huff_core::integrity::DecompressOptions;
///
/// let data: Vec<u16> = (0..60_000).map(|i| (i % 251) as u16).collect();
/// let packed = compress(&data, &CompressOptions::new(256)).unwrap();
/// let r = decode_range(&packed, 70_000..70_010, &DecompressOptions::default()).unwrap();
/// assert_eq!(r.bytes.len(), 10);
/// assert_eq!(r.bytes[0], data[35_000] as u8); // byte 70_000 = symbol 35_000, LE low byte
/// assert!(r.chunks_touched < r.total_chunks);
/// assert!(r.index_used);
/// ```
pub fn decode_range(
    archive: &[u8],
    range: Range<u64>,
    opts: &DecompressOptions,
) -> Result<RangeDecode> {
    match container::sniff(archive)? {
        Kind::Archive => decode_archive_range(archive, range, opts),
        Kind::Frame => crate::frame::decode_range(archive, range, opts),
        Kind::Raw => container::raw_range(archive, range, opts),
    }
}

/// [`decode_range`] for a bare RSH1/RSH2 archive (a frame's shard body).
pub(crate) fn decode_archive_range(
    archive: &[u8],
    range: Range<u64>,
    opts: &DecompressOptions,
) -> Result<RangeDecode> {
    let w = range_window(archive, range, opts)?;
    Ok(match opts.mode {
        RecoveryMode::Strict => {
            let symbols = decode::decode_stream(&w.stream, &w.book, opts.decoder)?;
            let report = RecoveryReport::clean(w.chunk_hi - w.chunk_lo);
            w.finish(&symbols, report)
        }
        RecoveryMode::BestEffort => {
            let (symbols, report) = decode::decode_stream_best_effort(
                &w.stream,
                &w.book,
                &w.damage,
                opts.sentinel,
                opts.decoder,
            );
            w.finish(&symbols, report)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(n: usize) -> Vec<u16> {
        (0..n)
            .map(|i| {
                let x = (i as u64).wrapping_mul(0x9E3779B97F4A7C15) >> 40;
                (x % 256) as u16
            })
            .collect()
    }

    #[test]
    fn compress_decompress_roundtrip() {
        let syms = data(30_000);
        let archive = compress(&syms, &CompressOptions::new(256)).unwrap();
        let back = decompress(&archive).unwrap();
        assert_eq!(back, syms);
    }

    #[test]
    fn archive_is_smaller_than_raw_for_skewed_data() {
        let syms: Vec<u16> = (0..100_000).map(|i| if i % 10 == 0 { 1u16 } else { 0 }).collect();
        let archive = compress(&syms, &CompressOptions::new(4)).unwrap();
        assert!(archive.len() < 100_000 / 4, "archive {} bytes", archive.len());
    }

    #[test]
    fn empty_input_roundtrip() {
        // An empty input compresses to a valid empty archive: zero
        // symbols, zero chunks, an empty codebook, an empty CRC table —
        // and every read path agrees.
        let archive = compress(&[], &CompressOptions::new(16)).unwrap();
        assert_eq!(&archive[..4], MAGIC_V2);
        assert_eq!(decompress(&archive).unwrap(), Vec::<u16>::new());
        assert!(verify(&archive).unwrap().is_clean());
        let rec = decompress_with(&archive, &DecompressOptions::best_effort()).unwrap();
        assert!(rec.symbols.is_empty());
        assert!(rec.report.is_clean());
        assert_eq!(rec.report.total_chunks, 0);
        // Every decoder backend returns the same nothing.
        for d in
            [decode::DecoderKind::Serial, decode::DecoderKind::Chunked, decode::DecoderKind::Lut]
        {
            let opts = DecompressOptions::default().with_decoder(d);
            assert!(decompress_with(&archive, &opts).unwrap().symbols.is_empty());
        }
        // Range reads of an empty archive are empty, never an error.
        let r = decode_range(&archive, 0..100, &DecompressOptions::default()).unwrap();
        assert!(r.bytes.is_empty());
        assert_eq!(r.chunks_touched, 0);
        assert_eq!(r.total_chunks, 0);
    }

    #[test]
    fn zero_length_chunk_span_is_empty_not_one_byte() {
        // A zero-bit chunk spans no bytes; the old `end.max(start)` code
        // path conflated "empty" with "one byte when bit-aligned".
        assert_eq!(chunk_byte_span(16, 0), 2..2);
        assert_eq!(chunk_byte_span(17, 0), 2..2);
        assert_eq!(chunk_byte_span(16, 1), 2..3);
        assert_eq!(chunk_byte_span(15, 2), 1..3);
    }

    #[test]
    fn single_symbol_roundtrip() {
        let syms = vec![3u16; 1000];
        let archive = compress(&syms, &CompressOptions::new(16)).unwrap();
        assert_eq!(decompress(&archive).unwrap(), syms);
    }

    #[test]
    fn explicit_reduction_factor_respected() {
        let syms = data(10_000);
        let mut opts = CompressOptions::new(256);
        opts.reduction = Some(2);
        let archive = compress(&syms, &opts).unwrap();
        let (stream, _, _) = deserialize(&archive).unwrap();
        assert_eq!(stream.config.reduction, 2);
        assert_eq!(decompress(&archive).unwrap(), syms);
    }

    #[test]
    fn rejects_bad_magic() {
        let syms = data(100);
        let mut archive = compress(&syms, &CompressOptions::new(256)).unwrap();
        archive[0] = b'X';
        assert!(matches!(decompress(&archive), Err(HuffError::BadArchive(_))));
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let syms = data(5000);
        let archive = compress(&syms, &CompressOptions::new(256)).unwrap();
        let sections = layout(&archive).unwrap();
        let (_, payload) = sections.iter().find(|(s, _)| *s == Section::Payload).unwrap().clone();
        // Every strict prefix ending before the payload does must fail
        // cleanly, never panic. (Prefixes that only lose the fail-open
        // seek-index trailer still decode; see the seek-index tests.)
        for cut in [0, 3, 4, 10, 17, archive.len() / 2, payload.end - 1] {
            assert!(decompress(&archive[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn rejects_corrupt_config() {
        let syms = data(100);
        let mut archive = compress(&syms, &CompressOptions::new(256)).unwrap();
        archive[6] = 99; // reduction byte
        assert!(matches!(decompress(&archive), Err(HuffError::BadArchive(_))));
    }

    #[test]
    fn widen_word_strategy_roundtrip() {
        let syms = data(20_000);
        let mut opts = CompressOptions::new(256);
        opts.strategy = BreakingStrategy::WidenWord;
        let archive = compress(&syms, &opts).unwrap();
        assert_eq!(decompress(&archive).unwrap(), syms);
    }

    #[test]
    fn header_records_symbol_width() {
        let syms = data(1000);
        let mut opts = CompressOptions::new(256);
        opts.symbol_bytes = 1;
        let archive = compress(&syms, &opts).unwrap();
        let (_, _, sb) = deserialize(&archive).unwrap();
        assert_eq!(sb, 1);
    }

    #[test]
    fn writes_v2_magic_and_reads_v1() {
        let syms = data(4000);
        let archive = compress(&syms, &CompressOptions::new(256)).unwrap();
        assert_eq!(&archive[..4], MAGIC_V2);

        let (stream, book, sb) = deserialize(&archive).unwrap();
        let legacy = serialize_v1(&stream, &book, sb).unwrap();
        assert_eq!(&legacy[..4], MAGIC_V1);
        assert_eq!(decompress(&legacy).unwrap(), syms);
    }

    #[test]
    fn payload_flip_fails_strict_with_typed_error() {
        let syms = data(20_000);
        let archive = compress(&syms, &CompressOptions::new(256)).unwrap();
        let sections = layout(&archive).unwrap();
        let (_, payload) = sections.iter().find(|(s, _)| *s == Section::Payload).unwrap().clone();
        let mut corrupt = archive.clone();
        corrupt[payload.start + payload.len() / 2] ^= 0x10;
        match decompress(&corrupt) {
            Err(HuffError::ChecksumMismatch {
                section: Section::Payload, chunk: Some(_), ..
            }) => {}
            other => panic!("expected payload checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn payload_flip_recovers_best_effort() {
        let syms = data(20_000);
        let archive = compress(&syms, &CompressOptions::new(256)).unwrap();
        let sections = layout(&archive).unwrap();
        let (_, payload) = sections.iter().find(|(s, _)| *s == Section::Payload).unwrap().clone();
        let mut corrupt = archive.clone();
        corrupt[payload.start + payload.len() / 2] ^= 0x10;

        let opts = DecompressOptions::best_effort();
        let rec = decompress_with(&corrupt, &opts).unwrap();
        assert_eq!(rec.symbols.len(), syms.len());
        assert!(!rec.report.is_clean());
        assert!(rec.report.symbols_lost > 0);
        // Outside the damaged ranges, every symbol is intact.
        let mut lost = vec![false; syms.len()];
        for &(s, e) in &rec.report.damaged_ranges {
            lost[s..e].iter_mut().for_each(|b| *b = true);
        }
        for i in 0..syms.len() {
            if lost[i] {
                assert_eq!(rec.symbols[i], opts.sentinel, "index {i}");
            } else {
                assert_eq!(rec.symbols[i], syms[i], "index {i}");
            }
        }
    }

    #[test]
    fn header_flip_is_fatal_even_best_effort() {
        let syms = data(5000);
        let archive = compress(&syms, &CompressOptions::new(256)).unwrap();
        let sections = layout(&archive).unwrap();
        let (_, cb) = sections.iter().find(|(s, _)| *s == Section::Codebook).unwrap().clone();
        let mut corrupt = archive.clone();
        corrupt[cb.start + 5] ^= 0x01;
        let r = decompress_with(&corrupt, &DecompressOptions::best_effort());
        assert!(r.is_err());
    }

    #[test]
    fn verify_reports_damaged_chunks_without_decoding() {
        let syms = data(40_000);
        let archive = compress(&syms, &CompressOptions::new(256)).unwrap();
        assert!(verify(&archive).unwrap().is_clean());

        let sections = layout(&archive).unwrap();
        let (_, payload) = sections.iter().find(|(s, _)| *s == Section::Payload).unwrap().clone();
        let mut corrupt = archive.clone();
        corrupt[payload.start + 3] ^= 0x80;
        let report = verify(&corrupt).unwrap();
        assert!(!report.is_clean());
        assert!(report.damaged_chunks.contains(&0));
    }

    #[test]
    fn verify_none_skips_checksums() {
        let syms = data(20_000);
        let archive = compress(&syms, &CompressOptions::new(256)).unwrap();
        let sections = layout(&archive).unwrap();
        let (_, payload) = sections.iter().find(|(s, _)| *s == Section::Payload).unwrap().clone();
        let mut corrupt = archive.clone();
        // Flip a padding-adjacent bit that still decodes: CRC would catch
        // it, Verify::None must not.
        corrupt[payload.start] ^= 0x01;
        let opts = DecompressOptions { verify: Verify::None, ..Default::default() };
        // May decode to wrong symbols or hit a corrupt stream — but it
        // must not be a checksum error.
        match decompress_with(&corrupt, &opts) {
            Ok(_) => {}
            Err(HuffError::ChecksumMismatch { .. }) => panic!("Verify::None ran checksums"),
            Err(_) => {}
        }
    }

    #[test]
    fn layout_tiles_the_archive() {
        let syms = data(10_000);
        let archive = compress(&syms, &CompressOptions::new(256)).unwrap();
        let sections = layout(&archive).unwrap();
        let mut cursor = 0;
        for (_, r) in &sections {
            assert_eq!(r.start, cursor);
            cursor = r.end;
        }
        assert_eq!(cursor, archive.len());
        assert!(sections.iter().any(|(s, _)| *s == Section::Checksums));
        // Fresh archives carry the seek-index trailer as its own section.
        let (_, idx) = sections.iter().find(|(s, _)| *s == Section::SeekIndex).unwrap();
        assert!(!idx.is_empty());
    }

    fn bytes_of(syms: &[u16], sb: usize) -> Vec<u8> {
        syms.iter().flat_map(|&s| u64::from(s).to_le_bytes()[..sb].to_vec()).collect()
    }

    #[test]
    fn decode_range_matches_slice_of_full_decode() {
        let syms = data(60_000);
        let archive = compress(&syms, &CompressOptions::new(256)).unwrap();
        let full = bytes_of(&syms, 2);
        for d in
            [decode::DecoderKind::Serial, decode::DecoderKind::Chunked, decode::DecoderKind::Lut]
        {
            let opts = DecompressOptions::default().with_decoder(d);
            // In-chunk, chunk-straddling, odd (mid-symbol) endpoints, the
            // very tail, past-the-end clamping, and the empty range.
            for (a, b) in [
                (0, 10),
                (511, 1025),
                (60_000, 61_001),
                (119_990, 200_000),
                (777, 777),
                (0, 120_000),
            ] {
                let r = decode_range(&archive, a..b, &opts).unwrap();
                let (a, b) = (a.min(120_000) as usize, b.min(120_000) as usize);
                assert_eq!(r.bytes, &full[a..b], "{a}..{b} via {}", d.name());
                assert!(r.report.is_clean());
            }
        }
        let r = decode_range(&archive, 1000..1010, &DecompressOptions::default()).unwrap();
        assert!(r.index_used, "v2 archives carry a usable index");
        assert!(r.chunks_touched < r.total_chunks);
        assert!(r.index_probes > 0);
        // Inverted bounds are a structured error, not a silent empty slice.
        #[allow(clippy::reversed_empty_ranges)]
        let inverted = 10..5;
        assert!(decode_range(&archive, inverted, &DecompressOptions::default()).is_err());
    }

    #[test]
    fn corrupt_seek_index_falls_open_to_prefix_scan() {
        let syms = data(60_000);
        let archive = compress(&syms, &CompressOptions::new(256)).unwrap();
        let sections = layout(&archive).unwrap();
        let (_, idx) = sections.iter().find(|(s, _)| *s == Section::SeekIndex).unwrap().clone();

        let baseline =
            decode_range(&archive, 30_000..30_200, &DecompressOptions::default()).unwrap();
        assert!(baseline.index_used);

        // Flip one byte anywhere in the trailer: decode_range must return
        // identical bytes through the chunk-table scan, and full decodes
        // must not notice the trailer at all.
        for at in [idx.start, idx.start + 7, idx.start + idx.len() / 2, idx.end - 1] {
            let mut corrupt = archive.clone();
            corrupt[at] ^= 0x40;
            let r = decode_range(&corrupt, 30_000..30_200, &DecompressOptions::default()).unwrap();
            assert_eq!(r.bytes, baseline.bytes, "flip at {at}");
            assert!(!r.index_used, "flip at {at} must disable the index");
            assert_eq!(decompress(&corrupt).unwrap(), syms, "flip at {at}");
            assert!(verify(&corrupt).unwrap().is_clean(), "flip at {at}");
        }

        // Truncating the trailer entirely is equally survivable.
        let r = decode_range(&archive[..idx.start], 30_000..30_200, &DecompressOptions::default())
            .unwrap();
        assert_eq!(r.bytes, baseline.bytes);
        assert!(!r.index_used);
    }

    #[test]
    fn v1_archives_range_decode_via_scan() {
        let syms = data(20_000);
        let archive = compress(&syms, &CompressOptions::new(256)).unwrap();
        let (stream, book, sb) = deserialize(&archive).unwrap();
        let legacy = serialize_v1(&stream, &book, sb).unwrap();
        let full = bytes_of(&syms, 2);
        let r = decode_range(&legacy, 10_000..10_300, &DecompressOptions::default()).unwrap();
        assert_eq!(r.bytes, &full[10_000..10_300]);
        assert!(!r.index_used, "v1 has no index; scan must serve the range");
        assert!(r.index_probes > 0, "the scan's table reads are still accounted");
    }

    #[test]
    fn decode_range_checks_only_covering_chunks() {
        let syms = data(60_000);
        let archive = compress(&syms, &CompressOptions::new(256)).unwrap();
        let sections = layout(&archive).unwrap();
        let (_, payload) = sections.iter().find(|(s, _)| *s == Section::Payload).unwrap().clone();

        // Damage the payload near the end; a range at the start must still
        // verify and decode cleanly (its covering chunks are intact)...
        let mut corrupt = archive.clone();
        corrupt[payload.end - 3] ^= 0x20;
        let full = bytes_of(&syms, 2);
        let r = decode_range(&corrupt, 0..500, &DecompressOptions::default()).unwrap();
        assert_eq!(r.bytes, &full[0..500]);
        assert!(r.report.is_clean());

        // ...while a range over the damaged tail fails strict with the
        // typed error and recovers best-effort with sentinel fill.
        let tail = 119_000..120_000;
        match decode_range(&corrupt, tail.clone(), &DecompressOptions::default()) {
            Err(HuffError::ChecksumMismatch {
                section: Section::Payload, chunk: Some(_), ..
            }) => {}
            other => panic!("expected chunk checksum mismatch, got {other:?}"),
        }
        let opts = DecompressOptions::best_effort().with_sentinel(0xEEEE);
        let r = decode_range(&corrupt, tail, &opts).unwrap();
        assert_eq!(r.bytes.len(), 1000);
        assert!(!r.report.is_clean());
        assert!(r.report.damaged_chunks.iter().all(|&c| c >= r.total_chunks - 2));
    }

    #[test]
    fn truncated_payload_best_effort_recovers_prefix() {
        let syms = data(50_000);
        let archive = compress(&syms, &CompressOptions::new(256)).unwrap();
        let sections = layout(&archive).unwrap();
        let (_, payload) = sections.iter().find(|(s, _)| *s == Section::Payload).unwrap().clone();
        // Keep only the first half of the payload.
        let cut = payload.start + payload.len() / 2;
        let rec = decompress_with(&archive[..cut], &DecompressOptions::best_effort()).unwrap();
        assert_eq!(rec.symbols.len(), syms.len());
        assert!(!rec.report.is_clean());
        // Some prefix must survive: chunk 0 is within the first half.
        assert!(!rec.report.damaged_chunks.contains(&0));
        assert!(decompress(&archive[..cut]).is_err(), "strict must reject truncation");
    }
}
