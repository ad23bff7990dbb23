//! Container dispatch: the one place that tells the on-disk formats apart.
//!
//! Three containers share the `RSH` magic family (FORMAT.md):
//!
//! * [`Kind::Archive`] — `RSH1`/`RSH2`, one chunked stream
//!   ([`crate::archive`]);
//! * [`Kind::Frame`] — `RSHM`, independently compressed shards, each a
//!   bare RSH1/RSH2 archive ([`crate::frame`]);
//! * [`Kind::Raw`] — `RSHR`, symbols stored uncompressed (the autotuner's
//!   store-raw early exit, defined in this module).
//!
//! [`sniff`] is the only code that branches on a container magic; each
//! format's own parser still rejects a magic that is not its own. The
//! public entry points [`crate::archive::decompress_with`],
//! [`crate::archive::verify`] and [`crate::archive::decode_range`] are one
//! `match` on [`sniff`] each, and a frame decodes its shards through the
//! bare archive path, so a shard body can never be a frame or a raw
//! container.

use crate::archive;
use crate::error::{HuffError, Result};
use crate::frame;
use crate::integrity::{
    crc32, DecompressOptions, RangeDecode, Recovered, RecoveryMode, RecoveryReport, Section,
    ShardTally, Verify,
};
use crate::wire::Reader;
use std::ops::Range;

/// Which container a byte string holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A single-stream archive, `RSH1` or `RSH2`.
    Archive,
    /// A multi-shard frame, `RSHM`.
    Frame,
    /// A store-raw container, `RSHR`.
    Raw,
}

/// The header fields every container records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Info {
    /// The container format.
    pub kind: Kind,
    /// Native symbol width in bytes.
    pub symbol_bytes: u8,
    /// Decoded symbol count.
    pub num_symbols: u64,
}

fn bad(msg: impl Into<String>) -> HuffError {
    HuffError::BadArchive(msg.into())
}

/// Identify the container from its 4-byte magic.
pub fn sniff(bytes: &[u8]) -> Result<Kind> {
    match bytes.first_chunk::<4>() {
        Some(archive::MAGIC_V1 | archive::MAGIC_V2) => Ok(Kind::Archive),
        Some(frame::MAGIC) => Ok(Kind::Frame),
        Some(RAW_MAGIC) => Ok(Kind::Raw),
        Some(_) => Err(bad("bad magic")),
        None => Err(bad("truncated: no container magic")),
    }
}

/// Read a container's kind, symbol width and symbol count from its header
/// alone: no payload is read and no payload checksum is computed. The
/// RSH1/RSH2 and RSHM headers are walked without their header checksum
/// (as under [`Verify::None`]); the fixed 24-byte RSHR header is always
/// checked, as its own decoder does.
pub fn info(bytes: &[u8]) -> Result<Info> {
    let kind = sniff(bytes)?;
    let (symbol_bytes, num_symbols) = match kind {
        Kind::Archive => {
            let hdr = archive::parse_header(bytes, Verify::None)?;
            (hdr.symbol_bytes, hdr.num_symbols as u64)
        }
        Kind::Frame => {
            let f = frame::parse(bytes, Verify::None)?;
            (f.symbol_bytes, f.total_symbols)
        }
        Kind::Raw => {
            let raw = RawView::parse(bytes)?;
            (raw.symbol_bytes, raw.num_symbols as u64)
        }
    };
    Ok(Info { kind, symbol_bytes, num_symbols })
}

// ---------------------------------------------------------------------------
// The RSHR store-raw container
// ---------------------------------------------------------------------------

const RAW_MAGIC: &[u8; 4] = b"RSHR";
const RAW_VERSION: u8 = 1;
const RAW_HEADER_LEN: usize = 24;

/// Store `symbols` uncompressed in the `RSHR` raw container (the
/// [`crate::tune::Dispatch::StoreRaw`] output; layout in FORMAT.md §9.1):
///
/// ```text
/// magic "RSHR" | version u8 | symbol_bytes u8 | pad u16
/// num_symbols u64 | payload_crc u32 | header_crc u32
/// payload   num_symbols × symbol_bytes little-endian bytes
/// ```
///
/// With `symbol_bytes == 1` every symbol must fit a byte.
pub fn store_raw(symbols: &[u16], symbol_bytes: u8) -> Result<Vec<u8>> {
    if symbol_bytes != 1 && symbol_bytes != 2 {
        return Err(bad(format!("raw container: symbol_bytes {symbol_bytes}")));
    }
    // The payload goes straight after the header; its checksum and the
    // header's are filled in once it is written.
    let mut buf = Vec::with_capacity(RAW_HEADER_LEN + symbols.len() * usize::from(symbol_bytes));
    buf.extend_from_slice(RAW_MAGIC);
    buf.extend_from_slice(&[RAW_VERSION, symbol_bytes, 0, 0]);
    buf.extend_from_slice(&(symbols.len() as u64).to_le_bytes());
    buf.resize(RAW_HEADER_LEN, 0);
    for &s in symbols {
        if symbol_bytes == 1 {
            if s > 0xFF {
                return Err(HuffError::SymbolOutOfRange { symbol: usize::from(s), codebook: 256 });
            }
            buf.push(s as u8);
        } else {
            buf.extend_from_slice(&s.to_le_bytes());
        }
    }
    let payload_crc = crc32(&buf[RAW_HEADER_LEN..]);
    buf[16..20].copy_from_slice(&payload_crc.to_le_bytes());
    let header_crc = crc32(&buf[..20]);
    buf[20..24].copy_from_slice(&header_crc.to_le_bytes());
    Ok(buf)
}

/// A checksummed `RSHR` header plus the payload bytes actually present.
/// Header damage is fatal, mirroring the RSH2/RSHM rule.
struct RawView<'a> {
    symbol_bytes: u8,
    num_symbols: usize,
    /// Payload length the header promises, in bytes.
    want: usize,
    /// The payload present in the input, at most `want` bytes.
    payload: &'a [u8],
    stored_crc: u32,
}

impl<'a> RawView<'a> {
    fn parse(bytes: &'a [u8]) -> Result<Self> {
        let bad = |m: &str| bad(format!("raw container: {m}"));
        let mut r = Reader::new(bytes);
        if r.take(4)? != RAW_MAGIC {
            return Err(bad("bad magic"));
        }
        let version = r.u8()?;
        if version != RAW_VERSION {
            return Err(bad(&format!("unsupported version {version}")));
        }
        let symbol_bytes = r.u8()?;
        if symbol_bytes != 1 && symbol_bytes != 2 {
            return Err(bad(&format!("symbol_bytes {symbol_bytes}")));
        }
        r.skip(2)?;
        let num_symbols = r.u64_le()?;
        let stored_crc = r.u32_le()?;
        let header_end = r.pos();
        let stored = r.u32_le()?;
        let got = crc32(&bytes[..header_end]);
        if got != stored {
            return Err(HuffError::ChecksumMismatch {
                section: Section::Header,
                chunk: None,
                expected: stored,
                got,
            });
        }
        let num_symbols: usize =
            num_symbols.try_into().map_err(|_| bad("count exceeds address space"))?;
        let want = num_symbols
            .checked_mul(usize::from(symbol_bytes))
            .ok_or_else(|| bad("count exceeds address space"))?;
        let payload = r.take(r.remaining().min(want))?;
        Ok(RawView { symbol_bytes, num_symbols, want, payload, stored_crc })
    }

    fn truncated(&self) -> bool {
        self.payload.len() < self.want
    }

    /// Whether the payload is usable under `verify`: present in full and,
    /// under [`Verify::Full`], passing its checksum.
    fn intact(&self, verify: Verify) -> bool {
        !self.truncated() && (verify != Verify::Full || crc32(self.payload) == self.stored_crc)
    }

    /// The strict-mode error for a payload that is not [`Self::intact`].
    fn damage_error(&self) -> HuffError {
        if self.truncated() {
            return bad("raw container: truncated payload");
        }
        HuffError::ChecksumMismatch {
            section: Section::Payload,
            chunk: Some(0),
            expected: self.stored_crc,
            got: crc32(self.payload),
        }
    }

    /// The report for a damaged payload. A truncation keeps the intact
    /// whole-symbol prefix; a checksum failure without truncation cannot
    /// be localized (one checksum spans the payload), so nothing is kept.
    /// The container counts as one opaque chunk.
    fn damage_report(&self) -> RecoveryReport {
        let keep =
            if self.truncated() { self.payload.len() / usize::from(self.symbol_bytes) } else { 0 };
        let mut report = RecoveryReport::clean(1);
        report.damaged_chunks.push(0);
        report.damaged_ranges.push((keep, self.num_symbols));
        report.symbols_lost = self.num_symbols - keep;
        report
    }
}

/// Decode an `RSHR` container under the usual verification and recovery
/// policy. Strict mode requires the payload complete and its checksum
/// passing; best-effort mode recovers the available prefix and
/// sentinel-fills the rest.
pub(crate) fn decompress_raw(bytes: &[u8], opts: &DecompressOptions) -> Result<Recovered> {
    let raw = RawView::parse(bytes)?;
    let intact = raw.intact(opts.verify);
    if !intact && opts.mode == RecoveryMode::Strict {
        return Err(raw.damage_error());
    }
    let mut symbols: Vec<u16> = match raw.symbol_bytes {
        1 => raw.payload.iter().map(|&b| u16::from(b)).collect(),
        _ => raw.payload.chunks_exact(2).map(|p| u16::from_le_bytes([p[0], p[1]])).collect(),
    };
    let report = if intact {
        RecoveryReport::clean(1)
    } else {
        let report = raw.damage_report();
        let keep = raw.num_symbols - report.symbols_lost;
        symbols.truncate(keep);
        symbols.resize(raw.num_symbols, opts.sentinel);
        report
    };
    Ok(Recovered { symbols, report, symbol_bytes: raw.symbol_bytes, shards: ShardTally::default() })
}

/// Range-read an `RSHR` container. The stored payload *is* the decoded
/// output (symbols at their native width, little-endian), so a range
/// read is a bounds-checked slice — the raw container's analogue of the
/// seek index. `range` is clamped to the payload's extent; under
/// [`Verify::Full`] the payload checksum is still verified first
/// (the container has no finer-grained checksums to verify per range).
pub(crate) fn raw_range(
    bytes: &[u8],
    range: Range<u64>,
    opts: &DecompressOptions,
) -> Result<RangeDecode> {
    if range.start > range.end {
        return Err(bad(format!(
            "raw container: byte range {}..{} is inverted",
            range.start, range.end
        )));
    }
    let raw = RawView::parse(bytes)?;
    let lo = range.start.min(raw.want as u64) as usize;
    let hi = range.end.min(raw.want as u64) as usize;
    let (out, report) = if raw.intact(opts.verify) {
        (raw.payload[lo..hi].to_vec(), RecoveryReport::clean(1))
    } else if opts.mode == RecoveryMode::Strict {
        return Err(raw.damage_error());
    } else {
        // Mirrors decompress_raw: the kept prefix reads through, the
        // rest reads as sentinel bytes.
        let report = raw.damage_report();
        let sb = usize::from(raw.symbol_bytes);
        let keep_bytes = (raw.num_symbols - report.symbols_lost) * sb;
        let sentinel = opts.sentinel.to_le_bytes();
        let out = (lo..hi)
            .map(|p| if p < keep_bytes { raw.payload[p] } else { sentinel[p % sb] })
            .collect();
        (out, report)
    };
    Ok(RangeDecode {
        bytes: out,
        report,
        chunks_touched: usize::from(hi > lo),
        total_chunks: 1,
        index_probes: 0,
        index_used: false,
    })
}

/// Check an `RSHR` container's checksums without materializing symbols.
pub(crate) fn verify_raw(bytes: &[u8]) -> Result<RecoveryReport> {
    let raw = RawView::parse(bytes)?;
    Ok(if raw.intact(Verify::Full) { RecoveryReport::clean(1) } else { raw.damage_report() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archive::{compress, CompressOptions};

    #[test]
    fn sniff_names_every_container_and_rejects_the_rest() {
        let data: Vec<u16> = (0..3000).map(|i| (i % 40) as u16).collect();
        let packed = compress(&data, &CompressOptions::new(64)).unwrap();
        let frame = frame::assemble(std::slice::from_ref(&packed), 3000, 4096, 2).unwrap();
        let raw = store_raw(&data, 2).unwrap();
        for (bytes, kind) in [(&packed, Kind::Archive), (&frame, Kind::Frame), (&raw, Kind::Raw)] {
            assert_eq!(sniff(bytes).unwrap(), kind);
            let i = info(bytes).unwrap();
            assert_eq!((i.kind, i.symbol_bytes, i.num_symbols), (kind, 2, 3000));
        }
        assert!(sniff(b"RSH").is_err());
        assert!(sniff(b"RSHX....").is_err());
        assert!(info(&raw[..RAW_HEADER_LEN - 1]).is_err());
    }
}
