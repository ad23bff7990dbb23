//! Archive integrity: checksums, verification policy, recovery reporting.
//!
//! The RSH2 container ([`crate::archive`]) protects itself with CRC32
//! checksums at two granularities:
//!
//! * a **header checksum** over every byte that precedes it (magic,
//!   config, codebook lengths, chunk table, outlier sidecar, total-bits
//!   field and the per-chunk checksum table) — header damage is fatal
//!   because the codebook and chunk offsets are required to decode
//!   anything at all;
//! * a **per-chunk payload checksum** over the byte span each chunk's
//!   bits occupy — chunks decode independently (that is the point of
//!   chunking, Section III-A of the paper), so payload damage can be
//!   localized to the chunks whose spans cover the damaged bytes.
//!
//! [`DecompressOptions`] selects how much of this is checked
//! ([`Verify`]) and what happens when a check fails ([`RecoveryMode`]):
//! `Strict` turns the first mismatch into
//! [`HuffError::ChecksumMismatch`](crate::error::HuffError::ChecksumMismatch),
//! while `BestEffort` decodes every chunk whose checksum passes, fills
//! the symbols of damaged chunks with a sentinel, and reports the damage
//! in a [`RecoveryReport`].
//!
//! The CRC32 here is the standard IEEE 802.3 polynomial (reflected,
//! `0xEDB88320`), implemented in-repo so the workspace stays
//! dependency-free.

use std::fmt;

/// IEEE 802.3 CRC32 lookup table, built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// Slicing-by-8 tables: `CRC_TABLES[k][b]` is the CRC register after
/// byte `b` is followed by `k` zero bytes, so eight input bytes fold into
/// the register with eight independent lookups instead of a chain of
/// eight dependent ones. `CRC_TABLES[0]` is [`CRC_TABLE`].
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    tables[0] = CRC_TABLE;
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ CRC_TABLE[(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Streaming CRC32 (IEEE 802.3, as used by gzip/zlib/PNG).
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// A fresh hasher.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feed `bytes` into the running checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &CRC_TABLES;
        let mut c = self.state;
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            c = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][w[4] as usize]
                ^ t[2][w[5] as usize]
                ^ t[1][w[6] as usize]
                ^ t[0][w[7] as usize];
        }
        for &b in words.remainder() {
            c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        self.state = c;
    }

    /// Finish and return the checksum.
    pub fn finalize(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(bytes);
    h.finalize()
}

/// A region of the archive container, for checksum errors and fault maps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    /// The 4-byte magic.
    Magic,
    /// The fixed config fields (symbol width, magnitude, reduction,
    /// pad, symbol count).
    Config,
    /// The codeword-length table.
    Codebook,
    /// The per-chunk bit-length table.
    ChunkTable,
    /// The sparse breaking-unit sidecar.
    Outliers,
    /// The total-bits field.
    TotalBits,
    /// The per-chunk CRC table plus the header CRC (RSH2 only).
    Checksums,
    /// The entire checksummed header region (everything before the
    /// payload) when damage cannot be attributed more precisely.
    Header,
    /// The compressed bitstream.
    Payload,
    /// The optional seek-index trailer after the payload (RSH2 only;
    /// fail-open — damage here degrades to the chunk-table prefix scan).
    SeekIndex,
}

impl fmt::Display for Section {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Section::Magic => "magic",
            Section::Config => "config",
            Section::Codebook => "codebook",
            Section::ChunkTable => "chunk table",
            Section::Outliers => "outlier sidecar",
            Section::TotalBits => "total bits",
            Section::Checksums => "checksum table",
            Section::Header => "header",
            Section::Payload => "payload",
            Section::SeekIndex => "seek index",
        };
        f.write_str(name)
    }
}

/// How much of the archive's checksum metadata to check on read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Verify {
    /// Check the header checksum and every per-chunk payload checksum.
    #[default]
    Full,
    /// Check only the header checksum; trust the payload.
    HeadersOnly,
    /// Skip all checksum verification (RSH1-era behavior).
    None,
}

/// What to do when verification or decoding fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryMode {
    /// Fail on the first mismatch with a typed error.
    #[default]
    Strict,
    /// Decode every chunk that passes its checksum, sentinel-fill the
    /// rest, and report the damage instead of aborting. Header damage is
    /// still fatal — without the codebook and chunk offsets nothing can
    /// be decoded.
    BestEffort,
}

/// Options threaded through `decompress_with` / `deserialize_with`.
#[derive(Debug, Clone, Copy)]
pub struct DecompressOptions {
    /// Checksum verification depth.
    pub verify: Verify,
    /// Strict abort vs best-effort recovery.
    pub mode: RecoveryMode,
    /// Symbol written into regions lost to damaged chunks in
    /// best-effort mode.
    pub sentinel: u16,
    /// Decoder backend for the payload (all backends are bit-exact; see
    /// [`DecoderKind`](crate::decode::DecoderKind)).
    pub decoder: crate::decode::DecoderKind,
}

impl Default for DecompressOptions {
    fn default() -> Self {
        DecompressOptions {
            verify: Verify::Full,
            mode: RecoveryMode::Strict,
            sentinel: u16::MAX,
            decoder: crate::decode::DecoderKind::default(),
        }
    }
}

impl DecompressOptions {
    /// Strict, fully-verified decompression (the default).
    pub fn strict() -> Self {
        Self::default()
    }

    /// Best-effort recovery with full verification.
    pub fn best_effort() -> Self {
        DecompressOptions { mode: RecoveryMode::BestEffort, ..Self::default() }
    }

    /// Replace the sentinel symbol used for lost regions.
    pub fn with_sentinel(mut self, sentinel: u16) -> Self {
        self.sentinel = sentinel;
        self
    }

    /// Select the decoder backend.
    pub fn with_decoder(mut self, decoder: crate::decode::DecoderKind) -> Self {
        self.decoder = decoder;
        self
    }
}

/// What best-effort recovery salvaged and what it lost.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Total chunks in the archive.
    pub total_chunks: usize,
    /// Indices of chunks whose checksum failed or whose decode errored.
    pub damaged_chunks: Vec<usize>,
    /// Half-open `[start, end)` symbol-index ranges of the output that
    /// were sentinel-filled. Outlier units inside damaged chunks are
    /// *not* listed: their raw symbols live in the (header-protected)
    /// sidecar and are recovered exactly.
    pub damaged_ranges: Vec<(usize, usize)>,
    /// Total symbols sentinel-filled (the sum of range widths).
    pub symbols_lost: usize,
}

impl RecoveryReport {
    /// A clean report over `total_chunks` chunks.
    pub fn clean(total_chunks: usize) -> Self {
        RecoveryReport { total_chunks, ..Self::default() }
    }

    /// True when nothing was damaged.
    pub fn is_clean(&self) -> bool {
        self.damaged_chunks.is_empty() && self.symbols_lost == 0
    }
}

/// How a frame's shards came through a decode: clean, or recovered
/// best-effort (damaged or unreadable). All zero for a bare archive or a
/// raw container, which have no shards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardTally {
    /// Shards decoded clean.
    pub ok: usize,
    /// Shards recovered best-effort.
    pub recovered: usize,
}

/// The result of a best-effort decompression.
#[derive(Debug, Clone)]
pub struct Recovered {
    /// The decoded symbols; damaged regions hold the sentinel.
    pub symbols: Vec<u16>,
    /// Which chunks and symbol ranges were lost.
    pub report: RecoveryReport,
    /// Native symbol width from the container header (decoded output
    /// bytes per symbol).
    pub symbol_bytes: u8,
    /// Shard outcomes of a frame decode; zero for a bare archive.
    pub shards: ShardTally,
}

/// The result of a random-access range decode
/// ([`crate::archive::decode_range`]): the requested bytes plus an
/// accounting of how little of the archive was touched to produce them.
#[derive(Debug, Clone)]
pub struct RangeDecode {
    /// The decoded output bytes for the (clamped) requested range —
    /// symbols serialized little-endian at the archive's symbol width.
    pub bytes: Vec<u8>,
    /// Damage report in *global* coordinates (chunk indices and symbol
    /// ranges refer to the whole archive, not the decoded window).
    pub report: RecoveryReport,
    /// Chunks actually decoded (the covering window).
    pub chunks_touched: usize,
    /// Total chunks in the archive.
    pub total_chunks: usize,
    /// u64-word probes spent locating chunk offsets: a few per chunk
    /// boundary with the seek index, O(chunks) for the prefix-scan
    /// fallback.
    pub index_probes: u64,
    /// True when the seek-index trailer was present, valid, and used;
    /// false when offsets came from the chunk-table prefix scan.
    pub index_used: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // The canonical check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn crc32_streaming_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let mut h = Crc32::new();
        for part in data.chunks(37) {
            h.update(part);
        }
        assert_eq!(h.finalize(), crc32(&data));
    }

    #[test]
    fn crc32_split_at_every_offset_matches_oneshot_and_bytewise() {
        // Slicing-by-8 folds eight bytes at a time and leaves a byte-wise
        // remainder, so every length mod 8 and every split point of a
        // streamed update has to land on the same register.
        let bytewise = |bytes: &[u8]| {
            let mut c = 0xFFFF_FFFFu32;
            for &b in bytes {
                c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
            }
            c ^ 0xFFFF_FFFF
        };
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for len in 0..=64usize {
            let data: Vec<u8> = (0..len)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    (x >> 56) as u8
                })
                .collect();
            let want = bytewise(&data);
            assert_eq!(crc32(&data), want, "len {len}");
            for split in 0..=len {
                let mut h = Crc32::new();
                h.update(&data[..split]);
                h.update(&data[split..]);
                assert_eq!(h.finalize(), want, "len {len} split {split}");
            }
        }
    }

    #[test]
    fn crc32_detects_single_bit_flips() {
        let data = vec![0xA5u8; 64];
        let base = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut d = data.clone();
                d[byte] ^= 1 << bit;
                assert_ne!(crc32(&d), base, "byte {byte} bit {bit}");
            }
        }
    }

    #[test]
    fn options_builders() {
        let o = DecompressOptions::default();
        assert_eq!(o.verify, Verify::Full);
        assert_eq!(o.mode, RecoveryMode::Strict);
        assert_eq!(o.decoder, crate::decode::DecoderKind::Chunked);
        let b = DecompressOptions::best_effort()
            .with_sentinel(0)
            .with_decoder(crate::decode::DecoderKind::Lut);
        assert_eq!(b.mode, RecoveryMode::BestEffort);
        assert_eq!(b.sentinel, 0);
        assert_eq!(b.decoder, crate::decode::DecoderKind::Lut);
    }

    #[test]
    fn report_cleanliness() {
        let r = RecoveryReport::clean(5);
        assert!(r.is_clean());
        let d = RecoveryReport {
            total_chunks: 5,
            damaged_chunks: vec![2],
            damaged_ranges: vec![(100, 200)],
            symbols_lost: 100,
        };
        assert!(!d.is_clean());
    }

    #[test]
    fn section_display() {
        assert_eq!(Section::Payload.to_string(), "payload");
        assert_eq!(Section::ChunkTable.to_string(), "chunk table");
    }
}
