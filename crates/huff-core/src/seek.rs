//! Succinct seek index for O(1) random-access chunk location.
//!
//! The RSH2 chunk table stores per-chunk *bit lengths*, so locating chunk
//! *i*'s payload offset costs a prefix scan of `i` table words. That is
//! fine for a full decompress (the scan is paid once) but ruinous for the
//! serving scenario where a million clients each want one byte slice of a
//! large archive: every request would pay an O(chunks) scan before any
//! payload byte moves.
//!
//! This module packs the monotone offset sequence `off_0 = 0, off_1, …,
//! off_n = total_bits` (the trailing sentinel makes chunk lengths
//! recoverable by differencing) into an Elias–Fano encoding:
//!
//! - each value splits into `low_bits` low bits, packed little-endian
//!   into u64 words, and a high part;
//! - the high parts become a bit vector where value *i* sets bit
//!   `(off_i >> low_bits) + i` — unary-coded deltas, at most
//!   `(total_bits >> low_bits) + m` bits for `m = n + 1` values;
//! - every [`SELECT_SAMPLE`]-th set bit's absolute position is sampled,
//!   so `select1(i)` starts at most `SELECT_SAMPLE` set bits away and
//!   finishes with popcount scans inside u64 words.
//!
//! With `low_bits = ⌊log2(total_bits / m)⌋` the index costs about
//! `(low_bits + 2) / 8` bytes per chunk — a fraction of a percent of the
//! payload for the default 2¹⁰-symbol chunks — and `chunk_offset(i)` is
//! O(1) word probes: one sample, one or two high words, one or two low
//! words. The probe count is surfaced to callers so the GPU cost model
//! can charge the index traffic (see `decode::gpu`).
//!
//! On disk the index is an optional CRC'd trailer after the payload
//! (FORMAT.md §10). Readers are fail-open by contract: a missing,
//! truncated, or corrupt trailer degrades to the prefix scan, never to an
//! error.

use crate::error::{HuffError, Result};
use crate::integrity::crc32;
use crate::wire::Reader;
use std::ops::Range;

/// Magic prefix of the serialized trailer.
pub const INDEX_MAGIC: &[u8; 4] = b"RSIX";
/// Serialized trailer version.
pub const INDEX_VERSION: u8 = 1;
/// One absolute select sample is kept per this many set bits.
pub const SELECT_SAMPLE: u64 = 64;

/// Fixed bytes before the word arrays: magic(4) + version/sample/low/pad(4)
/// + num_chunks(8) + total_bits(8) + three word counts(12).
const FIXED_HEAD: usize = 36;
/// Trailing CRC32 over everything before it.
const TAIL_CRC: usize = 4;

fn bad(detail: &str) -> HuffError {
    HuffError::BadArchive(format!("seek index: {detail}"))
}

fn words_u32(n: usize, what: &str) -> Result<u32> {
    u32::try_from(n).map_err(|_| bad(&format!("{what} word count {n} exceeds u32")))
}

fn set_bit(words: &mut [u64], pos: u64) {
    words[(pos / 64) as usize] |= 1u64 << (pos % 64);
}

/// An Elias–Fano index over a chunked stream's bit offsets.
///
/// Built from the chunk table by [`ChunkIndex::build`]; answers
/// [`ChunkIndex::offset`] and [`ChunkIndex::chunk_range`] in O(1) word
/// probes. Equality compares the full encoded content (used by the
/// serialization roundtrip tests).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkIndex {
    num_chunks: u64,
    total_bits: u64,
    select_sample: u64,
    low_bits: u32,
    lows: Vec<u64>,
    high: Vec<u64>,
    samples: Vec<u64>,
}

impl ChunkIndex {
    /// Build the index from per-chunk bit lengths. `total_bits` must
    /// equal their sum (the archive header stores both; disagreement is
    /// a corrupt stream and reports as [`HuffError::BadArchive`]).
    pub fn build(chunk_bit_lens: &[u64], total_bits: u64) -> Result<Self> {
        let n = chunk_bit_lens.len() as u64;
        let m = n + 1;
        let mut sum = 0u64;
        for &len in chunk_bit_lens {
            sum = sum.checked_add(len).ok_or_else(|| bad("chunk offsets overflow u64"))?;
        }
        if sum != total_bits {
            return Err(bad(&format!("chunk lengths sum to {sum}, header says {total_bits}")));
        }

        let low_bits = (total_bits / m).checked_ilog2().unwrap_or(0);
        let low_words = ((m * u64::from(low_bits)) as usize).div_ceil(64);
        let high_bits = (total_bits >> low_bits) + m;
        let mut lows = vec![0u64; low_words];
        let mut high = vec![0u64; (high_bits as usize).div_ceil(64)];
        let mut samples = Vec::with_capacity((m as usize).div_ceil(SELECT_SAMPLE as usize));

        let mut off = 0u64;
        for i in 0..m {
            let pos = (off >> low_bits) + i;
            set_bit(&mut high, pos);
            if i % SELECT_SAMPLE == 0 {
                samples.push(pos);
            }
            Self::put_low(&mut lows, i, off, low_bits);
            if i < n {
                off += chunk_bit_lens[i as usize];
            }
        }

        Ok(ChunkIndex {
            num_chunks: n,
            total_bits,
            select_sample: SELECT_SAMPLE,
            low_bits,
            lows,
            high,
            samples,
        })
    }

    fn put_low(words: &mut [u64], i: u64, v: u64, l: u32) {
        if l == 0 {
            return;
        }
        let v = v & ((1u64 << l) - 1);
        let bit = i * u64::from(l);
        let w = (bit / 64) as usize;
        let sh = (bit % 64) as u32;
        words[w] |= v << sh;
        if sh + l > 64 {
            words[w + 1] |= v >> (64 - sh);
        }
    }

    fn get_low(&self, i: u64, probes: &mut u64) -> u64 {
        let l = self.low_bits;
        if l == 0 {
            return 0;
        }
        let bit = i * u64::from(l);
        let w = (bit / 64) as usize;
        let sh = (bit % 64) as u32;
        *probes += 1;
        let mut v = self.lows[w] >> sh;
        if sh + l > 64 {
            v |= self.lows[w + 1] << (64 - sh);
            *probes += 1;
        }
        v & ((1u64 << l) - 1)
    }

    /// Position of the `i`-th (0-based) set bit in the high vector:
    /// jump to the nearest preceding sample, then popcount-scan whole
    /// words, then locate the target bit inside the final word.
    fn select1(&self, i: u64, probes: &mut u64) -> u64 {
        let sample = self.samples[(i / self.select_sample) as usize];
        *probes += 1;
        // The sample is the position of set bit #⌊i/S⌋·S; `need` more set
        // bits (counting the sampled one) reach bit #i.
        let mut need = (i % self.select_sample) as u32 + 1;
        let mut w = (sample / 64) as usize;
        let mut word = self.high[w] & (u64::MAX << (sample % 64));
        *probes += 1;
        loop {
            let c = word.count_ones();
            if c >= need {
                let mut x = word;
                for _ in 1..need {
                    x &= x - 1;
                }
                return w as u64 * 64 + u64::from(x.trailing_zeros());
            }
            need -= c;
            w += 1;
            word = self.high[w];
            *probes += 1;
        }
    }

    /// Absolute bit offset of chunk `i`'s payload start, for
    /// `i ∈ 0..=num_chunks` (`i == num_chunks` returns `total_bits`, the
    /// sentinel). Increments `probes` once per u64 word the lookup
    /// touches — the unit the GPU cost model charges.
    pub fn offset(&self, i: u64, probes: &mut u64) -> u64 {
        assert!(i <= self.num_chunks, "chunk {i} out of range ({} chunks)", self.num_chunks);
        let p = self.select1(i, probes);
        ((p - i) << self.low_bits) | self.get_low(i, probes)
    }

    /// Bit range `offset(i)..offset(i + 1)` of chunk `i`'s payload.
    pub fn chunk_range(&self, i: u64, probes: &mut u64) -> Range<u64> {
        self.offset(i, probes)..self.offset(i + 1, probes)
    }

    /// Number of chunks the index covers.
    pub fn num_chunks(&self) -> u64 {
        self.num_chunks
    }

    /// Total payload bits (the sentinel value).
    pub fn total_bits(&self) -> u64 {
        self.total_bits
    }

    /// Serialized trailer size in bytes.
    pub fn byte_len(&self) -> usize {
        FIXED_HEAD + 8 * (self.lows.len() + self.high.len() + self.samples.len()) + TAIL_CRC
    }

    /// Append the trailer (FORMAT.md §10) to `buf`:
    ///
    /// ```text
    /// magic "RSIX" | version u8 | select_sample u8 | low_bits u8 | pad u8
    /// num_chunks u64 | total_bits u64
    /// low_words u32 | high_words u32 | num_samples u32
    /// lows u64 × low_words | high u64 × high_words | samples u64 × num_samples
    /// index_crc u32        CRC32 of the trailer up to this field
    /// ```
    pub fn write_to(&self, buf: &mut Vec<u8>) -> Result<()> {
        let start = buf.len();
        buf.extend_from_slice(INDEX_MAGIC);
        buf.extend_from_slice(&[INDEX_VERSION, self.select_sample as u8, self.low_bits as u8, 0]);
        buf.extend_from_slice(&self.num_chunks.to_le_bytes());
        buf.extend_from_slice(&self.total_bits.to_le_bytes());
        buf.extend_from_slice(&words_u32(self.lows.len(), "low")?.to_le_bytes());
        buf.extend_from_slice(&words_u32(self.high.len(), "high")?.to_le_bytes());
        buf.extend_from_slice(&words_u32(self.samples.len(), "sample")?.to_le_bytes());
        for &w in self.lows.iter().chain(&self.high).chain(&self.samples) {
            buf.extend_from_slice(&w.to_le_bytes());
        }
        let crc = crc32(&buf[start..]);
        buf.extend_from_slice(&crc.to_le_bytes());
        Ok(())
    }

    /// Parse a trailer, tolerating trailing bytes beyond the encoded
    /// length. Returns `None` on any mismatch — wrong magic, version,
    /// truncation, CRC failure, or internally inconsistent geometry.
    /// Callers fall back to the chunk-table prefix scan (fail-open).
    pub fn parse(trailer: &[u8]) -> Option<Self> {
        let mut r = Reader::new(trailer);
        if r.take(4).ok()? != INDEX_MAGIC {
            return None;
        }
        let version = r.u8().ok()?;
        let select_sample = u64::from(r.u8().ok()?);
        let low_bits = u32::from(r.u8().ok()?);
        r.skip(1).ok()?;
        let num_chunks = r.u64_le().ok()?;
        let total_bits = r.u64_le().ok()?;
        let low_words = r.count("low words", 8).ok()?;
        let high_words = r.count("high words", 8).ok()?;
        let num_samples = r.count("select samples", 8).ok()?;
        if version != INDEX_VERSION || select_sample == 0 || low_bits > 63 {
            return None;
        }

        let mut words = Reader::new(r.take(8 * (low_words + high_words + num_samples)).ok()?);
        let body = r.pos();
        if crc32(&trailer[..body]) != r.u32_le().ok()? {
            return None;
        }

        // Geometry must match what `build` would produce for this shape.
        let m = num_chunks.checked_add(1)?;
        let want_lows = ((m.checked_mul(u64::from(low_bits))?) as usize).div_ceil(64);
        let want_high = (((total_bits >> low_bits).checked_add(m)?) as usize).div_ceil(64);
        let want_samples = (m as usize).div_ceil(select_sample as usize);
        if low_words != want_lows || high_words != want_high || num_samples != want_samples {
            return None;
        }

        let mut read = |n: usize| (0..n).map(|_| words.u64_le()).collect::<Result<Vec<u64>>>();
        let (lows, high, samples) =
            (read(low_words).ok()?, read(high_words).ok()?, read(num_samples).ok()?);
        // Every sample must point inside the high vector, and the final
        // set bit (the sentinel) must exist; otherwise lookups would read
        // out of bounds.
        let high_bits = (high.len() * 64) as u64;
        if samples.iter().any(|&s| s >= high_bits) {
            return None;
        }
        let set: u64 = high.iter().map(|w| u64::from(w.count_ones())).sum();
        if set != m {
            return None;
        }
        Some(ChunkIndex { num_chunks, total_bits, select_sample, low_bits, lows, high, samples })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prefix_offsets(lens: &[u64]) -> Vec<u64> {
        let mut offs = Vec::with_capacity(lens.len() + 1);
        let mut acc = 0u64;
        offs.push(0);
        for &l in lens {
            acc += l;
            offs.push(acc);
        }
        offs
    }

    fn check_all(lens: &[u64]) {
        let total: u64 = lens.iter().sum();
        let idx = ChunkIndex::build(lens, total).unwrap();
        let offs = prefix_offsets(lens);
        let mut probes = 0u64;
        for (i, &want) in offs.iter().enumerate() {
            assert_eq!(idx.offset(i as u64, &mut probes), want, "offset {i} of {lens:?}");
        }
        assert!(probes >= offs.len() as u64);
        // O(1): a handful of word probes per lookup even at the tail.
        let mut tail = 0u64;
        idx.offset(lens.len() as u64, &mut tail);
        assert!(tail <= 8, "tail lookup took {tail} probes");
    }

    #[test]
    fn empty_stream_has_single_sentinel() {
        let idx = ChunkIndex::build(&[], 0).unwrap();
        let mut probes = 0;
        assert_eq!(idx.offset(0, &mut probes), 0);
        assert_eq!(idx.num_chunks(), 0);
    }

    #[test]
    fn offsets_match_prefix_scan() {
        check_all(&[5]);
        check_all(&[0, 0, 0]);
        check_all(&[8192; 7]);
        check_all(&[1, 0, 63, 64, 65, 0, 129, 7, 8000, 12]);
    }

    #[test]
    fn randomized_offsets_match_prefix_scan() {
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for case in 0..50 {
            let n = (next() % 300) as usize + 1;
            let lens: Vec<u64> = (0..n)
                .map(|_| match next() % 4 {
                    0 => 0,
                    1 => next() % 17,
                    _ => next() % 20_000,
                })
                .collect();
            check_all(&lens);
            let _ = case;
        }
    }

    #[test]
    fn chunk_range_differs_offsets() {
        let lens = [100, 0, 250, 7];
        let idx = ChunkIndex::build(&lens, 357).unwrap();
        let mut probes = 0;
        assert_eq!(idx.chunk_range(0, &mut probes), 0..100);
        assert_eq!(idx.chunk_range(1, &mut probes), 100..100);
        assert_eq!(idx.chunk_range(2, &mut probes), 100..350);
        assert_eq!(idx.chunk_range(3, &mut probes), 350..357);
    }

    #[test]
    fn build_rejects_sum_mismatch() {
        assert!(ChunkIndex::build(&[10, 10], 21).is_err());
        assert!(ChunkIndex::build(&[u64::MAX, 1], u64::MAX).is_err());
    }

    #[test]
    fn serialization_roundtrips() {
        let lens: Vec<u64> = (0..200).map(|i| (i * 37) % 9000).collect();
        let total = lens.iter().sum();
        let idx = ChunkIndex::build(&lens, total).unwrap();
        let mut buf = Vec::new();
        idx.write_to(&mut buf).unwrap();
        assert_eq!(buf.len(), idx.byte_len());
        assert_eq!(ChunkIndex::parse(&buf).unwrap(), idx);
        // Trailing junk beyond the encoded length is tolerated.
        let mut longer = buf.clone();
        longer.extend_from_slice(b"????");
        assert_eq!(ChunkIndex::parse(&longer).unwrap(), idx);
    }

    #[test]
    fn parse_is_fail_open_on_damage() {
        let lens = [4000u64; 65];
        let idx = ChunkIndex::build(&lens, 4000 * 65).unwrap();
        let mut clean = Vec::new();
        idx.write_to(&mut clean).unwrap();
        assert!(ChunkIndex::parse(&clean).is_some());
        for pos in [0, 4, 9, FIXED_HEAD + 3, clean.len() - 2] {
            let mut bad = clean.clone();
            bad[pos] ^= 0x40;
            assert!(ChunkIndex::parse(&bad).is_none(), "flip at {pos} accepted");
        }
        assert!(ChunkIndex::parse(&clean[..clean.len() - 1]).is_none());
        assert!(ChunkIndex::parse(&[]).is_none());
    }

    #[test]
    fn space_overhead_is_a_few_percent() {
        // Default geometry: 2^10-symbol chunks at ~4 bits/symbol average
        // is ~4096 bits (512 bytes) of payload per chunk.
        let lens = vec![4096u64; 4096];
        let total: u64 = lens.iter().sum();
        let idx = ChunkIndex::build(&lens, total).unwrap();
        let payload_bytes = (total as usize).div_ceil(8);
        let overhead = idx.byte_len() as f64 / payload_bytes as f64;
        assert!(overhead < 0.05, "index overhead {overhead:.4} >= 5%");
        // And in fact well under 1% at this geometry.
        assert!(overhead < 0.01, "index overhead {overhead:.4} >= 1%");
    }
}
