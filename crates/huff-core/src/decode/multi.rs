//! The host decoders' one inner loop: a multi-symbol decode table probed
//! with a 64-bit window.
//!
//! The paper canonizes the codebook so a decoder needs only the
//! `First`/`Entry` arrays (Section IV-B2). Walking them bit by bit costs
//! one dependent step per code bit. Rivera et al. 2022 turn the same
//! arrays into a table indexed by the next `L` stream bits. [`MultiLut`]
//! goes one step further on the host: an entry holds the codeword that
//! starts the window *and*, when it fits in the remaining `L - l₁` bits,
//! the one after it. At about one bit per symbol (quantization codes) a
//! one-symbol probe costs more than the bit walk it replaces, so the
//! second symbol is what makes the table pay on every input.
//!
//! [`MultiLut::decode`] is the host's one decode loop. The chunked
//! routine, which produces the bytes of every backend, decodes a counted
//! run of symbols between two breaking units with it. The LUT kernels'
//! count walk ([`gap_stats`](super::lut::gap_stats)) steps the codewords
//! that start before a subsequence end with it, into a scratch buffer it
//! never reads. A probe never yields a symbol past the caller's count or
//! past the end bit, so unit boundaries, sync exits and the modeled
//! [`GapStats`](super::lut::GapStats) counters are exactly those of a
//! one-codeword-at-a-time walk.
//!
//! Codewords longer than the table fall back to a `First`/`Entry` walk
//! over the same window. Codewords longer than the window, and any
//! decode within [`WINDOW_BITS`] of the end of the readable bits that the
//! table cannot settle, fall back to the bit-serial
//! [`CanonicalCodebook::decode_symbol`], which also names a truncation
//! or an unmatched prefix exactly as every decoder always has.
//!
//! The table is derived from the codebook for each decode call and never
//! serialized (see FORMAT.md § "Decode LUT and gap array").

use super::lut::DEFAULT_LUT_BITS;
use crate::bitstream::{BitReader, WINDOW_BITS};
use crate::codebook::CanonicalCodebook;
use crate::error::Result;

/// Widest table index: `2^12` entries of `u64` are 32 KiB.
const MAX_INDEX_BITS: u32 = DEFAULT_LUT_BITS;

/// Entries of the widest table.
const ENTRIES: usize = 1 << MAX_INDEX_BITS;

/// Probes per full window: four of at most 12 bits fit its 57.
const PROBES: usize = 4;

/// A multi-symbol decode table over the next `L` stream bits.
///
/// Entry layout (`u64`, low bits first):
///
/// | bits | field |
/// |---|---|
/// | 0..16 | first symbol |
/// | 16..32 | second symbol (0 when there is none) |
/// | 32..40 | `l₁`, the first codeword's length; 0 when no codeword of at most `L` bits starts the window |
/// | 40..48 | `l₁ + l₂` when a second codeword fits in the `L` bits, else `l₁` |
#[derive(Debug)]
pub(crate) struct MultiLut<'b> {
    book: &'b CanonicalCodebook,
    /// The index width `L`.
    bits: u32,
    /// `2^L` entries in use, the rest zero.
    entries: Box<[u64; ENTRIES]>,
}

impl<'b> MultiLut<'b> {
    /// Derive the table from the codebook's lengths and canonical order,
    /// indexed by the next `bits` stream bits (clamped to 1..=12).
    pub(crate) fn new(book: &'b CanonicalCodebook, bits: u32) -> Self {
        let bits = bits.clamp(1, MAX_INDEX_BITS);
        let size = 1usize << bits;
        // One symbol per index first: every codeword of length l <= L
        // fills the 2^(L-l) indices sharing its prefix.
        let mut single = vec![0u32; size];
        let (first, entry, count, rev) = (book.first(), book.entry(), book.count(), book.reverse());
        for l in 1..=bits.min(book.max_len()) {
            let li = l as usize;
            for k in 0..u64::from(count[li]) {
                let code = first[li] + k;
                let sym = rev[entry[li] as usize + k as usize];
                let lo = (code << (bits - l)) as usize;
                let hi = ((code + 1) << (bits - l)) as usize;
                single[lo..hi].fill((l << 16) | u32::from(sym));
            }
        }
        // Then pair each with the codeword its remaining bits begin, when
        // that codeword ends inside the index.
        let mut entries = Box::new([0u64; ENTRIES]);
        for (i, e) in entries[..size].iter_mut().enumerate() {
            let s1 = single[i];
            let l1 = s1 >> 16;
            if l1 == 0 {
                continue;
            }
            let s2 = single[(i << l1) & (size - 1)];
            let l2 = s2 >> 16;
            let (sym2, total) =
                if l2 != 0 && l1 + l2 <= bits { (u64::from(s2 as u16), l1 + l2) } else { (0, l1) };
            *e = u64::from(s1 as u16) | sym2 << 16 | u64::from(l1) << 32 | u64::from(total) << 40;
        }
        MultiLut { book, bits, entries }
    }

    /// Decode into `out` until it is full or the reader stands on a
    /// codeword boundary at or past bit `end`. Returns how many symbols
    /// were written, with the error that stopped the walk early, if any:
    /// on error the count is of the codewords decoded before it.
    ///
    /// The fast path loads one full window and makes up to [`PROBES`]
    /// probes from it, each taking one or two symbols without a branch
    /// on which. It runs while the window is full and `out` has room for
    /// `2 · PROBES` more. Everything else (long codewords, the last
    /// symbols of `out`, the last bits before the reader's end) takes one
    /// codeword at a time.
    pub(crate) fn decode(
        &self,
        reader: &mut BitReader<'_>,
        end: u64,
        out: &mut [u16],
    ) -> (usize, Result<()>) {
        let full_end = reader.full_window_end();
        let shift = 64 - self.bits;
        let mut n = 0;
        loop {
            while n + 2 * PROBES <= out.len() && reader.position() < full_end {
                let start = reader.position();
                let mut pos = start;
                let mut w = reader.window();
                for _ in 0..PROBES {
                    let e = self.entries[(w >> shift) as usize & (ENTRIES - 1)];
                    let l1 = (e >> 32) as u8 as u32;
                    if l1 == 0 || pos >= end {
                        break;
                    }
                    // Take the second symbol only when its codeword starts
                    // before `end`; a pairless entry has l₁ + l₂ == l₁. An
                    // unused second symbol lands in the next slot, which
                    // the next write overwrites.
                    let len = if pos + u64::from(l1) < end { (e >> 40) as u8 as u32 } else { l1 };
                    out[n] = e as u16;
                    out[n + 1] = (e >> 16) as u16;
                    n += 1 + usize::from(len > l1);
                    w <<= len;
                    pos += u64::from(len);
                }
                if pos == start {
                    break;
                }
                reader.consume((pos - start) as u32);
            }
            let pos = reader.position();
            if n >= out.len() || pos >= end {
                return (n, Ok(()));
            }
            let w = reader.window();
            // Below `full_end` the window holds WINDOW_BITS stream bits,
            // more than any table hit consumes.
            let avail = if pos < full_end { WINDOW_BITS } else { reader.remaining() as u32 };
            let e = self.entries[(w >> shift) as usize & (ENTRIES - 1)];
            let l1 = (e >> 32) as u8 as u32;
            out[n] = if l1 != 0 && l1 <= avail {
                reader.consume(l1);
                e as u16
            } else {
                match self.decode_long(reader, w, avail) {
                    Ok(sym) => sym,
                    Err(e) => return (n, Err(e)),
                }
            };
            n += 1;
        }
    }

    /// One codeword the table cannot settle: longer than `L`, or running
    /// past the `avail` stream bits of `w`. A `First`/`Entry` walk over
    /// the window bits finds codewords of up to `avail` bits; anything
    /// else goes to the bit-serial walk, which also reports truncation.
    #[cold]
    fn decode_long(&self, reader: &mut BitReader<'_>, w: u64, avail: u32) -> Result<u16> {
        let (first, entry, count, rev) =
            (self.book.first(), self.book.entry(), self.book.count(), self.book.reverse());
        let top = self.book.max_len().min(avail).min(WINDOW_BITS);
        for l in self.bits + 1..=top {
            let li = l as usize;
            let v = w >> (64 - l);
            let cnt = u64::from(count[li]);
            if cnt > 0 && v >= first[li] && v - first[li] < cnt {
                reader.consume(l);
                return Ok(rev[entry[li] as usize + (v - first[li]) as usize]);
            }
        }
        self.book.decode_symbol(|| reader.read_bit())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitstream::BitWriter;
    use crate::error::HuffError;

    #[test]
    fn entries_pair_two_short_codes() {
        // Lengths (1, 2, 2): codes 0, 10, 11.
        let book = CanonicalCodebook::from_lengths(&[1, 2, 2]).unwrap();
        let t = MultiLut::new(&book, MAX_INDEX_BITS);
        // Window 0 10 0...: symbol 0 (1 bit), then symbol 1 (2 bits).
        let e = t.entries[0b010 << (MAX_INDEX_BITS - 3)];
        assert_eq!((e as u16, (e >> 16) as u16), (0, 1));
        assert_eq!(((e >> 32) as u8, (e >> 40) as u8), (1, 3));
    }

    #[test]
    fn long_first_code_leaves_no_pair() {
        // Twelve-bit codes fill the index alone.
        let lengths = vec![12u32; 4096];
        let book = CanonicalCodebook::from_lengths(&lengths).unwrap();
        let t = MultiLut::new(&book, MAX_INDEX_BITS);
        let e = t.entries[0xABC];
        assert_eq!(((e >> 32) as u8, (e >> 40) as u8), (12, 12));
        assert_eq!(e as u16, 0xABC);
    }

    #[test]
    fn a_full_output_stops_between_the_two_symbols_of_a_probe() {
        let book = CanonicalCodebook::from_lengths(&[1, 2, 2]).unwrap();
        let mut w = BitWriter::new();
        for s in [0u16, 1, 2, 0, 0, 1] {
            w.push_code(book.code(s));
        }
        let (bytes, bits) = w.finish();
        let t = MultiLut::new(&book, MAX_INDEX_BITS);
        let mut r = BitReader::new(&bytes, bits);
        let mut out = [0u16; 1];
        assert_eq!(t.decode(&mut r, u64::MAX, &mut out).0, 1);
        assert_eq!((out, r.position()), ([0], 1));
        let mut rest = [0u16; 5];
        assert_eq!(t.decode(&mut r, u64::MAX, &mut rest).0, 5);
        assert_eq!(rest, [1, 2, 0, 0, 1]);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn an_end_bit_stops_on_the_first_boundary_at_or_past_it() {
        let book = CanonicalCodebook::from_lengths(&[1, 2, 2]).unwrap();
        let mut w = BitWriter::new();
        for s in [1u16, 0, 2, 0] {
            w.push_code(book.code(s)); // boundaries at 2, 3, 5, 6
        }
        let (bytes, bits) = w.finish();
        let t = MultiLut::new(&book, MAX_INDEX_BITS);
        for (end, exit, want) in
            [(1, 2, &[1][..]), (2, 2, &[1]), (3, 3, &[1, 0]), (4, 5, &[1, 0, 2])]
        {
            let mut r = BitReader::new(&bytes, bits);
            let mut out = [9u16; 8];
            let (n, walked) = t.decode(&mut r, end, &mut out);
            walked.unwrap();
            assert_eq!((r.position(), &out[..n]), (exit, want), "end {end}");
        }
    }

    #[test]
    fn truncation_reports_the_codewords_before_it() {
        let book = CanonicalCodebook::from_lengths(&[1, 2, 2]).unwrap();
        // 0 0 1: two codewords, then half of one.
        let bytes = [0b0010_0000u8];
        let t = MultiLut::new(&book, MAX_INDEX_BITS);
        let mut r = BitReader::new(&bytes, 3);
        let mut out = [0u16; 3];
        let (n, walked) = t.decode(&mut r, 3, &mut out);
        assert_eq!(n, 2);
        assert!(matches!(walked, Err(HuffError::CorruptStream(_))));
    }
}
