//! MSB-first bit streams.
//!
//! All encoders emit, and the decoder consumes, a dense MSB-first
//! bitstream: the first bit of the stream is the most significant bit of
//! the first byte. [`BitWriter`] backs the serial and multithreaded CPU
//! encoders; [`BitReader`] backs every decoder.

use crate::codeword::Codeword;
use crate::error::{HuffError, Result};

/// An append-only MSB-first bit buffer.
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    buf: Vec<u8>,
    /// Bits already written into the trailing partial byte (0..8).
    partial_bits: u32,
    /// Total bits written.
    len_bits: u64,
}

impl BitWriter {
    /// An empty writer.
    pub fn new() -> Self {
        BitWriter::default()
    }

    /// An empty writer with capacity for `bits` bits.
    pub fn with_capacity_bits(bits: usize) -> Self {
        BitWriter { buf: Vec::with_capacity(bits.div_ceil(8)), partial_bits: 0, len_bits: 0 }
    }

    /// Append one bit.
    #[inline]
    pub fn push_bit(&mut self, bit: bool) {
        if self.partial_bits == 0 {
            self.buf.push(0);
        }
        if bit {
            let last = self.buf.last_mut().expect("partial byte exists");
            *last |= 1 << (7 - self.partial_bits);
        }
        self.partial_bits = (self.partial_bits + 1) % 8;
        self.len_bits += 1;
    }

    /// Append the `len` low bits of `bits`, MSB of the field first.
    #[inline]
    pub fn push_bits(&mut self, bits: u64, len: u32) {
        debug_assert!(len <= 64);
        debug_assert!(len == 64 || bits >> len == 0);
        let mut remaining = len;
        while remaining > 0 {
            let room = 8 - self.partial_bits;
            let take = room.min(remaining);
            let shift = remaining - take;
            let field = ((bits >> shift) & ((1u64 << take) - 1)) as u8;
            if self.partial_bits == 0 {
                self.buf.push(0);
            }
            let last = self.buf.last_mut().expect("partial byte exists");
            *last |= field << (room - take);
            self.partial_bits = (self.partial_bits + take) % 8;
            self.len_bits += u64::from(take);
            remaining -= take;
        }
    }

    /// Append a codeword.
    #[inline]
    pub fn push_code(&mut self, code: Codeword) {
        if code.len() == 64 {
            self.push_bits(code.bits() >> 32, 32);
            self.push_bits(code.bits() & 0xFFFF_FFFF, 32);
        } else {
            self.push_bits(code.bits(), code.len());
        }
    }

    /// Total bits written so far.
    pub fn len_bits(&self) -> u64 {
        self.len_bits
    }

    /// Finish, returning the byte buffer (trailing bits zero-padded) and
    /// the exact bit length.
    pub fn finish(self) -> (Vec<u8>, u64) {
        (self.buf, self.len_bits)
    }

    /// Borrow the bytes written so far (trailing partial byte included).
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Append another writer's content, preserving bit alignment.
    pub fn append(&mut self, other: &BitWriter) {
        let mut remaining = other.len_bits;
        for &byte in &other.buf {
            let take = remaining.min(8) as u32;
            if take == 0 {
                break;
            }
            self.push_bits(u64::from(byte >> (8 - take)), take);
            remaining -= u64::from(take);
        }
    }
}

/// An MSB-first bit cursor over a byte slice.
///
/// Multi-bit reads go through a 64-bit window: one unaligned big-endian
/// `u64` load at the current byte, shifted by the bit offset, so every
/// window holds at least 57 valid bits. Only the last seven bytes of the
/// buffer take a bounds-checked byte-by-byte path.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    buf: &'a [u8],
    /// Next bit position.
    pos: u64,
    /// Total readable bits.
    len_bits: u64,
}

/// Bits a [`BitReader::window`] is guaranteed to hold past the current
/// position (64 minus the largest in-byte offset).
pub(crate) const WINDOW_BITS: u32 = 57;

impl<'a> BitReader<'a> {
    /// A reader over `buf` exposing exactly `len_bits` bits.
    ///
    /// # Panics
    /// Panics if `buf` is too short for `len_bits`.
    pub fn new(buf: &'a [u8], len_bits: u64) -> Self {
        assert!(
            (buf.len() as u64) * 8 >= len_bits,
            "buffer of {} bytes cannot hold {} bits",
            buf.len(),
            len_bits
        );
        BitReader { buf, pos: 0, len_bits }
    }

    /// Bits remaining.
    pub fn remaining(&self) -> u64 {
        self.len_bits - self.pos
    }

    /// Current bit position.
    pub fn position(&self) -> u64 {
        self.pos
    }

    /// Read one bit.
    #[inline]
    pub fn read_bit(&mut self) -> Result<bool> {
        if self.pos >= self.len_bits {
            return Err(HuffError::CorruptStream("read past end of bitstream"));
        }
        let byte = self.buf[(self.pos / 8) as usize];
        let bit = (byte >> (7 - (self.pos % 8))) & 1 == 1;
        self.pos += 1;
        Ok(bit)
    }

    /// Read `len` bits MSB-first into the low bits of a `u64`.
    pub fn read_bits(&mut self, len: u32) -> Result<u64> {
        let v = self.peek_bits(len)?;
        self.pos += u64::from(len);
        Ok(v)
    }

    /// Read `len` bits MSB-first without consuming them.
    pub fn peek_bits(&self, len: u32) -> Result<u64> {
        debug_assert!(len <= 64);
        if u64::from(len) > self.remaining() {
            return Err(HuffError::CorruptStream("read past end of bitstream"));
        }
        if len == 0 {
            return Ok(0);
        }
        let mut w = self.window();
        let shift = (self.pos % 8) as u32;
        if len + shift > 64 {
            // Only a full eight-byte load leaves bits to top up, and
            // `len` bits in range put the ninth byte inside the buffer.
            w |= u64::from(self.buf[(self.pos / 8) as usize + 8]) >> (8 - shift);
        }
        Ok(w >> (64 - len))
    }

    /// The stream bits from the current position, MSB-aligned: the top
    /// `64 - position % 8` bits (at least [`WINDOW_BITS`]) come from the
    /// buffer, or all the buffer has left when fewer remain, and zeros
    /// follow. Bits past [`remaining`](Self::remaining) are not stream
    /// bits; a caller must not consume them.
    #[inline]
    pub(crate) fn window(&self) -> u64 {
        let byte = (self.pos / 8) as usize;
        let raw = match self.buf.get(byte..byte + 8) {
            Some(b) => u64::from_be_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]),
            None => self.tail_word(byte),
        };
        raw << (self.pos % 8)
    }

    /// The bytes from `byte` to the end of the buffer (fewer than eight),
    /// big-endian in the high bytes of a zero-filled word.
    #[cold]
    fn tail_word(&self, byte: usize) -> u64 {
        let mut b = [0u8; 8];
        let tail = self.buf.get(byte..).unwrap_or(&[]);
        b[..tail.len()].copy_from_slice(tail);
        u64::from_be_bytes(b)
    }

    /// The first position at which [`window`](Self::window) may stop
    /// being a full eight-byte load or hold fewer than [`WINDOW_BITS`]
    /// stream bits. Below it a caller may consume up to `WINDOW_BITS`
    /// bits of a window without checking [`remaining`](Self::remaining).
    #[inline]
    pub(crate) fn full_window_end(&self) -> u64 {
        let loadable = (self.buf.len() as u64).saturating_sub(7) * 8;
        loadable.min((self.len_bits + 1).saturating_sub(u64::from(WINDOW_BITS)))
    }

    /// Advance by `len` bits the caller has already checked are in range.
    #[inline]
    pub(crate) fn consume(&mut self, len: u32) {
        debug_assert!(u64::from(len) <= self.remaining());
        self.pos += u64::from(len);
    }

    /// Skip `len` bits.
    pub fn skip(&mut self, len: u64) -> Result<()> {
        if len > self.remaining() {
            return Err(HuffError::CorruptStream("skip past end of bitstream"));
        }
        self.pos += len;
        Ok(())
    }
}

/// Pack a `(bits, len)` sequence of 32-bit words holding `total_bits` of
/// payload into bytes — the final layout of the GPU coalescing-copy stage.
pub fn words_to_bytes(words: &[u32], total_bits: u64) -> Vec<u8> {
    let nbytes = (total_bits as usize).div_ceil(8);
    let mut out = Vec::with_capacity(nbytes);
    for w in words {
        out.extend_from_slice(&w.to_be_bytes());
        if out.len() >= nbytes + 4 {
            break;
        }
    }
    out.truncate(nbytes);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_bits_roundtrip() {
        let mut w = BitWriter::new();
        let pattern = [true, false, true, true, false, false, false, true, true, false];
        for &b in &pattern {
            w.push_bit(b);
        }
        let (buf, len) = w.finish();
        assert_eq!(len, 10);
        let mut r = BitReader::new(&buf, len);
        for &b in &pattern {
            assert_eq!(r.read_bit().unwrap(), b);
        }
        assert!(r.read_bit().is_err());
    }

    #[test]
    fn push_bits_msb_first() {
        let mut w = BitWriter::new();
        w.push_bits(0b1011, 4);
        w.push_bits(0b0, 1);
        w.push_bits(0b111, 3);
        let (buf, len) = w.finish();
        assert_eq!(len, 8);
        assert_eq!(buf, vec![0b1011_0111]);
    }

    #[test]
    fn push_bits_across_byte_boundary() {
        let mut w = BitWriter::new();
        w.push_bits(0b101, 3);
        w.push_bits(0x3FF, 10); // ten 1-bits
        let (buf, len) = w.finish();
        assert_eq!(len, 13);
        assert_eq!(buf, vec![0b1011_1111, 0b1111_1000]);
    }

    #[test]
    fn push_64_bit_code() {
        let mut w = BitWriter::new();
        let c = Codeword::new(u64::MAX, 64);
        w.push_code(c);
        let (buf, len) = w.finish();
        assert_eq!(len, 64);
        assert!(buf.iter().all(|&b| b == 0xFF));
    }

    #[test]
    fn read_bits_matches_written() {
        let mut w = BitWriter::new();
        w.push_bits(0xDEAD_BEEF, 32);
        w.push_bits(0x5, 3);
        let (buf, len) = w.finish();
        let mut r = BitReader::new(&buf, len);
        assert_eq!(r.read_bits(32).unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.read_bits(3).unwrap(), 0x5);
        assert!(r.read_bits(1).is_err());
    }

    #[test]
    fn read_bits_zero_len() {
        let mut r = BitReader::new(&[0xFF], 8);
        assert_eq!(r.read_bits(0).unwrap(), 0);
        assert_eq!(r.position(), 0);
    }

    #[test]
    fn peek_bits_does_not_consume() {
        let mut w = BitWriter::new();
        w.push_bits(0b1_0110_1101, 9);
        let (buf, len) = w.finish();
        let mut r = BitReader::new(&buf, len);
        assert_eq!(r.peek_bits(5).unwrap(), 0b10110);
        assert_eq!(r.position(), 0);
        r.skip(3).unwrap();
        assert_eq!(r.peek_bits(6).unwrap(), 0b101101);
        assert_eq!(r.position(), 3);
        assert!(r.peek_bits(7).is_err()); // only 6 bits remain
    }

    #[test]
    fn skip_and_remaining() {
        let buf = [0u8; 4];
        let mut r = BitReader::new(&buf, 32);
        r.skip(20).unwrap();
        assert_eq!(r.remaining(), 12);
        assert!(r.skip(13).is_err());
    }

    #[test]
    fn append_preserves_alignment() {
        let mut a = BitWriter::new();
        a.push_bits(0b101, 3);
        let mut b = BitWriter::new();
        b.push_bits(0b11001, 5);
        b.push_bits(0b0110, 4);
        a.append(&b);
        let (buf, len) = a.finish();
        assert_eq!(len, 12);
        let mut r = BitReader::new(&buf, len);
        assert_eq!(r.read_bits(12).unwrap(), 0b1011_1001_0110);
    }

    #[test]
    fn append_empty_is_noop() {
        let mut a = BitWriter::new();
        a.push_bits(0b1, 1);
        a.append(&BitWriter::new());
        assert_eq!(a.len_bits(), 1);
    }

    #[test]
    fn words_to_bytes_truncates_to_bits() {
        let words = [0xAABBCCDD, 0x11223344];
        let bytes = words_to_bytes(&words, 40);
        assert_eq!(bytes, vec![0xAA, 0xBB, 0xCC, 0xDD, 0x11]);
    }

    #[test]
    fn words_to_bytes_empty() {
        assert!(words_to_bytes(&[], 0).is_empty());
    }

    #[test]
    #[should_panic(expected = "cannot hold")]
    fn reader_rejects_short_buffer() {
        let _ = BitReader::new(&[0u8; 1], 9);
    }

    #[test]
    fn writer_capacity_constructor() {
        let w = BitWriter::with_capacity_bits(100);
        assert_eq!(w.len_bits(), 0);
        assert!(w.as_bytes().is_empty());
    }
}
