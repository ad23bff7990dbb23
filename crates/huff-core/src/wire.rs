//! The one checked byte cursor every container reader goes through.
//!
//! Every parser in the workspace — RSH1/RSH2 ([`crate::archive`]), RSHM
//! ([`crate::frame`]), RSHR ([`crate::container`]), the RSIX seek index
//! ([`crate::seek`]), the `rsh-tune-v1` cache ([`crate::tune`]) and the
//! `sz-quant` archive — reads little-endian fields through [`Reader`]. No
//! getter can panic: a read past the end is a [`HuffError::BadArchive`].
//! A count field goes through [`Reader::count`], which rejects a count the
//! remaining bytes cannot hold before anything is sized from it, so the
//! bound on every allocation a header drives lives here and not in each
//! parser.
//!
//! Writers need no counterpart: they append `to_le_bytes()` to a
//! `Vec<u8>` and return that vector as it is.

use crate::error::{HuffError, Result};

/// A bounds-checked little-endian cursor over a borrowed byte slice.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// Offset of the next unread byte.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Borrow the next `n` bytes and step past them.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let rest = &self.bytes[self.pos..];
        let out = rest.get(..n).ok_or_else(|| {
            HuffError::BadArchive(format!(
                "truncated: need {n} bytes at offset {}, {} left",
                self.pos,
                rest.len()
            ))
        })?;
        self.pos += n;
        Ok(out)
    }

    /// Step past `n` bytes.
    pub fn skip(&mut self, n: usize) -> Result<()> {
        self.take(n).map(drop)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.take(N)?);
        Ok(a)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.array::<1>()?[0])
    }

    /// Read a little-endian `u16`.
    pub fn u16_le(&mut self) -> Result<u16> {
        self.array().map(u16::from_le_bytes)
    }

    /// Read a little-endian `u32`.
    pub fn u32_le(&mut self) -> Result<u32> {
        self.array().map(u32::from_le_bytes)
    }

    /// Read a little-endian `u64`.
    pub fn u64_le(&mut self) -> Result<u64> {
        self.array().map(u64::from_le_bytes)
    }

    /// Read a little-endian `f32`.
    pub fn f32_le(&mut self) -> Result<f32> {
        self.u32_le().map(f32::from_bits)
    }

    /// Read a `u32` count of `field` entries, each taking at least
    /// `min_bytes_each` of the bytes that follow. A count the remaining
    /// bytes cannot hold is an error, so a caller may size a buffer from
    /// the returned count: it is at most the input's own length.
    pub fn count(&mut self, field: &str, min_bytes_each: usize) -> Result<usize> {
        let n = self.u32_le()? as usize;
        let left = self.remaining();
        if !fits(n as u64, min_bytes_each as u64, left as u64) {
            return Err(HuffError::BadArchive(format!(
                "{n} {field} of at least {min_bytes_each} bytes each cannot fit in the {left} \
                 bytes left"
            )));
        }
        Ok(n)
    }
}

/// Whether `n` items of at least `min_each` units each fit in `avail`
/// units. [`Reader::count`] applies it in bytes; a frame applies it in bits
/// to the symbols a shard body declares.
pub fn fits(n: u64, min_each: u64, avail: u64) -> bool {
    n.checked_mul(min_each).is_some_and(|need| need <= avail)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_roundtrip() {
        let mut bytes = vec![7u8];
        bytes.extend_from_slice(&0xBEEFu16.to_le_bytes());
        bytes.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        bytes.extend_from_slice(&1.5f32.to_le_bytes());
        bytes.extend_from_slice(b"tail");
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16_le().unwrap(), 0xBEEF);
        assert_eq!(r.u32_le().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64_le().unwrap(), u64::MAX);
        assert_eq!(r.f32_le().unwrap(), 1.5);
        assert_eq!(r.pos(), 19);
        r.skip(1).unwrap();
        assert_eq!(r.take(3).unwrap(), b"ail");
        assert_eq!(r.remaining(), 0);
        assert_eq!(r.take(0).unwrap(), b"");
    }

    #[test]
    fn slice_cursor_reads_in_place() {
        let data = [7u8, 0xEF, 0xBE, 1, 2, 3];
        let mut r = Reader::new(&data);
        r.skip(3).unwrap();
        let tail = r.take(3).unwrap();
        // The bytes are borrowed from the input, not copied.
        assert!(std::ptr::eq(tail, &data[3..]));
        assert_eq!((r.pos(), r.remaining()), (6, 0));
    }

    #[test]
    fn short_reads_are_errors_not_panics() {
        let bytes = [1u8, 2, 3];
        let mut r = Reader::new(&bytes);
        assert!(matches!(r.u32_le(), Err(HuffError::BadArchive(_))));
        assert!(r.u64_le().is_err());
        assert!(r.take(4).is_err());
        assert!(r.skip(usize::MAX).is_err());
        assert_eq!(r.pos(), 0);
        assert_eq!(r.u16_le().unwrap(), 0x0201);
        assert!(r.u16_le().is_err());
        assert!(r.f32_le().is_err());
        assert_eq!(r.u8().unwrap(), 3);
        assert!(r.u8().is_err());
    }

    #[test]
    fn count_rejects_what_the_remaining_bytes_cannot_hold() {
        let mut bytes = 3u32.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0u8; 24]);
        assert_eq!(Reader::new(&bytes).count("chunks", 8).unwrap(), 3);
        assert!(Reader::new(&bytes).count("chunks", 9).is_err());
        assert_eq!(Reader::new(&bytes).count("chunks", 0).unwrap(), 3);
        let max = u32::MAX.to_le_bytes();
        assert!(Reader::new(&max).count("codebook entries", 1).is_err());
        assert!(Reader::new(&max[..3]).count("codebook entries", 1).is_err());
        assert!(fits(0, u64::MAX, 0));
        assert!(!fits(2, u64::MAX, u64::MAX));
        assert!(fits(1 << 20, 1, 8 << 17));
        assert!(!fits((1 << 20) + 1, 1, 8 << 17));
    }
}
