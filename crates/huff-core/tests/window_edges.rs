//! Edge cases of the host decoders' 64-bit window, on every backend,
//! strict and best-effort.
//!
//! Each stream is built by hand so its payload is exactly the coded bits:
//! a decoder that reads one byte past the payload slice panics here
//! instead of reading padding. Every decode is compared with
//! `decode::canonical::decode`, the bit-at-a-time `First`/`Entry` walk.
//!
//! Covered: payloads of 0–16 bytes that end on their last bit; codeword
//! lengths 1, 12 (the table width), 13 (one past it) and 58–60 (past
//! what one window holds); a breaking unit that ends a coded run between
//! the two symbols one probe would yield; and streams cut short by 1–63
//! bits.

use huff_core::codebook::CanonicalCodebook;
use huff_core::decode::{self, canonical, DecoderKind};
use huff_core::encode::{serial, ChunkedStream, MergeConfig};
use huff_core::sparse::SparseOutliers;
use huff_core::HuffError;

const KINDS: [DecoderKind; 3] = [DecoderKind::Serial, DecoderKind::Chunked, DecoderKind::Lut];
const SENTINEL: u16 = 0xFFFE;

/// Lengths 1..=60 plus a second 60: every length from 1 to 60 bits.
fn deep_book() -> CanonicalCodebook {
    CanonicalCodebook::from_lengths(&(1..=60).chain([60]).collect::<Vec<u32>>()).unwrap()
}

/// A complete code of `2^bits` symbols, all `bits` long.
fn flat_book(bits: u32) -> CanonicalCodebook {
    CanonicalCodebook::from_lengths(&vec![bits; 1 << bits]).unwrap()
}

fn books() -> Vec<(&'static str, CanonicalCodebook)> {
    vec![
        ("deep", deep_book()),
        ("flat12", flat_book(12)),
        ("flat13", flat_book(13)),
        ("tiny", CanonicalCodebook::from_lengths(&[1, 2, 2]).unwrap()),
    ]
}

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// Symbols whose codewords fill exactly `bits` bits, or `None` when the
/// book's lengths cannot. Short codewords are likelier, long ones occur.
fn fill_bits(book: &CanonicalCodebook, bits: u64, rng: &mut Rng) -> Option<Vec<u16>> {
    let coded: Vec<u16> =
        (0..book.num_symbols() as u16).filter(|&s| !book.code(s).is_empty()).collect();
    let mut left = bits;
    let mut out = Vec::new();
    while left > 0 {
        let fits: Vec<u16> =
            coded.iter().copied().filter(|&s| u64::from(book.code(s).len()) <= left).collect();
        if fits.is_empty() {
            return None;
        }
        // Square the draw toward index 0 so short codes dominate.
        let r = rng.next() % fits.len() as u64;
        let s = fits[(r * r / fits.len() as u64) as usize];
        left -= u64::from(book.code(s).len());
        out.push(s);
    }
    Some(out)
}

/// A one-chunk stream: `coded` is the payload, in order; `outliers` are
/// `(unit, raw symbols)` spliced between its runs at r = `reduction`.
fn one_chunk(
    book: &CanonicalCodebook,
    coded: &[u16],
    reduction: u32,
    outliers: Vec<(u64, Vec<u16>)>,
) -> ChunkedStream {
    let enc = serial::encode(coded, book).unwrap();
    let num_symbols = coded.len() + outliers.iter().map(|(_, s)| s.len()).sum::<usize>();
    let magnitude = (num_symbols.max(2).next_power_of_two().trailing_zeros()).max(reduction + 1);
    let chunks = usize::from(num_symbols > 0);
    ChunkedStream {
        config: MergeConfig::new(magnitude, reduction),
        bytes: enc.bytes,
        chunk_bit_lens: vec![enc.bit_len; chunks],
        chunk_bit_offsets: vec![0; chunks],
        total_bits: enc.bit_len,
        num_symbols,
        outliers: SparseOutliers::from_units(outliers),
    }
}

/// Every backend, strict and best-effort, against `want`, the bit-serial
/// reference decode of the same stream.
fn assert_backends(case: &str, stream: &ChunkedStream, book: &CanonicalCodebook, want: &[u16]) {
    let clean = vec![false; stream.num_chunks()];
    for kind in KINDS {
        let got = decode::decode_stream(stream, book, kind);
        assert_eq!(got.as_deref().ok(), Some(want), "{case}: strict {}", kind.name());
        let (got, report) = decode::decode_stream_best_effort(stream, book, &clean, SENTINEL, kind);
        assert_eq!(got, want, "{case}: best-effort {}", kind.name());
        assert!(report.is_clean(), "{case}: best-effort {} reported damage", kind.name());
    }
}

/// Every backend fails a stream the reference decode fails: a typed
/// error in strict mode, the whole chunk sentinel-filled in best-effort.
fn assert_backends_reject(case: &str, stream: &ChunkedStream, book: &CanonicalCodebook) {
    let clean = vec![false; stream.num_chunks()];
    for kind in KINDS {
        match decode::decode_stream(stream, book, kind) {
            Err(HuffError::CorruptStream(_)) | Err(HuffError::GapArray { .. }) => {}
            other => panic!("{case}: strict {} gave {other:?}", kind.name()),
        }
        let (got, report) = decode::decode_stream_best_effort(stream, book, &clean, SENTINEL, kind);
        assert_eq!(report.damaged_chunks, vec![0], "{case}: best-effort {}", kind.name());
        assert_eq!(got.len(), stream.num_symbols, "{case}: best-effort {}", kind.name());
        assert!(got.iter().all(|&s| s == SENTINEL), "{case}: best-effort {}", kind.name());
    }
}

#[test]
fn payloads_of_0_to_16_bytes_ending_on_their_last_bit() {
    let mut rng = Rng(0x2545_F491_4F6C_DD1D);
    for (name, book) in books() {
        for bytes in 0..=16u64 {
            for trial in 0..6 {
                let Some(syms) = fill_bits(&book, bytes * 8, &mut rng) else { continue };
                let stream = one_chunk(&book, &syms, 1, Vec::new());
                assert_eq!(stream.bytes.len() as u64, bytes);
                let want =
                    canonical::decode(&stream.bytes, stream.total_bits, syms.len(), &book).unwrap();
                assert_eq!(want, syms);
                assert_backends(&format!("{name} {bytes} B #{trial}"), &stream, &book, &want);
            }
        }
    }
}

#[test]
fn codes_of_1_12_13_and_over_57_bits() {
    let book = deep_book();
    // Symbol s has length s + 1 below 60; 59 and 60 are both 60 bits.
    let lens = |s: u16| book.code(s).len();
    assert_eq!((lens(0), lens(11), lens(12), lens(57), lens(60)), (1, 12, 13, 58, 60));
    let patterns: [&[u16]; 6] = [
        &[0; 40],
        &[11; 12],
        &[12; 12],
        &[57, 58, 59, 60, 0, 60, 11, 12, 59],
        &[0, 60, 0, 0, 60, 60, 12, 0, 11, 0, 58],
        &[59, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 60],
    ];
    for (k, pattern) in patterns.iter().enumerate() {
        // Shift the pattern through every bit offset of a byte.
        for lead in 0..8 {
            let syms: Vec<u16> =
                std::iter::repeat_n(0, lead).chain(pattern.iter().copied()).collect();
            let stream = one_chunk(&book, &syms, 1, Vec::new());
            let want =
                canonical::decode(&stream.bytes, stream.total_bits, syms.len(), &book).unwrap();
            assert_eq!(want, syms);
            assert_backends(&format!("pattern {k} lead {lead}"), &stream, &book, &want);
        }
    }
}

#[test]
fn a_breaking_unit_between_the_two_symbols_of_a_probe() {
    // At r = 5 a unit is 32 symbols. Unit 0 opens with a 12-bit code,
    // which a probe yields alone; the 31 one-bit codes after it pair up
    // from the second symbol on, so the run's last symbol shares its
    // probe with the first coded symbol after the breaking unit 1.
    let book = deep_book();
    let unit0: Vec<u16> = std::iter::once(11).chain(std::iter::repeat_n(0, 31)).collect();
    let broken: Vec<u16> = (0..32).map(|i| (i % 7) as u16).collect();
    let rest: Vec<u16> = (0..96).map(|i| [1u16, 0, 2, 0, 11][i % 5]).collect();
    let coded: Vec<u16> = unit0.iter().chain(&rest).copied().collect();
    let stream = one_chunk(&book, &coded, 5, vec![(1, broken.clone())]);
    let want: Vec<u16> = unit0.iter().chain(&broken).chain(&rest).copied().collect();
    let reference =
        canonical::decode(&stream.bytes, stream.total_bits, coded.len(), &book).unwrap();
    assert_eq!(reference, coded);
    assert_backends("breaking unit mid-probe", &stream, &book, &want);

    // A sidecar unit whose length disagrees with the unit stays an error.
    let mut bad = one_chunk(&book, &coded, 5, vec![(1, broken[..31].to_vec())]);
    bad.num_symbols = want.len();
    for kind in KINDS {
        assert!(matches!(
            decode::decode_stream(&bad, &book, kind),
            Err(HuffError::CorruptStream("outlier unit length mismatch"))
        ));
    }
}

#[test]
fn streams_cut_short_by_1_to_63_bits() {
    let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
    for (name, book) in books() {
        let Some(syms) = fill_bits(&book, 8 * 39, &mut rng) else { continue };
        let full = one_chunk(&book, &syms, 1, Vec::new());
        for cut in 1..=63u64 {
            let mut stream = full.clone();
            stream.total_bits -= cut;
            stream.chunk_bit_lens[0] -= cut;
            stream.bytes.truncate(stream.total_bits.div_ceil(8) as usize);
            assert!(
                canonical::decode(&stream.bytes, stream.total_bits, syms.len(), &book).is_err(),
                "{name}: reference decoded a stream cut by {cut} bits"
            );
            assert_backends_reject(&format!("{name} cut {cut}"), &stream, &book);
        }
    }
}
