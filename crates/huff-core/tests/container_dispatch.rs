//! Container dispatch under hostile input.
//!
//! * A frame shard body is read as a bare RSH1/RSH2 archive only: a
//!   deeply nested `RSHM` frame or an `RSHR` shard body is a structured
//!   error on every entry point. A shard that re-entered the container
//!   dispatch would let nesting depth, and so stack depth, grow with the
//!   input.
//! * A deterministic sweep over every truncation prefix, a single-bit
//!   flip at every byte, and every count field set to its maximum, on one
//!   small input per container format: each dispatch entry point returns
//!   `Ok` or a structured error and never panics.

use huff_core::archive::{self, CompressOptions};
use huff_core::container;
use huff_core::frame;
use huff_core::integrity::{crc32, DecompressOptions, Section, Verify};
use huff_core::serve::{Engine, EngineConfig, Outcome, Request};
use huff_core::{DecoderKind, HuffError};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

fn symbols(n: usize, bins: u64) -> Vec<u16> {
    (0..n).map(|i| (((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) % bins) as u16).collect()
}

/// `depth` single-shard frames around a 64-symbol RSH2 archive.
fn nested_frame(depth: usize) -> Vec<u8> {
    let mut bytes = archive::compress(&symbols(64, 64), &CompressOptions::new(64)).unwrap();
    for _ in 0..depth {
        bytes = frame::assemble(&[bytes], 64, 64, 2).unwrap();
    }
    bytes
}

#[test]
fn nested_frames_and_raw_shards_are_structured_errors() {
    let nested = nested_frame(5_000);
    let raw_shard =
        frame::assemble(&[container::store_raw(&symbols(64, 64), 2).unwrap()], 64, 64, 2).unwrap();
    for (name, bytes) in [("nested RSHM", &nested), ("RSHR shard", &raw_shard)] {
        for opts in [DecompressOptions::default(), DecompressOptions::best_effort()] {
            assert!(archive::decompress_with(bytes, &opts).is_err(), "{name}: decompress_with");
            assert!(archive::decode_range(bytes, 0..128, &opts).is_err(), "{name}: decode_range");
        }
        assert!(archive::verify(bytes).is_err(), "{name}: verify");

        let mut engine = Engine::new(EngineConfig::new(64));
        let done = engine.submit(Request::decompress("hostile", 0.0, bytes.clone())).unwrap();
        assert!(matches!(done.outcome, Outcome::Failed { .. }), "{name}: {:?}", done.outcome);
        assert!(done.response.is_none(), "{name}: engine served a response");
    }
}

/// A count field at `at`, `width` bytes wide, and the header checksum
/// that signs it: `(signed bytes, checksum offset)`.
struct Field {
    at: usize,
    width: usize,
    signed_by: Option<(Range<usize>, usize)>,
}

/// The count fields of the RSH1/RSH2 archive starting at `base` in
/// `bytes`, including its first chunk length and, when present, the
/// seek-index trailer's counts.
fn archive_fields(bytes: &[u8], base: usize) -> Vec<Field> {
    let sections = archive::layout(&bytes[base..]).unwrap();
    let start = |s: Section| sections.iter().find(|(x, _)| *x == s).map(|(_, r)| base + r.start);
    let header_crc = sections
        .iter()
        .find(|(s, _)| *s == Section::Checksums)
        .map(|(_, r)| (base..base + r.end - 4, base + r.end - 4));
    let mut fields = vec![
        (base + 8, 8),                                // num_symbols
        (start(Section::Codebook).unwrap(), 4),       // codebook_len
        (start(Section::ChunkTable).unwrap(), 4),     // num_chunks
        (start(Section::ChunkTable).unwrap() + 4, 8), // chunk 0 bit length
        (start(Section::Outliers).unwrap(), 4),       // outlier_units
        (start(Section::Outliers).unwrap() + 12, 2),  // outlier unit 0 count
        (start(Section::TotalBits).unwrap(), 8),      // total_bits
    ]
    .into_iter()
    .map(|(at, width)| Field { at, width, signed_by: header_crc.clone() })
    .collect::<Vec<_>>();
    if let Some((_, idx)) = sections.iter().find(|(s, _)| *s == Section::SeekIndex) {
        let (lo, hi) = (base + idx.start, base + idx.end);
        for (off, width) in [(8, 8), (16, 8), (24, 4), (28, 4), (32, 4)] {
            fields.push(Field { at: lo + off, width, signed_by: Some((lo..hi - 4, hi - 4)) });
        }
    }
    fields
}

/// Every dispatch entry point on `bytes`, in each recovery mode.
fn exercise(bytes: &[u8]) {
    let _ = container::sniff(bytes);
    let _ = container::info(bytes);
    let _ = archive::verify(bytes);
    for opts in [
        DecompressOptions::default(),
        DecompressOptions::best_effort(),
        DecompressOptions::best_effort().with_decoder(DecoderKind::Lut),
    ] {
        let _ = archive::decompress_with(bytes, &opts);
        let _ = archive::decode_range(bytes, 10..90, &opts);
    }
}

fn must_not_panic(what: &str, bytes: &[u8]) {
    if catch_unwind(AssertUnwindSafe(|| exercise(bytes))).is_err() {
        panic!("{what}: an entry point panicked instead of returning an error");
    }
}

#[test]
fn hostile_bytes_never_panic() {
    // Small archives with several chunks and breaking units, so every
    // count field is live: M = 6 (64-symbol chunks), r = 3 (8-symbol
    // units, which break on a ~6-bit alphabet).
    let opts = CompressOptions { magnitude: 6, reduction: Some(3), ..CompressOptions::new(64) };
    let data = symbols(300, 64);
    let rsh2 = archive::compress(&data, &opts).unwrap();
    let (stream, book, sb) = archive::deserialize(&rsh2).unwrap();
    assert!(stream.num_chunks() > 1 && stream.outliers.num_units() > 0);
    let rsh1 = archive::serialize_v1(&stream, &book, sb).unwrap();
    let shards: Vec<Vec<u8>> =
        data.chunks(100).map(|s| archive::compress(s, &opts).unwrap()).collect();
    let rshm = frame::assemble(&shards, 300, 100, 2).unwrap();
    let rshr = container::store_raw(&data, 2).unwrap();

    let frame_crc = Some((0..28 + 8 * 3, 28 + 8 * 3));
    let mut frame_fields: Vec<Field> = [(8, 8), (16, 8), (24, 4), (28, 8), (36, 8)]
        .into_iter()
        .map(|(at, width)| Field { at, width, signed_by: frame_crc.clone() })
        .collect();
    let shard0 = frame::parse(&rshm, Verify::Full).unwrap().shard_ranges[0].start;
    frame_fields.extend(archive_fields(&rshm, shard0));
    let inputs = [
        ("RSH1", rsh1.clone(), archive_fields(&rsh1, 0)),
        ("RSH2", rsh2.clone(), archive_fields(&rsh2, 0)),
        ("RSHM", rshm, frame_fields),
        ("RSHR", rshr, vec![Field { at: 8, width: 8, signed_by: Some((0..20, 20)) }]),
    ];
    for (name, bytes, fields) in &inputs {
        assert!(bytes.len() < 4096, "{name} sweep input is {} bytes", bytes.len());
        for cut in 0..bytes.len() {
            must_not_panic(&format!("{name} cut at {cut}"), &bytes[..cut]);
        }
        for at in 0..bytes.len() {
            let mut b = bytes.clone();
            b[at] ^= 1 << (at % 8);
            must_not_panic(&format!("{name} bit flip at {at}"), &b);
        }
        for f in fields {
            let mut b = bytes.clone();
            b[f.at..f.at + f.width].fill(0xFF);
            must_not_panic(&format!("{name} count at {} = MAX", f.at), &b);
            // Re-signed, so the value gets past the header checksum.
            if let Some((signed, crc_at)) = &f.signed_by {
                let crc = crc32(&b[signed.clone()]);
                b[*crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());
                must_not_panic(&format!("{name} count at {} = MAX, re-signed", f.at), &b);
            }
        }
    }
}

#[test]
fn frame_declaring_more_symbols_than_its_shard_can_hold_is_refused() {
    // One real 64-symbol shard under a frame header that declares 2^38
    // symbols: a few hundred bytes asking for a 512 GiB output. A coded
    // symbol costs at least one bit, so the shard's body cannot hold the
    // range.
    let shard = archive::compress(&symbols(64, 64), &CompressOptions::new(64)).unwrap();
    let bomb = frame::assemble(&[shard], 1 << 38, 1 << 38, 2).unwrap();
    assert!(bomb.len() < 300, "{} bytes", bomb.len());
    assert!(matches!(frame::parse(&bomb, Verify::Full), Err(HuffError::BadArchive(_))));
    for opts in [DecompressOptions::default(), DecompressOptions::best_effort()] {
        let got = archive::decompress_with(&bomb, &opts);
        assert!(matches!(got, Err(HuffError::BadArchive(_))), "{:?}: {got:?}", opts.mode);
        assert!(archive::decode_range(&bomb, 0..128, &opts).is_err());
    }
    assert!(archive::verify(&bomb).is_err());

    let mut engine = Engine::new(EngineConfig::new(64));
    let done = engine.submit(Request::decompress("bomb", 0.0, bomb)).unwrap();
    assert!(matches!(done.outcome, Outcome::Failed { .. }), "{:?}", done.outcome);
    assert!(done.response.is_none());
}

#[test]
fn forged_payload_length_is_damage_not_an_allocation() {
    // One 64-symbol chunk whose re-signed header claims 2^45 payload
    // bits: a reader that sized its payload buffer from the header would
    // ask for 4 TiB. The bytes present cannot back the chunk, so a
    // best-effort read reports it damaged, and a strict read refuses it.
    let packed = archive::compress(&symbols(64, 64), &CompressOptions::new(64)).unwrap();
    let sections = archive::layout(&packed).unwrap();
    let range = |s: Section| sections.iter().find(|(x, _)| *x == s).unwrap().1.clone();
    assert_eq!(archive::chunk_count(&packed).unwrap(), 1);
    let mut forged = packed.clone();
    let huge = (1u64 << 45).to_le_bytes();
    let chunk0 = range(Section::ChunkTable).start + 4;
    forged[chunk0..chunk0 + 8].copy_from_slice(&huge);
    let total = range(Section::TotalBits).start;
    forged[total..total + 8].copy_from_slice(&huge);
    let crc_at = range(Section::Checksums).end - 4;
    let crc = crc32(&forged[..crc_at]);
    forged[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());

    for kind in [DecoderKind::Serial, DecoderKind::Chunked, DecoderKind::Lut] {
        let opts = DecompressOptions::best_effort().with_decoder(kind);
        let rec = archive::decompress_with(&forged, &opts).unwrap();
        assert_eq!(rec.symbols.len(), 64);
        assert_eq!(rec.report.damaged_chunks, [0], "{kind:?}");
        assert!(rec.report.symbols_lost > 0);
        let r = archive::decode_range(&forged, 10..90, &opts).unwrap();
        assert_eq!(r.bytes.len(), 80);
        assert_eq!(r.report.damaged_chunks, [0], "{kind:?}");
    }
    let strict = DecompressOptions::default();
    assert!(archive::decompress_with(&forged, &strict).is_err());
    assert!(archive::decode_range(&forged, 10..90, &strict).is_err());
}
