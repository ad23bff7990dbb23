//! Known-answer digests for fixed seeds and options.
//!
//! Proptests check that every path round-trips; nothing else pins what
//! the bytes *are* across commits. This file does: for each case it pins
//! the CRC32 of the archive bytes, of each decoder's strict output, of
//! each decoder's best-effort output (one chunk marked damaged, report
//! included), and the exact gap-array counters the LUT decoder returns,
//! which feed the modeled LUT kernels.
//!
//! The digests were generated from the bit-serial decoders and the
//! byte-at-a-time CRC32. A change that moves any of them changes the
//! archive format, the decoded output, or a modeled number.

use huff::huff_core::archive::{self, CompressOptions};
use huff::huff_core::decode::{self, lut, DecoderKind};
use huff::huff_core::encode::reduce_shuffle;
use huff::huff_core::integrity::{crc32, Crc32, RecoveryReport};
use huff::prelude::*;

const KINDS: [DecoderKind; 3] = [DecoderKind::Serial, DecoderKind::Chunked, DecoderKind::Lut];

fn symbols_crc(symbols: &[u16]) -> u32 {
    let bytes: Vec<u8> = symbols.iter().flat_map(|s| s.to_le_bytes()).collect();
    crc32(&bytes)
}

/// CRC32 over the symbols, then every field of the recovery report.
fn recovered_crc(symbols: &[u16], report: &RecoveryReport) -> u32 {
    let mut h = Crc32::new();
    for s in symbols {
        h.update(&s.to_le_bytes());
    }
    for &c in &report.damaged_chunks {
        h.update(&(c as u64).to_le_bytes());
    }
    for &(s, e) in &report.damaged_ranges {
        h.update(&(s as u64).to_le_bytes());
        h.update(&(e as u64).to_le_bytes());
    }
    h.update(&(report.symbols_lost as u64).to_le_bytes());
    h.update(&(report.total_chunks as u64).to_le_bytes());
    h.finalize()
}

/// Every pinned value of one archive, as `name value` lines.
fn answers(packed: &[u8]) -> Vec<String> {
    let mut out = vec![format!("archive.len {}", packed.len())];
    out.push(format!("archive.crc {:#010x}", crc32(packed)));
    let (stream, book, _) = archive::deserialize(packed).unwrap();
    for kind in KINDS {
        let syms = decode::decode_stream(&stream, &book, kind).unwrap();
        out.push(format!("strict.{} {} {:#010x}", kind.name(), syms.len(), symbols_crc(&syms)));
    }
    let mut damaged = vec![false; stream.num_chunks()];
    if let Some(d) = damaged.get_mut(stream.num_chunks() / 2) {
        *d = true;
    }
    for kind in KINDS {
        let (syms, report) =
            decode::decode_stream_best_effort(&stream, &book, &damaged, 0xFFFE, kind);
        out.push(format!("best_effort.{} {:#010x}", kind.name(), recovered_crc(&syms, &report)));
    }
    let table = lut::DecodeLut::build(&book, lut::DEFAULT_LUT_BITS);
    let (_, gap) =
        lut::decode_with(&stream, &book, &table, lut::SubchunkConfig::default()).unwrap();
    out.push(format!(
        "gap {} {} {} {}",
        gap.subsequences, gap.max_sync_passes, gap.sync_steps, gap.decoded_symbols
    ));
    out
}

fn assert_answers(case: &str, packed: &[u8], want: &[&str]) {
    let got = answers(packed);
    assert_eq!(got, want, "{case}: known answers moved; now:\n{:#?}", got);
}

fn text_opts() -> CompressOptions {
    CompressOptions { symbol_bytes: 1, ..CompressOptions::new(256) }
}

#[test]
fn enwik8_like_text() {
    let data = PaperDataset::Enwik8.generate(1 << 16, 7);
    let packed = archive::compress(&data, &text_opts()).unwrap();
    assert_answers(
        "enwik8",
        &packed,
        &[
            "archive.len 43777",
            "archive.crc 0x8858f1d8",
            "strict.serial 65536 0x18158389",
            "strict.chunked 65536 0x18158389",
            "strict.lut 65536 0x18158389",
            "best_effort.serial 0x1f25286b",
            "best_effort.chunked 0x1f25286b",
            "best_effort.lut 0x1f25286b",
            "gap 1344 2 115053 65472",
        ],
    );
}

#[test]
fn nyx_quant_codes_r3() {
    let data = PaperDataset::NyxQuant.generate(1 << 16, 7);
    let opts = CompressOptions { reduction: Some(3), ..CompressOptions::new(1024) };
    let packed = archive::compress(&data, &opts).unwrap();
    assert_answers(
        "nyx-quant",
        &packed,
        &[
            "archive.len 10512",
            "archive.crc 0x1a86db63",
            "strict.serial 65536 0x933f6b62",
            "strict.chunked 65536 0x933f6b62",
            "strict.lut 65536 0x933f6b62",
            "best_effort.serial 0x2d1518c4",
            "best_effort.chunked 0x2d1518c4",
            "best_effort.lut 0x2d1518c4",
            "gap 320 2 67534 65536",
        ],
    );
}

/// MR-like bytes (about 4 bits a symbol) forced to r = 3: eight codes
/// fill a 32-bit word on average, so a large share of units break and
/// the rest stay in-band.
fn breaking_heavy(strategy: BreakingStrategy) -> Vec<u8> {
    let data = PaperDataset::Mr.generate(1 << 15, 9);
    let opts = CompressOptions { reduction: Some(3), strategy, ..text_opts() };
    let packed = archive::compress(&data, &opts).unwrap();
    let (stream, _, _) = archive::deserialize(&packed).unwrap();
    if strategy == BreakingStrategy::SparseSidecar {
        let f = stream.breaking_fraction();
        assert!(f > 0.2 && f < 0.8, "breaking fraction {f}");
    }
    packed
}

#[test]
fn breaking_heavy_sparse_sidecar() {
    let packed = breaking_heavy(BreakingStrategy::SparseSidecar);
    assert_answers(
        "breaking/sidecar",
        &packed,
        &[
            "archive.len 52713",
            "archive.crc 0x6c9acd97",
            "strict.serial 32768 0xef5cb0df",
            "strict.chunked 32768 0xef5cb0df",
            "strict.lut 32768 0xef5cb0df",
            "best_effort.serial 0xb0d5c14f",
            "best_effort.chunked 0xb0d5c14f",
            "best_effort.lut 0xb0d5c14f",
            "gap 297 2 32893 19552",
        ],
    );
}

#[test]
fn breaking_heavy_widen_word() {
    let packed = breaking_heavy(BreakingStrategy::WidenWord);
    assert_answers(
        "breaking/widen",
        &packed,
        &[
            "archive.len 17185",
            "archive.crc 0x199aab0d",
            "strict.serial 32768 0xef5cb0df",
            "strict.chunked 32768 0xef5cb0df",
            "strict.lut 32768 0xef5cb0df",
            "best_effort.serial 0x40fe702d",
            "best_effort.chunked 0x40fe702d",
            "best_effort.lut 0x40fe702d",
            "gap 527 2 56637 32768",
        ],
    );
}

/// A 60-bit-deep codebook. Under `WidenWord` at r = 1 a unit pairing a
/// 60-bit code with the 1-bit code fits a 64-bit word, so the longest
/// codes sit in the payload itself, past what one 64-bit window holds.
#[test]
fn codebook_deeper_than_a_window() {
    let lengths: Vec<u32> = (1..=60).chain([60]).collect();
    let book = CanonicalCodebook::from_lengths(&lengths).unwrap();
    assert_eq!(book.max_len(), 60);
    let data: Vec<u16> = (0..6_000u32)
        .map(|i| match i % 4 {
            0 | 2 => 0,
            1 => (i / 4 % 61) as u16,
            _ => [58u16, 59, 60, 13][(i / 4 % 4) as usize],
        })
        .collect();
    let stream =
        reduce_shuffle::encode(&data, &book, MergeConfig::new(8, 1), BreakingStrategy::WidenWord)
            .unwrap();
    let packed = archive::serialize(&stream, &book, 2).unwrap();
    assert_eq!(archive::decompress(&packed).unwrap(), data);
    assert_answers(
        "deep",
        &packed,
        &[
            "archive.len 15661",
            "archive.crc 0xceb6819d",
            "strict.serial 6000 0xbbeab13e",
            "strict.chunked 6000 0xbbeab13e",
            "strict.lut 6000 0xbbeab13e",
            "best_effort.serial 0x629340cc",
            "best_effort.chunked 0x629340cc",
            "best_effort.lut 0x629340cc",
            "gap 489 2 11591 6000",
        ],
    );
}

#[test]
fn empty_input() {
    let packed = archive::compress(&[], &text_opts()).unwrap();
    assert_answers(
        "empty",
        &packed,
        &[
            "archive.len 96",
            "archive.crc 0xf69ef35d",
            "strict.serial 0 0x00000000",
            "strict.chunked 0 0x00000000",
            "strict.lut 0 0x00000000",
            "best_effort.serial 0xecbb4b55",
            "best_effort.chunked 0xecbb4b55",
            "best_effort.lut 0xecbb4b55",
            "gap 0 0 0 0",
        ],
    );
}
