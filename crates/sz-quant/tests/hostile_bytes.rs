//! `sz_quant::decompress` under hostile bytes: every truncation prefix, a
//! single-bit flip at every byte, and every count field set to its maximum
//! (the container's own and the embedded Huffman archive's, re-signed
//! where the archive's header checksum covers them). The reader returns a
//! field or an error and never panics.

use huff_core::archive;
use huff_core::integrity::{crc32, Section};
use std::panic::{catch_unwind, AssertUnwindSafe};
use sz_quant::compress::{compress, decompress};
use sz_quant::field;

fn must_not_panic(what: &str, bytes: &[u8]) {
    if catch_unwind(AssertUnwindSafe(|| decompress(bytes))).is_err() {
        panic!("{what}: sz_quant::decompress panicked instead of returning an error");
    }
}

/// A small field with unpredictable samples, so the outlier list is live.
fn packed() -> (Vec<u8>, usize) {
    let mut f = field::smooth_cosines(8, 4, 2, 2, 5);
    for at in [3, 40] {
        f.data[at] += 1.0e6;
    }
    let (bytes, stats) = compress(&f, 0.01, 16).unwrap();
    assert!(stats.unpredictable >= 2);
    assert!(decompress(&bytes).is_ok());
    (bytes, stats.unpredictable)
}

#[test]
fn hostile_sz_bytes_never_panic() {
    let (clean, n_outliers) = packed();
    assert!(clean.len() < 4096, "sweep input is {} bytes", clean.len());
    for cut in 0..clean.len() {
        must_not_panic(&format!("cut at {cut}"), &clean[..cut]);
    }
    for at in 0..clean.len() {
        let mut b = clean.clone();
        b[at] ^= 1 << (at % 8);
        must_not_panic(&format!("bit flip at {at}"), &b);
    }

    // magic | nx ny nz u32 | error_bound f32 | num_bins u32 |
    // n_outliers u32 | { index u64, value f32 } × n | coded_len u64 | archive
    let coded_len_at = 28 + 12 * n_outliers;
    let base = coded_len_at + 8;
    let mut fields = vec![(4, 4), (8, 4), (12, 4), (20, 4), (24, 4), (coded_len_at, 8)];
    let sections = archive::layout(&clean[base..]).unwrap();
    let start = |s: Section| sections.iter().find(|(x, _)| *x == s).unwrap().1.start + base;
    let checksums = sections.iter().find(|(s, _)| *s == Section::Checksums).unwrap().1.clone();
    let crc_at = base + checksums.end - 4;
    let archive_fields = [
        (base + 8, 8),                   // num_symbols
        (start(Section::Codebook), 4),   // codebook_len
        (start(Section::ChunkTable), 4), // num_chunks
        (start(Section::Outliers), 4),   // outlier_units
        (start(Section::TotalBits), 8),  // total_bits
    ];
    fields.extend(archive_fields);
    for (at, width) in fields {
        let mut b = clean.clone();
        b[at..at + width].fill(0xFF);
        must_not_panic(&format!("count at {at} = MAX"), &b);
        if at >= base {
            let crc = crc32(&b[base..crc_at]);
            b[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());
            must_not_panic(&format!("count at {at} = MAX, re-signed"), &b);
        }
    }
}

#[test]
fn a_nan_error_bound_is_a_header_error() {
    let (mut bytes, _) = packed();
    bytes[16..20].copy_from_slice(&f32::NAN.to_le_bytes());
    must_not_panic("NaN error bound", &bytes);
    assert!(decompress(&bytes).is_err());
}
