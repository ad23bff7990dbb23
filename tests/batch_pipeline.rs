//! End-to-end contract of the sharded multi-stream batch pipeline.
//!
//! Pins the PR's acceptance criteria:
//!
//! * a 2-stream double-buffered run over a 64 MB input models strictly
//!   faster than the same kernels back-to-back on one stream;
//! * per-stream invariants — attributed stage times sum to each stream's
//!   busy time, kernels on a stream never overlap, and the Chrome trace
//!   renders one lane per stream;
//! * the multi-shard frame decodes bit-exactly, including through
//!   best-effort recovery with one shard corrupted (only that shard's
//!   span is lost).

use huff::huff_core::archive;
use huff::huff_core::batch::{compress_batched, BatchOptions};
use huff::huff_core::container;
use huff::huff_core::frame;
use huff::huff_core::metrics;
use huff::prelude::*;

fn data(n: usize) -> Vec<u16> {
    (0..n)
        .map(|i| {
            let x = (i as u64).wrapping_mul(0x9E3779B97F4A7C15) >> 40;
            (x % 256) as u16
        })
        .collect()
}

/// 64 MB of 2-byte symbols, 8 shards on 2 streams of one V100.
fn opts_64mb() -> (Vec<u16>, BatchOptions) {
    let n = 32 * 1024 * 1024;
    let mut opts = BatchOptions::new(256);
    opts.shard_symbols = n / 8;
    opts.streams = 2;
    (data(n), opts)
}

#[test]
fn two_stream_double_buffered_64mb_beats_serial_pipeline() {
    let (syms, opts) = opts_64mb();
    let (_, report) = compress_batched(&syms, &opts).unwrap();
    assert_eq!(report.input_bytes, 64 * 1024 * 1024);
    assert_eq!(report.shards.len(), 8);
    // The contended 2-stream makespan beats the same kernels serialized.
    assert!(
        report.makespan < report.serial_seconds,
        "makespan {} >= serial {}",
        report.makespan,
        report.serial_seconds
    );
    assert!(report.speedup() > 1.0);
}

#[test]
fn per_stream_invariants_hold_on_64mb_run() {
    let (syms, opts) = opts_64mb();
    let (frame_bytes, profile) = metrics::profile_compress_batched(&syms, &opts).unwrap();
    assert_eq!(container::sniff(&frame_bytes).unwrap(), container::Kind::Frame);

    let tl = &profile.report.devices[0].timeline;
    for sm in &profile.streams {
        // Kernel-sum == stage-total per stream (contended times).
        assert!(
            (sm.stages.total() - sm.busy).abs() < 1e-12,
            "stream {}: stages {} vs busy {}",
            sm.stream,
            sm.stages.total(),
            sm.busy
        );
        // Kernels on one stream never overlap (FIFO queue semantics).
        let mut prev_end = 0.0f64;
        for r in tl.stream_records(sm.stream) {
            assert!(r.start >= prev_end - 1e-15, "stream {} overlaps itself", sm.stream);
            prev_end = r.end;
        }
    }
    // The Chrome trace renders one lane per stream.
    let chrome = profile.to_chrome_trace();
    for sm in &profile.streams {
        assert!(chrome.contains(&format!("stream {}", sm.stream)));
    }
}

#[test]
fn sharded_frame_roundtrips_bit_exactly() {
    let syms = data(300_000);
    let mut opts = BatchOptions::new(256);
    opts.shard_symbols = 70_000;
    opts.devices = vec![DeviceSpec::test_part(), DeviceSpec::test_part()];
    let (frame_bytes, report) = compress_batched(&syms, &opts).unwrap();
    assert_eq!(report.shards.len(), 5);
    assert_eq!(archive::decompress(&frame_bytes).unwrap(), syms);
    // Strict and best-effort agree on a clean frame.
    let rec = decompress_with(&frame_bytes, &DecompressOptions::best_effort()).unwrap();
    assert_eq!(rec.symbols, syms);
    assert!(rec.report.is_clean());
}

#[test]
fn best_effort_recovers_all_but_the_corrupt_shard() {
    let syms = data(300_000);
    let mut opts = BatchOptions::new(256);
    opts.shard_symbols = 70_000;
    let (frame_bytes, _) = compress_batched(&syms, &opts).unwrap();
    let info = frame::parse(&frame_bytes, Verify::Full).unwrap();

    // Flip a payload byte deep inside shard 2's body.
    let mut corrupt = frame_bytes.clone();
    let r = &info.shard_ranges[2];
    corrupt[r.start + 3 * r.len() / 4] ^= 0x10;

    // Strict fails; best-effort recovers every other shard bit-exactly.
    assert!(archive::decompress(&corrupt).is_err());
    let rec = decompress_with(&corrupt, &DecompressOptions::best_effort()).unwrap();
    assert_eq!(rec.symbols.len(), syms.len());
    assert!(!rec.report.is_clean());
    let lost = info.shard_symbol_range(2).unwrap();
    for (i, (&got, &want)) in rec.symbols.iter().zip(&syms).enumerate() {
        if i < lost.start || i >= lost.end {
            assert_eq!(got, want, "symbol {i} outside the damaged shard changed");
        }
    }
    // The report localizes the loss inside shard 2's span.
    for &(s, e) in &rec.report.damaged_ranges {
        assert!(s >= lost.start && e <= lost.end, "damage [{s},{e}) outside shard 2 {lost:?}");
    }
    assert!(rec.report.symbols_lost > 0);
    assert!(rec.report.symbols_lost <= lost.len());
}

#[test]
fn multi_device_frame_is_deterministic_and_decodes() {
    let syms = data(250_000);
    let mut opts = BatchOptions::new(256);
    opts.shard_symbols = 40_000;
    opts.streams = 3;
    opts.devices = vec![DeviceSpec::v100(), DeviceSpec::rtx5000()];
    let (a, report) = compress_batched(&syms, &opts).unwrap();
    let (b, _) = compress_batched(&syms, &opts).unwrap();
    assert_eq!(a, b, "frame bytes depend on host scheduling");
    assert_eq!(report.devices.len(), 2);
    assert_eq!(archive::decompress(&a).unwrap(), syms);
    // Sharded output matches the unsharded archive's symbols (not bytes:
    // the containers differ), pinning shard-boundary correctness.
    let whole = compress(&syms, &CompressOptions::new(256)).unwrap();
    assert_eq!(decompress(&whole).unwrap(), archive::decompress(&a).unwrap());
}
