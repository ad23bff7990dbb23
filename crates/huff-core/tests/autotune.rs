//! Acceptance tests for the adaptive autotuner (`huff_core::tune`).
//!
//! The contract under test:
//!
//! 1. **Bit-identity.** Compressing through the tuner yields exactly the
//!    bytes you get by passing the tuner's chosen parameters explicitly
//!    to the underlying entry points (`compress_batched`,
//!    `archive::compress`, `store_raw`) — the tuner selects, it never
//!    invents a format.
//! 2. **Cache round-trip.** A persisted `rsh-tune-v1` cache reloads to
//!    the identical decisions, and a corrupted cache degrades to fresh
//!    modeling — it never fails a request and never serves a mangled
//!    decision.
//! 3. **Dispatch round-trip.** Every dispatch path's output decompresses
//!    through the single `archive::decompress_with` entry point.

use gpu_sim::DeviceSpec;
use huff_core::archive::{self, CompressOptions};
use huff_core::batch::{self, BatchOptions};
use huff_core::container;
use huff_core::integrity::DecompressOptions;
use huff_core::tune::{self, Dispatch, TuneCache, Tuner};
use proptest::prelude::*;

/// Skewed symbols over `k` bins: a golden-ratio multiplicative hash
/// folded to a triangular-ish distribution, deterministic per seed.
fn skewed(n: usize, k: u16, seed: u64) -> Vec<u16> {
    (0..n)
        .map(|i| {
            let x = (i as u64).wrapping_add(seed).wrapping_mul(0x9E3779B97F4A7C15);
            let a = (x >> 33) as u16 % k;
            let b = (x & 0xFFFF) as u16 % k;
            a.min(b)
        })
        .collect()
}

/// Re-create the tuner's output through the explicit public entry
/// points, from the decision's own parameters.
fn explicit_bytes(
    symbols: &[u16],
    num_symbols: usize,
    symbol_bytes: u8,
    decision: &tune::Decision,
    device: &DeviceSpec,
) -> Vec<u8> {
    match decision.dispatch {
        Dispatch::StoreRaw => container::store_raw(symbols, symbol_bytes).unwrap(),
        Dispatch::CpuSerial => {
            let mut opts = CompressOptions::new(num_symbols);
            opts.reduction = Some(decision.reduction.max(1));
            opts.symbol_bytes = symbol_bytes;
            archive::compress(symbols, &opts).unwrap()
        }
        Dispatch::Gpu => {
            let mut opts = BatchOptions::new(num_symbols);
            opts.shard_symbols = symbols.len().div_ceil(decision.shards.max(1) as usize).max(1);
            opts.streams = decision.streams.max(1) as usize;
            opts.devices = vec![device.clone()];
            opts.reduction = Some(decision.reduction.max(1));
            opts.symbol_bytes = symbol_bytes;
            let (frame, _) = batch::compress_batched(symbols, &opts).unwrap();
            frame
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Autotuned output is bit-identical to the same parameters passed
    /// explicitly, across input sizes that exercise all three dispatch
    /// paths, and round-trips through the archive entry point.
    #[test]
    fn autotuned_output_matches_explicit_parameters(
        n in 64usize..60_000,
        k in 2u16..512,
        seed in 0u64..1u64 << 48,
    ) {
        let symbols = skewed(n, k, seed);
        let device = DeviceSpec::v100();
        let mut tuner = Tuner::new(device.clone());
        let (_, decision, hit) =
            tuner.decide(&symbols, usize::from(k), 2).unwrap();
        prop_assert!(!hit, "fresh tuner must model, not hit");

        let (auto_bytes, d2, _) = tuner.compress(&symbols, usize::from(k), 2).unwrap();
        prop_assert_eq!(&d2, &decision, "decide() then compress() must agree");

        let manual = explicit_bytes(&symbols, usize::from(k), 2, &decision, &device);
        prop_assert_eq!(&auto_bytes, &manual, "tuned vs explicit bytes diverge");

        let back = archive::decompress_with(&auto_bytes, &DecompressOptions::default()).unwrap();
        prop_assert_eq!(back.symbols, symbols);
    }

    /// Cache round-trip: decisions survive the disk format bit-exactly,
    /// and a warmed tuner replays them without re-modeling.
    #[test]
    fn cache_roundtrips_decisions_bit_exactly(
        n in 256usize..20_000,
        k in 2u16..300,
        seed in 0u64..1u64 << 48,
    ) {
        let dir = std::env::temp_dir().join(format!("rsh-tune-prop-{seed:x}-{n}"));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tune.cache");
        let symbols = skewed(n, k, seed);

        let mut cold = Tuner::with_cache_path(DeviceSpec::v100(), &path);
        let (sig, decision, hit) = cold.decide(&symbols, usize::from(k), 2).unwrap();
        prop_assert!(!hit);

        let mut warm = Tuner::with_cache_path(DeviceSpec::v100(), &path);
        let (sig2, decision2, hit2) = warm.decide(&symbols, usize::from(k), 2).unwrap();
        prop_assert!(hit2, "persisted decision must be found on reload");
        prop_assert_eq!(sig2, sig);
        prop_assert_eq!(decision2, decision);
        prop_assert_eq!(warm.modeled_sweeps, 0);

        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn corrupted_cache_file_degrades_to_modeling() {
    let dir = std::env::temp_dir().join("rsh-tune-corrupt-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("tune.cache");
    let symbols = skewed(30_000, 64, 7);

    let mut tuner = Tuner::with_cache_path(DeviceSpec::v100(), &path);
    let (_, clean_decision, _) = tuner.decide(&symbols, 64, 2).unwrap();
    let clean_len = std::fs::metadata(&path).unwrap().len();
    assert!(clean_len > 12, "cache file should have a header plus one entry");

    // Flip a byte in every region of the file; the reader contract is
    // "fall back to modeling, never fail the request".
    for at in [0u64, 5, 9, 13, clean_len - 2] {
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[at as usize] ^= 0x5A;
        std::fs::write(&path, &bytes).unwrap();

        let mut hurt = Tuner::with_cache_path(DeviceSpec::v100(), &path);
        let (_, decision, hit) = hurt.decide(&symbols, 64, 2).unwrap();
        assert!(!hit, "corrupt cache (byte {at}) must not serve a hit");
        assert_eq!(decision, clean_decision, "re-modeled decision must match the clean one");
    }

    // A truncated file keeps no partial entry.
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
    let cache = TuneCache::load(&path);
    assert!(cache.is_empty(), "truncated single-entry cache must load empty");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_dispatch_path_is_archive_compatible() {
    let device = DeviceSpec::v100();
    let cases: Vec<(Vec<u16>, usize, u8, Dispatch)> = vec![
        // Large skewed input: GPU batch path, RSHM frame.
        (skewed(50_000, 256, 1), 256, 2, Dispatch::Gpu),
        // Tiny input: CPU-serial path, RSH2 archive.
        (skewed(512, 64, 2), 64, 2, Dispatch::CpuSerial),
        // Uniform bytes: incompressible, RSHR raw container.
        ((0..40_000).map(|i| (i % 251) as u16).collect(), 256, 1, Dispatch::StoreRaw),
    ];
    for (symbols, k, width, want) in cases {
        let mut tuner = Tuner::new(device.clone());
        let (sig, decision, _) = tuner.decide(&symbols, k, width).unwrap();
        assert_eq!(decision.dispatch, want, "sig {sig:?}");
        let bytes = tune::compress_with_decision(
            &symbols,
            k,
            width,
            &decision,
            std::slice::from_ref(&device),
        )
        .unwrap();
        let back = archive::decompress_with(&bytes, &DecompressOptions::default()).unwrap();
        assert_eq!(back.symbols, symbols);
        assert!(archive::verify(&bytes).unwrap().is_clean());
    }
}

#[test]
fn signature_quantization_reuses_decisions_across_similar_inputs() {
    // Two different seeds over the same alphabet and size class produce
    // the same signature, so the second input rides the first's cached
    // decision — the whole point of signature-keyed (not input-keyed)
    // caching.
    let a = skewed(32_768, 128, 11);
    let b = skewed(32_768, 128, 13);
    let mut tuner = Tuner::new(DeviceSpec::v100());
    let (sig_a, _, hit_a) = tuner.decide(&a, 128, 2).unwrap();
    let (sig_b, _, hit_b) = tuner.decide(&b, 128, 2).unwrap();
    assert!(!hit_a);
    assert_eq!(sig_a, sig_b, "similar inputs must quantize to one signature");
    assert!(hit_b, "second similar input must hit the in-memory cache");
    assert_eq!(tuner.modeled_sweeps, 1);
}
