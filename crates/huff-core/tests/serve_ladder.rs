//! Known answer for the serving engine's decode ladder.
//!
//! A decompress request walks the strict ladder LUT → chunked → serial
//! and ends in best-effort recovery. Each rung it tries becomes one
//! service stage: `decode_<kind>` when it serves, `decode_<kind>_failed`
//! when it fails, and `best_effort` for the recovery. This file pins the
//! exact stage list, every stage's modeled seconds and the outcome label
//! for a clean, a glitched and a corrupted request, each both as a full
//! decompress and as a range read. A change to how the engine runs its
//! ladder must leave all of them where they are.

use gpu_sim::DeviceSpec;
use huff_core::batch::compress_batched;
use huff_core::serve::{ChaosConfig, Engine, EngineConfig, Outcome, Request};

fn cfg() -> EngineConfig {
    let mut cfg = EngineConfig::new(256);
    cfg.batch.shard_symbols = 8192;
    cfg.batch.devices = vec![DeviceSpec::test_part(), DeviceSpec::test_part()];
    cfg
}

/// A served RSHM frame of 24,000 skewed symbols in three shards.
fn frame() -> Vec<u8> {
    let syms: Vec<u16> = (0..24_000u64)
        .map(|i| ((i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) % 97 % (1 + i % 61)) as u16)
        .collect();
    compress_batched(&syms, &cfg().batch).unwrap().0
}

fn chaos(seed: u64, glitch_prob: f64, corruption_prob: f64) -> ChaosConfig {
    ChaosConfig { glitch_prob, corruption_prob, ..ChaosConfig::quiet(seed) }
}

/// One request through a fresh engine: each service stage as
/// `name seconds`, then the outcome with its backend and loss.
fn ladder(chaos: ChaosConfig, req: Request) -> Vec<String> {
    let mut engine = Engine::with_chaos(cfg(), chaos);
    let done = engine.submit(req).unwrap().clone();
    let spans = engine.spans();
    let service = spans.children(done.span_id).into_iter().find(|s| s.name == "service").unwrap();
    let mut out: Vec<String> = spans
        .children(service.span_id)
        .iter()
        .map(|s| format!("{} {:e}", s.name, s.duration()))
        .collect();
    out.push(format!("service {:e}", done.service));
    out.push(match &done.outcome {
        Outcome::Degraded { backend, symbols_lost } => format!("degraded {backend} {symbols_lost}"),
        other => other.label().to_string(),
    });
    out
}

#[test]
fn decompress_ladder_stages_and_labels() {
    let f = frame();
    let req = || Request::decompress("d", 0.0, f.clone());
    assert_eq!(
        ladder(chaos(2, 0.0, 0.0), req()),
        [
            "overhead 2e-5",
            "decode_lut 8.727272727272718e-7",
            "service 2.0872727272727273e-5",
            "success"
        ]
    );
    assert_eq!(
        ladder(chaos(2, 1.0, 0.0), req()),
        [
            "overhead 2e-5",
            "decode_lut_failed 7.856818181818222e-8",
            "decode_chunked 2.666666666666666e-6",
            "service 2.274523484848485e-5",
            "degraded chunked 0",
        ]
    );
    assert_eq!(
        ladder(chaos(2, 0.0, 1.0), req()),
        [
            "overhead 2e-5",
            "decode_lut_failed 7.856818181818222e-8",
            "decode_chunked_failed 2.400694444444451e-7",
            "decode_serial_failed 3.6010416666666667e-6",
            "best_effort 4.000000000000001e-5",
            "service 6.39196792929293e-5",
            "degraded best_effort 1024",
        ]
    );
}

#[test]
fn range_ladder_stages_and_labels() {
    let f = frame();
    let req = || Request::decompress_range("r", 0.0, f.clone(), 10_000..30_000);
    assert_eq!(
        ladder(chaos(2, 0.0, 0.0), req()),
        [
            "overhead 2e-5",
            "decode_lut 3.6363636363636323e-7",
            "service 2.0363636363636365e-5",
            "success"
        ]
    );
    assert_eq!(
        ladder(chaos(2, 1.0, 0.0), req()),
        [
            "overhead 2e-5",
            "decode_lut_failed 9.09090909090925e-8",
            "decode_chunked 1.1111111111111125e-6",
            "service 2.1202020202020207e-5",
            "degraded chunked 0",
        ]
    );
    assert_eq!(
        ladder(chaos(2, 0.0, 1.0), req()),
        [
            "overhead 2e-5",
            "decode_lut_failed 9.09090909090925e-8",
            "decode_chunked_failed 2.7777777777777813e-7",
            "decode_serial_failed 4.1666666666666686e-6",
            "best_effort 1.6666666666666667e-5",
            "service 4.120202020202021e-5",
            "degraded best_effort 1024",
        ]
    );
}
