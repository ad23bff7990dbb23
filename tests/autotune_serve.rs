//! Serve-mode acceptance for the tuning cache (`huff_core::tune` +
//! `huff_core::serve`).
//!
//! The contract: a serving engine with a tuner warms its tuning cache on
//! the first request for a workload signature and serves every repeat of
//! that signature from the cache — zero modeling cost, byte-identical
//! frames, and a visible hit counter in the metrics registry.

use huff::huff_core::serve::{Engine, EngineConfig, Outcome, Request, Response};
use huff::huff_core::tune::{Tuner, MODEL_SWEEP_SECONDS};
use huff::prelude::*;
use huff::DeviceSpec;

fn workload(seed: u64) -> Vec<u16> {
    PaperDataset::Nci.generate(48_000, seed)
}

fn tuned_engine() -> Engine {
    let mut cfg = EngineConfig::new(256);
    cfg.batch.symbol_bytes = 2;
    Engine::new(cfg).with_tuner(Tuner::new(DeviceSpec::v100()))
}

fn frame_of(resp: &Response) -> &[u8] {
    match resp {
        Response::Frame(bytes) => bytes,
        other => panic!("expected a frame response, got {other:?}"),
    }
}

#[test]
fn second_identical_request_is_served_from_the_tuning_cache() {
    let mut eng = tuned_engine();
    let syms = workload(42);

    let first = eng.submit(Request::compress("r1", 0.0, syms.clone())).unwrap();
    assert!(matches!(first.outcome, Outcome::Success), "{:?}", first.outcome);
    let first_service = first.service;
    let first_frame = frame_of(first.response.as_ref().unwrap()).to_vec();

    let second = eng.submit(Request::compress("r2", 1.0, syms.clone())).unwrap();
    assert!(matches!(second.outcome, Outcome::Success), "{:?}", second.outcome);
    let second_service = second.service;
    let second_frame = frame_of(second.response.as_ref().unwrap()).to_vec();

    // Byte-identical frames: the cached decision replays the exact
    // geometry, not an equivalent one.
    assert_eq!(first_frame, second_frame);

    // The tuner modeled exactly once; the repeat hit the cache.
    let tuner = eng.tuner().expect("engine was built with a tuner");
    assert_eq!(tuner.misses, 1);
    assert_eq!(tuner.modeled_sweeps, 1);
    assert!(tuner.hits >= 1, "second request must hit the tuning cache");

    // Zero modeling cost on the hit: the second request's service time
    // drops by exactly the modeled sweep charge.
    let saved = first_service - second_service;
    assert!(
        (saved - MODEL_SWEEP_SECONDS).abs() < 1e-12,
        "expected the cache hit to save the {MODEL_SWEEP_SECONDS}s sweep, saved {saved}s"
    );

    // The engine's registry shows the warm-up: exactly one miss, then
    // exactly one hit.
    let reg = eng.metrics();
    assert_eq!(reg.get("rsh_tune_lookups_total", &[("result", "miss")]), 1.0);
    assert_eq!(reg.get("rsh_tune_lookups_total", &[("result", "hit")]), 1.0);

    // And the round-trip stays lossless through the tuned path.
    let back = huff::decompress(&first_frame).unwrap();
    assert_eq!(back, syms);
}

#[test]
fn distinct_workload_signatures_each_model_once() {
    // NyxQuant spans a 1024-symbol alphabet; size the engine's bins for it.
    let mut cfg = EngineConfig::new(1024);
    cfg.batch.symbol_bytes = 2;
    let mut eng = Engine::new(cfg).with_tuner(Tuner::new(DeviceSpec::v100()));
    let nci = workload(7);
    // A different entropy regime: near-uniform Nyx-style quantized data.
    let nyx = PaperDataset::NyxQuant.generate(48_000, 7);

    eng.submit(Request::compress("a1", 0.0, nci.clone())).unwrap();
    eng.submit(Request::compress("b1", 1.0, nyx.clone())).unwrap();
    eng.submit(Request::compress("a2", 2.0, nci)).unwrap();
    eng.submit(Request::compress("b2", 3.0, nyx)).unwrap();

    let tuner = eng.tuner().unwrap();
    assert_eq!(tuner.misses, 2, "two distinct signatures, two modeled sweeps");
    assert_eq!(tuner.modeled_sweeps, 2);
    assert_eq!(tuner.hits, 2, "each repeat must be a cache hit");
}

#[test]
fn untuned_engine_still_serves_and_reports_no_tuner() {
    let mut cfg = EngineConfig::new(256);
    cfg.batch.symbol_bytes = 2;
    let mut eng = Engine::new(cfg);
    assert!(eng.tuner().is_none());
    let syms = workload(3);
    let done = eng.submit(Request::compress("r", 0.0, syms.clone())).unwrap();
    assert!(matches!(done.outcome, Outcome::Success));
    let back = huff::decompress(frame_of(done.response.as_ref().unwrap())).unwrap();
    assert_eq!(back, syms);
}
