//! Trace-layer contract tests: the `rsh-trace-v1` schema, the Chrome
//! `trace_event` export, and the cost-attribution invariants FORMAT.md
//! promises.
//!
//! The vendored serde shim has no JSON *parser*, so this suite carries a
//! minimal recursive-descent parser (`json` module below) — enough to
//! check well-formedness and walk objects/arrays. The schema checks are
//! therefore end-to-end: they validate the serialized bytes, not the
//! in-memory structs.

use huff::gpu_sim::{DeviceSpec, Gpu};
use huff::huff_core::integrity::DecompressOptions;
use huff::huff_core::metrics::{self, PipelineProfile};

/// Minimal JSON DOM + recursive-descent parser for test assertions.
mod json {
    use std::collections::BTreeMap;

    #[derive(Debug, Clone, PartialEq)]
    pub enum J {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<J>),
        Obj(BTreeMap<String, J>),
    }

    impl J {
        pub fn get(&self, key: &str) -> &J {
            match self {
                J::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key:?}")),
                other => panic!("expected object for key {key:?}, got {other:?}"),
            }
        }
        pub fn arr(&self) -> &[J] {
            match self {
                J::Arr(v) => v,
                other => panic!("expected array, got {other:?}"),
            }
        }
        pub fn num(&self) -> f64 {
            match self {
                J::Num(n) => *n,
                other => panic!("expected number, got {other:?}"),
            }
        }
        pub fn str(&self) -> &str {
            match self {
                J::Str(s) => s,
                other => panic!("expected string, got {other:?}"),
            }
        }
        pub fn has(&self, key: &str) -> bool {
            matches!(self, J::Obj(m) if m.contains_key(key))
        }
    }

    pub fn parse(s: &str) -> Result<J, String> {
        let b = s.as_bytes();
        let mut i = 0usize;
        let v = value(b, &mut i)?;
        skip_ws(b, &mut i);
        if i != b.len() {
            return Err(format!("trailing bytes at {i}"));
        }
        Ok(v)
    }

    fn skip_ws(b: &[u8], i: &mut usize) {
        while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
            *i += 1;
        }
    }

    fn expect(b: &[u8], i: &mut usize, c: u8) -> Result<(), String> {
        if *i < b.len() && b[*i] == c {
            *i += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at {}", c as char, i))
        }
    }

    fn value(b: &[u8], i: &mut usize) -> Result<J, String> {
        skip_ws(b, i);
        match b.get(*i) {
            Some(b'{') => object(b, i),
            Some(b'[') => array(b, i),
            Some(b'"') => Ok(J::Str(string(b, i)?)),
            Some(b't') => lit(b, i, "true", J::Bool(true)),
            Some(b'f') => lit(b, i, "false", J::Bool(false)),
            Some(b'n') => lit(b, i, "null", J::Null),
            Some(_) => number(b, i),
            None => Err("unexpected end of input".into()),
        }
    }

    fn lit(b: &[u8], i: &mut usize, word: &str, v: J) -> Result<J, String> {
        if b[*i..].starts_with(word.as_bytes()) {
            *i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at {i}"))
        }
    }

    fn number(b: &[u8], i: &mut usize) -> Result<J, String> {
        let start = *i;
        while *i < b.len() && matches!(b[*i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
            *i += 1;
        }
        std::str::from_utf8(&b[start..*i])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(J::Num)
            .ok_or_else(|| format!("bad number at {start}"))
    }

    fn string(b: &[u8], i: &mut usize) -> Result<String, String> {
        expect(b, i, b'"')?;
        let mut out = String::new();
        loop {
            match b.get(*i) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    *i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    *i += 1;
                    match b.get(*i) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = std::str::from_utf8(&b[*i + 1..*i + 5])
                                .map_err(|_| "bad \\u escape")?;
                            let cp = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(cp).ok_or("bad \\u codepoint")?);
                            *i += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    *i += 1;
                }
                Some(&c) => {
                    if c < 0x20 {
                        return Err(format!("raw control byte {c:#x} in string"));
                    }
                    // Multi-byte UTF-8 passes through untouched.
                    let ch_len = match c {
                        0x00..=0x7F => 1,
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    out.push_str(std::str::from_utf8(&b[*i..*i + ch_len]).map_err(|_| "bad utf8")?);
                    *i += ch_len;
                }
            }
        }
    }

    fn array(b: &[u8], i: &mut usize) -> Result<J, String> {
        expect(b, i, b'[')?;
        let mut out = Vec::new();
        skip_ws(b, i);
        if b.get(*i) == Some(&b']') {
            *i += 1;
            return Ok(J::Arr(out));
        }
        loop {
            out.push(value(b, i)?);
            skip_ws(b, i);
            match b.get(*i) {
                Some(b',') => *i += 1,
                Some(b']') => {
                    *i += 1;
                    return Ok(J::Arr(out));
                }
                other => return Err(format!("expected , or ] got {other:?}")),
            }
        }
    }

    fn object(b: &[u8], i: &mut usize) -> Result<J, String> {
        expect(b, i, b'{')?;
        let mut out = std::collections::BTreeMap::new();
        skip_ws(b, i);
        if b.get(*i) == Some(&b'}') {
            *i += 1;
            return Ok(J::Obj(out));
        }
        loop {
            skip_ws(b, i);
            let k = string(b, i)?;
            skip_ws(b, i);
            expect(b, i, b':')?;
            let v = value(b, i)?;
            out.insert(k, v);
            skip_ws(b, i);
            match b.get(*i) {
                Some(b',') => *i += 1,
                Some(b'}') => {
                    *i += 1;
                    return Ok(J::Obj(out));
                }
                other => return Err(format!("expected , or }} got {other:?}")),
            }
        }
    }
}

fn sample(n: usize) -> Vec<u16> {
    (0..n)
        .map(|i| {
            let x = (i as u64).wrapping_mul(0x9E3779B97F4A7C15) >> 41;
            (x % 200) as u16
        })
        .collect()
}

fn roundtrip_profile() -> PipelineProfile {
    let gpu = Gpu::new(DeviceSpec::test_part());
    let data = sample(40_000);
    let (_, rec, profile) =
        metrics::profile_roundtrip(&gpu, &data, &metrics::ProfileOptions::new(256)).unwrap();
    assert_eq!(rec.symbols, data);
    profile
}

/// FORMAT.md § 3: every promised top-level, stage, kernel, and recovery
/// field is present with the right type — checked on the serialized
/// bytes, so renaming a field breaks this test before it breaks users.
#[test]
fn trace_schema_v1_fields_are_stable() {
    let profile = roundtrip_profile();
    let root = json::parse(&profile.to_json_string()).expect("trace JSON must parse");

    assert_eq!(root.get("schema").str(), "rsh-trace-v1");
    assert_eq!(root.get("direction").str(), "roundtrip");
    assert_eq!(root.get("device").str(), "TestPart");
    for key in [
        "input_bytes",
        "archive_bytes",
        "compression_ratio",
        "avg_bits",
        "reduction",
        "chunks",
        "breaking_fraction",
        "total_seconds",
    ] {
        assert!(root.get(key).num().is_finite(), "field {key}");
    }

    let stages = root.get("stages").arr();
    let names: Vec<&str> = stages.iter().map(|s| s.get("stage").str()).collect();
    assert_eq!(names, ["histogram", "codebook", "encode", "archive", "parse", "decode"]);
    for s in stages {
        for key in ["seconds", "kernels", "bytes_in", "bytes_out", "gbps"] {
            assert!(s.get(key).num().is_finite(), "stage field {key}");
        }
    }

    let kernels = root.get("kernels").arr();
    assert!(!kernels.is_empty());
    for k in kernels {
        assert!(!k.get("name").str().is_empty());
        assert!(k.get("stage").str() != "");
        for key in ["seq", "blocks", "threads_per_block", "start", "end"] {
            assert!(k.get(key).num().is_finite(), "kernel field {key}");
        }
        let cost = k.get("cost");
        for key in [
            "launch",
            "memory",
            "compute",
            "shared",
            "atomics",
            "sequential_latency",
            "grid_syncs",
            "total",
        ] {
            assert!(cost.get(key).num() >= 0.0, "cost term {key}");
        }
        assert!(k.get("traffic").has("read_coalesced"));
        assert!(k.get("traffic").has("divergence_factor"));
    }

    let recovery = root.get("recovery");
    assert_eq!(recovery.get("symbols_lost").num(), 0.0);
    assert!(recovery.get("damaged_chunks").arr().is_empty());
}

/// The acceptance invariant: per-kernel modeled times sum (within
/// rounding) to the stage totals, kernel records are attributed to
/// exactly one stage each, and timestamps are back-to-back monotonic.
#[test]
fn kernel_costs_sum_to_stage_totals_and_timestamps_are_monotonic() {
    let profile = roundtrip_profile();

    for stage in &profile.stages {
        let sum: f64 = profile
            .kernels
            .iter()
            .filter(|k| k.stage == stage.stage)
            .map(|k| k.record.cost.total)
            .sum();
        if stage.kernels > 0 {
            assert!(
                (sum - stage.seconds).abs() < 1e-12,
                "stage {}: kernels sum {sum} != stage {}",
                stage.stage,
                stage.seconds
            );
        } else {
            assert_eq!(sum, 0.0, "host stage {} must own no kernels", stage.stage);
        }
    }
    let attributed: usize = profile.stages.iter().map(|s| s.kernels).sum();
    assert_eq!(attributed, profile.kernels.len());

    // Records land back-to-back on the device clock: each start equals
    // the previous end, and durations equal cost totals.
    let mut prev_end: Option<f64> = None;
    for k in &profile.kernels {
        let r = &k.record;
        assert!(r.end >= r.start);
        assert!((r.end - r.start - r.cost.total).abs() < 1e-15);
        if let Some(prev) = prev_end {
            assert!((r.start - prev).abs() < 1e-15, "gap before {}", r.name);
        }
        prev_end = Some(r.end);
    }
}

/// The Chrome export is well-formed trace_event JSON: a traceEvents
/// array of "M"/"X" events, microsecond timestamps consistent with the
/// profile, and one named lane per device stage.
#[test]
fn chrome_trace_is_well_formed() {
    let profile = roundtrip_profile();
    let root = json::parse(&profile.to_chrome_trace()).expect("chrome JSON must parse");

    assert_eq!(root.get("displayTimeUnit").str(), "ms");
    let events = root.get("traceEvents").arr();
    assert!(!events.is_empty());

    let mut lanes = Vec::new();
    let mut slices = 0usize;
    for e in events {
        match e.get("ph").str() {
            "M" => {
                if e.get("name").str() == "thread_name" {
                    lanes.push(e.get("args").get("name").str().to_string());
                }
            }
            "X" => {
                slices += 1;
                assert!(e.get("ts").num() >= 0.0);
                assert!(e.get("dur").num() >= 0.0);
                assert_eq!(e.get("cat").str(), "kernel");
                let args = e.get("args");
                assert!(args.get("cost").has("total"));
                assert!(args.get("traffic").has("read_coalesced"));
            }
            other => panic!("unexpected event phase {other:?}"),
        }
    }
    assert_eq!(slices, profile.kernels.len());
    // One lane per *device* stage (host stages own no kernels).
    let device_stages: Vec<&str> =
        profile.stages.iter().filter(|s| s.kernels > 0).map(|s| s.stage).collect();
    assert_eq!(lanes, device_stages);

    // Slice timestamps are the profile's seconds in microseconds.
    let first_slice = events.iter().find(|e| e.get("ph").str() == "X").unwrap();
    let first_kernel = &profile.kernels[0].record;
    assert!((first_slice.get("ts").num() - first_kernel.start * 1e6).abs() < 1e-9);
}

/// Fixed seed -> byte-identical trace and Chrome JSON. Host stages are
/// modeled (not wall-clocked) precisely so this holds.
#[test]
fn profiles_are_byte_deterministic() {
    let a = roundtrip_profile();
    let b = roundtrip_profile();
    assert_eq!(a.to_json_string(), b.to_json_string());
    assert_eq!(a.to_chrome_trace(), b.to_chrome_trace());
}

/// The Prometheus exposition and the `rsh stats --json` export are
/// byte-deterministic: families and samples iterate in sorted (BTreeMap)
/// order, so the same events — in any order — render identical bytes.
/// `/metrics` in `rsh serve` and `rsh stats` both print these surfaces.
#[test]
fn metrics_exposition_is_byte_deterministic_and_sorted() {
    use huff::huff_core::metrics::registry::Registry;

    let mut a = Registry::new();
    a.record_request("success");
    a.record_request("shed");
    a.record_shed("queue_full");
    a.record_retries(3);
    a.record_degraded("chunked");
    a.record_deadline_miss();
    a.record_queue_wait(0.25, 3);
    a.add("rsh_quarantined_shards_total", &[], 2.0);
    a.record_compress(1000, &[0; 300]);
    a.add("rsh_decode_backend_total", &[("backend", "lut")], 1.0);

    // Same events, opposite order.
    let mut b = Registry::new();
    b.add("rsh_decode_backend_total", &[("backend", "lut")], 1.0);
    b.record_compress(1000, &[0; 300]);
    b.add("rsh_quarantined_shards_total", &[], 2.0);
    b.record_queue_wait(0.25, 3);
    b.record_deadline_miss();
    b.record_degraded("chunked");
    b.record_retries(3);
    b.record_shed("queue_full");
    b.record_request("shed");
    b.record_request("success");

    assert_eq!(a.render(), b.render(), "text exposition depends on event order");
    assert_eq!(
        a.to_json().to_string(),
        b.to_json().to_string(),
        "JSON export depends on event order"
    );

    // Family names appear sorted in both surfaces.
    let text = a.render();
    let names: Vec<&str> = text
        .lines()
        .filter(|l| l.starts_with("# HELP "))
        .map(|l| l.split_whitespace().nth(2).unwrap())
        .collect();
    assert!(!names.is_empty());
    let mut sorted = names.clone();
    sorted.sort_unstable();
    assert_eq!(names, sorted, "text families not sorted");

    let root = json::parse(&a.to_json().to_string()).unwrap();
    let jnames: Vec<String> =
        root.get("families").arr().iter().map(|f| f.get("name").str().to_string()).collect();
    let mut jsorted = jnames.clone();
    jsorted.sort();
    assert_eq!(jnames, jsorted, "JSON families not sorted");
}

/// Two identical seeded serve runs export byte-identical `rsh-trace-v1`
/// serve documents, and the document carries the schema/kind markers.
#[test]
fn serve_trace_export_is_byte_deterministic() {
    use huff::huff_core::serve::{ChaosConfig, Engine, EngineConfig, Request};

    let run = || {
        let mut cfg = EngineConfig::new(64);
        cfg.batch.shard_symbols = 4096;
        cfg.batch.devices = vec![DeviceSpec::test_part()];
        cfg.workers = 1;
        cfg.queue_capacity = 2;
        let mut chaos = ChaosConfig::storm(5);
        chaos.device_loss_prob = 0.0;
        let mut eng = Engine::with_chaos(cfg, chaos);
        let syms: Vec<u16> = (0..8000).map(|i| (i % 50) as u16).collect();
        for i in 0..6 {
            eng.submit(Request::compress(format!("t{i}"), i as f64 * 20e-6, syms.clone())).unwrap();
        }
        eng.report().to_json().to_string()
    };
    let a = run();
    assert_eq!(a, run(), "serve trace export depends on run instance");

    let root = json::parse(&a).unwrap();
    assert_eq!(root.get("schema").str(), "rsh-trace-v1");
    assert_eq!(root.get("kind").str(), "serve");
    assert_eq!(root.get("requests").arr().len(), 6);
    assert!(root.get("counters").has("success") || root.get("counters").has("shed"));
}

/// Damage surfaces in the serialized recovery report.
#[test]
fn best_effort_trace_reports_damage_in_json() {
    use huff::huff_core::archive;
    use huff::huff_core::testing::{self, Fault};

    let gpu = Gpu::new(DeviceSpec::test_part());
    let data = sample(30_000);
    let (packed, _) =
        metrics::profile_compress(&gpu, &data, &metrics::ProfileOptions::new(256)).unwrap();
    let payload = archive::layout(&packed)
        .unwrap()
        .into_iter()
        .find(|(s, _)| *s == huff::huff_core::integrity::Section::Payload)
        .map(|(_, r)| r)
        .unwrap();
    let mut damaged = packed.clone();
    assert!(testing::apply(
        &mut damaged,
        &Fault::BitFlip { offset: payload.start + payload.len() / 3, bit: 2 }
    ));

    let (_, profile) =
        metrics::profile_decompress(&gpu, &damaged, &DecompressOptions::best_effort()).unwrap();
    let root = json::parse(&profile.to_json_string()).unwrap();
    assert_eq!(root.get("direction").str(), "decompress");
    let recovery = root.get("recovery");
    assert!(recovery.get("symbols_lost").num() > 0.0);
    assert!(!recovery.get("damaged_chunks").arr().is_empty());
    let ranges = recovery.get("damaged_ranges").arr();
    assert!(!ranges.is_empty());
    for r in ranges {
        let pair = r.arr();
        assert!(pair[0].num() < pair[1].num());
    }
}
