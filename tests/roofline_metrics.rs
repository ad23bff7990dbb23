//! Roofline + registry contract tests: the `rsh-roofline-v1` schema, the
//! counter invariants DESIGN.md promises (stall shares partition modeled
//! time, efficiency never exceeds the roofline), the anomaly flag, and
//! the service-registry reconciliation `rsh stats` relies on.
//!
//! The library records no metrics; each registry test owns a fresh
//! [`Registry`] and counts operations through the same `record_*` helpers
//! `rsh stats` and the serving engine use, so tests never share state.

use huff::gpu_sim::roofline::Bound;
use huff::gpu_sim::{Access, DeviceSpec, Gpu, GridDim};
use huff::huff_core::archive::{self, CompressOptions};
use huff::huff_core::batch::{compress_batched_with_faults, BatchOptions};
use huff::huff_core::decode::DecoderKind;
use huff::huff_core::integrity::DecompressOptions;
use huff::huff_core::metrics::{self, roofline::RooflineReport, PipelineProfile, Registry};
use serde_json::Value;

fn sample(n: usize) -> Vec<u16> {
    (0..n)
        .map(|i| {
            let x = (i as u64).wrapping_mul(0x9E3779B97F4A7C15) >> 41;
            (x % 200) as u16
        })
        .collect()
}

fn roundtrip_profile(n: usize, opts: metrics::ProfileOptions) -> PipelineProfile {
    let gpu = Gpu::new(DeviceSpec::test_part());
    let data = sample(n);
    let (_, rec, profile) = metrics::profile_roundtrip(&gpu, &data, &opts).unwrap();
    assert_eq!(rec.symbols, data);
    profile
}

fn obj<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.as_object()
        .unwrap_or_else(|| panic!("expected object holding {key:?}"))
        .get(key)
        .unwrap_or_else(|| panic!("missing key {key:?}"))
}

/// FORMAT.md § roofline: every promised field of `rsh-roofline-v1` is
/// present with the right type — checked on the serialized bytes.
#[test]
fn roofline_schema_v1_fields_are_stable() {
    let profile = roundtrip_profile(40_000, metrics::ProfileOptions::new(256));
    let report = profile.roofline(0.5);
    let root = Value::parse(&report.to_json_string()).expect("roofline JSON must parse");

    assert_eq!(obj(&root, "schema").as_str(), Some("rsh-roofline-v1"));
    assert_eq!(obj(&root, "direction").as_str(), Some("roundtrip"));
    assert_eq!(obj(&root, "device").as_str(), Some("TestPart"));
    for key in ["threshold", "peak_gbps", "effective_gbps"] {
        assert!(obj(&root, key).as_f64().unwrap().is_finite(), "field {key}");
    }
    assert!(obj(&root, "anomalies").as_i128().is_some());

    let kernels = obj(&root, "kernels").as_array().unwrap();
    assert!(!kernels.is_empty());
    for k in kernels {
        assert!(!obj(k, "name").as_str().unwrap().is_empty());
        assert!(!obj(k, "stage").as_str().unwrap().is_empty());
        assert!(obj(k, "seq").as_i128().is_some());
        assert!(obj(k, "seconds").as_f64().unwrap() >= 0.0);
        assert!(obj(k, "anomaly").as_bool().is_some());
        let c = obj(k, "counters");
        for key in [
            "achieved_gbps",
            "peak_fraction",
            "efficiency",
            "occupancy",
            "divergence_fraction",
            "launch_share",
            "sync_share",
            "latency_share",
            "atomic_share",
            "contention_share",
            "throughput_share",
        ] {
            assert!(obj(c, key).as_f64().unwrap().is_finite(), "counter {key}");
        }
        assert!(obj(c, "logical_bytes").as_i128().unwrap() >= 0);
        let bound = obj(c, "bound").as_str().unwrap();
        assert!(
            ["memory", "compute", "latency", "contention"].contains(&bound),
            "unknown bound {bound:?}"
        );
    }

    let stages = obj(&root, "stages").as_array().unwrap();
    assert!(!stages.is_empty());
    for s in stages {
        assert!(!obj(s, "stage").as_str().unwrap().is_empty());
        assert!(obj(s, "kernels").as_i128().unwrap() > 0, "kernel-less stages are excluded");
        for key in ["seconds", "achieved_gbps", "efficiency"] {
            assert!(obj(s, key).as_f64().unwrap().is_finite(), "stage field {key}");
        }
        assert!(obj(s, "anomalies").as_i128().is_some());
        assert!(obj(s, "bound").as_str().is_some());
    }
}

/// The counter invariants: stall shares partition each kernel's modeled
/// time exactly, efficiency stays on or under the roofline, occupancy
/// and divergence are fractions, and the stage aggregates reconcile with
/// their kernels.
#[test]
fn counter_and_stage_invariants_hold() {
    let profile = roundtrip_profile(40_000, metrics::ProfileOptions::new(256));
    let report = profile.roofline(0.5);

    for k in &report.kernels {
        let c = &k.counters;
        assert!(
            c.efficiency >= 0.0 && c.efficiency <= 1.0 + 1e-9,
            "{}: efficiency {} outside [0, 1]",
            k.name,
            c.efficiency
        );
        assert!(c.peak_fraction <= c.efficiency + 1e-12, "{}: peak > effective", k.name);
        if k.seconds > 0.0 {
            assert!(
                (c.share_sum() - 1.0).abs() < 1e-9,
                "{}: stall shares sum to {}, not 1",
                k.name,
                c.share_sum()
            );
        } else {
            assert!(c.share_sum() <= 1.0 + 1e-9);
        }
        assert!(c.occupancy > 0.0 && c.occupancy <= 1.0, "{}: occupancy {}", k.name, c.occupancy);
        assert!(
            (0.0..1.0).contains(&c.divergence_fraction),
            "{}: divergence {}",
            k.name,
            c.divergence_fraction
        );
    }

    for s in &report.stages {
        let rows: Vec<_> = report.kernels.iter().filter(|k| k.stage == s.stage).collect();
        assert_eq!(rows.len(), s.kernels, "stage {} kernel count", s.stage);
        let sum: f64 = rows.iter().map(|k| k.seconds).sum();
        assert!((sum - s.seconds).abs() < 1e-12, "stage {} seconds", s.stage);
        if s.logical_bytes > 0 {
            assert!(
                s.efficiency > 0.0 && s.efficiency <= 1.0 + 1e-9,
                "stage {}: efficiency {} outside (0, 1]",
                s.stage,
                s.efficiency
            );
        }
        assert_eq!(rows.iter().filter(|k| k.anomaly).count(), s.anomalies);
    }
    let stage_anomalies: usize = report.stages.iter().map(|s| s.anomalies).sum();
    assert_eq!(report.anomalies(), stage_anomalies);
}

/// A synthetic strided kernel wastes 7/8 of every sector: it classifies
/// memory-bound yet sits far under the roofline, which is exactly the
/// shape the anomaly flag exists for.
#[test]
fn anomaly_fires_on_synthetic_strided_kernel() {
    let spec = DeviceSpec::test_part();
    let gpu = Gpu::new(spec.clone());
    let n: u64 = 1 << 22;
    gpu.launch("strided_gather", GridDim::cover(n as usize, 256), |scope| {
        scope.traffic().read(Access::Strided, n, 4);
    });
    let clock = gpu.clock();
    let c = clock.records()[0].counters(&spec);
    assert_eq!(c.bound, Bound::Memory);
    assert!(c.efficiency < 0.5, "strided kernel should miss the roofline: {}", c.efficiency);
    // The report-level predicate: throughput-classified below threshold.
    assert!(matches!(c.bound, Bound::Memory | Bound::Contention) && c.efficiency < 0.5);
}

/// Threshold sweep on a real profile: at threshold 0 nothing can flag;
/// at a threshold above the best kernel, every throughput-bound kernel
/// flags. Latency-bound kernels never flag at any threshold.
#[test]
fn anomaly_threshold_bounds_the_flagged_set() {
    // Large enough that the streaming kernels amortize their launch ramp
    // and classify memory-bound on the test part.
    let profile = roundtrip_profile(1_000_000, metrics::ProfileOptions::new(256));

    let none = RooflineReport::from_profile(&profile, 0.0);
    assert_eq!(none.anomalies(), 0);

    let all = RooflineReport::from_profile(&profile, 1.0);
    let throughput_bound = all
        .kernels
        .iter()
        .filter(|k| matches!(k.counters.bound, Bound::Memory | Bound::Contention))
        .count();
    assert!(throughput_bound > 0, "profile should have memory-bound kernels");
    assert_eq!(all.anomalies(), throughput_bound);
    for k in &all.kernels {
        if matches!(k.counters.bound, Bound::Latency | Bound::Compute) {
            assert!(!k.anomaly, "{}: latency/compute kernels never flag", k.name);
        }
    }
}

/// The paper's shape on the modeled device: the reduce/shuffle merge
/// kernels ride the bandwidth roofline (memory-bound, ≥ 0.5 of peak),
/// while the bit-serial decoder classifies latency-bound — its time is
/// a dependent-bit chain, not a bandwidth problem.
#[test]
fn merge_kernels_ride_roofline_and_serial_decode_is_latency_bound() {
    // Merge kernels need a large input to amortize the launch ramp; the
    // bit-serial decoder is latency-bound at any size, so it gets a
    // smaller (cheaper) run of its own.
    let profile = roundtrip_profile(1_000_000, metrics::ProfileOptions::new(256));
    let report = profile.roofline(0.5);

    for name in ["enc_reduce_merge", "enc_shuffle_merge"] {
        let k = report
            .kernels
            .iter()
            .find(|k| k.name == name)
            .unwrap_or_else(|| panic!("{name} missing from profile"));
        assert_eq!(k.counters.bound, Bound::Memory, "{name} should be memory-bound");
        assert!(
            k.counters.peak_fraction >= 0.5,
            "{name} at {:.3} of peak, expected >= 0.5",
            k.counters.peak_fraction
        );
        assert!(!k.anomaly);
    }

    let serial =
        roundtrip_profile(100_000, metrics::ProfileOptions::new(256).decoder(DecoderKind::Serial));
    let serial_report = serial.roofline(0.5);
    let dec = serial_report.kernels.iter().find(|k| k.name == "dec_serial").expect("dec_serial");
    assert_eq!(dec.counters.bound, Bound::Latency);
    assert!(dec.counters.latency_share > 0.5);
    assert!(!dec.anomaly, "latency-bound kernels are never flagged");
}

/// The full-size acceptance run (ISSUE 5): on the 64 MB input, modeled on
/// the V100, every encode kernel classifies and the merge kernels hold
/// ≥ 0.5 of peak bandwidth. Slow under `cargo test` (debug host encode of
/// 64M symbols), so ignored by default — run with
/// `cargo test --release -- --ignored`.
#[test]
#[ignore = "64 MB acceptance input; run with --release -- --ignored"]
fn accept_64mb_encode_kernels_classify_on_v100() {
    use huff::PaperDataset;
    let d = PaperDataset::Enwik8;
    let n = (64 << 20) / d.symbol_bytes() as usize;
    let data = d.generate(n, 0xACCE97);
    let gpu = Gpu::v100();
    let opts = metrics::ProfileOptions::new(d.num_symbols())
        .symbol_bytes(d.symbol_bytes())
        .reduction(d.paper_reduction());
    let (_, profile) = metrics::profile_compress(&gpu, &data, &opts).unwrap();
    let report = profile.roofline(0.5);

    for k in &report.kernels {
        assert!(!k.counters.bound.name().is_empty());
    }
    for name in ["enc_reduce_merge", "enc_shuffle_merge"] {
        let k = report.kernels.iter().find(|k| k.name == name).expect(name);
        assert!(k.counters.peak_fraction >= 0.5, "{name}: {}", k.counters.peak_fraction);
    }
}

/// The kernel-fusion acceptance claim (ISSUE 8): at the 64 MB scale the
/// fused histogram and the shuffle merge carrying the fused length
/// epilogue are off the latency wall, and the compacted backtrace is no
/// longer anomaly-flagged — its writes are coalesced, so whatever it
/// classifies, it is not a random-scatter memory kernel missing the
/// roofline. Run with `cargo test --release -- --ignored`.
#[test]
#[ignore = "64 MB acceptance input; run with --release -- --ignored"]
fn accept_64mb_fused_kernels_leave_the_latency_wall() {
    use huff::huff_core::KernelPlan;
    use huff::PaperDataset;
    let d = PaperDataset::Enwik8;
    let n = (64 << 20) / d.symbol_bytes() as usize;
    let data = d.generate(n, 0xACCE97);

    let gpu = Gpu::v100();
    let opts = metrics::ProfileOptions::new(d.num_symbols())
        .symbol_bytes(d.symbol_bytes())
        .reduction(d.paper_reduction())
        .plan(KernelPlan::fused());
    let (_, profile) = metrics::profile_compress(&gpu, &data, &opts).unwrap();
    let report = profile.roofline(0.5);

    for name in ["hist_fused_reduction", "enc_shuffle_merge"] {
        let k = report.kernels.iter().find(|k| k.name == name).expect(name);
        assert_ne!(
            k.counters.bound,
            Bound::Latency,
            "{name} still latency-bound at 64 MB: {:?}",
            k.counters
        );
    }
    // The fused plan launches neither of the latency-bound kernels the
    // roofline flagged in PR 5.
    for absent in ["hist_gridwise_reduction", "enc_blockwise_len"] {
        assert!(
            !report.kernels.iter().any(|k| k.name == absent),
            "{absent} launched under the fused plan"
        );
    }
    let bt = report
        .kernels
        .iter()
        .find(|k| k.name == "enc_breaking_backtrace")
        .expect("enc_breaking_backtrace");
    assert!(!bt.anomaly, "compacted backtrace still flagged anomalous: {:?}", bt.counters);
}

/// Registry counters are monotone across runs: a second identical
/// operation recorded into the same registry can only grow them.
#[test]
fn global_counters_are_monotone_across_runs() {
    let data = sample(20_000);
    let opts = CompressOptions::new(256);
    let bytes_in = data.len() as u64 * 2;
    let mut reg = Registry::new();

    reg.record_compress(bytes_in, &archive::compress(&data, &opts).unwrap());
    let after_one: Vec<(String, f64)> = [
        ("rsh_runs_total", vec![("direction", "compress")]),
        ("rsh_bytes_in_total", vec![("direction", "compress")]),
        ("rsh_bytes_out_total", vec![("direction", "compress")]),
        ("rsh_chunks_total", vec![]),
    ]
    .into_iter()
    .map(|(n, l)| (n.to_string(), reg.get(n, &l)))
    .collect();
    assert!(after_one.iter().all(|(_, v)| *v > 0.0), "first run must record: {after_one:?}");

    reg.record_compress(bytes_in, &archive::compress(&data, &opts).unwrap());
    for (name, before) in &after_one {
        let labels: &[(&str, &str)] =
            if name.starts_with("rsh_chunks") { &[] } else { &[("direction", "compress")] };
        let now = reg.get(name, labels);
        assert!(now > *before, "{name} did not grow: {before} -> {now}");
    }
    // Exactly double: the runs were identical.
    assert_eq!(reg.get("rsh_runs_total", &[("direction", "compress")]), 2.0);
}

/// The `rsh stats` reconciliation contract: after one compress,
/// `rsh_bytes_out_total` equals the archive size; after one batched
/// compress and one frame decompress, `rsh_shards_total` equals the
/// frame's shard count each time.
#[test]
fn registry_reconciles_with_archive_and_frame() {
    let data = sample(30_000);

    // Plain compress: bytes_out == archive size, bytes_in == input bytes.
    let archive_bytes = archive::compress(&data, &CompressOptions::new(256)).unwrap();
    let mut reg = Registry::new();
    reg.record_compress(data.len() as u64 * 2, &archive_bytes);
    {
        let d = [("direction", "compress")];
        assert_eq!(reg.get("rsh_bytes_out_total", &d), archive_bytes.len() as f64);
        assert_eq!(reg.get("rsh_bytes_in_total", &d), (data.len() * 2) as f64);
        assert_eq!(reg.get("rsh_runs_total", &d), 1.0);
    }

    // Batched compress: shards_total == the frame's shard count.
    let mut opts = BatchOptions::new(256);
    opts.shard_symbols = data.len().div_ceil(4).max(1);
    let (frame, report, quarantine) = compress_batched_with_faults(&data, &opts, &[]).unwrap();
    let info =
        huff::huff_core::frame::parse(&frame, huff::huff_core::integrity::Verify::Full).unwrap();
    assert_eq!(report.shards.len(), info.num_shards());
    let mut reg = Registry::new();
    reg.record_batch_compress(&frame, &report, &quarantine);
    assert_eq!(reg.get("rsh_shards_total", &[]), info.num_shards() as f64);

    // Frame decompress: shards_total counts the decoded shards again and
    // they all come back clean.
    let opts = DecompressOptions::strict();
    let rec = archive::decompress_with(&frame, &opts).unwrap();
    assert_eq!(rec.symbols, data);
    let mut reg = Registry::new();
    reg.record_decompress(&frame, &rec, opts.decoder);
    assert_eq!(reg.get("rsh_shards_total", &[]), info.num_shards() as f64);
    assert_eq!(reg.get("rsh_shards_ok_total", &[]), info.num_shards() as f64);
    assert_eq!(reg.get("rsh_shards_recovered_total", &[]), 0.0);
}

/// Profiling yields one roofline efficiency per kernel, every one a
/// fraction in [0, 1], and device seconds for the encode stage.
#[test]
fn profiler_populates_efficiency_histogram() {
    let profile = roundtrip_profile(40_000, metrics::ProfileOptions::new(256));

    assert!(!profile.kernels.is_empty());
    for k in &profile.kernels {
        let e = k.record.counters(&profile.spec).efficiency;
        assert!((0.0..=1.0).contains(&e), "{}: efficiency {e}", k.record.name);
    }
    let encode = profile.stages.iter().find(|s| s.stage == "encode").expect("encode stage");
    assert!(encode.seconds > 0.0);
}
