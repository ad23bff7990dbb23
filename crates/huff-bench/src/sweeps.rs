//! The two committed-baseline sweeps — batched pipeline and decoder
//! backends — as library functions.
//!
//! The `pipeline` and `decode_sweep` binaries print these rows; the
//! `regression` binary re-runs them at the baselines' scales and compares
//! against the committed `results/BENCH_*.json` files (see
//! [`crate::regression`]). Keeping the row generation here means the gate
//! measures exactly what the baselines recorded — same grid, same seeds,
//! same datasets — so any delta is a code change, not a harness drift.
//!
//! Every modeled figure in a row is deterministic; only `wall_ms` (host
//! wall-clock) varies between machines, and the regression gate ignores
//! it.

use gpu_sim::{DeviceSpec, Gpu};
use huff_core::archive;
use huff_core::batch::{compress_batched, BatchOptions};
use huff_core::decode::{
    gpu::{decode_kind_on_gpu, decode_range_on_gpu},
    DecoderKind,
};
use huff_core::encode::{reduce_shuffle, BreakingStrategy, ChunkedStream, MergeConfig};
use huff_core::integrity::{DecompressOptions, Section};
use huff_core::metrics::{self, roofline::DEFAULT_THRESHOLD};
use huff_core::tune::{Dispatch, Tuner};
use huff_core::{histogram, CanonicalCodebook, KernelPlan};
use huff_datasets::PaperDataset;
use serde::Serialize;

use crate::wall;

/// Scale the committed `results/BENCH_pipeline.json` baseline was
/// generated at (see EXPERIMENTS.md).
pub const PIPELINE_BASELINE_SCALE: f64 = 1.0 / 64.0;

/// Scale the committed `results/BENCH_decode.json` baseline was generated
/// at (the harness default; the `accept-64mb` rows always run full size).
pub const DECODE_BASELINE_SCALE: f64 = 1.0 / 16.0;

/// Scale the committed `results/BENCH_autotune.json` baseline was
/// generated at (see EXPERIMENTS.md).
pub const AUTOTUNE_BASELINE_SCALE: f64 = 1.0 / 64.0;

/// Scale the committed `results/BENCH_range.json` baseline was generated
/// at (the `accept-64mb` rows always run full size).
pub const RANGE_BASELINE_SCALE: f64 = 1.0 / 16.0;

/// Scale the committed `results/BENCH_latency.json` baseline was
/// generated at (see EXPERIMENTS.md § "Tail-latency gate").
pub const LATENCY_BASELINE_SCALE: f64 = 1.0 / 64.0;

/// Slice widths the range sweep probes, in percent of the decoded
/// payload. The 1 % slice is the CI acceptance point: it must model at
/// least 10× faster than the full decode on `accept-64mb`.
pub const RANGE_SLICE_PCTS: &[u32] = &[1, 5, 25];

/// The swept (shards, streams, devices) grid: the serial reference plus
/// every overlap axis alone and combined.
pub const PIPELINE_GRID: &[(usize, usize, usize)] = &[
    (1, 1, 1), // serial reference: one shard, one stream
    (4, 1, 1), // sharded but still serial (stream FIFO)
    (4, 2, 1), // double-buffered
    (8, 2, 1),
    (8, 4, 1), // deeper stream fan-out
    (8, 2, 2), // two devices, double-buffered each
    (16, 4, 2),
];

/// One pipeline-sweep row (`rsh-bench-v1` table `"pipeline"`).
#[derive(Serialize)]
pub struct PipelineRow {
    /// Table V workload name.
    pub dataset: &'static str,
    /// Modeled device name.
    pub device: &'static str,
    /// Devices in the fleet.
    pub devices: usize,
    /// Shards the input was split into.
    pub shards: usize,
    /// Streams per device.
    pub streams: usize,
    /// Input size in MB.
    pub input_mb: f64,
    /// Modeled contended makespan, ms.
    pub makespan_ms: f64,
    /// Serial (one-stream) baseline of the same kernels, ms.
    pub serial_ms: f64,
    /// `serial_ms / makespan_ms`.
    pub speedup: f64,
    /// Modeled end-to-end throughput, GB/s.
    pub modeled_gbps: f64,
    /// Host wall-clock of the rayon shard pipelines, ms
    /// (machine-dependent; excluded from regression comparison).
    pub wall_ms: f64,
    /// Compression ratio achieved on the frame.
    pub ratio: f64,
}

/// One decoder-sweep row (`rsh-bench-v1` table `"decode"`).
#[derive(Serialize)]
pub struct DecodeRow {
    /// Workload name (`accept-64mb` for the fixed acceptance input).
    pub dataset: String,
    /// Decoder backend name.
    pub decoder: &'static str,
    /// Modeled device name.
    pub device: &'static str,
    /// Input size in MB.
    pub input_mb: f64,
    /// Achieved payload bits per symbol.
    pub avg_bits: f64,
    /// Payload chunks in the stream.
    pub chunks: usize,
    /// Modeled decode time, ms.
    pub modeled_ms: f64,
    /// Modeled decode throughput, GB/s.
    pub modeled_gbps: f64,
    /// Host wall-clock of the bit-exact host decode, ms
    /// (machine-dependent; excluded from regression comparison).
    pub wall_ms: f64,
}

/// Run the batched multi-stream pipeline sweep at `scale`: every Table V
/// workload × {V100, RTX 5000} × [`PIPELINE_GRID`].
pub fn pipeline_rows(scale: f64) -> Vec<PipelineRow> {
    let mut rows = Vec::new();
    for d in PaperDataset::all() {
        let n = d.symbols_at_scale(scale);
        let data = d.generate(n, 0xD5EA5E);
        for (dev_name, spec) in [("V100", DeviceSpec::v100()), ("RTX 5000", DeviceSpec::rtx5000())]
        {
            for &(shards, streams, devices) in PIPELINE_GRID {
                let mut opts = BatchOptions::new(d.num_symbols());
                opts.shard_symbols = n.div_ceil(shards).max(1);
                opts.streams = streams;
                opts.devices = vec![spec.clone(); devices];
                opts.reduction = Some(d.paper_reduction());
                opts.symbol_bytes = d.symbol_bytes() as u8;

                let ((frame, report), wall_s) =
                    wall(|| compress_batched(&data, &opts).expect("sweep pipeline"));
                rows.push(PipelineRow {
                    dataset: d.name(),
                    device: dev_name,
                    devices,
                    shards: report.shards.len(),
                    streams,
                    input_mb: report.input_bytes as f64 / 1e6,
                    makespan_ms: report.makespan * 1e3,
                    serial_ms: report.serial_seconds * 1e3,
                    speedup: report.speedup(),
                    modeled_gbps: report.throughput() / 1e9,
                    wall_ms: wall_s * 1e3,
                    ratio: report.input_bytes as f64 / frame.len() as f64,
                });
            }
        }
    }
    rows
}

/// Encode `data` the way `table2`/`pipeline` do: CPU histogram, parallel
/// codebook, reduce-shuffle with the sparse sidecar.
fn encode(data: &[u16], bins: usize, reduction: u32) -> (ChunkedStream, CanonicalCodebook) {
    let freqs = histogram::parallel_cpu::histogram(data, bins, rayon::current_num_threads());
    let book = huff_core::build_codebook(&freqs, 16).expect("codebook");
    let config = MergeConfig::new(10, reduction);
    let stream = reduce_shuffle::encode(data, &book, config, BreakingStrategy::SparseSidecar)
        .expect("encode");
    (stream, book)
}

fn decode_sweep_rows(
    label: &str,
    data: &[u16],
    symbol_bytes: u64,
    stream: &ChunkedStream,
    book: &CanonicalCodebook,
    decoders: &[DecoderKind],
) -> Vec<DecodeRow> {
    let input_bytes = data.len() as u64 * symbol_bytes;
    let avg_bits = if stream.num_symbols == 0 {
        0.0
    } else {
        stream.total_bits as f64 / stream.num_symbols as f64
    };
    decoders
        .iter()
        .map(|&decoder| {
            let gpu = Gpu::v100();
            let ((symbols, secs), wall_s) =
                wall(|| decode_kind_on_gpu(&gpu, stream, book, decoder).expect("decode"));
            assert_eq!(symbols, data, "{label}/{} not bit-exact", decoder.name());
            DecodeRow {
                dataset: label.to_string(),
                decoder: decoder.name(),
                device: "V100",
                input_mb: input_bytes as f64 / 1e6,
                avg_bits,
                chunks: stream.num_chunks(),
                modeled_ms: secs * 1e3,
                modeled_gbps: input_bytes as f64 / secs / 1e9,
                wall_ms: wall_s * 1e3,
            }
        })
        .collect()
}

/// Run the decoder sweep at `scale`: every Table V workload × every
/// backend (all verified bit-exact), plus the fixed full-size 64 MB
/// acceptance rows (`chunked`/`lut` only — the serial backend's host
/// decode is single-threaded and its modeled time is minutes).
pub fn decode_rows(scale: f64) -> Vec<DecodeRow> {
    let all = [DecoderKind::Serial, DecoderKind::Chunked, DecoderKind::Lut];
    let mut rows = Vec::new();
    for d in PaperDataset::all() {
        let n = d.symbols_at_scale(scale);
        let data = d.generate(n, 0xD5EA5E);
        let (stream, book) = encode(&data, d.num_symbols(), d.paper_reduction());
        rows.extend(decode_sweep_rows(d.name(), &data, d.symbol_bytes(), &stream, &book, &all));
    }
    rows.extend(accept_64mb_rows());
    rows
}

/// One autotune-sweep row (`rsh-bench-v1` table `"autotune"`): the fixed
/// CLI default geometry vs the tuner's decision on the same input.
#[derive(Serialize)]
pub struct AutotuneRow {
    /// Workload name (Table V dataset, `incompressible`, or `tiny`).
    pub dataset: String,
    /// Modeled device name.
    pub device: &'static str,
    /// Input size in MB.
    pub input_mb: f64,
    /// Measured signature average bitwidth.
    pub avg_bits: f64,
    /// Dispatch path the tuner chose (part of the regression key — a
    /// decision flip against the committed baseline fails the gate).
    pub dispatch: &'static str,
    /// Tuned reduction factor (0 for store-raw).
    pub reduction: u32,
    /// Tuned shard count.
    pub shards: u32,
    /// Tuned stream count.
    pub streams: u32,
    /// Recommended decoder backend.
    pub decoder: &'static str,
    /// Whether a repeated decide() hit the in-process tuning cache.
    pub cache_hit: bool,
    /// Modeled throughput of the fixed default geometry, GB/s.
    pub fixed_gbps: f64,
    /// Modeled throughput of the autotuned decision, GB/s.
    pub auto_gbps: f64,
    /// Host wall-clock, ms (machine-dependent; excluded from the gate).
    pub wall_ms: f64,
}

/// Measure one autotune comparison: the fixed CLI default (the
/// `BatchOptions::new` geometry with Fig. 3's auto reduction) vs the
/// tuner's decision, both priced by the same models. Store-raw and
/// CPU-serial decisions use the decision's modeled host/copy time,
/// rescaled from the signature's representative size class to the actual
/// input length.
fn autotune_row(label: String, data: &[u16], num_symbols: usize, symbol_bytes: u8) -> AutotuneRow {
    let input_bytes = data.len() as f64 * f64::from(symbol_bytes);
    let mut fixed = BatchOptions::new(num_symbols);
    fixed.symbol_bytes = symbol_bytes;

    let ((fixed_secs, sig, decision, hit, auto_secs), wall_s) = wall(|| {
        let (_, fixed_report) = compress_batched(data, &fixed).expect("fixed-default run");
        let mut tuner = Tuner::new(DeviceSpec::v100());
        let (sig, decision, _) = tuner.decide(data, num_symbols, symbol_bytes).expect("decide");
        let (_, _, hit) = tuner.decide(data, num_symbols, symbol_bytes).expect("re-decide");
        let auto_secs = match decision.dispatch {
            Dispatch::Gpu => {
                let tuned = decision.batch_options(fixed.clone(), data.len());
                let (_, report) = compress_batched(data, &tuned).expect("autotuned run");
                report.makespan
            }
            Dispatch::CpuSerial | Dispatch::StoreRaw => {
                decision.modeled_seconds()
                    * (data.len() as f64 / sig.representative_symbols() as f64)
            }
        };
        (fixed_report.makespan, sig, decision, hit, auto_secs)
    });

    AutotuneRow {
        dataset: label,
        device: "V100",
        input_mb: input_bytes / 1e6,
        avg_bits: sig.avg_bits(),
        dispatch: decision.dispatch.name(),
        reduction: decision.reduction,
        shards: decision.shards,
        streams: decision.streams,
        decoder: decision.decoder.name(),
        cache_hit: hit,
        fixed_gbps: input_bytes / fixed_secs / 1e9,
        auto_gbps: input_bytes / auto_secs / 1e9,
        wall_ms: wall_s * 1e3,
    }
}

/// Deterministic incompressible bytes: uniform over all 256 values, so
/// the canonical codebook is flat 8-bit and the incompressibility ratio
/// is 1.0 — the store-raw early exit must fire.
fn incompressible_symbols(n: usize) -> Vec<u16> {
    (0..n).map(|i| (((i as u64).wrapping_mul(0x9E3779B97F4A7C15) >> 24) % 256) as u16).collect()
}

/// Run the autotune entropy-spectrum sweep at `scale`: every Table V
/// workload (1.03 → 5.2 avg bits) on a V100, plus two fixed-size probes
/// for the dispatch early exits — `incompressible` (ratio 1.0 →
/// store-raw) and `tiny` (1.5 Ki symbols → CPU-serial). The autotune
/// acceptance contract (gated in CI and by the committed baseline) is
/// that `auto_gbps >= fixed_gbps` on every row: the hysteresis in
/// `huff_core::tune::plan` keeps the default geometry unless a candidate
/// models a clear win, so autotuning can only tie or improve.
pub fn autotune_rows(scale: f64) -> Vec<AutotuneRow> {
    let mut rows = Vec::new();
    for d in PaperDataset::all() {
        let n = d.symbols_at_scale(scale);
        let data = d.generate(n, 0xD5EA5E);
        rows.push(autotune_row(
            d.name().to_string(),
            &data,
            d.num_symbols(),
            d.symbol_bytes() as u8,
        ));
    }
    rows.push(autotune_row("incompressible".to_string(), &incompressible_symbols(1 << 16), 256, 1));
    let tiny = PaperDataset::Enwik8.generate(1500, 0xD5EA5E);
    rows.push(autotune_row("tiny".to_string(), &tiny, 256, 1));
    rows
}

/// One per-kernel roofline row of the acceptance encode (`rsh-bench-v1`
/// table `"kernels"`).
///
/// The regression gate keys on `(dataset, device, plan, kernel, bound)`,
/// so a kernel *changing its `Bound` classification* against the
/// committed `results/BENCH_kernels.json` baseline is a hard failure (a
/// missing/unexpected key), not a quiet metric delta — the Bound class
/// is part of the contract.
#[derive(Serialize)]
pub struct KernelRow {
    /// Workload name (`accept-64mb`: the fixed acceptance input).
    pub dataset: String,
    /// Modeled device name.
    pub device: &'static str,
    /// Kernel plan the pipeline ran under (`fused` / `unfused`).
    pub plan: &'static str,
    /// Kernel name on the device clock.
    pub kernel: String,
    /// Roofline `Bound` classification (part of the regression key).
    pub bound: &'static str,
    /// Modeled kernel time, ms.
    pub modeled_ms: f64,
    /// Achieved over effective bandwidth, `[0, 1]`.
    pub efficiency: f64,
    /// Host wall-clock of the profiled run, ms (machine-dependent;
    /// excluded from regression comparison).
    pub wall_ms: f64,
}

/// Profile the fixed 64 MB acceptance encode on a V100 under both
/// [`KernelPlan`]s and emit one row per kernel launch (deduplicated by
/// name — repeated launches of the same kernel are summed). This is the
/// Bound-class acceptance sweep the regression gate certifies: the fused
/// plan must keep `hist_fused_reduction` and `enc_shuffle_merge` off the
/// latency wall, and `enc_breaking_backtrace` coalesced.
pub fn kernel_rows() -> Vec<KernelRow> {
    let d = PaperDataset::Enwik8;
    let n = (64 << 20) / d.symbol_bytes() as usize;
    let data = d.generate(n, 0xACCE97);
    let mut rows = Vec::new();
    for plan in [KernelPlan::fused(), KernelPlan::unfused()] {
        let gpu = Gpu::v100();
        let opts = metrics::ProfileOptions::new(d.num_symbols())
            .symbol_bytes(d.symbol_bytes())
            .reduction(d.paper_reduction())
            .plan(plan);
        let ((_, profile), wall_s) =
            wall(|| metrics::profile_compress(&gpu, &data, &opts).expect("profiled encode"));
        let report = profile.roofline(DEFAULT_THRESHOLD);
        // Sum repeated launches of the same kernel into one row so the
        // regression key stays unique.
        let mut by_name: Vec<KernelRow> = Vec::new();
        for k in &report.kernels {
            match by_name.iter_mut().find(|r| r.kernel == k.name) {
                Some(r) => r.modeled_ms += k.seconds * 1e3,
                None => by_name.push(KernelRow {
                    dataset: "accept-64mb".to_string(),
                    device: "V100",
                    plan: plan.name(),
                    kernel: k.name.clone(),
                    bound: k.counters.bound.name(),
                    modeled_ms: k.seconds * 1e3,
                    efficiency: k.counters.efficiency,
                    wall_ms: wall_s * 1e3,
                }),
            }
        }
        rows.extend(by_name);
    }
    rows
}

/// The fixed 64 MB acceptance rows alone: enwik8-shaped byte data (~5.2
/// payload bits/symbol), always full size. CI gates on the `lut` row
/// beating `chunked` here.
pub fn accept_64mb_rows() -> Vec<DecodeRow> {
    let d = PaperDataset::Enwik8;
    let n = (64 << 20) / d.symbol_bytes() as usize;
    let data = d.generate(n, 0xACCE97);
    let (stream, book) = encode(&data, d.num_symbols(), d.paper_reduction());
    decode_sweep_rows(
        "accept-64mb",
        &data,
        d.symbol_bytes(),
        &stream,
        &book,
        &[DecoderKind::Chunked, DecoderKind::Lut],
    )
}

/// One range-sweep row (`rsh-bench-v1` table `"range"`): a
/// [`huff_core::archive::decode_range`] probe of one slice width through
/// the modeled device, against the full decode of the same archive on
/// the same backend.
///
/// The regression gate keys on `(dataset, decoder, slice_pct)` and
/// compares `range_ms` (lower), `speedup` (higher) and `overhead_pct`
/// (lower) — so a seek-index fallback to the prefix scan that slows the
/// probe, a range decode that starts touching extra chunks, or a
/// trailer that bloats the archive all trip the gate.
#[derive(Serialize)]
pub struct RangeRow {
    /// Workload name (`accept-64mb` for the fixed acceptance input).
    pub dataset: String,
    /// Decoder backend name.
    pub decoder: &'static str,
    /// Modeled device name.
    pub device: &'static str,
    /// Slice width as a percentage of the decoded payload.
    pub slice_pct: u32,
    /// Input size in MB.
    pub input_mb: f64,
    /// Requested slice width in bytes.
    pub range_bytes: u64,
    /// Chunks the range decode actually decoded.
    pub chunks_touched: usize,
    /// Chunks in the whole archive.
    pub total_chunks: usize,
    /// u64-word index probes spent locating the covering chunks.
    pub probes: u64,
    /// Whether the seek-index trailer served the lookup (`false` means
    /// the prefix-scan fallback ran).
    pub index_used: bool,
    /// Modeled full-archive decode time on the same backend, ms.
    pub full_ms: f64,
    /// Modeled range decode time (probe + window decode), ms.
    pub range_ms: f64,
    /// `full_ms / range_ms`.
    pub speedup: f64,
    /// Seek-index trailer size as a percentage of the archive.
    pub overhead_pct: f64,
    /// Host wall-clock of the bit-exact host range decode, ms
    /// (machine-dependent; excluded from regression comparison).
    pub wall_ms: f64,
}

fn range_sweep_rows(
    label: &str,
    data: &[u16],
    symbol_bytes: u64,
    packed: &[u8],
    decoders: &[DecoderKind],
) -> Vec<RangeRow> {
    let sb = symbol_bytes as usize;
    let total = data.len() as u64 * symbol_bytes;
    let expected: Vec<u8> =
        data.iter().flat_map(|&s| u64::from(s).to_le_bytes()[..sb].to_vec()).collect();
    let overhead_pct = archive::layout(packed)
        .ok()
        .and_then(|sections| sections.into_iter().find(|(s, _)| *s == Section::SeekIndex))
        .map_or(0.0, |(_, span)| 100.0 * span.len() as f64 / packed.len() as f64);
    let opts = DecompressOptions::default();

    let mut rows = Vec::new();
    for &decoder in decoders {
        let gpu = Gpu::v100();
        let (full, full_secs) =
            decode_range_on_gpu(&gpu, packed, 0..total, &opts, decoder).expect("full decode");
        assert_eq!(full.bytes, expected, "{label}/{}: full decode not bit-exact", decoder.name());
        for &pct in RANGE_SLICE_PCTS {
            // Off-center, chunk-unaligned start so the window carries a
            // partial chunk at both ends.
            let span = (total * u64::from(pct) / 100).max(1);
            let lo = (total - span) * 37 / 100;
            let range = lo..lo + span;
            let gpu = Gpu::v100();
            let ((r, secs), wall_s) = wall(|| {
                decode_range_on_gpu(&gpu, packed, range.clone(), &opts, decoder)
                    .expect("range decode")
            });
            assert_eq!(
                r.bytes,
                expected[lo as usize..(lo + span) as usize],
                "{label}/{}/{pct}%: range not a slice of the full decode",
                decoder.name()
            );
            rows.push(RangeRow {
                dataset: label.to_string(),
                decoder: decoder.name(),
                device: "V100",
                slice_pct: pct,
                input_mb: total as f64 / 1e6,
                range_bytes: span,
                chunks_touched: r.chunks_touched,
                total_chunks: r.total_chunks,
                probes: r.index_probes,
                index_used: r.index_used,
                full_ms: full_secs * 1e3,
                range_ms: secs * 1e3,
                speedup: full_secs / secs,
                overhead_pct,
                wall_ms: wall_s * 1e3,
            });
        }
    }
    rows
}

/// Compress one workload into a seekable single-archive container (the
/// RSH2 format `rsh compress` writes, seek-index trailer included).
fn seekable_archive(data: &[u16], num_symbols: usize, symbol_bytes: u8, reduction: u32) -> Vec<u8> {
    let mut opts = archive::CompressOptions::new(num_symbols);
    opts.reduction = Some(reduction);
    opts.symbol_bytes = symbol_bytes;
    archive::compress(data, &opts).expect("range sweep compress")
}

/// Run the random-access range sweep at `scale`: every Table V workload
/// × {`chunked`, `lut`} × [`RANGE_SLICE_PCTS`], plus the fixed full-size
/// 64 MB acceptance rows. Every slice is verified byte-identical to the
/// corresponding slice of the full decode before its row is emitted.
pub fn range_rows(scale: f64) -> Vec<RangeRow> {
    let decoders = [DecoderKind::Chunked, DecoderKind::Lut];
    let mut rows = Vec::new();
    for d in PaperDataset::all() {
        let n = d.symbols_at_scale(scale);
        let data = d.generate(n, 0xD5EA5E);
        let packed =
            seekable_archive(&data, d.num_symbols(), d.symbol_bytes() as u8, d.paper_reduction());
        rows.extend(range_sweep_rows(d.name(), &data, d.symbol_bytes(), &packed, &decoders));
    }
    rows.extend(accept_range_rows());
    rows
}

/// One tail-latency row (`rsh-bench-v1` table `"latency"`): the virtual-
/// time latency percentiles of one request class under the pinned seeded
/// chaos storm.
///
/// The regression gate keys on `(dataset, class)` and compares `p50_ms`
/// and `p99_ms` (both lower-is-better, 2 % tolerance). Every figure is
/// **virtual time** from the engine's modeled clock — deterministic for
/// the pinned seed — so, exactly like `wall_ms` everywhere else, only
/// host wall-clock is excluded from comparison (see EXPERIMENTS.md).
#[derive(Serialize)]
pub struct LatencyRow {
    /// Workload name (the payload generator's dataset).
    pub dataset: &'static str,
    /// Request class (`compress` / `decompress` / `decompress_range`).
    pub class: String,
    /// Requests of this class the storm completed (all outcomes).
    pub requests: u64,
    /// Virtual-time p50 latency (queue + backoff + service), ms.
    pub p50_ms: f64,
    /// Virtual-time p99 latency, ms.
    pub p99_ms: f64,
    /// Virtual-time p999 latency, ms (reported, not gated).
    pub p999_ms: f64,
    /// Host wall-clock of the storm, ms (machine-dependent; excluded
    /// from regression comparison).
    pub wall_ms: f64,
}

/// Chaos seed the latency baseline is pinned to. Part of the contract:
/// changing it regenerates a different fault schedule and invalidates
/// the committed baseline.
pub const LATENCY_STORM_SEED: u64 = 0xC0FFEE;

/// Requests the pinned storm submits (spread over the three classes).
pub const LATENCY_STORM_REQUESTS: usize = 36;

/// Drive the pinned seeded chaos storm and return its engine: a mixed
/// compress / decompress / range workload over one payload, every third
/// request per class, decode requests under a 0.5 s deadline so the
/// storm's deadline faults burn budget deterministically.
fn latency_storm(scale: f64) -> huff_core::serve::Engine {
    use huff_core::serve::{ChaosConfig, Engine, EngineConfig, Request};
    let d = PaperDataset::Nci;
    let n = ((1 << 20) as f64 * scale) as usize;
    let data = d.generate(n.max(4096), LATENCY_STORM_SEED);
    let mut cfg = EngineConfig::new(d.num_symbols());
    cfg.batch.shard_symbols = data.len().div_ceil(4).max(1024);
    cfg.batch.symbol_bytes = d.symbol_bytes() as u8;
    let (frame, _) = compress_batched(&data, &cfg.batch).expect("latency storm compress");
    let total = data.len() as u64 * d.symbol_bytes();
    let mut eng = Engine::with_chaos(cfg, ChaosConfig::storm(LATENCY_STORM_SEED));
    for i in 0..LATENCY_STORM_REQUESTS {
        let t = i as f64 * 50e-6;
        let req = match i % 3 {
            0 => Request::compress(format!("lat-c{i}"), t, data.clone()),
            1 => Request::decompress(format!("lat-d{i}"), t, frame.clone()).with_deadline(0.5),
            _ => {
                let lo = (i as u64 * 997) % (total / 2);
                Request::decompress_range(format!("lat-r{i}"), t, frame.clone(), lo..lo + 1024)
                    .with_deadline(0.5)
            }
        };
        eng.submit(req).expect("latency storm submission");
    }
    eng
}

/// Run the tail-latency sweep at `scale`: one pinned chaos storm, one
/// row per request class with its virtual-time p50/p99/p999.
pub fn latency_rows(scale: f64) -> Vec<LatencyRow> {
    let (eng, wall_s) = wall(|| latency_storm(scale));
    let book = eng.latency();
    book.classes()
        .iter()
        .map(|&class| {
            let h = book.class(class);
            LatencyRow {
                dataset: PaperDataset::Nci.name(),
                class: class.to_string(),
                requests: h.count(),
                p50_ms: h.quantile(0.50) * 1e3,
                p99_ms: h.quantile(0.99) * 1e3,
                p999_ms: h.quantile(0.999) * 1e3,
                wall_ms: wall_s * 1e3,
            }
        })
        .collect()
}

/// The fixed 64 MB acceptance range rows alone. CI gates on the 1 %
/// slice modeling ≥ 10× the full decode and the seek-index overhead
/// staying ≤ 5 % of the archive, on both backends.
pub fn accept_range_rows() -> Vec<RangeRow> {
    let d = PaperDataset::Enwik8;
    let n = (64 << 20) / d.symbol_bytes() as usize;
    let data = d.generate(n, 0xACCE97);
    let packed =
        seekable_archive(&data, d.num_symbols(), d.symbol_bytes() as u8, d.paper_reduction());
    range_sweep_rows(
        "accept-64mb",
        &data,
        d.symbol_bytes(),
        &packed,
        &[DecoderKind::Chunked, DecoderKind::Lut],
    )
}
