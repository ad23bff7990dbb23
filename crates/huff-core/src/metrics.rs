//! Pipeline profiler: per-stage metrics aggregated from kernel trace
//! events, with human-readable, JSON (`rsh-trace-v1`), and Chrome
//! `trace_event` exporters.
//!
//! [`profile_compress`] and [`profile_decompress`] run the same device
//! pipelines as [`crate::pipeline`] but return a [`PipelineProfile`]
//! alongside the result: one [`StageMetrics`] row per stage (histogram,
//! codebook, encode, decode, archive I/O), each kernel launch attributed
//! to its stage via the [`crate::pipeline::StageSpans`] recorded on the
//! device clock. Summing the attributed kernels' `cost.total` reproduces
//! the stage's modeled seconds exactly — the invariant the trace tests
//! pin down.
//!
//! Stages with `kernels == 0` are host-side (archive serialization and
//! parsing); their time is *modeled* at a nominal host bandwidth
//! ([`HOST_IO_BYTES_PER_SEC`]) rather than wall-clock-measured, so a
//! fixed-seed run produces byte-identical profiles.
//!
//! Three exporters:
//!
//! * [`PipelineProfile::render_table`] — aligned text for terminals;
//! * [`PipelineProfile::to_json`] — the `rsh-trace-v1` schema (see
//!   FORMAT.md): run metadata, a `stages` array, a flattened `kernels`
//!   array, and an optional `recovery` report;
//! * [`PipelineProfile::to_chrome_trace`] — Chrome `trace_event` JSON,
//!   one lane per stage, loadable in `chrome://tracing` or
//!   [Perfetto](https://ui.perfetto.dev).
//!
//! ```
//! use gpu_sim::{DeviceSpec, Gpu};
//! use huff_core::metrics::{self, ProfileOptions};
//!
//! let gpu = Gpu::new(DeviceSpec::test_part());
//! let data: Vec<u16> = (0..20_000).map(|i| (i % 97) as u16).collect();
//! let (archive, profile) =
//!     metrics::profile_compress(&gpu, &data, &ProfileOptions::new(128)).unwrap();
//! assert_eq!(huff_core::archive::decompress(&archive).unwrap(), data);
//! assert_eq!(profile.stages.len(), 4); // histogram, codebook, encode, archive
//! let json = profile.to_json_string();
//! assert!(json.starts_with("{\"schema\":\"rsh-trace-v1\""));
//!
//! // Roofline analysis of the same run (rsh-roofline-v1):
//! let roofline = profile.roofline(0.5);
//! assert!(!roofline.kernels.is_empty());
//! ```

pub mod chrome;
pub mod latency;
pub mod registry;
pub mod roofline;
pub mod span;

pub use chrome::LaneWriter;
pub use latency::{LatencyBook, LatencyHistogram};
pub use registry::Registry;
pub use roofline::{KernelRoofline, RooflineReport, StageRoofline, ROOFLINE_SCHEMA};
pub use span::{Span, SpanEvent, SpanSink, TraceContext, SPAN_SCHEMA};

use crate::archive;
use crate::batch::{self, BatchOptions, BatchReport};
use crate::decode::{self, DecoderKind};
use crate::error::{HuffError, Result};
use crate::integrity::{DecompressOptions, Recovered, RecoveryMode, RecoveryReport, ShardTally};
use crate::pipeline::{self, PipelineKind, StageTimes};
use crate::plan::KernelPlan;
use gpu_sim::{DeviceSpec, Gpu, KernelRecord};
use serde::json::{Map, Value};
use serde::Serialize;

/// Version tag of the JSON schema emitted by [`PipelineProfile::to_json`].
pub const TRACE_SCHEMA: &str = "rsh-trace-v1";

/// Nominal host-side memory bandwidth used to *model* archive
/// serialization and parsing time (stages with no kernels). A fixed
/// constant — not a measurement — so profiles are deterministic; 8 GB/s
/// is a conservative single-core memcpy-plus-checksum figure.
pub const HOST_IO_BYTES_PER_SEC: f64 = 8.0e9;

/// Options for [`profile_compress`] and [`profile_roundtrip`].
///
/// Replaces the positional parameter list that mirrored
/// [`pipeline::run`]: new knobs (the roundtrip decoder backend, the
/// roofline anomaly threshold) extend this struct instead of widening
/// every call site. Construct with [`ProfileOptions::new`] and chain the
/// builder methods for non-default values.
///
/// ```
/// use huff_core::decode::DecoderKind;
/// use huff_core::metrics::ProfileOptions;
///
/// let opts = ProfileOptions::new(256).reduction(4).decoder(DecoderKind::Lut);
/// assert_eq!(opts.num_symbols, 256);
/// assert_eq!(opts.symbol_bytes, 2); // default
/// ```
#[derive(Debug, Clone)]
pub struct ProfileOptions {
    /// Number of symbol bins (the codebook size).
    pub num_symbols: usize,
    /// Native symbol width in bytes (default 2).
    pub symbol_bytes: u64,
    /// Chunk magnitude: chunks hold `2^magnitude` symbols (default 10).
    pub magnitude: u32,
    /// Reduction factor `r`; `None` auto-tunes (the default).
    pub reduction: Option<u32>,
    /// Which encode pipeline to run (default
    /// [`PipelineKind::ReduceShuffle`]).
    pub kind: PipelineKind,
    /// Decoder backend for the roundtrip decode leg (default
    /// [`DecoderKind::Chunked`]).
    pub decoder: DecoderKind,
    /// Anomaly threshold for roofline analysis of the resulting profile
    /// (default [`roofline::DEFAULT_THRESHOLD`]).
    pub roofline_threshold: f64,
    /// Kernel-fusion plan the profiled pipeline runs under (default
    /// [`KernelPlan::fused`]; the artifact bytes are plan-independent).
    pub plan: KernelPlan,
}

impl ProfileOptions {
    /// Defaults for `num_symbols` bins: 2-byte symbols, magnitude 10,
    /// auto-tuned reduction, reduce-shuffle pipeline, chunked decoder.
    pub fn new(num_symbols: usize) -> Self {
        ProfileOptions {
            num_symbols,
            symbol_bytes: 2,
            magnitude: 10,
            reduction: None,
            kind: PipelineKind::ReduceShuffle,
            decoder: DecoderKind::default(),
            roofline_threshold: roofline::DEFAULT_THRESHOLD,
            plan: KernelPlan::default(),
        }
    }

    /// Set the native symbol width in bytes.
    pub fn symbol_bytes(mut self, bytes: u64) -> Self {
        self.symbol_bytes = bytes;
        self
    }

    /// Set the chunk magnitude.
    pub fn magnitude(mut self, magnitude: u32) -> Self {
        self.magnitude = magnitude;
        self
    }

    /// Pin the reduction factor (instead of auto-tuning).
    pub fn reduction(mut self, r: u32) -> Self {
        self.reduction = Some(r);
        self
    }

    /// Select the encode pipeline.
    pub fn kind(mut self, kind: PipelineKind) -> Self {
        self.kind = kind;
        self
    }

    /// Select the decoder backend for the roundtrip decode leg.
    pub fn decoder(mut self, decoder: DecoderKind) -> Self {
        self.decoder = decoder;
        self
    }

    /// Set the roofline anomaly threshold.
    pub fn roofline_threshold(mut self, threshold: f64) -> Self {
        self.roofline_threshold = threshold;
        self
    }

    /// Select the kernel-fusion plan.
    pub fn plan(mut self, plan: KernelPlan) -> Self {
        self.plan = plan;
        self
    }
}

/// Aggregated metrics of one pipeline stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StageMetrics {
    /// Stage name (`"histogram"`, `"codebook"`, `"encode"`, `"decode"`,
    /// `"archive"`, `"parse"`).
    pub stage: &'static str,
    /// Modeled seconds: sum of the stage's kernel costs, or host-modeled
    /// I/O time when `kernels == 0`.
    pub seconds: f64,
    /// Kernel launches attributed to this stage (0 for host-side stages).
    pub kernels: usize,
    /// Bytes entering the stage.
    pub bytes_in: u64,
    /// Bytes leaving the stage.
    pub bytes_out: u64,
}

impl StageMetrics {
    /// Effective throughput in GB/s over the stage's input bytes.
    pub fn gbps(&self) -> f64 {
        gpu_sim::gbps(gpu_sim::throughput(self.bytes_in, self.seconds))
    }

    fn to_json(&self) -> Value {
        let mut m = Map::new();
        m.insert("stage".into(), self.stage.into());
        m.insert("seconds".into(), Value::Float(self.seconds));
        m.insert("kernels".into(), Value::Int(self.kernels as i128));
        m.insert("bytes_in".into(), Value::Int(self.bytes_in as i128));
        m.insert("bytes_out".into(), Value::Int(self.bytes_out as i128));
        m.insert("gbps".into(), Value::Float(self.gbps()));
        Value::Object(m)
    }
}

/// One kernel launch attributed to a pipeline stage.
#[derive(Debug, Clone)]
pub struct StageKernel {
    /// The stage this launch belongs to.
    pub stage: &'static str,
    /// The full trace event from the device clock.
    pub record: KernelRecord,
}

/// A complete profile of one pipeline run: per-stage metrics plus every
/// kernel trace event, exportable as a table, JSON, or a Chrome trace.
#[derive(Debug, Clone)]
pub struct PipelineProfile {
    /// `"compress"`, `"decompress"`, or `"roundtrip"`.
    pub direction: &'static str,
    /// Device name the pipeline was modeled on.
    pub device: String,
    /// Full spec of the device — roofline analysis
    /// ([`PipelineProfile::roofline`]) derives counters against it.
    pub spec: DeviceSpec,
    /// Native input size in bytes (symbols × symbol width).
    pub input_bytes: u64,
    /// Size of the serialized archive in bytes.
    pub archive_bytes: u64,
    /// Compression ratio of the bitstream vs. the native symbol width.
    pub compression_ratio: f64,
    /// Achieved average bits per symbol in the payload.
    pub avg_bits: f64,
    /// Reduction factor `r` in effect.
    pub reduction: u32,
    /// Number of payload chunks.
    pub chunks: usize,
    /// Fraction of symbols in breaking units.
    pub breaking_fraction: f64,
    /// Per-stage metrics, in pipeline order.
    pub stages: Vec<StageMetrics>,
    /// Every kernel launch, in launch order, labeled with its stage.
    pub kernels: Vec<StageKernel>,
    /// Recovery report when the run decoded an archive (decompress /
    /// roundtrip directions); `None` for pure compression.
    pub recovery: Option<RecoveryReport>,
}

impl PipelineProfile {
    /// Total modeled seconds across all stages.
    pub fn total_seconds(&self) -> f64 {
        self.stages.iter().map(|s| s.seconds).sum()
    }

    /// The `rsh-trace-v1` JSON value (see FORMAT.md for the schema).
    pub fn to_json(&self) -> Value {
        let mut m = Map::new();
        m.insert("schema".into(), TRACE_SCHEMA.into());
        m.insert("direction".into(), self.direction.into());
        m.insert("device".into(), Value::String(self.device.clone()));
        m.insert("input_bytes".into(), Value::Int(self.input_bytes as i128));
        m.insert("archive_bytes".into(), Value::Int(self.archive_bytes as i128));
        m.insert("compression_ratio".into(), Value::Float(self.compression_ratio));
        m.insert("avg_bits".into(), Value::Float(self.avg_bits));
        m.insert("reduction".into(), Value::Int(i128::from(self.reduction)));
        m.insert("chunks".into(), Value::Int(self.chunks as i128));
        m.insert("breaking_fraction".into(), Value::Float(self.breaking_fraction));
        m.insert("total_seconds".into(), Value::Float(self.total_seconds()));
        m.insert("stages".into(), Value::Array(self.stages.iter().map(|s| s.to_json()).collect()));
        let kernels = self
            .kernels
            .iter()
            .map(|k| {
                let mut obj = match k.record.to_json() {
                    Value::Object(o) => o,
                    _ => unreachable!("KernelRecord serializes to an object"),
                };
                obj.insert("stage".into(), k.stage.into());
                Value::Object(obj)
            })
            .collect();
        m.insert("kernels".into(), Value::Array(kernels));
        m.insert(
            "recovery".into(),
            match &self.recovery {
                Some(r) => recovery_json(r),
                None => Value::Null,
            },
        );
        Value::Object(m)
    }

    /// The `rsh-trace-v1` JSON, rendered compact.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string()
    }

    /// Chrome `trace_event` JSON: one lane per stage, one complete event
    /// per kernel, each slice carrying derived roofline counters in its
    /// `args`. Host-side stages carry no kernels and are omitted. Load
    /// the output in `chrome://tracing` or Perfetto.
    pub fn to_chrome_trace(&self) -> String {
        let mut w = LaneWriter::new(&format!("{} ({}, modeled)", self.direction, self.device))
            .with_counters(self.spec.clone());
        for k in &self.kernels {
            w.kernel(k.stage, &k.record);
        }
        w.finish()
    }

    /// Human-readable profile table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "pipeline profile — {} on {} (modeled)\n",
            self.direction, self.device
        ));
        out.push_str(&format!(
            "input {} -> archive {}  (ratio {:.2}x, {:.2} avg bits, r={}, {} chunks, {:.2}% breaking)\n",
            fmt_bytes(self.input_bytes),
            fmt_bytes(self.archive_bytes),
            self.compression_ratio,
            self.avg_bits,
            self.reduction,
            self.chunks,
            self.breaking_fraction * 100.0
        ));
        out.push('\n');
        out.push_str(&format!(
            "{:<10} {:>12} {:>8} {:>10} {:>10} {:>8}\n",
            "stage", "time", "kernels", "in", "out", "GB/s"
        ));
        for s in &self.stages {
            out.push_str(&format!(
                "{:<10} {:>12} {:>8} {:>10} {:>10} {:>8.1}\n",
                s.stage,
                fmt_seconds(s.seconds),
                s.kernels,
                fmt_bytes(s.bytes_in),
                fmt_bytes(s.bytes_out),
                s.gbps()
            ));
        }
        let total = self.total_seconds();
        out.push_str(&format!(
            "{:<10} {:>12} {:>8} {:>10} {:>10} {:>8.1}\n",
            "total",
            fmt_seconds(total),
            self.kernels.len(),
            fmt_bytes(self.input_bytes),
            fmt_bytes(self.archive_bytes),
            gpu_sim::gbps(gpu_sim::throughput(self.input_bytes, total))
        ));
        if let Some(r) = &self.recovery {
            if r.is_clean() {
                out.push_str(&format!("\nrecovery: clean ({} chunks verified)\n", r.total_chunks));
            } else {
                out.push_str(&format!(
                    "\nrecovery: {}/{} chunks damaged, {} symbols lost\n",
                    r.damaged_chunks.len(),
                    r.total_chunks,
                    r.symbols_lost
                ));
            }
        }
        out
    }
}

fn recovery_json(r: &RecoveryReport) -> Value {
    let mut m = Map::new();
    m.insert("total_chunks".into(), Value::Int(r.total_chunks as i128));
    m.insert(
        "damaged_chunks".into(),
        Value::Array(r.damaged_chunks.iter().map(|&c| Value::Int(c as i128)).collect()),
    );
    m.insert(
        "damaged_ranges".into(),
        Value::Array(
            r.damaged_ranges
                .iter()
                .map(|&(s, e)| Value::Array(vec![Value::Int(s as i128), Value::Int(e as i128)]))
                .collect(),
        ),
    );
    m.insert("symbols_lost".into(), Value::Int(r.symbols_lost as i128));
    Value::Object(m)
}

fn host_io_seconds(bytes: u64) -> f64 {
    bytes as f64 / HOST_IO_BYTES_PER_SEC
}

fn stage_kernels(
    records: &[KernelRecord],
    range: std::ops::Range<usize>,
    stage: &'static str,
) -> Vec<StageKernel> {
    records[range].iter().map(|r| StageKernel { stage, record: r.clone() }).collect()
}

/// Run a compress pipeline (as [`pipeline::run_to_archive`]) and profile
/// it. [`PipelineKind::PrefixSum`] has no archive form and is rejected.
///
/// Returns the serialized archive and the profile; stages are
/// `histogram`, `codebook`, `encode`, and the host-side `archive`
/// serialization.
pub fn profile_compress(
    gpu: &Gpu,
    data: &[u16],
    opts: &ProfileOptions,
) -> Result<(Vec<u8>, PipelineProfile)> {
    if opts.kind == PipelineKind::PrefixSum {
        return Err(HuffError::BadArchive(
            "prefix-sum streams are not chunk-addressable; no archive form".into(),
        ));
    }
    let symbol_bytes = opts.symbol_bytes;
    let (stream, book, report) = pipeline::run_with_plan(
        gpu,
        data,
        symbol_bytes,
        opts.num_symbols,
        opts.magnitude,
        opts.reduction,
        opts.kind,
        opts.plan,
    )?;
    let packed = archive::serialize(&stream, &book, symbol_bytes as u8)?;

    let clock = gpu.clock();
    let records = clock.records();
    let spans = report.spans;
    let hist_bytes_out = opts.num_symbols as u64 * 8; // frequency array
    let book_bytes_out = book.lengths().len() as u64; // 1-byte lengths in the archive
    let payload_bytes = stream.total_bits.div_ceil(8);

    let stages = vec![
        StageMetrics {
            stage: "histogram",
            seconds: report.times.histogram,
            kernels: spans.histogram().len(),
            bytes_in: report.input_bytes,
            bytes_out: hist_bytes_out,
        },
        StageMetrics {
            stage: "codebook",
            seconds: report.times.codebook,
            kernels: spans.codebook().len(),
            bytes_in: hist_bytes_out,
            bytes_out: book_bytes_out,
        },
        StageMetrics {
            stage: "encode",
            seconds: report.times.encode,
            kernels: spans.encode().len(),
            bytes_in: report.input_bytes,
            bytes_out: payload_bytes,
        },
        StageMetrics {
            stage: "archive",
            seconds: host_io_seconds(packed.len() as u64),
            kernels: 0,
            bytes_in: payload_bytes,
            bytes_out: packed.len() as u64,
        },
    ];
    let mut kernels = stage_kernels(records, spans.histogram(), "histogram");
    kernels.extend(stage_kernels(records, spans.codebook(), "codebook"));
    kernels.extend(stage_kernels(records, spans.encode(), "encode"));

    let profile = PipelineProfile {
        direction: "compress",
        device: gpu.spec().name.to_string(),
        spec: gpu.spec().clone(),
        input_bytes: report.input_bytes,
        archive_bytes: packed.len() as u64,
        compression_ratio: report.compression_ratio,
        avg_bits: report.avg_bits,
        reduction: stream.config.reduction,
        chunks: stream.num_chunks(),
        breaking_fraction: report.breaking_fraction,
        stages,
        kernels,
        recovery: None,
    };
    Ok((packed, profile))
}

/// Decode an archive on the device and profile it. Stages are the
/// host-side `parse` (deserialization + checksum verification) and the
/// device `decode` kernel.
///
/// Under [`RecoveryMode::Strict`] any damage is an error, as in
/// [`pipeline::decode_archive`]; under [`RecoveryMode::BestEffort`]
/// damaged chunks are sentinel-filled and the profile's `recovery` field
/// reports them.
pub fn profile_decompress(
    gpu: &Gpu,
    archive_bytes: &[u8],
    opts: &DecompressOptions,
) -> Result<(Recovered, PipelineProfile)> {
    let parsed = archive::deserialize_with(archive_bytes, opts)?;
    let stream = &parsed.stream;
    let symbol_bytes = u64::from(parsed.symbol_bytes.max(1));
    let input_bytes = stream.num_symbols as u64 * symbol_bytes;
    let payload_bytes = stream.total_bits.div_ceil(8);

    let base = gpu.launches();
    let (symbols, report) = match opts.mode {
        RecoveryMode::Strict => {
            let (symbols, _) =
                decode::gpu::decode_kind_on_gpu(gpu, stream, &parsed.book, opts.decoder)?;
            (symbols, RecoveryReport::clean(stream.num_chunks()))
        }
        RecoveryMode::BestEffort => {
            let (symbols, report, _) = decode::gpu::decode_kind_best_effort_on_gpu(
                gpu,
                stream,
                &parsed.book,
                &parsed.chunk_damage,
                opts.sentinel,
                opts.decoder,
            );
            (symbols, report)
        }
    };
    let recovered = Recovered {
        symbols,
        report,
        symbol_bytes: parsed.symbol_bytes,
        shards: ShardTally::default(),
    };
    let after = gpu.launches();

    let clock = gpu.clock();
    let records = clock.records();
    let decode_seconds: f64 = records[base..after].iter().map(|r| r.cost.total).sum();

    let avg_bits = if stream.num_symbols == 0 {
        0.0
    } else {
        stream.total_bits as f64 / stream.num_symbols as f64
    };
    let stages = vec![
        StageMetrics {
            stage: "parse",
            seconds: host_io_seconds(archive_bytes.len() as u64),
            kernels: 0,
            bytes_in: archive_bytes.len() as u64,
            bytes_out: payload_bytes,
        },
        StageMetrics {
            stage: "decode",
            seconds: decode_seconds,
            kernels: after - base,
            bytes_in: payload_bytes,
            bytes_out: input_bytes,
        },
    ];
    let kernels = stage_kernels(records, base..after, "decode");

    let profile = PipelineProfile {
        direction: "decompress",
        device: gpu.spec().name.to_string(),
        spec: gpu.spec().clone(),
        input_bytes,
        archive_bytes: archive_bytes.len() as u64,
        compression_ratio: if payload_bytes == 0 {
            1.0
        } else {
            input_bytes as f64 / payload_bytes as f64
        },
        avg_bits,
        reduction: stream.config.reduction,
        chunks: stream.num_chunks(),
        breaking_fraction: stream.breaking_fraction(),
        stages,
        kernels,
        recovery: Some(recovered.report.clone()),
    };
    Ok((recovered, profile))
}

/// Compress, then decompress, on one device clock: the full `rsh profile`
/// walkthrough. Returns the archive, the decode result, and a single
/// profile whose stages cover both directions (histogram, codebook,
/// encode, archive, parse, decode). The decode leg runs the backend
/// selected by [`ProfileOptions::decoder`].
pub fn profile_roundtrip(
    gpu: &Gpu,
    data: &[u16],
    opts: &ProfileOptions,
) -> Result<(Vec<u8>, Recovered, PipelineProfile)> {
    let (packed, compress) = profile_compress(gpu, data, opts)?;
    let (recovered, decompress) =
        profile_decompress(gpu, &packed, &DecompressOptions::default().with_decoder(opts.decoder))?;

    let mut profile = compress;
    profile.direction = "roundtrip";
    profile.stages.extend(decompress.stages);
    profile.kernels.extend(decompress.kernels);
    profile.recovery = Some(recovered.report.clone());
    Ok((packed, recovered, profile))
}

/// Aggregated metrics of one stream (command queue) on one device in a
/// batched run: how many shards it carried and where its busy time went.
#[derive(Debug, Clone)]
pub struct StreamMetrics {
    /// Index into the batch's device list.
    pub device: usize,
    /// Stream id on that device.
    pub stream: u32,
    /// Shards whose pipelines ran on this stream.
    pub shards: usize,
    /// Total busy seconds on the contended timeline.
    pub busy: f64,
    /// Contended per-stage seconds, summed over the stream's shards.
    /// `stages.total()` equals `busy` — the per-stream attribution
    /// invariant.
    pub stages: StageTimes,
}

impl StreamMetrics {
    fn to_json(&self) -> Value {
        let mut m = Map::new();
        m.insert("device".into(), Value::Int(self.device as i128));
        m.insert("stream".into(), Value::Int(i128::from(self.stream)));
        m.insert("shards".into(), Value::Int(self.shards as i128));
        m.insert("busy_seconds".into(), Value::Float(self.busy));
        m.insert("histogram".into(), Value::Float(self.stages.histogram));
        m.insert("codebook".into(), Value::Float(self.stages.codebook));
        m.insert("encode".into(), Value::Float(self.stages.encode));
        Value::Object(m)
    }
}

/// A profile of one batched (sharded, multi-stream, multi-device) run:
/// the [`BatchReport`] plus per-stream stage attribution, exportable as a
/// table, `rsh-trace-v1` JSON, or a Chrome trace with one lane per
/// device × stream.
#[derive(Debug, Clone)]
pub struct BatchProfile {
    /// The underlying batch report (shards, device timelines, makespan).
    pub report: BatchReport,
    /// Per-stream metrics, ordered by device then stream id.
    pub streams: Vec<StreamMetrics>,
    /// Size of the serialized multi-shard frame in bytes.
    pub archive_bytes: u64,
}

impl BatchProfile {
    fn build(report: BatchReport, archive_bytes: u64) -> Self {
        let mut streams = Vec::new();
        for dev in &report.devices {
            for s in dev.timeline.stream_ids() {
                let on_stream =
                    report.shards.iter().filter(|sh| sh.device == dev.device && sh.stream == s);
                let mut stages = StageTimes::default();
                let mut shards = 0usize;
                for sh in on_stream {
                    stages.histogram += sh.stages.histogram;
                    stages.codebook += sh.stages.codebook;
                    stages.encode += sh.stages.encode;
                    shards += 1;
                }
                streams.push(StreamMetrics {
                    device: dev.device,
                    stream: s,
                    shards,
                    busy: dev.timeline.stream_busy(s),
                    stages,
                });
            }
        }
        BatchProfile { report, streams, archive_bytes }
    }

    /// The `rsh-trace-v1` JSON value for a batched run (see FORMAT.md).
    pub fn to_json(&self) -> Value {
        let mut m = Map::new();
        m.insert("schema".into(), TRACE_SCHEMA.into());
        m.insert("direction".into(), "compress-batched".into());
        m.insert("input_bytes".into(), Value::Int(self.report.input_bytes as i128));
        m.insert("archive_bytes".into(), Value::Int(self.archive_bytes as i128));
        m.insert("makespan_seconds".into(), Value::Float(self.report.makespan));
        m.insert("serial_seconds".into(), Value::Float(self.report.serial_seconds));
        m.insert("speedup".into(), Value::Float(self.report.speedup()));
        m.insert("gbps".into(), Value::Float(gpu_sim::gbps(self.report.throughput())));
        let devices = self
            .report
            .devices
            .iter()
            .map(|d| {
                let mut obj = Map::new();
                obj.insert("device".into(), Value::Int(d.device as i128));
                obj.insert("name".into(), d.name.into());
                obj.insert("makespan_seconds".into(), Value::Float(d.timeline.makespan));
                obj.insert(
                    "streams".into(),
                    Value::Array(
                        self.streams
                            .iter()
                            .filter(|s| s.device == d.device)
                            .map(StreamMetrics::to_json)
                            .collect(),
                    ),
                );
                Value::Object(obj)
            })
            .collect();
        m.insert("devices".into(), Value::Array(devices));
        let shards = self
            .report
            .shards
            .iter()
            .map(|sh| {
                let mut obj = Map::new();
                obj.insert("index".into(), Value::Int(sh.index as i128));
                obj.insert("device".into(), Value::Int(sh.device as i128));
                obj.insert("stream".into(), Value::Int(i128::from(sh.stream)));
                obj.insert("symbols".into(), Value::Int(sh.symbols as i128));
                obj.insert("histogram".into(), Value::Float(sh.stages.histogram));
                obj.insert("codebook".into(), Value::Float(sh.stages.codebook));
                obj.insert("encode".into(), Value::Float(sh.stages.encode));
                Value::Object(obj)
            })
            .collect();
        m.insert("shards".into(), Value::Array(shards));
        let kernels = self
            .report
            .devices
            .iter()
            .flat_map(|d| {
                d.timeline.records.iter().map(move |r| {
                    let mut obj = match r.to_json() {
                        Value::Object(o) => o,
                        _ => unreachable!("KernelRecord serializes to an object"),
                    };
                    obj.insert("device".into(), Value::Int(d.device as i128));
                    Value::Object(obj)
                })
            })
            .collect();
        m.insert("kernels".into(), Value::Array(kernels));
        Value::Object(m)
    }

    /// The `rsh-trace-v1` JSON, rendered compact.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string()
    }

    /// Chrome `trace_event` JSON: one lane per device × stream, named
    /// `"gpu<d> (<name>) stream <s>"`, every kernel on its stream's lane.
    /// Lane/pid assignment follows the same [`LaneWriter`] rules as
    /// [`PipelineProfile::to_chrome_trace`].
    pub fn to_chrome_trace(&self) -> String {
        let mut w = LaneWriter::new("batched compress (modeled)");
        for dev in &self.report.devices {
            // Register every stream lane up front so lane order is
            // device-major even when records interleave.
            for s in dev.timeline.stream_ids() {
                w.lane(&format!("gpu{} ({}) stream {}", dev.device, dev.name, s));
            }
            for r in &dev.timeline.records {
                w.kernel(&format!("gpu{} ({}) stream {}", dev.device, dev.name, r.stream), r);
            }
        }
        w.finish()
    }

    /// Human-readable per-stream profile table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str("batched pipeline profile (modeled)\n");
        out.push_str(&format!(
            "input {} -> frame {}  ({} shards, {} device{})\n",
            fmt_bytes(self.report.input_bytes),
            fmt_bytes(self.archive_bytes),
            self.report.shards.len(),
            self.report.devices.len(),
            if self.report.devices.len() == 1 { "" } else { "s" }
        ));
        out.push_str(&format!(
            "makespan {}  serial {}  speedup {:.2}x  {:.1} GB/s\n",
            fmt_seconds(self.report.makespan),
            fmt_seconds(self.report.serial_seconds),
            self.report.speedup(),
            gpu_sim::gbps(self.report.throughput())
        ));
        out.push('\n');
        out.push_str(&format!(
            "{:<20} {:>7} {:>12} {:>12} {:>12} {:>12}\n",
            "device/stream", "shards", "busy", "histogram", "codebook", "encode"
        ));
        for s in &self.streams {
            let name = self.report.devices[s.device].name;
            out.push_str(&format!(
                "{:<20} {:>7} {:>12} {:>12} {:>12} {:>12}\n",
                format!("gpu{} ({}) s{}", s.device, name, s.stream),
                s.shards,
                fmt_seconds(s.busy),
                fmt_seconds(s.stages.histogram),
                fmt_seconds(s.stages.codebook),
                fmt_seconds(s.stages.encode),
            ));
        }
        out
    }
}

/// Compress `data` as a multi-shard frame (as
/// [`batch::compress_batched`]) and profile it: the returned
/// [`BatchProfile`] attributes every stream's contended busy time to
/// pipeline stages and exports multi-lane Chrome traces.
pub fn profile_compress_batched(
    data: &[u16],
    opts: &BatchOptions,
) -> Result<(Vec<u8>, BatchProfile)> {
    let (frame, report) = batch::compress_batched(data, opts)?;
    let archive_bytes = frame.len() as u64;
    Ok((frame, BatchProfile::build(report, archive_bytes)))
}

fn fmt_bytes(b: u64) -> String {
    let b = b as f64;
    if b >= 1.0e9 {
        format!("{:.2} GB", b / 1.0e9)
    } else if b >= 1.0e6 {
        format!("{:.2} MB", b / 1.0e6)
    } else if b >= 1.0e3 {
        format!("{:.2} kB", b / 1.0e3)
    } else {
        format!("{b:.0} B")
    }
}

pub(crate) fn fmt_seconds(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1.0e-3 {
        format!("{:.3} ms", s * 1.0e3)
    } else {
        format!("{:.3} us", s * 1.0e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing;
    use gpu_sim::DeviceSpec;

    fn data(n: usize) -> Vec<u16> {
        (0..n)
            .map(|i| {
                let x = (i as u64).wrapping_mul(0x9E3779B97F4A7C15) >> 40;
                (x % 256) as u16
            })
            .collect()
    }

    #[test]
    fn compress_profile_stage_seconds_match_kernel_sums() {
        let gpu = Gpu::new(DeviceSpec::test_part());
        let syms = data(30_000);
        let (_, p) = profile_compress(&gpu, &syms, &ProfileOptions::new(256)).unwrap();
        assert_eq!(p.direction, "compress");
        for s in &p.stages {
            let sum: f64 =
                p.kernels.iter().filter(|k| k.stage == s.stage).map(|k| k.record.cost.total).sum();
            if s.kernels > 0 {
                assert!((sum - s.seconds).abs() < 1e-12, "stage {}", s.stage);
            } else {
                assert_eq!(sum, 0.0);
            }
        }
        // Every kernel is attributed to exactly one stage.
        let attributed: usize = p.stages.iter().map(|s| s.kernels).sum();
        assert_eq!(attributed, p.kernels.len());
    }

    #[test]
    fn decompress_profile_is_strict_clean_and_attributed() {
        let gpu = Gpu::new(DeviceSpec::test_part());
        let syms = data(20_000);
        let (packed, _) = profile_compress(&gpu, &syms, &ProfileOptions::new(256)).unwrap();
        let (rec, p) = profile_decompress(&gpu, &packed, &DecompressOptions::default()).unwrap();
        assert_eq!(rec.symbols, syms);
        assert!(p.recovery.as_ref().unwrap().is_clean());
        assert_eq!(p.stages.len(), 2);
        let decode = &p.stages[1];
        assert_eq!(decode.stage, "decode");
        assert_eq!(decode.kernels, 1);
        assert_eq!(decode.bytes_out, p.input_bytes);
    }

    #[test]
    fn lut_decoder_profile_attributes_both_kernels() {
        let gpu = Gpu::new(DeviceSpec::test_part());
        let syms = data(20_000);
        let (packed, _) = profile_compress(&gpu, &syms, &ProfileOptions::new(256)).unwrap();
        let opts = DecompressOptions::default().with_decoder(crate::decode::DecoderKind::Lut);
        let (rec, p) = profile_decompress(&gpu, &packed, &opts).unwrap();
        assert_eq!(rec.symbols, syms);
        let decode = &p.stages[1];
        assert_eq!(decode.stage, "decode");
        // Sync pass + LUT decode pass, both attributed to the stage.
        assert_eq!(decode.kernels, 2);
        let names: Vec<&str> = p
            .kernels
            .iter()
            .filter(|k| k.stage == "decode")
            .map(|k| k.record.name.as_str())
            .collect();
        assert_eq!(names, ["dec_subchunk_sync", "dec_lut_gap"]);
        let sum: f64 =
            p.kernels.iter().filter(|k| k.stage == "decode").map(|k| k.record.cost.total).sum();
        assert!((sum - decode.seconds).abs() < 1e-12);
    }

    #[test]
    fn best_effort_profile_reports_damage() {
        let gpu = Gpu::new(DeviceSpec::test_part());
        let syms = data(20_000);
        let (packed, _) = profile_compress(&gpu, &syms, &ProfileOptions::new(256)).unwrap();
        let sections = archive::layout(&packed).unwrap();
        let payload = sections
            .iter()
            .find(|(s, _)| *s == crate::integrity::Section::Payload)
            .map(|(_, r)| r.clone())
            .unwrap();
        let mut corrupt = packed.clone();
        assert!(testing::apply(
            &mut corrupt,
            &testing::Fault::BitFlip { offset: payload.start + payload.len() / 2, bit: 4 }
        ));
        let (rec, p) =
            profile_decompress(&gpu, &corrupt, &DecompressOptions::best_effort()).unwrap();
        assert!(!rec.report.is_clean());
        assert!(!p.recovery.as_ref().unwrap().is_clean());
        let json = p.to_json_string();
        assert!(json.contains("\"damaged_chunks\":["));
    }

    #[test]
    fn roundtrip_profile_covers_both_directions() {
        let gpu = Gpu::new(DeviceSpec::test_part());
        let syms = data(25_000);
        let (_, rec, p) = profile_roundtrip(&gpu, &syms, &ProfileOptions::new(256)).unwrap();
        assert_eq!(rec.symbols, syms);
        assert_eq!(p.direction, "roundtrip");
        let names: Vec<&str> = p.stages.iter().map(|s| s.stage).collect();
        assert_eq!(names, ["histogram", "codebook", "encode", "archive", "parse", "decode"]);
        assert!(p.total_seconds() > 0.0);
    }

    #[test]
    fn json_and_table_and_chrome_render() {
        let gpu = Gpu::new(DeviceSpec::test_part());
        let syms = data(15_000);
        let (_, p) = profile_compress(&gpu, &syms, &ProfileOptions::new(256)).unwrap();
        let json = p.to_json_string();
        assert!(json.starts_with("{\"schema\":\"rsh-trace-v1\""));
        assert!(json.contains("\"stages\":["));
        assert!(json.contains("\"kernels\":["));
        assert!(json.contains("\"recovery\":null"));
        let table = p.render_table();
        assert!(table.contains("histogram"));
        assert!(table.contains("GB/s"));
        let chrome = p.to_chrome_trace();
        assert!(chrome.starts_with("{\"traceEvents\":["));
        assert!(chrome.contains("\"ph\":\"X\""));
    }

    #[test]
    fn profiles_are_deterministic() {
        let run = || {
            let gpu = Gpu::new(DeviceSpec::test_part());
            let syms = data(10_000);
            let (_, p) = profile_compress(&gpu, &syms, &ProfileOptions::new(256)).unwrap();
            p.to_json_string()
        };
        assert_eq!(run(), run());
    }

    fn batch_opts() -> BatchOptions {
        let mut o = BatchOptions::new(256);
        o.shard_symbols = 20_000;
        o.devices = vec![DeviceSpec::test_part()];
        o
    }

    #[test]
    fn batch_profile_stream_stages_sum_to_busy_time() {
        let syms = data(70_000);
        let (frame, p) = profile_compress_batched(&syms, &batch_opts()).unwrap();
        assert_eq!(archive::decompress(&frame).unwrap(), syms);
        assert_eq!(p.streams.len(), 2);
        for s in &p.streams {
            assert!(
                (s.stages.total() - s.busy).abs() < 1e-12,
                "stream {}: {} vs {}",
                s.stream,
                s.stages.total(),
                s.busy
            );
        }
        let shards: usize = p.streams.iter().map(|s| s.shards).sum();
        assert_eq!(shards, p.report.shards.len());
    }

    #[test]
    fn batch_profile_exports_render() {
        let syms = data(70_000);
        let (_, p) = profile_compress_batched(&syms, &batch_opts()).unwrap();
        let json = p.to_json_string();
        assert!(json.starts_with("{\"schema\":\"rsh-trace-v1\""));
        assert!(json.contains("\"direction\":\"compress-batched\""));
        assert!(json.contains("\"devices\":["));
        assert!(json.contains("\"shards\":["));
        assert!(json.contains("\"speedup\":"));
        let table = p.render_table();
        assert!(table.contains("makespan"));
        assert!(table.contains("stream"), "table: {table}");
        let chrome = p.to_chrome_trace();
        assert!(chrome.contains("gpu0 (TestPart) stream 0"));
        assert!(chrome.contains("gpu0 (TestPart) stream 1"));
        assert!(chrome.contains("\"ph\":\"X\""));
    }

    #[test]
    fn batch_profile_multi_device_lanes() {
        let syms = data(80_000);
        let mut opts = batch_opts();
        opts.devices = vec![DeviceSpec::test_part(), DeviceSpec::test_part()];
        let (_, p) = profile_compress_batched(&syms, &opts).unwrap();
        let chrome = p.to_chrome_trace();
        assert!(chrome.contains("gpu0 (TestPart) stream 0"));
        assert!(chrome.contains("gpu1 (TestPart) stream 0"));
    }

    #[test]
    fn prefix_sum_rejected() {
        let gpu = Gpu::new(DeviceSpec::test_part());
        let syms = data(5_000);
        let r =
            profile_compress(&gpu, &syms, &ProfileOptions::new(256).kind(PipelineKind::PrefixSum));
        assert!(matches!(r, Err(HuffError::BadArchive(_))));
    }
}
