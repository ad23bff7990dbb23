//! End-to-end device pipelines — the units Table V compares.
//!
//! "Ours": Gómez-Luna histogram → sort + GenerateCL + GenerateCW →
//! reduce-shuffle encode. "cuSZ": same histogram → serial-on-device
//! codebook + canonize → coarse encode. Both charge modeled time to the
//! device clock and return a per-stage breakdown plus the (bit-exact)
//! compressed stream.

use crate::archive;
use crate::codebook::{self, CanonicalCodebook};
use crate::encode::{self, BreakingStrategy, ChunkedStream, MergeConfig};
use crate::entropy;
use crate::error::{HuffError, Result};
use crate::histogram;
use crate::integrity::{DecompressOptions, Recovered};
use crate::plan::KernelPlan;
use gpu_sim::Gpu;

/// Which pipeline to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelineKind {
    /// The paper's encoder: parallel codebook + reduce-shuffle merge.
    ReduceShuffle,
    /// The cuSZ baseline: serial-on-device codebook + coarse encode.
    CuszCoarse,
    /// The Rahmani baseline: parallel codebook + prefix-sum encode.
    PrefixSum,
}

/// Per-stage modeled times (seconds) of one pipeline run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageTimes {
    /// Histogramming.
    pub histogram: f64,
    /// Codebook construction (incl. sort / canonize as applicable).
    pub codebook: f64,
    /// Encoding (all encode kernels).
    pub encode: f64,
}

impl StageTimes {
    /// Total pipeline time.
    pub fn total(&self) -> f64 {
        self.histogram + self.codebook + self.encode
    }
}

/// Kernel-record boundaries of one pipeline run on the device clock.
///
/// `gpu.clock().records()[base..after_histogram]` are the histogram
/// kernels, `[after_histogram..after_codebook]` the codebook kernels, and
/// `[after_codebook..after_encode]` the encode kernels. The profiler
/// ([`crate::metrics`]) uses these spans to attribute every trace event to
/// a stage; summing `cost.total` over a span reproduces the corresponding
/// [`StageTimes`] entry exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageSpans {
    /// Launch count on the device before the pipeline started.
    pub base: usize,
    /// Launch count after the histogram stage.
    pub after_histogram: usize,
    /// Launch count after the codebook stage.
    pub after_codebook: usize,
    /// Launch count after the encode stage.
    pub after_encode: usize,
}

impl StageSpans {
    /// Record-index range of the histogram kernels.
    pub fn histogram(&self) -> std::ops::Range<usize> {
        self.base..self.after_histogram
    }

    /// Record-index range of the codebook kernels.
    pub fn codebook(&self) -> std::ops::Range<usize> {
        self.after_histogram..self.after_codebook
    }

    /// Record-index range of the encode kernels.
    pub fn encode(&self) -> std::ops::Range<usize> {
        self.after_codebook..self.after_encode
    }
}

/// Everything a table row needs about one pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// Which pipeline ran.
    pub kind: PipelineKind,
    /// Per-stage modeled times.
    pub times: StageTimes,
    /// Input size in bytes (native symbol width).
    pub input_bytes: u64,
    /// Frequency-weighted average codeword bitwidth.
    pub avg_bits: f64,
    /// Reduction factor used (0 for non-merging encoders).
    pub reduction: u32,
    /// Fraction of symbols in breaking units.
    pub breaking_fraction: f64,
    /// Compression ratio achieved (vs native width).
    pub compression_ratio: f64,
    /// Kernel-record boundaries of this run on the device clock.
    pub spans: StageSpans,
    /// Kernel-fusion plan the run executed under.
    pub plan: KernelPlan,
}

impl PipelineReport {
    /// Histogram throughput in GB/s over the native input size.
    pub fn hist_gbps(&self) -> f64 {
        gpu_sim::gbps(self.input_bytes as f64 / self.times.histogram)
    }

    /// Encode throughput in GB/s.
    pub fn encode_gbps(&self) -> f64 {
        gpu_sim::gbps(self.input_bytes as f64 / self.times.encode)
    }

    /// Overall throughput in GB/s.
    pub fn overall_gbps(&self) -> f64 {
        gpu_sim::gbps(self.input_bytes as f64 / self.times.total())
    }
}

/// Run a full encode pipeline on the device.
///
/// * `symbol_bytes` — native symbol width (1 for byte corpora, 2 for
///   quantization codes / k-mers); sets the traffic and GB/s basis.
/// * `num_symbols` — histogram size (codebook span).
/// * `reduction` — explicit `r`, or `None` for the Fig. 3 rule.
///
/// The returned [`PipelineReport`] carries per-stage modeled times plus the
/// kernel-record [`StageSpans`] on the device clock, so every launch can be
/// attributed to a stage after the fact:
///
/// ```
/// use gpu_sim::{DeviceSpec, Gpu};
/// use huff_core::pipeline::{self, PipelineKind};
///
/// let gpu = Gpu::new(DeviceSpec::test_part());
/// let data: Vec<u16> = (0..20_000).map(|i| (i % 256) as u16).collect();
/// let (stream, book, report) =
///     pipeline::run(&gpu, &data, 2, 256, 10, None, PipelineKind::ReduceShuffle).unwrap();
///
/// // The stream decodes back to the input, bit-exactly.
/// assert_eq!(huff_core::decode::chunked::decode(&stream, &book).unwrap(), data);
///
/// // Per-kernel costs over a stage's span sum to that stage's time.
/// let clock = gpu.clock();
/// let hist: f64 = clock.records()[report.spans.histogram()]
///     .iter()
///     .map(|r| r.cost.total)
///     .sum();
/// assert!((hist - report.times.histogram).abs() < 1e-12);
/// ```
pub fn run(
    gpu: &Gpu,
    data: &[u16],
    symbol_bytes: u64,
    num_symbols: usize,
    magnitude: u32,
    reduction: Option<u32>,
    kind: PipelineKind,
) -> Result<(ChunkedStream, CanonicalCodebook, PipelineReport)> {
    run_with_plan(
        gpu,
        data,
        symbol_bytes,
        num_symbols,
        magnitude,
        reduction,
        kind,
        KernelPlan::default(),
    )
}

/// [`run`] under an explicit [`KernelPlan`]. The stream, codebook and
/// archive bytes are identical for every plan — only the modeled launch
/// count and per-kernel traffic differ (DESIGN.md § "Kernel fusion").
#[allow(clippy::too_many_arguments)]
pub fn run_with_plan(
    gpu: &Gpu,
    data: &[u16],
    symbol_bytes: u64,
    num_symbols: usize,
    magnitude: u32,
    reduction: Option<u32>,
    kind: PipelineKind,
    plan: KernelPlan,
) -> Result<(ChunkedStream, CanonicalCodebook, PipelineReport)> {
    let base = gpu.launches();
    let base_elapsed = gpu.elapsed();

    // Stage 1: histogram.
    let freqs = histogram::gpu::histogram_with_plan(gpu, data, num_symbols, symbol_bytes, plan);
    let after_histogram = gpu.launches();
    let hist_time = gpu.elapsed() - base_elapsed;

    // Stage 2: codebook.
    let before_codebook = gpu.elapsed();
    let book = match kind {
        PipelineKind::ReduceShuffle | PipelineKind::PrefixSum => {
            codebook::gpu::parallel_on_gpu(gpu, &freqs)?.0
        }
        PipelineKind::CuszCoarse => codebook::gpu::serial_on_gpu(gpu, &freqs)?.0,
    };
    let after_codebook = gpu.launches();
    let codebook_time = gpu.elapsed() - before_codebook;

    let avg_bits = book.average_bitwidth(&freqs);
    let r = reduction.unwrap_or_else(|| entropy::decide_reduction_factor(avg_bits, 32, magnitude));
    let config = MergeConfig::new(magnitude, r);

    // Stage 3: encode.
    let before_encode = gpu.elapsed();
    let (stream, breaking_fraction, compression_ratio, used_r) = match kind {
        PipelineKind::ReduceShuffle => {
            let (stream, _) = encode::gpu::encode_on_gpu_with_plan(
                gpu,
                data,
                symbol_bytes,
                &book,
                config,
                BreakingStrategy::SparseSidecar,
                plan,
            )?;
            let bf = stream.breaking_fraction();
            let cr = stream.compression_ratio(symbol_bytes as u32 * 8);
            (stream, bf, cr, r)
        }
        PipelineKind::CuszCoarse => {
            let (stream, _) =
                encode::gpu::coarse_encode_on_gpu(gpu, data, symbol_bytes, &book, config)?;
            let bf = 0.0;
            let cr = stream.compression_ratio(symbol_bytes as u32 * 8);
            (stream, bf, cr, 0)
        }
        PipelineKind::PrefixSum => {
            let (flat, _) = encode::gpu::prefix_sum_encode_on_gpu(gpu, data, symbol_bytes, &book)?;
            let cr = flat.compression_ratio(symbol_bytes as u32 * 8);
            // Re-wrap as a single-chunk stream for a uniform return type.
            let stream = ChunkedStream {
                config,
                chunk_bit_lens: vec![flat.bit_len],
                chunk_bit_offsets: vec![0],
                total_bits: flat.bit_len,
                bytes: flat.bytes,
                num_symbols: flat.num_symbols,
                outliers: crate::sparse::SparseOutliers::new(),
            };
            (stream, 0.0, cr, 0)
        }
    };
    let after_encode = gpu.launches();
    let encode_time = gpu.elapsed() - before_encode;

    let report = PipelineReport {
        kind,
        times: StageTimes { histogram: hist_time, codebook: codebook_time, encode: encode_time },
        input_bytes: data.len() as u64 * symbol_bytes,
        avg_bits,
        reduction: used_r,
        breaking_fraction,
        compression_ratio,
        spans: StageSpans { base, after_histogram, after_codebook, after_encode },
        plan,
    };
    Ok((stream, book, report))
}

/// Run a full encode pipeline and package the result as a checksummed
/// RSH2 archive (see [`crate::archive`]).
///
/// [`PipelineKind::PrefixSum`] streams are a single flat bitstream with
/// no chunk addressing, so they have no archive form and are rejected.
#[allow(clippy::too_many_arguments)]
pub fn run_to_archive(
    gpu: &Gpu,
    data: &[u16],
    symbol_bytes: u64,
    num_symbols: usize,
    magnitude: u32,
    reduction: Option<u32>,
    kind: PipelineKind,
) -> Result<(Vec<u8>, PipelineReport)> {
    if kind == PipelineKind::PrefixSum {
        return Err(HuffError::BadArchive(
            "prefix-sum streams are not chunk-addressable; no archive form".into(),
        ));
    }
    let (stream, book, report) =
        run(gpu, data, symbol_bytes, num_symbols, magnitude, reduction, kind)?;
    Ok((archive::serialize(&stream, &book, symbol_bytes as u8)?, report))
}

/// Decode an archive produced by [`run_to_archive`] (or
/// [`crate::archive::compress`]) under an explicit verification and
/// recovery policy — the decompress side of the pipeline. The payload
/// decoder backend is `opts.decoder`
/// ([`DecoderKind`](crate::decode::DecoderKind)); all backends are
/// bit-exact, so the choice only affects modeled device time.
pub fn decode_archive(archive_bytes: &[u8], opts: &DecompressOptions) -> Result<Recovered> {
    archive::decompress_with(archive_bytes, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode;
    use gpu_sim::DeviceSpec;

    fn data(n: usize) -> Vec<u16> {
        (0..n)
            .map(|i| {
                let x = (i as u64).wrapping_mul(0x9E3779B97F4A7C15) >> 38;
                (x % 512) as u16
            })
            .collect()
    }

    #[test]
    fn ours_pipeline_roundtrips() {
        let gpu = Gpu::new(DeviceSpec::test_part());
        let syms = data(50_000);
        let (stream, book, report) =
            run(&gpu, &syms, 2, 512, 10, None, PipelineKind::ReduceShuffle).unwrap();
        assert_eq!(decode::chunked::decode(&stream, &book).unwrap(), syms);
        assert!(report.times.histogram > 0.0);
        assert!(report.times.codebook > 0.0);
        assert!(report.times.encode > 0.0);
        assert!(report.compression_ratio > 1.0);
        assert!(report.avg_bits > 0.0 && report.avg_bits < 16.0);
    }

    #[test]
    fn cusz_pipeline_roundtrips() {
        let gpu = Gpu::new(DeviceSpec::test_part());
        let syms = data(20_000);
        let (stream, book, report) =
            run(&gpu, &syms, 2, 512, 10, None, PipelineKind::CuszCoarse).unwrap();
        assert_eq!(decode::chunked::decode(&stream, &book).unwrap(), syms);
        assert_eq!(report.reduction, 0);
    }

    #[test]
    fn prefix_sum_pipeline_roundtrips() {
        let gpu = Gpu::new(DeviceSpec::test_part());
        let syms = data(20_000);
        let (stream, book, _) =
            run(&gpu, &syms, 2, 512, 10, None, PipelineKind::PrefixSum).unwrap();
        let dec =
            decode::canonical::decode(&stream.bytes, stream.total_bits, stream.num_symbols, &book)
                .unwrap();
        assert_eq!(dec, syms);
    }

    #[test]
    fn ours_beats_cusz_overall_on_v100() {
        let syms = data(8_000_000);
        let g1 = Gpu::v100();
        let (_, _, ours) =
            run(&g1, &syms, 2, 512, 10, Some(3), PipelineKind::ReduceShuffle).unwrap();
        let g2 = Gpu::v100();
        let (_, _, cusz) = run(&g2, &syms, 2, 512, 10, None, PipelineKind::CuszCoarse).unwrap();
        assert!(
            ours.times.total() < cusz.times.total(),
            "ours {} vs cusz {}",
            ours.times.total(),
            cusz.times.total()
        );
        assert!(ours.overall_gbps() > cusz.overall_gbps());
    }

    #[test]
    fn archive_pipeline_roundtrips_with_verification() {
        let gpu = Gpu::new(DeviceSpec::test_part());
        let syms = data(30_000);
        let (packed, report) =
            run_to_archive(&gpu, &syms, 2, 512, 10, None, PipelineKind::ReduceShuffle).unwrap();
        assert!(report.compression_ratio > 1.0);
        let rec = decode_archive(&packed, &DecompressOptions::default()).unwrap();
        assert_eq!(rec.symbols, syms);
        assert!(rec.report.is_clean());
    }

    #[test]
    fn every_decoder_backend_roundtrips_the_archive() {
        let gpu = Gpu::new(DeviceSpec::test_part());
        let syms = data(30_000);
        let (packed, _) =
            run_to_archive(&gpu, &syms, 2, 512, 10, None, PipelineKind::ReduceShuffle).unwrap();
        for decoder in
            [decode::DecoderKind::Serial, decode::DecoderKind::Chunked, decode::DecoderKind::Lut]
        {
            let opts = DecompressOptions::default().with_decoder(decoder);
            let rec = decode_archive(&packed, &opts).unwrap();
            assert_eq!(rec.symbols, syms, "{}", decoder.name());
            assert!(rec.report.is_clean());
        }
    }

    #[test]
    fn prefix_sum_has_no_archive_form() {
        let gpu = Gpu::new(DeviceSpec::test_part());
        let syms = data(5_000);
        let r = run_to_archive(&gpu, &syms, 2, 512, 10, None, PipelineKind::PrefixSum);
        assert!(matches!(r, Err(HuffError::BadArchive(_))));
    }

    #[test]
    fn stage_spans_partition_the_clock_and_sum_to_stage_times() {
        let gpu = Gpu::new(DeviceSpec::test_part());
        // Pre-existing launches must not confuse the spans.
        gpu.launch("warmup", gpu_sim::GridDim::new(1, 32), |_| {});
        let syms = data(30_000);
        let (_, _, report) =
            run(&gpu, &syms, 2, 512, 10, None, PipelineKind::ReduceShuffle).unwrap();
        let clock = gpu.clock();
        let recs = clock.records();
        assert_eq!(report.spans.base, 1);
        assert_eq!(report.spans.after_encode, recs.len());
        assert!(report.spans.base < report.spans.after_histogram);
        assert!(report.spans.after_histogram < report.spans.after_codebook);
        assert!(report.spans.after_codebook < report.spans.after_encode);
        let sum = |r: std::ops::Range<usize>| recs[r].iter().map(|k| k.cost.total).sum::<f64>();
        assert!((sum(report.spans.histogram()) - report.times.histogram).abs() < 1e-12);
        assert!((sum(report.spans.codebook()) - report.times.codebook).abs() < 1e-12);
        assert!((sum(report.spans.encode()) - report.times.encode).abs() < 1e-12);
    }

    #[test]
    fn plans_produce_identical_streams_with_different_launch_counts() {
        let syms = data(40_000);
        let g1 = Gpu::new(DeviceSpec::test_part());
        let (fused_stream, _, fused_report) = run_with_plan(
            &g1,
            &syms,
            2,
            512,
            10,
            None,
            PipelineKind::ReduceShuffle,
            KernelPlan::fused(),
        )
        .unwrap();
        let g2 = Gpu::new(DeviceSpec::test_part());
        let (unfused_stream, _, unfused_report) = run_with_plan(
            &g2,
            &syms,
            2,
            512,
            10,
            None,
            PipelineKind::ReduceShuffle,
            KernelPlan::unfused(),
        )
        .unwrap();
        assert_eq!(fused_stream.bytes, unfused_stream.bytes);
        assert_eq!(fused_report.plan, KernelPlan::fused());
        assert_eq!(unfused_report.plan, KernelPlan::unfused());
        // Fusion removes the gridwise-reduce and blockwise-len launches.
        assert_eq!(g2.launches() - g1.launches(), 2);
    }

    #[test]
    fn explicit_reduction_respected() {
        let gpu = Gpu::new(DeviceSpec::test_part());
        let syms = data(10_000);
        let (stream, _, report) =
            run(&gpu, &syms, 2, 512, 10, Some(2), PipelineKind::ReduceShuffle).unwrap();
        assert_eq!(report.reduction, 2);
        assert_eq!(stream.config.reduction, 2);
    }
}
