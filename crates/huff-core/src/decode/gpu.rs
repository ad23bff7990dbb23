//! Chunked canonical decoding on the simulated device.
//!
//! The paper's encoder chunks data partly "because it will facilitate the
//! reverse process, decoding" (Section III-A), and canonizes the codebook
//! so decoding needs no tree — just the `First`/`Entry` arrays and the
//! reverse codebook, small enough to cache on-chip (Section IV-B2). Three
//! kernel families realize that, one per [`DecoderKind`]:
//!
//! * `dec_serial` — the whole stream on one thread (the cuSZ-era
//!   baseline); a latency chain the model charges per dependent probe.
//! * `dec_chunked_*` — one block per chunk, decode tables staged in
//!   shared memory, each block walking its substream bit-serially.
//! * `dec_subchunk_sync` + `dec_lut_gap*` — the second-generation decoder
//!   (Rivera et al. 2022, see [`super::lut`]): a sync kernel walks
//!   codeword lengths to find each subsequence's first boundary (gap
//!   array), then the decode kernel probes a shared-memory LUT once per
//!   symbol instead of once per bit.
//!
//! Bit-serial decoding is compute-bound per symbol (a dependent chain of
//! bit reads and boundary compares), so its modeled time scales with
//! *total payload bits*; the LUT decoder's scales with *symbols*, which is
//! where the modeled crossover comes from (DESIGN.md § "Sync-pass cost
//! model"): above ~3 payload bits per symbol the LUT pipeline wins, below
//! that both kernels sit on the DRAM roofline and the sync pass is pure
//! overhead.

use super::chunked;
use super::lut::{self, DecodeLut, GapStats, SubchunkConfig};
use super::multi::MultiLut;
use super::DecoderKind;
use crate::codebook::CanonicalCodebook;
use crate::encode::ChunkedStream;
use crate::error::Result;
use crate::integrity::{DecompressOptions, RangeDecode, RecoveryMode, RecoveryReport};
use gpu_sim::{Access, DeviceSpec, Gpu, GridDim, Launch, Traffic};

/// Hard grid-size cap: chunks beyond this many blocks are handled by a
/// block-level loop (grid-stride over chunks), which the traffic model
/// must charge for.
const MAX_BLOCKS: u64 = 1 << 20;

/// One decode launch's geometry: the clamped grid plus the block-loop
/// residency the clamp implies. Grid and traffic/cost attribution both
/// derive from this helper so they can never disagree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DecodeLaunch {
    /// Chunks the stream actually holds (at least 1).
    n_chunks: u64,
    /// Grid blocks after the clamp.
    blocks: u64,
    /// Chunks each block loops over (1 until the clamp engages).
    chunks_per_block: u64,
}

impl DecodeLaunch {
    fn grid(&self) -> GridDim {
        GridDim::new(self.blocks as u32, 256)
    }

    /// Scalar-op overhead of the block loop: iterations beyond the first
    /// pay loop bookkeeping (index math, bounds check, table re-base).
    fn loop_ops(&self) -> u64 {
        8 * (self.n_chunks - self.blocks)
    }
}

fn decode_launch(chunks: u64) -> DecodeLaunch {
    let n_chunks = chunks.max(1);
    let blocks = n_chunks.min(MAX_BLOCKS);
    DecodeLaunch { n_chunks, blocks, chunks_per_block: n_chunks.div_ceil(blocks) }
}

/// The stream counters the decode kernels charge for: read off a parsed
/// stream by a launch, estimated from a workload signature by the
/// autotuner ([`crate::tune`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct StreamShape {
    /// Decoded symbols.
    pub symbols: u64,
    /// Payload bits.
    pub total_bits: u64,
    /// Chunks in the stream.
    pub chunks: u64,
}

impl StreamShape {
    /// The counters of `stream`.
    fn of(stream: &ChunkedStream) -> Self {
        StreamShape {
            symbols: stream.num_symbols as u64,
            total_bits: stream.total_bits,
            chunks: stream.num_chunks() as u64,
        }
    }
}

/// The bit-serial chunked decode kernel's ledger (strict and best-effort
/// variants launch the same kernel shape). `table_bytes` is the decode
/// table each resident block stages.
pub(crate) fn chunked_ledger(spec: &DeviceSpec, s: &StreamShape, table_bytes: u64) -> Traffic {
    let launch = decode_launch(s.chunks);
    let resident = launch.blocks.min(u64::from(spec.sm_count) * 4);
    let mut t = Traffic::new();
    // Each chunk streams its payload once; substreams are contiguous so
    // reads coalesce across the block's threads.
    t.read(Access::Coalesced, s.total_bits.div_ceil(8), 1);
    // Chunk offsets + bit lengths.
    t.read(Access::Coalesced, 2 * launch.n_chunks, 8);
    // Decode tables staged per resident block, reused from L2 after.
    t.read(Access::Coalesced, resident * table_bytes, 1);
    // Per-symbol on-chip table probes (~avg-code-length lookups each).
    let avg_probes = s.total_bits.checked_div(s.symbols).map_or(1, |p| p.clamp(1, 64));
    t.shared(s.symbols * avg_probes * 4);
    // Symbol output, coalesced.
    t.write(Access::Coalesced, s.symbols, 2);
    // Bit-serial decode: ~6 ops per consumed bit (3 to extract the bit
    // and accumulate the code value, 3 for the First/Count boundary
    // compares), divergent across the warp (symbols end at different bit
    // positions).
    t.ops(6 * s.total_bits + launch.loop_ops());
    t.diverge(2.0);
    t
}

/// The bytes of a codebook's decode tables (reverse codebook, `First`
/// and `Entry`).
fn decode_table_bytes(book: &CanonicalCodebook) -> u64 {
    (book.reverse().len() * 2 + book.first().len() * 8 + book.entry().len() * 4) as u64
}

/// The serial baseline's ledger: one thread owns the whole stream, so
/// every table probe is a dependent access in a single latency chain —
/// the Section II-C argument for why serial algorithms collapse on GPUs.
fn serial_ledger(s: &StreamShape, table_bytes: u64) -> Traffic {
    let mut t = Traffic::new();
    t.read(Access::Coalesced, s.total_bits.div_ceil(8), 1);
    t.read(Access::Coalesced, table_bytes, 1);
    // One dependent probe chain per symbol.
    t.sequential(s.symbols);
    t.ops(6 * s.total_bits);
    t.write(Access::Coalesced, s.symbols, 2);
    t
}

/// The LUT decoder's two ledgers, in launch order, for a `lut_bytes`
/// table. The sync kernel runs one walker per subsequence, each starting
/// at its own bit offset (divergent strided reads), stepping codeword
/// lengths through shared-memory LUT probes until its gap settles. The
/// decode kernel is all coalesced: payload and gap array stream in, one
/// shared-memory LUT probe per *symbol* (not per bit), symbols stream
/// out.
pub(crate) fn lut_ledgers(
    spec: &DeviceSpec,
    s: &StreamShape,
    stats: &GapStats,
    cfg: SubchunkConfig,
    lut_bytes: u64,
) -> [Traffic; 2] {
    let launch = decode_launch(s.chunks);
    let resident = launch.blocks.min(u64::from(spec.sm_count) * 4);
    // A subsequence window spans this many 32-byte sectors.
    let sectors_per_sub = cfg.width_bits.max(1).div_ceil(256);
    let mut sync = Traffic::new();
    // Chunk offsets + bit lengths locate the subsequences.
    sync.read(Access::Coalesced, 2 * launch.n_chunks, 8);
    // Each walker lands mid-payload at its own offset: one transaction
    // per subsequence sector, not coalescible across the warp.
    sync.read(Access::Strided, stats.subsequences * sectors_per_sub, 32);
    // The LUT staged into shared memory per resident block.
    sync.read(Access::Coalesced, resident * lut_bytes, 1);
    // One shared LUT probe per codeword-length step.
    sync.shared(stats.sync_steps * 4);
    // The gap array, written once per subsequence.
    sync.write(Access::Coalesced, stats.subsequences, 8);
    // ~5 ops per step: window extract, probe, length accumulate, boundary
    // compare, loop. Per-pass barrier bookkeeping per block; stragglers
    // in the convergence loop diverge.
    sync.ops(5 * stats.sync_steps + 8 * stats.max_sync_passes * launch.blocks + launch.loop_ops());
    sync.diverge(2.0);

    let mut dec = Traffic::new();
    dec.read(Access::Coalesced, s.total_bits.div_ceil(8), 1);
    dec.read(Access::Coalesced, 2 * launch.n_chunks, 8);
    // The gap array computed by the sync kernel, read back coalesced.
    dec.read(Access::Coalesced, stats.subsequences * 8, 1);
    dec.read(Access::Coalesced, resident * lut_bytes, 1);
    // One shared LUT probe per decoded symbol — the whole point.
    dec.shared(stats.decoded_symbols * 4);
    dec.write(Access::Coalesced, s.symbols, 2);
    // ~8 ops per symbol: window refill/shift, probe, unpack, advance.
    // Mild divergence from subsequence tails and slow-path fall-backs.
    dec.ops(8 * stats.decoded_symbols + launch.loop_ops());
    dec.diverge(1.2);
    [sync, dec]
}

/// Charge the kernels `kind` launches to decode `stream` and return
/// their summed modeled seconds. Both recovery modes launch the same
/// kernel shapes under their own names and bill the same traffic — a
/// damaged chunk still costs its payload read (the checksum pass touched
/// it) and its sentinel writes, and damage is rare enough that modeling
/// the skipped table probes would be noise.
///
/// The LUT kernels are priced from gap-array counters: the count walk's
/// when `walk` is set (a strict decode that succeeded), the analytic
/// estimate otherwise (best-effort, where damaged chunks skip decoding
/// but the model keeps the undamaged-shape cost, and failed decodes).
fn launch(
    gpu: &Gpu,
    stream: &ChunkedStream,
    book: &CanonicalCodebook,
    kind: DecoderKind,
    best_effort: bool,
    walk: bool,
) -> f64 {
    let shape = StreamShape::of(stream);
    let grid = decode_launch(shape.chunks).grid();
    let charge = |name, grid, traffic| gpu.charge(&Launch { name, grid, traffic }).total;
    match kind {
        DecoderKind::Serial => {
            let name = if best_effort { "dec_serial_best_effort" } else { "dec_serial" };
            charge(name, GridDim::new(1, 1), serial_ledger(&shape, decode_table_bytes(book)))
        }
        DecoderKind::Chunked => {
            let name =
                if best_effort { "dec_chunked_best_effort" } else { "dec_chunked_canonical" };
            charge(name, grid, chunked_ledger(gpu.spec(), &shape, decode_table_bytes(book)))
        }
        DecoderKind::Lut => {
            // A `dec_subchunk_sync` launch (self-synchronization pass)
            // followed by the decode + compaction kernel.
            let table = DecodeLut::build(book, lut::DEFAULT_LUT_BITS);
            let cfg = SubchunkConfig::default();
            let walked =
                walk.then(|| lut::gap_stats(stream, &MultiLut::new(book, table.bits()), cfg));
            let stats =
                walked.and_then(Result::ok).unwrap_or_else(|| GapStats::estimate(stream, cfg));
            let [sync, dec] = lut_ledgers(gpu.spec(), &shape, &stats, cfg, table.table_bytes());
            let name = if best_effort { "dec_lut_gap_best_effort" } else { "dec_lut_gap" };
            charge("dec_subchunk_sync", grid, sync) + charge(name, grid, dec)
        }
    }
}

/// Strict decode on the device with the backend selected by `kind`.
/// Returns the symbols and the modeled kernel time in seconds. The host
/// bytes come from [`chunked::decode`] whatever the kind.
pub fn decode_kind_on_gpu(
    gpu: &Gpu,
    stream: &ChunkedStream,
    book: &CanonicalCodebook,
    kind: DecoderKind,
) -> Result<(Vec<u16>, f64)> {
    let out = chunked::decode(stream, book);
    let secs = launch(gpu, stream, book, kind, false, out.is_ok());
    Ok((out?, secs))
}

/// Best-effort decode of a (possibly damaged) stream on the device with
/// the backend selected by `kind`: chunks flagged in `chunk_damage` are
/// sentinel-filled instead of decoded. Returns the symbols, the recovery
/// report, and the modeled kernel time in seconds.
pub fn decode_kind_best_effort_on_gpu(
    gpu: &Gpu,
    stream: &ChunkedStream,
    book: &CanonicalCodebook,
    chunk_damage: &[bool],
    sentinel: u16,
    kind: DecoderKind,
) -> (Vec<u16>, RecoveryReport, f64) {
    let (symbols, report) = chunked::decode_best_effort(stream, book, chunk_damage, sentinel);
    (symbols, report, launch(gpu, stream, book, kind, true, false))
}

/// Locate and decode only the chunks covering `range` on the modeled
/// device.
///
/// A `dec_seek_probe` launch first charges the u64-word probes spent
/// locating the covering chunks — seek-index rank/select lookups when the
/// archive carries a valid [`crate::seek::ChunkIndex`] trailer, a
/// chunk-table prefix scan otherwise — to the traffic ledger's
/// index-probe term. The selected backend then decodes the rebased
/// window stream, so the kernel trace *proves* the decode touched only
/// the window: its payload traffic scales with the window's bits, not
/// the archive's. Returns the range decode plus the summed modeled
/// kernel seconds.
pub fn decode_range_on_gpu(
    gpu: &Gpu,
    archive_bytes: &[u8],
    range: std::ops::Range<u64>,
    opts: &DecompressOptions,
    kind: DecoderKind,
) -> Result<(RangeDecode, f64)> {
    let w = crate::archive::range_window(archive_bytes, range, opts)?;
    let (_, probe_cost) = gpu.launch_timed("dec_seek_probe", GridDim::new(1, 32), |scope| {
        let t = scope.traffic();
        t.index_probe(w.index_probes);
        // ~4 ops per probe: sample/word index math, popcount rank, the
        // select bit walk, and the low-bits splice.
        t.ops(4 * w.index_probes);
    });
    let (r, decode_secs) = if w.stream.num_symbols == 0 && w.stream.num_chunks() == 0 {
        // Empty window (empty range or empty archive): nothing to launch.
        (w.finish(&[], RecoveryReport::clean(0)), 0.0)
    } else {
        match opts.mode {
            RecoveryMode::Strict => {
                let (symbols, secs) = decode_kind_on_gpu(gpu, &w.stream, &w.book, kind)?;
                let report = RecoveryReport::clean(w.chunk_hi - w.chunk_lo);
                (w.finish(&symbols, report), secs)
            }
            RecoveryMode::BestEffort => {
                let (symbols, report, secs) = decode_kind_best_effort_on_gpu(
                    gpu,
                    &w.stream,
                    &w.book,
                    &w.damage,
                    opts.sentinel,
                    kind,
                );
                (w.finish(&symbols, report), secs)
            }
        }
    };
    Ok((r, probe_cost.total + decode_secs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codebook;
    use crate::encode::{reduce_shuffle, BreakingStrategy, MergeConfig};
    use crate::sparse::SparseOutliers;
    use gpu_sim::DeviceSpec;

    fn setup(n: usize) -> (CanonicalCodebook, Vec<u16>, ChunkedStream) {
        let freqs: Vec<u64> = vec![500, 250, 125, 63, 31, 16, 8, 7];
        let book = codebook::parallel(&freqs, 4).unwrap();
        let syms: Vec<u16> =
            (0..n).map(|i| ((i as u64).wrapping_mul(2654435761) >> 9) as u16 % 8).collect();
        let stream = reduce_shuffle::encode(
            &syms,
            &book,
            MergeConfig::new(10, 3),
            BreakingStrategy::SparseSidecar,
        )
        .unwrap();
        (book, syms, stream)
    }

    /// A high-entropy setup (uniform 256-symbol alphabet, 8 payload bits
    /// per symbol) — the compute-bound regime where the LUT decoder's
    /// per-symbol work beats the bit-serial kernel's per-bit work. `r = 2`
    /// keeps the 32-bit merge units from breaking (4 × 8 bits).
    fn setup_high_entropy(n: usize) -> (CanonicalCodebook, Vec<u16>, ChunkedStream) {
        let freqs: Vec<u64> = vec![1000; 256];
        let book = codebook::parallel(&freqs, 8).unwrap();
        let syms: Vec<u16> = (0..n)
            .map(|i| ((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 17) as u16 % 256)
            .collect();
        let stream = reduce_shuffle::encode(
            &syms,
            &book,
            MergeConfig::new(10, 2),
            BreakingStrategy::SparseSidecar,
        )
        .unwrap();
        (book, syms, stream)
    }

    #[test]
    fn gpu_decode_matches_input() {
        let (book, syms, stream) = setup(30_000);
        let gpu = Gpu::new(DeviceSpec::test_part());
        let (out, secs) = decode_kind_on_gpu(&gpu, &stream, &book, DecoderKind::Chunked).unwrap();
        assert_eq!(out, syms);
        assert!(secs > 0.0);
        assert_eq!(gpu.clock().launches(), 1);
    }

    #[test]
    fn empty_stream_decodes_empty() {
        let (book, _, _) = setup(16);
        let empty = reduce_shuffle::encode(
            &[],
            &book,
            MergeConfig::default(),
            BreakingStrategy::SparseSidecar,
        )
        .unwrap();
        let gpu = Gpu::new(DeviceSpec::test_part());
        let (out, _) = decode_kind_on_gpu(&gpu, &empty, &book, DecoderKind::Chunked).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn best_effort_gpu_decode_sentinels_damaged_chunks() {
        let (book, syms, stream) = setup(30_000);
        let gpu = Gpu::new(DeviceSpec::test_part());
        let mut damage = vec![false; stream.num_chunks()];
        damage[0] = true;
        let (out, report, secs) = decode_kind_best_effort_on_gpu(
            &gpu,
            &stream,
            &book,
            &damage,
            0xFFFF,
            DecoderKind::Chunked,
        );
        assert_eq!(out.len(), syms.len());
        assert!(!report.is_clean());
        assert_eq!(report.damaged_chunks, vec![0]);
        assert!(secs > 0.0);
        assert_eq!(gpu.clock().launches(), 1);
        // Undamaged tail decodes exactly.
        let first_clean = report.damaged_ranges.iter().map(|&(_, e)| e).max().unwrap();
        assert_eq!(&out[first_clean..], &syms[first_clean..]);
    }

    #[test]
    fn v100_decode_throughput_band() {
        let (book, _, stream) = setup(4_000_000);
        let gpu = Gpu::v100();
        let (_, secs) = decode_kind_on_gpu(&gpu, &stream, &book, DecoderKind::Chunked).unwrap();
        let gbps = gpu_sim::gbps(stream.num_symbols as f64 * 2.0 / secs);
        // Decoding is compute/latency-bound: below encode throughput but
        // far above a serial CPU decode.
        assert!(gbps > 5.0 && gbps < 900.0, "modeled {gbps:.1} GB/s");
    }

    #[test]
    fn lut_gpu_decode_matches_input_in_two_launches() {
        let (book, syms, stream) = setup(30_000);
        let gpu = Gpu::new(DeviceSpec::test_part());
        let (out, secs) = decode_kind_on_gpu(&gpu, &stream, &book, DecoderKind::Lut).unwrap();
        assert_eq!(out, syms);
        assert!(secs > 0.0);
        let clock = gpu.clock();
        assert_eq!(clock.launches(), 2);
        let names: Vec<&str> = clock.records().iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["dec_subchunk_sync", "dec_lut_gap"]);
    }

    #[test]
    fn lut_best_effort_matches_chunked_best_effort() {
        let (book, _, stream) = setup(30_000);
        let gpu = Gpu::new(DeviceSpec::test_part());
        let mut damage = vec![false; stream.num_chunks()];
        damage[1] = true;
        let (lut_out, lut_report, secs) =
            decode_kind_best_effort_on_gpu(&gpu, &stream, &book, &damage, 0xFFFF, DecoderKind::Lut);
        let (chk_out, chk_report, _) = decode_kind_best_effort_on_gpu(
            &gpu,
            &stream,
            &book,
            &damage,
            0xFFFF,
            DecoderKind::Chunked,
        );
        assert_eq!(lut_out, chk_out);
        assert_eq!(lut_report, chk_report);
        assert!(secs > 0.0);
    }

    #[test]
    fn serial_gpu_decode_is_latency_bound_baseline() {
        let (book, syms, stream) = setup(200_000);
        let gpu = Gpu::v100();
        let (out, serial_secs) =
            decode_kind_on_gpu(&gpu, &stream, &book, DecoderKind::Serial).unwrap();
        assert_eq!(out, syms);
        let (_, chunked_secs) =
            decode_kind_on_gpu(&gpu, &stream, &book, DecoderKind::Chunked).unwrap();
        // One thread pays full memory latency per symbol: orders of
        // magnitude slower than the parallel kernel.
        assert!(
            serial_secs > 50.0 * chunked_secs,
            "serial {serial_secs:.6}s vs chunked {chunked_secs:.6}s"
        );
    }

    #[test]
    fn lut_beats_bit_serial_in_compute_bound_regime() {
        // ~8 payload bits/symbol on a V100: the bit-serial kernel's
        // 6-ops-per-bit chain dominates, while the LUT pipeline pays one
        // probe per symbol plus the sync pass. This is the modeled
        // crossover the decoder sweep (BENCH_decode.json) commits.
        let (book, _, stream) = setup_high_entropy(4_000_000);
        let gpu = Gpu::v100();
        let (_, chunked_secs) =
            decode_kind_on_gpu(&gpu, &stream, &book, DecoderKind::Chunked).unwrap();
        let (_, lut_secs) = decode_kind_on_gpu(&gpu, &stream, &book, DecoderKind::Lut).unwrap();
        assert!(
            lut_secs < chunked_secs,
            "lut {lut_secs:.6}s not faster than chunked {chunked_secs:.6}s"
        );
    }

    #[test]
    fn decode_kind_dispatch_is_bit_exact() {
        let (book, syms, stream) = setup(50_000);
        let gpu = Gpu::new(DeviceSpec::test_part());
        for kind in [DecoderKind::Serial, DecoderKind::Chunked, DecoderKind::Lut] {
            let (out, secs) = decode_kind_on_gpu(&gpu, &stream, &book, kind).unwrap();
            assert_eq!(out, syms, "{}", kind.name());
            assert!(secs > 0.0);
        }
    }

    #[test]
    fn gpu_range_decode_touches_only_covering_chunks() {
        let syms: Vec<u16> = (0..200_000)
            .map(|i| ((i as u64).wrapping_mul(0x9E3779B97F4A7C15) >> 40) as u16 % 256)
            .collect();
        let packed =
            crate::archive::compress(&syms, &crate::archive::CompressOptions::new(256)).unwrap();
        let (full_stream, _, _) = crate::archive::deserialize(&packed).unwrap();
        let full_payload = full_stream.total_bits.div_ceil(8);

        let gpu = Gpu::new(DeviceSpec::test_part());
        let opts = DecompressOptions::default();
        let (r, secs) =
            decode_range_on_gpu(&gpu, &packed, 100_000..100_200, &opts, DecoderKind::Chunked)
                .unwrap();
        let full: Vec<u8> = syms.iter().flat_map(|&s| s.to_le_bytes()).collect();
        assert_eq!(r.bytes, &full[100_000..100_200]);
        assert!(r.index_used);
        assert!(r.chunks_touched < r.total_chunks / 10);
        assert!(secs > 0.0);

        // The kernel trace is the proof: a probe launch charged to the
        // index-probe term, then a decode whose payload read is a tiny
        // fraction of the archive's payload.
        let clock = gpu.clock();
        let names: Vec<&str> = clock.records().iter().map(|rec| rec.name.as_str()).collect();
        assert_eq!(names[0], "dec_seek_probe");
        let probe = &clock.records()[0];
        assert_eq!(probe.traffic.index_probe_ops, r.index_probes);
        assert!(probe.traffic.index_probe_ops > 0);
        let dec = &clock.records()[1];
        assert!(
            dec.traffic.read_coalesced < full_payload / 10,
            "window decode read {} of {} payload bytes",
            dec.traffic.read_coalesced,
            full_payload
        );
    }

    #[test]
    fn gpu_range_decode_is_bit_exact_per_backend() {
        let syms: Vec<u16> = (0..60_000).map(|i| (i % 251) as u16).collect();
        let packed =
            crate::archive::compress(&syms, &crate::archive::CompressOptions::new(256)).unwrap();
        let full: Vec<u8> = syms.iter().flat_map(|&s| s.to_le_bytes()).collect();
        for kind in [DecoderKind::Serial, DecoderKind::Chunked, DecoderKind::Lut] {
            let gpu = Gpu::new(DeviceSpec::test_part());
            let opts = DecompressOptions::default();
            let (r, _) = decode_range_on_gpu(&gpu, &packed, 33_333..44_444, &opts, kind).unwrap();
            assert_eq!(r.bytes, &full[33_333..44_444], "{}", kind.name());
        }
    }

    #[test]
    fn decode_launch_clamps_and_loops() {
        let mk = |n_chunks: usize| ChunkedStream {
            config: MergeConfig::new(2, 1),
            chunk_bit_lens: vec![0; n_chunks],
            chunk_bit_offsets: vec![0; n_chunks],
            total_bits: 0,
            bytes: Vec::new(),
            num_symbols: 0,
            outliers: SparseOutliers::new(),
        };
        let small = decode_launch(mk(1000).num_chunks() as u64);
        assert_eq!((small.blocks, small.chunks_per_block), (1000, 1));
        assert_eq!(small.loop_ops(), 0);
        let big = decode_launch(mk((1 << 20) + 37).num_chunks() as u64);
        assert_eq!(big.blocks, 1 << 20);
        assert_eq!(big.chunks_per_block, 2);
        assert_eq!(big.loop_ops(), 8 * 37);
    }

    #[test]
    fn grid_and_traffic_consistent_beyond_grid_clamp() {
        // Regression: the grid used to clamp at 2^20 blocks while the
        // traffic model charged all chunks with no block-loop term. Both
        // now derive from decode_launch: the grid stays clamped AND the
        // ledger carries the full chunk-table traffic plus the loop
        // overhead the clamp implies.
        let n_chunks = (1usize << 20) + 37;
        let stream = ChunkedStream {
            config: MergeConfig::new(2, 1),
            chunk_bit_lens: vec![0; n_chunks],
            chunk_bit_offsets: vec![0; n_chunks],
            total_bits: 0,
            bytes: Vec::new(),
            num_symbols: 0,
            outliers: SparseOutliers::new(),
        };
        let book = codebook::parallel(&[3, 1], 2).unwrap();
        let gpu = Gpu::new(DeviceSpec::test_part());
        let (out, _) = decode_kind_on_gpu(&gpu, &stream, &book, DecoderKind::Chunked).unwrap();
        assert!(out.is_empty());
        let clock = gpu.clock();
        let rec = &clock.records()[0];
        assert_eq!(rec.blocks, 1 << 20);
        // Chunk table modeled for every chunk, not just the grid's blocks.
        assert!(rec.traffic.read_coalesced >= 2 * n_chunks as u64 * 8);
        // The block loop over the 37 overflow chunks is charged.
        assert!(rec.traffic.thread_ops >= 8 * 37);
    }
}
