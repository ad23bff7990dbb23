//! The reduce-shuffle encoder on the simulated device.
//!
//! Kernel structure starts from Table I's "Huffman enc." block:
//!
//! * `enc_reduce_merge` — coarse+fine: each thread merges `2^r` codewords
//!   (codebook cached in shared memory), writing one merged unit per
//!   thread, coalesced;
//! * `enc_shuffle_merge` — `s` grid-synced iterations of batched word
//!   moves in global memory (warp divergence factor 2, Section IV-C-d);
//! * `enc_blockwise_len` — per-chunk code lengths + device-wide prefix sum;
//! * `enc_coalescing_copy` — the dense gather of chunk substreams;
//! * `enc_breaking_backtrace` — the reduction that locates breaking units
//!   plus the dense-to-sparse conversion (~300 us on the V100, Section V-B2).
//!
//! Under the default [`KernelPlan::fused`] the decomposition is tighter
//! (DESIGN.md § "Kernel fusion"): the `enc_blockwise_len` prefix sum runs
//! as a decoupled-lookback epilogue *inside* `enc_shuffle_merge`
//! ([`gpu_sim::prefix::single_pass_scan`] — no launch, no grid syncs), and
//! `enc_breaking_backtrace` emits its sparse sidecar via warp-aggregated
//! compaction (ballot + block-local scan + one coalesced segment write)
//! instead of per-unit random scatter. Either way the returned stream is
//! bit-identical — the plan only changes the modeled launch/traffic shape.
//! Every kernel's traffic comes from one ledger, `launches`, which the
//! autotuner prices too.
//!
//! `symbol_bytes` is the dataset's native symbol width (1 for the
//! byte-oriented corpora, 2 for quantization codes and k-mers) — it sets
//! the input-read traffic and is the basis for the GB/s figures the tables
//! report.

use super::reduce_shuffle::{assemble, encode_chunks};
use super::{BreakingStrategy, ChunkedStream, MergeConfig};
use crate::codebook::CanonicalCodebook;
use crate::error::Result;
use crate::plan::KernelPlan;
use gpu_sim::{prefix, Access, DeviceSpec, Gpu, GridDim, Launch, Traffic};

/// Hardware grid-dimension ceiling shared by the encode kernels (same
/// clamp the decode side applies via its `DecodeLaunch` helper).
const MAX_BLOCKS: u64 = 1 << 20;

/// Shared launch-geometry helper for the chunk-parallel encode kernels.
///
/// Centralizes the grid clamp so a stream with more than 2^20 chunks loops
/// blocks over chunks instead of silently truncating the block count (the
/// old hand-built `GridDim::new((n_chunks as u32).min(1 << 20), 256)`
/// narrowed to u32 *before* clamping).
#[derive(Debug, Clone, Copy)]
struct EncodeLaunch {
    /// Chunks the stream actually holds (at least 1).
    n_chunks: u64,
    /// Grid blocks after the clamp.
    blocks: u64,
}

impl EncodeLaunch {
    fn new(n_chunks: u64) -> Self {
        let n_chunks = n_chunks.max(1);
        EncodeLaunch { n_chunks, blocks: n_chunks.min(MAX_BLOCKS) }
    }

    fn grid(&self) -> GridDim {
        GridDim::new(self.blocks as u32, 256)
    }

    /// Scalar-op overhead of the block loop: iterations beyond the first
    /// pay loop bookkeeping (index math, bounds check, chunk re-base).
    fn loop_ops(&self) -> u64 {
        8 * (self.n_chunks - self.blocks)
    }
}

/// Modeled per-kernel encode times, in seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GpuEncodeTimes {
    /// REDUCE-merge kernel (includes the codebook-lookup first merge).
    pub reduce: f64,
    /// SHUFFLE-merge kernel.
    pub shuffle: f64,
    /// Blockwise code length + prefix sum.
    pub blockwise_len: f64,
    /// Coalescing copy into the dense stream.
    pub coalesce: f64,
    /// Breaking-point backtrace + dense-to-sparse.
    pub breaking: f64,
    /// Sum of the above.
    pub total: f64,
}

/// The counters the encode kernels charge for: measured from the encoded
/// chunks by [`encode_on_gpu_with_plan`], estimated from a workload
/// signature by the autotuner ([`crate::tune`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct EncodeCounters {
    /// Input symbols.
    pub symbols: u64,
    /// Native symbol width, bytes.
    pub symbol_bytes: u64,
    /// Chunks the input splits into.
    pub chunks: u64,
    /// Merge units, `ceil(symbols / 2^r)`.
    pub units: u64,
    /// Codebook bytes a resident block stages in shared memory.
    pub book_bytes: u64,
    /// 4-byte words the shuffle moved, over all chunks.
    pub words_moved: u64,
    /// Shuffle iterations of the deepest chunk.
    pub shuffle_iters: u64,
    /// Dense payload bytes.
    pub payload_bytes: u64,
    /// Breaking units sent to the sparse sidecar.
    pub breaking_units: u64,
    /// Raw symbols of those units.
    pub breaking_symbols: u64,
}

/// The encode kernels `plan` launches for `c` on `spec`, in launch order.
pub(crate) fn launches(spec: &DeviceSpec, c: &EncodeCounters, plan: KernelPlan) -> Vec<Launch> {
    let launch = EncodeLaunch::new(c.chunks);
    let grid = launch.grid();

    // Kernel 1: REDUCE-merge. Each resident block stages the codebook in
    // shared memory once; with many more chunks than resident blocks the
    // reloads hit L2, so the DRAM cost is bounded by the resident-block
    // count.
    let book_loads = launch.n_chunks.min(u64::from(spec.sm_count) * 4);
    let mut reduce = Traffic::new();
    reduce.read(Access::Coalesced, c.symbols, c.symbol_bytes); // input symbols
    reduce.read(Access::Coalesced, book_loads * c.book_bytes, 1); // codebook staging
    reduce.shared(c.symbols * 8); // per-symbol shared-memory codebook lookups
    reduce.write(Access::Coalesced, c.units, 4); // merged unit words
    reduce.write(Access::Coalesced, c.units, 1); // per-unit bit lengths (u8)
    reduce.ops(4 * c.symbols + launch.loop_ops());

    // Kernel 2: SHUFFLE-merge. Group bit-length bookkeeping: each window
    // reads its two group lengths and writes the merged one; the total
    // window count across all iterations is one per unit.
    let mut shuffle = Traffic::new();
    shuffle.read(Access::Coalesced, c.words_moved, 4);
    shuffle.write(Access::Coalesced, c.words_moved, 4);
    shuffle.read(Access::Coalesced, 2 * c.units, 4);
    shuffle.write(Access::Coalesced, c.units, 4);
    shuffle.ops(6 * c.words_moved + launch.loop_ops());
    shuffle.diverge(2.0); // Section IV-C-d: shuffle diverges at a factor of 2
    for _ in 0..c.shuffle_iters {
        shuffle.grid_sync();
    }
    let mut out = vec![Launch { name: "enc_reduce_merge", grid, traffic: reduce }];
    if plan.fused_len {
        // Epilogue: blocks already hold their chunks' final bit lengths in
        // shared memory, so the device-wide offsets resolve in a
        // decoupled-lookback single pass — no extra launch, no barrier.
        shuffle.absorb(&prefix::single_pass_scan_ledger(c.chunks));
        out.push(Launch { name: "enc_shuffle_merge", grid, traffic: shuffle });
    } else {
        // Kernel 3: blockwise code lengths + prefix sum, its own launch.
        out.push(Launch { name: "enc_shuffle_merge", grid, traffic: shuffle });
        out.push(Launch {
            name: "enc_blockwise_len",
            grid: GridDim::cover(c.chunks as usize, 256),
            traffic: prefix::exclusive_scan_ledger(c.chunks),
        });
    }

    // Kernel 4: coalescing copy.
    out.push(Launch {
        name: "enc_coalescing_copy",
        grid,
        traffic: copy_ledger(c.payload_bytes, c.chunks),
    });

    // Kernel 5: breaking backtrace + dense-to-sparse.
    let mut breaking = Traffic::new();
    breaking.read(Access::Coalesced, c.units, 1); // one-time read of unit lens (u8)
    breaking.read(Access::Coalesced, c.breaking_symbols, 2); // raw symbols re-read
    if plan.compacted_backtrace {
        // Warp-aggregated compaction: a ballot finds each warp's breaking
        // units, a block-local scan packs them, one atomic per contributing
        // block reserves a segment of the sidecar, and the segment lands as
        // a single coalesced write. The device-wide scan (and its barrier)
        // disappears.
        let seg_blocks = c.units.div_ceil(256).min(c.breaking_units);
        breaking.shared(c.units * 4); // ballot + block-local scan workspace
        breaking.global_atomic(seg_blocks, seg_blocks / 64);
        breaking.write(Access::Coalesced, c.breaking_units, 8); // sparse indices
        breaking.write(Access::Coalesced, c.breaking_symbols, 2); // raw symbols
        breaking.ops(c.units + 4 * c.breaking_units);
    } else {
        breaking.write(Access::Random, c.breaking_units, 8); // sparse indices
        breaking.write(Access::Random, c.breaking_symbols, 2); // raw symbols
        breaking.ops(c.units);
        breaking.grid_sync();
    }
    out.push(Launch {
        name: "enc_breaking_backtrace",
        grid: GridDim::cover(c.units as usize, 256),
        traffic: breaking,
    });
    out
}

/// The coalescing copy of `bytes` dense bytes gathered from `chunks`
/// substreams.
pub(crate) fn copy_ledger(bytes: u64, chunks: u64) -> Traffic {
    let mut t = Traffic::new();
    t.read(Access::Coalesced, bytes, 1);
    t.write(Access::Coalesced, bytes, 1);
    t.ops(bytes.div_ceil(4) + EncodeLaunch::new(chunks).loop_ops());
    t
}

/// Encode on the device under the default (fused) plan. See
/// [`encode_on_gpu_with_plan`].
pub fn encode_on_gpu(
    gpu: &Gpu,
    symbols: &[u16],
    symbol_bytes: u64,
    book: &CanonicalCodebook,
    config: MergeConfig,
    strategy: BreakingStrategy,
) -> Result<(ChunkedStream, GpuEncodeTimes)> {
    encode_on_gpu_with_plan(
        gpu,
        symbols,
        symbol_bytes,
        book,
        config,
        strategy,
        KernelPlan::default(),
    )
}

/// Encode on the device, charging modeled time to `gpu`'s clock. Returns
/// the stream (bit-identical to the host encoder's, for every plan) and
/// the per-kernel breakdown.
pub fn encode_on_gpu_with_plan(
    gpu: &Gpu,
    symbols: &[u16],
    symbol_bytes: u64,
    book: &CanonicalCodebook,
    config: MergeConfig,
    strategy: BreakingStrategy,
    plan: KernelPlan,
) -> Result<(ChunkedStream, GpuEncodeTimes)> {
    let chunks = encode_chunks(symbols, book, config, strategy);
    let counters = EncodeCounters {
        symbols: symbols.len() as u64,
        symbol_bytes,
        chunks: chunks.len() as u64,
        units: (symbols.len() as u64).div_ceil(config.unit_symbols() as u64),
        book_bytes: book.coded_symbols() as u64 * 8,
        words_moved: chunks.iter().map(|c| c.shuffle.words_moved).sum(),
        shuffle_iters: chunks.iter().map(|c| u64::from(c.shuffle.iterations)).max().unwrap_or(0),
        payload_bytes: chunks.iter().map(|c| c.bit_len).sum::<u64>().div_ceil(8),
        breaking_units: chunks.iter().map(|c| c.breaking.len() as u64).sum(),
        breaking_symbols: chunks
            .iter()
            .flat_map(|c| &c.breaking)
            .map(|(_, s)| s.len() as u64)
            .sum(),
    };
    let mut times = GpuEncodeTimes::default();
    for launch in launches(gpu.spec(), &counters, plan) {
        let secs = gpu.charge(&launch).total;
        *match launch.name {
            "enc_reduce_merge" => &mut times.reduce,
            "enc_shuffle_merge" => &mut times.shuffle,
            "enc_blockwise_len" => &mut times.blockwise_len,
            "enc_coalescing_copy" => &mut times.coalesce,
            _ => &mut times.breaking,
        } = secs;
        times.total += secs;
    }
    Ok((assemble(symbols.len(), &chunks, config)?, times))
}

/// The cuSZ coarse baseline on the device: thread-per-chunk serial appends.
/// With a hundred thousand threads striding chunk-sized apart, neither the
/// reads nor the fragmented per-codeword appends coalesce — every access is
/// its own DRAM transaction, which is what pins cuSZ's encoder near
/// 10-30 GB/s (Section III-B; e.g. enwik9's 954 MB at one read + one write
/// sector per symbol is ~60 GB of traffic → ~11 GB/s on the V100, the
/// paper's measured figure).
pub fn coarse_encode_on_gpu(
    gpu: &Gpu,
    symbols: &[u16],
    symbol_bytes: u64,
    book: &CanonicalCodebook,
    config: MergeConfig,
) -> Result<(ChunkedStream, f64)> {
    let n = symbols.len() as u64;
    let n_chunks = symbols.len().div_ceil(config.chunk_symbols()).max(1) as u64;
    let launch = EncodeLaunch::new(n_chunks);
    let (stream, cost) = gpu.launch_timed("coarse_encode", launch.grid(), |scope| {
        let stream = super::coarse::encode(symbols, book, config);
        let t = scope.traffic();
        t.read(Access::Strided, n, symbol_bytes); // chunk-strided, cache-hostile
        t.write(Access::Strided, n, 4); // fragmented per-codeword appends
        t.ops(8 * n + launch.loop_ops());
        t.diverge(2.0); // variable-length appends diverge heavily
        stream
    });
    Ok((stream?, cost.total))
}

/// The Rahmani prefix-sum baseline on the device (Section III-B: the
/// 37 GB/s method).
pub fn prefix_sum_encode_on_gpu(
    gpu: &Gpu,
    symbols: &[u16],
    symbol_bytes: u64,
    book: &CanonicalCodebook,
) -> Result<(super::EncodedStream, f64)> {
    let n = symbols.len() as u64;
    let grid = GridDim::cover(symbols.len(), 256);
    let (out, cost) = gpu.launch_timed("prefix_sum_encode", grid, |scope| {
        let out = super::prefix_sum::encode(symbols, book);
        if let Ok((_, stats)) = &out {
            let t = scope.traffic();
            // Lengths pass.
            t.read(Access::Coalesced, n, symbol_bytes);
            t.shared(n * 8);
            t.write(Access::Coalesced, n, 4);
            // Scan over n lengths (3n element moves).
            t.read(Access::Coalesced, 3 * n, 4);
            t.write(Access::Coalesced, n, 8);
            // Concurrent scatter: every codeword write is a read-modify-
            // write of 1-2 words at a data-dependent bit offset. Atomics to
            // *distinct* addresses run at sector throughput (charged below);
            // true same-address collisions are only the word-boundary
            // overlaps between neighbouring codewords, a small fraction.
            t.global_atomic(stats.scatter_writes, stats.scatter_writes / 1024);
            t.read(Access::Random, stats.scatter_writes, 4);
            t.ops(8 * n);
            t.grid_sync();
            t.grid_sync();
        }
        out
    });
    let (stream, _) = out?;
    Ok((stream, cost.total))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codebook;
    use crate::decode;
    use gpu_sim::DeviceSpec;

    /// Nyx-Quant-like: 1024 symbols, avg ~1.03 bits.
    fn nyx_like(n: usize) -> (CanonicalCodebook, Vec<u16>) {
        let mut freqs = vec![1u64; 1024];
        freqs[512] = (n as u64 * 200).max(1024); // dominant quantization bin
        freqs[511] = (n as u64).max(512) / 8;
        freqs[513] = (n as u64).max(512) / 8;
        let book = codebook::parallel(&freqs, 8).unwrap();
        let syms: Vec<u16> = (0..n)
            .map(|i| {
                let x = (i as u64).wrapping_mul(6364136223846793005) >> 33;
                match x % 100 {
                    0..=89 => 512u16,
                    90..=94 => 511,
                    95..=98 => 513,
                    _ => (x % 1024) as u16,
                }
            })
            .collect();
        (book, syms)
    }

    #[test]
    fn gpu_encode_matches_host_encode() {
        let (book, syms) = nyx_like(50_000);
        let gpu = Gpu::new(DeviceSpec::test_part());
        let cfg = MergeConfig::new(10, 3);
        let (stream, times) =
            encode_on_gpu(&gpu, &syms, 2, &book, cfg, BreakingStrategy::SparseSidecar).unwrap();
        let host = super::super::reduce_shuffle::encode(
            &syms,
            &book,
            cfg,
            BreakingStrategy::SparseSidecar,
        )
        .unwrap();
        assert_eq!(stream.bytes, host.bytes);
        assert_eq!(stream.total_bits, host.total_bits);
        assert!(times.total > 0.0);
        assert_eq!(decode::chunked::decode(&stream, &book).unwrap(), syms);
    }

    #[test]
    fn fused_default_charges_four_kernels() {
        // The fused-len plan folds enc_blockwise_len into the shuffle merge.
        let (book, syms) = nyx_like(10_000);
        let gpu = Gpu::new(DeviceSpec::test_part());
        let _ = encode_on_gpu(
            &gpu,
            &syms,
            2,
            &book,
            MergeConfig::new(8, 2),
            BreakingStrategy::SparseSidecar,
        )
        .unwrap();
        assert_eq!(gpu.clock().launches(), 4);
        assert_eq!(gpu.elapsed_matching("enc_blockwise_len"), 0.0);
    }

    #[test]
    fn unfused_plan_charges_five_kernels() {
        let (book, syms) = nyx_like(10_000);
        let gpu = Gpu::new(DeviceSpec::test_part());
        let _ = encode_on_gpu_with_plan(
            &gpu,
            &syms,
            2,
            &book,
            MergeConfig::new(8, 2),
            BreakingStrategy::SparseSidecar,
            KernelPlan::unfused(),
        )
        .unwrap();
        assert_eq!(gpu.clock().launches(), 5);
        assert!(gpu.elapsed_matching("enc_blockwise_len") > 0.0);
    }

    #[test]
    fn fused_and_unfused_streams_bit_identical() {
        let (book, syms) = nyx_like(40_000);
        let cfg = MergeConfig::new(9, 2);
        for strategy in [BreakingStrategy::SparseSidecar, BreakingStrategy::WidenWord] {
            let g1 = Gpu::new(DeviceSpec::test_part());
            let g2 = Gpu::new(DeviceSpec::test_part());
            let (fused, _) =
                encode_on_gpu_with_plan(&g1, &syms, 2, &book, cfg, strategy, KernelPlan::fused())
                    .unwrap();
            let (unfused, _) =
                encode_on_gpu_with_plan(&g2, &syms, 2, &book, cfg, strategy, KernelPlan::unfused())
                    .unwrap();
            assert_eq!(fused.bytes, unfused.bytes);
            assert_eq!(fused.total_bits, unfused.total_bits);
        }
    }

    #[test]
    fn fused_encode_is_not_slower() {
        let (book, syms) = nyx_like(4_000_000);
        let cfg = MergeConfig::new(10, 3);
        let g1 = Gpu::v100();
        let (_, fused) = encode_on_gpu_with_plan(
            &g1,
            &syms,
            2,
            &book,
            cfg,
            BreakingStrategy::SparseSidecar,
            KernelPlan::fused(),
        )
        .unwrap();
        let g2 = Gpu::v100();
        let (_, unfused) = encode_on_gpu_with_plan(
            &g2,
            &syms,
            2,
            &book,
            cfg,
            BreakingStrategy::SparseSidecar,
            KernelPlan::unfused(),
        )
        .unwrap();
        assert!(fused.total < unfused.total, "fused {} >= unfused {}", fused.total, unfused.total);
    }

    #[test]
    fn encode_launch_clamps_grid_and_loops_blocks() {
        let small = EncodeLaunch::new(1000);
        assert_eq!(small.blocks, 1000);
        assert_eq!(small.loop_ops(), 0);
        let big = EncodeLaunch::new(MAX_BLOCKS + 37);
        assert_eq!(big.blocks, MAX_BLOCKS);
        assert_eq!(big.grid().blocks, MAX_BLOCKS as u32);
        assert_eq!(big.loop_ops(), 8 * 37);
    }

    /// The in-repo tests run at megabyte scale where kernel-launch latency
    /// still matters; the full Table II/V comparison at the paper's
    /// 256 MB - 1.4 GB scale is produced by the release-mode bench harness.
    #[test]
    fn reduce_shuffle_beats_coarse_on_v100() {
        let (book, syms) = nyx_like(16_000_000);
        let cfg = MergeConfig::new(10, 3);
        let g1 = Gpu::v100();
        let (_, ours) =
            encode_on_gpu(&g1, &syms, 2, &book, cfg, BreakingStrategy::SparseSidecar).unwrap();
        let g2 = Gpu::v100();
        let (_, coarse_time) = coarse_encode_on_gpu(&g2, &syms, 2, &book, cfg).unwrap();
        let speedup = coarse_time / ours.total;
        assert!(
            speedup > 1.5,
            "speedup only {speedup:.2}x (ours {} vs coarse {})",
            ours.total,
            coarse_time
        );
    }

    #[test]
    fn reduce_shuffle_beats_prefix_sum_on_low_entropy() {
        let (book, syms) = nyx_like(4_000_000);
        let g1 = Gpu::v100();
        let (_, ours) = encode_on_gpu(
            &g1,
            &syms,
            2,
            &book,
            MergeConfig::new(10, 3),
            BreakingStrategy::SparseSidecar,
        )
        .unwrap();
        let g2 = Gpu::v100();
        let (ps_stream, ps_time) = prefix_sum_encode_on_gpu(&g2, &syms, 2, &book).unwrap();
        assert!(ps_time > ours.total, "prefix-sum {ps_time} should lose to ours {}", ours.total);
        // Prefix-sum output is still correct.
        let dec = decode::canonical::decode(&ps_stream.bytes, ps_stream.bit_len, syms.len(), &book)
            .unwrap();
        assert_eq!(dec, syms);
    }

    #[test]
    fn v100_encode_throughput_band() {
        // Table V reports 314.6 GB/s for Nyx-Quant on the V100 at 256 MB;
        // at this test's 32 MB the launch latency still bites, so accept a
        // wide band and let the bench harness check the full-scale number.
        let (book, syms) = nyx_like(16_000_000);
        let gpu = Gpu::v100();
        let (_, t) = encode_on_gpu(
            &gpu,
            &syms,
            2,
            &book,
            MergeConfig::new(10, 3),
            BreakingStrategy::SparseSidecar,
        )
        .unwrap();
        let gbps = gpu_sim::gbps((syms.len() * 2) as f64 / t.total);
        assert!(gbps > 50.0 && gbps < 900.0, "modeled {gbps:.1} GB/s");
    }

    #[test]
    fn throughput_improves_with_scale() {
        // Launch overhead amortizes: 16 MB should beat 2 MB in GB/s.
        let (book, syms) = nyx_like(8_000_000);
        let cfg = MergeConfig::new(10, 3);
        let g_small = Gpu::v100();
        let (_, t_small) = encode_on_gpu(
            &g_small,
            &syms[..1_000_000],
            2,
            &book,
            cfg,
            BreakingStrategy::SparseSidecar,
        )
        .unwrap();
        let g_big = Gpu::v100();
        let (_, t_big) =
            encode_on_gpu(&g_big, &syms, 2, &book, cfg, BreakingStrategy::SparseSidecar).unwrap();
        let small_gbps = 1_000_000.0 * 2.0 / t_small.total;
        let big_gbps = 8_000_000.0 * 2.0 / t_big.total;
        assert!(big_gbps > small_gbps, "{big_gbps} <= {small_gbps}");
    }

    #[test]
    fn empty_input_ok() {
        let (book, _) = nyx_like(16);
        let gpu = Gpu::new(DeviceSpec::test_part());
        let (stream, _) = encode_on_gpu(
            &gpu,
            &[],
            2,
            &book,
            MergeConfig::default(),
            BreakingStrategy::SparseSidecar,
        )
        .unwrap();
        assert_eq!(stream.total_bits, 0);
    }
}
