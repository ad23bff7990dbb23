//! Sharded, multi-stream, multi-device batch compression.
//!
//! Large inputs are split into fixed-size shards; each shard runs the full
//! histogram → codebook → encode chain as an independent pipeline. Shards
//! fan out round-robin across simulated devices, and within a device
//! across CUDA-style streams ([`gpu_sim::StreamSchedule`]), so shard
//! `i+1`'s histogram overlaps shard `i`'s encode — the classic
//! double-buffered shape. The host-side work is real (rayon runs the
//! shard pipelines in parallel); the device timelines are then computed
//! deterministically by the stream scheduler under its bandwidth-contention
//! model, independent of host thread interleaving.
//!
//! The result is a multi-shard frame ([`crate::frame`]): every shard a
//! self-contained RSH2 archive with its own CRCs, so per-shard best-effort
//! recovery composes, plus a [`BatchReport`] carrying the per-device
//! timelines and per-shard contended stage times.
//!
//! ```
//! use huff_core::batch::{compress_batched, BatchOptions};
//! use huff_core::archive;
//!
//! let data: Vec<u16> = (0..100_000).map(|i| (i % 200) as u16).collect();
//! let mut opts = BatchOptions::new(256);
//! opts.shard_symbols = 32_768;
//! opts.streams = 2;
//! let (frame, report) = compress_batched(&data, &opts).unwrap();
//! assert_eq!(archive::decompress(&frame).unwrap(), data);
//! assert!(report.speedup() >= 1.0);
//! ```

use crate::archive;
use crate::container::{self, Kind};
use crate::decode::DecoderKind;
use crate::error::{HuffError, Result};
use crate::frame;
use crate::integrity::{DecompressOptions, RangeDecode};
use crate::pipeline::{self, PipelineKind, PipelineReport, StageTimes};
use crate::plan::KernelPlan;
use gpu_sim::{DeviceSpec, Gpu, KernelRecord, StreamSchedule, Timeline};
use rayon::prelude::*;

/// Options for [`compress_batched`].
#[derive(Debug, Clone)]
pub struct BatchOptions {
    /// Symbols per shard (the last shard may hold fewer).
    pub shard_symbols: usize,
    /// Streams (command queues) per device.
    pub streams: usize,
    /// One simulated device per entry; shards round-robin across them.
    pub devices: Vec<DeviceSpec>,
    /// Staging buffers per device: at most this many shards in flight at
    /// once, enforced with events (shard `k` waits for shard
    /// `k - buffers`). `0` means one buffer per stream — the stream FIFO
    /// itself is the only constraint.
    pub buffers: usize,
    /// Histogram size (codebook span).
    pub num_symbols: usize,
    /// Chunk magnitude `M`.
    pub magnitude: u32,
    /// Reduction factor; `None` applies the Fig. 3 rule per shard.
    pub reduction: Option<u32>,
    /// Which encode pipeline to run per shard.
    pub kind: PipelineKind,
    /// Native symbol width recorded in the frame header.
    pub symbol_bytes: u8,
    /// Kernel-fusion plan each shard's pipeline runs under (the frame
    /// bytes are identical for every plan).
    pub plan: KernelPlan,
    /// Owning request's trace id: stamped onto every kernel record the
    /// batch produces (shard pipelines and replayed timelines alike), so
    /// the serving layer's span trees attribute device work per request.
    /// Empty (the default) leaves records untraced.
    pub trace: String,
}

impl BatchOptions {
    /// Defaults for 2-byte symbols over `num_symbols` bins: 4 Mi-symbol
    /// shards, two streams on one V100.
    pub fn new(num_symbols: usize) -> Self {
        BatchOptions {
            shard_symbols: 1 << 22,
            streams: 2,
            devices: vec![DeviceSpec::v100()],
            buffers: 0,
            num_symbols,
            magnitude: 10,
            reduction: None,
            kind: PipelineKind::ReduceShuffle,
            symbol_bytes: 2,
            plan: KernelPlan::default(),
            trace: String::new(),
        }
    }
}

/// A simulated device failure injected into a batched run: device
/// `device` dies at modeled time `at` seconds. See
/// [`compress_batched_with_faults`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceFault {
    /// Index into [`BatchOptions::devices`].
    pub device: usize,
    /// Modeled failure instant in seconds from batch start.
    pub at: f64,
}

/// What quarantine and rescheduling did after simulated device failures.
///
/// Shards whose kernels had not all completed when their device died are
/// *quarantined* and replayed on the surviving devices in a recovery
/// wave; the wave starts once the failure is detected (the latest
/// injected failure instant) and each survivor has drained its own
/// first-wave queue. The output frame is bit-identical to the healthy
/// run — faults cost modeled time, never correctness.
#[derive(Debug, Clone, Default)]
pub struct QuarantineReport {
    /// Devices that failed, ascending.
    pub failed_devices: Vec<usize>,
    /// Shard indices that lost their device mid-flight, ascending.
    pub quarantined: Vec<usize>,
    /// `(shard, surviving device)` for every quarantined shard, in shard
    /// order.
    pub rescheduled: Vec<(usize, usize)>,
    /// Makespan of the recovery wave alone (seconds).
    pub recovery_seconds: f64,
}

impl QuarantineReport {
    /// True when no device failed (the report is all-empty).
    pub fn is_clean(&self) -> bool {
        self.failed_devices.is_empty()
    }
}

/// One shard's outcome within the batch.
#[derive(Debug, Clone)]
pub struct ShardRun {
    /// Shard index (symbol range `index × shard_symbols ..`).
    pub index: usize,
    /// Device the shard ran on.
    pub device: usize,
    /// Stream (on that device) the shard's kernels were enqueued to.
    pub stream: u32,
    /// Symbols in this shard.
    pub symbols: usize,
    /// Contended per-stage times on the scheduled timeline (these sum to
    /// the shard's share of its stream's busy time).
    pub stages: StageTimes,
    /// The shard's standalone pipeline report (uncontended times, ratio,
    /// spans relative to the shard's own clock).
    pub report: PipelineReport,
}

/// One device's scheduled timeline.
#[derive(Debug, Clone)]
pub struct DeviceTimeline {
    /// Index into [`BatchOptions::devices`].
    pub device: usize,
    /// Device marketing name.
    pub name: &'static str,
    /// The contended multi-stream timeline.
    pub timeline: Timeline,
}

/// Everything observable about one batched run.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Per-shard outcomes, in shard order.
    pub shards: Vec<ShardRun>,
    /// Per-device scheduled timelines.
    pub devices: Vec<DeviceTimeline>,
    /// Input size in bytes (native symbol width).
    pub input_bytes: u64,
    /// Modeled end-to-end time: the slowest device's makespan.
    pub makespan: f64,
    /// What the same kernels would take back-to-back on one stream of one
    /// device (sum of uncontended costs) — the serial-pipeline baseline.
    pub serial_seconds: f64,
}

impl BatchReport {
    /// Overlap + multi-device speedup vs. the serial baseline.
    pub fn speedup(&self) -> f64 {
        if self.makespan <= 0.0 {
            return 1.0;
        }
        self.serial_seconds / self.makespan
    }

    /// End-to-end modeled throughput in bytes/second.
    pub fn throughput(&self) -> f64 {
        gpu_sim::throughput(self.input_bytes, self.makespan)
    }
}

/// Compress `symbols` as a multi-shard frame, overlapping shard pipelines
/// across streams and devices. Returns the frame bytes plus the batch
/// report. The frame decodes with [`crate::archive::decompress`] (and
/// degrades per shard under best-effort recovery, see [`crate::frame`]).
pub fn compress_batched(symbols: &[u16], opts: &BatchOptions) -> Result<(Vec<u8>, BatchReport)> {
    let (frame, report, _) = run_batch(symbols, opts, &[])?;
    Ok((frame, report))
}

/// [`compress_batched`] with injected device failures: shards in flight
/// on a failed device are quarantined and rescheduled onto the surviving
/// devices ([`QuarantineReport`]). Errors when the faults leave no
/// surviving device to reschedule onto. The frame bytes are bit-identical
/// to the healthy run; only the modeled timelines change.
pub fn compress_batched_with_faults(
    symbols: &[u16],
    opts: &BatchOptions,
    faults: &[DeviceFault],
) -> Result<(Vec<u8>, BatchReport, QuarantineReport)> {
    run_batch(symbols, opts, faults)
}

/// Modeled timing of one batched range decode ([`decompress_range_batched`]).
#[derive(Debug, Clone)]
pub struct RangeBatchReport {
    /// Shards whose chunks overlapped the byte range (untouched shards
    /// cost a header peek, never a decode or a kernel launch).
    pub shards_touched: usize,
    /// Per-device scheduled timelines of the touched shards' range-decode
    /// kernels (seek probe + window decode per shard).
    pub devices: Vec<DeviceTimeline>,
    /// Modeled end-to-end time: the slowest device's makespan.
    pub makespan: f64,
    /// The same kernels back-to-back on one stream — the no-overlap
    /// baseline.
    pub serial_seconds: f64,
}

/// Decode only the bytes of `range` from a frame (or bare archive) with
/// the simulated-GPU range decoder, fanning touched shards out across the
/// batch's devices and streams exactly as [`compress_batched`] fans out
/// shard pipelines.
///
/// Only the shards overlapping the byte range launch kernels; within each
/// shard only the chunks covering its slice of the range are decoded (the
/// seek-index window, see [`crate::seek`]). The byte output and recovery
/// report are identical to the host path [`archive::decode_range`] —
/// devices and streams change modeled time, never bytes.
///
/// Of `batch`, only `devices`, `streams` and `symbol_bytes` matter here;
/// the compression-side fields (shard size, pipeline kind, plan) are
/// ignored because the frame header already fixes the geometry.
pub fn decompress_range_batched(
    bytes: &[u8],
    range: std::ops::Range<u64>,
    opts: &DecompressOptions,
    kind: DecoderKind,
    batch: &BatchOptions,
) -> Result<(RangeDecode, RangeBatchReport)> {
    if batch.streams == 0 || batch.devices.is_empty() {
        return Err(HuffError::BadArchive("batch needs streams and a device".into()));
    }
    let n_devices = batch.devices.len();

    // Decode each touched shard on its round-robin device, capturing the
    // kernel records for deterministic stream replay afterwards. The
    // frame layer supplies the shard-window arithmetic and report merge;
    // a bare archive is one implicit shard on device 0.
    let mut shard_records: Vec<(usize, Vec<KernelRecord>)> = Vec::new();
    let mut next_slot = 0usize;
    let decoded = if container::sniff(bytes)? == Kind::Frame {
        frame::decode_range_with(bytes, range, opts, &mut |_, body, local| {
            let device = next_slot % n_devices;
            let gpu = Gpu::new(batch.devices[device].clone());
            gpu.set_trace(&batch.trace);
            let out = crate::decode::gpu::decode_range_on_gpu(&gpu, body, local, opts, kind);
            let records = gpu.clock().drain();
            if out.is_ok() {
                next_slot += 1;
                shard_records.push((device, records));
            }
            out.map(|(r, _)| r)
        })?
    } else {
        let gpu = Gpu::new(batch.devices[0].clone());
        gpu.set_trace(&batch.trace);
        let (r, _) = crate::decode::gpu::decode_range_on_gpu(&gpu, bytes, range, opts, kind)?;
        shard_records.push((0, gpu.clock().drain()));
        r
    };

    // Replay each device's shards onto its streams round-robin, same
    // discipline as run_batch's wave 1 (no buffer cap: a range decode
    // reads the archive in place, there is no staging buffer to recycle).
    let mut schedules: Vec<StreamSchedule> =
        batch.devices.iter().map(|d| StreamSchedule::new(d.clone(), batch.streams)).collect();
    let mut local_index = vec![0usize; n_devices];
    for (d, records) in &shard_records {
        let s = local_index[*d] % batch.streams;
        local_index[*d] += 1;
        schedules[*d].enqueue_all(s, records.iter().cloned());
    }
    let timelines: Vec<Timeline> = schedules.into_iter().map(StreamSchedule::run).collect();
    let serial_seconds: f64 =
        shard_records.iter().flat_map(|(_, r)| r.iter()).map(|r| r.cost.total).sum();
    let makespan = timelines.iter().map(|t| t.makespan).fold(0.0, f64::max);
    let devices = timelines
        .into_iter()
        .enumerate()
        .map(|(d, timeline)| DeviceTimeline { device: d, name: batch.devices[d].name, timeline })
        .collect();
    let report =
        RangeBatchReport { shards_touched: shard_records.len(), devices, makespan, serial_seconds };
    Ok((decoded, report))
}

fn run_batch(
    symbols: &[u16],
    opts: &BatchOptions,
    faults: &[DeviceFault],
) -> Result<(Vec<u8>, BatchReport, QuarantineReport)> {
    if symbols.is_empty() {
        return Err(HuffError::EmptyHistogram);
    }
    if opts.shard_symbols == 0 || opts.streams == 0 || opts.devices.is_empty() {
        return Err(HuffError::BadArchive("batch needs shards, streams and a device".into()));
    }
    if opts.kind == PipelineKind::PrefixSum {
        return Err(HuffError::BadArchive(
            "prefix-sum streams are not chunk-addressable; no archive form".into(),
        ));
    }

    let n_devices = opts.devices.len();
    let mut fail_time: Vec<Option<f64>> = vec![None; n_devices];
    for f in faults {
        if f.device >= n_devices {
            return Err(HuffError::BadArchive(format!(
                "device fault names device {} but the batch has {n_devices} device(s)",
                f.device
            )));
        }
        if !f.at.is_finite() || f.at < 0.0 {
            return Err(HuffError::BadArchive("device fault time must be finite and >= 0".into()));
        }
        let t = fail_time[f.device].get_or_insert(f.at);
        *t = t.min(f.at);
    }
    let shard_inputs: Vec<&[u16]> = symbols.chunks(opts.shard_symbols).collect();

    // Run every shard's pipeline with real host parallelism, each on a
    // fresh clock of its assigned device so records start at t=0.
    struct ShardOut {
        bytes: Vec<u8>,
        records: Vec<KernelRecord>,
        report: PipelineReport,
    }
    let outs: Vec<Result<ShardOut>> = shard_inputs
        .par_iter()
        .enumerate()
        .map(|(j, shard)| {
            let device = j % n_devices;
            let gpu = Gpu::new(opts.devices[device].clone());
            gpu.set_trace(&opts.trace);
            let (stream, book, report) = pipeline::run_with_plan(
                &gpu,
                shard,
                u64::from(opts.symbol_bytes),
                opts.num_symbols,
                opts.magnitude,
                opts.reduction,
                opts.kind,
                opts.plan,
            )?;
            let bytes = archive::serialize(&stream, &book, opts.symbol_bytes)?;
            Ok(ShardOut { bytes, records: gpu.clock().drain(), report })
        })
        .collect();
    let outs: Vec<ShardOut> = outs.into_iter().collect::<Result<Vec<_>>>()?;

    // Replay each device's shards onto its streams, deterministically.
    // Device-local shard k runs on stream k % streams; with a buffer cap,
    // shard k additionally waits for shard k - buffers to complete.
    // Injected faults kill a device's schedule mid-replay (wave 1).
    let mut schedules: Vec<StreamSchedule> = opts
        .devices
        .iter()
        .map(|d| {
            let mut s = StreamSchedule::new(d.clone(), opts.streams);
            s.set_trace(&opts.trace);
            s
        })
        .collect();
    for (d, t) in fail_time.iter().enumerate() {
        if let Some(t) = t {
            schedules[d].fail_at(*t);
        }
    }
    let mut done_events: Vec<Vec<gpu_sim::EventId>> = vec![Vec::new(); n_devices];
    let mut local_index = vec![0usize; n_devices];
    let mut placed = Vec::with_capacity(outs.len()); // final (device, stream) per shard
                                                     // Per (device, stream): shards in enqueue order with launch counts.
    let mut stream_order: Vec<Vec<Vec<(usize, usize)>>> =
        vec![vec![Vec::new(); opts.streams]; n_devices];
    for (j, out) in outs.iter().enumerate() {
        let d = j % n_devices;
        let k = local_index[d];
        local_index[d] += 1;
        let s = k % opts.streams;
        placed.push((d, s as u32));
        if opts.buffers > 0 && k >= opts.buffers {
            let ev = done_events[d][k - opts.buffers];
            schedules[d].wait_event(s, ev);
        }
        schedules[d].enqueue_all(s, out.records.iter().cloned());
        let ev = schedules[d].record_event(s);
        done_events[d].push(ev);
        stream_order[d][s].push((j, out.records.len()));
    }
    let wave1: Vec<Timeline> = schedules.into_iter().map(StreamSchedule::run).collect();

    // Quarantine: on a failed device, the completed records of each stream
    // are a prefix of its enqueue order, so a shard survived iff its whole
    // launch range fits inside that prefix.
    let failed_devices: Vec<usize> =
        (0..n_devices).filter(|&d| wave1[d].failed_at.is_some()).collect();
    let mut is_quarantined = vec![false; outs.len()];
    for &d in &failed_devices {
        for (s, order) in stream_order[d].iter().enumerate().take(opts.streams) {
            let completed = wave1[d].stream_records(s as u32).count();
            let mut cum = 0usize;
            for &(j, n) in order {
                cum += n;
                if cum > completed {
                    is_quarantined[j] = true;
                }
            }
        }
    }
    let quarantined: Vec<usize> = (0..outs.len()).filter(|&j| is_quarantined[j]).collect();

    // Recovery wave: replay quarantined shards round-robin across the
    // surviving devices, starting once the failure is detected (the
    // latest failure instant) and each survivor has drained its own
    // first-wave queue.
    let survivors: Vec<usize> = (0..n_devices).filter(|&d| wave1[d].failed_at.is_none()).collect();
    let mut rescheduled: Vec<(usize, usize)> = Vec::new();
    let mut wave2: Vec<Option<Timeline>> = vec![None; n_devices];
    let mut wave2_order: Vec<Vec<Vec<usize>>> = vec![vec![Vec::new(); opts.streams]; n_devices];
    if !quarantined.is_empty() {
        if survivors.is_empty() {
            return Err(HuffError::BadArchive(
                "device failure left no surviving device to reschedule quarantined shards onto"
                    .into(),
            ));
        }
        let mut scheds: Vec<StreamSchedule> = survivors
            .iter()
            .map(|&d| {
                let mut s = StreamSchedule::new(opts.devices[d].clone(), opts.streams);
                s.set_trace(&opts.trace);
                s
            })
            .collect();
        let mut local = vec![0usize; survivors.len()];
        for (i, &j) in quarantined.iter().enumerate() {
            let si = i % survivors.len();
            let d = survivors[si];
            let k = local[si];
            local[si] += 1;
            let s = k % opts.streams;
            scheds[si].enqueue_all(s, outs[j].records.iter().cloned());
            rescheduled.push((j, d));
            wave2_order[d][s].push(j);
            placed[j] = (d, s as u32);
        }
        for (si, sched) in scheds.into_iter().enumerate() {
            wave2[survivors[si]] = Some(sched.run());
        }
    }
    let detect = wave1.iter().filter_map(|t| t.failed_at).fold(0.0, f64::max);
    let recovery_seconds = wave2.iter().flatten().map(|t| t.makespan).fold(0.0, f64::max);

    // Merge each survivor's recovery records onto its first-wave timeline,
    // shifted to the wave-2 start; the serial baseline is computed from
    // the shard records directly (a baseline machine never fails, so
    // quarantined shards must not count twice).
    let serial_seconds: f64 =
        outs.iter().flat_map(|o| o.records.iter()).map(|r| r.cost.total).sum();
    let mut timelines: Vec<Timeline> = Vec::with_capacity(n_devices);
    for (d, tl1) in wave1.into_iter().enumerate() {
        match wave2[d].take() {
            None => timelines.push(tl1),
            Some(tl2) => {
                let offset = tl1.makespan.max(detect);
                let mut records = tl1.records;
                for mut r in tl2.records {
                    r.start += offset;
                    r.end += offset;
                    records.push(r);
                }
                for (i, r) in records.iter_mut().enumerate() {
                    r.seq = i;
                }
                timelines.push(Timeline {
                    records,
                    makespan: offset + tl2.makespan,
                    serial_seconds: tl1.serial_seconds + tl2.serial_seconds,
                    dropped: tl1.dropped,
                    failed_at: tl1.failed_at,
                });
            }
        }
    }

    // Attribute each stream's scheduled records back to shard stages:
    // per stream, records appear in enqueue order (wave 1's surviving
    // shards, then wave 2's rescheduled ones), so walking shards in that
    // order and consuming each shard's launch count recovers the
    // per-shard contended stage times. Partial records of a quarantined
    // shard stay on the failed device's timeline, attributed to no shard
    // — wasted device time, which is what a failure costs.
    let take_sum = |cursor: &mut std::vec::IntoIter<KernelRecord>, n: usize| -> f64 {
        cursor.take(n).map(|r| r.cost.total).sum()
    };
    let mut stages_of: Vec<StageTimes> = vec![StageTimes::default(); outs.len()];
    for (d, tl) in timelines.iter().enumerate() {
        for s in 0..opts.streams {
            let mut cursor = tl.stream_records(s as u32).cloned().collect::<Vec<_>>().into_iter();
            let order: Vec<usize> = stream_order[d][s]
                .iter()
                .map(|&(j, _)| j)
                .filter(|&j| !is_quarantined[j] && placed[j] == (d, s as u32))
                .chain(wave2_order[d][s].iter().copied())
                .collect();
            for j in order {
                let spans = outs[j].report.spans;
                stages_of[j] = StageTimes {
                    histogram: take_sum(&mut cursor, spans.after_histogram - spans.base),
                    codebook: take_sum(&mut cursor, spans.after_codebook - spans.after_histogram),
                    encode: take_sum(&mut cursor, spans.after_encode - spans.after_codebook),
                };
            }
        }
    }
    let shards: Vec<ShardRun> = outs
        .iter()
        .enumerate()
        .map(|(j, out)| ShardRun {
            index: j,
            device: placed[j].0,
            stream: placed[j].1,
            symbols: shard_inputs[j].len(),
            stages: stages_of[j],
            report: out.report.clone(),
        })
        .collect();

    let makespan = timelines.iter().map(|t| t.makespan).fold(0.0, f64::max);
    let devices = timelines
        .into_iter()
        .enumerate()
        .map(|(d, timeline)| DeviceTimeline { device: d, name: opts.devices[d].name, timeline })
        .collect();

    let shard_bytes: Vec<Vec<u8>> = outs.into_iter().map(|o| o.bytes).collect();
    let frame = frame::assemble(
        &shard_bytes,
        symbols.len() as u64,
        opts.shard_symbols as u64,
        opts.symbol_bytes,
    )?;
    let report = BatchReport {
        shards,
        devices,
        input_bytes: symbols.len() as u64 * u64::from(opts.symbol_bytes),
        makespan,
        serial_seconds,
    };
    let quarantine =
        QuarantineReport { failed_devices, quarantined, rescheduled, recovery_seconds };
    Ok((frame, report, quarantine))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::integrity::DecompressOptions;

    fn data(n: usize) -> Vec<u16> {
        (0..n)
            .map(|i| {
                let x = (i as u64).wrapping_mul(0x9E3779B97F4A7C15) >> 38;
                (x % 512) as u16
            })
            .collect()
    }

    fn small_opts() -> BatchOptions {
        let mut o = BatchOptions::new(512);
        o.shard_symbols = 20_000;
        o.devices = vec![DeviceSpec::test_part()];
        o
    }

    #[test]
    fn batched_frame_roundtrips() {
        let syms = data(65_000);
        let (frame, report) = compress_batched(&syms, &small_opts()).unwrap();
        assert_eq!(archive::decompress(&frame).unwrap(), syms);
        assert_eq!(report.shards.len(), 4);
        let rec = archive::decompress_with(&frame, &DecompressOptions::best_effort()).unwrap();
        assert_eq!(rec.symbols, syms);
        assert!(rec.report.is_clean());
    }

    #[test]
    fn batched_frame_roundtrips_under_every_decoder() {
        let syms = data(65_000);
        let (frame, _) = compress_batched(&syms, &small_opts()).unwrap();
        for decoder in [
            crate::decode::DecoderKind::Serial,
            crate::decode::DecoderKind::Chunked,
            crate::decode::DecoderKind::Lut,
        ] {
            let opts = DecompressOptions::default().with_decoder(decoder);
            let rec = archive::decompress_with(&frame, &opts).unwrap();
            assert_eq!(rec.symbols, syms, "{}", decoder.name());
            assert!(rec.report.is_clean());
        }
    }

    #[test]
    fn shards_interleave_across_streams() {
        let syms = data(80_000);
        let (_, report) = compress_batched(&syms, &small_opts()).unwrap();
        let streams: Vec<u32> = report.shards.iter().map(|s| s.stream).collect();
        assert_eq!(streams, vec![0, 1, 0, 1]);
        // Shard 1 starts before shard 0 ends: overlapped execution.
        let tl = &report.devices[0].timeline;
        let s0_end = tl.stream_records(0).next().map(|r| r.end).unwrap();
        let s1_start = tl.stream_records(1).next().map(|r| r.start).unwrap();
        assert!(s1_start < s0_end, "no overlap: {s1_start} >= {s0_end}");
    }

    #[test]
    fn two_streams_beat_serial() {
        let syms = data(100_000);
        let (_, report) = compress_batched(&syms, &small_opts()).unwrap();
        assert!(report.makespan < report.serial_seconds);
        assert!(report.speedup() > 1.0);
    }

    #[test]
    fn stage_attribution_sums_to_stream_busy_time() {
        let syms = data(90_000);
        let (_, report) = compress_batched(&syms, &small_opts()).unwrap();
        let tl = &report.devices[0].timeline;
        for s in 0..2u32 {
            let attributed: f64 =
                report.shards.iter().filter(|sh| sh.stream == s).map(|sh| sh.stages.total()).sum();
            assert!(
                (attributed - tl.stream_busy(s)).abs() < 1e-12,
                "stream {s}: {attributed} vs {}",
                tl.stream_busy(s)
            );
        }
    }

    #[test]
    fn multi_device_splits_work() {
        let syms = data(80_000);
        let mut opts = small_opts();
        opts.devices = vec![DeviceSpec::test_part(), DeviceSpec::test_part()];
        let (frame, report) = compress_batched(&syms, &opts).unwrap();
        assert_eq!(archive::decompress(&frame).unwrap(), syms);
        assert_eq!(report.devices.len(), 2);
        let d0: Vec<usize> =
            report.shards.iter().filter(|s| s.device == 0).map(|s| s.index).collect();
        let d1: Vec<usize> =
            report.shards.iter().filter(|s| s.device == 1).map(|s| s.index).collect();
        assert_eq!(d0, vec![0, 2]);
        assert_eq!(d1, vec![1, 3]);
        // Two devices roughly halve the makespan vs one.
        let (_, one) = compress_batched(&syms, &small_opts()).unwrap();
        assert!(report.makespan < one.makespan);
    }

    #[test]
    fn buffer_cap_serializes_when_one() {
        let syms = data(80_000);
        let mut opts = small_opts();
        opts.buffers = 1; // one staging buffer: no two shards in flight
        let (_, capped) = compress_batched(&syms, &opts).unwrap();
        // With a single buffer every shard waits for the previous one, so
        // no kernel overlaps and the makespan equals the serial time.
        assert!((capped.makespan - capped.serial_seconds).abs() < 1e-12);
        let tl = &capped.devices[0].timeline;
        assert!(tl.records.iter().all(|r| (r.contention - 1.0).abs() < 1e-12));
    }

    #[test]
    fn single_shard_input_still_frames() {
        let syms = data(10_000);
        let mut opts = small_opts();
        opts.shard_symbols = 1 << 20;
        let (frame, report) = compress_batched(&syms, &opts).unwrap();
        assert_eq!(report.shards.len(), 1);
        assert_eq!(container::sniff(&frame).unwrap(), Kind::Frame);
        assert_eq!(archive::decompress(&frame).unwrap(), syms);
    }

    #[test]
    fn trace_id_reaches_every_timeline_record() {
        let syms = data(65_000);
        let mut opts = small_opts();
        opts.trace = "req-batch".into();
        let (_, report) = compress_batched(&syms, &opts).unwrap();
        for d in &report.devices {
            for r in d.timeline.records.iter().chain(&d.timeline.dropped) {
                assert_eq!(r.trace, "req-batch", "kernel {} lost its trace id", r.name);
            }
        }
    }

    #[test]
    fn deterministic_output_bytes() {
        let syms = data(70_000);
        let (a, _) = compress_batched(&syms, &small_opts()).unwrap();
        let (b, _) = compress_batched(&syms, &small_opts()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn device_failure_quarantines_and_reschedules_bit_exactly() {
        let syms = data(80_000);
        let mut opts = small_opts();
        opts.devices = vec![DeviceSpec::test_part(), DeviceSpec::test_part()];
        let (healthy_frame, healthy) = compress_batched(&syms, &opts).unwrap();

        // Kill device 1 immediately: its shards (1 and 3) must move to
        // device 0 and the frame must not change by a single byte.
        let faults = [DeviceFault { device: 1, at: 0.0 }];
        let (frame, report, q) = compress_batched_with_faults(&syms, &opts, &faults).unwrap();
        assert_eq!(frame, healthy_frame);
        assert_eq!(archive::decompress(&frame).unwrap(), syms);
        assert_eq!(q.failed_devices, vec![1]);
        assert_eq!(q.quarantined, vec![1, 3]);
        assert!(q.rescheduled.iter().all(|&(_, d)| d == 0));
        assert!(q.recovery_seconds > 0.0);
        // Every shard now reports a surviving device.
        assert!(report.shards.iter().all(|s| s.device == 0));
        // Failure costs modeled time, never correctness.
        assert!(report.makespan > healthy.makespan);
        assert!((report.serial_seconds - healthy.serial_seconds).abs() < 1e-12);
        // The failed device's timeline records the abandoned kernels.
        let tl1 = &report.devices[1].timeline;
        assert_eq!(tl1.failed_at, Some(0.0));
        assert!(!tl1.dropped.is_empty());
    }

    #[test]
    fn mid_run_failure_keeps_completed_shards_in_place() {
        let syms = data(80_000);
        let mut opts = small_opts();
        opts.streams = 1; // device 1 runs shards 1 then 3 back-to-back
        opts.devices = vec![DeviceSpec::test_part(), DeviceSpec::test_part()];
        let (_, healthy) = compress_batched(&syms, &opts).unwrap();
        // Fail device 1 just after its first shard's pipeline completes:
        // shard 1 survives in place, shard 3 is quarantined.
        let spans = healthy.shards[1].report.spans;
        let launches = spans.after_encode - spans.base;
        let d1 = &healthy.devices[1].timeline;
        let first_shard_end = d1.stream_records(0).nth(launches - 1).unwrap().end;
        let faults = [DeviceFault { device: 1, at: first_shard_end + 1e-9 }];
        let (frame, report, q) = compress_batched_with_faults(&syms, &opts, &faults).unwrap();
        assert_eq!(archive::decompress(&frame).unwrap(), syms);
        assert_eq!(q.quarantined, vec![3]);
        assert_eq!(report.shards[1].device, 1, "completed shard stays put");
        assert_eq!(report.shards[3].device, 0, "lost shard moves to the survivor");
    }

    #[test]
    fn rescheduled_stage_attribution_stays_consistent() {
        let syms = data(80_000);
        let mut opts = small_opts();
        opts.devices = vec![DeviceSpec::test_part(), DeviceSpec::test_part()];
        let faults = [DeviceFault { device: 1, at: 0.0 }];
        let (_, report, _) = compress_batched_with_faults(&syms, &opts, &faults).unwrap();
        // Every shard's attributed stage time is positive and finite.
        for s in &report.shards {
            assert!(s.stages.total() > 0.0, "shard {} has no attributed time", s.index);
            assert!(s.stages.total().is_finite());
        }
        // Attribution on the surviving device covers its whole busy time
        // (wave 1 + recovery wave).
        let tl0 = &report.devices[0].timeline;
        let busy: f64 = (0..opts.streams as u32).map(|s| tl0.stream_busy(s)).sum();
        let attributed: f64 =
            report.shards.iter().filter(|s| s.device == 0).map(|s| s.stages.total()).sum();
        assert!((attributed - busy).abs() < 1e-12, "{attributed} vs {busy}");
    }

    #[test]
    fn faults_are_deterministic() {
        let syms = data(70_000);
        let mut opts = small_opts();
        opts.devices = vec![DeviceSpec::test_part(), DeviceSpec::test_part()];
        let faults = [DeviceFault { device: 0, at: 0.001 }];
        let (fa, ra, qa) = compress_batched_with_faults(&syms, &opts, &faults).unwrap();
        let (fb, rb, qb) = compress_batched_with_faults(&syms, &opts, &faults).unwrap();
        assert_eq!(fa, fb);
        assert_eq!(qa.quarantined, qb.quarantined);
        assert_eq!(ra.makespan, rb.makespan);
    }

    #[test]
    fn all_devices_failing_is_an_error() {
        let syms = data(50_000);
        let faults = [DeviceFault { device: 0, at: 0.0 }];
        let r = compress_batched_with_faults(&syms, &small_opts(), &faults);
        assert!(matches!(r, Err(HuffError::BadArchive(_))));
    }

    #[test]
    fn fault_on_unknown_device_is_an_error() {
        let syms = data(50_000);
        let faults = [DeviceFault { device: 7, at: 0.0 }];
        let r = compress_batched_with_faults(&syms, &small_opts(), &faults);
        assert!(matches!(r, Err(HuffError::BadArchive(_))));
    }

    #[test]
    fn empty_fault_list_matches_healthy_run() {
        let syms = data(65_000);
        let (frame, report) = compress_batched(&syms, &small_opts()).unwrap();
        let (f2, r2, q) = compress_batched_with_faults(&syms, &small_opts(), &[]).unwrap();
        assert_eq!(frame, f2);
        assert!(q.is_clean());
        assert_eq!(report.makespan, r2.makespan);
    }

    fn bytes_of(symbols: &[u16]) -> Vec<u8> {
        symbols.iter().flat_map(|s| s.to_le_bytes()).collect()
    }

    #[test]
    fn batched_range_decode_matches_full_slice() {
        let syms = data(80_000);
        let (frame, _) = compress_batched(&syms, &small_opts()).unwrap();
        let full = bytes_of(&syms);
        let (lo, hi) = (70_123, 90_456); // spans the shard-1/shard-2 seam
        let (r, report) = decompress_range_batched(
            &frame,
            lo..hi,
            &DecompressOptions::default(),
            DecoderKind::Chunked,
            &small_opts(),
        )
        .unwrap();
        assert_eq!(r.bytes, full[lo as usize..hi as usize]);
        assert!(r.index_used, "fresh frames carry a seek index in every shard");
        assert!(r.index_probes > 0);
        assert!(
            r.chunks_touched < r.total_chunks / 2,
            "{} of {} chunks for a quarter-frame slice",
            r.chunks_touched,
            r.total_chunks
        );
        assert_eq!(report.shards_touched, 2);
        assert!(report.makespan > 0.0 && report.makespan <= report.serial_seconds + 1e-15);
    }

    #[test]
    fn batched_range_decode_spreads_touched_shards_across_devices() {
        let syms = data(80_000);
        let mut opts = small_opts();
        opts.devices = vec![DeviceSpec::test_part(), DeviceSpec::test_part()];
        let (frame, _) = compress_batched(&syms, &opts).unwrap();
        // A range covering three shards round-robins them over two devices.
        let (r, report) = decompress_range_batched(
            &frame,
            41_000..150_000,
            &DecompressOptions::default(),
            DecoderKind::Lut,
            &opts,
        )
        .unwrap();
        assert_eq!(r.bytes, bytes_of(&syms)[41_000..150_000]);
        assert_eq!(report.shards_touched, 3);
        assert!(report.devices.iter().all(|d| !d.timeline.records.is_empty()));
        // Two devices overlap shard decodes: faster than one stream.
        assert!(report.makespan < report.serial_seconds);
    }

    #[test]
    fn batched_range_decode_rejects_degenerate_options() {
        let syms = data(30_000);
        let (frame, _) = compress_batched(&syms, &small_opts()).unwrap();
        let mut o = small_opts();
        o.devices.clear();
        let r = decompress_range_batched(
            &frame,
            0..100,
            &DecompressOptions::default(),
            DecoderKind::Serial,
            &o,
        );
        assert!(matches!(r, Err(HuffError::BadArchive(_))));
    }

    #[test]
    fn batched_range_decode_handles_bare_archives() {
        let syms = data(30_000);
        let packed =
            crate::archive::compress(&syms, &crate::archive::CompressOptions::new(512)).unwrap();
        let (r, report) = decompress_range_batched(
            &packed,
            5_000..6_000,
            &DecompressOptions::default(),
            DecoderKind::Chunked,
            &small_opts(),
        )
        .unwrap();
        assert_eq!(r.bytes, bytes_of(&syms)[5_000..6_000]);
        assert_eq!(report.shards_touched, 1);
        assert!(r.chunks_touched < r.total_chunks);
    }

    #[test]
    fn rejects_degenerate_options() {
        let syms = data(1000);
        assert!(compress_batched(&[], &small_opts()).is_err());
        let mut o = small_opts();
        o.streams = 0;
        assert!(compress_batched(&syms, &o).is_err());
        let mut o = small_opts();
        o.devices.clear();
        assert!(compress_batched(&syms, &o).is_err());
        let mut o = small_opts();
        o.kind = PipelineKind::PrefixSum;
        assert!(compress_batched(&syms, &o).is_err());
    }
}
