//! Fault-tolerant serving engine over the batched pipeline.
//!
//! [`Engine`] multiplexes concurrent compress/decompress requests onto
//! the multi-stream batch pipeline ([`crate::batch`]) under the same
//! record-then-replay discipline as the rest of the repo: every byte of
//! host work is real and bit-exact, while *time* — queue wait, service,
//! retry backoff — is modeled deterministically in virtual seconds.
//! Concurrency is therefore simulated, not threaded: requests are
//! submitted in arrival order and the engine replays what a fleet of
//! `workers` pipeline lanes fronted by one bounded admission queue would
//! have done, the same way [`gpu_sim::StreamSchedule`] replays a
//! multi-stream device.
//!
//! The fault-tolerance contract (chaos-tested in `tests/serve_chaos.rs`):
//!
//! - **Admission control.** A bounded queue of depth
//!   [`EngineConfig::queue_capacity`]; requests arriving past it are shed
//!   immediately with a structured [`Outcome::Shed`], never queued
//!   unboundedly. Queue wait is a first-class cost term (see
//!   DESIGN.md § "Serving engine: the queue-wait cost term"), reported
//!   per request and aggregated in the metrics registry.
//! - **Deadlines with cancellation.** A request whose queue wait alone
//!   exceeds its deadline is cancelled before consuming any worker time;
//!   one that finishes past its deadline is a deadline miss even though
//!   the work ran.
//! - **Retry with exponential backoff.** Injected transient faults fail
//!   an attempt; the engine retries after `backoff_base · 2^attempt`
//!   modeled seconds, up to [`EngineConfig::max_retries`].
//! - **Quarantine and rescheduling.** Simulated device loss during a
//!   compress request quarantines in-flight shards and replays them on
//!   the surviving devices ([`crate::batch::compress_batched_with_faults`]);
//!   the frame bytes stay bit-identical to a healthy run.
//! - **Graceful decoder degradation.** Decompress requests walk the
//!   ladder LUT → chunked → serial (strict, fully verified) and finally
//!   best-effort recovery; every rung is bit-exact, so degradation costs
//!   modeled time and — only in the best-effort rung — sentinel-filled
//!   ranges that are precisely reported, never silently wrong bytes.
//!
//! Every request carries a trace ID. Completions, counters and the
//! `rsh-trace-v1` export ([`ServeReport::to_json`]) reconcile exactly:
//! each request ends in exactly one outcome, and the registry counters
//! are derived from the same completion stream
//! ([`ServeReport::reconciles_with`]).
//!
//! **Request-scoped observability.** Beyond the aggregate counters, the
//! engine records a full distributed-tracing view of every request in
//! its [`SpanSink`]: a root `request` span covering arrival → finish,
//! `stage` children for queue wait, retry backoff and service, the
//! service's internal stages (model sweep, batch makespan, each decode
//! rung tried), and one `kernel` span per [`gpu_sim::KernelRecord`]
//! replayed on the request's behalf — each record itself stamped with
//! the request's trace id end to end (serve → [`crate::batch`] →
//! [`crate::pipeline`] → [`gpu_sim::StreamSchedule`]). Injected chaos
//! (device loss, decoder glitches, payload corruption), retries, sheds
//! and deadline misses land as [`crate::metrics::span::SpanEvent`]s on
//! the owning request's tree, so a chaos storm is attributable request
//! by request, not just countable. End-to-end latencies feed per-
//! (class, outcome) log2 histograms ([`LatencyBook`]) whose buckets
//! carry exemplar trace ids, and [`Engine::slo_report`] evaluates
//! declarative error-budget objectives ([`crate::slo`]) over the same
//! completion stream — all in virtual time, so every export
//! ([`Engine::span_jsonl`], [`crate::slo::SloReport::to_json`]) is
//! byte-deterministic for a fixed seed.

use std::collections::BTreeMap;

use crate::archive;
use crate::batch::{compress_batched_with_faults, BatchOptions, DeviceFault};
use crate::decode::DecoderKind;
use crate::error::{HuffError, Result};
use crate::integrity::{
    DecompressOptions, RangeDecode, Recovered, RecoveryMode, RecoveryReport, Verify,
};
use crate::metrics::latency::LatencyBook;
use crate::metrics::registry::Registry;
use crate::metrics::span::{SpanSink, TraceContext};
use crate::slo;
use crate::testing::Fault;
use crate::tune::{self, Dispatch, Tuner};
use gpu_sim::KernelRecord;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::json::{Map, Value};

/// Modeled decode throughput per backend, output bytes per second.
///
/// The serving engine needs a service-time estimate for decompress
/// requests; these constants follow the decoder-sweep narrative (LUT
/// fastest, bit-serial slowest) without re-deriving the full roofline —
/// queueing behavior, not decode micro-modeling, is what the engine
/// studies. Compress requests use the batch report's contended makespan
/// directly.
const DECODE_MODEL_BYTES_PER_SEC: [(DecoderKind, f64); 3] =
    [(DecoderKind::Lut, 55.0e9), (DecoderKind::Chunked, 18.0e9), (DecoderKind::Serial, 1.2e9)];

/// Fixed per-request overhead (parse, dispatch), modeled seconds.
const REQUEST_OVERHEAD_SECONDS: f64 = 20.0e-6;

/// Fraction of a rung's full service time charged when that rung fails
/// and the engine degrades to the next backend (the failed pass ran
/// partway before erroring).
const FAILED_RUNG_COST_FRACTION: f64 = 0.25;

/// Engine sizing and policy.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Concurrent pipeline lanes (modeled).
    pub workers: usize,
    /// Bounded admission queue: requests arriving while this many are
    /// already waiting are shed.
    pub queue_capacity: usize,
    /// Retry budget for injected transient faults.
    pub max_retries: u32,
    /// First retry waits this many modeled seconds; each further retry
    /// doubles it.
    pub backoff_base: f64,
    /// Batch pipeline template for compress requests.
    pub batch: BatchOptions,
    /// Strict decode ladder for decompress requests, tried in order.
    pub ladder: Vec<DecoderKind>,
    /// Sentinel symbol for best-effort recovery.
    pub sentinel: u16,
}

impl EngineConfig {
    /// Defaults: 2 workers, queue of 8, 3 retries from a 0.25 ms base,
    /// the [`BatchOptions::new`] pipeline over `num_symbols` bins, and
    /// the full LUT → chunked → serial ladder.
    pub fn new(num_symbols: usize) -> Self {
        EngineConfig {
            workers: 2,
            queue_capacity: 8,
            max_retries: 3,
            backoff_base: 0.25e-3,
            batch: BatchOptions::new(num_symbols),
            ladder: vec![DecoderKind::Lut, DecoderKind::Chunked, DecoderKind::Serial],
            sentinel: u16::MAX,
        }
    }
}

/// Chaos probabilities, drawn per admitted request from a seeded
/// generator — the same seed and request sequence always produce the
/// same faults.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Seed for the per-request fault draws.
    pub seed: u64,
    /// P(attempts fail transiently until retried).
    pub transient_prob: f64,
    /// P(the LUT rung fails with a gap-array glitch) — decompress only.
    pub glitch_prob: f64,
    /// P(the request payload is corrupted in flight) — decompress only.
    pub corruption_prob: f64,
    /// P(a device dies mid-batch) — compress only.
    pub device_loss_prob: f64,
}

impl ChaosConfig {
    /// All probabilities zero: chaos plumbing on, no faults.
    pub fn quiet(seed: u64) -> Self {
        ChaosConfig {
            seed,
            transient_prob: 0.0,
            glitch_prob: 0.0,
            corruption_prob: 0.0,
            device_loss_prob: 0.0,
        }
    }

    /// An aggressive mix exercising every fault class.
    pub fn storm(seed: u64) -> Self {
        ChaosConfig {
            seed,
            transient_prob: 0.3,
            glitch_prob: 0.3,
            corruption_prob: 0.2,
            device_loss_prob: 0.3,
        }
    }
}

/// What one admitted request was dealt by the chaos plan.
#[derive(Debug, Clone, Copy, Default)]
struct ChaosDraw {
    /// This many leading attempts fail transiently.
    transient_failures: u32,
    /// LUT rung fails with an injected gap-array glitch.
    glitch: bool,
    /// Corrupt the payload at this fractional offset (decompress).
    corruption: Option<(f64, u8)>,
    /// `(device, modeled instant)` of an injected device loss (compress).
    device_loss: Option<(usize, f64)>,
}

/// The work a request asks for.
#[derive(Debug, Clone)]
pub enum Workload {
    /// Compress these symbols into a multi-shard frame.
    Compress(Vec<u16>),
    /// Decompress this RSH2 archive or RSHM frame.
    Decompress(Vec<u8>),
    /// Decode only this byte range (decoded-output byte space) of an
    /// archive or frame — a seekable random-access read. Served through
    /// [`archive::decode_range`], so only the chunks covering the range
    /// are decoded and service time scales with the slice, not the
    /// archive.
    DecompressRange(Vec<u8>, std::ops::Range<u64>),
}

impl Workload {
    /// The request class this workload belongs to — the key latency
    /// histograms and SLO objectives aggregate by.
    pub fn class(&self) -> &'static str {
        match self {
            Workload::Compress(_) => "compress",
            Workload::Decompress(_) => "decompress",
            Workload::DecompressRange(..) => "decompress_range",
        }
    }
}

/// One request submitted to the engine.
#[derive(Debug, Clone)]
pub struct Request {
    /// Caller-chosen trace ID, surfaced end to end.
    pub trace_id: String,
    /// Modeled arrival instant, seconds; submissions must be in
    /// nondecreasing arrival order.
    pub arrival: f64,
    /// Optional deadline, seconds *from arrival*.
    pub deadline: Option<f64>,
    /// The work.
    pub workload: Workload,
}

impl Request {
    /// A compress request.
    pub fn compress(trace_id: impl Into<String>, arrival: f64, symbols: Vec<u16>) -> Self {
        Request {
            trace_id: trace_id.into(),
            arrival,
            deadline: None,
            workload: Workload::Compress(symbols),
        }
    }

    /// A decompress request.
    pub fn decompress(trace_id: impl Into<String>, arrival: f64, bytes: Vec<u8>) -> Self {
        Request {
            trace_id: trace_id.into(),
            arrival,
            deadline: None,
            workload: Workload::Decompress(bytes),
        }
    }

    /// A range-decode request: serve only `range` of the decoded output.
    pub fn decompress_range(
        trace_id: impl Into<String>,
        arrival: f64,
        bytes: Vec<u8>,
        range: std::ops::Range<u64>,
    ) -> Self {
        Request {
            trace_id: trace_id.into(),
            arrival,
            deadline: None,
            workload: Workload::DecompressRange(bytes, range),
        }
    }

    /// Attach a deadline (seconds from arrival).
    pub fn with_deadline(mut self, deadline: f64) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// The payload a finished request produced.
#[derive(Debug, Clone)]
pub enum Response {
    /// Compressed frame bytes.
    Frame(Vec<u8>),
    /// Decoded symbols.
    Symbols(Vec<u16>),
    /// The decoded bytes of a range request, exactly the slice asked for
    /// (clamped to the decoded size).
    Bytes(Vec<u8>),
}

/// How a request ended. Every request ends in exactly one of these.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Decoded/encoded bit-exactly on the first-choice path.
    Success,
    /// Served, but on a degraded path: a lower decode rung or
    /// best-effort recovery (`symbols_lost > 0` only there).
    Degraded {
        /// The backend that ultimately served the request.
        backend: String,
        /// Symbols sentinel-filled by best-effort recovery.
        symbols_lost: usize,
    },
    /// Rejected at admission: the queue was full.
    Shed {
        /// Structured reason (`"queue_full"`).
        reason: String,
    },
    /// Cancelled in queue or finished past its deadline.
    DeadlineMiss {
        /// The request's budget, seconds.
        budget: f64,
        /// What it actually needed (queue wait + service), seconds.
        needed: f64,
    },
    /// Unrecoverable: retries exhausted or the payload was damaged
    /// beyond best-effort repair.
    Failed {
        /// The terminal error, rendered.
        error: String,
    },
}

impl Outcome {
    /// The registry label for this outcome.
    pub fn label(&self) -> &'static str {
        match self {
            Outcome::Success => "success",
            Outcome::Degraded { .. } => "degraded",
            Outcome::Shed { .. } => "shed",
            Outcome::DeadlineMiss { .. } => "deadline",
            Outcome::Failed { .. } => "failed",
        }
    }

    /// True for `Success` and `Degraded` — the caller got correct bytes.
    pub fn served(&self) -> bool {
        matches!(self, Outcome::Success | Outcome::Degraded { .. })
    }
}

/// Everything observable about one finished request.
#[derive(Debug, Clone)]
pub struct Completion {
    /// The request's trace ID.
    pub trace_id: String,
    /// The request class ([`Workload::class`]).
    pub class: &'static str,
    /// Root span id of the request's tree in [`Engine::spans`].
    pub span_id: u64,
    /// How it ended.
    pub outcome: Outcome,
    /// The produced payload, when [`Outcome::served`].
    pub response: Option<Response>,
    /// Best-effort damage report, when recovery ran.
    pub recovery: Option<RecoveryReport>,
    /// Modeled seconds spent waiting for a worker.
    pub queue_wait: f64,
    /// Modeled execution seconds (successful attempt + failed-rung
    /// charges), excluding backoff.
    pub service: f64,
    /// Modeled seconds spent in retry backoff.
    pub backoff: f64,
    /// Retries consumed by transient faults.
    pub retries: u32,
    /// Queue depth observed at arrival (before this request joined).
    pub queue_depth: usize,
    /// Shards quarantined and rescheduled during a compress request.
    pub quarantined_shards: usize,
    /// Modeled completion instant, seconds.
    pub finish: f64,
}

/// Reusable scratch buffers for in-flight payload copies.
///
/// The engine never mutates a caller's payload: chaos corruption works on
/// a pooled copy, and the pool recycles those allocations across
/// requests instead of growing with the request count.
#[derive(Debug, Default)]
pub struct BufferPool {
    free: Vec<Vec<u8>>,
    /// Total acquisitions.
    pub acquired: u64,
    /// Acquisitions served by recycling a returned buffer.
    pub reused: u64,
}

impl BufferPool {
    fn acquire(&mut self, contents: &[u8]) -> Vec<u8> {
        self.acquired += 1;
        match self.free.pop() {
            Some(mut b) => {
                self.reused += 1;
                b.clear();
                b.extend_from_slice(contents);
                b
            }
            None => contents.to_vec(),
        }
    }

    fn release(&mut self, buf: Vec<u8>) {
        self.free.push(buf);
    }
}

/// Aggregate view of a finished (or in-progress) serve run.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Per-request completions, in submission order.
    pub completions: Vec<Completion>,
    /// Deepest queue observed at any arrival.
    pub max_depth: usize,
}

impl ServeReport {
    /// Completions that ended with the given [`Outcome::label`].
    pub fn count(&self, label: &str) -> usize {
        self.completions.iter().filter(|c| c.outcome.label() == label).count()
    }

    /// Total retries across all requests.
    pub fn retries_total(&self) -> u64 {
        self.completions.iter().map(|c| u64::from(c.retries)).sum()
    }

    /// Total modeled queue wait, seconds.
    pub fn queue_wait_total(&self) -> f64 {
        self.completions.iter().map(|c| c.queue_wait).sum()
    }

    /// Reduce the completion stream to [`crate::slo::Sample`]s — the
    /// narrow view SLO evaluation consumes. A request's end-to-end
    /// latency is its queue wait + backoff + service (equal to
    /// `finish − arrival` on every path).
    pub fn slo_samples(&self) -> Vec<slo::Sample> {
        self.completions
            .iter()
            .map(|c| slo::Sample {
                class: c.class.to_string(),
                trace_id: c.trace_id.clone(),
                finish: c.finish,
                latency: c.queue_wait + c.backoff + c.service,
                served: c.outcome.served(),
            })
            .collect()
    }

    /// Check the completion stream against a registry: every serve
    /// counter must equal the tally derived from the completions. This
    /// is the acceptance property "counters reconcile with the trace".
    pub fn reconciles_with(&self, reg: &Registry) -> bool {
        let outcome = |l: &str| reg.get("rsh_requests_total", &[("outcome", l)]) as u64;
        ["success", "degraded", "shed", "deadline", "failed"]
            .iter()
            .all(|l| outcome(l) == self.count(l) as u64)
            && reg.get("rsh_retries_total", &[]) as u64 == self.retries_total()
            && reg.get("rsh_deadline_miss_total", &[]) as u64 == self.count("deadline") as u64
            && (reg.get("rsh_queue_wait_seconds_total", &[]) - self.queue_wait_total()).abs()
                <= 1e-12 * (1.0 + self.queue_wait_total())
    }

    /// Export the run as an `rsh-trace-v1` document of kind `"serve"`,
    /// with byte-deterministic (sorted) counter keys.
    pub fn to_json(&self) -> Value {
        let mut counters = BTreeMap::new();
        for c in &self.completions {
            *counters.entry(c.outcome.label()).or_insert(0u64) += 1;
        }
        let mut counter_map = Map::new();
        for (k, v) in counters {
            counter_map.insert(k.to_string(), Value::Int(i128::from(v)));
        }
        counter_map.insert("retries".into(), Value::Int(i128::from(self.retries_total())));

        let mut root = Map::new();
        root.insert("schema".into(), Value::String(crate::metrics::TRACE_SCHEMA.into()));
        root.insert("kind".into(), Value::String("serve".into()));
        root.insert("max_queue_depth".into(), Value::Int(self.max_depth as i128));
        root.insert("counters".into(), Value::Object(counter_map));
        let reqs = self
            .completions
            .iter()
            .map(|c| {
                let mut m = Map::new();
                m.insert("trace_id".into(), Value::String(c.trace_id.clone()));
                m.insert("class".into(), Value::String(c.class.into()));
                m.insert("span".into(), Value::Int(i128::from(c.span_id)));
                m.insert("outcome".into(), Value::String(c.outcome.label().into()));
                m.insert("queue_wait_s".into(), Value::Float(c.queue_wait));
                m.insert("service_s".into(), Value::Float(c.service));
                m.insert("backoff_s".into(), Value::Float(c.backoff));
                m.insert("retries".into(), Value::Int(i128::from(c.retries)));
                m.insert("queue_depth".into(), Value::Int(c.queue_depth as i128));
                m.insert("quarantined_shards".into(), Value::Int(c.quarantined_shards as i128));
                m.insert("finish_s".into(), Value::Float(c.finish));
                Value::Object(m)
            })
            .collect();
        root.insert("requests".into(), Value::Array(reqs));
        Value::Object(root)
    }
}

/// One host decode behind a decompress request: the whole container, or
/// the byte range a range request asked for.
enum Decoded {
    Full(Recovered),
    Range(RangeDecode),
}

/// What one successful execution produced.
struct Exec {
    /// Back-to-back service stages `(name, modeled seconds)`. Their sum
    /// is the request's service time, and they become the child spans of
    /// the request's `service` span — so stage spans always tile the
    /// recorded service exactly.
    stages: Vec<(String, f64)>,
    /// Kernel records replayed on this request's behalf (compress only;
    /// decode rungs are modeled without kernel replay). Each is stamped
    /// with the request's trace id.
    records: Vec<KernelRecord>,
    response: Response,
    recovery: Option<RecoveryReport>,
    degraded: Option<(String, usize)>,
    quarantined: usize,
}

impl Exec {
    /// Total service seconds: the sum of the stage durations.
    fn seconds(&self) -> f64 {
        self.stages.iter().map(|s| s.1).sum()
    }
}

/// The serving engine. See the module docs for the model.
#[derive(Debug)]
pub struct Engine {
    cfg: EngineConfig,
    chaos: Option<(ChaosConfig, StdRng)>,
    /// Per-worker modeled free instants.
    workers: Vec<f64>,
    /// Start instants of admitted requests; depth at arrival `t` is the
    /// count of entries still in the future (`start > t`).
    starts: Vec<f64>,
    pool: BufferPool,
    metrics: Registry,
    completions: Vec<Completion>,
    last_arrival: f64,
    max_depth: usize,
    tuner: Option<Tuner>,
    spans: SpanSink,
    latency: LatencyBook,
}

impl Engine {
    /// A fault-free engine.
    pub fn new(cfg: EngineConfig) -> Self {
        Engine {
            cfg,
            chaos: None,
            workers: Vec::new(),
            starts: Vec::new(),
            pool: BufferPool::default(),
            metrics: Registry::new(),
            completions: Vec::new(),
            last_arrival: 0.0,
            max_depth: 0,
            tuner: None,
            spans: SpanSink::new(),
            latency: LatencyBook::new(),
        }
    }

    /// An engine with a seeded chaos plan.
    pub fn with_chaos(cfg: EngineConfig, chaos: ChaosConfig) -> Self {
        let rng = StdRng::seed_from_u64(chaos.seed);
        let mut e = Engine::new(cfg);
        e.chaos = Some((chaos, rng));
        e
    }

    /// Enable adaptive autotuning: compress requests are dispatched by
    /// [`crate::tune::Tuner::decide`] instead of the fixed batch
    /// geometry. The first request with a given signature models the
    /// candidate sweep (charged [`tune::MODEL_SWEEP_SECONDS`] of service
    /// time); later requests hit the tuning cache and skip that cost.
    pub fn with_tuner(mut self, tuner: Tuner) -> Self {
        self.tuner = Some(tuner);
        self
    }

    /// The autotuner, when enabled — exposes cache hit/miss counters.
    pub fn tuner(&self) -> Option<&Tuner> {
        self.tuner.as_ref()
    }

    /// The engine's metrics registry, the only one it records into: each
    /// serve event once, plus one count per library operation it ran
    /// (compress, decompress, range read, tuning lookup), taken from that
    /// operation's result. `GET /metrics` in `rsh serve` renders it.
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// Scratch-buffer pool statistics.
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Every request's span tree and chaos events recorded so far.
    pub fn spans(&self) -> &SpanSink {
        &self.spans
    }

    /// Per-(class, outcome) latency histograms with exemplar trace ids.
    pub fn latency(&self) -> &LatencyBook {
        &self.latency
    }

    /// The `rsh-span-v1` JSONL export of every span and event so far —
    /// byte-deterministic for a fixed seed.
    pub fn span_jsonl(&self) -> String {
        self.spans.to_jsonl()
    }

    /// Chrome `trace_event` JSON of the span trees, one lane per
    /// request.
    pub fn chrome_spans(&self) -> String {
        self.spans.to_chrome_trace("rsh serve (modeled)")
    }

    /// Evaluate SLO `objectives` against the completions so far (see
    /// [`crate::slo::evaluate`]).
    pub fn slo_report(&self, objectives: &[slo::Objective]) -> slo::SloReport {
        slo::evaluate(objectives, &self.report().slo_samples())
    }

    /// Submit one request and replay it to completion in virtual time.
    /// Requests must arrive in nondecreasing `arrival` order.
    pub fn submit(&mut self, req: Request) -> Result<&Completion> {
        if self.workers.len() != self.cfg.workers {
            if self.cfg.workers == 0 || self.cfg.batch.devices.is_empty() {
                return Err(HuffError::BadArchive(
                    "serve engine needs at least one worker and one device".into(),
                ));
            }
            self.workers = vec![0.0; self.cfg.workers];
        }
        if !req.arrival.is_finite() || req.arrival < self.last_arrival {
            return Err(HuffError::BadArchive(format!(
                "serve requests must arrive in nondecreasing order: {} after {}",
                req.arrival, self.last_arrival
            )));
        }
        self.last_arrival = req.arrival;
        let t = req.arrival;
        let trace_id = req.trace_id.clone();
        let class = req.workload.class();

        // Admission: depth = admitted requests that have not started yet.
        let depth = self.starts.iter().filter(|&&s| s > t).count();
        self.max_depth = self.max_depth.max(depth);
        if depth >= self.cfg.queue_capacity {
            self.metrics.record_shed("queue_full");
            self.metrics.record_request("shed");
            let span_id =
                self.spans.open(&TraceContext::root(trace_id.clone()), "request", class, t, t);
            self.spans.event(trace_id.clone(), span_id, "shed", t, "queue_full");
            self.latency.observe(class, "shed", 0.0, &trace_id);
            self.completions.push(Completion {
                trace_id: req.trace_id,
                class,
                span_id,
                outcome: Outcome::Shed { reason: "queue_full".into() },
                response: None,
                recovery: None,
                queue_wait: 0.0,
                service: 0.0,
                backoff: 0.0,
                retries: 0,
                queue_depth: depth,
                quarantined_shards: 0,
                finish: t,
            });
            return Ok(self.completions.last().unwrap());
        }

        let draw = self.draw_chaos(&req.workload);

        // FIFO service on the earliest-free worker.
        let (widx, &free) = self
            .workers
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap().then(a.0.cmp(&b.0)))
            .unwrap();
        let start = t.max(free);
        let queue_wait = start - t;

        // Cancel in queue: the wait alone blows the budget, so the
        // request never consumes worker time.
        if let Some(d) = req.deadline {
            if queue_wait > d {
                self.metrics.record_deadline_miss();
                self.metrics.record_request("deadline");
                self.metrics.record_queue_wait(d, depth);
                let root_ctx = TraceContext::root(trace_id.clone());
                let span_id = self.spans.open(&root_ctx, "request", class, t, t + d);
                self.spans.open(&root_ctx.child_of(span_id), "stage", "queue", t, t + d);
                self.spans.event(
                    trace_id.clone(),
                    span_id,
                    "deadline_miss",
                    t + d,
                    format!("cancelled in queue: budget {d:.6e}s, wait {queue_wait:.6e}s"),
                );
                self.latency.observe(class, "deadline", d, &trace_id);
                self.completions.push(Completion {
                    trace_id: req.trace_id,
                    class,
                    span_id,
                    outcome: Outcome::DeadlineMiss { budget: d, needed: queue_wait },
                    response: None,
                    recovery: None,
                    queue_wait: d,
                    service: 0.0,
                    backoff: 0.0,
                    retries: 0,
                    queue_depth: depth,
                    quarantined_shards: 0,
                    finish: t + d,
                });
                return Ok(self.completions.last().unwrap());
            }
        }

        // Execute, retrying injected transient faults with exponential
        // backoff in modeled time.
        let mut retries = 0u32;
        let mut backoff = 0.0f64;
        // Cumulative backoff at each retry, for the span events.
        let mut retry_offsets: Vec<f64> = Vec::new();
        let result = loop {
            if retries < draw.transient_failures {
                if retries >= self.cfg.max_retries {
                    break Err(HuffError::CorruptStream(
                        "injected transient fault persisted past the retry budget",
                    ));
                }
                backoff += self.cfg.backoff_base * f64::powi(2.0, retries as i32);
                retries += 1;
                retry_offsets.push(backoff);
                continue;
            }
            break self.execute(&req.workload, &draw, &trace_id);
        };

        self.starts.push(start);
        self.metrics.record_queue_wait(queue_wait, depth);
        self.metrics.record_retries(u64::from(retries));

        let completion = match result {
            Ok(exec) => {
                let service = exec.seconds();
                let finish = start + backoff + service;
                self.workers[widx] = finish;
                let outcome = match (&exec.degraded, req.deadline) {
                    (_, Some(d)) if finish - t > d => {
                        self.metrics.record_deadline_miss();
                        Outcome::DeadlineMiss { budget: d, needed: finish - t }
                    }
                    (Some((backend, lost)), _) => {
                        self.metrics.record_degraded(backend);
                        Outcome::Degraded { backend: backend.clone(), symbols_lost: *lost }
                    }
                    (None, _) => Outcome::Success,
                };
                let span_id = self.record_spans(
                    &trace_id,
                    class,
                    t,
                    start,
                    backoff,
                    &retry_offsets,
                    finish,
                    Some(&exec),
                    &draw,
                    &outcome,
                );
                Completion {
                    trace_id: req.trace_id,
                    class,
                    span_id,
                    outcome,
                    response: Some(exec.response),
                    recovery: exec.recovery,
                    queue_wait,
                    service,
                    backoff,
                    retries,
                    queue_depth: depth,
                    quarantined_shards: exec.quarantined,
                    finish,
                }
            }
            Err(e) => {
                // A failed request still occupied its worker for the
                // overhead of discovering the failure.
                let service = REQUEST_OVERHEAD_SECONDS;
                let finish = start + backoff + service;
                self.workers[widx] = finish;
                let outcome = Outcome::Failed { error: e.to_string() };
                let span_id = self.record_spans(
                    &trace_id,
                    class,
                    t,
                    start,
                    backoff,
                    &retry_offsets,
                    finish,
                    None,
                    &draw,
                    &outcome,
                );
                Completion {
                    trace_id: req.trace_id,
                    class,
                    span_id,
                    outcome,
                    response: None,
                    recovery: None,
                    queue_wait,
                    service,
                    backoff,
                    retries,
                    queue_depth: depth,
                    quarantined_shards: 0,
                    finish,
                }
            }
        };
        self.metrics.record_request(completion.outcome.label());
        self.latency.observe(
            class,
            completion.outcome.label(),
            completion.queue_wait + completion.backoff + completion.service,
            &completion.trace_id,
        );
        self.completions.push(completion);
        Ok(self.completions.last().unwrap())
    }

    /// Submit a batch of requests and return the final report.
    pub fn run(&mut self, requests: Vec<Request>) -> Result<ServeReport> {
        for r in requests {
            self.submit(r)?;
        }
        Ok(self.report())
    }

    /// Snapshot the run so far.
    pub fn report(&self) -> ServeReport {
        ServeReport { completions: self.completions.clone(), max_depth: self.max_depth }
    }

    fn draw_chaos(&mut self, workload: &Workload) -> ChaosDraw {
        let Some((cfg, rng)) = self.chaos.as_mut() else {
            return ChaosDraw::default();
        };
        let mut draw = ChaosDraw::default();
        if rng.gen_bool(cfg.transient_prob) {
            draw.transient_failures = rng.gen_range(1u32..=2);
        }
        match workload {
            Workload::Decompress(_) | Workload::DecompressRange(..) => {
                draw.glitch = rng.gen_bool(cfg.glitch_prob);
                if rng.gen_bool(cfg.corruption_prob) {
                    draw.corruption = Some((rng.gen_range(0.0f64..1.0), rng.gen_range(0u8..8)));
                }
            }
            Workload::Compress(_) => {
                if rng.gen_bool(cfg.device_loss_prob) {
                    let device = rng.gen_range(0usize..self.cfg.batch.devices.len());
                    let at = rng.gen_range(0.0f64..500.0) * 1e-6;
                    draw.device_loss = Some((device, at));
                }
            }
        }
        draw
    }

    /// Record the span tree of one executed (or failed-in-execution)
    /// request: root → queue / backoff / service stages → per-stage
    /// service children → kernel spans, plus the chaos and outcome
    /// events attributed to the root. Returns the root span id.
    #[allow(clippy::too_many_arguments)]
    fn record_spans(
        &mut self,
        trace_id: &str,
        class: &'static str,
        arrival: f64,
        start: f64,
        backoff: f64,
        retry_offsets: &[f64],
        finish: f64,
        exec: Option<&Exec>,
        draw: &ChaosDraw,
        outcome: &Outcome,
    ) -> u64 {
        let root_ctx = TraceContext::root(trace_id);
        let root = self.spans.open(&root_ctx, "request", class, arrival, finish);
        let child = root_ctx.child_of(root);
        if start > arrival {
            self.spans.open(&child, "stage", "queue", arrival, start);
        }
        if backoff > 0.0 {
            let b = self.spans.open(&child, "stage", "backoff", start, start + backoff);
            for (i, off) in retry_offsets.iter().enumerate() {
                self.spans.event(
                    trace_id,
                    b,
                    "retry",
                    start + off,
                    format!("attempt {} after injected transient fault", i + 2),
                );
            }
        }
        let svc_start = start + backoff;
        // A failed execution still occupied its worker for the fixed
        // overhead (see the Err arm in `submit`); its service span holds
        // that single stage so stage spans always tile the latency.
        let failed_stages;
        let stages: &[(String, f64)] = match exec {
            Some(e) => &e.stages,
            None => {
                failed_stages = [("overhead".to_string(), REQUEST_OVERHEAD_SECONDS)];
                &failed_stages
            }
        };
        let service: f64 = stages.iter().map(|s| s.1).sum();
        if service > 0.0 {
            let svc = self.spans.open(&child, "stage", "service", svc_start, finish);
            let svc_ctx = child.child_of(svc);
            let mut cursor = svc_start;
            for (name, dur) in stages {
                let sid = self.spans.open(&svc_ctx, "stage", name.clone(), cursor, cursor + dur);
                if name == "batch" {
                    if let Some(e) = exec {
                        self.spans.kernels(&svc_ctx.child_of(sid), cursor, &e.records);
                    }
                }
                cursor += dur;
            }
        }
        // Injected chaos and terminal outcomes, attributed to the root.
        if let Some((device, at)) = draw.device_loss {
            self.spans.event(
                trace_id,
                root,
                "device_loss",
                svc_start + at,
                format!("device {device} lost {at:.3e}s into the batch"),
            );
        }
        if draw.glitch {
            self.spans.event(
                trace_id,
                root,
                "decoder_glitch",
                svc_start,
                "injected gap-array glitch (chaos)",
            );
        }
        if let Some((frac, bit)) = draw.corruption {
            self.spans.event(
                trace_id,
                root,
                "payload_corruption",
                start,
                format!("bit {bit} flipped at fractional offset {frac:.6}"),
            );
        }
        match outcome {
            Outcome::DeadlineMiss { budget, needed } => {
                self.spans.event(
                    trace_id,
                    root,
                    "deadline_miss",
                    finish,
                    format!("budget {budget:.6e}s, needed {needed:.6e}s"),
                );
            }
            Outcome::Degraded { backend, symbols_lost } => {
                self.spans.event(
                    trace_id,
                    root,
                    "degraded",
                    finish,
                    format!("served by {backend}, {symbols_lost} symbols lost"),
                );
            }
            Outcome::Failed { error } => {
                self.spans.event(trace_id, root, "failed", finish, error.clone());
            }
            Outcome::Success | Outcome::Shed { .. } => {}
        }
        root
    }

    fn execute(&mut self, workload: &Workload, draw: &ChaosDraw, trace: &str) -> Result<Exec> {
        match workload {
            Workload::Compress(symbols) => self.execute_compress(symbols, draw, trace),
            Workload::Decompress(bytes) => self.execute_decode(bytes, None, draw),
            Workload::DecompressRange(bytes, range) => {
                self.execute_decode(bytes, Some(range.clone()), draw)
            }
        }
    }

    fn execute_compress(&mut self, symbols: &[u16], draw: &ChaosDraw, trace: &str) -> Result<Exec> {
        let faults: Vec<DeviceFault> =
            draw.device_loss.iter().map(|&(device, at)| DeviceFault { device, at }).collect();

        // Autotuned path: dispatch per the tuner's decision. A cache
        // miss models the candidate sweep once and is charged
        // MODEL_SWEEP_SECONDS; a hit skips that cost entirely.
        if let Some(tuner) = &mut self.tuner {
            let (_, decision, hit) =
                tuner.decide(symbols, self.cfg.batch.num_symbols, self.cfg.batch.symbol_bytes)?;
            self.metrics.record_tune(&decision, hit);
            let sweep = if hit { 0.0 } else { tune::MODEL_SWEEP_SECONDS };
            let mut stages = vec![("overhead".to_string(), REQUEST_OVERHEAD_SECONDS)];
            if sweep > 0.0 {
                stages.push(("model_sweep".to_string(), sweep));
            }
            return match decision.dispatch {
                Dispatch::Gpu => {
                    let mut opts = decision.batch_options(self.cfg.batch.clone(), symbols.len());
                    opts.trace = trace.to_string();
                    let (frame_bytes, report, quarantine) =
                        compress_batched_with_faults(symbols, &opts, &faults)?;
                    self.metrics.record_batch_compress(&frame_bytes, &report, &quarantine);
                    stages.push(("batch".to_string(), report.makespan));
                    let records = report
                        .devices
                        .iter()
                        .flat_map(|d| d.timeline.records.iter().cloned())
                        .collect();
                    Ok(Exec {
                        stages,
                        records,
                        response: Response::Frame(frame_bytes),
                        recovery: None,
                        degraded: None,
                        quarantined: quarantine.quarantined.len(),
                    })
                }
                // Host paths: device loss cannot touch them, so the
                // chaos draw's faults are moot and service time is the
                // decision's modeled host cost.
                Dispatch::CpuSerial | Dispatch::StoreRaw => {
                    let devices = [tuner.device().clone()];
                    let bytes = tune::compress_with_decision(
                        symbols,
                        self.cfg.batch.num_symbols,
                        self.cfg.batch.symbol_bytes,
                        &decision,
                        &devices,
                    )?;
                    let bytes_in = symbols.len() as u64 * u64::from(self.cfg.batch.symbol_bytes);
                    self.metrics.record_compress(bytes_in, &bytes);
                    stages.push(("host_encode".to_string(), decision.modeled_seconds()));
                    Ok(Exec {
                        stages,
                        records: Vec::new(),
                        response: Response::Frame(bytes),
                        recovery: None,
                        degraded: None,
                        quarantined: 0,
                    })
                }
            };
        }

        let mut opts = self.cfg.batch.clone();
        opts.trace = trace.to_string();
        let (frame_bytes, report, quarantine) =
            compress_batched_with_faults(symbols, &opts, &faults)?;
        self.metrics.record_batch_compress(&frame_bytes, &report, &quarantine);
        let records =
            report.devices.iter().flat_map(|d| d.timeline.records.iter().cloned()).collect();
        Ok(Exec {
            stages: vec![
                ("overhead".to_string(), REQUEST_OVERHEAD_SECONDS),
                ("batch".to_string(), report.makespan),
            ],
            records,
            response: Response::Frame(frame_bytes),
            recovery: None,
            degraded: None,
            quarantined: quarantine.quarantined.len(),
        })
    }

    /// Serve a decompress request, or only `range` of it, down the
    /// decoder ladder: each strict rung in turn, then best-effort
    /// recovery. Every rung decodes the same bytes on the host, so a
    /// failure cannot depend on the rung: the strict call runs at most
    /// once, at the first rung the chaos glitch does not skip, and the
    /// best-effort call at most once after the ladder is exhausted. The
    /// loop itself only charges each rung's modeled stage.
    fn execute_decode(
        &mut self,
        bytes: &[u8],
        range: Option<std::ops::Range<u64>>,
        draw: &ChaosDraw,
    ) -> Result<Exec> {
        // Chaos corruption works on a pooled copy; the caller's payload
        // is never touched.
        let scratch;
        let payload: &[u8] = if let Some((frac, bit)) = draw.corruption {
            let mut buf = self.pool.acquire(bytes);
            let offset = ((bytes.len() as f64 * frac) as usize).min(bytes.len().saturating_sub(1));
            crate::testing::apply(&mut buf, &Fault::BitFlip { offset, bit });
            scratch = buf;
            &scratch
        } else {
            scratch = Vec::new();
            bytes
        };
        // A failed rung read at most the range's window, never the whole
        // archive — charge its fractional cost on the slice size.
        let failed_bytes = range.as_ref().map_or(payload.len(), |r| {
            usize::try_from(r.end.saturating_sub(r.start)).unwrap_or(usize::MAX)
        });
        let sentinel = self.cfg.sentinel;
        let decode = |mode, decoder| {
            let opts = DecompressOptions { verify: Verify::Full, mode, sentinel, decoder };
            match &range {
                None => archive::decompress_with(payload, &opts).map(Decoded::Full),
                Some(r) => archive::decode_range(payload, r.clone(), &opts).map(Decoded::Range),
            }
        };

        let mut stages = vec![("overhead".to_string(), REQUEST_OVERHEAD_SECONDS)];
        let mut strict: Option<Result<Decoded>> = None;
        let mut last_err: Option<HuffError> = None;
        let mut served = None;
        for (rung, &kind) in self.cfg.ladder.iter().enumerate() {
            // The injected glitch models a gap-array inconsistency: the
            // LUT rung fails with the indexed error the degradation log
            // needs, and the engine falls through to the next rung.
            if draw.glitch && kind == DecoderKind::Lut {
                last_err = Some(HuffError::GapArray {
                    chunk: 0,
                    subchunk: 0,
                    gap_bit: 0,
                    detail: "injected decoder glitch (chaos)".into(),
                });
            } else {
                match strict.take().unwrap_or_else(|| decode(RecoveryMode::Strict, kind)) {
                    Ok(d) => {
                        let backend = (rung > 0).then(|| kind.name().to_string());
                        served = Some((d, kind, format!("decode_{}", kind.name()), backend));
                        break;
                    }
                    Err(e) => {
                        last_err = Some(e.clone());
                        strict = Some(Err(e));
                    }
                }
            }
            stages.push((
                format!("decode_{}_failed", kind.name()),
                self.model_decode_seconds(failed_bytes, kind) * FAILED_RUNG_COST_FRACTION,
            ));
        }
        let (decoded, kind, stage, backend) = match served {
            Some(served) => served,
            // Strict ladder exhausted: best-effort recovery with the most
            // robust backend. Damaged regions come back sentinel-filled
            // and reported — never silently wrong.
            None => match decode(RecoveryMode::BestEffort, DecoderKind::Serial) {
                Ok(d) => {
                    let label = "best_effort".to_string();
                    (d, DecoderKind::Serial, label.clone(), Some(label))
                }
                Err(e) => return Err(last_err.unwrap_or(e)),
            },
        };
        let (out_bytes, response, report) = match decoded {
            Decoded::Full(rec) => {
                self.metrics.record_decompress(payload, &rec, kind);
                (rec.symbols.len() * 2, Response::Symbols(rec.symbols), rec.report)
            }
            Decoded::Range(r) => {
                self.metrics.record_range(&r, kind);
                (r.bytes.len(), Response::Bytes(r.bytes), r.report)
            }
        };
        stages.push((stage, self.model_decode_seconds(out_bytes, kind)));
        let exec = Exec {
            stages,
            records: Vec::new(),
            response,
            degraded: backend.map(|b| (b, report.symbols_lost)),
            recovery: Some(report),
            quarantined: 0,
        };
        if draw.corruption.is_some() {
            self.pool.release(scratch);
        }
        Ok(exec)
    }

    fn model_decode_seconds(&self, bytes: usize, kind: DecoderKind) -> f64 {
        let rate = DECODE_MODEL_BYTES_PER_SEC
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|&(_, r)| r)
            .unwrap_or(1.0e9);
        bytes as f64 / rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::compress_batched;
    use gpu_sim::DeviceSpec;

    fn symbols(n: usize, seed: u64) -> Vec<u16> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(0u16..64)).collect()
    }

    fn small_cfg() -> EngineConfig {
        let mut cfg = EngineConfig::new(64);
        cfg.batch.shard_symbols = 4096;
        cfg.batch.devices = vec![DeviceSpec::test_part()];
        cfg
    }

    fn frame_of(symbols: &[u16], cfg: &EngineConfig) -> Vec<u8> {
        let (bytes, _) = compress_batched(symbols, &cfg.batch).unwrap();
        bytes
    }

    #[test]
    fn roundtrip_through_engine_is_bit_exact() {
        let cfg = small_cfg();
        let syms = symbols(10_000, 1);
        let mut eng = Engine::new(cfg.clone());
        let c = eng.submit(Request::compress("t-c", 0.0, syms.clone())).unwrap();
        assert_eq!(c.outcome, Outcome::Success);
        let Some(Response::Frame(frame_bytes)) = c.response.clone() else {
            panic!("expected frame response");
        };
        let c2 = eng.submit(Request::decompress("t-d", 1.0, frame_bytes)).unwrap();
        assert_eq!(c2.outcome, Outcome::Success);
        let Some(Response::Symbols(out)) = &c2.response else {
            panic!("expected symbols");
        };
        assert_eq!(*out, syms);
    }

    #[test]
    fn full_queue_sheds_with_structured_reason() {
        let mut cfg = small_cfg();
        cfg.workers = 1;
        cfg.queue_capacity = 1;
        let syms = symbols(8_000, 2);
        let mut eng = Engine::new(cfg);
        // Three simultaneous arrivals: one runs, one queues, one sheds.
        for i in 0..3 {
            eng.submit(Request::compress(format!("t{i}"), 0.0, syms.clone())).unwrap();
        }
        let report = eng.report();
        assert_eq!(report.count("success"), 2);
        assert_eq!(report.count("shed"), 1);
        let shed = &report.completions[2];
        assert_eq!(shed.outcome, Outcome::Shed { reason: "queue_full".into() });
        assert_eq!(eng.metrics().get("rsh_shed_total", &[("reason", "queue_full")]), 1.0);
        // The queued request's wait equals the first request's service.
        let first = &report.completions[0];
        let queued = &report.completions[1];
        assert!(queued.queue_wait > 0.0);
        assert!((queued.queue_wait - first.service).abs() < 1e-12);
    }

    #[test]
    fn deadline_cancels_in_queue_without_consuming_worker_time() {
        let mut cfg = small_cfg();
        cfg.workers = 1;
        let syms = symbols(8_000, 3);
        let mut eng = Engine::new(cfg);
        eng.submit(Request::compress("t0", 0.0, syms.clone())).unwrap();
        let first_finish = eng.report().completions[0].finish;
        let c = eng.submit(Request::compress("t1", 0.0, syms.clone()).with_deadline(1e-9)).unwrap();
        assert!(matches!(c.outcome, Outcome::DeadlineMiss { .. }));
        assert_eq!(c.service, 0.0);
        // Worker is still free at the first request's finish: the
        // cancelled request ran nothing.
        let c2 = eng.submit(Request::compress("t2", 0.0, syms)).unwrap();
        assert!((c2.queue_wait - first_finish).abs() < 1e-12);
    }

    #[test]
    fn transient_faults_retry_with_exponential_backoff() {
        let cfg = small_cfg();
        let mut chaos = ChaosConfig::quiet(7);
        chaos.transient_prob = 1.0;
        let syms = symbols(8_000, 4);
        let mut eng = Engine::with_chaos(cfg, chaos);
        let c = eng.submit(Request::compress("t0", 0.0, syms.clone())).unwrap();
        assert_eq!(c.outcome, Outcome::Success);
        assert!(c.retries >= 1 && c.retries <= 2);
        // backoff = base * (2^retries - 1)
        let expect = 0.25e-3 * (f64::powi(2.0, c.retries as i32) - 1.0);
        assert!((c.backoff - expect).abs() < 1e-12, "backoff {} != {}", c.backoff, expect);
        // Bytes are still bit-exact after retries.
        let healthy = compress_batched(&syms, &eng.cfg.batch).unwrap().0;
        let Some(Response::Frame(f)) = &eng.report().completions[0].response else { panic!() };
        assert_eq!(*f, healthy);
    }

    #[test]
    fn decoder_glitch_degrades_to_chunked_bit_exactly() {
        let cfg = small_cfg();
        let syms = symbols(12_000, 5);
        let frame_bytes = frame_of(&syms, &cfg);
        let mut chaos = ChaosConfig::quiet(11);
        chaos.glitch_prob = 1.0;
        let mut eng = Engine::with_chaos(cfg, chaos);
        let c = eng.submit(Request::decompress("t0", 0.0, frame_bytes)).unwrap();
        let Outcome::Degraded { ref backend, symbols_lost } = c.outcome else {
            panic!("expected degraded, got {:?}", c.outcome);
        };
        assert_eq!(backend, "chunked");
        assert_eq!(symbols_lost, 0);
        let Some(Response::Symbols(out)) = &c.response else { panic!() };
        assert_eq!(*out, syms);
        assert_eq!(eng.metrics().get("rsh_degraded_total", &[("backend", "chunked")]), 1.0);
    }

    #[test]
    fn corruption_never_yields_wrong_bytes() {
        let cfg = small_cfg();
        let syms = symbols(12_000, 6);
        let frame_bytes = frame_of(&syms, &cfg);
        let mut chaos = ChaosConfig::quiet(13);
        chaos.corruption_prob = 1.0;
        let mut served_degraded = false;
        for seed in 0..8u64 {
            chaos.seed = seed;
            let mut eng = Engine::with_chaos(cfg.clone(), chaos);
            let c = eng.submit(Request::decompress("t0", 0.0, frame_bytes.clone())).unwrap();
            match &c.outcome {
                Outcome::Degraded { .. } => {
                    served_degraded = true;
                    let Some(Response::Symbols(out)) = &c.response else { panic!() };
                    let report = c.recovery.as_ref().unwrap();
                    assert_eq!(out.len(), syms.len());
                    // Every symbol outside the reported damage is exact.
                    for (i, (&got, &want)) in out.iter().zip(&syms).enumerate() {
                        let damaged = report.damaged_ranges.iter().any(|&(s, e)| i >= s && i < e);
                        if !damaged {
                            assert_eq!(got, want, "wrong byte at {i} outside damage report");
                        }
                    }
                }
                // A flip in an undecoded region can verify clean; then
                // the bytes must be exact.
                Outcome::Success => {
                    let Some(Response::Symbols(out)) = &c.response else { panic!() };
                    assert_eq!(*out, syms);
                }
                Outcome::Failed { .. } => {} // header damage: structured failure
                other => panic!("corrupted payload must degrade or fail, got {other:?}"),
            }
        }
        assert!(served_degraded, "no seed produced a recoverable corruption");
    }

    #[test]
    fn device_loss_quarantines_and_stays_bit_exact() {
        let mut cfg = small_cfg();
        cfg.batch.devices = vec![DeviceSpec::test_part(), DeviceSpec::test_part()];
        cfg.batch.shard_symbols = 2048;
        let syms = symbols(16_000, 8);
        let healthy = compress_batched(&syms, &cfg.batch).unwrap().0;
        let mut chaos = ChaosConfig::quiet(17);
        chaos.device_loss_prob = 1.0;
        let mut eng = Engine::with_chaos(cfg, chaos);
        let c = eng.submit(Request::compress("t0", 0.0, syms)).unwrap();
        assert_eq!(c.outcome, Outcome::Success);
        let Some(Response::Frame(f)) = &c.response else { panic!() };
        assert_eq!(*f, healthy, "fault-recovered frame must be bit-identical");
    }

    #[test]
    fn counters_reconcile_with_completions() {
        let mut cfg = small_cfg();
        cfg.workers = 1;
        cfg.queue_capacity = 1;
        let syms = symbols(8_000, 9);
        let frame_bytes = frame_of(&syms, &cfg);
        let mut chaos = ChaosConfig::storm(23);
        chaos.device_loss_prob = 0.0; // single test device; keep it alive
        let mut eng = Engine::with_chaos(cfg, chaos);
        for i in 0..12 {
            let t = i as f64 * 10e-6; // arrivals faster than service
            let req = if i % 2 == 0 {
                Request::compress(format!("c{i}"), t, syms.clone())
            } else {
                Request::decompress(format!("d{i}"), t, frame_bytes.clone()).with_deadline(0.5)
            };
            eng.submit(req).unwrap();
        }
        let report = eng.report();
        assert_eq!(report.completions.len(), 12);
        let total: usize = ["success", "degraded", "shed", "deadline", "failed"]
            .iter()
            .map(|l| report.count(l))
            .sum();
        assert_eq!(total, 12, "every request ends in exactly one outcome");
        assert!(report.reconciles_with(eng.metrics()));
    }

    /// Two engines in one process keep independent, complete registries:
    /// each counts exactly its own serve events and the library
    /// operations behind them, one per operation, and nothing of the
    /// other's.
    #[test]
    fn engine_registries_are_independent_and_complete() {
        let cfg = small_cfg();
        let mut engines = [Engine::new(cfg.clone()), Engine::new(cfg)];
        let inputs = [symbols(9_000, 31), symbols(14_000, 32)];
        for round in 0..3 {
            let t = round as f64;
            for (e, eng) in engines.iter_mut().enumerate() {
                let c =
                    eng.submit(Request::compress(format!("c{e}.{round}"), t, inputs[e].clone()));
                assert_eq!(c.unwrap().outcome, Outcome::Success);
            }
            for (e, eng) in engines.iter_mut().enumerate() {
                let Some(Response::Frame(frame)) =
                    eng.report().completions.last().unwrap().response.clone()
                else {
                    panic!("compress must answer with a frame")
                };
                let d = eng.submit(Request::decompress(
                    format!("d{e}.{round}"),
                    t + 0.3,
                    frame.clone(),
                ));
                assert_eq!(d.unwrap().outcome, Outcome::Success);
                let r = eng.submit(Request::decompress_range(
                    format!("r{e}.{round}"),
                    t + 0.6,
                    frame,
                    100..1100,
                ));
                assert_eq!(r.unwrap().outcome, Outcome::Success);
            }
        }
        for eng in &engines {
            let reg = eng.metrics();
            let report = eng.report();
            let served = |class: &'static str| {
                report.completions.iter().filter(move |c| c.class == class && c.response.is_some())
            };
            let frame_bytes: usize = served("compress")
                .map(|c| match &c.response {
                    Some(Response::Frame(f)) => f.len(),
                    other => panic!("compress answered {other:?}"),
                })
                .sum();
            let compress = [("direction", "compress")];
            let decompress = [("direction", "decompress")];
            assert_eq!(reg.get("rsh_bytes_out_total", &compress), frame_bytes as f64);
            assert_eq!(reg.get("rsh_runs_total", &compress), served("compress").count() as f64);
            assert_eq!(reg.get("rsh_runs_total", &decompress), served("decompress").count() as f64);
            assert_eq!(
                reg.get("rsh_range_decodes_total", &[("source", "index")]),
                served("decompress_range").count() as f64
            );
            // One backend count per decode operation, not per shard.
            assert_eq!(reg.get("rsh_decode_backend_total", &[("backend", "lut")]), 6.0);
            assert!(report.reconciles_with(reg));
        }
        // Different inputs, different frames: neither registry holds the
        // other engine's bytes.
        let out = |e: usize| {
            engines[e].metrics().get("rsh_bytes_out_total", &[("direction", "compress")])
        };
        assert_ne!(out(0), out(1));
    }

    #[test]
    fn chaos_is_deterministic() {
        let cfg = small_cfg();
        let syms = symbols(8_000, 10);
        let frame_bytes = frame_of(&syms, &cfg);
        let run = || {
            let mut eng = Engine::with_chaos(cfg.clone(), ChaosConfig::storm(42));
            for i in 0..6 {
                let t = i as f64 * 1e-4;
                let req = if i % 2 == 0 {
                    Request::compress(format!("c{i}"), t, syms.clone())
                } else {
                    Request::decompress(format!("d{i}"), t, frame_bytes.clone())
                };
                eng.submit(req).unwrap();
            }
            eng.report().to_json().to_string()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn range_request_serves_the_exact_slice_and_bills_the_slice() {
        let cfg = small_cfg();
        let syms = symbols(20_000, 14);
        let frame_bytes = frame_of(&syms, &cfg);
        let full: Vec<u8> = syms.iter().flat_map(|s| s.to_le_bytes()).collect();
        let mut eng = Engine::new(cfg);
        let c_full = eng.submit(Request::decompress("full", 0.0, frame_bytes.clone())).unwrap();
        let full_service = c_full.service;
        let c =
            eng.submit(Request::decompress_range("slice", 1.0, frame_bytes, 9_000..9_400)).unwrap();
        assert_eq!(c.outcome, Outcome::Success);
        let Some(Response::Bytes(out)) = &c.response else {
            panic!("expected bytes, got {:?}", c.response);
        };
        assert_eq!(*out, full[9_000..9_400]);
        // Service time scales with the 400-byte slice, not the archive.
        assert!(
            c.service < full_service,
            "range service {} should undercut full decode {full_service}",
            c.service
        );
    }

    #[test]
    fn range_request_degrades_down_the_ladder_bit_exactly() {
        let cfg = small_cfg();
        let syms = symbols(12_000, 15);
        let frame_bytes = frame_of(&syms, &cfg);
        let full: Vec<u8> = syms.iter().flat_map(|s| s.to_le_bytes()).collect();
        let mut chaos = ChaosConfig::quiet(31);
        chaos.glitch_prob = 1.0;
        let mut eng = Engine::with_chaos(cfg, chaos);
        let c =
            eng.submit(Request::decompress_range("r0", 0.0, frame_bytes, 5_000..6_000)).unwrap();
        let Outcome::Degraded { ref backend, symbols_lost } = c.outcome else {
            panic!("expected degraded, got {:?}", c.outcome);
        };
        assert_eq!(backend, "chunked");
        assert_eq!(symbols_lost, 0);
        let Some(Response::Bytes(out)) = &c.response else { panic!() };
        assert_eq!(*out, full[5_000..6_000]);
    }

    #[test]
    fn corrupted_range_request_never_yields_silently_wrong_bytes() {
        let cfg = small_cfg();
        let syms = symbols(12_000, 16);
        let frame_bytes = frame_of(&syms, &cfg);
        let full: Vec<u8> = syms.iter().flat_map(|s| s.to_le_bytes()).collect();
        let mut chaos = ChaosConfig::quiet(37);
        chaos.corruption_prob = 1.0;
        for seed in 0..8u64 {
            chaos.seed = seed;
            let mut eng = Engine::with_chaos(cfg.clone(), chaos);
            let c = eng
                .submit(Request::decompress_range("r0", 0.0, frame_bytes.clone(), 2_000..20_000))
                .unwrap();
            match &c.outcome {
                Outcome::Success => {
                    let Some(Response::Bytes(out)) = &c.response else { panic!() };
                    assert_eq!(*out, full[2_000..20_000]);
                }
                Outcome::Degraded { .. } => {
                    let Some(Response::Bytes(out)) = &c.response else { panic!() };
                    let report = c.recovery.as_ref().unwrap();
                    assert_eq!(out.len(), 18_000);
                    // Bytes outside the reported damage are exact.
                    for (k, (&got, &want)) in out.iter().zip(&full[2_000..20_000]).enumerate() {
                        let sym = (2_000 + k) / 2;
                        let damaged =
                            report.damaged_ranges.iter().any(|&(s, e)| sym >= s && sym < e);
                        if !damaged {
                            assert_eq!(got, want, "wrong byte at {k} outside damage report");
                        }
                    }
                }
                Outcome::Failed { .. } => {}
                other => panic!("corrupted range must serve or fail, got {other:?}"),
            }
        }
    }

    #[test]
    fn out_of_order_arrivals_are_rejected() {
        let cfg = small_cfg();
        let mut eng = Engine::new(cfg);
        eng.submit(Request::compress("a", 1.0, symbols(4_000, 11))).unwrap();
        let err = eng.submit(Request::compress("b", 0.5, symbols(4_000, 12))).unwrap_err();
        assert!(err.to_string().contains("nondecreasing"));
    }

    #[test]
    fn pool_recycles_scratch_buffers() {
        let cfg = small_cfg();
        let syms = symbols(8_000, 13);
        let frame_bytes = frame_of(&syms, &cfg);
        let mut chaos = ChaosConfig::quiet(29);
        chaos.corruption_prob = 1.0;
        let mut eng = Engine::with_chaos(cfg, chaos);
        for i in 0..4 {
            eng.submit(Request::decompress(format!("d{i}"), i as f64, frame_bytes.clone()))
                .unwrap();
        }
        assert_eq!(eng.pool().acquired, 4);
        assert!(eng.pool().reused >= 1, "pool never recycled a buffer");
    }

    #[test]
    fn span_stage_children_tile_every_completion_latency() {
        let mut cfg = small_cfg();
        cfg.workers = 1;
        let syms = symbols(8_000, 20);
        let frame_bytes = frame_of(&syms, &cfg);
        let mut chaos = ChaosConfig::quiet(3);
        chaos.transient_prob = 1.0; // force backoff spans
        let mut eng = Engine::with_chaos(cfg, chaos);
        for i in 0..4 {
            let req = if i % 2 == 0 {
                Request::compress(format!("c{i}"), 0.0, syms.clone())
            } else {
                Request::decompress(format!("d{i}"), 0.0, frame_bytes.clone())
            };
            eng.submit(req).unwrap();
        }
        for c in &eng.report().completions {
            let root = eng.spans().root_of(&c.trace_id).expect("every request has a root span");
            assert_eq!(root.span_id, c.span_id);
            assert_eq!(root.name, c.class);
            let latency = c.queue_wait + c.backoff + c.service;
            assert!((root.duration() - latency).abs() < 1e-12);
            // Direct stage children (queue/backoff/service) tile the root.
            let stage_sum: f64 = eng
                .spans()
                .children(root.span_id)
                .iter()
                .filter(|s| s.kind == "stage")
                .map(|s| s.duration())
                .sum();
            assert!(
                (stage_sum - latency).abs() < 1e-12,
                "{}: stage sum {stage_sum} != latency {latency}",
                c.trace_id
            );
            // The service span's own children tile the service time.
            if c.service > 0.0 {
                let svc = eng
                    .spans()
                    .children(root.span_id)
                    .into_iter()
                    .find(|s| s.name == "service")
                    .expect("service span");
                let inner: f64 =
                    eng.spans().children(svc.span_id).iter().map(|s| s.duration()).sum();
                assert!((inner - c.service).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn compress_kernel_spans_carry_the_request_trace() {
        let cfg = small_cfg();
        let syms = symbols(10_000, 21);
        let mut eng = Engine::new(cfg);
        eng.submit(Request::compress("req-k", 0.0, syms)).unwrap();
        let kernels: Vec<_> =
            eng.spans().trace("req-k").into_iter().filter(|s| s.kind == "kernel").collect();
        assert!(!kernels.is_empty(), "compress must produce kernel spans");
        // Kernel spans sit inside the request window.
        let root = eng.spans().root_of("req-k").unwrap();
        for k in &kernels {
            assert_eq!(k.trace_id, "req-k");
            assert!(k.start >= root.start - 1e-12 && k.end <= root.end + 1e-12);
        }
    }

    #[test]
    fn chaos_faults_land_as_attributed_span_events() {
        // Decoder glitch on a decompress request.
        let cfg = small_cfg();
        let syms = symbols(10_000, 22);
        let frame_bytes = frame_of(&syms, &cfg);
        let mut chaos = ChaosConfig::quiet(11);
        chaos.glitch_prob = 1.0;
        let mut eng = Engine::with_chaos(cfg, chaos);
        eng.submit(Request::decompress("glitched", 0.0, frame_bytes)).unwrap();
        let evs = eng.spans().trace_events("glitched");
        assert!(evs.iter().any(|e| e.name == "decoder_glitch"));
        assert!(evs.iter().any(|e| e.name == "degraded"));

        // Device loss on a compress request.
        let mut cfg = small_cfg();
        cfg.batch.devices = vec![DeviceSpec::test_part(), DeviceSpec::test_part()];
        cfg.batch.shard_symbols = 2048;
        let mut chaos = ChaosConfig::quiet(17);
        chaos.device_loss_prob = 1.0;
        let mut eng = Engine::with_chaos(cfg, chaos);
        eng.submit(Request::compress("lost", 0.0, symbols(16_000, 8))).unwrap();
        let evs = eng.spans().trace_events("lost");
        assert!(
            evs.iter().any(|e| e.name == "device_loss" && e.detail.contains("device")),
            "device loss must be an attributed span event, got {evs:?}"
        );

        // Shed requests get a root span and a shed event.
        let mut cfg = small_cfg();
        cfg.workers = 1;
        cfg.queue_capacity = 1;
        let syms = symbols(8_000, 2);
        let mut eng = Engine::new(cfg);
        for i in 0..3 {
            eng.submit(Request::compress(format!("t{i}"), 0.0, syms.clone())).unwrap();
        }
        assert!(eng.spans().trace_events("t2").iter().any(|e| e.name == "shed"));
        assert!(eng.spans().root_of("t2").is_some());
    }

    #[test]
    fn latency_book_and_slo_report_cover_the_run() {
        let mut cfg = small_cfg();
        cfg.workers = 1;
        cfg.queue_capacity = 2;
        let syms = symbols(8_000, 23);
        let frame_bytes = frame_of(&syms, &cfg);
        let mut eng = Engine::new(cfg);
        for i in 0..6 {
            let req = if i % 2 == 0 {
                Request::compress(format!("c{i}"), 0.0, syms.clone())
            } else {
                Request::decompress(format!("d{i}"), 0.0, frame_bytes.clone())
            };
            eng.submit(req).unwrap();
        }
        let total: u64 = eng.latency().iter().map(|(_, _, h)| h.count()).sum();
        assert_eq!(total, 6, "every completion is observed exactly once");
        // Percentiles are monotone per class.
        for class in eng.latency().classes() {
            let h = eng.latency().class(class);
            assert!(h.quantile(0.999) >= h.quantile(0.5));
        }
        let slo = eng.slo_report(&slo::default_objectives());
        assert_eq!(slo.statuses.len(), 3);
        let compress_status =
            slo.statuses.iter().find(|s| s.objective.class == "compress").unwrap();
        assert_eq!(compress_status.total, 3);
        // Byte-determinism of the JSON rendering.
        assert_eq!(
            slo.to_json().to_string(),
            eng.slo_report(&slo::default_objectives()).to_json().to_string()
        );
    }

    #[test]
    fn p999_exemplar_resolves_to_a_span_tree_that_sums_to_its_latency() {
        let cfg = small_cfg();
        let syms = symbols(8_000, 24);
        let frame_bytes = frame_of(&syms, &cfg);
        let mut chaos = ChaosConfig::storm(42);
        chaos.device_loss_prob = 0.0;
        let mut eng = Engine::with_chaos(cfg, chaos);
        for i in 0..10 {
            eng.submit(Request::decompress(format!("d{i}"), i as f64 * 1e-5, frame_bytes.clone()))
                .unwrap();
        }
        let h = eng.latency().class("decompress");
        let exemplar = h.exemplar(0.999).expect("populated histogram").to_string();
        let c = eng
            .report()
            .completions
            .iter()
            .find(|c| c.trace_id == exemplar)
            .expect("exemplar trace id resolves to a completion")
            .clone();
        let root = eng.spans().root_of(&exemplar).expect("exemplar has a span tree");
        let stage_sum: f64 = eng
            .spans()
            .children(root.span_id)
            .iter()
            .filter(|s| s.kind == "stage")
            .map(|s| s.duration())
            .sum();
        let latency = c.queue_wait + c.backoff + c.service;
        assert!((stage_sum - latency).abs() < 1e-12);
        // The exemplar is at least as slow as the p999 value's bucket peer.
        assert!(latency >= h.quantile(0.5));
    }

    #[test]
    fn span_and_slo_exports_are_byte_deterministic() {
        let cfg = small_cfg();
        let syms = symbols(8_000, 10);
        let frame_bytes = frame_of(&syms, &cfg);
        let run = || {
            let mut eng = Engine::with_chaos(cfg.clone(), ChaosConfig::storm(42));
            for i in 0..6 {
                let t = i as f64 * 1e-4;
                let req = if i % 2 == 0 {
                    Request::compress(format!("c{i}"), t, syms.clone())
                } else {
                    Request::decompress(format!("d{i}"), t, frame_bytes.clone())
                };
                eng.submit(req).unwrap();
            }
            let slo_json = eng.slo_report(&slo::default_objectives()).to_json().to_string();
            (eng.span_jsonl(), slo_json, eng.chrome_spans())
        };
        assert_eq!(run(), run());
        let (jsonl, _, chrome) = run();
        assert!(jsonl.lines().all(|l| l.starts_with("{\"schema\":\"rsh-span-v1\"")));
        assert!(chrome.contains("\"traceEvents\""));
    }
}
