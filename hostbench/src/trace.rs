//! The traced run: each layer's public function called directly, with
//! the arguments its entry point passes, and a span around every call.
//!
//! Spans are recorded here, around calls into the library, so the
//! library itself stays uninstrumented. Every traced op runs the whole
//! layer stack on the workload's input — the compress layers, the parse,
//! all three decoders, a range read, the batch path and the serving
//! engine — so every layer metric is measured on every workload; the
//! layers on the workload's own path give `trace.coverage`. Each
//! re-composed result is asserted equal to what the entry point returns,
//! so a refactor that changes an entry point's internals fails loudly
//! instead of skewing the layer numbers.

use crate::workloads::{
    engine_config, ensure, served, slice_bytes, Class, Prepared, Workload, ARRIVAL_GAP_S,
};
use huff_core::archive::{self, Parsed};
use huff_core::batch;
use huff_core::codebook;
use huff_core::decode::{self, DecoderKind};
use huff_core::encode::reduce_merge::reduce_chunk;
use huff_core::encode::reduce_shuffle::{assemble, encode_chunk};
use huff_core::encode::MergeConfig;
use huff_core::histogram;
use huff_core::integrity::DecompressOptions;
use huff_core::pipeline::{self, PipelineKind};
use huff_core::serve::{Engine, Request, Response};
use rayon::prelude::*;
use serde::json::{Map, Value};
use std::hint::black_box;
use std::time::Instant;

/// One timed layer call.
pub struct Span {
    trace: String,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

impl Span {
    fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Spans of a traced run, kept in memory until the run ends.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// The spans as JSONL, one object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let mut m = Map::new();
            m.insert("trace".into(), Value::String(s.trace.clone()));
            m.insert("span".into(), Value::Int(i128::from(s.id)));
            m.insert("parent".into(), s.parent.map_or(Value::Null, |p| Value::Int(i128::from(p))));
            m.insert("name".into(), Value::String(s.name.into()));
            m.insert("start_ns".into(), Value::Int(i128::from(s.start_ns)));
            m.insert("end_ns".into(), Value::Int(i128::from(s.end_ns)));
            out.push_str(&Value::Object(m).to_string());
            out.push('\n');
        }
        out
    }
}

/// One traced op: a root span with one child span per layer call.
struct Op<'t> {
    tracer: &'t mut Tracer,
    trace: String,
    root: usize,
}

impl<'t> Op<'t> {
    fn open(tracer: &'t mut Tracer, trace: String) -> Op<'t> {
        let start_ns = tracer.now_ns();
        let root = tracer.spans.len();
        let id = root as u64;
        tracer.spans.push(Span {
            trace: trace.clone(),
            id,
            parent: None,
            name: "op",
            start_ns,
            end_ns: 0,
        });
        Op { tracer, trace, root }
    }

    fn layer<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start_ns = self.tracer.now_ns();
        let r = f();
        let end_ns = self.tracer.now_ns();
        let id = self.tracer.spans.len() as u64;
        self.tracer.spans.push(Span {
            trace: self.trace.clone(),
            id,
            parent: Some(self.root as u64),
            name,
            start_ns,
            end_ns,
        });
        r
    }

    /// Close the root span and return each layer's seconds by span name.
    fn close(self) -> Vec<(&'static str, f64)> {
        let end_ns = self.tracer.now_ns();
        self.tracer.spans[self.root].end_ns = end_ns;
        self.tracer.spans[self.root + 1..].iter().map(|s| (s.name, s.seconds())).collect()
    }
}

/// Host milliseconds of each layer in one traced op, plus the counts the
/// layers return.
pub struct Layers {
    seconds: Vec<(&'static str, f64)>,
    breaking_fraction: f64,
    chunks_touched: usize,
    index_probes: u64,
}

impl Layers {
    fn s(&self, name: &str) -> f64 {
        self.seconds.iter().filter(|(n, _)| *n == name).map(|(_, s)| s).sum()
    }

    /// The per-layer metrics, in `BENCHMARK.json` order (without the
    /// `trace.*` pair, which needs the untraced median).
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let ms = |s: f64| s * 1e3;
        vec![
            ("histogram.host_ms", ms(self.s("histogram")), "ms"),
            ("codebook.host_ms", ms(self.s("codebook")), "ms"),
            ("reduce.host_ms", ms(self.s("reduce")), "ms"),
            // encode_chunk runs its own reduce: shuffle is its self time.
            ("shuffle.host_ms", ms(self.s("encode_chunk") - self.s("reduce")), "ms"),
            ("pack.host_ms", ms(self.s("pack")), "ms"),
            ("serialize.host_ms", ms(self.s("serialize")), "ms"),
            ("parse.host_ms", ms(self.s("parse")), "ms"),
            ("decode.serial.host_ms", ms(self.s("decode.serial")), "ms"),
            ("decode.chunked.host_ms", ms(self.s("decode.chunked")), "ms"),
            ("decode.lut.host_ms", ms(self.s("decode.lut")), "ms"),
            ("seek.host_ms", ms(self.s("seek")), "ms"),
            ("batch.host_ms", ms(self.s("batch")), "ms"),
            ("frame.decode_ms", ms(self.s("frame.decode")), "ms"),
            ("serve.overhead_ms.compress", ms(self.s("serve.compress") - self.s("batch")), "ms"),
            (
                "serve.overhead_ms.decompress",
                ms(self.s("serve.decompress") - self.s("frame.decode")),
                "ms",
            ),
            ("serve.overhead_ms.range", ms(self.s("serve.range") - self.s("seek")), "ms"),
            ("reduce.breaking_fraction", self.breaking_fraction, "fraction"),
            ("seek.chunks_touched", self.chunks_touched as f64, "count"),
            ("seek.index_probes", self.index_probes as f64, "count"),
        ]
    }

    /// Seconds of the spans on `workload`'s own op path: `(wall, self)`.
    /// They differ by the extra standalone reduce pass of the compress
    /// path.
    pub fn path_seconds(&self, workload: Workload) -> (f64, f64) {
        let path: &[&str] = match (workload.served(), workload.class()) {
            (false, Class::Compress) => {
                &["histogram", "codebook", "encode_chunk", "pack", "serialize"]
            }
            (false, _) => &["parse", "decode.chunked"],
            (true, Class::Compress) => &["serve.compress"],
            (true, Class::Decompress) => &["serve.decompress"],
            (true, Class::Range) => &["serve.range"],
        };
        let own = path.iter().map(|n| self.s(n)).sum::<f64>();
        let extra = if path.contains(&"encode_chunk") { self.s("reduce") } else { 0.0 };
        (own + extra, own)
    }
}

fn err(e: huff_core::HuffError) -> String {
    e.to_string()
}

/// Run the whole layer stack once on input 0 of `p`, traced. `archive` is
/// `archive::compress` of that input.
pub fn traced_op(
    tracer: &mut Tracer,
    p: &mut Prepared,
    archive: &[u8],
    n: usize,
) -> Result<Layers, String> {
    let range = p.next_range(0);
    let input = &p.inputs[0];
    let opts = p.opts;
    let mut op = Op::open(tracer, format!("{}:op{n}", p.workload.name()));

    // Compress, re-composed from the calls `archive::compress` makes.
    let threads = rayon::current_num_threads();
    let freqs = op.layer("histogram", || {
        histogram::parallel_cpu::histogram(input, opts.num_symbols, threads)
    });
    let (book, config) = op
        .layer("codebook", || {
            let book = codebook::parallel(&freqs, 16)?;
            let config = match opts.reduction {
                Some(r) => MergeConfig::new(opts.magnitude, r),
                None => MergeConfig::auto::<u32>(opts.magnitude, &freqs, &book),
            };
            Ok((book, config))
        })
        .map_err(err)?;
    let chunk = config.chunk_symbols();
    op.layer("reduce", || {
        black_box(
            input
                .par_chunks(chunk)
                .map(|c| reduce_chunk::<u32>(c, &book, config.reduction))
                .collect::<Vec<_>>(),
        )
    });
    let chunks = op.layer("encode_chunk", || {
        input.par_chunks(chunk).map(|c| encode_chunk::<u32>(c, &book, config)).collect::<Vec<_>>()
    });
    let stream = op.layer("pack", || assemble(input.len(), &chunks, config)).map_err(err)?;
    let packed = op
        .layer("serialize", || archive::serialize(&stream, &book, opts.symbol_bytes))
        .map_err(err)?;
    ensure(packed == archive, || "re-composed compress differs from archive::compress".into())?;
    drop(chunks);

    // Decompress, re-composed from `archive::decompress_with`.
    let strict = DecompressOptions::default();
    let parsed: Parsed =
        op.layer("parse", || archive::deserialize_with(&packed, &strict)).map_err(err)?;
    for (name, kind) in [
        ("decode.serial", DecoderKind::Serial),
        ("decode.chunked", DecoderKind::Chunked),
        ("decode.lut", DecoderKind::Lut),
    ] {
        let out = op
            .layer(name, || decode::decode_stream(&parsed.stream, &parsed.book, kind))
            .map_err(err)?;
        ensure(out == *input, || format!("{name} differs from the input"))?;
    }

    // The serving engine, and the layer call behind each request class:
    // the batch path, then the engine's first decode rung (LUT) on the
    // served frame.
    let cfg = engine_config(&opts);
    let (frame, _) =
        op.layer("batch", || batch::compress_batched(input, &cfg.batch)).map_err(err)?;
    let lut = DecompressOptions { decoder: DecoderKind::Lut, ..DecompressOptions::default() };
    let rec = op.layer("frame.decode", || archive::decompress_with(&frame, &lut)).map_err(err)?;
    ensure(rec.symbols == *input, || "frame decode differs from the input".into())?;
    let window =
        op.layer("seek", || archive::decode_range(&frame, range.clone(), &lut)).map_err(err)?;
    ensure(window.bytes == slice_bytes(input, opts.symbol_bytes, range.clone()), || {
        "range read differs from the input slice".into()
    })?;

    let mut engine = Engine::new(cfg);
    let req = Request::compress("c", 0.0, input.clone());
    let done = op.layer("serve.compress", || engine.submit(req));
    ensure(matches!(served(done)?, Response::Frame(f) if *f == frame), || {
        "served frame differs from batch::compress_batched".into()
    })?;
    let req = Request::decompress("d", ARRIVAL_GAP_S, frame.clone());
    let done = op.layer("serve.decompress", || engine.submit(req));
    ensure(matches!(served(done)?, Response::Symbols(s) if *s == rec.symbols), || {
        "served decompress differs from archive::decompress_with".into()
    })?;
    let req = Request::decompress_range("r", 2.0 * ARRIVAL_GAP_S, frame, range);
    let done = op.layer("serve.range", || engine.submit(req));
    ensure(matches!(served(done)?, Response::Bytes(b) if *b == window.bytes), || {
        "served range differs from archive::decode_range".into()
    })?;

    Ok(Layers {
        seconds: op.close(),
        breaking_fraction: stream.breaking_fraction(),
        chunks_touched: window.chunks_touched,
        index_probes: window.index_probes,
    })
}

/// Modeled device milliseconds of the stages and decoders on input 0, for
/// showing next to the host times. Modeled numbers stay gated only by the
/// `results/BENCH_*.json` tables.
pub fn modeled(p: &Prepared) -> Result<Vec<(String, f64)>, String> {
    let gpu = gpu_sim::Gpu::v100();
    let o = &p.opts;
    let (stream, book, report) = pipeline::run(
        &gpu,
        &p.inputs[0],
        u64::from(o.symbol_bytes),
        o.num_symbols,
        o.magnitude,
        o.reduction,
        PipelineKind::ReduceShuffle,
    )
    .map_err(err)?;
    let mut out = vec![
        ("histogram.modeled_ms".to_string(), report.times.histogram * 1e3),
        ("codebook.modeled_ms".to_string(), report.times.codebook * 1e3),
        ("encode.modeled_ms".to_string(), report.times.encode * 1e3),
    ];
    for kind in [DecoderKind::Serial, DecoderKind::Chunked, DecoderKind::Lut] {
        let (_, s) = decode::gpu::decode_kind_on_gpu(&gpu, &stream, &book, kind).map_err(err)?;
        out.push((format!("decode.{}.modeled_ms", kind.name()), s * 1e3));
    }
    let cfg = engine_config(o);
    let (_, batch) = batch::compress_batched(&p.inputs[0], &cfg.batch).map_err(err)?;
    out.push(("batch.modeled_ms".to_string(), batch.makespan * 1e3));
    out.push(("batch.shards".to_string(), batch.shards.len() as f64));
    Ok(out)
}
