//! The seven workloads — one request class on one kind of input each —
//! their inputs generated from the seed, and the check of every output.

use crate::stats::native_bytes;
use huff_core::archive::{self, CompressOptions};
use huff_core::integrity::DecompressOptions;
use huff_core::serve::{Completion, Engine, EngineConfig, Outcome, Request, Response};
use huff_datasets::PaperDataset;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::ops::Range;
use std::time::Instant;

/// Input sizes and loop limits of one benchmark configuration.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Distinct inputs a run cycles through, each generated from its own
    /// seed derived from `--seed`.
    pub inputs: usize,
    /// Symbols in each input of the library workloads.
    pub symbols: usize,
    /// Symbols in each served body.
    pub serve_body: usize,
    /// Bytes of each served range read.
    pub serve_range: usize,
    /// Ops run even when the measured time is already over.
    pub min_ops: usize,
}

/// The measured configuration. Ops of 1–40 ms, each bracketed by probe
/// passes of about 4 ms, give from 50 to several hundred samples of each
/// input per run. Every input fits in the last-level cache.
pub const FULL: Sizes =
    Sizes { inputs: 4, symbols: 1 << 20, serve_body: 256 << 10, serve_range: 16 << 10, min_ops: 8 };

/// The `--check` smoke configuration.
pub const CHECK: Sizes =
    Sizes { inputs: 2, symbols: 64 << 10, serve_body: 64 << 10, serve_range: 4 << 10, min_ops: 3 };

/// Requests one engine serves before it is replaced. The engine keeps
/// every completion, so this caps the run's memory however many requests
/// fit in the measured time. It is small next to the ops between two
/// set-ups (each set-up starts a fresh engine), so a full engine, the
/// heap peak, is reached however fast the host runs.
const ENGINE_REQUESTS: usize = 8;

/// Virtual seconds between served requests: far above the modeled
/// service time, so the admission queue stays empty.
pub const ARRIVAL_GAP_S: f64 = 0.05;

/// The request class every op of a workload makes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Compress,
    Decompress,
    Range,
}

impl Class {
    pub fn name(self) -> &'static str {
        match self {
            Class::Compress => "compress",
            Class::Decompress => "decompress",
            Class::Range => "decompress_range",
        }
    }
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TextCompress,
    TextDecompress,
    QuantCompress,
    QuantDecompress,
    ServeCompress,
    ServeDecompress,
    ServeRange,
}

impl Workload {
    pub const ALL: [Workload; 7] = [
        Workload::TextCompress,
        Workload::TextDecompress,
        Workload::QuantCompress,
        Workload::QuantDecompress,
        Workload::ServeCompress,
        Workload::ServeDecompress,
        Workload::ServeRange,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TextCompress => "text_compress",
            Workload::TextDecompress => "text_decompress",
            Workload::QuantCompress => "quant_compress",
            Workload::QuantDecompress => "quant_decompress",
            Workload::ServeCompress => "serve_compress",
            Workload::ServeDecompress => "serve_decompress",
            Workload::ServeRange => "serve_range",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn class(self) -> Class {
        match self {
            Workload::TextCompress | Workload::QuantCompress | Workload::ServeCompress => {
                Class::Compress
            }
            Workload::TextDecompress | Workload::QuantDecompress | Workload::ServeDecompress => {
                Class::Decompress
            }
            Workload::ServeRange => Class::Range,
        }
    }

    /// True for the workloads that go through `Engine::submit`.
    pub fn served(self) -> bool {
        matches!(self, Workload::ServeCompress | Workload::ServeDecompress | Workload::ServeRange)
    }

    fn quant(self) -> bool {
        matches!(self, Workload::QuantCompress | Workload::QuantDecompress)
    }

    /// Bytes of generated input, over every input, at native symbol width.
    pub fn input_bytes(self, sizes: &Sizes) -> u64 {
        let each = if self.quant() {
            native_bytes(sizes.symbols, 2)
        } else if self.served() {
            native_bytes(sizes.serve_body, 1)
        } else {
            native_bytes(sizes.symbols, 1)
        };
        sizes.inputs as u64 * each
    }
}

/// A workload with its inputs generated and set up.
pub struct Prepared {
    pub workload: Workload,
    pub opts: CompressOptions,
    /// The generated inputs, cycled through by the ops.
    pub inputs: Vec<Vec<u16>>,
    /// For each input, what its compress ops must reproduce and its
    /// decompress and range ops decode: the `archive::compress` output,
    /// or the frame the engine served for it.
    pub encoded: Vec<Vec<u8>>,
    /// Bytes of each range read.
    pub range_len: usize,
    serve: Option<Serve>,
    rng: StdRng,
}

/// The engine the served workloads drive.
struct Serve {
    cfg: EngineConfig,
    engine: Engine,
    requests: usize,
}

impl Serve {
    fn new(cfg: EngineConfig) -> Serve {
        Serve { engine: Engine::new(cfg.clone()), cfg, requests: 0 }
    }

    /// Submit the request `make` builds for the next arrival instant, and
    /// time the submit.
    fn submit(&mut self, make: impl FnOnce(f64) -> Request) -> Result<(Response, f64), String> {
        if self.requests == ENGINE_REQUESTS {
            self.engine = Engine::new(self.cfg.clone());
            self.requests = 0;
        }
        let req = make(self.requests as f64 * ARRIVAL_GAP_S);
        self.requests += 1;
        let (done, s) = timed(|| self.engine.submit(req));
        Ok((served(done)?.clone(), s))
    }
}

fn text_opts() -> CompressOptions {
    CompressOptions { symbol_bytes: 1, ..CompressOptions::new(256) }
}

/// The engine the served workloads drive: defaults over byte symbols, no
/// chaos.
pub fn engine_config(opts: &CompressOptions) -> EngineConfig {
    let mut cfg = EngineConfig::new(opts.num_symbols);
    cfg.batch.symbol_bytes = opts.symbol_bytes;
    cfg
}

/// Time one call.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64())
}

pub fn ensure(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

/// Bytes `range` of `symbols` serialized little-endian at `symbol_bytes`
/// per symbol — what a range read of their archive must return.
pub fn slice_bytes(symbols: &[u16], symbol_bytes: u8, range: Range<u64>) -> Vec<u8> {
    let w = u64::from(symbol_bytes);
    range.map(|b| symbols[(b / w) as usize].to_le_bytes()[(b % w) as usize]).collect()
}

impl Prepared {
    /// Generate the inputs from `seed`, set up once, and check that every
    /// encoded input decodes back to it. Returns the set-up's seconds too.
    pub fn new(workload: Workload, seed: u64, sizes: &Sizes) -> Result<(Prepared, f64), String> {
        let (dataset, symbols, opts) = if workload.quant() {
            (
                PaperDataset::NyxQuant,
                sizes.symbols,
                CompressOptions { reduction: Some(3), ..CompressOptions::new(1024) },
            )
        } else if workload.served() {
            (PaperDataset::Enwik8, sizes.serve_body, text_opts())
        } else {
            (PaperDataset::Enwik8, sizes.symbols, text_opts())
        };
        let n = sizes.inputs as u64;
        let inputs = (0..n)
            .map(|k| dataset.generate(symbols, seed.wrapping_mul(n).wrapping_add(k)))
            .collect();
        let mut p = Prepared {
            workload,
            opts,
            inputs,
            encoded: Vec::new(),
            range_len: sizes.serve_range.min(symbols * usize::from(opts.symbol_bytes)),
            serve: None,
            rng: StdRng::seed_from_u64(seed),
        };
        let setup_s = p.set_up()?;
        for (k, encoded) in p.encoded.iter().enumerate() {
            let rec = archive::decompress_with(encoded, &DecompressOptions::default())
                .map_err(|e| e.to_string())?;
            ensure(rec.symbols == p.inputs[k], || format!("input {k} does not round-trip"))?;
        }
        Ok((p, setup_s))
    }

    /// Set up: encode every input through the workload's entry point (a
    /// fresh engine for the served workloads) and run op 0. Returns the
    /// seconds it took. A repeat must encode the same bytes.
    pub fn set_up(&mut self) -> Result<f64, String> {
        let start = Instant::now();
        let encoded: Vec<Vec<u8>> = if self.workload.served() {
            let serve = self.serve.insert(Serve::new(engine_config(&self.opts)));
            let mut frames = Vec::new();
            for (k, body) in self.inputs.iter().enumerate() {
                let trace = format!("{}:setup{k}", self.workload.name());
                match serve.submit(|t| Request::compress(trace, t, body.clone()))? {
                    (Response::Frame(f), _) => frames.push(f),
                    _ => return Err("compress request returned no frame".into()),
                }
            }
            frames
        } else {
            let compress = |x: &Vec<u16>| archive::compress(x, &self.opts);
            self.inputs.iter().map(compress).collect::<Result<_, _>>().map_err(|e| e.to_string())?
        };
        let previous = std::mem::replace(&mut self.encoded, encoded);
        self.op(0)?;
        let seconds = start.elapsed().as_secs_f64();
        let same = previous.is_empty() || previous == self.encoded;
        ensure(same, || "set-up encoded different bytes".into())?;
        Ok(seconds)
    }

    /// Uncompressed bytes one op moves through the entry point: the input
    /// compressed or decoded, or the bytes of one range read.
    pub fn op_bytes(&self) -> u64 {
        match self.workload.class() {
            Class::Range => self.range_len as u64,
            _ => native_bytes(self.inputs[0].len(), self.opts.symbol_bytes),
        }
    }

    /// Input bytes ÷ encoded bytes, over every input.
    pub fn ratio(&self) -> f64 {
        let input: u64 =
            self.inputs.iter().map(|x| native_bytes(x.len(), self.opts.symbol_bytes)).sum();
        let encoded: usize = self.encoded.iter().map(Vec::len).sum();
        input as f64 / encoded as f64
    }

    /// A seeded byte range of `range_len` bytes inside input `k`.
    pub fn next_range(&mut self, k: usize) -> Range<u64> {
        let total = self.inputs[k].len() * usize::from(self.opts.symbol_bytes);
        let lo = self.rng.gen_range(0..=total - self.range_len) as u64;
        lo..lo + self.range_len as u64
    }

    /// Run op `i` on input `i mod inputs`, check its output, and return
    /// the seconds of its timed call.
    pub fn op(&mut self, i: usize) -> Result<f64, String> {
        let k = i % self.inputs.len();
        let class = self.workload.class();
        let range = (class == Class::Range).then(|| self.next_range(k));
        let (input, encoded) = (&self.inputs[k], &self.encoded[k]);
        let Some(serve) = self.serve.as_mut() else {
            return if class == Class::Compress {
                let (out, s) = timed(|| archive::compress(black_box(input), &self.opts));
                let out = out.map_err(|e| e.to_string())?;
                ensure(out == *encoded, || "compress output changed between ops".into()).map(|()| s)
            } else {
                let (rec, s) = timed(|| {
                    archive::decompress_with(black_box(encoded), &DecompressOptions::default())
                });
                let rec = rec.map_err(|e| e.to_string())?;
                let ok = rec.symbols == *input;
                ensure(ok, || "decompress output differs from input".into()).map(|()| s)
            };
        };
        let trace = format!("{}:{i}", self.workload.name());
        match range {
            None if class == Class::Compress => {
                let (r, s) = serve.submit(|t| Request::compress(trace, t, input.clone()))?;
                let ok = matches!(r, Response::Frame(f) if f == *encoded);
                ensure(ok, || "served frame changed between requests".into()).map(|()| s)
            }
            None => {
                let (r, s) = serve.submit(|t| Request::decompress(trace, t, encoded.clone()))?;
                let ok = matches!(r, Response::Symbols(x) if x == *input);
                ensure(ok, || "served decompress differs from the body".into()).map(|()| s)
            }
            Some(range) => {
                let expect = slice_bytes(input, self.opts.symbol_bytes, range.clone());
                let (r, s) = serve
                    .submit(|t| Request::decompress_range(trace, t, encoded.clone(), range))?;
                let ok = matches!(r, Response::Bytes(b) if b == expect);
                ensure(ok, || "served range differs from the body slice".into()).map(|()| s)
            }
        }
    }
}

/// The response of a request that ended in `Outcome::Success` (served on
/// the first decode rung) without waiting in the queue or retrying: the
/// arrivals are spaced so that every request finds the engine idle.
pub fn served(done: huff_core::Result<&Completion>) -> Result<&Response, String> {
    let done = done.map_err(|e| e.to_string())?;
    ensure(done.queue_wait == 0.0 && done.retries == 0, || {
        format!("{} request waited {} s and retried {}", done.class, done.queue_wait, done.retries)
    })?;
    match (&done.outcome, &done.response) {
        (Outcome::Success, Some(r)) => Ok(r),
        (outcome, _) => Err(format!("{} request ended {outcome:?}", done.class)),
    }
}
