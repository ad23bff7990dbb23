//! `rsh` — command-line reduce-shuffle Huffman compressor.
//!
//! ```text
//! rsh compress   <input> <output> [--symbols u8|u16le] [--bins N]
//!                                 [--magnitude M] [--reduction R]
//!                                 [--autotune] [--tune-cache PATH]
//!                                 [--trace out.json] [--device NAME]
//! rsh decompress <input> <output> [--best-effort] [--sentinel N]
//!                                 [--decoder serial|chunked|lut]
//!                                 [--trace out.json] [--device NAME]
//! rsh cat        <archive> [output] --range A..B [--decoder serial|chunked|lut]
//!                                 [--best-effort] [--sentinel N]
//! rsh verify     <archive>
//! rsh inspect    <archive>
//! rsh profile    <file> [--roofline] [--roofline-json out.json] [--threshold F]
//!                [--compare]
//!                       [--trace out.json] [--chrome out.json] [--device NAME]
//! rsh stats      <input> [output] [--json]
//! ```
//!
//! `profile` runs the full modeled pipeline over `<file>` — a roundtrip
//! (compress + decompress) for raw inputs, decompression for `RSH1`/`RSH2`
//! archives — and prints a per-stage table. `--trace` writes the
//! `rsh-trace-v1` JSON profile (see FORMAT.md) and `--chrome` a Chrome
//! `trace_event` timeline loadable in `chrome://tracing` / Perfetto. The
//! same `--trace` flag on `compress`/`decompress` routes those commands
//! through the modeled device pipeline and records the profile alongside
//! their normal output. `--device` selects the modeled part
//! (`v100` default, `rtx5000`). `--roofline` classifies every kernel
//! against the device roofline (see DESIGN.md § "Roofline & counters");
//! `stats` runs one real operation, counts it into a fresh metrics
//! registry and dumps that registry (the scrape surface a service would
//! expose).
//!
//! Exit codes are distinct and scriptable:
//!
//! | code | meaning |
//! |------|---------|
//! | 0    | success |
//! | 1    | usage error |
//! | 2    | I/O error |
//! | 3    | corrupt archive / failed verification / codec error |
//! | 4    | best-effort decompression recovered with losses |
//!
//! `verify` and a lossy `decompress --best-effort` print a stable,
//! machine-readable one-line JSON recovery report on stdout.

use huff_core::archive::{self, CompressOptions};
use huff_core::batch::{BatchOptions, QuarantineReport};
use huff_core::container::{self, Kind};
use huff_core::encode::BreakingStrategy;
use huff_core::frame;
use huff_core::integrity::{DecompressOptions, RecoveryReport};
use huff_core::metrics::{self, Registry};
use huff_core::tune::Decision;
use std::process::ExitCode;

mod serve;
mod slo;
mod symbols;

/// A CLI failure, carrying which exit code it maps to.
#[derive(Debug)]
enum CliError {
    /// Bad arguments: exit 1.
    Usage(String),
    /// Filesystem failure: exit 2.
    Io(String),
    /// Damaged or invalid archive / codec failure: exit 3.
    Corrupt(String),
}

impl CliError {
    fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 1,
            CliError::Io(_) => 2,
            CliError::Corrupt(_) => EXIT_CORRUPT,
        }
    }

    fn message(&self) -> &str {
        match self {
            CliError::Usage(m) | CliError::Io(m) | CliError::Corrupt(m) => m,
        }
    }
}

/// Exit code 3: damaged or invalid archive.
const EXIT_CORRUPT: u8 = 3;
/// Exit code 4: best-effort decompression succeeded but lost symbols.
const EXIT_RECOVERED_WITH_LOSSES: u8 = 4;

type CmdResult = Result<u8, CliError>;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compress") => cmd_compress(&args[1..]),
        Some("decompress") => cmd_decompress(&args[1..]),
        Some("cat") => cmd_cat(&args[1..]),
        Some("verify") => cmd_verify(&args[1..]),
        Some("inspect") => cmd_inspect(&args[1..]),
        Some("profile") => cmd_profile(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("bench") => cmd_bench(&args[1..]),
        Some("serve") => serve::cmd_serve(&args[1..]),
        Some("slo") => slo::cmd_slo(&args[1..]),
        Some("--help") | Some("-h") | None => {
            eprint!("{}", USAGE);
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(CliError::Usage(format!("unknown command {other:?}\n{USAGE}"))),
    };
    match result {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("rsh: {}", e.message());
            ExitCode::from(e.exit_code())
        }
    }
}

const USAGE: &str = "\
usage:
  rsh compress   <input> <output> [--symbols u8|u16le] [--bins N] [--magnitude M] [--reduction R] [--widen]
                                  [--shards N] [--streams N] [--devices v100,rtx5000] [--buffers N]
                                  [--autotune] [--tune-cache PATH]
                                  [--trace out.json] [--chrome out.json] [--device v100|rtx5000]
  rsh decompress <input> <output> [--best-effort] [--sentinel N] [--decoder serial|chunked|lut]
                                  [--trace out.json] [--device v100|rtx5000]
  rsh cat        <archive> [output] --range A..B [--decoder serial|chunked|lut]
                                  [--best-effort] [--sentinel N]
  rsh verify     <archive>
  rsh inspect    <archive>
  rsh profile    <file> [--roofline] [--roofline-json out.json] [--threshold F]
                 [--compare]
                        [--trace out.json] [--chrome out.json] [--device v100|rtx5000]
  rsh stats      <input> [output] [--json] [compress/decompress flags]
  rsh bench      <input> [--symbols u8|u16le] [--bins N]
  rsh serve      [--addr HOST:PORT] [--workers N] [--queue N] [--shard-symbols N]
                 [--deadline-ms F] [--gap-us F] [--max-requests N] [--chaos SEED]
                 [--autotune] [--tune-cache PATH] [--dashboard]
                 [--spans PATH] [--chrome PATH]
  rsh slo        [--requests N] [--seed S] [--chaos] [--gap-us F] [--deadline-ms F]
                 [--workers N] [--queue N] [--shard-symbols N] [--json]
                 [--spans PATH] [--chrome PATH]

profile runs the modeled device pipeline (roundtrip for raw files, decompression
for RSH archives) and prints per-stage metrics; --trace writes the rsh-trace-v1
JSON profile and --chrome a chrome://tracing / Perfetto timeline. --trace on
compress/decompress routes them through the same modeled pipeline. --roofline
adds the per-kernel roofline classification (memory / compute / latency /
contention bound, efficiency vs the device's achievable bandwidth); kernels that
should ride the roofline but achieve less than --threshold (default 0.5) of it
are flagged. --roofline-json writes the rsh-roofline-v1 report. --compare
profiles the same raw input under the fused and unfused kernel plans and prints
a side-by-side per-kernel roofline table — the kernel-fusion win (one
histogram kernel, no standalone length kernel, coalesced backtrace; see
DESIGN.md § \"Kernel fusion\") in one command. Fusion is encode-side only, so
--compare rejects archive inputs.

stats runs one real operation (compress for raw inputs, decompress for
archives/frames), counts it into a fresh metrics registry, and dumps that
registry as Prometheus text exposition (--json for the JSON export) — the
scrape surface a long-running service would expose. bytes_out reconciles with
the archive size, shards_total with the frame shard count.

--shards/--streams/--devices/--buffers switch compress to the batched pipeline:
the input splits into N shards, each shard's histogram->codebook->encode chain
runs on its own stream, overlapping across streams and devices, and the output
is a multi-shard RSHM frame (decompress/verify/inspect accept it transparently;
each shard recovers independently under --best-effort).

--autotune replaces the fixed defaults with the adaptive tuning policy
(DESIGN.md § \"Tuning policy\"): the input's histogram signature is measured,
the candidate sweep (reduction factor, shards, streams, decoder) is scored with
the device cost model, and the winner runs — incompressible inputs (>=95%
ratio) are stored in the tiny RSHR raw container and tiny inputs skip the
device entirely. --tune-cache PATH persists decisions in the rsh-tune-v1 cache
(FORMAT.md §9) keyed by signature + device, so a second run with the same
statistics prints `cache hit` and skips the modeled sweep; corrupt or
foreign-versioned caches fall back to modeling, never fail the run. Cache
hit/miss counters surface in stats as rsh_tune_lookups_total. The same flags on
serve autotune every compress request.

cat decodes only the requested byte range A..B (offsets into the *decoded*
output; either bound may be omitted: --range 1000.. reads to the end,
--range ..1000 from the start). Archives written by this rsh carry a succinct
seek index (FORMAT.md \u{a7}10), so cat touches only the chunks covering the range
— O(1) index probes instead of a full decode; older or index-stripped archives
fall back to a chunk-table prefix scan, bit-identically. Without [output] the
bytes stream to stdout and all diagnostics go to stderr. Exit codes mirror
decompress (4 = best-effort recovered with losses inside the range).

--decoder selects the modeled decoder kernels and the backend label a decode is
counted under (default chunked): serial models one bit-serial device thread,
chunked one block per chunk decoding bit-serially, lut a subchunk gap-array
sync kernel plus multi-bit LUT probes. The host decodes every backend with the
same routine, so the output is identical; with --trace the modeled kernel
times differ (see DESIGN.md).

serve runs the fault-tolerant serving engine behind a minimal HTTP/1.1 listener
(one request per connection; see FORMAT.md §8): POST /compress and
POST /decompress carry raw payload bytes, GET /metrics exposes the engine's
Prometheus registry (same format as stats), GET /healthz answers liveness.
Requests past the bounded --queue are shed with 429; deadline misses
(x-rsh-deadline-ms header or --deadline-ms) answer 504; unrecoverable payloads
answer 500 — all with a structured rsh-error-v1 JSON body and an
x-rsh-trace-id header.
--chaos SEED injects the deterministic fault storm (transients, decoder
glitches, payload corruption, device loss) from huff_core::serve. Virtual
arrival time advances --gap-us per request; --max-requests stops after N
connections (for scripted runs). --dashboard streams one summary line per
completed request on stderr (class, outcome, virtual latency, rolling
admitted-request p50/p99/p999, worst error-budget burn rate) and prints
the SLO table at shutdown; --spans writes every request's span tree as rsh-span-v1 JSONL
and --chrome the per-request Chrome/Perfetto lanes at shutdown (FORMAT.md
\u{a7}11).

slo drives the same engine in-process (no sockets, all time virtual) with
a seeded mixed compress/decompress/range workload, then evaluates the
default latency objectives and prints the per-class latency percentiles
(p50/p95/p99/p999 with the p999 exemplar trace id) and the error-budget
table — burn rate > 1.0 means the objective is burning budget faster
than it can afford. --json emits the rsh-slo-v1 report instead; --chaos
replays the deterministic fault storm so the same seed prints
byte-identical reports; --spans/--chrome export the span trees the
exemplar trace ids resolve into. slo exits 0 when every objective is
met and 1 when any objective is burning its budget (in --json mode too).

exit codes: 0 ok, 1 usage, 2 I/O error, 3 corrupt archive, 4 recovered with losses
";

/// Stable one-line JSON rendering of a recovery report.
fn report_json(r: &RecoveryReport) -> String {
    let chunks: Vec<String> = r.damaged_chunks.iter().map(|c| c.to_string()).collect();
    let ranges: Vec<String> = r.damaged_ranges.iter().map(|(s, e)| format!("[{s},{e}]")).collect();
    format!(
        "{{\"report\":\"rsh-recovery\",\"total_chunks\":{},\"damaged_chunks\":[{}],\"damaged_ranges\":[{}],\"symbols_lost\":{}}}",
        r.total_chunks,
        chunks.join(","),
        ranges.join(","),
        r.symbols_lost,
    )
}

#[derive(Debug)]
struct Flags {
    symbols: symbols::SymbolWidth,
    bins: Option<usize>,
    magnitude: u32,
    reduction: Option<u32>,
    widen: bool,
    best_effort: bool,
    sentinel: Option<u16>,
    decoder: Option<huff_core::DecoderKind>,
    trace: Option<String>,
    chrome: Option<String>,
    roofline: bool,
    roofline_json: Option<String>,
    threshold: Option<f64>,
    compare: bool,
    json: bool,
    device: String,
    shards: Option<usize>,
    streams: Option<usize>,
    devices: Option<String>,
    buffers: Option<usize>,
    autotune: bool,
    tune_cache: Option<String>,
    range: Option<std::ops::Range<u64>>,
    positional: Vec<String>,
}

fn device_spec(name: &str) -> Result<gpu_sim::DeviceSpec, CliError> {
    match name {
        "v100" => Ok(gpu_sim::DeviceSpec::v100()),
        "rtx5000" => Ok(gpu_sim::DeviceSpec::rtx5000()),
        other => Err(CliError::Usage(format!("--device needs v100|rtx5000, got {other:?}"))),
    }
}

impl Flags {
    /// The modeled device selected by `--device` (default V100).
    fn gpu(&self) -> Result<gpu_sim::Gpu, CliError> {
        Ok(gpu_sim::Gpu::new(device_spec(&self.device)?))
    }

    /// Whether any batch flag was given (switches compress to the
    /// sharded multi-stream pipeline).
    fn batched(&self) -> bool {
        self.shards.is_some()
            || self.streams.is_some()
            || self.devices.is_some()
            || self.buffers.is_some()
    }

    /// The device fleet for a batched run: the `--devices` list, or the
    /// single `--device` part.
    fn device_fleet(&self) -> Result<Vec<gpu_sim::DeviceSpec>, CliError> {
        match &self.devices {
            Some(list) => list.split(',').map(|n| device_spec(n.trim())).collect(),
            None => Ok(vec![device_spec(&self.device)?]),
        }
    }

    /// The autotuner selected by `--autotune`, persisting to the
    /// `--tune-cache` path when one is given.
    fn tuner(&self) -> Result<huff_core::Tuner, CliError> {
        let device = device_spec(&self.device)?;
        Ok(match &self.tune_cache {
            Some(path) => huff_core::Tuner::with_cache_path(device, path),
            None => huff_core::Tuner::new(device),
        })
    }

    /// Profiler options assembled from the flags (`--bins`, `--magnitude`,
    /// `--reduction`, `--decoder`, `--threshold`).
    fn profile_options(&self, default_bins: usize) -> metrics::ProfileOptions {
        let mut o = metrics::ProfileOptions::new(self.bins.unwrap_or(default_bins))
            .symbol_bytes(u64::from(self.symbols.bytes()))
            .magnitude(self.magnitude);
        if let Some(r) = self.reduction {
            o = o.reduction(r);
        }
        if let Some(d) = self.decoder {
            o = o.decoder(d);
        }
        if let Some(t) = self.threshold {
            o = o.roofline_threshold(t);
        }
        o
    }

    /// The roofline anomaly threshold in effect (`--threshold` or the
    /// library default).
    fn roofline_threshold(&self) -> f64 {
        self.threshold.unwrap_or(metrics::roofline::DEFAULT_THRESHOLD)
    }
}

fn parse_flags(args: &[String]) -> Result<Flags, CliError> {
    let usage = |m: &str| CliError::Usage(m.to_string());
    let mut f = Flags {
        symbols: symbols::SymbolWidth::U8,
        bins: None,
        magnitude: 10,
        reduction: None,
        widen: false,
        best_effort: false,
        sentinel: None,
        decoder: None,
        trace: None,
        chrome: None,
        roofline: false,
        roofline_json: None,
        threshold: None,
        compare: false,
        json: false,
        device: "v100".to_string(),
        shards: None,
        streams: None,
        devices: None,
        buffers: None,
        autotune: false,
        tune_cache: None,
        range: None,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--symbols" => {
                f.symbols = match it.next().map(String::as_str) {
                    Some("u8") => symbols::SymbolWidth::U8,
                    Some("u16le") => symbols::SymbolWidth::U16Le,
                    other => {
                        return Err(CliError::Usage(format!(
                            "--symbols needs u8|u16le, got {other:?}"
                        )))
                    }
                }
            }
            "--bins" => {
                f.bins = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| usage("--bins needs a number"))?,
                )
            }
            "--magnitude" => {
                f.magnitude = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| usage("--magnitude needs a number"))?
            }
            "--reduction" => {
                f.reduction = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| usage("--reduction needs a number"))?,
                )
            }
            "--widen" => f.widen = true,
            "--best-effort" => f.best_effort = true,
            "--trace" => {
                f.trace = Some(it.next().ok_or_else(|| usage("--trace needs a path"))?.to_string())
            }
            "--chrome" => {
                f.chrome =
                    Some(it.next().ok_or_else(|| usage("--chrome needs a path"))?.to_string())
            }
            "--roofline" => f.roofline = true,
            "--compare" => f.compare = true,
            "--roofline-json" => {
                f.roofline_json = Some(
                    it.next().ok_or_else(|| usage("--roofline-json needs a path"))?.to_string(),
                )
            }
            "--threshold" => {
                f.threshold = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&t: &f64| t > 0.0 && t <= 1.0)
                        .ok_or_else(|| usage("--threshold needs a fraction in (0, 1]"))?,
                )
            }
            "--json" => f.json = true,
            "--device" => {
                f.device = it.next().ok_or_else(|| usage("--device needs a name"))?.to_string()
            }
            "--sentinel" => {
                f.sentinel = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| usage("--sentinel needs a u16"))?,
                )
            }
            "--decoder" => {
                let name = it.next().ok_or_else(|| usage("--decoder needs a name"))?;
                f.decoder = Some(
                    huff_core::DecoderKind::parse(name)
                        .map_err(|e| CliError::Usage(e.to_string()))?,
                )
            }
            "--shards" => {
                f.shards = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n| n > 0)
                        .ok_or_else(|| usage("--shards needs a positive number"))?,
                )
            }
            "--streams" => {
                f.streams = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n| n > 0)
                        .ok_or_else(|| usage("--streams needs a positive number"))?,
                )
            }
            "--devices" => {
                f.devices =
                    Some(it.next().ok_or_else(|| usage("--devices needs a list"))?.to_string())
            }
            "--buffers" => {
                f.buffers = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| usage("--buffers needs a number"))?,
                )
            }
            "--range" => {
                let v = it.next().ok_or_else(|| usage("--range needs A..B"))?;
                let (a, b) = v
                    .split_once("..")
                    .ok_or_else(|| usage("--range needs A..B (decoded byte offsets)"))?;
                let lo = if a.is_empty() {
                    0
                } else {
                    a.parse().map_err(|_| usage("--range start must be a byte offset"))?
                };
                let hi = if b.is_empty() {
                    u64::MAX
                } else {
                    b.parse().map_err(|_| usage("--range end must be a byte offset"))?
                };
                f.range = Some(lo..hi);
            }
            "--autotune" => f.autotune = true,
            "--tune-cache" => {
                f.tune_cache =
                    Some(it.next().ok_or_else(|| usage("--tune-cache needs a path"))?.to_string())
            }
            other if other.starts_with("--") => {
                return Err(CliError::Usage(format!("unknown flag {other}")))
            }
            other => f.positional.push(other.to_string()),
        }
    }
    Ok(f)
}

fn read_file(path: &str) -> Result<Vec<u8>, CliError> {
    std::fs::read(path).map_err(|e| CliError::Io(format!("{path}: {e}")))
}

fn write_file(path: &str, bytes: &[u8]) -> Result<(), CliError> {
    std::fs::write(path, bytes).map_err(|e| CliError::Io(format!("{path}: {e}")))
}

/// Write the `--trace` / `--chrome` sidecar files for a profile run.
fn write_profile_outputs(f: &Flags, profile: &metrics::PipelineProfile) -> Result<(), CliError> {
    if let Some(path) = &f.trace {
        write_file(path, profile.to_json_string().as_bytes())?;
        eprintln!("rsh: trace written to {path}");
    }
    if let Some(path) = &f.chrome {
        write_file(path, profile.to_chrome_trace().as_bytes())?;
        eprintln!("rsh: chrome trace written to {path} (load in chrome://tracing or Perfetto)");
    }
    Ok(())
}

fn cmd_compress(args: &[String]) -> CmdResult {
    let f = parse_flags(args)?;
    let [input, output] = f.positional.as_slice() else {
        return Err(CliError::Usage("compress needs <input> <output>".into()));
    };
    let raw = read_file(input)?;
    let (syms, default_bins) = f.symbols.decode(&raw).map_err(CliError::Corrupt)?;

    if f.autotune {
        if f.batched() || f.reduction.is_some() || f.trace.is_some() || f.chrome.is_some() {
            return Err(CliError::Usage(
                "--autotune picks reduction/shards/streams itself; drop --reduction, the batch \
                 flags, and --trace/--chrome"
                    .into(),
            ));
        }
        let (packed, _, _) = autotune_compress(&f, &syms, default_bins)?;
        write_file(output, &packed)?;
        eprintln!(
            "{} -> {} bytes ({:.3}x)",
            raw.len(),
            packed.len(),
            raw.len() as f64 / packed.len() as f64,
        );
        return Ok(0);
    }

    if f.batched() {
        return cmd_compress_batched(&f, &raw, &syms, default_bins, output);
    }

    if f.trace.is_some() || f.chrome.is_some() {
        // Route through the modeled device pipeline so the profile carries
        // kernel trace events (the sparse-sidecar encoder, as `profile`).
        let gpu = f.gpu()?;
        let (packed, profile) =
            metrics::profile_compress(&gpu, &syms, &f.profile_options(default_bins))
                .map_err(|e| CliError::Corrupt(e.to_string()))?;
        write_file(output, &packed)?;
        write_profile_outputs(&f, &profile)?;
        eprintln!(
            "{} -> {} bytes ({:.3}x) in {:.3} ms modeled on {}",
            raw.len(),
            packed.len(),
            raw.len() as f64 / packed.len() as f64,
            profile.total_seconds() * 1e3,
            profile.device,
        );
        return Ok(0);
    }

    let mut opts = CompressOptions::new(f.bins.unwrap_or(default_bins));
    opts.magnitude = f.magnitude;
    opts.reduction = f.reduction;
    opts.symbol_bytes = f.symbols.bytes();
    opts.strategy =
        if f.widen { BreakingStrategy::WidenWord } else { BreakingStrategy::SparseSidecar };

    let t = std::time::Instant::now();
    let packed = archive::compress(&syms, &opts).map_err(|e| CliError::Corrupt(e.to_string()))?;
    let dt = t.elapsed().as_secs_f64();
    write_file(output, &packed)?;
    eprintln!(
        "{} -> {} bytes ({:.3}x) in {:.1} ms ({:.1} MB/s)",
        raw.len(),
        packed.len(),
        raw.len() as f64 / packed.len() as f64,
        dt * 1e3,
        raw.len() as f64 / dt / 1e6,
    );
    Ok(0)
}

/// `compress --autotune`: dispatch by the tuner's decision (store-raw /
/// CPU-serial / tuned batched GPU; see `huff_core::tune`) and print what
/// was decided and whether it came from the tuning cache. Returns the
/// container bytes, the decision, and whether it was a cache hit.
fn autotune_compress(
    f: &Flags,
    syms: &[u16],
    default_bins: usize,
) -> Result<(Vec<u8>, Decision, bool), CliError> {
    let mut tuner = f.tuner()?;
    let bins = f.bins.unwrap_or(default_bins);
    let (packed, decision, hit) = tuner
        .compress(syms, bins, f.symbols.bytes())
        .map_err(|e| CliError::Corrupt(e.to_string()))?;
    eprintln!(
        "rsh: autotune[{}]: dispatch={} r={} shards={} streams={} decoder={} ({:.3} ms modeled on {})",
        if hit { "cache hit" } else { "modeled sweep" },
        decision.dispatch.name(),
        decision.reduction,
        decision.shards,
        decision.streams,
        decision.decoder.name(),
        decision.modeled_seconds() * 1e3,
        tuner.device().name,
    );
    if let Some(path) = &f.tune_cache {
        eprintln!(
            "rsh: tune cache {path}: {} entr{} ({} hit, {} miss this run)",
            tuner.cache().len(),
            if tuner.cache().len() == 1 { "y" } else { "ies" },
            tuner.hits,
            tuner.misses,
        );
    }
    Ok((packed, decision, hit))
}

/// `compress --shards/--streams/--devices/--buffers`: the sharded
/// multi-stream pipeline. The output is an RSHM multi-shard frame; the
/// printed summary carries the modeled makespan and overlap speedup, and
/// `--trace`/`--chrome` export the batch profile (one Chrome lane per
/// device × stream).
fn cmd_compress_batched(
    f: &Flags,
    raw: &[u8],
    syms: &[u16],
    default_bins: usize,
    output: &str,
) -> CmdResult {
    let mut opts = BatchOptions::new(f.bins.unwrap_or(default_bins));
    if let Some(n) = f.shards {
        opts.shard_symbols = syms.len().div_ceil(n).max(1);
    }
    if let Some(n) = f.streams {
        opts.streams = n;
    }
    opts.devices = f.device_fleet()?;
    opts.buffers = f.buffers.unwrap_or(0);
    opts.magnitude = f.magnitude;
    opts.reduction = f.reduction;
    opts.symbol_bytes = f.symbols.bytes();

    let (packed, profile) = metrics::profile_compress_batched(syms, &opts)
        .map_err(|e| CliError::Corrupt(e.to_string()))?;
    write_file(output, &packed)?;
    if let Some(path) = &f.trace {
        write_file(path, profile.to_json_string().as_bytes())?;
        eprintln!("rsh: trace written to {path}");
    }
    if let Some(path) = &f.chrome {
        write_file(path, profile.to_chrome_trace().as_bytes())?;
        eprintln!("rsh: chrome trace written to {path} (load in chrome://tracing or Perfetto)");
    }
    eprintln!(
        "{} -> {} bytes ({:.3}x) in {:.3} ms modeled; {} shards x {} streams x {} devices, {:.2}x overlap speedup",
        raw.len(),
        packed.len(),
        raw.len() as f64 / packed.len() as f64,
        profile.report.makespan * 1e3,
        profile.report.shards.len(),
        opts.streams,
        opts.devices.len(),
        profile.report.speedup(),
    );
    Ok(0)
}

fn cmd_decompress(args: &[String]) -> CmdResult {
    let f = parse_flags(args)?;
    let [input, output] = f.positional.as_slice() else {
        return Err(CliError::Usage("decompress needs <input> <output>".into()));
    };
    let packed = read_file(input)?;
    let mut opts =
        if f.best_effort { DecompressOptions::best_effort() } else { DecompressOptions::strict() };
    if let Some(s) = f.sentinel {
        opts.sentinel = s;
    }
    if let Some(d) = f.decoder {
        opts.decoder = d;
    }
    let info = container::info(&packed).map_err(|e| CliError::Corrupt(e.to_string()))?;
    let rec = if (f.trace.is_some() || f.chrome.is_some()) && info.kind == Kind::Archive {
        let gpu = f.gpu()?;
        let (rec, profile) = metrics::profile_decompress(&gpu, &packed, &opts)
            .map_err(|e| CliError::Corrupt(e.to_string()))?;
        write_profile_outputs(&f, &profile)?;
        rec
    } else {
        if f.trace.is_some() || f.chrome.is_some() {
            eprintln!(
                "rsh: multi-shard frames decode without a device profile; --trace/--chrome skipped"
            );
        }
        archive::decompress_with(&packed, &opts).map_err(|e| CliError::Corrupt(e.to_string()))?
    };
    let raw = symbols::SymbolWidth::from_bytes(info.symbol_bytes)
        .map_err(CliError::Corrupt)?
        .encode(&rec.symbols);
    write_file(output, &raw)?;
    eprintln!("{} -> {} bytes", packed.len(), raw.len());
    if rec.report.is_clean() {
        Ok(0)
    } else {
        println!("{}", report_json(&rec.report));
        eprintln!(
            "rsh: recovered with losses: {} of {} chunks damaged, {} symbols lost",
            rec.report.damaged_chunks.len(),
            rec.report.total_chunks,
            rec.report.symbols_lost,
        );
        Ok(EXIT_RECOVERED_WITH_LOSSES)
    }
}

/// `rsh cat <archive> [output] --range A..B`: decode only the requested
/// slice of the decoded output. Only the chunks covering the range are
/// decoded — via the archive's succinct seek index when present (O(1)
/// probes per lookup), via a chunk-table prefix scan otherwise. The
/// bytes go to `[output]` or stdout; the chunk/probe summary (and any
/// best-effort recovery report) goes to stderr so piped output stays
/// clean.
fn cmd_cat(args: &[String]) -> CmdResult {
    let f = parse_flags(args)?;
    let (input, output) = match f.positional.as_slice() {
        [input] => (input, None),
        [input, output] => (input, Some(output)),
        _ => return Err(CliError::Usage("cat needs <archive> [output] --range A..B".into())),
    };
    let Some(range) = f.range.clone() else {
        return Err(CliError::Usage("cat needs --range A..B (decoded-output byte offsets)".into()));
    };
    if range.start > range.end {
        return Err(CliError::Usage(format!("--range {}..{} is inverted", range.start, range.end)));
    }
    let packed = read_file(input)?;
    let mut opts =
        if f.best_effort { DecompressOptions::best_effort() } else { DecompressOptions::strict() };
    if let Some(s) = f.sentinel {
        opts.sentinel = s;
    }
    if let Some(d) = f.decoder {
        opts.decoder = d;
    }
    let r = archive::decode_range(&packed, range.clone(), &opts)
        .map_err(|e| CliError::Corrupt(e.to_string()))?;
    match output {
        Some(path) => write_file(path, &r.bytes)?,
        None => {
            use std::io::Write;
            std::io::stdout()
                .write_all(&r.bytes)
                .map_err(|e| CliError::Io(format!("stdout: {e}")))?;
        }
    }
    let end = if range.end == u64::MAX { String::new() } else { range.end.to_string() };
    eprintln!(
        "rsh: {input}: bytes {}..{end}: {} bytes from {} of {} chunks, {} index probes ({})",
        range.start,
        r.bytes.len(),
        r.chunks_touched,
        r.total_chunks,
        r.index_probes,
        if r.index_used { "seek index" } else { "prefix scan" },
    );
    if r.report.is_clean() {
        Ok(0)
    } else {
        eprintln!("{}", report_json(&r.report));
        eprintln!(
            "rsh: recovered with losses: {} of {} chunks damaged, {} symbols lost",
            r.report.damaged_chunks.len(),
            r.report.total_chunks,
            r.report.symbols_lost,
        );
        Ok(EXIT_RECOVERED_WITH_LOSSES)
    }
}

fn cmd_verify(args: &[String]) -> CmdResult {
    let f = parse_flags(args)?;
    let [input] = f.positional.as_slice() else {
        return Err(CliError::Usage("verify needs <archive>".into()));
    };
    let packed = read_file(input)?;
    let report = archive::verify(&packed).map_err(|e| CliError::Corrupt(e.to_string()))?;
    println!("{}", report_json(&report));
    if report.is_clean() {
        eprintln!("rsh: {input}: ok ({} chunks)", report.total_chunks);
        Ok(0)
    } else {
        eprintln!(
            "rsh: {input}: {} of {} chunks damaged, {} symbols unrecoverable",
            report.damaged_chunks.len(),
            report.total_chunks,
            report.symbols_lost,
        );
        Ok(EXIT_CORRUPT)
    }
}

fn cmd_inspect(args: &[String]) -> CmdResult {
    let f = parse_flags(args)?;
    let [input] = f.positional.as_slice() else {
        return Err(CliError::Usage("inspect needs <archive>".into()));
    };
    let packed = read_file(input)?;
    let kind = container::sniff(&packed).map_err(|e| CliError::Corrupt(e.to_string()))?;
    if kind == Kind::Frame {
        let info = frame::parse(&packed, huff_core::Verify::Full)
            .map_err(|e| CliError::Corrupt(e.to_string()))?;
        println!("frame            {} bytes (RSHM v{})", packed.len(), info.version);
        println!(
            "symbols          {} ({}-byte native width)",
            info.total_symbols, info.symbol_bytes
        );
        println!(
            "shards           {} x {} symbols (each a self-contained RSH2 archive)",
            info.num_shards(),
            info.shard_symbols
        );
        for (i, range) in info.shard_ranges.iter().enumerate() {
            let span = info.shard_symbol_range(i).map_err(|e| CliError::Corrupt(e.to_string()))?;
            println!(
                "  shard {i:<3} {:>10} bytes  symbols {}..{}",
                range.len(),
                span.start,
                span.end
            );
        }
        return Ok(0);
    }
    if kind == Kind::Raw {
        let info = container::info(&packed).map_err(|e| CliError::Corrupt(e.to_string()))?;
        println!("raw container    {} bytes (RSHR, stored uncompressed)", packed.len());
        println!("symbols          {} ({}-byte native width)", info.num_symbols, info.symbol_bytes);
        println!("ratio            1.000x (autotune store-raw early exit)");
        return Ok(0);
    }
    let (stream, book, symbol_bytes) =
        archive::deserialize(&packed).map_err(|e| CliError::Corrupt(e.to_string()))?;
    println!("archive          {} bytes", packed.len());
    println!("symbols          {} ({}-byte native width)", stream.num_symbols, symbol_bytes);
    println!(
        "codebook         {} / {} coded symbols, H = {}",
        book.coded_symbols(),
        book.num_symbols(),
        book.max_len()
    );
    println!(
        "chunks           {} x 2^{} symbols, reduction 2^{}",
        stream.num_chunks(),
        stream.config.magnitude,
        stream.config.reduction
    );
    println!(
        "payload          {} bits ({} bytes)",
        stream.total_bits,
        stream.total_bits.div_ceil(8)
    );
    println!(
        "breaking units   {} ({:.6}% of symbols)",
        stream.outliers.num_units(),
        stream.breaking_fraction() * 100.0
    );
    println!("ratio            {:.3}x", stream.compression_ratio(u32::from(symbol_bytes) * 8));
    Ok(0)
}

fn cmd_profile(args: &[String]) -> CmdResult {
    let f = parse_flags(args)?;
    let [input] = f.positional.as_slice() else {
        return Err(CliError::Usage("profile needs <file>".into()));
    };
    let raw = read_file(input)?;
    let gpu = f.gpu()?;

    let kind = container::sniff(&raw);
    if let Ok(other @ (Kind::Frame | Kind::Raw)) = kind {
        let what = if other == Kind::Frame { "an RSHM frame" } else { "an RSHR container" };
        return Err(CliError::Usage(format!(
            "profile takes raw input or a bare RSH archive, and {input} is {what}"
        )));
    }
    let is_archive = matches!(kind, Ok(Kind::Archive));
    if f.compare {
        return cmd_profile_compare(&f, &raw, is_archive);
    }
    let profile = if is_archive {
        let mut opts = if f.best_effort {
            DecompressOptions::best_effort()
        } else {
            DecompressOptions::strict()
        };
        if let Some(s) = f.sentinel {
            opts.sentinel = s;
        }
        if let Some(d) = f.decoder {
            opts.decoder = d;
        }
        let (_, profile) = metrics::profile_decompress(&gpu, &raw, &opts)
            .map_err(|e| CliError::Corrupt(e.to_string()))?;
        profile
    } else {
        let (syms, default_bins) = f.symbols.decode(&raw).map_err(CliError::Corrupt)?;
        let (_, _, profile) =
            metrics::profile_roundtrip(&gpu, &syms, &f.profile_options(default_bins))
                .map_err(|e| CliError::Corrupt(e.to_string()))?;
        profile
    };

    print!("{}", profile.render_table());
    if f.roofline || f.roofline_json.is_some() {
        let roofline = profile.roofline(f.roofline_threshold());
        if f.roofline {
            println!();
            print!("{}", roofline.render_table());
        }
        if let Some(path) = &f.roofline_json {
            write_file(path, roofline.to_json_string().as_bytes())?;
            eprintln!("rsh: roofline report written to {path}");
        }
    }
    write_profile_outputs(&f, &profile)?;
    match &profile.recovery {
        Some(r) if !r.is_clean() => Ok(EXIT_RECOVERED_WITH_LOSSES),
        _ => Ok(0),
    }
}

/// `rsh profile --compare`: run the same raw input through the modeled
/// compress pipeline under the fused and the unfused
/// `KernelPlan` and
/// print a side-by-side per-kernel roofline table. Kernel fusion is
/// encode-side only (no decode kernel changes, no on-disk byte changes),
/// so archive inputs are rejected.
fn cmd_profile_compare(f: &Flags, raw: &[u8], is_archive: bool) -> CmdResult {
    use huff_core::KernelPlan;
    if is_archive {
        return Err(CliError::Usage(
            "--compare contrasts the encode-side kernel plans; it needs a raw input (fusion \
             changes no decode kernels)"
                .into(),
        ));
    }
    if f.trace.is_some() || f.chrome.is_some() || f.roofline_json.is_some() {
        return Err(CliError::Usage(
            "--compare runs two profiles; drop --trace/--chrome/--roofline-json (run each plan \
             separately to export one)"
                .into(),
        ));
    }
    let (syms, default_bins) = f.symbols.decode(raw).map_err(CliError::Corrupt)?;
    let mut reports = Vec::new();
    for plan in [KernelPlan::fused(), KernelPlan::unfused()] {
        // A fresh device per plan: the clock accumulates launches.
        let gpu = f.gpu()?;
        let opts = f.profile_options(default_bins).plan(plan);
        let (packed_a, profile) = metrics::profile_compress(&gpu, &syms, &opts)
            .map_err(|e| CliError::Corrupt(e.to_string()))?;
        reports.push((packed_a, profile.roofline(f.roofline_threshold())));
    }
    let (fused_bytes, fused) = &reports[0];
    let (unfused_bytes, unfused) = &reports[1];
    debug_assert_eq!(fused_bytes, unfused_bytes, "plans must be bit-identical");
    print!("{}", metrics::roofline::render_comparison("fused", fused, "unfused", unfused));
    Ok(0)
}

/// `rsh stats <input> [output]`: run one real operation (compress for
/// raw files — batched when the batch flags are given — decompress for
/// archives and frames) and dump the registry it was counted into on
/// stdout as Prometheus text exposition (or JSON with `--json`). The
/// counters reconcile with the operation: `bytes_out` equals the archive
/// size after a compress, `shards_total` the frame's shard count.
fn cmd_stats(args: &[String]) -> CmdResult {
    let f = parse_flags(args)?;
    let (reg, lossy) = stats_registry(&f)?;
    if f.json {
        println!("{}", reg.to_json());
    } else {
        print!("{}", reg.render());
    }
    if lossy {
        Ok(EXIT_RECOVERED_WITH_LOSSES)
    } else {
        Ok(0)
    }
}

/// The operation behind `rsh stats`, counted into a fresh registry.
/// Returns the registry and whether a best-effort decompress lost data.
fn stats_registry(f: &Flags) -> Result<(Registry, bool), CliError> {
    let (input, output) = match f.positional.as_slice() {
        [input] => (input, None),
        [input, output] => (input, Some(output)),
        _ => return Err(CliError::Usage("stats needs <input> [output]".into())),
    };
    let raw = read_file(input)?;
    let mut reg = Registry::new();

    let lossy = if container::sniff(&raw).is_ok() {
        let mut opts = if f.best_effort {
            DecompressOptions::best_effort()
        } else {
            DecompressOptions::strict()
        };
        if let Some(s) = f.sentinel {
            opts.sentinel = s;
        }
        if let Some(d) = f.decoder {
            opts.decoder = d;
        }
        let rec =
            archive::decompress_with(&raw, &opts).map_err(|e| CliError::Corrupt(e.to_string()))?;
        reg.record_decompress(&raw, &rec, opts.decoder);
        if let Some(path) = output {
            let decoded = symbols::SymbolWidth::from_bytes(rec.symbol_bytes)
                .map_err(CliError::Corrupt)?
                .encode(&rec.symbols);
            write_file(path, &decoded)?;
        }
        !rec.report.is_clean()
    } else {
        let (syms, default_bins) = f.symbols.decode(&raw).map_err(CliError::Corrupt)?;
        let bytes_in = syms.len() as u64 * u64::from(f.symbols.bytes());
        let packed = if f.autotune {
            let (packed, decision, hit) = autotune_compress(f, &syms, default_bins)?;
            reg.record_tune(&decision, hit);
            reg.record_compress(bytes_in, &packed);
            packed
        } else if f.batched() {
            let mut opts = BatchOptions::new(f.bins.unwrap_or(default_bins));
            if let Some(n) = f.shards {
                opts.shard_symbols = syms.len().div_ceil(n).max(1);
            }
            if let Some(n) = f.streams {
                opts.streams = n;
            }
            opts.devices = f.device_fleet()?;
            opts.buffers = f.buffers.unwrap_or(0);
            opts.magnitude = f.magnitude;
            opts.reduction = f.reduction;
            opts.symbol_bytes = f.symbols.bytes();
            let (frame, report) = huff_core::batch::compress_batched(&syms, &opts)
                .map_err(|e| CliError::Corrupt(e.to_string()))?;
            reg.record_batch_compress(&frame, &report, &QuarantineReport::default());
            frame
        } else {
            let mut opts = CompressOptions::new(f.bins.unwrap_or(default_bins));
            opts.magnitude = f.magnitude;
            opts.reduction = f.reduction;
            opts.symbol_bytes = f.symbols.bytes();
            let packed =
                archive::compress(&syms, &opts).map_err(|e| CliError::Corrupt(e.to_string()))?;
            reg.record_compress(bytes_in, &packed);
            packed
        };
        if let Some(path) = output {
            write_file(path, &packed)?;
        }
        false
    };
    Ok((reg, lossy))
}

fn cmd_bench(args: &[String]) -> CmdResult {
    let f = parse_flags(args)?;
    let [input] = f.positional.as_slice() else {
        return Err(CliError::Usage("bench needs <input>".into()));
    };
    let raw = read_file(input)?;
    let (syms, default_bins) = f.symbols.decode(&raw).map_err(CliError::Corrupt)?;
    let bins = f.bins.unwrap_or(default_bins);

    let freqs = huff_core::histogram::parallel_cpu::histogram(&syms, bins, 8);
    let book =
        huff_core::build_codebook(&freqs, 16).map_err(|e| CliError::Corrupt(e.to_string()))?;
    let cfg = huff_core::MergeConfig::auto::<u32>(10, &freqs, &book);
    println!(
        "{} bytes, {} bins, avg {:.4} bits, auto r = {}",
        raw.len(),
        bins,
        book.average_bitwidth(&freqs),
        cfg.reduction
    );

    let mb = raw.len() as f64 / 1e6;
    let run = |name: &str, f: &mut dyn FnMut() -> Result<(), String>| -> Result<(), CliError> {
        let t = std::time::Instant::now();
        f().map_err(CliError::Corrupt)?;
        println!("{name:<22} {:8.1} MB/s (host wall clock)", mb / t.elapsed().as_secs_f64());
        Ok(())
    };
    run("serial", &mut || {
        huff_core::encode::serial::encode(&syms, &book).map(|_| ()).map_err(|e| e.to_string())
    })?;
    run("multithread", &mut || {
        huff_core::encode::multithread::encode(&syms, &book, 8, 1 << 16)
            .map(|_| ())
            .map_err(|e| e.to_string())
    })?;
    run("reduce-shuffle", &mut || {
        huff_core::encode::reduce_shuffle::encode(
            &syms,
            &book,
            cfg,
            BreakingStrategy::SparseSidecar,
        )
        .map(|_| ())
        .map_err(|e| e.to_string())
    })?;

    // Modeled device figure.
    let gpu = gpu_sim::Gpu::v100();
    let (_, times) = huff_core::encode::gpu::encode_on_gpu(
        &gpu,
        &syms,
        u64::from(f.symbols.bytes()),
        &book,
        cfg,
        BreakingStrategy::SparseSidecar,
    )
    .map_err(|e| CliError::Corrupt(e.to_string()))?;
    println!(
        "{:<22} {:8.1} GB/s (modeled V100)",
        "reduce-shuffle (V100)",
        raw.len() as f64 / times.total / 1e9
    );
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("rsh-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn parse_flags_defaults_and_overrides() {
        let f = parse_flags(&[]).unwrap();
        assert_eq!(f.magnitude, 10);
        assert!(f.reduction.is_none());
        let args: Vec<String> =
            ["--symbols", "u16le", "--bins", "512", "--reduction", "2", "in", "out"]
                .iter()
                .map(|s| s.to_string())
                .collect();
        let f = parse_flags(&args).unwrap();
        assert_eq!(f.symbols, symbols::SymbolWidth::U16Le);
        assert_eq!(f.bins, Some(512));
        assert_eq!(f.reduction, Some(2));
        assert_eq!(f.positional, vec!["in", "out"]);
    }

    #[test]
    fn parse_flags_rejects_unknown() {
        assert!(parse_flags(&["--bogus".to_string()]).is_err());
        assert!(parse_flags(&["--bins".to_string()]).is_err());
    }

    #[test]
    fn compress_decompress_file_roundtrip() {
        let input = tmp("in.bin");
        let packed = tmp("out.rsh");
        let restored = tmp("restored.bin");
        let payload: Vec<u8> = (0..40_000u32).map(|i| (i % 97) as u8).collect();
        std::fs::write(&input, &payload).unwrap();

        cmd_compress(&[input.clone(), packed.clone()].map(String::from)).unwrap();
        cmd_inspect(std::slice::from_ref(&packed)).unwrap();
        cmd_decompress(&[packed, restored.clone()]).unwrap();
        assert_eq!(std::fs::read(&restored).unwrap(), payload);
    }

    #[test]
    fn u16_mode_roundtrip() {
        let input = tmp("in16.bin");
        let packed = tmp("out16.rsh");
        let restored = tmp("restored16.bin");
        let payload: Vec<u8> =
            (0..30_000u32).flat_map(|i| ((i % 900) as u16).to_le_bytes()).collect();
        std::fs::write(&input, &payload).unwrap();

        let args: Vec<String> = vec![
            input,
            packed.clone(),
            "--symbols".into(),
            "u16le".into(),
            "--reduction".into(),
            "2".into(),
        ];
        cmd_compress(&args).unwrap();
        cmd_decompress(&[packed, restored.clone()]).unwrap();
        assert_eq!(std::fs::read(&restored).unwrap(), payload);
    }

    #[test]
    fn missing_file_errors_cleanly() {
        let r = cmd_compress(&["/nonexistent/x".to_string(), tmp("y")]);
        assert!(matches!(r, Err(CliError::Io(_))));
        let r = cmd_inspect(&["/nonexistent/x".to_string()]);
        assert!(matches!(r, Err(CliError::Io(_))));
    }

    #[test]
    fn exit_code_mapping() {
        assert_eq!(CliError::Usage(String::new()).exit_code(), 1);
        assert_eq!(CliError::Io(String::new()).exit_code(), 2);
        assert_eq!(CliError::Corrupt(String::new()).exit_code(), 3);
    }

    #[test]
    fn parse_flags_recovery_options() {
        let args: Vec<String> =
            ["--best-effort", "--sentinel", "0", "a", "b"].iter().map(|s| s.to_string()).collect();
        let f = parse_flags(&args).unwrap();
        assert!(f.best_effort);
        assert_eq!(f.sentinel, Some(0));
        assert!(matches!(
            parse_flags(&["--sentinel".to_string(), "70000".to_string()]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn decoder_flag_parses_and_rejects_garbage() {
        let args: Vec<String> =
            ["--decoder", "lut", "a", "b"].iter().map(|s| s.to_string()).collect();
        let f = parse_flags(&args).unwrap();
        assert_eq!(f.decoder, Some(huff_core::DecoderKind::Lut));
        assert!(matches!(
            parse_flags(&["--decoder".to_string(), "warp".to_string()]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(parse_flags(&["--decoder".to_string()]), Err(CliError::Usage(_))));
    }

    #[test]
    fn decompress_with_each_decoder_backend_roundtrips() {
        let input = tmp("dec.bin");
        let packed = tmp("dec.rsh");
        let payload: Vec<u8> = (0..40_000u32).map(|i| (i % 97) as u8).collect();
        std::fs::write(&input, &payload).unwrap();
        cmd_compress(&[input, packed.clone()].map(String::from)).unwrap();

        for decoder in ["serial", "chunked", "lut"] {
            let restored = tmp(&format!("dec-{decoder}.out"));
            let args: Vec<String> =
                vec![packed.clone(), restored.clone(), "--decoder".into(), decoder.into()];
            assert_eq!(cmd_decompress(&args).unwrap(), 0, "{decoder}");
            assert_eq!(std::fs::read(&restored).unwrap(), payload, "{decoder}");
        }
    }

    #[test]
    fn cat_range_extracts_the_exact_slice() {
        let input = tmp("cat.bin");
        let packed = tmp("cat.rsh");
        let payload: Vec<u8> = (0..120_000u32).map(|i| (i % 251) as u8).collect();
        std::fs::write(&input, &payload).unwrap();
        cmd_compress(&[input, packed.clone()].map(String::from)).unwrap();

        let slice = tmp("cat.slice");
        let args: Vec<String> =
            vec![packed.clone(), slice.clone(), "--range".into(), "50000..51000".into()];
        assert_eq!(cmd_cat(&args).unwrap(), 0);
        assert_eq!(std::fs::read(&slice).unwrap(), payload[50_000..51_000]);

        // Open-ended bounds: ..N is a prefix, N.. a suffix.
        let head = tmp("cat.head");
        let args: Vec<String> = vec![packed.clone(), head.clone(), "--range".into(), "..64".into()];
        assert_eq!(cmd_cat(&args).unwrap(), 0);
        assert_eq!(std::fs::read(&head).unwrap(), payload[..64]);
        let tail = tmp("cat.tail");
        let args: Vec<String> =
            vec![packed.clone(), tail.clone(), "--range".into(), "119000..".into()];
        assert_eq!(cmd_cat(&args).unwrap(), 0);
        assert_eq!(std::fs::read(&tail).unwrap(), payload[119_000..]);

        // Every decoder backend serves the same bytes.
        for decoder in ["serial", "chunked", "lut"] {
            let out = tmp(&format!("cat-{decoder}.slice"));
            let args: Vec<String> = vec![
                packed.clone(),
                out.clone(),
                "--range".into(),
                "30000..31000".into(),
                "--decoder".into(),
                decoder.into(),
            ];
            assert_eq!(cmd_cat(&args).unwrap(), 0, "{decoder}");
            assert_eq!(std::fs::read(&out).unwrap(), payload[30_000..31_000], "{decoder}");
        }
    }

    #[test]
    fn cat_works_on_frames_and_flags_usage_errors() {
        let input = tmp("catf.bin");
        let frame = tmp("catf.rshm");
        let payload: Vec<u8> = (0..200_000u32).map(|i| (i % 113) as u8).collect();
        std::fs::write(&input, &payload).unwrap();
        let args: Vec<String> = vec![input, frame.clone(), "--shards".into(), "4".into()];
        cmd_compress(&args).unwrap();

        let slice = tmp("catf.slice");
        let args: Vec<String> =
            vec![frame.clone(), slice.clone(), "--range".into(), "90000..110000".into()];
        assert_eq!(cmd_cat(&args).unwrap(), 0);
        assert_eq!(std::fs::read(&slice).unwrap(), payload[90_000..110_000]);

        // Missing --range, inverted range, garbage bounds: usage errors.
        assert!(matches!(cmd_cat(std::slice::from_ref(&frame)), Err(CliError::Usage(_))));
        let args: Vec<String> = vec![frame.clone(), "--range".into(), "9..5".into()];
        assert!(matches!(cmd_cat(&args), Err(CliError::Usage(_))));
        let args: Vec<String> = vec![frame, "--range".into(), "abc".into()];
        assert!(matches!(cmd_cat(&args), Err(CliError::Usage(_))));
    }

    #[test]
    fn cat_best_effort_recovers_damaged_ranges_with_exit_4() {
        let input = tmp("catd.bin");
        let packed = tmp("catd.rsh");
        let payload: Vec<u8> = (0..100_000u32).map(|i| (i % 199) as u8).collect();
        std::fs::write(&input, &payload).unwrap();
        cmd_compress(&[input, packed.clone()].map(String::from)).unwrap();

        // Flip a payload byte near the end of the archive.
        let mut bytes = std::fs::read(&packed).unwrap();
        let sections = archive::layout(&bytes).unwrap();
        let (_, range) = sections
            .iter()
            .find(|(s, _)| *s == huff_core::integrity::Section::Payload)
            .unwrap()
            .clone();
        bytes[range.end - 3] ^= 0x10;
        let damaged = tmp("catd-damaged.rsh");
        std::fs::write(&damaged, &bytes).unwrap();

        // A range before the damage still decodes strictly: only covering
        // chunks are CRC-checked.
        let head = tmp("catd.head");
        let args: Vec<String> =
            vec![damaged.clone(), head.clone(), "--range".into(), "0..1000".into()];
        assert_eq!(cmd_cat(&args).unwrap(), 0);
        assert_eq!(std::fs::read(&head).unwrap(), payload[..1000]);

        // The damaged tail fails strictly, recovers best-effort (exit 4).
        let tail = tmp("catd.tail");
        let args: Vec<String> =
            vec![damaged.clone(), tail.clone(), "--range".into(), "99000..".into()];
        assert!(matches!(cmd_cat(&args), Err(CliError::Corrupt(_))));
        let args: Vec<String> = vec![
            damaged,
            tail.clone(),
            "--range".into(),
            "99000..".into(),
            "--best-effort".into(),
            "--sentinel".into(),
            "0".into(),
        ];
        assert_eq!(cmd_cat(&args).unwrap(), EXIT_RECOVERED_WITH_LOSSES);
        assert_eq!(std::fs::read(&tail).unwrap().len(), 1000);
    }

    #[test]
    fn report_json_is_stable() {
        let r = RecoveryReport {
            total_chunks: 8,
            damaged_chunks: vec![1, 5],
            damaged_ranges: vec![(1024, 2048), (5120, 6144)],
            symbols_lost: 2048,
        };
        assert_eq!(
            report_json(&r),
            "{\"report\":\"rsh-recovery\",\"total_chunks\":8,\"damaged_chunks\":[1,5],\
             \"damaged_ranges\":[[1024,2048],[5120,6144]],\"symbols_lost\":2048}"
        );
        let clean = RecoveryReport::clean(3);
        assert_eq!(
            report_json(&clean),
            "{\"report\":\"rsh-recovery\",\"total_chunks\":3,\"damaged_chunks\":[],\
             \"damaged_ranges\":[],\"symbols_lost\":0}"
        );
    }

    #[test]
    fn profile_raw_file_writes_trace_and_chrome() {
        let input = tmp("pin.bin");
        let trace = tmp("pin.trace.json");
        let chrome = tmp("pin.chrome.json");
        let payload: Vec<u8> = (0..50_000u32).map(|i| (i % 61) as u8).collect();
        std::fs::write(&input, &payload).unwrap();

        let args: Vec<String> =
            vec![input, "--trace".into(), trace.clone(), "--chrome".into(), chrome.clone()];
        assert_eq!(cmd_profile(&args).unwrap(), 0);

        let t = std::fs::read_to_string(&trace).unwrap();
        assert!(t.starts_with("{\"schema\":\"rsh-trace-v1\""));
        assert!(t.contains("\"direction\":\"roundtrip\""));
        let c = std::fs::read_to_string(&chrome).unwrap();
        assert!(c.starts_with("{\"traceEvents\":["));
    }

    #[test]
    fn profile_archive_decompresses_and_flags_damage() {
        let input = tmp("pa.bin");
        let packed = tmp("pa.rsh");
        let payload: Vec<u8> = (0..50_000u32).map(|i| (i % 89) as u8).collect();
        std::fs::write(&input, &payload).unwrap();
        cmd_compress(&[input, packed.clone()].map(String::from)).unwrap();

        assert_eq!(cmd_profile(std::slice::from_ref(&packed)).unwrap(), 0);

        // Damaged archive: strict profile errors, best-effort exits 4.
        let mut bytes = std::fs::read(&packed).unwrap();
        let sections = archive::layout(&bytes).unwrap();
        let (_, range) = sections
            .iter()
            .find(|(s, _)| *s == huff_core::integrity::Section::Payload)
            .unwrap()
            .clone();
        bytes[range.start + range.len() / 2] ^= 0x40;
        let damaged = tmp("pa-damaged.rsh");
        std::fs::write(&damaged, &bytes).unwrap();
        assert!(matches!(cmd_profile(std::slice::from_ref(&damaged)), Err(CliError::Corrupt(_))));
        let args: Vec<String> = vec![damaged, "--best-effort".into()];
        assert_eq!(cmd_profile(&args).unwrap(), EXIT_RECOVERED_WITH_LOSSES);
    }

    #[test]
    fn compress_with_trace_roundtrips_and_records_profile() {
        let input = tmp("tin.bin");
        let packed = tmp("tin.rsh");
        let restored = tmp("tin.out");
        let trace = tmp("tin.trace.json");
        let dtrace = tmp("tin.dtrace.json");
        let payload: Vec<u8> = (0..40_000u32).map(|i| (i % 73) as u8).collect();
        std::fs::write(&input, &payload).unwrap();

        let args: Vec<String> = vec![input, packed.clone(), "--trace".into(), trace.clone()];
        assert_eq!(cmd_compress(&args).unwrap(), 0);
        let t = std::fs::read_to_string(&trace).unwrap();
        assert!(t.contains("\"direction\":\"compress\""));
        assert!(t.contains("\"stage\":\"histogram\""));

        let args: Vec<String> = vec![packed, restored.clone(), "--trace".into(), dtrace.clone()];
        assert_eq!(cmd_decompress(&args).unwrap(), 0);
        assert_eq!(std::fs::read(&restored).unwrap(), payload);
        let t = std::fs::read_to_string(&dtrace).unwrap();
        assert!(t.contains("\"direction\":\"decompress\""));
        assert!(t.contains("\"stage\":\"decode\""));
    }

    #[test]
    fn batched_compress_frame_roundtrips() {
        let input = tmp("bin.bin");
        let packed = tmp("bin.rshm");
        let restored = tmp("bin.out");
        let payload: Vec<u8> = (0..200_000u32).map(|i| (i % 101) as u8).collect();
        std::fs::write(&input, &payload).unwrap();

        let args: Vec<String> = vec![
            input,
            packed.clone(),
            "--shards".into(),
            "4".into(),
            "--streams".into(),
            "2".into(),
        ];
        assert_eq!(cmd_compress(&args).unwrap(), 0);
        let bytes = std::fs::read(&packed).unwrap();
        assert_eq!(&bytes[..4], b"RSHM");

        // verify / inspect / decompress all accept the frame transparently.
        assert_eq!(cmd_verify(std::slice::from_ref(&packed)).unwrap(), 0);
        assert_eq!(cmd_inspect(std::slice::from_ref(&packed)).unwrap(), 0);
        assert_eq!(cmd_decompress(&[packed, restored.clone()].map(String::from)).unwrap(), 0);
        assert_eq!(std::fs::read(&restored).unwrap(), payload);
    }

    #[test]
    fn batched_compress_writes_batch_trace() {
        let input = tmp("btrace.bin");
        let packed = tmp("btrace.rshm");
        let trace = tmp("btrace.trace.json");
        let chrome = tmp("btrace.chrome.json");
        let payload: Vec<u8> = (0..150_000u32).map(|i| (i % 67) as u8).collect();
        std::fs::write(&input, &payload).unwrap();

        let args: Vec<String> = vec![
            input,
            packed,
            "--shards".into(),
            "3".into(),
            "--devices".into(),
            "v100,rtx5000".into(),
            "--trace".into(),
            trace.clone(),
            "--chrome".into(),
            chrome.clone(),
        ];
        assert_eq!(cmd_compress(&args).unwrap(), 0);
        let t = std::fs::read_to_string(&trace).unwrap();
        assert!(t.contains("\"direction\":\"compress-batched\""));
        assert!(t.contains("\"speedup\":"));
        let c = std::fs::read_to_string(&chrome).unwrap();
        assert!(c.contains("gpu0 (V100)"));
        assert!(c.contains("gpu1 (RTX 5000)"));
    }

    #[test]
    fn batch_flags_parse_and_reject_garbage() {
        let args: Vec<String> =
            ["--shards", "8", "--streams", "4", "--buffers", "2", "--devices", "v100", "a", "b"]
                .iter()
                .map(|s| s.to_string())
                .collect();
        let f = parse_flags(&args).unwrap();
        assert!(f.batched());
        assert_eq!(f.shards, Some(8));
        assert_eq!(f.streams, Some(4));
        assert_eq!(f.buffers, Some(2));
        assert_eq!(f.device_fleet().unwrap().len(), 1);
        assert!(matches!(
            parse_flags(&["--shards".to_string(), "0".to_string()]),
            Err(CliError::Usage(_))
        ));
        let f = parse_flags(&["--devices".to_string(), "v100,tpu".to_string()]).unwrap();
        assert!(matches!(f.device_fleet(), Err(CliError::Usage(_))));
    }

    #[test]
    fn profile_rejects_frames_and_raw_containers() {
        let input = tmp("pcont.bin");
        let frame = tmp("pcont.rshm");
        std::fs::write(&input, (0..40_000u32).map(|i| (i % 61) as u8).collect::<Vec<u8>>())
            .unwrap();
        let args = [input, frame.clone(), "--shards".into(), "2".into()];
        assert_eq!(cmd_compress(&args).unwrap(), 0);
        let raw = tmp("pcont.rshr");
        std::fs::write(&raw, container::store_raw(&[1, 2, 3], 1).unwrap()).unwrap();
        for path in [frame, raw] {
            assert!(matches!(cmd_profile(&[path]), Err(CliError::Usage(_))));
        }
    }

    #[test]
    fn bad_device_is_a_usage_error() {
        let input = tmp("dev.bin");
        std::fs::write(&input, vec![1u8; 1000]).unwrap();
        let args: Vec<String> = vec![input, "--device".into(), "tpu".into()];
        assert!(matches!(cmd_profile(&args), Err(CliError::Usage(_))));
    }

    #[test]
    fn verify_and_best_effort_exit_codes() {
        let input = tmp("vin.bin");
        let packed = tmp("vout.rsh");
        let payload: Vec<u8> = (0..60_000u32).map(|i| (i % 83) as u8).collect();
        std::fs::write(&input, &payload).unwrap();
        assert_eq!(cmd_compress(&[input.clone(), packed.clone()].map(String::from)).unwrap(), 0);

        // Clean archive verifies with exit 0.
        assert_eq!(cmd_verify(std::slice::from_ref(&packed)).unwrap(), 0);

        // Damage one payload byte.
        let mut bytes = std::fs::read(&packed).unwrap();
        let sections = archive::layout(&bytes).unwrap();
        let (_, range) = sections
            .iter()
            .find(|(s, _)| *s == huff_core::integrity::Section::Payload)
            .unwrap()
            .clone();
        bytes[range.start + range.len() / 2] ^= 0x40;
        let damaged = tmp("vdamaged.rsh");
        std::fs::write(&damaged, &bytes).unwrap();

        // verify: exit 3. strict decompress: typed corrupt error (3).
        assert_eq!(cmd_verify(std::slice::from_ref(&damaged)).unwrap(), EXIT_CORRUPT);
        let restored = tmp("vrestored.bin");
        let r = cmd_decompress(&[damaged.clone(), restored.clone()].map(String::from));
        assert!(matches!(r, Err(CliError::Corrupt(_))));

        // best-effort: exit 4, output same length as the original.
        let args: Vec<String> = vec![
            damaged,
            restored.clone(),
            "--best-effort".into(),
            "--sentinel".into(),
            "0".into(),
        ];
        assert_eq!(cmd_decompress(&args).unwrap(), EXIT_RECOVERED_WITH_LOSSES);
        assert_eq!(std::fs::read(&restored).unwrap().len(), payload.len());
    }

    #[test]
    fn roofline_flags_parse_and_reject_garbage() {
        let args: Vec<String> =
            ["--roofline", "--threshold", "0.7", "--roofline-json", "r.json", "in"]
                .iter()
                .map(|s| s.to_string())
                .collect();
        let f = parse_flags(&args).unwrap();
        assert!(f.roofline);
        assert_eq!(f.threshold, Some(0.7));
        assert_eq!(f.roofline_json.as_deref(), Some("r.json"));
        assert!((f.roofline_threshold() - 0.7).abs() < 1e-12);

        // Default threshold when the flag is absent.
        let f = parse_flags(&[]).unwrap();
        assert_eq!(f.roofline_threshold(), metrics::roofline::DEFAULT_THRESHOLD);

        // Out-of-range or missing values are usage errors.
        for bad in [&["--threshold", "0"][..], &["--threshold", "1.5"], &["--threshold"]] {
            let args: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            assert!(matches!(parse_flags(&args), Err(CliError::Usage(_))), "{bad:?}");
        }
        assert!(matches!(parse_flags(&["--roofline-json".to_string()]), Err(CliError::Usage(_))));
    }

    #[test]
    fn profile_roofline_json_has_schema_and_classifies_kernels() {
        let input = tmp("roof.bin");
        let report = tmp("roof.roofline.json");
        let payload: Vec<u8> = (0..60_000u32).map(|i| (i % 61) as u8).collect();
        std::fs::write(&input, &payload).unwrap();

        let args: Vec<String> =
            vec![input, "--roofline".into(), "--roofline-json".into(), report.clone()];
        assert_eq!(cmd_profile(&args).unwrap(), 0);

        let r = std::fs::read_to_string(&report).unwrap();
        assert!(r.starts_with("{\"schema\":\"rsh-roofline-v1\""));
        assert!(r.contains("\"bound\":"));
        assert!(r.contains("\"efficiency\":"));
        assert!(r.contains("enc_reduce_merge"));
    }

    /// `stats_registry` on CLI-style arguments.
    fn stats(args: &[String]) -> (Registry, bool) {
        stats_registry(&parse_flags(args).unwrap()).unwrap()
    }

    #[test]
    fn stats_compresses_raw_input_and_writes_output() {
        let input = tmp("stats.bin");
        let packed = tmp("stats.rsh");
        let payload: Vec<u8> = (0..50_000u32).map(|i| (i % 71) as u8).collect();
        std::fs::write(&input, &payload).unwrap();

        let (reg, lossy) = stats(&[input, packed.clone()]);
        assert!(!lossy);

        // The operation is real: the written archive roundtrips, and the
        // registry (fresh per call) counted exactly its bytes.
        let archive_bytes = std::fs::read(&packed).unwrap();
        let restored = tmp("stats.out");
        cmd_decompress(&[packed, restored.clone()].map(String::from)).unwrap();
        assert_eq!(std::fs::read(&restored).unwrap(), payload);
        let d = [("direction", "compress")];
        assert_eq!(reg.get("rsh_bytes_out_total", &d), archive_bytes.len() as f64);
        assert_eq!(reg.get("rsh_runs_total", &d), 1.0);
    }

    #[test]
    fn stats_handles_archives_and_frames() {
        let input = tmp("statsa.bin");
        let packed = tmp("statsa.rsh");
        let payload: Vec<u8> = (0..40_000u32).map(|i| (i % 53) as u8).collect();
        std::fs::write(&input, &payload).unwrap();
        cmd_compress(&[input.clone(), packed.clone()].map(String::from)).unwrap();

        // Archive input: stats decompresses it; [output] gets the symbols.
        let restored = tmp("statsa.out");
        let args: Vec<String> = vec![packed, restored.clone(), "--json".into()];
        assert_eq!(cmd_stats(&args).unwrap(), 0);
        assert_eq!(std::fs::read(&restored).unwrap(), payload);

        // Frame input via the batched compress path.
        let frame = tmp("statsa.rshm");
        let args: Vec<String> = vec![input, frame.clone(), "--shards".into(), "4".into()];
        let (reg, _) = stats(&args);
        assert_eq!(reg.get("rsh_shards_total", &[]), 4.0);
        let bytes = std::fs::read(&frame).unwrap();
        assert_eq!(&bytes[..4], b"RSHM");
        let rframe = tmp("statsa.rshm.out");
        let (reg, lossy) = stats(&[frame, rframe.clone()].map(String::from));
        assert!(!lossy);
        assert_eq!(std::fs::read(&rframe).unwrap(), payload);
        // One frame decompress: one run over the whole frame, four shards.
        let d = [("direction", "decompress")];
        assert_eq!(reg.get("rsh_runs_total", &d), 1.0);
        assert_eq!(reg.get("rsh_bytes_in_total", &d), bytes.len() as f64);
        assert_eq!(reg.get("rsh_shards_total", &[]), 4.0);
        assert_eq!(reg.get("rsh_shards_ok_total", &[]), 4.0);
    }
}
