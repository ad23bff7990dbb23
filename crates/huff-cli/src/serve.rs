//! `rsh serve` — a long-running compression service over the serving
//! engine ([`huff_core::serve`]).
//!
//! A deliberately small HTTP/1.1 shim over `std::net::TcpListener` (no
//! external dependencies; see FORMAT.md §8 for the wire protocol):
//! connections are accepted sequentially and each carries exactly one
//! request (`Connection: close`). The *engine* decides admission,
//! deadlines, retries and degradation in modeled virtual time — the
//! shim only translates HTTP to engine requests and outcomes to status
//! codes:
//!
//! | outcome        | status | notes |
//! |----------------|--------|-------|
//! | success        | 200    | payload bytes |
//! | degraded       | 200    | `x-rsh-degraded` + `x-rsh-symbols-lost` headers |
//! | shed           | 429    | `rsh-error-v1` JSON body |
//! | deadline miss  | 504    | `rsh-error-v1` JSON body |
//! | failed         | 500    | `rsh-error-v1` JSON body |
//!
//! Every response carries `x-rsh-trace-id`, echoing the caller's
//! `x-rsh-trace-id` header or a generated `rsh-<n>` ID. `GET /metrics`
//! renders the engine's own registry ([`Engine::metrics`]) in Prometheus
//! text exposition — the same format as `rsh stats` — with the serve
//! counters (requests, retries, sheds, deadline misses, degradations,
//! queue wait) and one count per compress, decompress and range read the
//! engine ran. Virtual arrival times advance `--gap-us` per request, so a
//! gap smaller than the modeled service time drives the queue into
//! admission control deterministically.
//!
//! `--dashboard` streams one summary line per completed request on
//! stderr — class, outcome, virtual latency, the rolling per-class
//! admitted-request p50/p99/p999 and the worst error-budget burn rate
//! across the default objectives
//! ([`huff_core::slo::default_objectives`]) — and prints the full SLO
//! table at shutdown. The rolling numbers come from incremental
//! [`Dashboard`] state folded forward one completion at a time, not
//! from re-evaluating the full report per request. `--spans PATH` writes every request's
//! span tree as `rsh-span-v1` JSONL and `--chrome PATH` the per-request
//! Chrome/Perfetto lanes when the listener stops (FORMAT.md §11).

use std::collections::{BTreeMap, VecDeque};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};

use huff_core::container;
use huff_core::metrics::latency::LatencyHistogram;
use huff_core::serve::{ChaosConfig, Completion, Engine, EngineConfig, Outcome, Request, Response};
use huff_core::slo::Objective;

use crate::{symbols, CliError, CmdResult, USAGE};

/// Parsed `rsh serve` flags.
struct ServeFlags {
    addr: String,
    workers: usize,
    queue: usize,
    shard_symbols: usize,
    deadline_ms: Option<f64>,
    gap_us: f64,
    max_requests: Option<u64>,
    chaos: Option<u64>,
    autotune: bool,
    tune_cache: Option<String>,
    dashboard: bool,
    spans: Option<String>,
    chrome: Option<String>,
}

impl ServeFlags {
    fn parse(args: &[String]) -> Result<Self, CliError> {
        let mut f = ServeFlags {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue: 8,
            shard_symbols: 1 << 16,
            deadline_ms: None,
            gap_us: 1000.0,
            max_requests: None,
            chaos: None,
            autotune: false,
            tune_cache: None,
            dashboard: false,
            spans: None,
            chrome: None,
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let mut val = |flag: &str| {
                it.next().ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))
            };
            match a.as_str() {
                "--addr" => f.addr = val("--addr")?.clone(),
                "--workers" => {
                    f.workers = parse_num(val("--workers")?, "--workers")?;
                }
                "--queue" => f.queue = parse_num(val("--queue")?, "--queue")?,
                "--shard-symbols" => {
                    f.shard_symbols = parse_num(val("--shard-symbols")?, "--shard-symbols")?;
                }
                "--deadline-ms" => {
                    let v: f64 = parse_num(val("--deadline-ms")?, "--deadline-ms")?;
                    f.deadline_ms = Some(v);
                }
                "--gap-us" => f.gap_us = parse_num(val("--gap-us")?, "--gap-us")?,
                "--max-requests" => {
                    f.max_requests = Some(parse_num(val("--max-requests")?, "--max-requests")?);
                }
                "--chaos" => f.chaos = Some(parse_num(val("--chaos")?, "--chaos")?),
                "--autotune" => f.autotune = true,
                "--tune-cache" => f.tune_cache = Some(val("--tune-cache")?.clone()),
                "--dashboard" => f.dashboard = true,
                "--spans" => f.spans = Some(val("--spans")?.clone()),
                "--chrome" => f.chrome = Some(val("--chrome")?.clone()),
                other => {
                    return Err(CliError::Usage(format!("unknown serve flag {other:?}\n{USAGE}")))
                }
            }
        }
        if f.workers == 0 || f.queue == 0 || f.shard_symbols == 0 {
            return Err(CliError::Usage(
                "serve needs nonzero --workers, --queue and --shard-symbols".into(),
            ));
        }
        Ok(f)
    }
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, CliError> {
    s.parse().map_err(|_| CliError::Usage(format!("{flag}: cannot parse {s:?}")))
}

/// Incremental `--dashboard` state.
///
/// Re-evaluating [`Engine::slo_report`] after every completed request
/// rebuilds the full completion report and rescans every sample —
/// quadratic over a long-running serve session. This folds each
/// completion forward once instead: a rolling admitted-request latency
/// histogram per class (quantiles index an already-sorted sample set)
/// and, per objective, the rolling window of (finish, good) samples its
/// burn rate is defined over. Work per request is bounded by the window
/// population, never by the session length, and the printed numbers
/// match a full `slo::evaluate` at the same instant (see the unit
/// tests).
struct Dashboard {
    objectives: Vec<Objective>,
    /// Per-objective rolling window: the objective's class samples as
    /// `(finish, good)`, kept sorted by finish so aging out the front
    /// against the window cutoff is exact even when multi-worker
    /// finishes land out of submission order.
    windows: Vec<VecDeque<(f64, bool)>>,
    /// Good-sample count per window.
    good: Vec<u64>,
    /// Rolling admitted-request (non-shed) latency histogram per class.
    hists: BTreeMap<&'static str, LatencyHistogram>,
    /// Newest completion instant; windows are anchored here, matching
    /// `slo::evaluate`'s `now`.
    now: f64,
}

/// One dashboard line's rolling numbers, all in virtual seconds.
struct DashStats {
    p50: f64,
    p99: f64,
    p999: f64,
    worst_burn: f64,
}

impl Dashboard {
    fn new(objectives: Vec<Objective>) -> Self {
        let n = objectives.len();
        Dashboard {
            objectives,
            windows: vec![VecDeque::new(); n],
            good: vec![0; n],
            hists: BTreeMap::new(),
            now: 0.0,
        }
    }

    /// Fold one completion in and return the rolling stats to print.
    fn update(&mut self, c: &Completion) -> DashStats {
        let latency = c.queue_wait + c.backoff + c.service;
        self.now = self.now.max(c.finish);
        let mut worst_burn = 0.0f64;
        for (i, o) in self.objectives.iter().enumerate() {
            let w = &mut self.windows[i];
            if o.class == c.class {
                let good = c.outcome.served() && latency <= o.threshold_seconds;
                let at = w.partition_point(|&(f, _)| f < c.finish);
                w.insert(at, (c.finish, good));
                if good {
                    self.good[i] += 1;
                }
            }
            // Age out samples that left the rolling window; `evaluate`
            // keeps strictly `finish > now − window`.
            let cutoff = self.now - o.window_seconds;
            while w.front().is_some_and(|&(f, _)| f <= cutoff) {
                if w.pop_front().expect("front exists").1 {
                    self.good[i] -= 1;
                }
            }
            let total = w.len() as u64;
            if total > 0 {
                let bad = (total - self.good[i]) as f64;
                worst_burn = worst_burn.max(bad / total as f64 / o.budget());
            }
        }
        if c.outcome.label() != "shed" {
            self.hists.entry(c.class).or_default().observe(latency, &c.trace_id);
        }
        let (p50, p99, p999) = match self.hists.get(c.class) {
            Some(h) => (h.quantile(0.50), h.quantile(0.99), h.quantile(0.999)),
            // Only sheds seen for this class so far: no admitted samples.
            None => (0.0, 0.0, 0.0),
        };
        DashStats { p50, p99, p999, worst_burn }
    }
}

/// One parsed HTTP request.
struct HttpRequest {
    method: String,
    path: String,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

impl HttpRequest {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k.eq_ignore_ascii_case(name)).map(|(_, v)| v.as_str())
    }
}

/// Read one HTTP/1.1 request (request line, headers, `Content-Length`
/// body) from the stream.
fn read_request(stream: &mut TcpStream) -> Result<HttpRequest, String> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let header_end = loop {
        if let Some(pos) = find_header_end(&buf) {
            break pos;
        }
        if buf.len() > 64 * 1024 {
            return Err("request headers exceed 64 KiB".into());
        }
        let n = stream.read(&mut chunk).map_err(|e| e.to_string())?;
        if n == 0 {
            return Err("connection closed mid-headers".into());
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..header_end]).to_string();
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or_default().to_string();
    let path = parts.next().unwrap_or_default().to_string();
    if method.is_empty() || path.is_empty() {
        return Err(format!("malformed request line {request_line:?}"));
    }
    let mut headers = Vec::new();
    for line in lines {
        if let Some((k, v)) = line.split_once(':') {
            headers.push((k.trim().to_string(), v.trim().to_string()));
        }
    }
    let content_length: usize = headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or(0);
    let mut body = buf[header_end + 4..].to_vec();
    while body.len() < content_length {
        let n = stream.read(&mut chunk).map_err(|e| e.to_string())?;
        if n == 0 {
            return Err("connection closed mid-body".into());
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    Ok(HttpRequest { method, path, headers, body })
}

fn find_header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Write one HTTP/1.1 response and close the write side.
fn write_response(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    content_type: &str,
    extra_headers: &[(String, String)],
    body: &[u8],
) {
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\nconnection: close\r\n",
        body.len()
    );
    for (k, v) in extra_headers {
        head.push_str(k);
        head.push_str(": ");
        head.push_str(v);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    // A peer that hung up early is its own problem; the next connection
    // proceeds regardless.
    let _ = stream.write_all(head.as_bytes()).and_then(|_| stream.write_all(body));
    let _ = stream.flush();
}

/// Structured `rsh-error-v1` body for shed / deadline / failure
/// responses (FORMAT.md §8).
fn error_body(error: &str, reason: &str, trace_id: &str) -> Vec<u8> {
    format!(
        "{{\"schema\":\"rsh-error-v1\",\"error\":{:?},\"reason\":{:?},\"trace_id\":{:?}}}",
        error, reason, trace_id
    )
    .into_bytes()
}

/// Best-effort read of the payload's native symbol width; defaults to
/// one byte when the header cannot be read (the engine will surface the
/// real error).
fn symbol_width(bytes: &[u8]) -> symbols::SymbolWidth {
    let b = container::info(bytes).map(|i| i.symbol_bytes).unwrap_or(1);
    symbols::SymbolWidth::from_bytes(b).unwrap_or(symbols::SymbolWidth::U8)
}

/// Entry point for `rsh serve`.
pub(crate) fn cmd_serve(args: &[String]) -> CmdResult {
    let f = ServeFlags::parse(args)?;

    let mut cfg = EngineConfig::new(256);
    cfg.workers = f.workers;
    cfg.queue_capacity = f.queue;
    cfg.batch.shard_symbols = f.shard_symbols;
    cfg.batch.symbol_bytes = 1;
    let mut engine = match f.chaos {
        Some(seed) => Engine::with_chaos(cfg, ChaosConfig::storm(seed)),
        None => Engine::new(cfg),
    };
    if f.autotune || f.tune_cache.is_some() {
        let device = gpu_sim::DeviceSpec::v100();
        let tuner = match &f.tune_cache {
            Some(path) => huff_core::Tuner::with_cache_path(device, path),
            None => huff_core::Tuner::new(device),
        };
        engine = engine.with_tuner(tuner);
    }

    let listener = TcpListener::bind(&f.addr)
        .map_err(|e| CliError::Io(format!("cannot bind {}: {e}", f.addr)))?;
    let local = listener.local_addr().map_err(|e| CliError::Io(e.to_string()))?;
    // Tests bind port 0 and need the real port before connecting.
    println!("rsh serve listening on {local}");
    let _ = std::io::stdout().flush();

    let mut handled: u64 = 0;
    let gap_s = f.gap_us * 1e-6;
    let mut dashboard = f.dashboard.then(|| Dashboard::new(huff_core::slo::default_objectives()));
    for conn in listener.incoming() {
        let mut stream = match conn {
            Ok(s) => s,
            Err(_) => continue,
        };
        handle_connection(
            &mut engine,
            &mut stream,
            handled,
            gap_s,
            f.deadline_ms,
            dashboard.as_mut(),
        );
        handled += 1;
        if f.max_requests.is_some_and(|m| handled >= m) {
            break;
        }
    }

    if let Some(path) = &f.spans {
        std::fs::write(path, engine.span_jsonl())
            .map_err(|e| CliError::Io(format!("{path}: {e}")))?;
        eprintln!("rsh: span trees written to {path} (rsh-span-v1 JSONL)");
    }
    if let Some(path) = &f.chrome {
        std::fs::write(path, engine.chrome_spans())
            .map_err(|e| CliError::Io(format!("{path}: {e}")))?;
        eprintln!("rsh: chrome spans written to {path} (one lane per request)");
    }
    if f.dashboard {
        let report = engine.slo_report(&huff_core::slo::default_objectives());
        eprint!("{}", report.render_table());
    }
    Ok(0)
}

fn handle_connection(
    engine: &mut Engine,
    stream: &mut TcpStream,
    seq: u64,
    gap_s: f64,
    default_deadline_ms: Option<f64>,
    dashboard: Option<&mut Dashboard>,
) {
    let req = match read_request(stream) {
        Ok(r) => r,
        Err(e) => {
            let body = error_body(&e, "bad_request", "-");
            write_response(stream, 400, "Bad Request", "application/json", &[], &body);
            return;
        }
    };
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            write_response(stream, 200, "OK", "application/json", &[], b"{\"status\":\"ok\"}");
        }
        ("GET", "/metrics") => {
            let text = engine.metrics().render();
            write_response(stream, 200, "OK", "text/plain; version=0.0.4", &[], text.as_bytes());
        }
        ("POST", "/compress") | ("POST", "/decompress") => {
            handle_job(engine, stream, &req, seq, gap_s, default_deadline_ms, dashboard);
        }
        (_, path) => {
            let body = error_body(&format!("no route {path:?}"), "not_found", "-");
            write_response(stream, 404, "Not Found", "application/json", &[], &body);
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn handle_job(
    engine: &mut Engine,
    stream: &mut TcpStream,
    http: &HttpRequest,
    seq: u64,
    gap_s: f64,
    default_deadline_ms: Option<f64>,
    dashboard: Option<&mut Dashboard>,
) {
    let trace_id = http
        .header("x-rsh-trace-id")
        .map(str::to_string)
        .unwrap_or_else(|| format!("rsh-{seq:08x}"));
    let arrival = seq as f64 * gap_s;
    let deadline_ms = http
        .header("x-rsh-deadline-ms")
        .and_then(|v| v.parse::<f64>().ok())
        .or(default_deadline_ms);

    if http.body.is_empty() {
        let body = error_body("empty request body", "bad_request", &trace_id);
        write_response(stream, 400, "Bad Request", "application/json", &[], &body);
        return;
    }

    let is_compress = http.path == "/compress";
    let width = if is_compress { symbols::SymbolWidth::U8 } else { symbol_width(&http.body) };
    let mut req = if is_compress {
        let syms: Vec<u16> = http.body.iter().map(|&b| u16::from(b)).collect();
        Request::compress(trace_id.clone(), arrival, syms)
    } else {
        Request::decompress(trace_id.clone(), arrival, http.body.clone())
    };
    if let Some(ms) = deadline_ms {
        req = req.with_deadline(ms * 1e-3);
    }

    let completion = match engine.submit(req) {
        Ok(c) => c.clone(),
        Err(e) => {
            let body = error_body(&e.to_string(), "engine_error", &trace_id);
            write_response(stream, 500, "Internal Server Error", "application/json", &[], &body);
            return;
        }
    };

    let mut headers = vec![
        ("x-rsh-trace-id".to_string(), trace_id.clone()),
        ("x-rsh-outcome".to_string(), completion.outcome.label().to_string()),
    ];
    match &completion.outcome {
        Outcome::Success | Outcome::Degraded { .. } => {
            if let Outcome::Degraded { backend, symbols_lost } = &completion.outcome {
                headers.push(("x-rsh-degraded".to_string(), backend.clone()));
                headers.push(("x-rsh-symbols-lost".to_string(), symbols_lost.to_string()));
            }
            let body = match &completion.response {
                Some(Response::Frame(bytes)) => bytes.clone(),
                Some(Response::Symbols(syms)) => width.encode(syms),
                Some(Response::Bytes(bytes)) => bytes.clone(),
                None => Vec::new(),
            };
            write_response(stream, 200, "OK", "application/octet-stream", &headers, &body);
        }
        Outcome::Shed { reason } => {
            let body = error_body("request shed at admission", reason, &trace_id);
            write_response(stream, 429, "Too Many Requests", "application/json", &headers, &body);
        }
        Outcome::DeadlineMiss { budget, needed } => {
            let body = error_body(
                &format!("deadline {budget:.6}s missed: needed {needed:.6}s"),
                "deadline",
                &trace_id,
            );
            write_response(stream, 504, "Gateway Timeout", "application/json", &headers, &body);
        }
        Outcome::Failed { error } => {
            let body = error_body(error, "failed", &trace_id);
            write_response(
                stream,
                500,
                "Internal Server Error",
                "application/json",
                &headers,
                &body,
            );
        }
    }

    if let Some(dash) = dashboard {
        let lat = completion.queue_wait + completion.backoff + completion.service;
        let stats = dash.update(&completion);
        eprintln!(
            "rsh: dash {} class={} outcome={} lat_ms={:.4} p50_ms={:.4} p99_ms={:.4} \
             p999_ms={:.4} worst_burn={:.3}",
            completion.trace_id,
            completion.class,
            completion.outcome.label(),
            lat * 1e3,
            stats.p50 * 1e3,
            stats.p99 * 1e3,
            stats.p999 * 1e3,
            stats.worst_burn,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use huff_core::batch::compress_batched;
    use huff_core::slo;

    /// The incremental dashboard must print the same rolling numbers a
    /// full re-evaluation at the same instant would — per completion,
    /// across admissions, sheds, deadline misses and chaos faults.
    #[test]
    fn dashboard_matches_full_slo_evaluation_per_request() {
        let mut cfg = EngineConfig::new(256);
        cfg.queue_capacity = 4;
        cfg.batch.shard_symbols = 2048;
        cfg.batch.symbol_bytes = 1;
        let syms: Vec<u16> = (0..20_000).map(|i| (i % 64) as u16).collect();
        let (frame, _) = compress_batched(&syms, &cfg.batch).unwrap();
        let mut eng = Engine::with_chaos(cfg, ChaosConfig::storm(11));
        let objectives = slo::default_objectives();
        let mut dash = Dashboard::new(objectives.clone());
        let mut sheds = 0;
        for i in 0..30 {
            let t = i as f64 * 40e-6;
            let req = match i % 3 {
                0 => Request::compress(format!("c{i}"), t, syms.clone()),
                1 => Request::decompress(format!("d{i}"), t, frame.clone()).with_deadline(0.3),
                _ => Request::decompress_range(format!("r{i}"), t, frame.clone(), 0..512),
            };
            let c = eng.submit(req).unwrap().clone();
            sheds += usize::from(c.outcome.label() == "shed");
            let stats = dash.update(&c);

            let report = eng.slo_report(&objectives);
            let batch_burn = report.statuses.iter().map(|s| s.burn_rate).fold(0.0, f64::max);
            assert_eq!(
                stats.worst_burn, batch_burn,
                "request {i}: incremental burn diverged from slo::evaluate"
            );
            let h = eng.latency().admitted(c.class);
            assert_eq!(stats.p50, h.quantile(0.50), "request {i}: p50 diverged");
            assert_eq!(stats.p99, h.quantile(0.99), "request {i}: p99 diverged");
            assert_eq!(stats.p999, h.quantile(0.999), "request {i}: p999 diverged");
        }
        assert!(sheds > 0, "the overload must exercise the shed path");
    }

    /// `GET /metrics` renders exactly the engine's own registry, library
    /// counts included.
    #[test]
    fn metrics_route_renders_the_engine_registry() {
        let mut cfg = EngineConfig::new(256);
        cfg.batch.shard_symbols = 4096;
        cfg.batch.symbol_bytes = 1;
        let mut eng = Engine::new(cfg);
        let syms: Vec<u16> = (0..10_000).map(|i| (i % 61) as u16).collect();
        let c = eng.submit(Request::compress("c0", 0.0, syms)).unwrap();
        let Some(Response::Frame(frame)) = c.response.clone() else {
            panic!("compress must answer with a frame")
        };
        eng.submit(Request::decompress("d0", 1.0, frame)).unwrap();
        let expected = eng.metrics().render();
        assert!(expected.contains("rsh_runs_total{direction=\"decompress\"} 1"), "{expected}");

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut conn = TcpStream::connect(addr).unwrap();
            conn.write_all(b"GET /metrics HTTP/1.1\r\nhost: test\r\n\r\n").unwrap();
            let mut reply = Vec::new();
            conn.read_to_end(&mut reply).unwrap();
            reply
        });
        let (mut conn, _) = listener.accept().unwrap();
        handle_connection(&mut eng, &mut conn, 2, 1e-3, None, None);
        drop(conn);
        let reply = client.join().unwrap();
        let split = find_header_end(&reply).expect("response headers");
        assert!(reply.starts_with(b"HTTP/1.1 200 OK\r\n"));
        assert_eq!(String::from_utf8_lossy(&reply[split + 4..]), expected);
    }
}
