//! `hostbench`: measured host throughput of the library's entry points,
//! with a separate traced run for per-layer host time.
//!
//! ```text
//! hostbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//!           [--out results.json] [--spans spans.jsonl]
//! hostbench --compare A.json B.json     # apply BENCHMARK.json's bounds
//! hostbench --check                     # tiny sizes, every assertion
//! ```
//!
//! One process, one client thread, closed loop: each op starts when the
//! previous one has returned. Every line but the last is for people; the
//! last line of a single-workload run is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. See README.md beside
//! this package for the workloads, metrics and bounds.

mod heap;
mod probe;
mod stats;
mod trace;
mod workloads;

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

use huff_core::archive;
use probe::Probe;
use serde::json::{Map, Value};
use stats::{mb_per_s, median, quantile, regressed, tail_per_mille, Better};
use std::process::{Command, ExitCode};
use std::time::Instant;
use workloads::{Prepared, Sizes, Workload, CHECK, FULL};

/// Set-ups per measured run, spread evenly over it; `setup_s` is their
/// median. A set-up runs code the repeated ops keep warm in the caches
/// and it does not, so a neighbour thrashing the shared cache slows it by
/// up to 1.7x, in stretches that span several set-ups, while the probe
/// barely moves; many set-ups across the whole run average over them.
const SETUP_REPS: usize = 15;

/// The quantile of op times `throughput_MBps` is computed from. A burst
/// of neighbour load that slows an op but neither probe pass around it
/// inflates that op's scaled time; the fastest decile leaves such ops out.
const FAST_QUANTILE: f64 = 0.1;

/// `BENCHMARK.json`, at the root of the repository this package sits in.
const SPEC: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

const SCHEMA: &str = "rsh-hostbench-v2";

const USAGE: &str = "usage: hostbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
                 [--out PATH] [--spans PATH]
       hostbench --compare A.json B.json
       hostbench --check
workloads: text_compress text_decompress quant_compress quant_decompress
           serve_compress serve_decompress serve_range";

/// One named value with its unit.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value, unit }
}

/// The outcome of one workload run.
struct Report {
    workload: Workload,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    /// The end-to-end metrics, or the per-layer ones in a traced run.
    metrics: Vec<Metric>,
    /// Reported beside them, never compared.
    detail: Vec<Metric>,
}

impl Report {
    fn new(workload: Workload) -> Report {
        Report {
            workload,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            metrics: Vec::new(),
            detail: Vec::new(),
        }
    }

    fn correct(&self) -> bool {
        self.failed == 0
    }

    fn fail(&mut self, e: String) {
        self.failed += 1;
        self.errors.push(e);
    }

    /// The result: the last stdout line, and without `detail` also this
    /// run's entry in a results file.
    fn record(&self, detail: bool) -> Value {
        let mut m = Map::new();
        m.insert("correct".into(), Value::Bool(self.correct()));
        m.insert("attempted".into(), Value::Int(i128::from(self.attempted)));
        m.insert("failed".into(), Value::Int(i128::from(self.failed)));
        m.insert("metrics".into(), metrics_json(&self.metrics));
        if detail {
            m.insert("detail".into(), metrics_json(&self.detail));
        }
        Value::Object(m)
    }

    fn print(&self) {
        for m in self.metrics.iter().chain(&self.detail) {
            println!("  {:<30} {:>16.6} {}", m.name, m.value, m.unit);
        }
        for e in self.errors.iter().take(5) {
            eprintln!("hostbench: {}: {e}", self.workload.name());
        }
    }
}

fn metrics_json(metrics: &[Metric]) -> Value {
    let mut m = Map::new();
    for x in metrics {
        let mut v = Map::new();
        v.insert("value".into(), Value::Float(x.value));
        v.insert("unit".into(), Value::String(x.unit.into()));
        m.insert(x.name.clone(), Value::Object(v));
    }
    Value::Object(m)
}

/// Throughput of ops moving `op_bytes` each, over every input: the bytes
/// of one op per input ÷ the sum of each input's `q`-quantile op time.
fn throughput(op_bytes: u64, by_input: &[Vec<f64>], q: f64) -> f64 {
    let seconds: f64 = by_input.iter().map(|t| quantile(t, q)).sum();
    mb_per_s(op_bytes * by_input.len() as u64, seconds)
}

/// The median and tail of the raw op times, with the sample count.
fn op_detail(p: &Prepared, raw: &[Vec<f64>]) -> Vec<Metric> {
    let ms: Vec<f64> = raw.iter().flatten().map(|s| s * 1e3).collect();
    let class = p.workload.class().name();
    let mut out = vec![metric(format!("{class}.p50_ms"), median(&ms), "ms")];
    if let Some(pm) = tail_per_mille(ms.len()).filter(|&pm| pm > 500) {
        let label =
            if pm % 10 == 0 { format!("{}", pm / 10) } else { format!("{}", pm as f64 / 10.0) };
        out.push(metric(format!("{class}.p{label}_ms"), quantile(&ms, pm as f64 / 1e3), "ms"));
    }
    out.push(metric(format!("{class}.n"), ms.len() as f64, "count"));
    out
}

/// The measured run: end-to-end metrics, tracing off. Every op and set-up
/// is timed between two probe passes, and its seconds are scaled by the
/// host's slowdown over that stretch.
fn measure(w: Workload, seed: u64, seconds: f64, sizes: &Sizes) -> Result<Report, String> {
    let mut probe = Probe::new();
    let (mut p, first) = Prepared::new(w, seed, sizes)?;
    let (mut setups, mut raw_setups) = (vec![first / probe.slowdown()], vec![first]);
    let mut r = Report::new(w);
    // Scaled and raw op seconds, by input.
    let mut scaled = vec![Vec::new(); p.inputs.len()];
    let mut raw = vec![Vec::new(); p.inputs.len()];
    let start = Instant::now();
    let mut i = 1; // op 0 ran during set-up
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        // Set up again at even steps through the run, so the set-ups meet
        // the same host as the ops and not one stretch of it.
        if setups.len() < SETUP_REPS && elapsed * SETUP_REPS as f64 >= seconds * setups.len() as f64
        {
            let s = p.set_up()?;
            setups.push(s / probe.slowdown());
            raw_setups.push(s);
            continue;
        }
        if i > sizes.min_ops && elapsed >= seconds {
            break;
        }
        r.attempted += 1;
        let op = p.op(i);
        let slowdown = probe.slowdown();
        match op {
            Ok(s) => {
                scaled[i % p.inputs.len()].push(s / slowdown);
                raw[i % p.inputs.len()].push(s);
            }
            Err(e) => r.fail(e),
        }
        i += 1;
    }
    if let Some(k) = raw.iter().position(Vec::is_empty) {
        return Err(format!("every op on input {k} failed: {}", r.errors.join("; ")));
    }
    r.metrics = vec![
        metric("throughput_MBps", throughput(p.op_bytes(), &scaled, FAST_QUANTILE), "MB/s"),
        metric("ratio", p.ratio(), "x"),
        metric("setup_s", median(&setups), "s"),
        metric("peak_heap_MB", heap::peak_bytes() as f64 / 1e6, "MB"),
    ];
    r.detail = vec![metric("raw_MBps", throughput(p.op_bytes(), &raw, FAST_QUANTILE), "MB/s")];
    r.detail.extend(op_detail(&p, &raw));
    r.detail.push(metric("raw_setup_s", median(&raw_setups), "s"));
    r.detail.push(metric("probe.p50_ms", median(&probe.passes) * 1e3, "ms"));
    r.detail.push(metric("peak_rss_MB", peak_rss_bytes()? as f64 / 1e6, "MB"));
    Ok(r)
}

/// The traced run. Each traced op follows two untraced ops of the workload
/// on the same input, so the pair sees the same host state;
/// `trace.coverage` and `trace.overhead_pct` compare the traced op with
/// the second. The first re-warms the caches the previous traced op
/// churned, as the ops of a measured run keep them warm for each other.
fn trace_run(
    w: Workload,
    seed: u64,
    seconds: f64,
    sizes: &Sizes,
    spans: Option<&str>,
) -> Result<Report, String> {
    let (mut p, _) = Prepared::new(w, seed, sizes)?;
    let reference = archive::compress(&p.inputs[0], &p.opts).map_err(|e| e.to_string())?;
    let mut r = Report::new(w);
    let mut tracer = trace::Tracer::new();
    let mut pairs = Vec::new();
    let start = Instant::now();
    let mut n = 0;
    while n < sizes.min_ops || start.elapsed().as_secs_f64() < seconds {
        r.attempted += 3;
        // Op indices that are multiples of the input count run on input 0,
        // the input the traced op runs on; op 0 ran during set-up.
        let warm = p.op((2 * n + 1) * p.inputs.len());
        let untraced = p.op((2 * n + 2) * p.inputs.len());
        let traced = trace::traced_op(&mut tracer, &mut p, &reference, n);
        match (warm, untraced, traced) {
            (Ok(_), Ok(s), Ok(l)) => pairs.push((s, l)),
            (w, s, l) => {
                for e in [w.err(), s.err(), l.err()].into_iter().flatten() {
                    r.fail(e);
                }
            }
        }
        n += 1;
    }
    if pairs.is_empty() {
        return Err(format!("every traced op failed: {}", r.errors.join("; ")));
    }
    let rows: Vec<_> = pairs.iter().map(|(_, l)| l.metrics()).collect();
    for (j, &(name, _, unit)) in rows[0].iter().enumerate() {
        let values: Vec<f64> = rows.iter().map(|row| row[j].1).collect();
        r.metrics.push(metric(name, median(&values), unit));
    }
    let (mut coverage, mut overhead) = (Vec::new(), Vec::new());
    for (untraced, l) in &pairs {
        let (wall, own) = l.path_seconds(w);
        coverage.push(own / untraced);
        overhead.push((wall / untraced - 1.0) * 100.0);
    }
    r.metrics.push(metric("trace.coverage", median(&coverage), "ratio"));
    r.metrics.push(metric("trace.overhead_pct", median(&overhead), "%"));

    let untraced: Vec<f64> = pairs.iter().map(|(u, _)| u * 1e3).collect();
    r.detail.push(metric("op.untraced_ms", median(&untraced), "ms"));
    r.detail.push(metric("op.traced", pairs.len() as f64, "count"));
    for (name, value) in trace::modeled(&p)? {
        let unit = if name.ends_with("_ms") { "ms" } else { "count" };
        r.detail.push(metric(name, value, unit));
    }
    if let Some(path) = spans {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{path}: {e}"))?;
        f.write_all(tracer.to_jsonl().as_bytes()).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(r)
}

/// Peak resident set (`VmHWM`) of this process, in bytes.
fn peak_rss_bytes() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<u64>().ok())
        .map(|kb| kb * 1024)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Size in bytes of the highest-level CPU cache, from sysfs.
fn llc_bytes() -> Option<u64> {
    let dir = std::fs::read_dir("/sys/devices/system/cpu/cpu0/cache").ok()?;
    let read = |p: std::path::PathBuf| std::fs::read_to_string(p).ok();
    dir.filter_map(|e| {
        let path = e.ok()?.path();
        let level: u32 = read(path.join("level"))?.trim().parse().ok()?;
        let size = read(path.join("size"))?;
        let size = size.trim();
        let (digits, scale) = match size.strip_suffix('K') {
            Some(d) => (d, 1 << 10),
            None => size.strip_suffix('M').map(|d| (d, 1 << 20)).unwrap_or((size, 1)),
        };
        Some((level, digits.parse::<u64>().ok()? * scale))
    })
    .max()
    .map(|(_, bytes)| bytes)
}

/// The machine and input facts every results file carries.
fn env_header(sizes: &Sizes) -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let llc = llc_bytes();
    let mut inputs = Map::new();
    for w in Workload::ALL {
        inputs.insert(w.name().into(), Value::Int(i128::from(w.input_bytes(sizes))));
    }
    let largest = Workload::ALL.iter().map(|w| w.input_bytes(sizes)).max().unwrap_or(0);
    let note = match llc {
        Some(llc) if largest <= llc => {
            "every input fits in the last-level cache: MB/s is cache-resident host throughput, not DRAM bandwidth"
        }
        Some(_) => "the largest input exceeds the last-level cache: MB/s includes DRAM traffic",
        None => "last-level cache size unknown",
    };
    let mut m = Map::new();
    m.insert("nproc".into(), Value::Int(nproc as i128));
    m.insert("rayon_threads".into(), Value::Int(rayon::current_num_threads() as i128));
    m.insert("cpu".into(), Value::String(cpu));
    m.insert("llc_bytes".into(), llc.map_or(Value::Null, |b| Value::Int(i128::from(b))));
    m.insert("input_bytes".into(), Value::Object(inputs));
    m.insert("note".into(), Value::String(note.into()));
    Value::Object(m)
}

fn results_file(args: &Args, sizes: &Sizes, workloads: Map) -> Value {
    let mut m = Map::new();
    m.insert("schema".into(), Value::String(SCHEMA.into()));
    m.insert("seed".into(), Value::Int(i128::from(args.seed)));
    m.insert("seconds".into(), Value::Float(args.seconds));
    m.insert("trace".into(), Value::Bool(args.trace));
    m.insert("env".into(), env_header(sizes));
    m.insert("workloads".into(), Value::Object(workloads));
    Value::Object(m)
}

fn write(path: &str, v: &Value) -> Result<(), String> {
    std::fs::write(path, format!("{v}\n")).map_err(|e| format!("{path}: {e}"))
}

fn read_json(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Value::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// The `workloads` object of a results file.
fn workloads_of(v: &Value) -> Result<&Map, String> {
    v.as_object()
        .and_then(|m| m.get("workloads"))
        .and_then(Value::as_object)
        .ok_or_else(|| "results file without workloads".into())
}

/// Run one workload in this process and print its result.
fn run_one(args: &Args, w: Workload) -> Result<bool, String> {
    println!(
        "hostbench {} seed={} seconds={} trace={} (one client, closed loop)",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("  env {}", env_header(&FULL));
    let r = if args.trace {
        trace_run(w, args.seed, args.seconds, &FULL, args.spans.as_deref())?
    } else {
        measure(w, args.seed, args.seconds, &FULL)?
    };
    r.print();
    if let Some(out) = &args.out {
        let mut ws = Map::new();
        ws.insert(w.name().into(), r.record(true));
        write(out, &results_file(args, &FULL, ws))?;
    }
    println!("{}", r.record(false));
    Ok(r.correct())
}

/// `--workload all`: each workload in a child process of its own, so each
/// gets its own peak RSS. With `--out`, the children's results are merged.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut merged = Map::new();
    let mut ok = true;
    for w in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if let Some(spans) = &args.spans {
            cmd.args(["--spans", spans]);
        }
        let part = args.out.as_ref().map(|o| format!("{o}.{}", w.name()));
        if let Some(part) = &part {
            cmd.args(["--out", part]);
        }
        let status = cmd.status().map_err(|e| e.to_string())?;
        ok &= status.success();
        if let Some(part) = part.filter(|_| status.success()) {
            let v = read_json(&part)?;
            for (name, record) in workloads_of(&v)?.iter() {
                merged.insert(name.clone(), record.clone());
            }
            std::fs::remove_file(&part).map_err(|e| format!("{part}: {e}"))?;
        }
    }
    if let Some(out) = &args.out {
        write(out, &results_file(args, &FULL, merged))?;
    }
    Ok(ok)
}

/// `--compare A B`: apply each end-to-end metric's direction and bound
/// from `BENCHMARK.json` to every (metric, workload) pair, B against A.
fn compare(a: &str, b: &str) -> Result<bool, String> {
    let spec = read_json(SPEC)?;
    let mut gated = Vec::new();
    for m in
        spec.as_object().and_then(|s| s.get("end_to_end")).and_then(Value::as_array).unwrap_or(&[])
    {
        let m = m.as_object().ok_or("BENCHMARK.json: bad end_to_end entry")?;
        let name = m.get("name").and_then(Value::as_str).ok_or("BENCHMARK.json: metric name")?;
        let better = m
            .get("better")
            .and_then(Value::as_str)
            .and_then(Better::parse)
            .ok_or("BENCHMARK.json: better")?;
        let bound = m.get("bound").and_then(Value::as_f64).ok_or("BENCHMARK.json: bound")?;
        gated.push((name.to_string(), better, bound));
    }
    let (va, vb) = (read_json(a)?, read_json(b)?);
    let (wa, wb) = (workloads_of(&va)?, workloads_of(&vb)?);
    let value = |w: &Value, m: &str| {
        w.as_object()
            .and_then(|w| w.get("metrics"))
            .and_then(Value::as_object)
            .and_then(|ms| ms.get(m))
            .and_then(Value::as_object)
            .and_then(|x| x.get("value"))
            .and_then(Value::as_f64)
    };
    let mut names: Vec<&String> = wa.iter().map(|(k, _)| k).collect();
    names.extend(wb.iter().map(|(k, _)| k).filter(|k| wa.get(k).is_none()));
    let mut ok = true;
    for name in names {
        let (Some(ra), Some(rb)) = (wa.get(name), wb.get(name)) else {
            println!("{name:<16} FAIL  present in only one file");
            ok = false;
            continue;
        };
        let mut row_ok = true;
        let mut cells = Vec::new();
        for (m, better, bound) in &gated {
            match (value(ra, m), value(rb, m)) {
                (Some(x), Some(y)) => {
                    let bad = regressed(*better, *bound, x, y);
                    row_ok &= !bad;
                    let change = (y / x - 1.0) * 100.0;
                    cells.push(format!(
                        "{m} {x:.4}->{y:.4} ({change:+.1}%){}",
                        if bad { " WORSE" } else { "" }
                    ));
                }
                _ => {
                    row_ok = false;
                    cells.push(format!("{m} missing"));
                }
            }
        }
        println!("{name:<16} {}  {}", if row_ok { "ok  " } else { "FAIL" }, cells.join("  "));
        ok &= row_ok;
    }
    Ok(ok)
}

/// `--check`: every workload at tiny sizes, measured and traced, with
/// every output check. Errors name the first failure.
fn check() -> Result<(), String> {
    for w in Workload::ALL {
        let m = measure(w, 7, 0.0, &CHECK)?;
        let t = trace_run(w, 7, 0.0, &CHECK, None)?;
        for r in [&m, &t] {
            if let Some(e) = r.errors.first() {
                return Err(format!("{}: {e}", w.name()));
            }
        }
        println!("check {}: {} measured + {} traced ops ok", w.name(), m.attempted, t.attempted);
    }
    Ok(())
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    spans: Option<String>,
    compare: Option<(String, String)>,
    check: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: None,
        spans: None,
        compare: None,
        check: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|_| "--seed takes a u64")?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(a.seconds >= 0.0 && a.seconds.is_finite()) {
                    return Err("--seconds must be finite and >= 0".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => a.out = Some(value()?),
            "--spans" => a.spans = Some(value()?),
            "--compare" => a.compare = Some((value()?, value()?)),
            "--check" => a.check = true,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if args.check {
        check().map(|()| true)
    } else if let Some((a, b)) = &args.compare {
        compare(a, b)
    } else {
        match args.workload.as_deref() {
            Some("all") => run_all(&args),
            Some(name) => match Workload::parse(name) {
                Some(w) => run_one(&args, w),
                None => Err(format!("unknown workload {name}\n{USAGE}")),
            },
            None => Err(USAGE.into()),
        }
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("hostbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn throughput_sums_each_inputs_quantile() {
        // Input 0's fastest decile is 1 s, input 1's is 3 s: 2 ops of
        // 2 MB each in 4 s.
        let by_input: Vec<Vec<f64>> =
            vec![(1..=10).rev().map(f64::from).collect(), (3..=12).map(f64::from).collect()];
        assert_eq!(super::throughput(2_000_000, &by_input, 0.1), 1.0);
        let median = super::throughput(2_000_000, &by_input, 0.5);
        assert!((median - 4.0 / 12.0).abs() < 1e-12, "{median}");
    }

    #[test]
    fn check_mode_passes() {
        super::check().unwrap();
    }
}
