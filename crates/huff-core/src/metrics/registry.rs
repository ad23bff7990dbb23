//! Service metrics: counters and gauges with Prometheus-style text
//! exposition and JSON export.
//!
//! A long-running compression service needs a scrapeable surface; this
//! module is that surface for the modeled system. There is no
//! process-global instance, and the library's entry points record
//! nothing: every function returns what it did, and whoever owns a
//! [`Registry`] counts the operation from that result, once per
//! operation. The two owners are `rsh stats`, which builds a fresh
//! registry, runs one operation, records it and prints the registry, and
//! the serving engine ([`crate::serve::Engine`]), which records its
//! serve events and the library operations behind them into its own
//! registry (`GET /metrics` in `rsh serve` renders that one). Both share
//! the `record_*` helpers below, so each count has one definition.
//!
//! The metric families are fixed at construction (a registry never grows
//! names at runtime), labels are single-key and low-cardinality by
//! design, and every sample is a plain `f64` — this is an observability
//! surface, not a time-series database.
//!
//! ```
//! use huff_core::archive::{compress, CompressOptions};
//! use huff_core::metrics::registry::Registry;
//!
//! let data: Vec<u16> = (0..10_000).map(|i| (i % 50) as u16).collect();
//! let packed = compress(&data, &CompressOptions::new(64)).unwrap();
//! let mut r = Registry::new();
//! r.record_compress(data.len() as u64 * 2, &packed);
//! let out = r.get("rsh_bytes_out_total", &[("direction", "compress")]);
//! assert_eq!(out, packed.len() as f64);
//! let text = r.render();
//! assert!(text.contains("# TYPE rsh_bytes_out_total counter"));
//! assert!(text.contains("rsh_runs_total{direction=\"compress\"} 1"));
//! ```

use crate::archive;
use crate::batch::{BatchReport, QuarantineReport};
use crate::decode::DecoderKind;
use crate::integrity::{RangeDecode, Recovered};
use crate::tune::Decision;
use serde::json::{Map, Value};
use std::collections::BTreeMap;

/// What kind of metric a family is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing sum.
    Counter,
    /// Last-written value.
    Gauge,
}

impl MetricKind {
    /// The Prometheus `# TYPE` name.
    pub fn name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
        }
    }
}

/// The fixed family table: name, kind, help. Single source of truth for
/// both exposition formats.
const FAMILIES: &[(&str, MetricKind, &str)] = &[
    ("rsh_runs_total", MetricKind::Counter, "Operations completed, by direction."),
    ("rsh_bytes_in_total", MetricKind::Counter, "Input bytes consumed, by direction."),
    ("rsh_bytes_out_total", MetricKind::Counter, "Output bytes produced, by direction."),
    ("rsh_compression_ratio", MetricKind::Gauge, "Compression ratio of the last compress run."),
    ("rsh_chunks_total", MetricKind::Counter, "Payload chunks processed."),
    ("rsh_chunks_damaged_total", MetricKind::Counter, "Payload chunks found damaged."),
    ("rsh_shards_total", MetricKind::Counter, "Frame shards processed."),
    ("rsh_shards_ok_total", MetricKind::Counter, "Frame shards decoded clean."),
    (
        "rsh_shards_recovered_total",
        MetricKind::Counter,
        "Frame shards recovered best-effort (damaged or unreadable).",
    ),
    ("rsh_stage_seconds_total", MetricKind::Counter, "Modeled device seconds, by pipeline stage."),
    ("rsh_decode_backend_total", MetricKind::Counter, "Decode operations, by backend."),
    ("rsh_requests_total", MetricKind::Counter, "Serve requests completed, by outcome."),
    ("rsh_retries_total", MetricKind::Counter, "Serve attempts retried after transient faults."),
    ("rsh_shed_total", MetricKind::Counter, "Serve requests shed at admission, by reason."),
    (
        "rsh_deadline_miss_total",
        MetricKind::Counter,
        "Serve requests cancelled for missing their deadline.",
    ),
    (
        "rsh_degraded_total",
        MetricKind::Counter,
        "Serve requests completed on a degraded decode backend, by backend.",
    ),
    (
        "rsh_queue_wait_seconds_total",
        MetricKind::Counter,
        "Modeled seconds serve requests spent queued for a worker.",
    ),
    ("rsh_queue_depth", MetricKind::Gauge, "Admission queue depth seen by the latest request."),
    (
        "rsh_quarantined_shards_total",
        MetricKind::Counter,
        "Shards quarantined off failed devices and rescheduled onto survivors.",
    ),
    (
        "rsh_range_decodes_total",
        MetricKind::Counter,
        "Random-access range decodes, by offset source (index/scan).",
    ),
    ("rsh_range_bytes_total", MetricKind::Counter, "Bytes produced by range decodes."),
    ("rsh_range_chunks_touched_total", MetricKind::Counter, "Chunks decoded to serve range reads."),
    (
        "rsh_range_chunks_skipped_total",
        MetricKind::Counter,
        "Chunks range reads did not have to decode.",
    ),
    (
        "rsh_index_probes_total",
        MetricKind::Counter,
        "Seek-index u64-word probes spent locating chunk offsets.",
    ),
    ("rsh_tune_lookups_total", MetricKind::Counter, "Tuning-cache lookups, by result (hit/miss)."),
    (
        "rsh_tune_decisions_total",
        MetricKind::Counter,
        "Autotune decisions applied, by dispatch path.",
    ),
];

#[derive(Debug, Clone)]
struct Family {
    kind: MetricKind,
    help: &'static str,
    /// Canonical label string (`{k="v"}` or empty) → sample value.
    samples: BTreeMap<String, f64>,
}

/// A fixed-family metrics registry, owned by whoever counts (see the
/// module docs).
#[derive(Debug, Clone)]
pub struct Registry {
    families: BTreeMap<&'static str, Family>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

/// Escape a label value per the Prometheus text-exposition rules:
/// inside the quoted value, backslash, double-quote and newline must be
/// written as `\\`, `\"` and `\n`. Without this, a value containing `"`
/// or a newline produces an exposition no scraper can parse.
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Invert [`escape_label_value`]. Unknown escape sequences pass through
/// verbatim (matching how Prometheus parsers treat them).
pub fn unescape_label_value(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('"') => out.push('"'),
            Some('n') => out.push('\n'),
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
    }
    out
}

fn label_key(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    // Escaping happens at key construction, so storage, lookup and both
    // exposition formats all see the same canonical (escaped) string.
    let body: Vec<String> =
        labels.iter().map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v))).collect();
    format!("{{{}}}", body.join(","))
}

/// Format a sample value the way Prometheus text exposition does:
/// integers without a decimal point.
fn fmt_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

impl Registry {
    /// A registry with every known family present and empty.
    pub fn new() -> Self {
        let families = FAMILIES
            .iter()
            .map(|&(name, kind, help)| (name, Family { kind, help, samples: BTreeMap::new() }))
            .collect();
        Registry { families }
    }

    fn family_mut(&mut self, name: &str, expect: MetricKind) -> &mut Family {
        let f = self.families.get_mut(name).unwrap_or_else(|| panic!("unknown metric {name}"));
        assert_eq!(f.kind, expect, "metric {name} is a {}", f.kind.name());
        f
    }

    /// Add `v` (≥ 0) to a counter.
    pub fn add(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        debug_assert!(v >= 0.0, "counter {name} decremented by {v}");
        let f = self.family_mut(name, MetricKind::Counter);
        *f.samples.entry(label_key(labels)).or_default() += v;
    }

    /// Set a gauge.
    pub fn set(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        let f = self.family_mut(name, MetricKind::Gauge);
        f.samples.insert(label_key(labels), v);
    }

    /// Current value of a counter or gauge. Missing samples read as 0.
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> f64 {
        self.families
            .get(name)
            .and_then(|f| f.samples.get(&label_key(labels)).copied())
            .unwrap_or(0.0)
    }

    /// Prometheus text exposition (families in name order, samples in
    /// label order; empty families are omitted).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, f) in &self.families {
            if f.samples.is_empty() {
                continue;
            }
            out.push_str(&format!("# HELP {name} {}\n", f.help));
            out.push_str(&format!("# TYPE {name} {}\n", f.kind.name()));
            for (labels, &v) in &f.samples {
                out.push_str(&format!("{name}{labels} {}\n", fmt_value(v)));
            }
        }
        out
    }

    /// JSON export: one object per non-empty family, with its samples.
    pub fn to_json(&self) -> Value {
        let mut root = Map::new();
        let mut families = Vec::new();
        for (name, f) in &self.families {
            if f.samples.is_empty() {
                continue;
            }
            let mut fam = Map::new();
            fam.insert("name".into(), (*name).into());
            fam.insert("kind".into(), f.kind.name().into());
            fam.insert("help".into(), f.help.into());
            let samples = f
                .samples
                .iter()
                .map(|(labels, &v)| {
                    let mut o = Map::new();
                    o.insert("labels".into(), Value::String(labels.clone()));
                    o.insert("value".into(), Value::Float(v));
                    Value::Object(o)
                })
                .collect();
            fam.insert("samples".into(), Value::Array(samples));
            families.push(Value::Object(fam));
        }
        root.insert("families".into(), Value::Array(families));
        Value::Object(root)
    }

    // ---- Operation vocabulary: one count per library operation, taken
    // from the result the operation returned. ----

    /// One compress that turned `bytes_in` input bytes into `container`.
    /// A plain archive's chunk count comes from its O(1) header peek
    /// ([`archive::chunk_count`]); frames and raw containers count none.
    pub fn record_compress(&mut self, bytes_in: u64, container: &[u8]) {
        let d = [("direction", "compress")];
        let ratio = if bytes_in == 0 || container.is_empty() {
            1.0
        } else {
            bytes_in as f64 / container.len() as f64
        };
        self.add("rsh_runs_total", &d, 1.0);
        self.add("rsh_bytes_in_total", &d, bytes_in as f64);
        self.add("rsh_bytes_out_total", &d, container.len() as f64);
        self.set("rsh_compression_ratio", &[], ratio);
        let chunks = archive::chunk_count(container).unwrap_or(0);
        self.add("rsh_chunks_total", &[], chunks as f64);
    }

    /// One batched compress ([`crate::batch::compress_batched_with_faults`]):
    /// the compress itself, the frame's shards, each shard's modeled
    /// device seconds per stage (summed in shard order), and any shards
    /// quarantined off failed devices.
    pub fn record_batch_compress(
        &mut self,
        frame: &[u8],
        report: &BatchReport,
        quarantine: &QuarantineReport,
    ) {
        self.record_compress(report.input_bytes, frame);
        for shard in &report.shards {
            let t = shard.report.times;
            for (stage, seconds) in
                [("histogram", t.histogram), ("codebook", t.codebook), ("encode", t.encode)]
            {
                self.add("rsh_stage_seconds_total", &[("stage", stage)], seconds);
            }
        }
        self.add("rsh_shards_total", &[], report.shards.len() as f64);
        if !quarantine.is_clean() {
            self.add("rsh_quarantined_shards_total", &[], quarantine.quarantined.len() as f64);
        }
    }

    /// One decompress of `container` through `decoder`: container bytes
    /// in, decoded bytes out, total and damaged chunks, and — for a
    /// frame — how its shards came through.
    pub fn record_decompress(&mut self, container: &[u8], rec: &Recovered, decoder: DecoderKind) {
        let d = [("direction", "decompress")];
        let bytes_out = rec.symbols.len() * usize::from(rec.symbol_bytes.max(1));
        self.add("rsh_runs_total", &d, 1.0);
        self.add("rsh_bytes_in_total", &d, container.len() as f64);
        self.add("rsh_bytes_out_total", &d, bytes_out as f64);
        self.add("rsh_chunks_total", &[], rec.report.total_chunks as f64);
        self.add("rsh_chunks_damaged_total", &[], rec.report.damaged_chunks.len() as f64);
        self.add("rsh_decode_backend_total", &[("backend", decoder.name())], 1.0);
        let s = rec.shards;
        if s.ok + s.recovered > 0 {
            self.add("rsh_shards_total", &[], (s.ok + s.recovered) as f64);
            self.add("rsh_shards_ok_total", &[], s.ok as f64);
            self.add("rsh_shards_recovered_total", &[], s.recovered as f64);
        }
    }

    /// One random-access range read through `decoder`: output bytes, the
    /// chunks it decoded against the container's total, and the probe
    /// traffic it spent locating offsets (see
    /// [`crate::archive::decode_range`]).
    pub fn record_range(&mut self, r: &RangeDecode, decoder: DecoderKind) {
        let source = if r.index_used { "index" } else { "scan" };
        self.add("rsh_range_decodes_total", &[("source", source)], 1.0);
        self.add("rsh_range_bytes_total", &[], r.bytes.len() as f64);
        self.add("rsh_range_chunks_touched_total", &[], r.chunks_touched as f64);
        let skipped = r.total_chunks.saturating_sub(r.chunks_touched);
        self.add("rsh_range_chunks_skipped_total", &[], skipped as f64);
        self.add("rsh_index_probes_total", &[], r.index_probes as f64);
        self.add("rsh_decode_backend_total", &[("backend", decoder.name())], 1.0);
    }

    /// One tuning-cache lookup ([`crate::tune::Tuner::decide`]) and the
    /// decision it applied.
    pub fn record_tune(&mut self, decision: &Decision, hit: bool) {
        let result = if hit { "hit" } else { "miss" };
        self.add("rsh_tune_lookups_total", &[("result", result)], 1.0);
        self.add("rsh_tune_decisions_total", &[("dispatch", decision.dispatch.name())], 1.0);
    }

    // ---- Serve-path vocabulary (see `crate::serve`). ----

    /// One serve request reaching a terminal outcome (`"success"`,
    /// `"degraded"`, `"shed"`, `"deadline"`, `"failed"`).
    pub fn record_request(&mut self, outcome: &str) {
        self.add("rsh_requests_total", &[("outcome", outcome)], 1.0);
    }

    /// Retries spent on one request (0 is a no-op).
    pub fn record_retries(&mut self, retries: u64) {
        if retries > 0 {
            self.add("rsh_retries_total", &[], retries as f64);
        }
    }

    /// One request shed at admission.
    pub fn record_shed(&mut self, reason: &str) {
        self.add("rsh_shed_total", &[("reason", reason)], 1.0);
    }

    /// One request cancelled for missing its deadline.
    pub fn record_deadline_miss(&mut self) {
        self.add("rsh_deadline_miss_total", &[], 1.0);
    }

    /// One request served by a degraded decode backend.
    pub fn record_degraded(&mut self, backend: &str) {
        self.add("rsh_degraded_total", &[("backend", backend)], 1.0);
    }

    /// Modeled queue wait of one admitted request, plus the depth it saw.
    pub fn record_queue_wait(&mut self, seconds: f64, depth: usize) {
        self.add("rsh_queue_wait_seconds_total", &[], seconds);
        self.set("rsh_queue_depth", &[], depth as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::integrity::{RecoveryReport, ShardTally};

    #[test]
    fn counters_accumulate_monotonically() {
        let mut r = Registry::new();
        let labels = [("direction", "compress")];
        let mut last = r.get("rsh_bytes_in_total", &labels);
        for _ in 0..5 {
            r.add("rsh_bytes_in_total", &labels, 100.0);
            let now = r.get("rsh_bytes_in_total", &labels);
            assert!(now > last);
            last = now;
        }
        assert_eq!(last, 500.0);
    }

    #[test]
    fn gauge_overwrites() {
        let mut r = Registry::new();
        r.set("rsh_compression_ratio", &[], 2.0);
        r.set("rsh_compression_ratio", &[], 3.5);
        assert_eq!(r.get("rsh_compression_ratio", &[]), 3.5);
    }

    /// A decompress result over `chunks` chunks with the given shard tally.
    fn recovered(chunks: usize, shards: ShardTally) -> Recovered {
        Recovered {
            symbols: vec![0; 100],
            report: RecoveryReport::clean(chunks),
            symbol_bytes: 2,
            shards,
        }
    }

    #[test]
    fn exposition_has_help_and_type_lines() {
        let mut r = Registry::new();
        r.record_compress(1000, &[0; 400]);
        r.record_decompress(&[0; 400], &recovered(4, ShardTally::default()), DecoderKind::Lut);
        let text = r.render();
        assert!(text.contains("# HELP rsh_runs_total"));
        assert!(text.contains("# TYPE rsh_runs_total counter"));
        assert!(text.contains("rsh_runs_total{direction=\"compress\"} 1"));
        assert!(text.contains("rsh_bytes_out_total{direction=\"decompress\"} 200"));
        assert!(text.contains("rsh_decode_backend_total{backend=\"lut\"} 1"));
        assert!(text.contains("# TYPE rsh_compression_ratio gauge"));
        assert!(text.contains("rsh_compression_ratio 2.5"));
        // Empty families are omitted entirely: a bare archive (zero
        // shard tally) counts no shards.
        assert!(!text.contains("rsh_shards_total"));
    }

    #[test]
    fn shard_helpers_reconcile() {
        let mut r = Registry::new();
        let rec = recovered(8, ShardTally { ok: 3, recovered: 1 });
        r.record_decompress(&[0; 64], &rec, DecoderKind::Chunked);
        assert_eq!(r.get("rsh_shards_total", &[]), 4.0);
        assert_eq!(r.get("rsh_shards_ok_total", &[]), 3.0);
        assert_eq!(r.get("rsh_shards_recovered_total", &[]), 1.0);
        // One operation, however many shards.
        assert_eq!(r.get("rsh_runs_total", &[("direction", "decompress")]), 1.0);
        assert_eq!(r.get("rsh_decode_backend_total", &[("backend", "chunked")]), 1.0);
    }

    #[test]
    fn json_export_mirrors_samples() {
        let mut r = Registry::new();
        r.record_compress(1000, &[0; 400]);
        let v = r.to_json();
        let families = v.as_object().unwrap().get("families").unwrap().as_array().unwrap();
        assert!(!families.is_empty());
        let names: Vec<&str> = families
            .iter()
            .map(|f| f.as_object().unwrap().get("name").unwrap().as_str().unwrap())
            .collect();
        assert!(names.contains(&"rsh_bytes_out_total"));
        assert!(names.contains(&"rsh_compression_ratio"));
    }

    #[test]
    #[should_panic(expected = "unknown metric")]
    fn unknown_metric_panics() {
        Registry::new().add("rsh_nonexistent", &[], 1.0);
    }

    #[test]
    fn label_values_are_escaped_in_exposition() {
        let mut r = Registry::new();
        r.record_shed("queue \"full\"\nback\\slash");
        let text = r.render();
        assert!(
            text.contains(r#"rsh_shed_total{reason="queue \"full\"\nback\\slash"} 1"#),
            "exposition: {text}"
        );
        // No raw newline may survive inside a sample line.
        for line in text.lines() {
            assert!(!line.is_empty() || text.ends_with('\n'));
        }
        // Lookup with the same raw value still round-trips.
        assert_eq!(r.get("rsh_shed_total", &[("reason", "queue \"full\"\nback\\slash")]), 1.0);
        // JSON export stays parseable by the vendored parser.
        serde::json::Value::parse(&r.to_json().to_string()).unwrap();
    }

    mod label_escaping_properties {
        use super::super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// Any label value survives escape → unescape, and both the
            /// text and JSON exposition of a registry carrying it stay
            /// parseable by the vendored parsers.
            #[test]
            fn label_escaping_roundtrips(
                idxs in proptest::collection::vec(0usize..12, 0..32)
            ) {
                const ALPHABET: [char; 12] =
                    ['a', 'Z', '0', ' ', '"', '\\', '\n', 'µ', '{', '}', '=', ','];
                let value: String = idxs.iter().map(|&i| ALPHABET[i]).collect();

                // The escape transform inverts exactly.
                let escaped = escape_label_value(&value);
                prop_assert_eq!(unescape_label_value(&escaped), value.clone());
                // Escaped values never contain raw newlines.
                prop_assert!(!escaped.contains('\n'));

                let mut r = Registry::new();
                r.record_shed(&value);
                prop_assert_eq!(r.get("rsh_shed_total", &[("reason", &value)]), 1.0);

                // Text exposition: the sample line's quoted value parses
                // back to the original.
                let text = r.render();
                let line = text
                    .lines()
                    .find(|l| l.starts_with("rsh_shed_total{reason=\""))
                    .expect("sample line present");
                let quoted = &line["rsh_shed_total{reason=\"".len()..];
                let end = quoted.rfind("\"}").expect("closing quote");
                prop_assert_eq!(unescape_label_value(&quoted[..end]), value);

                // JSON exposition: the vendored parser accepts the
                // document.
                let json = r.to_json().to_string();
                let parsed = serde::json::Value::parse(&json).expect("valid JSON");
                prop_assert!(parsed.as_object().is_some());
            }
        }
    }
}
