//! Decoding.
//!
//! The paper focuses on encoding; decoding gets the same treatment from
//! the companion paper (Rivera et al. 2022), reproduced here:
//! * [`canonical`] — treeless canonical decoding with the `First`/`Entry`
//!   metadata (the reason the codebook is canonized, Section IV-B2);
//! * [`tree`] — Huffman-tree-walking reference decoder;
//! * [`chunked`] — parallel per-chunk decoding of
//!   [`ChunkedStream`]s with breaking-unit
//!   splicing (plus the single-thread `serial` baseline);
//! * [`lut`] — the second-generation decoder: multi-bit LUT probes plus
//!   subchunk gap-array self-synchronization;
//! * [`gpu`] — the decoders as device kernels with modeled time.
//!
//! All backends are bit-exact with each other; [`DecoderKind`] selects
//! one, and [`decode_stream`] / [`decode_stream_best_effort`] dispatch.

pub mod canonical;
pub mod chunked;
pub mod gpu;
pub mod lut;
mod multi;
pub mod tree;

use crate::codebook::CanonicalCodebook;
use crate::encode::ChunkedStream;
use crate::error::{HuffError, Result};
use crate::integrity::RecoveryReport;

/// Which decoder backend to run. Every backend produces bit-identical
/// output; they differ in parallelism and modeled device cost. On the
/// host all three run the same multi-symbol table loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DecoderKind {
    /// Single thread, chunk by chunk — the baseline, modeled as one
    /// bit-serial device thread.
    Serial,
    /// One worker per chunk, modeled as a block walking its chunk
    /// bit-serially (the original kernel shape).
    #[default]
    Chunked,
    /// Multi-bit LUT probes plus subchunk gap-array self-synchronization
    /// within each chunk ([`lut`]).
    Lut,
}

impl DecoderKind {
    /// Parse a CLI-style name (`serial`, `chunked`, `lut`).
    pub fn parse(name: &str) -> Result<Self> {
        match name {
            "serial" => Ok(DecoderKind::Serial),
            "chunked" => Ok(DecoderKind::Chunked),
            "lut" => Ok(DecoderKind::Lut),
            _ => Err(HuffError::BadArchive(format!(
                "unknown decoder '{name}' (expected serial, chunked or lut)"
            ))),
        }
    }

    /// The CLI-style name.
    pub fn name(self) -> &'static str {
        match self {
            DecoderKind::Serial => "serial",
            DecoderKind::Chunked => "chunked",
            DecoderKind::Lut => "lut",
        }
    }
}

/// Strict decode of a chunked stream with the selected backend.
pub fn decode_stream(
    stream: &ChunkedStream,
    book: &CanonicalCodebook,
    decoder: DecoderKind,
) -> Result<Vec<u16>> {
    // The empty stream decodes to nothing on every backend — and is the
    // only stream an empty codebook (empty-input archive) can carry.
    if stream.num_symbols == 0 && stream.num_chunks() == 0 {
        return Ok(Vec::new());
    }
    match decoder {
        DecoderKind::Serial => chunked::decode_serial(stream, book),
        DecoderKind::Chunked => chunked::decode(stream, book),
        DecoderKind::Lut => lut::decode(stream, book),
    }
}

/// Best-effort decode of a chunked stream with the selected backend. The
/// recovery contract (sentinel fill, report) is backend-independent.
pub fn decode_stream_best_effort(
    stream: &ChunkedStream,
    book: &CanonicalCodebook,
    damaged: &[bool],
    sentinel: u16,
    decoder: DecoderKind,
) -> (Vec<u16>, RecoveryReport) {
    if stream.num_symbols == 0 && stream.num_chunks() == 0 {
        return (Vec::new(), RecoveryReport::clean(0));
    }
    match decoder {
        DecoderKind::Serial => chunked::decode_serial_best_effort(stream, book, damaged, sentinel),
        DecoderKind::Chunked => chunked::decode_best_effort(stream, book, damaged, sentinel),
        DecoderKind::Lut => lut::decode_best_effort(stream, book, damaged, sentinel),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decoder_kind_parse_roundtrip() {
        for kind in [DecoderKind::Serial, DecoderKind::Chunked, DecoderKind::Lut] {
            assert_eq!(DecoderKind::parse(kind.name()).unwrap(), kind);
        }
        assert!(DecoderKind::parse("warp").is_err());
        assert_eq!(DecoderKind::default(), DecoderKind::Chunked);
    }
}
