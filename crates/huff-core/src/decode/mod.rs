//! Decoding.
//!
//! The paper focuses on encoding; decoding gets the same treatment from
//! the companion paper (Rivera et al. 2022), reproduced here:
//! * [`canonical`] — treeless canonical decoding with the `First`/`Entry`
//!   metadata (the reason the codebook is canonized, Section IV-B2);
//! * [`tree`] — Huffman-tree-walking reference decoder;
//! * [`chunked`] — per-chunk decoding of [`ChunkedStream`]s with
//!   breaking-unit splicing: the one host decode routine;
//! * [`lut`] — the second-generation device decoder: multi-bit LUT probes
//!   plus subchunk gap-array self-synchronization, with the count walk
//!   that prices it;
//! * [`gpu`] — the decoders as device kernels with modeled time.
//!
//! [`DecoderKind`] picks which kernels the modeled device launches. On
//! the host every kind produces its bytes with the same routine, so
//! [`decode_stream`] and [`decode_stream_best_effort`] ignore it.

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

/// Which decoder backend the modeled device runs. Every backend produces
/// bit-identical output, and on the host all three are the one chunked
/// routine; they differ in modeled parallelism and device cost, and in
/// the label the registry counts a decode under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DecoderKind {
    /// The baseline: the whole stream on one bit-serial device thread.
    Serial,
    /// One block per chunk, each walking its chunk bit-serially (the
    /// original kernel shape).
    #[default]
    Chunked,
    /// A sync kernel settles each chunk's subchunk gap array, then a
    /// decode kernel probes a multi-bit LUT once per symbol ([`lut`]).
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

/// Strict decode of a chunked stream. The host ignores `decoder`: every
/// kind decodes with [`chunked::decode`].
pub fn decode_stream(
    stream: &ChunkedStream,
    book: &CanonicalCodebook,
    _decoder: DecoderKind,
) -> Result<Vec<u16>> {
    chunked::decode(stream, book)
}

/// Best-effort decode of a chunked stream: damaged chunks are
/// sentinel-filled and reported. The host ignores `decoder`, as in
/// [`decode_stream`].
pub fn decode_stream_best_effort(
    stream: &ChunkedStream,
    book: &CanonicalCodebook,
    damaged: &[bool],
    sentinel: u16,
    _decoder: DecoderKind,
) -> (Vec<u16>, RecoveryReport) {
    chunked::decode_best_effort(stream, book, damaged, sentinel)
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
