//! # huff-core — reduce-shuffle GPU Huffman encoding
//!
//! A full reimplementation of the system described in *"Revisiting Huffman
//! Coding: Toward Extreme Performance on Modern GPU Architectures"*
//! (Tian et al., IPDPS 2021): a four-stage Huffman **encoder** designed for
//! massive fine-grained parallelism —
//!
//! 1. **histogramming** ([`histogram`]) — Gómez-Luna replicated
//!    shared-memory histograms;
//! 2. **codebook construction** ([`codebook`]) — the two-phase parallel
//!    canonical construction (`GenerateCL`/`GenerateCW` after Ostadzadeh et
//!    al., with Merge-Path `PARMERGE`), scaling to the large codebooks
//!    (1024-65536 symbols) that error-bounded lossy compressors and k-mer
//!    pipelines need;
//! 3. **canonization** — folded into `GenerateCW`, producing the
//!    `First`/`Entry` metadata for treeless decoding;
//! 4. **encoding** ([`encode`]) — the novel `ReduceShuffleMerge<M, r>`
//!    scheme: merge `2^r` codewords per thread (REDUCE), then densify by
//!    `s = M - r` contention-free batched moves (SHUFFLE), with breaking
//!    units stored sparsely ([`sparse`]).
//!
//! Baselines from the paper's evaluation are included: the serial and
//! multithreaded CPU encoders, cuSZ's coarse-grained GPU encoder, and the
//! Rahmani prefix-sum GPU encoder. [`decode`] provides treeless canonical,
//! tree-walking, and parallel chunked decoders; [`archive`] wraps
//! everything into a `compress`/`decompress` container with CRC32
//! integrity checking and best-effort chunk recovery ([`integrity`],
//! exercised by the deterministic fault model in [`testing`]);
//! [`container`] tells its on-disk formats apart.
//!
//! "GPU" here is the [`gpu_sim`] substrate: all transformations are
//! bit-exact host computations; device *time* is modeled from the memory
//! traffic each kernel reports (see that crate's docs and DESIGN.md).
//!
//! ```
//! use huff_core::archive::{compress, decompress, CompressOptions};
//!
//! let data: Vec<u16> = (0..10_000).map(|i| (i % 7) as u16).collect();
//! let packed = compress(&data, &CompressOptions::new(256)).unwrap();
//! assert!(packed.len() < data.len()); // 7 symbols compress well below 2 B each
//! assert_eq!(decompress(&packed).unwrap(), data);
//! ```

#![warn(missing_docs)]

pub mod archive;
pub mod batch;
pub mod bitstream;
pub mod codebook;
pub mod codeword;
pub mod container;
pub mod decode;
pub mod encode;
pub mod entropy;
pub mod error;
pub mod frame;
pub mod histogram;
pub mod integrity;
pub mod kernels;
pub mod metrics;
pub mod pipeline;
pub mod plan;
pub mod seek;
pub mod serve;
pub mod slo;
pub mod sparse;
pub mod testing;
pub mod tree;
pub mod tune;
pub mod wire;

pub use batch::{compress_batched, BatchOptions, BatchReport};
pub use codebook::{parallel as build_codebook, CanonicalCodebook};
pub use codeword::Codeword;
pub use decode::DecoderKind;
pub use encode::{BreakingStrategy, ChunkedStream, EncodedStream, MergeConfig};
pub use error::{HuffError, Result};
pub use integrity::{
    DecompressOptions, RangeDecode, Recovered, RecoveryMode, RecoveryReport, Section, Verify,
};
pub use metrics::{PipelineProfile, StageMetrics, TRACE_SCHEMA};
pub use plan::KernelPlan;
pub use seek::ChunkIndex;
pub use serve::{ChaosConfig, Engine, EngineConfig, Outcome, Request, ServeReport};
pub use slo::{Objective, SloReport, SloStatus, SLO_SCHEMA};
pub use tune::{Decision, Dispatch, Signature, TuneCache, Tuner};
