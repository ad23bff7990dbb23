//! # huff — the public facade of the reduce-shuffle Huffman system
//!
//! Re-exports the user-facing API of the workspace:
//!
//! * [`huff_core`] — the encoder/decoder library (histogram, two-phase
//!   parallel codebook construction, reduce-shuffle encoding, canonical
//!   decoding, the `compress`/`decompress` archive);
//! * [`gpu_sim`] — the simulated-device substrate (device specs, launch
//!   API, cost model);
//! * [`huff_datasets`] — synthetic equivalents of the paper's evaluation
//!   datasets.
//!
//! ## Quickstart
//!
//! ```
//! use huff::prelude::*;
//!
//! // Some 16-bit quantization codes (any &[u16] with symbols < num_symbols).
//! let data: Vec<u16> = (0..50_000).map(|i| (i % 40) as u16).collect();
//!
//! // One-call compression with auto-tuned reduction factor.
//! let packed = compress(&data, &CompressOptions::new(256)).unwrap();
//! assert_eq!(decompress(&packed).unwrap(), data);
//!
//! // Or drive the staged pipeline on a simulated V100.
//! let gpu = Gpu::v100();
//! let (stream, book, report) =
//!     pipeline::run(&gpu, &data, 2, 256, 10, None, PipelineKind::ReduceShuffle).unwrap();
//! assert!(report.encode_gbps() > 0.0);
//! let roundtrip = huff::decode::chunked::decode(&stream, &book).unwrap();
//! assert_eq!(roundtrip, data);
//! ```

#![warn(missing_docs)]

pub use gpu_sim;
pub use huff_core;
pub use huff_datasets;
pub use sz_quant;

pub use gpu_sim::{DeviceSpec, Gpu, GridDim};
pub use huff_core::archive::{compress, decompress, decompress_with, verify, CompressOptions};
pub use huff_core::batch::{compress_batched, BatchOptions, BatchReport};
pub use huff_core::pipeline::{self, PipelineKind, PipelineReport};
pub use huff_core::serve::{ChaosConfig, Engine, EngineConfig, Outcome, Request, ServeReport};
pub use huff_core::{
    batch, codebook, container, decode, encode, entropy, frame, histogram, integrity, kernels,
    serve, sparse, tree, BreakingStrategy, CanonicalCodebook, ChunkedStream, Codeword,
    DecompressOptions, EncodedStream, HuffError, MergeConfig, Recovered, RecoveryMode,
    RecoveryReport, Result, Section, Verify,
};
pub use huff_datasets::PaperDataset;

/// The convenient single import.
pub mod prelude {
    pub use crate::{
        compress, decompress, decompress_with, pipeline, BreakingStrategy, CanonicalCodebook,
        ChunkedStream, CompressOptions, DecompressOptions, DeviceSpec, Gpu, HuffError, MergeConfig,
        PaperDataset, PipelineKind, RecoveryMode, RecoveryReport, Verify,
    };
}
