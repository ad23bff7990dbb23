//! # gpu-sim — a bulk-synchronous SIMT execution model with an analytic cost model
//!
//! This crate is the hardware substrate for the reduce-shuffle Huffman
//! reproduction. The paper ("Revisiting Huffman Coding: Toward Extreme
//! Performance on Modern GPU Architectures", IPDPS'21) runs CUDA kernels on
//! a V100 and an RTX 5000; here, kernels are expressed as sequences of
//! grid-wide parallel regions (the Cooperative-Groups persistent-kernel
//! style the paper uses) and executed with real data parallelism on the
//! host, while a [`traffic::Traffic`] ledger records the memory behaviour —
//! coalesced vs. strided vs. random, atomics and their conflicts, grid
//! syncs, sequential latency-bound regions — and [`cost::estimate`] turns
//! the ledger into modeled device time from spec-sheet numbers alone.
//! Each launch leaves a [`KernelRecord`] trace event on the device's
//! [`SimClock`]; [`trace`] exports those events as structured JSON or a
//! Chrome `trace_event` timeline.
//!
//! What is *real*: all data transformations (histograms, codebooks,
//! bitstreams) are bit-exact computations. What is *modeled*: the time they
//! would take on the device, which is the quantity every table in the paper
//! reports.
//!
//! ```
//! use gpu_sim::{Gpu, GridDim, Access};
//!
//! let gpu = Gpu::v100();
//! let data: Vec<u64> = vec![1; 1 << 16];
//! let total = gpu.launch("sum", GridDim::cover(data.len(), 256), |scope| {
//!     scope.traffic().read(Access::Coalesced, data.len() as u64, 8);
//!     gpu_sim::reduce::sum_u64(scope, &data)
//! });
//! assert_eq!(total, 1 << 16);
//! assert!(gpu.elapsed() > 0.0);
//! ```

#![warn(missing_docs)]
#![allow(clippy::needless_range_loop)]

pub mod atomic;
pub mod clock;
pub mod cost;
pub mod device;
pub mod exec;
pub mod grid;
pub mod info;
pub mod prefix;
pub mod reduce;
pub mod roofline;
pub mod shared;
pub mod sort;
pub mod stream;
pub mod trace;
pub mod traffic;

pub use clock::{KernelRecord, SimClock};
pub use cost::{gbps, throughput, CostBreakdown};
pub use device::DeviceSpec;
pub use exec::{Gpu, KernelScope, Launch};
pub use grid::{GridDim, ThreadIdx};
pub use info::{Granularity, KernelInfo, Mapping, SyncScope};
pub use roofline::{Bound, Counters};
pub use shared::SharedMem;
pub use stream::{EventId, StreamSchedule, Timeline};
pub use traffic::{Access, Traffic};
