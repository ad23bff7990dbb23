//! The bulk-synchronous SIMT executor.
//!
//! A [`Gpu`] launches kernels over a [`GridDim`]. A kernel body receives a
//! [`KernelScope`] and expresses its work as a sequence of grid-wide
//! parallel regions separated by implicit grid synchronizations — exactly
//! the Cooperative-Groups structure the paper's kernels use (one persistent
//! kernel, many `grid.sync()` points) rather than one kernel launch per
//! region. Parallel regions execute with real data-parallelism on the host
//! (rayon); the scope's [`Traffic`] ledger drives the analytic cost model,
//! and the modeled time lands on the device's [`SimClock`].

use crate::clock::SimClock;
use crate::cost::{self, CostBreakdown};
use crate::device::DeviceSpec;
use crate::grid::GridDim;
use crate::shared::SharedMem;
use crate::traffic::Traffic;
use rayon::prelude::*;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// A simulated GPU: a device spec plus an accumulating simulated clock.
///
/// `Gpu` is `Sync`; the clock is internally locked so pipelines can share a
/// device across host threads.
#[derive(Debug)]
pub struct Gpu {
    spec: DeviceSpec,
    clock: Mutex<SimClock>,
}

impl Gpu {
    /// A device with the given spec and an empty clock.
    pub fn new(spec: DeviceSpec) -> Self {
        Gpu { spec, clock: Mutex::new(SimClock::new()) }
    }

    /// A V100 device (the paper's primary evaluation part).
    pub fn v100() -> Self {
        Gpu::new(DeviceSpec::v100())
    }

    /// An RTX 5000 device.
    pub fn rtx5000() -> Self {
        Gpu::new(DeviceSpec::rtx5000())
    }

    /// The device spec.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// The locked clock. The lock is held only inside `SimClock`'s own
    /// short methods, never while a kernel body runs, so a poisoned lock
    /// still guards a consistent clock and is taken anyway.
    fn locked(&self) -> MutexGuard<'_, SimClock> {
        self.clock.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Launch a kernel: run `body` with a fresh [`KernelScope`], then charge
    /// the modeled time (including one kernel ramp) to the clock. Returns
    /// the body's result.
    pub fn launch<R>(
        &self,
        name: &str,
        grid: GridDim,
        body: impl FnOnce(&mut KernelScope) -> R,
    ) -> R {
        assert!(
            grid.threads_per_block <= self.spec.max_threads_per_block,
            "kernel `{name}`: {} threads/block exceeds device limit {}",
            grid.threads_per_block,
            self.spec.max_threads_per_block
        );
        let mut scope = KernelScope { spec: &self.spec, grid, traffic: Traffic::new() };
        let out = body(&mut scope);
        let breakdown = cost::estimate(&self.spec, &scope.traffic, true);
        self.locked().record(name, grid, breakdown, scope.traffic);
        out
    }

    /// Like [`Gpu::launch`] but also returns the modeled cost breakdown.
    pub fn launch_timed<R>(
        &self,
        name: &str,
        grid: GridDim,
        body: impl FnOnce(&mut KernelScope) -> R,
    ) -> (R, CostBreakdown) {
        let out = self.launch(name, grid, body);
        let cost = self.locked().records().last().expect("just recorded").cost;
        (out, cost)
    }

    /// Record a launch priced ahead of time from its ledger; returns its
    /// modeled cost.
    pub fn charge(&self, launch: &Launch) -> CostBreakdown {
        self.launch_timed(launch.name, launch.grid, |scope| *scope.traffic() = launch.traffic).1
    }

    /// Total modeled seconds accumulated so far.
    pub fn elapsed(&self) -> f64 {
        self.locked().elapsed()
    }

    /// Number of kernel launches recorded so far (cheaper than snapshotting
    /// the clock; used to delimit pipeline stages in the trace).
    pub fn launches(&self) -> usize {
        self.locked().launches()
    }

    /// Modeled seconds of kernels whose name contains `pat`.
    pub fn elapsed_matching(&self, pat: &str) -> f64 {
        self.locked().elapsed_matching(pat)
    }

    /// Snapshot the clock.
    pub fn clock(&self) -> SimClock {
        self.locked().clone()
    }

    /// Reset the clock to zero.
    pub fn reset_clock(&self) {
        self.locked().reset();
    }

    /// Stamp every subsequent launch's record with this trace id (the
    /// owning request's; see [`SimClock::set_trace`]).
    pub fn set_trace(&self, trace: &str) {
        self.locked().set_trace(trace);
    }
}

/// One kernel launch priced from its counters: the name, grid and traffic
/// ledger [`Gpu::charge`] records. A kernel and a planner that only
/// estimates the kernel's counters build the same value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Launch {
    /// Kernel name.
    pub name: &'static str,
    /// Launch geometry.
    pub grid: GridDim,
    /// The traffic the launch charges.
    pub traffic: Traffic,
}

/// Handle given to a kernel body; provides parallel regions and the traffic
/// ledger. Each parallel region ends with an implicit grid sync.
pub struct KernelScope<'a> {
    spec: &'a DeviceSpec,
    grid: GridDim,
    traffic: Traffic,
}

impl<'a> KernelScope<'a> {
    /// The launch configuration.
    pub fn grid(&self) -> GridDim {
        self.grid
    }

    /// The device spec (for warp size, shared-memory limits, ...).
    pub fn spec(&self) -> &DeviceSpec {
        self.spec
    }

    /// Mutable access to the kernel's traffic ledger, for bulk accounting
    /// (`scope.traffic().read(Access::Coalesced, n, 4)` etc.).
    pub fn traffic(&mut self) -> &mut Traffic {
        &mut self.traffic
    }

    /// Grid-wide fine-grained parallel region: one logical thread per item
    /// in `0..n`, `ops_per_item` scalar instructions each, implicit grid
    /// sync at the end. Items run with real parallelism; the closure must
    /// coordinate any shared writes itself (atomics or disjoint indices).
    pub fn par_for<F>(&mut self, n: usize, ops_per_item: u64, f: F)
    where
        F: Fn(usize) + Sync,
    {
        (0..n).into_par_iter().for_each(f);
        self.traffic.ops(n as u64 * ops_per_item);
        self.traffic.grid_sync();
    }

    /// Like [`KernelScope::par_for`] but sequential on the host — for tiny
    /// regions (a few hundred items) where rayon's scheduling overhead
    /// dwarfs the work. Cost accounting is identical to `par_for`: the
    /// modeled device still runs the region in parallel.
    pub fn par_for_small<F>(&mut self, n: usize, ops_per_item: u64, mut f: F)
    where
        F: FnMut(usize),
    {
        for i in 0..n {
            f(i);
        }
        self.traffic.ops(n as u64 * ops_per_item);
        self.traffic.grid_sync();
    }

    /// Grid-wide parallel region that partitions `data` into `chunk`-sized
    /// pieces, one block of threads per piece. The closure gets the chunk
    /// index and a mutable view of its piece — the common coarse-grained
    /// data-thread mapping.
    pub fn par_for_chunks<T, F>(&mut self, data: &mut [T], chunk: usize, ops_per_item: u64, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        assert!(chunk > 0);
        let n = data.len();
        data.par_chunks_mut(chunk).enumerate().for_each(|(i, c)| f(i, c));
        self.traffic.ops(n as u64 * ops_per_item);
        self.traffic.grid_sync();
    }

    /// Block-level parallel region: every block in the grid runs `f` with
    /// its block index and a fresh shared-memory arena sized to the device
    /// limit. Blocks run with real parallelism; within a block the closure
    /// is sequential (it models its intra-block threads itself and accounts
    /// shared-memory traffic in bulk).
    pub fn par_for_blocks<F>(&mut self, ops_per_block: u64, f: F)
    where
        F: Fn(u32, &mut SharedMem) + Sync,
    {
        let cap = self.spec.shared_mem_per_block;
        (0..self.grid.blocks).into_par_iter().for_each(|b| {
            let mut shmem = SharedMem::new(cap);
            f(b, &mut shmem);
        });
        self.traffic.ops(u64::from(self.grid.blocks) * ops_per_block);
        self.traffic.grid_sync();
    }

    /// Single-thread sequential region paying `dependent_accesses` full
    /// global-memory round trips — the "run the serial algorithm on the
    /// device" anti-pattern the paper's Section II-C measures at 144 ms for
    /// an 8192-symbol codebook.
    pub fn sequential<R>(&mut self, dependent_accesses: u64, f: impl FnOnce() -> R) -> R {
        let out = f();
        self.traffic.sequential(dependent_accesses);
        out
    }

    /// Explicit extra grid-wide synchronization (regions already sync
    /// implicitly).
    pub fn grid_sync(&mut self) {
        self.traffic.grid_sync();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::Access;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn gpu() -> Gpu {
        Gpu::new(DeviceSpec::test_part())
    }

    #[test]
    fn launch_runs_body_and_charges_clock() {
        let g = gpu();
        let r = g.launch("k", GridDim::new(2, 32), |s| {
            s.traffic().read(Access::Coalesced, 1024, 4);
            42
        });
        assert_eq!(r, 42);
        assert!(g.elapsed() >= g.spec().kernel_ramp);
        assert_eq!(g.clock().launches(), 1);
    }

    #[test]
    fn par_for_visits_every_index_once() {
        let g = gpu();
        let n = 10_000;
        let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        g.launch("k", GridDim::cover(n, 256), |s| {
            s.par_for(n, 1, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn par_for_chunks_partitions_disjointly() {
        let g = gpu();
        let mut data = vec![0u32; 1000];
        g.launch("k", GridDim::new(8, 128), |s| {
            s.par_for_chunks(&mut data, 128, 1, |ci, chunk| {
                for v in chunk.iter_mut() {
                    *v = ci as u32;
                }
            });
        });
        assert_eq!(data[0], 0);
        assert_eq!(data[129], 1);
        assert_eq!(data[999], 7);
    }

    #[test]
    fn par_for_blocks_gets_fresh_shared_memory() {
        let g = gpu();
        g.launch("k", GridDim::new(4, 256), |s| {
            s.par_for_blocks(1, |_b, shmem| {
                let v: Vec<u32> = shmem.alloc(1024);
                assert_eq!(v.len(), 1024);
                assert_eq!(shmem.used(), 4096);
            });
        });
    }

    #[test]
    fn regions_record_grid_syncs() {
        let g = gpu();
        g.launch("k", GridDim::new(1, 32), |s| {
            s.par_for_small(10, 1, |_| {});
            s.par_for_small(10, 1, |_| {});
            s.grid_sync();
        });
        let rec = g.clock();
        assert_eq!(rec.records()[0].traffic.grid_syncs, 3);
    }

    #[test]
    fn sequential_region_charges_latency() {
        let g = gpu();
        g.launch("serial", GridDim::new(1, 1), |s| s.sequential(1000, || ()));
        let c = g.clock();
        let rec = &c.records()[0];
        assert!(rec.cost.sequential_latency > 0.0);
    }

    #[test]
    #[should_panic(expected = "exceeds device limit")]
    fn oversized_block_rejected() {
        let g = gpu();
        g.launch("k", GridDim::new(1, 2048), |_s| {});
    }

    #[test]
    fn elapsed_matching_selects_kernels() {
        let g = gpu();
        g.launch("hist", GridDim::new(1, 32), |_| {});
        g.launch("encode", GridDim::new(1, 32), |_| {});
        assert!(g.elapsed_matching("hist") > 0.0);
        assert!(g.elapsed_matching("hist") < g.elapsed());
    }

    #[test]
    fn reset_clock_zeroes_elapsed() {
        let g = gpu();
        g.launch("k", GridDim::new(1, 32), |_| {});
        g.reset_clock();
        assert_eq!(g.elapsed(), 0.0);
    }
}
