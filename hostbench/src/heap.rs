//! Heap bytes in use, counted by wrapping the system allocator.
//!
//! The resident set (`VmHWM`) also counts freed memory the allocator has
//! not yet returned to the kernel, and whether it has depends on the exact
//! sizes of earlier allocations: two seeds of one workload differ by a
//! whole archive buffer. The count here is what the program holds, so it
//! repeats across runs and seeds.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// The system allocator, counting the bytes of live allocations.
pub struct Counting;

// Statistics only: no other data is published through them, so `Relaxed`.
static IN_USE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let now = IN_USE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(now, Relaxed);
}

fn shrank(bytes: usize) {
    IN_USE.fetch_sub(bytes, Relaxed);
}

// SAFETY: every method passes its arguments unchanged to `System` and
// returns what `System` returns, so each upholds the `GlobalAlloc`
// contract exactly as `System` does. The counters never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees for `alloc` hold for this call.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees for `alloc_zeroed` hold for this call.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`, plus the caller's guarantees on `new_size`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            match new_size.checked_sub(layout.size()) {
                Some(more) => grew(more),
                None => shrank(layout.size() - new_size),
            }
        }
        p
    }
}

/// The most heap bytes in use at once since the process started.
pub fn peak_bytes() -> usize {
    PEAK.load(Relaxed)
}
