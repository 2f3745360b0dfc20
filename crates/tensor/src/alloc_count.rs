//! A counting wrapper around the system allocator, for benches that gate
//! allocation counts (`allocs.*` keys). It lives here because this crate
//! is where the workspace keeps its `unsafe`; a bench installs it with
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: pipemare_tensor::CountingAlloc = pipemare_tensor::CountingAlloc::new();
//! ```
//!
//! and reads [`CountingAlloc::calls`] before and after the code it
//! measures. Counts are process-wide, so measure on one thread while
//! the others are idle.
//!
//! Once [`CountingAlloc::watch_large`] has named a size, the counter also
//! tells how many bytes went into allocations at least that large, which
//! is how a test shows that no buffer of a given size (a patch matrix,
//! say) was ever built, let alone kept.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

/// The system allocator, counting every allocation call and the bytes
/// it asked for, and the bytes in blocks of a watched size. Frees are not
/// counted.
pub struct CountingAlloc {
    calls: AtomicU64,
    bytes: AtomicU64,
    large_min: AtomicUsize,
    large_bytes: AtomicU64,
}

impl CountingAlloc {
    /// A counter at zero, watching no size.
    pub const fn new() -> Self {
        CountingAlloc {
            calls: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            large_min: AtomicUsize::new(usize::MAX),
            large_bytes: AtomicU64::new(0),
        }
    }

    /// Allocation calls so far (`alloc`, `alloc_zeroed` and `realloc`).
    pub fn calls(&self) -> u64 {
        self.calls.load(Relaxed)
    }

    /// Bytes requested by those calls.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Relaxed)
    }

    /// From now on, allocations of at least `min_bytes` are "large";
    /// restarts [`large_bytes`](Self::large_bytes) at zero.
    pub fn watch_large(&self, min_bytes: usize) {
        self.large_min.store(min_bytes, Relaxed);
        self.large_bytes.store(0, Relaxed);
    }

    /// Bytes requested by large allocations since `watch_large`.
    pub fn large_bytes(&self) -> u64 {
        self.large_bytes.load(Relaxed)
    }

    fn count(&self, size: usize) {
        // Statistics only: nothing is published through these counters.
        self.calls.fetch_add(1, Relaxed);
        self.bytes.fetch_add(size as u64, Relaxed);
        if size >= self.large_min.load(Relaxed) {
            self.large_bytes.fetch_add(size as u64, Relaxed);
        }
    }
}

impl Default for CountingAlloc {
    fn default() -> Self {
        Self::new()
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.count(layout.size());
        // SAFETY: the caller's `layout` obligations are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.count(layout.size());
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.count(new_size);
        // SAFETY: `ptr` and `layout` come from this allocator, which is
        // `System` underneath, and are passed through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}
