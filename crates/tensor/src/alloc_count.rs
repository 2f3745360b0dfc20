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
//!
//! Frees are counted too, for [`CountingAlloc::live_bytes`] and its peak
//! ([`CountingAlloc::take_peak`]): how much a call held at once.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

/// The system allocator, counting every allocation call and the bytes
/// it asked for, the bytes in blocks of a watched size, and the bytes
/// live (allocated and not yet freed) with their peak. A `realloc` is one
/// call that asks for its new size, and for the live count a free of the
/// old block followed by an allocation of the new one.
pub struct CountingAlloc {
    calls: AtomicU64,
    bytes: AtomicU64,
    large_min: AtomicUsize,
    large_bytes: AtomicU64,
    live: AtomicUsize,
    peak: AtomicUsize,
}

impl CountingAlloc {
    /// A counter at zero, watching no size.
    pub const fn new() -> Self {
        CountingAlloc {
            calls: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            large_min: AtomicUsize::new(usize::MAX),
            large_bytes: AtomicU64::new(0),
            live: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
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

    /// Bytes allocated and not yet freed.
    pub fn live_bytes(&self) -> usize {
        self.live.load(Relaxed)
    }

    /// The most bytes live at once since the previous `take_peak` (or
    /// since the start); the next peak starts from the bytes live now.
    pub fn take_peak(&self) -> usize {
        self.peak.swap(self.live.load(Relaxed), Relaxed)
    }

    fn count(&self, size: usize) {
        // Statistics only: nothing is published through these counters.
        self.calls.fetch_add(1, Relaxed);
        self.bytes.fetch_add(size as u64, Relaxed);
        if size >= self.large_min.load(Relaxed) {
            self.large_bytes.fetch_add(size as u64, Relaxed);
        }
        let live = self.live.fetch_add(size, Relaxed) + size;
        self.peak.fetch_max(live, Relaxed);
    }

    fn free(&self, size: usize) {
        self.live.fetch_sub(size, Relaxed);
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
        self.free(layout.size());
        self.count(new_size);
        // SAFETY: `ptr` and `layout` come from this allocator, which is
        // `System` underneath, and are passed through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        self.free(layout.size());
        // SAFETY: as `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_bytes_and_peak_follow_frees_and_reallocs() {
        let counter = CountingAlloc::new();
        let layout = Layout::from_size_align(100, 8).expect("a valid layout");
        // SAFETY: `layout` has a non-zero size; the block is reallocated
        // and freed with the layout it has at that point, once each.
        unsafe {
            let p = counter.alloc(layout);
            assert!(!p.is_null());
            assert_eq!(counter.live_bytes(), 100);
            let p = counter.realloc(p, layout, 300);
            assert!(!p.is_null());
            assert_eq!((counter.live_bytes(), counter.calls(), counter.bytes()), (300, 2, 400));
            counter.dealloc(p, Layout::from_size_align(300, 8).expect("a valid layout"));
        }
        assert_eq!(counter.live_bytes(), 0);
        assert_eq!(counter.take_peak(), 300);
        // The next peak starts from what is live now.
        assert_eq!(counter.take_peak(), 0);
    }
}
