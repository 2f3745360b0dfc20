//! The one allocator setting a training loop needs.
//!
//! A training step allocates its activations, caches and gradients as it
//! goes and has freed them all by the end of each microbatch's backward
//! pass — 17 MB per step on the ResNet stand-in, in blocks of ≈120 KB.
//! glibc returns the top of the heap to the kernel whenever more than
//! its trim threshold is free there (128 KiB, or twice the largest block
//! it has seen freed), so every microbatch page-faults its way back
//! through the memory the previous one returned: ≈2.5 ms of an 11 ms step,
//! measured by setting `MALLOC_TRIM_THRESHOLD_` in the environment of an
//! unchanged binary (8.5 ms, ×1.31). [`keep_freed_memory`] makes that the
//! process's own setting: freed memory stays with the allocator, and
//! blocks up to the largest size glibc allows (32 MiB) come from the heap
//! rather than from a mapping of their own that is unmapped on free and
//! faulted in again on the next use. Peak *requested* memory does not
//! change; what the kernel sees stays at the high-water mark, which for a
//! loop that reaches it every step is where it was heading anyway.

/// Tells the C allocator to keep freed memory instead of returning it to
/// the kernel; called once by the training driver. Returns whether the
/// allocator took the setting — `false` where there is none to take (not
/// glibc), which is not an error.
pub fn keep_freed_memory() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        use std::ffi::{c_int, c_long};
        use std::sync::OnceLock;
        // <malloc.h>
        const M_TRIM_THRESHOLD: c_int = -1;
        const M_MMAP_THRESHOLD: c_int = -3;
        // The largest mmap threshold glibc accepts (`HEAP_MAX_SIZE / 2`).
        const MMAP_THRESHOLD_MAX: usize = 4 * 1024 * 1024 * std::mem::size_of::<c_long>();
        extern "C" {
            fn mallopt(param: c_int, value: c_int) -> c_int;
        }
        static TAKEN: OnceLock<bool> = OnceLock::new();
        *TAKEN.get_or_init(|| {
            // SAFETY: `mallopt` is glibc's own entry point for these two
            // parameters, takes plain integers and may be called at any
            // time from any thread; it changes when memory is returned to
            // the kernel, never what an allocation means.
            unsafe {
                mallopt(M_TRIM_THRESHOLD, c_int::MAX) == 1
                    && mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_MAX as c_int) == 1
            }
        })
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    false
}

#[cfg(test)]
mod tests {
    #[test]
    fn the_setting_is_taken_once_and_stays_taken() {
        let taken = super::keep_freed_memory();
        assert_eq!(taken, cfg!(all(target_os = "linux", target_env = "gnu")));
        assert_eq!(super::keep_freed_memory(), taken);
    }
}
