//! Peak live heap bytes, counted by a wrapper around the system allocator.
//!
//! The process's peak RSS follows allocator arenas and mmap thresholds more
//! than program state (across runs of one workload it moved by up to half),
//! so the benchmark counts the bytes the program holds instead.
//! Counting is switched on only around the warm-up session: when off, the
//! wrapper costs one relaxed load per call, so measured sessions pay
//! nothing for it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering};

pub struct Counting;

static ON: AtomicBool = AtomicBool::new(false);
/// Bytes allocated minus bytes freed since counting was switched on
/// (statistics only: no other data is published through these).
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

fn grow(bytes: usize) {
    if ON.load(Ordering::Relaxed) {
        let now = LIVE.fetch_add(bytes as isize, Ordering::Relaxed) + bytes as isize;
        PEAK.fetch_max(now, Ordering::Relaxed);
    }
}

fn shrink(bytes: usize) {
    if ON.load(Ordering::Relaxed) {
        LIVE.fetch_sub(bytes as isize, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees carry over unchanged; the counters
// are plain atomics and never touch the allocated memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for `layout`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller passes a block this allocator (that is,
        // `System`) returned for `layout`.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract; the
        // block came from `System`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            shrink(layout.size());
            grow(new_size);
        }
        p
    }
}

/// Runs `f` with counting on and returns its result with the peak live
/// bytes allocated while it ran (net of what it freed).
pub fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    ON.store(true, Ordering::SeqCst);
    let out = f();
    ON.store(false, Ordering::SeqCst);
    (out, PEAK.load(Ordering::Relaxed).max(0) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_the_peak_not_the_total() {
        let ((), peak) = peak_during(|| {
            for _ in 0..10 {
                let v = std::hint::black_box(vec![0u8; 1 << 20]);
                drop(v);
            }
        });
        // Other test threads may allocate meanwhile; the ten 1 MiB blocks
        // must never count as more than one.
        assert!((1 << 20..5 << 20).contains(&peak), "{peak}");
    }
}
