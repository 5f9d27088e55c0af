//! Peak live heap bytes, counted by a wrapper around the system
//! allocator while a window is open.
//!
//! The process's resident high-water mark is not steady enough to bound:
//! which glibc arena serves a worker thread's large buffers varies from
//! run to run, so the same input can peak at two resident sizes a buffer
//! apart. The bytes the program holds live at once do not depend on that.
//! Outside a window the wrapper costs one relaxed load per call.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering::Relaxed};

struct Counting;

#[global_allocator]
static ALLOCATOR: Counting = Counting;

// Statistics only: they publish no other data, so `Relaxed` suffices.
static OPEN: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

fn add(bytes: isize) {
    if OPEN.load(Relaxed) {
        let now = LIVE.fetch_add(bytes, Relaxed) + bytes;
        PEAK.fetch_max(now, Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are the caller's; the counting only
// touches atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded as is (see the impl comment).
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            add(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded as is (see the impl comment).
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            add(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded as is (see the impl comment).
        unsafe { System.dealloc(ptr, layout) };
        add(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded as is (see the impl comment).
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            add(new_size as isize - layout.size() as isize);
        }
        p
    }
}

/// Run `f` with counting on; returns its value and the peak of the bytes
/// allocated inside the window and still live, in MiB.
pub fn peak_mib<T>(f: impl FnOnce() -> T) -> (T, f64) {
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    OPEN.store(true, Relaxed);
    let v = f();
    OPEN.store(false, Relaxed);
    (v, PEAK.load(Relaxed) as f64 / (1024.0 * 1024.0))
}
