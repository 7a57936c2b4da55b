//! Shared counting-allocator harness for the alloc-free test binaries
//! (`alloc_free_replay`, `alloc_free_streaming`, `alloc_free_pipeline`)
//! and the live-memory check (`serve_memory`) — one implementation so the
//! counting rules cannot drift between them. Each binary includes this
//! file via `#[path]` and declares its own `#[global_allocator]` static
//! of [`CountingAllocator`] (the attribute must live in the crate that
//! owns the allocator).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// `System`, with every allocator entry point counted.
pub struct CountingAllocator;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated and not yet freed (wrapping; read as a difference).
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        LIVE_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        LIVE_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // Wrapping add of the (possibly negative) size difference.
        LIVE_BYTES.fetch_add(
            (new_size as u64).wrapping_sub(layout.size() as u64),
            Ordering::Relaxed,
        );
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

/// Allocator calls observed so far (monotonic).
#[allow(dead_code)] // not read by `serve_memory`
pub fn allocations() -> u64 {
    ALLOC_CALLS.load(Ordering::Relaxed)
}

/// Bytes requested from the allocator so far (monotonic; a `realloc`
/// counts its new size).
#[allow(dead_code)] // read by `alloc_free_streaming` only
pub fn allocated_bytes() -> u64 {
    ALLOC_BYTES.load(Ordering::Relaxed)
}

/// Bytes currently allocated and not freed: allocations add their size,
/// frees subtract it, a `realloc` adds the size difference.
#[allow(dead_code)] // read by `serve_memory` only
pub fn live_bytes() -> u64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}
