//! Shared counting-allocator harness for the alloc-free test binaries
//! (`alloc_free_replay`, `alloc_free_streaming`) — one implementation so
//! the counting rules cannot drift between the two. Each binary includes
//! this file via `#[path]` and declares its own `#[global_allocator]`
//! static of [`CountingAllocator`] (the attribute must live in the crate
//! that owns the allocator).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// `System`, with every allocator entry point counted.
pub struct CountingAllocator;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Allocator calls observed so far (monotonic).
pub fn allocations() -> u64 {
    ALLOC_CALLS.load(Ordering::Relaxed)
}

/// Bytes requested from the allocator so far (monotonic; a `realloc`
/// counts its new size).
#[allow(dead_code)] // read by `alloc_free_streaming` only
pub fn allocated_bytes() -> u64 {
    ALLOC_BYTES.load(Ordering::Relaxed)
}
