//! A counting global allocator: live bytes, their peak, allocation count
//! and allocated bytes, process-wide.
//!
//! Register it in each binary that links this crate:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOCATOR: perfbench::alloc::Counting = perfbench::alloc::Counting;
//! ```
//!
//! Without registration every reading stays zero.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The counting allocator: the system allocator plus four counters.
pub struct Counting;

// The counters are statistics: they publish no other data, so `Relaxed`
// is enough.
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

fn grew(bytes: u64) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(bytes, Ordering::Relaxed);
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    if live > PEAK.load(Ordering::Relaxed) {
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

fn shrank(bytes: u64) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters never touch
// the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size() as u64);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size() as u64);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size() as u64);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            shrank(layout.size() as u64);
            grew(new_size as u64);
        }
        new
    }
}

/// A reading of the counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Snapshot {
    /// Bytes live now.
    pub live: u64,
    /// Highest live bytes since the last [`reset_peak`].
    pub peak: u64,
    /// Allocations (including reallocations) so far.
    pub allocs: u64,
    /// Bytes allocated so far (a reallocation counts its new size).
    pub alloc_bytes: u64,
}

/// Reads the counters.
#[must_use]
pub(crate) fn snapshot() -> Snapshot {
    Snapshot {
        live: LIVE.load(Ordering::Relaxed),
        peak: PEAK.load(Ordering::Relaxed),
        allocs: ALLOCS.load(Ordering::Relaxed),
        alloc_bytes: ALLOC_BYTES.load(Ordering::Relaxed),
    }
}

/// Restarts the peak gauge at the bytes live now and returns the reading
/// taken at that point, the start of a measuring window.
#[must_use]
pub(crate) fn reset_peak() -> Snapshot {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
    snapshot()
}

/// What a measuring window opened by [`reset_peak`] allocated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Usage {
    /// Highest live bytes inside the window.
    pub peak: u64,
    /// Highest live bytes inside the window above those live at its start.
    pub peak_rise: u64,
    /// Allocations inside the window.
    pub allocs: u64,
    /// Bytes allocated inside the window.
    pub alloc_bytes: u64,
}

/// Closes a window opened by [`reset_peak`].
#[must_use]
pub(crate) fn usage_since(start: Snapshot) -> Usage {
    let now = snapshot();
    Usage {
        peak: now.peak,
        peak_rise: now.peak.saturating_sub(start.live),
        allocs: now.allocs - start.allocs,
        alloc_bytes: now.alloc_bytes - start.alloc_bytes,
    }
}
