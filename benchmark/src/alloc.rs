//! A counting global allocator for the allocation-count and heap-growth
//! metrics. Counting is off unless the traced pass turns it on, so the
//! end-to-end numbers pay one relaxed load per allocator call and nothing
//! else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

// All are statistics that publish no other data, hence `Relaxed`.
static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated minus bytes freed while counting was on. Signed: memory
/// allocated before the switch may be freed after it.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

/// Forwards to the system allocator; while counting is on it counts
/// `alloc`/`realloc` calls and tracks live bytes and their high-water mark.
pub struct CountingAlloc;

/// Account for an allocator call that changed the live bytes by `delta`.
#[inline]
fn note(delta: i64, is_allocation: bool) {
    if COUNTING.load(Ordering::Relaxed) {
        if is_allocation {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        let live = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as i64, true);
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as i64, true);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size as i64 - layout.size() as i64, true);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`; the caller guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as i64), false);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Turn allocation counting on or off for the whole process.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Run `f` and return how many allocations it made on any thread — zero
/// while counting is off.
pub fn count<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

/// Run `f` and return the most the heap grew during it, in bytes, above
/// its level when `f` started — zero while counting is off.
pub fn peak_growth<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let out = f();
    (out, (PEAK.load(Ordering::Relaxed) - before) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test, because the switch is process-wide and tests share the
    // process.
    #[test]
    fn counts_only_while_switched_on() {
        let boxes = || (0..100).map(Box::new).collect::<Vec<Box<i32>>>();
        let megabyte = || drop(std::hint::black_box(vec![1u8; 1 << 20]));
        set_counting(false);
        let (kept, off) = count(boxes);
        assert_eq!(kept.len(), 100);
        assert_eq!(off, 0);
        assert_eq!(peak_growth(megabyte).1, 0);
        set_counting(true);
        let (kept, on) = count(boxes);
        let ((), grown) = peak_growth(megabyte);
        set_counting(false);
        assert_eq!(kept.len(), 100);
        // 100 boxes plus the vector; other test threads may add their own.
        assert!(on >= 101, "counted {on}");
        // The megabyte is freed again inside, yet its peak was seen.
        assert!(grown >= 1 << 20, "grew {grown}");
    }
}
