//! A counting global allocator: forwards every call to [`System`] and,
//! while counting is switched on, tallies allocation calls and requested
//! bytes for the calling thread.
//!
//! Counting is off outside `perf trace`; then each allocation pays one
//! relaxed atomic load. Tallies are per thread, so the single-threaded
//! trace sees only its own allocations even while a loopback server or
//! a parallel test runs beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Allocation calls and bytes requested, as counted on one thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// `alloc`, `alloc_zeroed` and `realloc` calls.
    pub allocs: u64,
    /// Bytes requested by those calls (the new size for `realloc`).
    pub bytes: u64,
}

impl Tally {
    /// The allocations made between `earlier` and `self`.
    pub fn since(self, earlier: Tally) -> Tally {
        Tally {
            allocs: self.allocs - earlier.allocs,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

/// Live [`Counting`] guards; allocations are counted while any exists.
static COUNTING: AtomicUsize = AtomicUsize::new(0);

// lint:allow(O002): per-thread allocation tallies are read back by the
// thread that made them and never merged across threads.
thread_local! {
    static TALLY: Cell<Tally> = const { Cell::new(Tally { allocs: 0, bytes: 0 }) };
}

/// Counts allocations on every thread until the guard drops.
pub struct Counting(());

impl Counting {
    /// Switches counting on (guards nest).
    pub fn start() -> Counting {
        COUNTING.fetch_add(1, Ordering::Relaxed);
        Counting(())
    }
}

impl Drop for Counting {
    fn drop(&mut self) {
        COUNTING.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The calling thread's running tally.
pub fn tally() -> Tally {
    TALLY.try_with(Cell::get).unwrap_or_default()
}

fn note(bytes: usize) {
    // The count publishes no other data, so a relaxed load suffices.
    if COUNTING.load(Ordering::Relaxed) > 0 {
        // `try_with` fails only while the thread is being torn down;
        // those allocations go uncounted.
        let _ = TALLY.try_with(|t| {
            let Tally { allocs, bytes: b } = t.get();
            t.set(Tally {
                allocs: allocs + 1,
                bytes: b + bytes as u64,
            });
        });
    }
}

/// The benchmark's global allocator.
pub struct CountingAlloc;

#[allow(unsafe_code)]
// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting around each
// call neither allocates nor touches the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as for `dealloc`, plus the caller's `new_size`
        // obligations, passed through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_the_calling_threads_allocations() {
        let _counting = Counting::start();
        let before = tally();
        let v: Vec<u64> = Vec::with_capacity(100);
        let during = tally().since(before);
        std::hint::black_box(v);
        assert_eq!(during.allocs, 1);
        assert_eq!(during.bytes, 800);
        // Another thread's allocations land in its own tally.
        let before = tally();
        let child = std::thread::scope(|s| {
            s.spawn(|| {
                let start = tally();
                std::hint::black_box(vec![0u8; 1 << 20]);
                tally().since(start)
            })
            .join()
            .expect("child thread runs")
        });
        assert_eq!(child.bytes, 1 << 20);
        assert!(tally().since(before).bytes < 1 << 20);
    }
}
