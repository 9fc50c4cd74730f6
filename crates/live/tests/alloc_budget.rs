//! Heap-allocation budget of the delta's query kernel.
//!
//! `DeltaDn::propagate` allocates its buffers once per call and reuses
//! them at every active tick, so the number of allocations a call makes
//! does not grow with the number of ticks it sweeps. Two deltas repeating
//! one contact pattern, one 50 ticks long and one 500, must cost the same
//! per call. A per-tick allocation (a group map, a `Vec` per component)
//! makes the longer one cost more and fails here. The counter is
//! thread-local, so the test harness's own threads do not disturb it.

use reach_core::{Contact, ObjectId, Time, TimeInterval};
use reach_live::DeltaDn;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts every `alloc`, `alloc_zeroed` and `realloc` on the calling thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the slot may already be gone while a thread shuts down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

// SAFETY: every call forwards unchanged to the system allocator; the
// counter is a const-initialised thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const OBJECTS: u32 = 24;
const WATERMARK: Time = 100;

/// A delta of `ticks` ticks repeating a period-3 pattern: at tick `t`,
/// chains `k – k+1 – k+2` for every `k ≡ t (mod 3)`, so each active tick
/// holds multi-pair components and the item crosses the whole universe.
fn periodic_delta(ticks: Time) -> DeltaDn {
    let mut delta = DeltaDn::new(WATERMARK);
    for t in WATERMARK..WATERMARK + ticks {
        let mut k = t % 3;
        while k + 2 < OBJECTS {
            for (a, b) in [(k, k + 1), (k + 1, k + 2)] {
                let at = TimeInterval::new(t, t);
                delta.insert(Contact::new(ObjectId(a), ObjectId(b), at));
            }
            k += 3;
        }
    }
    delta
}

/// Allocations of one `propagate` call over the whole delta, after a
/// first call has built the cached sweep list.
fn allocs_per_call(delta: &DeltaDn) -> (u64, Vec<Option<Time>>) {
    let seeds = [(ObjectId(0), WATERMARK), (ObjectId(OBJECTS - 1), 0)];
    let until = delta.now() - 1;
    delta.propagate(OBJECTS as usize, &seeds, until, None);
    let before = allocs();
    let when = delta.propagate(OBJECTS as usize, &seeds, until, None);
    (allocs() - before, when)
}

#[test]
fn propagate_allocations_do_not_grow_with_ticks() {
    let (short, short_when) = allocs_per_call(&periodic_delta(50));
    let (long, long_when) = allocs_per_call(&periodic_delta(500));
    eprintln!("propagate: {short} allocations over 50 ticks, {long} over 500 ticks");
    assert!(
        short_when.iter().all(Option::is_some) && long_when.iter().all(Option::is_some),
        "the pattern spreads the item to every object"
    );
    assert_eq!(
        short, long,
        "propagate made {long} allocations over 500 ticks against {short} over 50"
    );
}
