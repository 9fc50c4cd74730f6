//! Heap-allocation budget of HN construction on the pinned dataset of
//! `pinned_dn.rs` (RWP 150 × 400, seed 23, `d_T = 25`).
//!
//! The DN builder and `MultiRes::build` reuse their scratch across nodes
//! and ticks, so they allocate per level or per build, plus the member
//! list each sealed node hands the sink. A return to per-node scratch (a
//! `Vec` per bundle or per closing run) multiplies these counts and fails
//! here; one extra buffer per tick stays inside the headroom. The counter is thread-local, so the test harness's
//! own threads do not disturb it.

use reach_contact::{DnGraph, MultiRes, DEFAULT_LEVELS};
use reach_core::{Coord, Environment};
use reach_mobility::RwpConfig;
use reach_traj::TrajectoryStore;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

const THRESHOLD: Coord = 25.0;

/// Allocations per sealed node of `DnGraph::build`, join included: 1.13
/// measured. The floor is the sealed node's member list, the one row the
/// sink takes by value; `DnSink::node` borrows the DN1 rows from the
/// builder's slot scratch. When it took them by value the floor was 2.98
/// per node here, 3.08 measured under a budget of 3.4. The builder that
/// kept its open runs in hash maps and allocated its step scratch every
/// tick made 4.55 per node here (5.3 on the 1000-object benchmark
/// dataset).
const DN_ALLOCS_PER_NODE: f64 = 1.24;
/// Allocations per level of `MultiRes::build`, independent of the node
/// count: 6.0 measured (the two CSR vectors of each level plus shared
/// scratch; 5.6 when each level had its own pass and its CSR was sized
/// from the level below). The builder that kept one `Vec` per node per level made
/// 41,615 here, 3.6 per node summed over the five levels (6.2 on the
/// 1000-object benchmark dataset).
const MR_ALLOCS_PER_LEVEL: f64 = 6.2;

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

fn store() -> TrajectoryStore {
    RwpConfig {
        env: Environment::square(800.0),
        num_objects: 150,
        horizon: 400,
        tick_seconds: 6.0,
        speed_min: 1.0,
        speed_max: 3.0,
        pause_ticks_max: 3,
    }
    .generate(23)
}

#[test]
fn hn_construction_stays_within_its_allocation_budget() {
    let store = store();

    let before = allocs();
    let dn = DnGraph::build(&store, THRESHOLD);
    let dn_allocs = allocs() - before;
    let per_node = dn_allocs as f64 / dn.num_nodes() as f64;

    let before = allocs();
    let mr = MultiRes::build(&dn, &DEFAULT_LEVELS);
    let mr_allocs = allocs() - before;
    let per_level = mr_allocs as f64 / DEFAULT_LEVELS.len() as f64;

    eprintln!(
        "DnGraph::build: {dn_allocs} allocations for {} nodes ({per_node:.2} per node); \
         MultiRes::build: {mr_allocs} allocations ({per_level:.1} per level)",
        dn.num_nodes()
    );
    assert!(mr.num_edges(0) > 0, "the pinned DN has level-2 bundles");
    assert!(
        per_node <= DN_ALLOCS_PER_NODE,
        "DnGraph::build made {per_node:.2} allocations per node (budget {DN_ALLOCS_PER_NODE})"
    );
    assert!(
        per_level <= MR_ALLOCS_PER_LEVEL,
        "MultiRes::build made {per_level:.1} allocations per level (budget {MR_ALLOCS_PER_LEVEL})"
    );
}
