//! Heap-allocation budgets of ReachGraph on the pinned dataset of
//! `crates/contact/tests/pinned_dn.rs` (RWP 150 × 400, seed 23,
//! `d_T = 25`), written to a simulated device with 512-byte pages.
//!
//! The build keeps the partition member lists in one flat arena, encodes
//! every partition record into one reused buffer, and the simulated device
//! allocates its pages 64 at a time, so what remains is per build plus the
//! growth of those buffers. A return to a `Vec` per partition, a record
//! buffer per partition or a heap page per device page multiplies the
//! count and fails here.
//!
//! A cold query keeps each fetched partition as its record bytes alone,
//! searching the record's own slot table, and decodes only the vertices it
//! visits, into one scratch buffer; the pager reads every page into one
//! reused buffer. A return to a slot table built per fetch, to decoding
//! whole partitions into tables, or to a heap page per page read, fails
//! the query budget. The counter is thread-local, so the test
//! harness's own threads do not disturb it.

use reach_contact::{DnGraph, MultiRes, DEFAULT_LEVELS};
use reach_core::{Coord, Environment, ReachIndex};
use reach_graph::{GraphParams, ReachGraph};
use reach_mobility::{RwpConfig, WorkloadConfig};
use reach_storage::SimDevice;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

const THRESHOLD: Coord = 25.0;
const PAGE: usize = 512;

/// Allocations per DN node of `ReachGraph::build_on`: 108 for 11,565 nodes
/// measured (0.0093 per node), and the budget is that plus 10 %. Before
/// the flat partition arena, the reused record buffer and the chunked
/// simulated device, the same build made 5,117 (0.44 per node).
const BUILD_ALLOCS_PER_NODE: f64 = 0.0103;

/// Queries of the per-query budget: paper-style windows of 150–350 ticks.
const QUERIES: usize = 300;

/// Allocations per cold `ReachGraph::evaluate` (BM-BFS on a fresh context)
/// over the [`QUERIES`] pinned queries: 37.9 measured, and the budget is
/// that plus 10 %. With a slot table built per fetched partition the same
/// queries made 42.1; with whole-partition decoding and a heap page per
/// page read, 1,243.9.
const QUERY_ALLOCS: f64 = 41.7;

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

/// The pinned DN and its long-edge bundles, with the 512-byte-page
/// parameters both tests build with.
fn pinned() -> (DnGraph, MultiRes, GraphParams) {
    let store = RwpConfig {
        env: Environment::square(800.0),
        num_objects: 150,
        horizon: 400,
        tick_seconds: 6.0,
        speed_min: 1.0,
        speed_max: 3.0,
        pause_ticks_max: 3,
    }
    .generate(23);
    let dn = DnGraph::build(&store, THRESHOLD);
    let mr = MultiRes::build(&dn, &DEFAULT_LEVELS);
    let params = GraphParams {
        page_size: PAGE,
        ..GraphParams::default()
    };
    (dn, mr, params)
}

#[test]
fn reachgraph_build_stays_within_its_allocation_budget() {
    let (dn, mr, params) = pinned();
    let before = allocs();
    let graph = ReachGraph::build_on(Box::new(SimDevice::new(PAGE)), &dn, &mr, params)
        .expect("pinned graph builds");
    let build_allocs = allocs() - before;
    let per_node = build_allocs as f64 / dn.num_nodes() as f64;

    eprintln!(
        "ReachGraph::build_on: {build_allocs} allocations for {} nodes in {} partitions \
         ({per_node:.3} per node)",
        dn.num_nodes(),
        graph.num_partitions()
    );
    assert!(
        per_node <= BUILD_ALLOCS_PER_NODE,
        "ReachGraph::build_on made {per_node:.3} allocations per node \
         (budget {BUILD_ALLOCS_PER_NODE})"
    );
}

#[test]
fn cold_reachgraph_queries_stay_within_their_allocation_budget() {
    let (dn, mr, params) = pinned();
    let graph = ReachGraph::build_on(Box::new(SimDevice::new(PAGE)), &dn, &mr, params)
        .expect("pinned graph builds");
    let queries = WorkloadConfig {
        num_queries: QUERIES,
        interval_len_min: 150,
        interval_len_max: 350,
    }
    .generate(150, 400, 5);

    let before = allocs();
    for q in &queries {
        graph.evaluate(q).expect("pinned query evaluates");
    }
    let per_query = (allocs() - before) as f64 / QUERIES as f64;

    eprintln!("ReachGraph::evaluate: {per_query:.1} allocations per cold query");
    assert!(
        per_query <= QUERY_ALLOCS,
        "a cold ReachGraph query made {per_query:.1} allocations (budget {QUERY_ALLOCS})"
    );
}
