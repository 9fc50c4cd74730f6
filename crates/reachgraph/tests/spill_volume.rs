//! Spill volume of a budgeted streamed build, pinned on the dataset of
//! `crates/contact/tests/pinned_dn.rs` (RWP 150 × 400, seed 23,
//! `d_T = 25`): `StreamedDn` under a 64 KiB budget with 512-byte scratch
//! pages, then `MultiRes::build` and `ReachGraph::build_on` from it. The
//! DN holds about 800 KB decoded, so the budget forces spills.
//!
//! The limits are the measured scratch pages plus 10 %, so a change to the
//! segment layout, the pool's eviction or the order the consumers read in
//! that brings back spill traffic fails here rather than drifting inside
//! the perf gate.

use reach_contact::{DnGraph, MultiRes, StreamedDn, DEFAULT_LEVELS};
use reach_core::{Coord, Environment};
use reach_graph::{GraphParams, ReachGraph};
use reach_mobility::RwpConfig;
use reach_storage::{BuildBudget, SimDevice};

const THRESHOLD: Coord = 25.0;
const PAGE: usize = 512;
const BUDGET: usize = 64 << 10;

/// Scratch pages written: 1,822 measured, plus 10 %. With 64-node and
/// 64-object segments rewritten whole on every dirty eviction, the same
/// build wrote 656,131.
const MAX_WRITE_PAGES: u64 = 2_004;
/// Scratch pages read: 7,477 measured, plus 10 %. The 64-node and
/// 64-object segments, a `MultiRes` pass per level and four reads per
/// vertex in the ReachGraph build made 703,255.
const MAX_READ_PAGES: u64 = 8_225;

#[test]
fn budgeted_build_spills_within_its_pinned_volume() {
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
    let contacts = reach_contact::extract_contacts(&store, store.horizon_interval(), THRESHOLD);
    let params = GraphParams {
        page_size: PAGE,
        ..GraphParams::default()
    };
    let mut sdn = StreamedDn::from_contacts(
        store.num_objects(),
        store.horizon(),
        &contacts,
        BuildBudget::bytes(BUDGET),
        Box::new(SimDevice::new(PAGE)),
    );
    let mr = MultiRes::build(&mut sdn, &DEFAULT_LEVELS);
    let mut streamed = ReachGraph::build_on(
        Box::new(SimDevice::new(PAGE)),
        &mut sdn,
        &mr,
        params.clone(),
    )
    .expect("streamed build");
    let spill = sdn.spill_stats();

    // The budget is what forces the traffic, and the index is unchanged.
    let dn = DnGraph::build(&store, THRESHOLD);
    let mut resident = ReachGraph::build_on(
        Box::new(SimDevice::new(PAGE)),
        &dn,
        &MultiRes::build(&dn, &DEFAULT_LEVELS),
        params,
    )
    .expect("resident build");
    assert_same_pages(resident.device_mut(), streamed.device_mut());

    let (writes, reads) = (spill.io.total_writes(), spill.io.total_reads());
    eprintln!(
        "spill: {writes} pages written, {reads} read ({} segments spilled, {} reloaded, \
         peak {} bytes)",
        spill.spilled, spill.reloaded, spill.peak_resident_bytes
    );
    assert!(spill.spilled > 0, "a 64 KiB budget must spill this DN");
    assert!(
        writes <= MAX_WRITE_PAGES,
        "{writes} scratch pages written (limit {MAX_WRITE_PAGES})"
    );
    assert!(
        reads <= MAX_READ_PAGES,
        "{reads} scratch pages read (limit {MAX_READ_PAGES})"
    );
}

fn assert_same_pages(
    a: &mut dyn reach_storage::BlockDevice,
    b: &mut dyn reach_storage::BlockDevice,
) {
    assert_eq!(a.len_pages(), b.len_pages(), "device length differs");
    let (mut pa, mut pb) = (vec![0u8; PAGE], vec![0u8; PAGE]);
    for p in 0..a.len_pages() {
        a.read_page_into(p, &mut pa).expect("page in bounds");
        b.read_page_into(p, &mut pb).expect("page in bounds");
        assert_eq!(pa, pb, "page {p} differs between builds");
    }
}
