//! Property tests for the spill-backed DN: on random contact worlds, a
//! [`StreamedDn`] under a budget of 1 byte (every other segment spills on
//! each access), of a few segments, and unbounded answers every
//! [`DnAccess`] accessor exactly as the resident [`DnGraph`] does — the
//! single-call `node_into` included — and a ReachGraph built from it is
//! byte-identical, page for page, to one built from the resident DN. The
//! resident decoded bytes never exceed the budget by more than the largest
//! segment.

use proptest::prelude::*;
use reach_contact::{DnAccess, DnGraph, MultiRes, StreamedDn, DEFAULT_LEVELS};
use reach_core::ObjectId;
use reach_graph::{GraphParams, ReachGraph};
use reach_storage::{BlockDevice, BuildBudget, SimDevice};

/// Scratch and index page size. A 256-byte scratch page makes node
/// segments of 6 ids, timeline groups of 8 objects and timeline blocks of
/// 20 entries, so the worlds below span many segments of each kind.
const PAGE: usize = 256;

fn script_strategy(
    max_objects: usize,
    max_horizon: usize,
) -> impl Strategy<Value = (usize, Vec<Vec<(u32, u32)>>)> {
    (2..=max_objects, 1..=max_horizon).prop_flat_map(move |(n, h)| {
        let pair = (0..n as u32, 0..n as u32)
            .prop_filter_map("distinct", |(a, b)| (a != b).then(|| (a.min(b), a.max(b))));
        let tick = prop::collection::vec(pair, 0..4);
        prop::collection::vec(tick, h).prop_map(move |script| (n, script))
    })
}

/// Every accessor of `sdn` against `dn`, nodes visited in reverse id order
/// and then forward, so a tight budget evicts between neighbouring reads.
fn assert_same_access(dn: &DnGraph, sdn: &mut StreamedDn) -> Result<(), TestCaseError> {
    let mut reference = dn;
    prop_assert_eq!(sdn.num_nodes(), dn.num_nodes());
    prop_assert_eq!(sdn.num_objects(), dn.num_objects());
    prop_assert_eq!(sdn.horizon(), dn.horizon());
    let (mut a, mut b) = (Vec::new(), Vec::new());
    let (mut m, mut f, mut r) = (Vec::new(), Vec::new(), Vec::new());
    for v in (0..dn.num_nodes() as u32).rev() {
        prop_assert_eq!(sdn.interval(v), dn.node(v).interval, "interval of {}", v);
        sdn.members_into(v, &mut a);
        reference.members_into(v, &mut b);
        prop_assert_eq!(&a, &b, "members of {}", v);
        sdn.fwd_into(v, &mut a);
        prop_assert_eq!(a.as_slice(), dn.fwd(v), "fwd of {}", v);
        sdn.rev_into(v, &mut a);
        prop_assert_eq!(a.as_slice(), dn.rev(v), "rev of {}", v);
    }
    for v in 0..dn.num_nodes() as u32 {
        let interval = sdn.node_into(v, &mut m, &mut f, &mut r);
        reference.members_into(v, &mut b);
        prop_assert_eq!(interval, dn.node(v).interval, "node_into interval of {}", v);
        prop_assert_eq!(&m, &b, "node_into members of {}", v);
        prop_assert_eq!(f.as_slice(), dn.fwd(v), "node_into fwd of {}", v);
        prop_assert_eq!(r.as_slice(), dn.rev(v), "node_into rev of {}", v);
    }
    let mut tl = Vec::new();
    for o in (0..dn.num_objects() as u32).rev() {
        sdn.timeline_into(ObjectId(o), &mut tl);
        prop_assert_eq!(tl.as_slice(), dn.timeline(ObjectId(o)), "timeline of {}", o);
    }
    prop_assert_eq!(sdn.timeline_total(), reference.timeline_total());
    Ok(())
}

fn same_pages(a: &mut dyn BlockDevice, b: &mut dyn BlockDevice) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.len_pages(), b.len_pages(), "device length");
    let (mut pa, mut pb) = (vec![0u8; PAGE], vec![0u8; PAGE]);
    for p in 0..a.len_pages() {
        a.read_page_into(p, &mut pa).expect("page in bounds");
        b.read_page_into(p, &mut pb).expect("page in bounds");
        prop_assert_eq!(&pa, &pb, "page {} differs", p);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn streamed_dn_matches_the_resident_dn(
        (n, script) in script_strategy(24, 48),
        depth in 1u32..6,
    ) {
        let h = script.len() as u32;
        let dn = DnGraph::build_from_ticks(n, h, |t| script[t as usize].as_slice());
        let mr = MultiRes::build(&dn, &DEFAULT_LEVELS);
        let params = GraphParams {
            partition_depth: depth,
            page_size: PAGE,
            ..GraphParams::default()
        };
        let mut reference = ReachGraph::build_on(Box::new(SimDevice::new(PAGE)), &dn, &mr, params.clone())
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        for budget in [1, 2048, usize::MAX] {
            let mut sdn = StreamedDn::build(
                n,
                h,
                |t, buf| buf.extend_from_slice(&script[t as usize]),
                BuildBudget::bytes(budget),
                Box::new(SimDevice::new(PAGE)),
            );
            let mr_s = MultiRes::build(&mut sdn, &DEFAULT_LEVELS);
            let mut streamed =
                ReachGraph::build_on(Box::new(SimDevice::new(PAGE)), &mut sdn, &mr_s, params.clone())
                    .map_err(|e| TestCaseError::fail(e.to_string()))?;
            same_pages(reference.device_mut(), streamed.device_mut())?;
            assert_same_access(&dn, &mut sdn)?;
            let s = sdn.spill_stats();
            prop_assert!(
                s.peak_resident_bytes <= (budget as u64).saturating_add(s.largest_segment_bytes),
                "peak {} above budget {} plus the largest segment {}",
                s.peak_resident_bytes,
                budget,
                s.largest_segment_bytes
            );
            if budget == usize::MAX {
                prop_assert_eq!((s.spilled, s.reloaded), (0, 0));
                prop_assert_eq!(s.total_pages(), 0);
            } else if budget == 1 && dn.num_nodes() > 0 {
                // Nodes and timelines live in separate segments, so a
                // one-byte budget must spill.
                prop_assert!(s.spilled > 0 && s.reloaded > 0, "{:?}", s);
            }
        }
    }
}
