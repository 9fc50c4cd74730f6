//! The contact join and DN construction pinned exactly on a fixed dataset.
//!
//! [`Oracle`](reach_contact::Oracle) runs on the same join as
//! [`DnGraph::build`], so agreement between the indexes and the oracle
//! cannot catch a join that drops or invents a pair. The figures below were
//! recorded with the spatial-hash join that preceded the sort-and-sweep
//! kernel; any change to the pair set of any tick shows up here as an exact
//! mismatch. The long-edge bundles built on that DN are pinned the same
//! way, so a change to how `MultiRes` stores or composes them cannot alter
//! a single edge unnoticed.

use reach_contact::{
    count_events, extract_contacts, DnGraph, EventCounts, MultiRes, DEFAULT_LEVELS,
};
use reach_core::{Coord, Environment, ObjectId, TimeInterval};
use reach_mobility::RwpConfig;
use reach_traj::{sweep_join, TrajectoryStore};

const THRESHOLD: Coord = 25.0;

const EVENTS: u64 = 18_583;
/// FNV-1a over `(t, a, b)` of every event in sweep order.
const EVENT_CHECKSUM: u64 = 0xc8e1_76f9_04b3_de55;
const ACTIVE_TICKS: u64 = 400;
const CONTACTS: u64 = 6_590;
const DN_NODES: u64 = 11_565;
const DN_EDGES: u64 = 16_198;
const TIMELINE_TOTAL: u64 = 21_520;
/// FNV-1a over every node's interval and members, in node order.
const DN_CHECKSUM: u64 = 0x13ee_a708_6d4d_b57b;
/// `num_edges` of each `DEFAULT_LEVELS` level on the pinned DN, recorded
/// with the per-node-list `MultiRes::build` that preceded the direct CSR
/// writer.
const BUNDLE_EDGES: [u64; 5] = [14_969, 14_196, 15_524, 21_695, 38_859];
/// FNV-1a over `(level, v, bundle length, targets)` of every non-empty
/// bundle, levels ascending, nodes in id order.
const BUNDLE_CHECKSUM: u64 = 0xaefa_7caa_6139_6132;

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

#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u32) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

#[test]
fn join_events_match_the_recorded_values() {
    let store = store();
    let mut events = 0u64;
    let mut h = Fnv::new();
    sweep_join(&store, store.horizon_interval(), THRESHOLD, |ev| {
        events += 1;
        h.word(ev.t);
        h.word(ev.a.0);
        h.word(ev.b.0);
        true
    });
    assert_eq!((events, h.0), (EVENTS, EVENT_CHECKSUM));

    let counts = count_events(&store, store.horizon_interval(), THRESHOLD);
    assert_eq!(
        counts,
        EventCounts {
            events: EVENTS,
            contacts: CONTACTS,
            active_ticks: ACTIVE_TICKS,
        }
    );
    let contacts = extract_contacts(&store, store.horizon_interval(), THRESHOLD);
    assert_eq!(contacts.len() as u64, CONTACTS);
    // A sub-window sees exactly the full join's events inside it.
    let window = TimeInterval::new(100, 249);
    let sub = count_events(&store, window, THRESHOLD);
    let mut inside = 0u64;
    sweep_join(&store, store.horizon_interval(), THRESHOLD, |ev| {
        inside += u64::from(window.contains(ev.t));
        true
    });
    assert_eq!(sub.events, inside);
}

#[test]
fn dn_matches_the_recorded_values() {
    let store = store();
    let dn = DnGraph::build(&store, THRESHOLD);
    dn.validate().expect("valid DN");
    let size = dn.size();
    let timeline_total: u64 = (0..store.num_objects())
        .map(|o| dn.timeline(ObjectId(o as u32)).len() as u64)
        .sum();
    let mut h = Fnv::new();
    for node in dn.nodes() {
        h.word(node.interval.start);
        h.word(node.interval.end);
        h.word(node.members.len() as u32);
        for m in &node.members {
            h.word(m.0);
        }
    }
    assert_eq!(
        (size.vertices, size.edges, timeline_total, h.0),
        (DN_NODES, DN_EDGES, TIMELINE_TOTAL, DN_CHECKSUM)
    );
}

#[test]
fn bundles_match_the_recorded_values() {
    let store = store();
    let dn = DnGraph::build(&store, THRESHOLD);
    let mr = MultiRes::build(&dn, &DEFAULT_LEVELS);
    let mut h = Fnv::new();
    let mut edges = [0u64; DEFAULT_LEVELS.len()];
    for (idx, &level) in DEFAULT_LEVELS.iter().enumerate() {
        edges[idx] = mr.num_edges(idx);
        for v in 0..dn.num_nodes() as u32 {
            let bundle = mr.bundle(idx, v);
            if bundle.is_empty() {
                continue;
            }
            h.word(level);
            h.word(v);
            h.word(bundle.len() as u32);
            for &w in bundle {
                h.word(w);
            }
        }
    }
    assert_eq!((edges, h.0), (BUNDLE_EDGES, BUNDLE_CHECKSUM));
}
