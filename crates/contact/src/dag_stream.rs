//! Memory-bounded DN construction: [`StreamedDn`], the spill-backed
//! counterpart of [`DnGraph`](crate::DnGraph).
//!
//! The paper's datasets are "large" precisely because the contact network
//! outgrows memory — yet an index built *from a fully resident `DnGraph`*
//! needs the whole DAG in memory no matter how disk-friendly the index
//! itself is. `StreamedDn` removes that ceiling: it consumes the
//! [`DnEventStream`] like any other sink, but stages sealed nodes and
//! timeline runs in fixed-size segments inside a
//! [`SpillPool`], so the resident decoded bytes
//! never exceed an explicit [`BuildBudget`] — cold segments are written to a
//! scratch device and reloaded on demand (the external-memory design of
//! Brito et al. 2023, PAPERS.md).
//!
//! Because `StreamedDn` implements [`DnAccess`], every consumer of a DN —
//! `partition`, `MultiRes::build`, `ReachGraph::build_on`,
//! `GrailDisk::build_on` — runs on it unchanged and produces **byte-identical
//! on-device pages** to the in-memory path (asserted by
//! `tests/streaming_build.rs`). Spill IO lands on the scratch device's own
//! counters ([`SpillStats`]), strictly separate from the index device's
//! paper-metric IO.

use crate::dag::{assert_contacts_valid, contact_sweep, DnAccess, DnEventStream, DnNode, DnSink};
use reach_core::IndexError;
use reach_core::{Contact, ObjectId, Time, TimeInterval};
use reach_storage::{
    BlockDevice, BuildBudget, ByteReader, ByteWriter, SpillPool, SpillStats, Spillable,
};

/// Hyper nodes per node segment. Small enough that a few segments fit tight
/// budgets, large enough that segment framing stays negligible.
const SEG_NODES: u32 = 64;
/// Objects per timeline segment.
const SEG_OBJECTS: u32 = 64;

/// Pool key of the node segment holding id `v`.
fn node_key(v: u32) -> u64 {
    u64::from(v / SEG_NODES)
}

/// Pool key of the timeline segment holding object `o`.
fn tl_key(o: u32) -> u64 {
    (1u64 << 32) | u64::from(o / SEG_OBJECTS)
}

/// One sealed node as staged in a segment.
#[derive(Clone, Debug, PartialEq)]
struct NodeRec {
    interval: TimeInterval,
    members: Vec<u32>,
    fwd: Vec<u32>,
    rev: Vec<u32>,
}

impl NodeRec {
    fn resident_bytes(&self) -> usize {
        // Deterministic accounting: element bytes plus a fixed per-vec
        // overhead (allocator/container headers). Must not depend on
        // capacities, which vary with growth history.
        8 + 3 * 24 + 4 * (self.members.len() + self.fwd.len() + self.rev.len())
    }
}

/// One spillable segment: a run of node records or of object timelines.
#[derive(Debug)]
enum Seg {
    /// `SEG_NODES` slots of sealed nodes (trailing slots of the last
    /// segment stay empty).
    Nodes(Vec<Option<NodeRec>>),
    /// `SEG_OBJECTS` per-object `(start_tick, node)` run lists.
    Timelines(Vec<Vec<(Time, u32)>>),
}

impl Seg {
    fn empty_nodes() -> Self {
        Seg::Nodes((0..SEG_NODES).map(|_| None).collect())
    }

    fn empty_timelines() -> Self {
        Seg::Timelines((0..SEG_OBJECTS).map(|_| Vec::new()).collect())
    }
}

impl Spillable for Seg {
    fn resident_bytes(&self) -> usize {
        match self {
            Seg::Nodes(slots) => {
                32 + slots.len() * 8
                    + slots
                        .iter()
                        .flatten()
                        .map(NodeRec::resident_bytes)
                        .sum::<usize>()
            }
            Seg::Timelines(tls) => 32 + tls.iter().map(|tl| 24 + 8 * tl.len()).sum::<usize>(),
        }
    }

    fn encode(&self, w: &mut ByteWriter) {
        match self {
            Seg::Nodes(slots) => {
                w.put_u8(0);
                w.put_u32(slots.len() as u32);
                for slot in slots {
                    match slot {
                        None => w.put_u8(0),
                        Some(rec) => {
                            w.put_u8(1);
                            w.put_u32(rec.interval.start);
                            w.put_u32(rec.interval.end);
                            w.put_u32_slice(&rec.members);
                            w.put_u32_slice(&rec.fwd);
                            w.put_u32_slice(&rec.rev);
                        }
                    }
                }
            }
            Seg::Timelines(tls) => {
                w.put_u8(1);
                w.put_u32(tls.len() as u32);
                for tl in tls {
                    w.put_u32(tl.len() as u32);
                    for &(t, node) in tl {
                        w.put_u32(t);
                        w.put_u32(node);
                    }
                }
            }
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, IndexError> {
        match r.get_u8()? {
            0 => {
                let n = r.get_u32()? as usize;
                let mut slots = Vec::with_capacity(n);
                for _ in 0..n {
                    slots.push(match r.get_u8()? {
                        0 => None,
                        _ => {
                            let start = r.get_u32()?;
                            let end = r.get_u32()?;
                            Some(NodeRec {
                                interval: TimeInterval::new(start, end),
                                members: r.get_u32_vec()?,
                                fwd: r.get_u32_vec()?,
                                rev: r.get_u32_vec()?,
                            })
                        }
                    });
                }
                Ok(Seg::Nodes(slots))
            }
            1 => {
                let n = r.get_u32()? as usize;
                let mut tls = Vec::with_capacity(n);
                for _ in 0..n {
                    let k = r.get_u32()? as usize;
                    let mut tl = Vec::with_capacity(k);
                    for _ in 0..k {
                        let t = r.get_u32()?;
                        let node = r.get_u32()?;
                        tl.push((t, node));
                    }
                    tls.push(tl);
                }
                Ok(Seg::Timelines(tls))
            }
            tag => Err(IndexError::Corrupt(format!("unknown segment tag {tag}"))),
        }
    }
}

const SCRATCH_IO: &str = "scratch device IO failed during streamed DN build";

/// The sink staging sealed elements into the pool.
struct SpoolSink<'a> {
    pool: &'a mut SpillPool<Seg>,
    timeline_total: u64,
}

impl DnSink for SpoolSink<'_> {
    fn node(&mut self, id: u32, node: DnNode, fwd: &[u32], rev: &[u32]) {
        let rec = NodeRec {
            interval: node.interval,
            members: node.members.iter().map(|m| m.0).collect(),
            fwd: fwd.to_vec(),
            rev: rev.to_vec(),
        };
        self.pool
            .update(node_key(id), Seg::empty_nodes, |seg| {
                let Seg::Nodes(slots) = seg else {
                    unreachable!("node key maps to a node segment");
                };
                let slot = &mut slots[(id % SEG_NODES) as usize];
                debug_assert!(slot.is_none(), "node {id} sealed twice");
                *slot = Some(rec);
            })
            .expect(SCRATCH_IO);
    }

    fn timeline_push(&mut self, o: ObjectId, start: Time, node: u32) {
        self.timeline_total += 1;
        self.pool
            .update(tl_key(o.0), Seg::empty_timelines, |seg| {
                let Seg::Timelines(tls) = seg else {
                    unreachable!("timeline key maps to a timeline segment");
                };
                tls[(o.0 % SEG_OBJECTS) as usize].push((start, node));
            })
            .expect(SCRATCH_IO);
    }
}

/// A reduced contact-network DAG whose decoded data lives in a budgeted
/// spill pool instead of resident vectors (see the module docs).
///
/// Build one with [`StreamedDn::build`] (per-tick events) or
/// [`StreamedDn::from_contacts`], then hand it (`&mut`) to any
/// [`DnAccess`] consumer. [`StreamedDn::spill_stats`] reports how much
/// spill IO the budget forced and the peak resident bytes actually used.
#[derive(Debug)]
pub struct StreamedDn {
    pool: SpillPool<Seg>,
    num_objects: usize,
    horizon: Time,
    num_nodes: usize,
    timeline_total: u64,
}

impl StreamedDn {
    /// Builds the DN from a streaming per-tick event callback (the
    /// [`DnGraph::build_streaming`](crate::DnGraph::build_streaming)
    /// contract) under `budget`, spilling to `scratch`.
    ///
    /// The scratch device is wholly owned by the build: pass a fresh
    /// temporary (`SimDevice` reproduces the paper's counted-IO model; a
    /// `FileDevice` makes the bound real). Its page size is independent of
    /// the index device's.
    pub fn build<F>(
        num_objects: usize,
        horizon: Time,
        events: F,
        budget: BuildBudget,
        scratch: Box<dyn BlockDevice>,
    ) -> Self
    where
        F: FnMut(Time, &mut Vec<(u32, u32)>),
    {
        let mut pool = SpillPool::new(scratch, budget);
        let mut sink = SpoolSink {
            pool: &mut pool,
            timeline_total: 0,
        };
        let num_nodes = DnEventStream::new(num_objects, horizon, events).run(&mut sink);
        let timeline_total = sink.timeline_total;
        Self {
            pool,
            num_objects,
            horizon,
            num_nodes,
            timeline_total,
        }
    }

    /// Builds the DN from maximal contact intervals (the event-direct path
    /// ingested traces take) under `budget`.
    ///
    /// # Panics
    ///
    /// Panics on invalid contacts, with the same messages as
    /// [`DnGraph::from_contacts`](crate::DnGraph::from_contacts).
    pub fn from_contacts(
        num_objects: usize,
        horizon: Time,
        contacts: &[Contact],
        budget: BuildBudget,
        scratch: Box<dyn BlockDevice>,
    ) -> Self {
        assert_contacts_valid(num_objects, horizon, contacts);
        Self::build(
            num_objects,
            horizon,
            contact_sweep(contacts),
            budget,
            scratch,
        )
    }

    /// Spill counters: segments spilled/reloaded, scratch page IO, and the
    /// peak resident decoded bytes (the number the budget actually bounds).
    pub fn spill_stats(&self) -> SpillStats {
        self.pool.stats()
    }

    fn with_node<R>(&mut self, v: u32, f: impl FnOnce(&NodeRec) -> R) -> R {
        assert!(
            (v as usize) < self.num_nodes,
            "node {v} out of range ({} nodes)",
            self.num_nodes
        );
        self.pool
            .read(node_key(v), |seg| {
                let Seg::Nodes(slots) = seg else {
                    unreachable!("node key maps to a node segment");
                };
                f(slots[(v % SEG_NODES) as usize]
                    .as_ref()
                    .expect("sealed node present"))
            })
            .expect(SCRATCH_IO)
    }
}

impl DnAccess for StreamedDn {
    fn num_objects(&self) -> usize {
        self.num_objects
    }

    fn horizon(&self) -> Time {
        self.horizon
    }

    fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    fn interval(&mut self, v: u32) -> TimeInterval {
        self.with_node(v, |rec| rec.interval)
    }

    fn members_into(&mut self, v: u32, out: &mut Vec<u32>) {
        self.with_node(v, |rec| {
            out.clear();
            out.extend_from_slice(&rec.members);
        })
    }

    fn fwd_into(&mut self, v: u32, out: &mut Vec<u32>) {
        self.with_node(v, |rec| {
            out.clear();
            out.extend_from_slice(&rec.fwd);
        })
    }

    fn rev_into(&mut self, v: u32, out: &mut Vec<u32>) {
        self.with_node(v, |rec| {
            out.clear();
            out.extend_from_slice(&rec.rev);
        })
    }

    fn timeline_into(&mut self, o: ObjectId, out: &mut Vec<(Time, u32)>) {
        assert!(o.index() < self.num_objects, "object {o} out of range");
        // A zero-horizon world seals nothing, so the segment may not exist:
        // that is an empty timeline, exactly as `DnGraph` reports it.
        if !self.pool.contains(tl_key(o.0)) {
            out.clear();
            return;
        }
        self.pool
            .read(tl_key(o.0), |seg| {
                let Seg::Timelines(tls) = seg else {
                    unreachable!("timeline key maps to a timeline segment");
                };
                out.clear();
                out.extend_from_slice(&tls[(o.0 % SEG_OBJECTS) as usize]);
            })
            .expect(SCRATCH_IO)
    }

    fn timeline_total(&mut self) -> u64 {
        self.timeline_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::DnGraph;
    use reach_storage::SimDevice;

    fn scratch() -> Box<dyn BlockDevice> {
        Box::new(SimDevice::new(256))
    }

    fn script_world() -> (usize, Time, Vec<Vec<(u32, u32)>>) {
        // A moderately tangled little world.
        let mut script: Vec<Vec<(u32, u32)>> = vec![Vec::new(); 40];
        script[0] = vec![(0, 1)];
        script[3] = vec![(1, 2), (3, 4)];
        script[4] = vec![(1, 2)];
        script[10] = vec![(0, 4), (2, 3)];
        script[11] = vec![(0, 4)];
        script[25] = vec![(0, 1), (1, 2), (3, 4)];
        (5, 40, script)
    }

    fn assert_access_matches(dn: &DnGraph, sdn: &mut StreamedDn) {
        use crate::dag::DnAccess as _;
        assert_eq!(sdn.num_nodes(), dn.num_nodes());
        assert_eq!(sdn.num_objects(), dn.num_objects());
        assert_eq!(sdn.horizon(), dn.horizon());
        let mut a = Vec::new();
        for v in 0..dn.num_nodes() as u32 {
            assert_eq!(sdn.interval(v), dn.node(v).interval, "interval of {v}");
            sdn.members_into(v, &mut a);
            let expected: Vec<u32> = dn.node(v).members.iter().map(|m| m.0).collect();
            assert_eq!(a, expected, "members of {v}");
            sdn.fwd_into(v, &mut a);
            assert_eq!(a.as_slice(), dn.fwd(v), "fwd of {v}");
            sdn.rev_into(v, &mut a);
            assert_eq!(a.as_slice(), dn.rev(v), "rev of {v}");
        }
        let mut ta = Vec::new();
        for o in 0..dn.num_objects() as u32 {
            sdn.timeline_into(ObjectId(o), &mut ta);
            assert_eq!(ta.as_slice(), dn.timeline(ObjectId(o)), "timeline of {o}");
        }
        let expected_total: u64 = (0..dn.num_objects() as u32)
            .map(|o| dn.timeline(ObjectId(o)).len() as u64)
            .sum();
        assert_eq!(sdn.timeline_total(), expected_total);
    }

    #[test]
    fn streamed_matches_in_memory_unbounded() {
        let (n, h, script) = script_world();
        let dn = DnGraph::build_from_ticks(n, h, |t| script[t as usize].as_slice());
        let mut sdn = StreamedDn::build(
            n,
            h,
            |t, buf| buf.extend_from_slice(&script[t as usize]),
            BuildBudget::unbounded(),
            scratch(),
        );
        assert_access_matches(&dn, &mut sdn);
        let s = sdn.spill_stats();
        assert_eq!((s.spilled, s.reloaded), (0, 0));
    }

    #[test]
    fn tight_budget_spills_but_data_is_identical() {
        let (n, h, script) = script_world();
        let dn = DnGraph::build_from_ticks(n, h, |t| script[t as usize].as_slice());
        let mut sdn = StreamedDn::build(
            n,
            h,
            |t, buf| buf.extend_from_slice(&script[t as usize]),
            BuildBudget::bytes(1024),
            scratch(),
        );
        assert_access_matches(&dn, &mut sdn);
        let s = sdn.spill_stats();
        assert!(s.spilled > 0, "1 KiB budget must spill ({s:?})");
        assert!(s.reloaded > 0, "verification reads must reload ({s:?})");
        assert!(s.io.total_writes() > 0 && s.io.total_reads() > 0);
        assert!(s.peak_resident_bytes <= 1024 + 4096, "budget roughly held");
    }

    #[test]
    fn from_contacts_matches_dngraph_from_contacts() {
        let c = |a: u32, b: u32, s: Time, e: Time| {
            Contact::new(ObjectId(a), ObjectId(b), TimeInterval::new(s, e))
        };
        let contacts = vec![c(0, 1, 0, 3), c(1, 2, 2, 5), c(3, 4, 1, 1), c(0, 4, 8, 9)];
        let dn = DnGraph::from_contacts(6, 12, &contacts);
        let mut sdn =
            StreamedDn::from_contacts(6, 12, &contacts, BuildBudget::bytes(512), scratch());
        assert_access_matches(&dn, &mut sdn);
    }

    #[test]
    #[should_panic(expected = "outside the universe")]
    fn from_contacts_validates_like_dngraph() {
        let c = Contact::new(ObjectId(0), ObjectId(9), TimeInterval::new(0, 0));
        let _ = StreamedDn::from_contacts(2, 4, &[c], BuildBudget::unbounded(), scratch());
    }

    #[test]
    fn empty_world_has_no_segments() {
        let mut sdn = StreamedDn::build(0, 0, |_, _| {}, BuildBudget::unbounded(), scratch());
        assert_eq!(DnAccess::num_nodes(&sdn), 0);
        assert_eq!(sdn.timeline_total(), 0);
    }

    #[test]
    fn zero_horizon_world_reports_empty_timelines() {
        // horizon == 0 with objects: nothing is sealed, so no timeline
        // segments exist — accessors must report empty, matching DnGraph.
        let dn = DnGraph::build_from_ticks(3, 0, |_| &[]);
        let mut sdn = StreamedDn::build(3, 0, |_, _| {}, BuildBudget::unbounded(), scratch());
        assert_eq!(DnAccess::num_nodes(&sdn), 0);
        let mut tl = vec![(7, 7)];
        for o in 0..3u32 {
            sdn.timeline_into(ObjectId(o), &mut tl);
            assert_eq!(tl.as_slice(), dn.timeline(ObjectId(o)), "timeline of {o}");
            assert!(tl.is_empty());
        }
    }
}
