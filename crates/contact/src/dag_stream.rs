//! Memory-bounded DN construction: [`StreamedDn`], the spill-backed
//! counterpart of [`DnGraph`](crate::DnGraph).
//!
//! The paper's datasets are "large" precisely because the contact network
//! outgrows memory — yet an index built *from a fully resident `DnGraph`*
//! needs the whole DAG in memory no matter how disk-friendly the index
//! itself is. `StreamedDn` removes that ceiling: it consumes the
//! [`DnEventStream`] like any other sink, but stages sealed nodes and
//! timeline entries in segments inside a [`SpillPool`], so the resident
//! decoded bytes never exceed an explicit [`BuildBudget`] by more than one
//! segment — cold segments are written to a scratch device and reloaded on
//! demand (the external-memory design of Brito et al. 2023, PAPERS.md).
//!
//! Segments are sized from the scratch device's page, so one spill or
//! reload moves about one page:
//!
//! * a **node segment** holds the records of `page_size / 48` consecutive
//!   node ids (a typical record is a little under 48 bytes), back to back
//!   in one `u32` arena with a per-id offset table. Nodes seal in end-tick order, not
//!   id order, so a segment is filled over time; its ids are adjacent in
//!   start time, which keeps the number of part-filled segments small.
//! * a **timeline block** holds up to one page of `(object, start, node)`
//!   entries of one group of `page_size / 32` consecutive objects, in push
//!   order. Each group appends to its newest block and opens a fresh one
//!   when that block is full, so a full block is written to scratch at
//!   most once and never rewritten, however long the timelines grow. A
//!   timeline read scans its group's blocks and keeps the object's own
//!   entries, which arrive in ascending tick order.
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

/// Bytes allowed per node id in a node segment, which holds
/// `page_size / NODE_BYTES` ids. A typical record (interval, three list
/// lengths, about five list entries) and its offset slot take about 43
/// bytes; the margin keeps most segments within one page once framed,
/// which on the RWP datasets spills fewer pages than 40 or 56 bytes did.
const NODE_BYTES: usize = 48;
/// Scratch-page bytes per object of a timeline group: a group holds
/// `page_size / GROUP_BYTES` consecutive objects.
const GROUP_BYTES: usize = 32;
/// Words of one timeline entry: object, start tick, node.
const ENTRY_WORDS: usize = 3;
/// Framing of a spilled timeline block: record length, segment tag, list
/// length.
const BLOCK_FRAMING: usize = 4 + 1 + 4;
/// Offset-table value of an id whose node has not sealed yet.
const UNSEALED: u32 = u32::MAX;
/// Pool id of a node segment none of whose nodes has sealed yet.
const ABSENT: u32 = u32::MAX;

/// One spillable segment: node records of an id range, or one block of a
/// timeline group.
#[derive(Debug)]
enum Seg {
    /// `at[i]` is the offset in `arena` of the record of the segment's
    /// `i`-th id (or [`UNSEALED`]); a record is `start, end, |members|,
    /// |fwd|, |rev|` followed by the three lists.
    Nodes { at: Vec<u32>, arena: Vec<u32> },
    /// Timeline entries `(object, start, node)`, flattened, in push order.
    Timeline(Vec<u32>),
}

impl Spillable for Seg {
    fn resident_bytes(&self) -> usize {
        // Deterministic accounting from lengths (never capacities, which
        // vary with growth history): element bytes plus a fixed overhead
        // per vector.
        match self {
            Seg::Nodes { at, arena } => 8 + 2 * 24 + 4 * (at.len() + arena.len()),
            Seg::Timeline(entries) => 8 + 24 + 4 * entries.len(),
        }
    }

    fn encode(&self, w: &mut ByteWriter) {
        match self {
            Seg::Nodes { at, arena } => {
                w.put_u8(0);
                w.put_u32_slice(at);
                w.put_u32_slice(arena);
            }
            Seg::Timeline(entries) => {
                w.put_u8(1);
                w.put_u32_slice(entries);
            }
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, IndexError> {
        match r.get_u8()? {
            0 => Ok(Seg::Nodes {
                at: r.get_u32_vec()?,
                arena: r.get_u32_vec()?,
            }),
            1 => Ok(Seg::Timeline(r.get_u32_vec()?)),
            tag => Err(IndexError::Corrupt(format!("unknown segment tag {tag}"))),
        }
    }
}

/// One node record, borrowed from its segment's arena.
struct NodeView<'a> {
    interval: TimeInterval,
    members: &'a [u32],
    fwd: &'a [u32],
    rev: &'a [u32],
}

impl<'a> NodeView<'a> {
    fn at(arena: &'a [u32], off: u32) -> Self {
        let rec = &arena[off as usize..];
        let (nm, nf, nr) = (rec[2] as usize, rec[3] as usize, rec[4] as usize);
        let lists = &rec[5..5 + nm + nf + nr];
        Self {
            interval: TimeInterval::new(rec[0], rec[1]),
            members: &lists[..nm],
            fwd: &lists[nm..nm + nf],
            rev: &lists[nm + nf..],
        }
    }
}

const SCRATCH_IO: &str = "scratch device IO failed during streamed DN build";

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
    /// Node ids per node segment.
    seg_nodes: u32,
    /// Objects per timeline group.
    group_objects: u32,
    /// Entries per timeline block.
    block_entries: u32,
    /// Pool id of each node segment ([`ABSENT`] until a node in it seals).
    node_segs: Vec<u32>,
    /// Pool ids of each timeline group's blocks, oldest first.
    groups: Vec<Vec<u32>>,
    /// Entries in each group's newest block.
    tail_len: Vec<u32>,
}

/// The sink staging sealed elements into the pool.
struct Spool<'a>(&'a mut StreamedDn);

impl DnSink for Spool<'_> {
    fn node(&mut self, id: u32, node: DnNode, fwd: &[u32], rev: &[u32]) {
        let dn = &mut *self.0;
        let k = dn.seg_nodes;
        let seg = (id / k) as usize;
        if seg >= dn.node_segs.len() {
            dn.node_segs.resize(seg + 1, ABSENT);
        }
        let push = |at: &mut Vec<u32>, arena: &mut Vec<u32>| {
            let slot = &mut at[(id % k) as usize];
            debug_assert_eq!(*slot, UNSEALED, "node {id} sealed twice");
            *slot = arena.len() as u32;
            let members = node.members.iter().map(|m| m.0);
            arena.extend_from_slice(&[
                node.interval.start,
                node.interval.end,
                node.members.len() as u32,
                fwd.len() as u32,
                rev.len() as u32,
            ]);
            arena.extend(members);
            arena.extend_from_slice(fwd);
            arena.extend_from_slice(rev);
        };
        match dn.node_segs[seg] {
            ABSENT => {
                let (mut at, mut arena) = (vec![UNSEALED; k as usize], Vec::new());
                push(&mut at, &mut arena);
                dn.node_segs[seg] = dn.pool.insert(Seg::Nodes { at, arena }).expect(SCRATCH_IO);
            }
            pid => dn
                .pool
                .update(pid, |s| {
                    let Seg::Nodes { at, arena } = s else {
                        unreachable!("node segment ids name node segments");
                    };
                    push(at, arena);
                })
                .expect(SCRATCH_IO),
        }
    }

    fn timeline_push(&mut self, o: ObjectId, start: Time, node: u32) {
        let dn = &mut *self.0;
        dn.timeline_total += 1;
        let g = (o.0 / dn.group_objects) as usize;
        let entry = [o.0, start, node];
        if dn.groups[g].is_empty() || dn.tail_len[g] == dn.block_entries {
            let mut block = Vec::with_capacity(dn.block_entries as usize * ENTRY_WORDS);
            block.extend_from_slice(&entry);
            let pid = dn.pool.insert(Seg::Timeline(block)).expect(SCRATCH_IO);
            dn.groups[g].push(pid);
            dn.tail_len[g] = 1;
        } else {
            let tail = *dn.groups[g].last().expect("non-empty group");
            dn.pool
                .update(tail, |s| {
                    let Seg::Timeline(entries) = s else {
                        unreachable!("group block ids name timeline blocks");
                    };
                    entries.extend_from_slice(&entry);
                })
                .expect(SCRATCH_IO);
            dn.tail_len[g] += 1;
        }
    }
}

impl StreamedDn {
    /// Builds the DN from a streaming per-tick event callback (the
    /// [`DnGraph::build_streaming`](crate::DnGraph::build_streaming)
    /// contract) under `budget`, spilling to `scratch`.
    ///
    /// The scratch device is wholly owned by the build: pass a fresh
    /// temporary (`SimDevice` reproduces the paper's counted-IO model; a
    /// `FileDevice` makes the bound real). Its page size, independent of
    /// the index device's, sets the segment sizes (see the module docs).
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
        let page_size = scratch.page_size();
        let group_objects = (page_size / GROUP_BYTES).max(1) as u32;
        let num_groups = num_objects.div_ceil(group_objects as usize);
        let mut dn = Self {
            pool: SpillPool::new(scratch, budget),
            num_objects,
            horizon,
            num_nodes: 0,
            timeline_total: 0,
            seg_nodes: (page_size / NODE_BYTES).max(1) as u32,
            group_objects,
            block_entries: (page_size.saturating_sub(BLOCK_FRAMING) / (4 * ENTRY_WORDS)).max(1)
                as u32,
            node_segs: Vec::new(),
            groups: vec![Vec::new(); num_groups],
            tail_len: vec![0; num_groups],
        };
        dn.num_nodes = DnEventStream::new(num_objects, horizon, events).run(&mut Spool(&mut dn));
        dn
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

    fn with_node<R>(&mut self, v: u32, f: impl FnOnce(NodeView<'_>) -> R) -> R {
        assert!(
            (v as usize) < self.num_nodes,
            "node {v} out of range ({} nodes)",
            self.num_nodes
        );
        let k = self.seg_nodes;
        self.pool
            .read(self.node_segs[(v / k) as usize], |seg| {
                let Seg::Nodes { at, arena } = seg else {
                    unreachable!("node segment ids name node segments");
                };
                f(NodeView::at(arena, at[(v % k) as usize]))
            })
            .expect(SCRATCH_IO)
    }
}

fn copy_into(out: &mut Vec<u32>, list: &[u32]) {
    out.clear();
    out.extend_from_slice(list);
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
        self.with_node(v, |rec| copy_into(out, rec.members))
    }

    fn fwd_into(&mut self, v: u32, out: &mut Vec<u32>) {
        self.with_node(v, |rec| copy_into(out, rec.fwd))
    }

    fn rev_into(&mut self, v: u32, out: &mut Vec<u32>) {
        self.with_node(v, |rec| copy_into(out, rec.rev))
    }

    fn node_into(
        &mut self,
        v: u32,
        members: &mut Vec<u32>,
        fwd: &mut Vec<u32>,
        rev: &mut Vec<u32>,
    ) -> TimeInterval {
        self.with_node(v, |rec| {
            copy_into(members, rec.members);
            copy_into(fwd, rec.fwd);
            copy_into(rev, rec.rev);
            rec.interval
        })
    }

    fn timeline_into(&mut self, o: ObjectId, out: &mut Vec<(Time, u32)>) {
        assert!(o.index() < self.num_objects, "object {o} out of range");
        out.clear();
        // A zero-horizon world seals nothing, so the group has no blocks:
        // that is an empty timeline, exactly as `DnGraph` reports it.
        for &pid in &self.groups[(o.0 / self.group_objects) as usize] {
            self.pool
                .read(pid, |seg| {
                    let Seg::Timeline(entries) = seg else {
                        unreachable!("group block ids name timeline blocks");
                    };
                    out.extend(
                        entries
                            .chunks_exact(ENTRY_WORDS)
                            .filter(|e| e[0] == o.0)
                            .map(|e| (e[1], e[2])),
                    );
                })
                .expect(SCRATCH_IO);
        }
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
            let (mut m, mut f, mut r) = (Vec::new(), Vec::new(), Vec::new());
            assert_eq!(
                sdn.node_into(v, &mut m, &mut f, &mut r),
                dn.node(v).interval
            );
            assert_eq!(
                (m, f.as_slice(), r.as_slice()),
                (expected, dn.fwd(v), dn.rev(v))
            );
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
        assert!(
            s.peak_resident_bytes <= 1024 + s.largest_segment_bytes,
            "budget held"
        );
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
