//! The reduced contact-network DAG `DN` (paper §5.1.2, reduction phase).
//!
//! Starting from the TEN model of the contact network, the paper applies two
//! lossless reductions:
//!
//! 1. per-snapshot connected components become single hyper nodes
//!    (properties 5.1/5.2: members of one component at one instant are
//!    mutually reachable);
//! 2. identical components in consecutive snapshots are merged, with
//!    aggregated edges `e(n)` carrying the skipped span.
//!
//! We represent the result directly in merged form: every [`DnNode`] is the
//! *maximal run* of consecutive ticks during which one exact member set is a
//! connected component, carrying a validity interval `[start, end]`. A DN1
//! edge `u → v` exists iff `v.start == u.end + 1` and the nodes share an
//! object; the aggregated-edge weight of the paper is the interval length.
//!
//! Central invariant (used throughout the workspace, from multi-resolution
//! construction to BM-BFS): **a node's member set is frozen for its whole
//! interval, so an item inside the node cannot spread beyond its members
//! until the node dies**. Items disperse only across DN1 edges at
//! `end + 1`.
//!
//! Three constructors build the same DAG from different inputs:
//! [`DnGraph::build`] (trajectories, via the §4 join),
//! [`DnGraph::build_from_ticks`]/[`DnGraph::build_streaming`] (per-tick
//! event lists), and [`DnGraph::from_contacts`] (maximal contact intervals,
//! the event-direct path ingested traces take — see [`crate::ingest`]).
//! All three run on one engine: [`DnEventStream`], which seals each hyper
//! node the moment its run closes and hands it to a [`DnSink`] — the
//! in-memory `DnGraph` is merely the sink that keeps everything
//! ([`crate::StreamedDn`] is the sink that doesn't). Consumers that only
//! need *read* access to a DN — index construction, partitioning,
//! multi-resolution bundles — go through the [`DnAccess`] trait, so they
//! work identically on a resident `DnGraph` and a spill-backed
//! [`crate::StreamedDn`].

use reach_core::{Contact, NodeId, ObjectId, Time, TimeInterval, UnionFind};
use reach_traj::{TickJoin, TrajectoryStore};
use std::mem::take;

/// A hyper node of `DN`: one connected component over a maximal run of
/// ticks.
#[derive(Clone, Debug, PartialEq)]
pub struct DnNode {
    /// Validity interval of the component.
    pub interval: TimeInterval,
    /// Sorted member objects (frozen over the whole interval).
    pub members: Vec<ObjectId>,
}

impl DnNode {
    /// Whether `o` belongs to this component.
    #[inline]
    pub fn contains(&self, o: ObjectId) -> bool {
        self.members.binary_search(&o).is_ok()
    }
}

/// Compressed sparse row adjacency.
#[derive(Clone, Debug, Default)]
pub struct Csr {
    offsets: Vec<u64>,
    targets: Vec<u32>,
}

impl Csr {
    /// Builds a CSR from `(src, dst)` pairs over `n` nodes.
    #[cfg(test)]
    pub(crate) fn from_pairs(n: usize, mut pairs: Vec<(u32, u32)>) -> Self {
        pairs.sort_unstable();
        pairs.dedup();
        let mut offsets = vec![0u64; n + 1];
        for &(s, _) in &pairs {
            offsets[s as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let targets = pairs.into_iter().map(|(_, d)| d).collect();
        Self { offsets, targets }
    }

    /// An empty CSR with room for `rows` rows and `edges` targets, to be
    /// filled in source order with [`Csr::push_row`].
    pub(crate) fn with_capacity(rows: usize, edges: usize) -> Self {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        Self {
            offsets,
            targets: Vec::with_capacity(edges),
        }
    }

    /// Appends the out-neighbors of the next source slot.
    #[inline]
    pub(crate) fn push_row(&mut self, row: &[u32]) {
        self.targets.extend_from_slice(row);
        self.offsets.push(self.targets.len() as u64);
    }

    /// Reverses the order of the rows, each row's targets keeping theirs:
    /// a CSR filled last source first becomes one filled in source order.
    pub(crate) fn reverse_rows(&mut self) {
        let total = self.targets.len() as u64;
        self.targets.reverse();
        self.offsets.reverse();
        for o in &mut self.offsets {
            *o = total - *o;
        }
        for r in 0..self.num_nodes() {
            let (lo, hi) = (self.offsets[r] as usize, self.offsets[r + 1] as usize);
            self.targets[lo..hi].reverse();
        }
    }

    /// Out-neighbors of node `n`.
    #[inline]
    pub fn out(&self, n: u32) -> &[u32] {
        let lo = self.offsets[n as usize] as usize;
        let hi = self.offsets[n as usize + 1] as usize;
        &self.targets[lo..hi]
    }

    /// Total number of stored edges.
    pub fn num_edges(&self) -> u64 {
        self.targets.len() as u64
    }

    /// Number of source slots.
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }
}

/// Size statistics of a `DN` (Figure 10) or TEN (§6.2.1.1) graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GraphSize {
    /// Vertex count.
    pub vertices: u64,
    /// Edge count.
    pub edges: u64,
}

/// The reduced contact-network DAG.
#[derive(Clone, Debug)]
pub struct DnGraph {
    nodes: Vec<DnNode>,
    fwd: Csr,
    rev: Csr,
    /// Per object: `(start_tick, node)` runs, sorted by start tick.
    timelines: Vec<Vec<(Time, u32)>>,
    num_objects: usize,
    horizon: Time,
}

impl DnGraph {
    /// Builds the DN of `store`'s contact network with contact threshold
    /// `threshold` over the full horizon.
    ///
    /// Each tick's join output streams straight into the builder; no event
    /// list or per-tick table is materialized.
    pub fn build(store: &TrajectoryStore, threshold: reach_core::Coord) -> Self {
        let mut join = TickJoin::new(store, threshold);
        Self::build_streaming(store.num_objects(), store.horizon(), |t, buf| {
            join.pairs_at(t, buf)
        })
    }

    /// Builds the DN from per-tick contact pairs: `events(t)` returns the
    /// normalized pairs in contact at tick `t` (`0 ≤ t < horizon`).
    pub fn build_from_ticks<'a, F>(num_objects: usize, horizon: Time, events: F) -> Self
    where
        F: Fn(Time) -> &'a [(u32, u32)],
    {
        Self::build_streaming(num_objects, horizon, move |t, buf| {
            buf.extend_from_slice(events(t))
        })
    }

    /// Builds the DN from a streaming per-tick event callback: `events` is
    /// called once per tick in ascending order and fills `buf` with the pairs
    /// in contact at that tick (`a != b`, any order, duplicates allowed).
    ///
    /// This is the event-direct construction path: nothing about the input
    /// needs to exist in memory up front, so contact-trace loaders can feed
    /// the builder without materializing a per-tick event table (let alone a
    /// `TrajectoryStore` and the spatial join behind [`DnGraph::build`]).
    pub fn build_streaming<F>(num_objects: usize, horizon: Time, events: F) -> Self
    where
        F: FnMut(Time, &mut Vec<(u32, u32)>),
    {
        let mut sink = CollectSink::new(num_objects);
        let n = DnEventStream::new(num_objects, horizon, events).run(&mut sink);
        sink.finish(n, num_objects, horizon)
    }

    /// Builds the DN directly from maximal-interval [`Contact`]s — the form
    /// real contact traces arrive in (see [`crate::ingest`]) — without a
    /// trajectory store or spatial join.
    ///
    /// The contacts may be in any order; each is expanded into its per-tick
    /// events by an interval sweep, so the cost is `O(|C| log |C| +
    /// Σ_c |T_c|)`, the same as feeding the equivalent instantaneous event
    /// stream. The result is identical to [`DnGraph::build`] on any
    /// trajectory dataset whose extracted contact network equals `contacts`
    /// (asserted by the ingestion round-trip tests).
    ///
    /// # Panics
    ///
    /// Panics if a contact references an object `≥ num_objects`, lies beyond
    /// `horizon`, or is a self-contact. [`crate::ingest::ContactTrace`]
    /// guarantees these invariants for loaded traces.
    pub fn from_contacts(num_objects: usize, horizon: Time, contacts: &[Contact]) -> Self {
        assert_contacts_valid(num_objects, horizon, contacts);
        Self::build_streaming(num_objects, horizon, contact_sweep(contacts))
    }

    /// Number of hyper nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Node accessor.
    #[inline]
    pub fn node(&self, n: u32) -> &DnNode {
        &self.nodes[n as usize]
    }

    /// All nodes, id = slot.
    pub fn nodes(&self) -> &[DnNode] {
        &self.nodes
    }

    /// DN1 out-edges of `n` (successor components at `end + 1`).
    #[inline]
    pub fn fwd(&self, n: u32) -> &[u32] {
        self.fwd.out(n)
    }

    /// DN1 in-edges of `n` (predecessor components at `start - 1`).
    #[inline]
    pub fn rev(&self, n: u32) -> &[u32] {
        self.rev.out(n)
    }

    /// Number of objects in the dataset.
    pub fn num_objects(&self) -> usize {
        self.num_objects
    }

    /// Horizon in ticks.
    pub fn horizon(&self) -> Time {
        self.horizon
    }

    /// The node containing `o` at tick `t` (the role of the paper's `Ht`
    /// hash tables). Panics if `o`/`t` are out of range.
    pub fn node_of(&self, o: ObjectId, t: Time) -> NodeId {
        let tl = &self.timelines[o.index()];
        let idx = tl.partition_point(|&(s, _)| s <= t) - 1;
        NodeId(tl[idx].1)
    }

    /// Per-object timeline: `(start_tick, node)` runs sorted by tick.
    pub fn timeline(&self, o: ObjectId) -> &[(Time, u32)] {
        &self.timelines[o.index()]
    }

    /// Vertex/edge counts of the reduced DAG (Figure 10).
    pub fn size(&self) -> GraphSize {
        GraphSize {
            vertices: self.nodes.len() as u64,
            edges: self.fwd.num_edges(),
        }
    }

    /// Vertex/edge counts of the unreduced TEN for the same dataset:
    /// `|O|·|T|` vertices, `|O|·(|T|-1)` hold edges plus one edge per
    /// instantaneous contact (§5.1.1).
    pub fn ten_size(num_objects: usize, horizon: Time, total_events: u64) -> GraphSize {
        let o = num_objects as u64;
        let t = u64::from(horizon);
        GraphSize {
            vertices: o * t,
            edges: o * t.saturating_sub(1) + total_events,
        }
    }

    /// Checks every structural invariant; returns a description of the first
    /// violation. Used by tests and debug assertions, not on hot paths.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.nodes.len();
        // Node-local invariants.
        for (i, node) in self.nodes.iter().enumerate() {
            if node.members.is_empty() {
                return Err(format!("node {i} has no members"));
            }
            if node.members.windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!("node {i} members not strictly sorted"));
            }
            if node.interval.end >= self.horizon {
                return Err(format!(
                    "node {i} interval {} beyond horizon",
                    node.interval
                ));
            }
        }
        // Edge invariants: adjacency in time + shared member.
        for u in 0..n as u32 {
            for &v in self.fwd.out(u) {
                let nu = &self.nodes[u as usize];
                let nv = &self.nodes[v as usize];
                if !nu.interval.abuts(&nv.interval) {
                    return Err(format!("edge {u}->{v} not temporally adjacent"));
                }
                if !nu.members.iter().any(|m| nv.contains(*m)) {
                    return Err(format!("edge {u}->{v} shares no member"));
                }
            }
        }
        // Every non-final node must have successors covering all members;
        // every tick must partition the object set.
        let mut membership = vec![0u64; self.num_objects];
        for t in 0..self.horizon {
            membership.iter_mut().for_each(|m| *m = 0);
            for (i, node) in self.nodes.iter().enumerate() {
                if node.interval.contains(t) {
                    for m in &node.members {
                        membership[m.index()] += 1;
                        let _ = i;
                    }
                }
            }
            if membership.iter().any(|&c| c != 1) {
                return Err(format!("tick {t}: nodes do not partition the objects"));
            }
        }
        // Timeline consistency.
        for o in 0..self.num_objects as u32 {
            let o = ObjectId(o);
            for t in 0..self.horizon {
                let nid = self.node_of(o, t);
                let node = self.node(nid.0);
                if !node.interval.contains(t) || !node.contains(o) {
                    return Err(format!("timeline of {o} wrong at tick {t}"));
                }
            }
        }
        // Reverse graph mirrors forward graph.
        let mut fwd_pairs: Vec<(u32, u32)> = Vec::new();
        for u in 0..n as u32 {
            for &v in self.fwd.out(u) {
                fwd_pairs.push((u, v));
            }
        }
        let mut rev_pairs: Vec<(u32, u32)> = Vec::new();
        for v in 0..n as u32 {
            for &u in self.rev.out(v) {
                rev_pairs.push((u, v));
            }
        }
        fwd_pairs.sort_unstable();
        rev_pairs.sort_unstable();
        if fwd_pairs != rev_pairs {
            return Err("reverse graph is not the mirror of the forward graph".into());
        }
        Ok(())
    }
}

/// Read access to a reduced contact-network DAG, for consumers that build
/// things *from* a DN — disk placement, multi-resolution bundles, index
/// serialization.
///
/// The trait exists so those consumers run unchanged — and produce
/// byte-identical output — whether the DN is a resident [`DnGraph`] or a
/// spill-backed [`crate::StreamedDn`] whose decoded segments come and go
/// under a memory budget. That is also why the accessors take `&mut self`
/// and fill caller-provided buffers instead of returning slices: a
/// spill-backed implementation may have to evict and reload segments on
/// every call, so it cannot hand out long-lived borrows.
///
/// Accessor calls on a spill-backed implementation may perform scratch IO;
/// scratch-device failure (e.g. a full temp filesystem) panics — there is
/// no meaningful way to resume a half-built index, and threading `Result`
/// through every graph traversal would tax the common in-memory case for an
/// unrecoverable condition.
///
/// `&DnGraph` implements the trait (so existing `build(&dn, …)` call sites
/// compile unchanged), as does `&mut T` for any implementor (so one
/// [`crate::StreamedDn`] can feed several consumers in sequence).
pub trait DnAccess {
    /// Number of objects in the dataset.
    fn num_objects(&self) -> usize;
    /// Horizon in ticks.
    fn horizon(&self) -> Time;
    /// Number of hyper nodes.
    fn num_nodes(&self) -> usize;
    /// Validity interval of node `v`.
    fn interval(&mut self, v: u32) -> TimeInterval;
    /// Replaces `out` with the sorted member objects of node `v`.
    fn members_into(&mut self, v: u32, out: &mut Vec<u32>);
    /// Replaces `out` with the sorted DN1 out-edges of node `v`.
    fn fwd_into(&mut self, v: u32, out: &mut Vec<u32>);
    /// Replaces `out` with the sorted DN1 in-edges of node `v`.
    fn rev_into(&mut self, v: u32, out: &mut Vec<u32>);
    /// Replaces `members`, `fwd` and `rev` with node `v`'s three lists (as
    /// the `*_into` accessors do) and returns its interval. A spill-backed
    /// implementation serves the whole node from one segment access
    /// instead of four.
    fn node_into(
        &mut self,
        v: u32,
        members: &mut Vec<u32>,
        fwd: &mut Vec<u32>,
        rev: &mut Vec<u32>,
    ) -> TimeInterval {
        self.members_into(v, members);
        self.fwd_into(v, fwd);
        self.rev_into(v, rev);
        self.interval(v)
    }
    /// Replaces `out` with object `o`'s `(start_tick, node)` runs, ascending.
    fn timeline_into(&mut self, o: ObjectId, out: &mut Vec<(Time, u32)>);
    /// Total timeline entries over all objects (Σ per-node member counts);
    /// lets writers size the on-device timeline region without a dry run.
    fn timeline_total(&mut self) -> u64;
}

impl DnAccess for &DnGraph {
    fn num_objects(&self) -> usize {
        DnGraph::num_objects(self)
    }

    fn horizon(&self) -> Time {
        DnGraph::horizon(self)
    }

    fn num_nodes(&self) -> usize {
        DnGraph::num_nodes(self)
    }

    fn interval(&mut self, v: u32) -> TimeInterval {
        self.node(v).interval
    }

    fn members_into(&mut self, v: u32, out: &mut Vec<u32>) {
        out.clear();
        out.extend(self.node(v).members.iter().map(|m| m.0));
    }

    fn fwd_into(&mut self, v: u32, out: &mut Vec<u32>) {
        out.clear();
        out.extend_from_slice(self.fwd(v));
    }

    fn rev_into(&mut self, v: u32, out: &mut Vec<u32>) {
        out.clear();
        out.extend_from_slice(self.rev(v));
    }

    fn timeline_into(&mut self, o: ObjectId, out: &mut Vec<(Time, u32)>) {
        out.clear();
        out.extend_from_slice(self.timeline(o));
    }

    fn timeline_total(&mut self) -> u64 {
        self.timelines.iter().map(|tl| tl.len() as u64).sum()
    }
}

impl<T: DnAccess> DnAccess for &mut T {
    fn num_objects(&self) -> usize {
        (**self).num_objects()
    }

    fn horizon(&self) -> Time {
        (**self).horizon()
    }

    fn num_nodes(&self) -> usize {
        (**self).num_nodes()
    }

    fn interval(&mut self, v: u32) -> TimeInterval {
        (**self).interval(v)
    }

    fn members_into(&mut self, v: u32, out: &mut Vec<u32>) {
        (**self).members_into(v, out)
    }

    fn fwd_into(&mut self, v: u32, out: &mut Vec<u32>) {
        (**self).fwd_into(v, out)
    }

    fn rev_into(&mut self, v: u32, out: &mut Vec<u32>) {
        (**self).rev_into(v, out)
    }

    fn node_into(
        &mut self,
        v: u32,
        members: &mut Vec<u32>,
        fwd: &mut Vec<u32>,
        rev: &mut Vec<u32>,
    ) -> TimeInterval {
        (**self).node_into(v, members, fwd, rev)
    }

    fn timeline_into(&mut self, o: ObjectId, out: &mut Vec<(Time, u32)>) {
        (**self).timeline_into(o, out)
    }

    fn timeline_total(&mut self) -> u64 {
        (**self).timeline_total()
    }
}

/// Receives the elements of a DN as the streaming construction seals them.
///
/// [`DnEventStream`] emits every hyper node exactly once, the moment its run
/// closes (so in ascending *end*-tick order; ascending id within one tick)
/// with its complete, sorted, deduplicated DN1 adjacency. Ids are dense
/// `0..n` in interval-*start* (topological) order, exactly as [`DnGraph`]
/// assigns them. Timeline entries of one object arrive in ascending tick
/// order, interleaved across objects.
///
/// Implementors decide what stays in memory: the `DnGraph` constructors use
/// a sink that keeps everything; [`crate::StreamedDn`] stages segments in a
/// spillable pool so the whole DN never has to be resident at once.
pub trait DnSink {
    /// One sealed hyper node with its complete DN1 adjacency (both lists
    /// sorted, deduplicated). The rows borrow the builder's scratch; a sink
    /// that keeps them copies them.
    fn node(&mut self, id: u32, node: DnNode, fwd: &[u32], rev: &[u32]);

    /// One `(start_tick, node)` run of object `o`'s timeline.
    fn timeline_push(&mut self, o: ObjectId, start: Time, node: u32);
}

/// The streaming DN construction engine (ROADMAP "stream index
/// construction"; cf. Brito et al. 2023, PAPERS.md).
///
/// Drives the per-tick run-tracking reduction of §5.1.2 while holding only
/// the *open* runs — whose member sets partition the object universe, so
/// resident state is `O(|O|)` plus the current tick's events, independent of
/// the horizon and of the final DAG size. Every sealed node is handed to a
/// [`DnSink`] and forgotten.
///
/// [`DnGraph::build_streaming`] is this engine with an all-collecting sink;
/// the two paths produce bit-identical DAGs (asserted by the streaming
/// tier-1 suite).
pub struct DnEventStream<F> {
    num_objects: usize,
    horizon: Time,
    events: F,
}

impl<F> DnEventStream<F>
where
    F: FnMut(Time, &mut Vec<(u32, u32)>),
{
    /// A stream over a per-tick event callback: `events` is called once per
    /// tick in ascending order and fills the buffer with the pairs in
    /// contact at that tick (`a != b`, any order, duplicates allowed).
    pub fn new(num_objects: usize, horizon: Time, events: F) -> Self {
        Self {
            num_objects,
            horizon,
            events,
        }
    }

    /// Runs the reduction to completion, feeding `sink`; returns the number
    /// of hyper nodes sealed.
    pub fn run(self, sink: &mut impl DnSink) -> usize {
        Builder::new(self.num_objects, self.horizon, sink).run(self.events)
    }
}

/// The interval sweep turning maximal [`Contact`]s into the per-tick event
/// callback [`DnEventStream`] consumes: activate contacts at their start
/// tick, emit every active pair each tick, retire contacts past their end.
/// Contacts may be in any order; cost is `O(|C| log |C| + Σ_c |T_c|)`.
pub fn contact_sweep(contacts: &[Contact]) -> impl FnMut(Time, &mut Vec<(u32, u32)>) + '_ {
    let mut order: Vec<usize> = (0..contacts.len()).collect();
    order.sort_unstable_by_key(|&i| contacts[i].interval.start);
    let mut next = 0usize;
    let mut active: Vec<usize> = Vec::new();
    move |t, buf| {
        while next < order.len() && contacts[order[next]].interval.start == t {
            active.push(order[next]);
            next += 1;
        }
        active.retain(|&i| {
            let c = &contacts[i];
            if c.interval.end < t {
                return false;
            }
            buf.push((c.a.0, c.b.0));
            true
        });
    }
}

/// Streams a DN's *component-chain* events tick by tick: for every
/// multi-member hyper node `{m_0 < m_1 < … < m_k}@[s, e]`, the pairs
/// `(m_0, m_1), …, (m_{k-1}, m_k)` at every tick of `[s, e]`.
///
/// The chain events are a lossless summary of the DN in the only sense DN
/// construction cares about: at every tick their pairs induce **exactly
/// the same connected components** as the original contact network's, so
/// feeding them into the streaming builders reproduces the identical DAG —
/// same nodes, ids, edges, and timelines, byte for byte. Because per-tick
/// components of a union depend on each part only through its partition,
/// the chains can also be **merged with later events**: building over the
/// chains ∪ `Δ` equals building over the original ∪ `Δ` for any event set
/// `Δ`. That is the algebra live merges and compactions run on — a sealed
/// index re-streams its DN as chains and merges through the ordinary
/// streaming builders (cf. Brito et al. 2021, PAPERS.md).
///
/// Size: one pair per adjacent member pair per node and tick, from
/// `Σ_v (|v| - 1)` distinct chain contacts — never more than the node
/// member total the DN already stores. The sweep activates nodes in id
/// order (ids are start-sorted) and keeps only the *open* multi-member
/// components resident — `O(|O|)`, the same bound as the DN construction
/// sweep itself, so the chains are never materialized. Drive it like any
/// per-tick event callback: call [`ChainSweep::emit`] once per tick,
/// ascending from 0.
pub struct ChainSweep<D: DnAccess> {
    dn: D,
    num_nodes: usize,
    next: u32,
    /// Interval of node `next`, if already fetched (avoids re-reading the
    /// record on every silent tick).
    pending: Option<TimeInterval>,
    /// Open multi-member components: `(end_tick, members)`.
    active: Vec<(Time, Vec<u32>)>,
    chains: u64,
}

impl<D: DnAccess> ChainSweep<D> {
    /// A sweep over `dn`, positioned before tick 0.
    pub fn new(dn: D) -> Self {
        let num_nodes = dn.num_nodes();
        Self {
            dn,
            num_nodes,
            next: 0,
            pending: None,
            active: Vec::new(),
            chains: 0,
        }
    }

    /// Appends tick `t`'s chain pairs to `buf`. Ticks must be visited in
    /// ascending order starting at 0 (the `DnEventStream` contract).
    pub fn emit(&mut self, t: Time, buf: &mut Vec<(u32, u32)>) {
        loop {
            let iv = match self.pending {
                Some(iv) => iv,
                None => {
                    if self.next as usize >= self.num_nodes {
                        break;
                    }
                    let iv = self.dn.interval(self.next);
                    self.pending = Some(iv);
                    iv
                }
            };
            if iv.start > t {
                break;
            }
            self.pending = None;
            let mut members = Vec::new();
            self.dn.members_into(self.next, &mut members);
            self.next += 1;
            if members.len() >= 2 {
                self.chains += members.len() as u64 - 1;
                self.active.push((iv.end, members));
            }
        }
        self.active.retain(|(end, members)| {
            if *end < t {
                return false;
            }
            for w in members.windows(2) {
                buf.push((w[0], w[1]));
            }
            true
        });
    }

    /// Distinct chain contacts streamed so far: `Σ_v (|v| - 1)` over the
    /// activated multi-member nodes.
    pub fn chains(&self) -> u64 {
        self.chains
    }
}

/// The [`DnGraph::from_contacts`] input contract, shared with
/// [`crate::StreamedDn::from_contacts`].
///
/// # Panics
///
/// Panics if a contact references an object `≥ num_objects`, lies beyond
/// `horizon`, or is a self-contact.
pub(crate) fn assert_contacts_valid(num_objects: usize, horizon: Time, contacts: &[Contact]) {
    for c in contacts {
        assert!(
            c.a.index() < num_objects && c.b.index() < num_objects,
            "contact {c:?} references an object outside the universe of {num_objects}"
        );
        assert!(
            c.interval.end < horizon,
            "contact {c:?} extends beyond the horizon {horizon}"
        );
        // Contact::new forbids a == b, but the fields are public.
        assert!(c.a != c.b, "self-contact {c:?}");
    }
}

/// The sink behind the in-memory constructors: keeps every sealed node.
///
/// Nodes arrive in end-tick order, not id order, so their DN1 rows are
/// staged in one flat arena and both CSRs are written in a single id-order
/// pass at the end.
struct CollectSink {
    nodes: Vec<Option<DnNode>>,
    /// Every sealed node's out-edges followed by its in-edges.
    arena: Vec<u32>,
    /// Per node id: `(arena start, out-degree, in-degree)`.
    rows: Vec<(usize, u32, u32)>,
    fwd_total: usize,
    timelines: Vec<Vec<(Time, u32)>>,
}

impl CollectSink {
    fn new(num_objects: usize) -> Self {
        Self {
            nodes: Vec::new(),
            arena: Vec::new(),
            rows: Vec::new(),
            fwd_total: 0,
            timelines: vec![Vec::new(); num_objects],
        }
    }

    fn finish(self, num_nodes: usize, num_objects: usize, horizon: Time) -> DnGraph {
        debug_assert_eq!(self.nodes.len(), num_nodes);
        let rev_total = self.arena.len() - self.fwd_total;
        let mut fwd = Csr::with_capacity(num_nodes, self.fwd_total);
        let mut rev = Csr::with_capacity(num_nodes, rev_total);
        for &(lo, out, inn) in &self.rows {
            let mid = lo + out as usize;
            fwd.push_row(&self.arena[lo..mid]);
            rev.push_row(&self.arena[mid..mid + inn as usize]);
        }
        DnGraph {
            nodes: self
                .nodes
                .into_iter()
                .map(|n| n.expect("every dense id is sealed exactly once"))
                .collect(),
            fwd,
            rev,
            timelines: self.timelines,
            num_objects,
            horizon,
        }
    }
}

impl DnSink for CollectSink {
    fn node(&mut self, id: u32, node: DnNode, fwd: &[u32], rev: &[u32]) {
        let i = id as usize;
        if self.nodes.len() <= i {
            self.nodes.resize_with(i + 1, || None);
            self.rows.resize(i + 1, (0, 0, 0));
        }
        self.nodes[i] = Some(node);
        self.rows[i] = (self.arena.len(), fwd.len() as u32, rev.len() as u32);
        self.fwd_total += fwd.len();
        self.arena.extend_from_slice(fwd);
        self.arena.extend_from_slice(rev);
    }

    fn timeline_push(&mut self, o: ObjectId, start: Time, node: u32) {
        self.timelines[o.index()].push((start, node));
    }
}

/// `OpenRun::multi_pos` of a run with a single member.
const NOT_MULTI: u32 = u32::MAX;

/// One still-open run, in a [`Builder`] slab slot.
struct OpenRun {
    /// Node id the run is sealed under.
    id: u32,
    start: Time,
    /// Frozen member set (sorted).
    members: Vec<ObjectId>,
    /// DN1 in-edges, complete when the run opens.
    rev: Vec<u32>,
    /// DN1 out-edges, collected in the step that closes the run. Like
    /// `rev`, this is slot scratch: a reopened slot clears and refills
    /// both, keeping their capacity.
    fwd: Vec<u32>,
    /// Position in `Builder::multi_open`, or [`NOT_MULTI`].
    multi_pos: u32,
    /// Last tick at which the run's exact component reappeared.
    continued_at: Time,
}

/// A run closing in the current step, taken out of the open set. Its slab
/// slot stays reserved until the step seals it, holding the run's DN1 rows
/// while its out-edges are collected.
struct Closing {
    id: u32,
    slot: u32,
    start: Time,
    members: Vec<ObjectId>,
}

/// Incremental run-tracking builder over a sink.
///
/// What stays resident is `O(|O|)` regardless of horizon or output size:
/// the open runs, in a slab of at most `2·|O|` slots (runs open at a tick
/// partition the objects, and a step frees the slots of the runs it closes
/// only after it has opened their successors), the object → slot map
/// `run_of` and the per-root component index, the union-find, and per-step
/// scratch buffers that are cleared and reused each tick, so they grow only
/// to the busiest tick's size. No table indexed by node id is kept. A
/// node's DN1 rows live in its slab slot's reused buffers and reach the
/// sink as slices, so the only per-node allocation is the member list the
/// sink takes ownership of.
struct Builder<'s, S: DnSink> {
    sink: &'s mut S,
    num_objects: usize,
    horizon: Time,
    next_id: u32,
    sealed: usize,
    /// Open runs; free slots are listed in `free`.
    runs: Vec<OpenRun>,
    free: Vec<u32>,
    /// Slab slot of each object's open run.
    run_of: Vec<u32>,
    /// Slots of open runs with ≥ 2 members (they must close on a silent
    /// tick).
    multi_open: Vec<u32>,
    uf: UnionFind,
    /// Objects in contact this tick, sorted.
    touched: Vec<u32>,
    /// Per root object: the tick it last rooted a component, and that
    /// component's index in `comps`.
    root_comp: Vec<(Time, u32)>,
    /// Component index of each object in `touched`.
    comp_of: Vec<u32>,
    /// Members of this tick's components, back to back, each ascending.
    comp_members: Vec<ObjectId>,
    /// `(lo, hi)` of each component in `comp_members`, ordered by smallest
    /// member.
    comps: Vec<(u32, u32)>,
    /// The components that are new nodes, a subsequence of `comps`.
    groups: Vec<(u32, u32)>,
    /// `(id, slot)` of the runs closing this tick, ascending by id.
    closing: Vec<(u32, u32)>,
    /// The closing runs' data, parallel to `closing`.
    sealing: Vec<Closing>,
    pred_scratch: Vec<u32>,
}

impl<'s, S: DnSink> Builder<'s, S> {
    fn new(num_objects: usize, horizon: Time, sink: &'s mut S) -> Self {
        Self {
            sink,
            num_objects,
            horizon,
            next_id: 0,
            sealed: 0,
            runs: Vec::new(),
            free: Vec::new(),
            run_of: vec![u32::MAX; num_objects],
            multi_open: Vec::new(),
            uf: UnionFind::new(num_objects),
            touched: Vec::new(),
            root_comp: vec![(Time::MAX, 0); num_objects],
            comp_of: Vec::new(),
            comp_members: Vec::new(),
            comps: Vec::new(),
            groups: Vec::new(),
            closing: Vec::new(),
            sealing: Vec::new(),
            pred_scratch: Vec::new(),
        }
    }

    fn run<F>(mut self, mut events: F) -> usize
    where
        F: FnMut(Time, &mut Vec<(u32, u32)>),
    {
        if self.num_objects == 0 || self.horizon == 0 {
            return 0;
        }
        let mut buf: Vec<(u32, u32)> = Vec::new();
        events(0, &mut buf);
        self.initial_tick(&buf);
        for t in 1..self.horizon {
            buf.clear();
            events(t, &mut buf);
            if buf.is_empty() && self.multi_open.is_empty() {
                continue; // nothing can change
            }
            self.step(t, &buf);
        }
        // Seal every run still open at the horizon (no out-edges), in id
        // order. The open runs partition the objects, so `run_of` names
        // each of them.
        let mut remaining = take(&mut self.closing);
        remaining.clear();
        remaining.extend(self.run_of.iter().map(|&s| (self.runs[s as usize].id, s)));
        remaining.sort_unstable();
        remaining.dedup();
        for &(id, slot) in &remaining {
            let run = self.close(id, slot);
            self.seal(run, self.horizon - 1);
        }
        self.sealed
    }

    /// Takes the open run in `slot` out of the open set, to collect its
    /// out-edges until it is sealed. The slot stays reserved until the
    /// caller frees it.
    fn close(&mut self, id: u32, slot: u32) -> Closing {
        let run = &mut self.runs[slot as usize];
        let pos = std::mem::replace(&mut run.multi_pos, NOT_MULTI);
        let closing = Closing {
            id,
            slot,
            start: run.start,
            members: take(&mut run.members),
        };
        if pos != NOT_MULTI {
            self.multi_open.swap_remove(pos as usize);
            if let Some(&moved) = self.multi_open.get(pos as usize) {
                self.runs[moved as usize].multi_pos = pos;
            }
        }
        closing
    }

    /// Emits one finished node to the sink.
    fn seal(&mut self, run: Closing, end: Time) {
        let OpenRun { fwd, rev, .. } = &mut self.runs[run.slot as usize];
        // Out-edges were recorded in ascending-target order; keep the
        // canonical CSR row shape explicit regardless.
        fwd.sort_unstable();
        fwd.dedup();
        self.sealed += 1;
        self.sink.node(
            run.id,
            DnNode {
                interval: TimeInterval::new(run.start, end),
                members: run.members,
            },
            fwd,
            rev,
        );
    }

    /// Opens a node for `members` (sorted) starting at `t` with in-edges
    /// `rev`; returns its id.
    fn open(&mut self, members: Vec<ObjectId>, t: Time, rev: &[u32]) -> u32 {
        let id = self.next_id;
        self.next_id += 1;
        let slot = self.free.pop().unwrap_or(self.runs.len() as u32);
        for m in &members {
            self.run_of[m.index()] = slot;
            self.sink.timeline_push(*m, t, id);
        }
        let multi_pos = if members.len() >= 2 {
            self.multi_open.push(slot);
            (self.multi_open.len() - 1) as u32
        } else {
            NOT_MULTI
        };
        match self.runs.get_mut(slot as usize) {
            Some(run) => {
                run.id = id;
                run.start = t;
                run.members = members;
                run.rev.clear();
                run.rev.extend_from_slice(rev);
                run.fwd.clear();
                run.multi_pos = multi_pos;
                run.continued_at = t;
            }
            None => self.runs.push(OpenRun {
                id,
                start: t,
                members,
                rev: rev.to_vec(),
                fwd: Vec::new(),
                multi_pos,
                continued_at: t,
            }),
        }
        id
    }

    /// Splits the sorted `touched` objects of tick `t` into their
    /// union-find components, filling `comp_members` and `comps`: a counting
    /// placement, so components come out ordered by smallest member — the
    /// order new nodes take ids in — and members ascending, with no sort.
    fn split_components(&mut self, t: Time) {
        self.comps.clear();
        self.comp_of.clear();
        for &o in &self.touched {
            let (stamp, comp) = &mut self.root_comp[self.uf.find(o) as usize];
            if *stamp != t {
                *stamp = t;
                *comp = self.comps.len() as u32;
                self.comps.push((0, 0));
            }
            self.comps[*comp as usize].1 += 1;
            self.comp_of.push(*comp);
        }
        // Sizes → empty ranges at their final offsets; `hi` is then the
        // fill cursor and ends at the range's end.
        let mut lo = 0;
        for c in &mut self.comps {
            let size = c.1;
            *c = (lo, lo);
            lo += size;
        }
        self.comp_members.clear();
        self.comp_members.resize(self.touched.len(), ObjectId(0));
        for (&o, &c) in self.touched.iter().zip(&self.comp_of) {
            let range = &mut self.comps[c as usize];
            self.comp_members[range.1 as usize] = ObjectId(o);
            range.1 += 1;
        }
    }

    fn initial_tick(&mut self, pairs: &[(u32, u32)]) {
        self.uf.reset();
        for &(a, b) in pairs {
            self.uf.union(a, b);
        }
        self.touched.clear();
        self.touched.extend(0..self.num_objects as u32);
        self.split_components(0);
        for ci in 0..self.comps.len() {
            let (lo, hi) = self.comps[ci];
            let members = self.comp_members[lo as usize..hi as usize].to_vec();
            self.open(members, 0, &[]);
        }
    }

    fn step(&mut self, t: Time, pairs: &[(u32, u32)]) {
        // 1. Components among touched objects.
        self.uf.reset();
        self.touched.clear();
        for &(a, b) in pairs {
            self.uf.union(a, b);
            self.touched.push(a);
            self.touched.push(b);
        }
        self.touched.sort_unstable();
        self.touched.dedup();
        self.split_components(t);
        // 2. Classify groups: continuation vs new.
        self.groups.clear();
        for &(lo, hi) in &self.comps {
            let g = &self.comp_members[lo as usize..hi as usize];
            let run = &mut self.runs[self.run_of[g[0].index()] as usize];
            if run.members == g {
                // The same member set again; runs partition the objects,
                // so every member still points at this run.
                run.continued_at = t;
            } else {
                self.groups.push((lo, hi));
            }
        }
        // 3. Collect runs that close at t-1: previous runs of new-group
        //    members, plus multi-member runs that were not continued.
        self.closing.clear();
        for &(lo, hi) in &self.groups {
            for m in &self.comp_members[lo as usize..hi as usize] {
                let slot = self.run_of[m.index()];
                self.closing.push((self.runs[slot as usize].id, slot));
            }
        }
        for &slot in &self.multi_open {
            let run = &self.runs[slot as usize];
            if run.continued_at != t {
                self.closing.push((run.id, slot));
            }
        }
        self.closing.sort_unstable();
        self.closing.dedup();
        if self.closing.is_empty() {
            return; // silent continuation everywhere
        }
        // Pull closing runs out of the open set; they accumulate out-edges
        // during this step and are sealed at its end. Every out-edge a run
        // ever gets is created in the step that closes it, so sealing here
        // loses nothing — this is what makes streaming construction
        // possible. Their slots stay reserved until the step ends, so
        // `run_of` of a member not yet reopened still names its old run.
        let mut sealing = take(&mut self.sealing);
        for i in 0..self.closing.len() {
            let (id, slot) = self.closing[i];
            sealing.push(self.close(id, slot));
        }
        // 4. Open new group nodes with edges from each member's old run.
        for gi in 0..self.groups.len() {
            let (lo, hi) = self.groups[gi];
            let members = &self.comp_members[lo as usize..hi as usize];
            self.pred_scratch.clear();
            for m in members {
                let slot = self.run_of[m.index()];
                self.pred_scratch.push(self.runs[slot as usize].id);
            }
            self.pred_scratch.sort_unstable();
            self.pred_scratch.dedup();
            let members = members.to_vec();
            let preds = take(&mut self.pred_scratch);
            let id = self.open(members, t, &preds);
            for &p in &preds {
                let si = self
                    .closing
                    .binary_search_by_key(&p, |&(id, _)| id)
                    .expect("a predecessor of a new node is closing");
                self.runs[self.closing[si].1 as usize].fwd.push(id);
            }
            self.pred_scratch = preds;
        }
        // 5. Members of closed runs that did not join a new group become
        //    fresh singletons. Opening one rewrites only that object's
        //    `run_of` entry, so the test can run while they open.
        for c in &sealing {
            for &m in &c.members {
                if self.run_of[m.index()] == c.slot {
                    let id = self.open(vec![m], t, &[c.id]);
                    self.runs[c.slot as usize].fwd.push(id);
                }
            }
        }
        for run in sealing.drain(..) {
            self.seal(run, t - 1);
        }
        self.sealing = sealing;
        self.free.extend(self.closing.iter().map(|&(_, slot)| slot));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The component-chain contacts of a DN materialized at once, in node
    /// order: what [`ChainSweep`] streams, as maximal-interval contacts.
    fn chain_contacts<D: DnAccess>(mut dn: D) -> Vec<Contact> {
        let mut out = Vec::new();
        let mut members: Vec<u32> = Vec::new();
        for v in 0..dn.num_nodes() as u32 {
            dn.members_into(v, &mut members);
            if members.len() < 2 {
                continue;
            }
            let interval = dn.interval(v);
            for w in members.windows(2) {
                out.push(Contact::new(ObjectId(w[0]), ObjectId(w[1]), interval));
            }
        }
        out
    }

    /// Builds a DN from a compact event script: `script[t]` lists the pairs
    /// in contact at tick `t`.
    fn dn(num_objects: usize, script: Vec<Vec<(u32, u32)>>) -> DnGraph {
        let horizon = script.len() as Time;
        let g = DnGraph::build_from_ticks(num_objects, horizon, |t| script[t as usize].as_slice());
        g.validate().expect("valid DN");
        g
    }

    #[test]
    fn empty_dataset() {
        let g = dn(0, vec![]);
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.size().edges, 0);
    }

    #[test]
    fn silent_world_is_one_singleton_run_each() {
        let g = dn(3, vec![vec![], vec![], vec![], vec![]]);
        assert_eq!(g.num_nodes(), 3);
        for n in g.nodes() {
            assert_eq!(n.interval, TimeInterval::new(0, 3));
            assert_eq!(n.members.len(), 1);
        }
        assert_eq!(g.size().edges, 0);
    }

    #[test]
    fn paper_figure_4_and_5() {
        // Figure 1/4/5 of the paper, objects o1..o4 → ids 0..3.
        // t=0: {o1,o2}; t=1: {o2,o4},{o3,o4}; t=2: {o1,o2},{o3,o4}; t=3: {o1,o2}.
        // (Contacts c1={o1,o2}@[0,0], c2={o2,o4}@[1,1], c3={o3,o4}@[1,2],
        //  c4={o1,o2}@[2,3] — with one extra tick 4 of silence to exercise
        //  the merge of c5/c7 shown in Figure 5.)
        let g = dn(
            4,
            vec![
                vec![(0, 1)],         // t=0: o1-o2
                vec![(1, 3), (2, 3)], // t=1: o2-o4, o3-o4 (one component {o2,o3,o4})
                vec![(0, 1), (2, 3)], // t=2
                vec![(0, 1)],         // t=3
            ],
        );
        // Expected components per tick:
        // t0: {0,1}, {2}, {3}
        // t1: {0}, {1,2,3}
        // t2: {0,1}, {2,3}
        // t3: {0,1}, {2}, {3}
        // Runs: {0,1}@[0,0], {2}@[0,0], {3}@[0,0], {0}@[1,1], {1,2,3}@[1,1],
        //       {0,1}@[2,3] (merged across t2,t3 — the paper's c5/c7 merge),
        //       {2,3}@[2,2], {2}@[3,3], {3}@[3,3].
        assert_eq!(g.num_nodes(), 9);
        let find = |members: &[u32], t: Time| -> u32 {
            (0..g.num_nodes() as u32)
                .find(|&i| {
                    let n = g.node(i);
                    n.interval.contains(t)
                        && n.members == members.iter().map(|&m| ObjectId(m)).collect::<Vec<_>>()
                })
                .unwrap_or_else(|| panic!("no node {members:?} at t={t}"))
        };
        let merged = find(&[0, 1], 2);
        assert_eq!(g.node(merged).interval, TimeInterval::new(2, 3));
        let big = find(&[1, 2, 3], 1);
        assert_eq!(g.node(big).interval, TimeInterval::new(1, 1));
        // Edges out of the t=1 component: to {0,1}@[2,3] and {2,3}@[2,2].
        let mut succs: Vec<Vec<u32>> = g
            .fwd(big)
            .iter()
            .map(|&v| g.node(v).members.iter().map(|m| m.0).collect())
            .collect();
        succs.sort();
        assert_eq!(succs, vec![vec![0, 1], vec![2, 3]]);
    }

    #[test]
    fn merge_requires_identical_members() {
        // {0,1} at t=0, {0,1,2} at t=1: distinct nodes, with edges.
        let g = dn(3, vec![vec![(0, 1)], vec![(0, 1), (1, 2)]]);
        // Runs: {0,1}@0, {2}@0, {0,1,2}@1 → 3 nodes.
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.size().edges, 2);
    }

    #[test]
    fn breakup_creates_singletons_with_edges() {
        // {0,1} at t=0 then silence: both become singletons at t=1.
        let g = dn(2, vec![vec![(0, 1)], vec![]]);
        assert_eq!(g.num_nodes(), 3);
        let pair = (0..3u32)
            .find(|&i| g.node(i).members.len() == 2)
            .expect("pair node");
        assert_eq!(g.node(pair).interval, TimeInterval::new(0, 0));
        let mut succ_members: Vec<u32> = g
            .fwd(pair)
            .iter()
            .map(|&v| g.node(v).members[0].0)
            .collect();
        succ_members.sort();
        assert_eq!(succ_members, vec![0, 1]);
        for &v in g.fwd(pair) {
            assert_eq!(g.node(v).interval, TimeInterval::new(1, 1));
        }
    }

    #[test]
    fn long_singleton_runs_are_merged() {
        // One brief contact in a long horizon: singleton runs span the gaps.
        let mut script = vec![vec![]; 10];
        script[5] = vec![(0, 1)];
        let g = dn(2, script);
        // Runs: {0}@[0,4], {1}@[0,4], {0,1}@[5,5], {0}@[6,9], {1}@[6,9].
        assert_eq!(g.num_nodes(), 5);
        let pair = (0..5u32).find(|&i| g.node(i).members.len() == 2).unwrap();
        assert_eq!(g.node(pair).interval, TimeInterval::new(5, 5));
        assert_eq!(g.rev(pair).len(), 2);
        assert_eq!(g.fwd(pair).len(), 2);
    }

    #[test]
    fn node_of_is_consistent_over_time() {
        let g = dn(3, vec![vec![(0, 1)], vec![(0, 1)], vec![(1, 2)], vec![]]);
        for t in 0..4 {
            for o in 0..3u32 {
                let nid = g.node_of(ObjectId(o), t);
                assert!(g.node(nid.0).interval.contains(t));
                assert!(g.node(nid.0).contains(ObjectId(o)));
            }
        }
        // o0 and o1 share a node at t=1 but not at t=2.
        assert_eq!(g.node_of(ObjectId(0), 1), g.node_of(ObjectId(1), 1));
        assert_ne!(g.node_of(ObjectId(0), 2), g.node_of(ObjectId(1), 2));
    }

    #[test]
    fn ten_size_formula() {
        let s = DnGraph::ten_size(4, 5, 7);
        assert_eq!(s.vertices, 20);
        assert_eq!(s.edges, 4 * 4 + 7);
    }

    #[test]
    fn reduction_shrinks_lonely_world() {
        // 5 objects, 100 silent ticks: TEN has 500 vertices, DN has 5.
        let g = dn(5, vec![vec![]; 100]);
        assert_eq!(g.size().vertices, 5);
        let ten = DnGraph::ten_size(5, 100, 0);
        assert_eq!(ten.vertices, 500);
        assert!(g.size().vertices < ten.vertices / 10);
    }

    #[test]
    fn ids_are_topologically_sorted_by_start() {
        let g = dn(4, vec![vec![(0, 1)], vec![(2, 3)], vec![(0, 2)], vec![]]);
        for u in 0..g.num_nodes() as u32 {
            for &v in g.fwd(u) {
                assert!(u < v, "edge {u}->{v} violates id topological order");
                assert!(g.node(u).interval.end < g.node(v).interval.start);
            }
        }
    }

    /// The per-tick scripts of these tests expressed as maximal contacts.
    fn contacts_of_script(script: &[Vec<(u32, u32)>]) -> Vec<Contact> {
        let mut acc = reach_core::ContactAccumulator::new();
        for (t, pairs) in script.iter().enumerate() {
            for &(a, b) in pairs {
                acc.push(reach_core::ContactEvent::new(
                    t as Time,
                    ObjectId(a),
                    ObjectId(b),
                ));
            }
        }
        acc.finish()
    }

    /// Structural equality of two DNs: same nodes (members + intervals, same
    /// ids) and same DN1 edges.
    fn assert_same_dn(a: &DnGraph, b: &DnGraph) {
        assert_eq!(a.num_objects(), b.num_objects());
        assert_eq!(a.horizon(), b.horizon());
        assert_eq!(a.nodes(), b.nodes());
        for v in 0..a.num_nodes() as u32 {
            assert_eq!(a.fwd(v), b.fwd(v), "out-edges of node {v} differ");
            assert_eq!(a.rev(v), b.rev(v), "in-edges of node {v} differ");
        }
    }

    #[test]
    fn from_contacts_matches_tick_construction() {
        type Script = Vec<Vec<(u32, u32)>>;
        let scripts: Vec<(usize, Script)> = vec![
            (
                4,
                vec![
                    vec![(0, 1)],
                    vec![(1, 3), (2, 3)],
                    vec![(0, 1), (2, 3)],
                    vec![(0, 1)],
                ],
            ),
            (3, vec![vec![], vec![], vec![]]),
            (2, vec![vec![(0, 1)], vec![]]),
            (5, {
                let mut s = vec![vec![]; 12];
                s[3] = vec![(0, 1), (2, 3)];
                s[4] = vec![(0, 1)];
                s[9] = vec![(1, 4)];
                s
            }),
        ];
        for (n, script) in scripts {
            let by_tick = dn(n, script.clone());
            let contacts = contacts_of_script(&script);
            let direct = DnGraph::from_contacts(n, script.len() as Time, &contacts);
            direct.validate().expect("contact-built DN is valid");
            assert_same_dn(&by_tick, &direct);
        }
    }

    #[test]
    fn from_contacts_accepts_unsorted_input() {
        let script = vec![vec![(0, 1)], vec![(1, 2)], vec![(1, 2)], vec![(0, 1)]];
        let mut contacts = contacts_of_script(&script);
        contacts.reverse();
        let direct = DnGraph::from_contacts(3, 4, &contacts);
        assert_same_dn(&dn(3, script), &direct);
    }

    #[test]
    #[should_panic(expected = "outside the universe")]
    fn from_contacts_rejects_foreign_objects() {
        let c = Contact::new(ObjectId(0), ObjectId(9), TimeInterval::new(0, 0));
        let _ = DnGraph::from_contacts(2, 4, &[c]);
    }

    #[test]
    #[should_panic(expected = "beyond the horizon")]
    fn from_contacts_rejects_overlong_intervals() {
        let c = Contact::new(ObjectId(0), ObjectId(1), TimeInterval::new(0, 4));
        let _ = DnGraph::from_contacts(2, 4, &[c]);
    }

    #[test]
    #[should_panic(expected = "self-contact")]
    fn from_contacts_rejects_self_contacts() {
        // Contact::new forbids a == b, but the fields are public.
        let c = Contact {
            a: ObjectId(1),
            b: ObjectId(1),
            interval: TimeInterval::new(0, 1),
        };
        let _ = DnGraph::from_contacts(2, 4, &[c]);
    }

    #[test]
    fn chain_contacts_rebuild_the_identical_dn() {
        type Script = Vec<Vec<(u32, u32)>>;
        let scripts: Vec<(usize, Script)> = vec![
            (
                4,
                vec![
                    vec![(0, 1)],
                    vec![(1, 3), (2, 3)],
                    vec![(0, 1), (2, 3)],
                    vec![(0, 1)],
                ],
            ),
            // A 4-member star: chains must re-create the same component even
            // though the original edges were a star, not a path.
            (5, vec![vec![(0, 1), (0, 2), (0, 3)], vec![], vec![(2, 4)]]),
            (3, vec![vec![], vec![], vec![]]),
        ];
        for (n, script) in scripts {
            let dn = dn(n, script);
            let chains = chain_contacts(&dn);
            let rebuilt = DnGraph::from_contacts(n, dn.horizon(), &chains);
            assert_same_dn(&dn, &rebuilt);
        }
    }

    #[test]
    fn chain_sweep_streams_what_chain_contacts_materializes() {
        let script = vec![
            vec![(0, 1), (0, 2), (3, 4)],
            vec![(0, 1)],
            vec![],
            vec![(2, 3), (3, 4)],
        ];
        let g = dn(5, script);
        let mut sweep = ChainSweep::new(&g);
        let rebuilt = DnGraph::build_streaming(5, g.horizon(), |t, buf| sweep.emit(t, buf));
        rebuilt.validate().expect("swept DN is valid");
        assert_same_dn(&g, &rebuilt);
        assert_eq!(
            sweep.chains(),
            chain_contacts(&g).len() as u64,
            "streamed chain count matches the materialized extraction"
        );
    }

    #[test]
    fn chain_contacts_merge_transparently_with_later_events() {
        // Build the full world two ways: directly, and as chains of a prefix
        // DN merged with the suffix events — the DAGs must be identical.
        let full_script = vec![
            vec![(0, 1), (2, 3)],
            vec![(1, 2)],
            vec![],
            vec![(0, 3), (1, 3)],
            vec![(0, 3)],
        ];
        let n = 4;
        let cut = 3usize; // prefix covers ticks [0, 3)
        let full = dn(n, full_script.clone());
        let prefix =
            DnGraph::build_from_ticks(n, cut as Time, |t| full_script[t as usize].as_slice());
        let mut merged = chain_contacts(&prefix);
        let mut acc = reach_core::ContactAccumulator::new();
        for (t, pairs) in full_script.iter().enumerate().skip(cut) {
            for &(a, b) in pairs {
                acc.push(reach_core::ContactEvent::new(
                    t as Time,
                    ObjectId(a),
                    ObjectId(b),
                ));
            }
        }
        merged.extend(acc.finish());
        let rebuilt = DnGraph::from_contacts(n, full_script.len() as Time, &merged);
        assert_same_dn(&full, &rebuilt);
    }

    #[test]
    fn csr_from_pairs_dedups() {
        let csr = Csr::from_pairs(3, vec![(0, 1), (0, 1), (0, 2), (2, 0)]);
        assert_eq!(csr.out(0), &[1, 2]);
        assert_eq!(csr.out(1), &[] as &[u32]);
        assert_eq!(csr.out(2), &[0]);
        assert_eq!(csr.num_edges(), 3);
        assert_eq!(csr.num_nodes(), 3);
    }

    #[test]
    fn csr_rows_keep_push_order() {
        let mut csr = Csr::with_capacity(3, 0);
        for row in [&[2, 1][..], &[], &[0]] {
            csr.push_row(row);
        }
        assert_eq!(csr.out(0), &[2, 1]);
        assert_eq!(csr.out(1), &[] as &[u32]);
        assert_eq!(csr.out(2), &[0]);
        assert_eq!(csr.num_nodes(), 3);
    }
}
