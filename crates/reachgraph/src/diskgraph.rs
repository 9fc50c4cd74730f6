//! The disk-resident ReachGraph index (paper §5.1.3).
//!
//! Layout on the block device, in page order:
//!
//! 1. the *timeline region* — per object, its `(start_tick, node)` runs as
//!    fixed 8-byte entries (our substitute for the paper's per-tick `Ht`
//!    hash tables; same role: locating the vertex of `o_i(t)`);
//! 2. the *partition region* — one page-aligned record per partition, in
//!    creation (topological) order; a partition record holds its vertices
//!    (interval, members, DN1 edges both directions, long-edge bundles);
//! 3. the *metadata footer* (`reach_storage::meta`) — everything needed to
//!    reconstruct the in-memory state (params, page table, record
//!    directory), so an index built on a persistent backend can be dropped
//!    and reopened with [`ReachGraph::open`].
//!
//! The index is backend-agnostic: [`ReachGraph::build`] keeps the paper's
//! simulator, [`ReachGraph::build_on`] accepts any
//! [`BlockDevice`] — the layout and the counted
//! IO are identical on all of them.
//!
//! The index is an immutable image; every query reads through its own
//! [`GraphContext`], a pager on a fresh device handle that starts cold.
//! Traversal fetches whole partitions and the context buffers a bounded
//! number of decoded partitions, discarding the oldest (§5.2). A fetched record is
//! validated and decoded once, in full, into a flat [`Partition`]: one
//! `u32` arena holding every list back to back, the list boundaries, the
//! intervals, and a sorted vertex-id → slot table. [`HnSource::vertex`]
//! then returns a [`Vertex`] view borrowing that
//! partition, so a visit costs a table lookup, not an allocation, and
//! the re-streaming [`DnAccess`] surface copies only the list it is asked
//! for. Neither the record format nor the counted IO depends on this:
//! decoding happens after the pages are read.

use crate::params::{GraphParams, TraversalKind};
use crate::partition::Partition;
use crate::placement::{partition, Partitioning};
use crate::traverse::{evaluate, TraversalStats};
use crate::vertex::{HnSource, Vertex, VertexData};
use reach_contact::{DnAccess, DnGraph, MultiRes};
use reach_core::{
    Answer, IndexError, ObjectId, Query, QueryKind, QueryResult, QueryStats, ReachIndex,
    ReachRequest, Time,
};
use reach_storage::{
    meta, read_record, BlockDevice, ByteReader, ByteWriter, IoStats, Pager, RecordPtr,
    RecordWriter, SharedDevice, SimDevice, TimelineRegion,
};
use std::collections::{HashMap, VecDeque};
use std::time::Instant;

/// Disk-resident ReachGraph: an immutable image (parameters, page table,
/// partition directory, timeline region, and the device hub its pages
/// live behind). Every query reads through its own cold
/// [`GraphContext`], so one image serves any number of threads at once.
pub struct ReachGraph {
    params: GraphParams,
    device: SharedDevice,
    horizon: Time,
    num_objects: usize,
    num_nodes: usize,
    /// Partition id per vertex (in-memory page table, tiny next to data).
    partition_of: Vec<u32>,
    /// Record address per partition.
    partition_ptrs: Vec<RecordPtr>,
    /// The `Ht` lookup region (shared layout with disk GRAIL).
    timeline: TimelineRegion,
}

impl ReachGraph {
    /// Builds the disk layout on the paper's memory-backed simulator.
    pub fn build(dn: &DnGraph, mr: &MultiRes, params: GraphParams) -> Result<Self, IndexError> {
        let device = SimDevice::new(params.page_size);
        Self::build_on(Box::new(device), dn, mr, params)
    }

    /// Builds the disk layout from a DN and its long-edge bundles onto any
    /// block device. The device's page size must match
    /// `params.page_size`. A [`SharedDevice`] handle joins its hub (and
    /// the hub's page cache, if any).
    ///
    /// Generic over [`DnAccess`]: pass `&dn` for a resident
    /// [`DnGraph`] (the classic path) or `&mut streamed` for a spill-backed
    /// [`StreamedDn`](reach_contact::StreamedDn) built under a
    /// [`BuildBudget`](reach_storage::BuildBudget) — the construction sweep
    /// touches one partition's vertices at a time, so the whole DN never
    /// needs to be resident, and the resulting pages are byte-identical
    /// either way (asserted by `tests/streaming_build.rs`).
    pub fn build_on<D: DnAccess>(
        mut device: Box<dyn BlockDevice>,
        mut dn: D,
        mr: &MultiRes,
        params: GraphParams,
    ) -> Result<Self, IndexError> {
        params.validate();
        assert_eq!(
            mr.levels(),
            params.levels.as_slice(),
            "MultiRes levels must match GraphParams levels"
        );
        assert_eq!(
            device.page_size(),
            params.page_size,
            "device page size must match GraphParams page size"
        );
        let disk = device.as_mut();
        let num_objects = dn.num_objects();
        let horizon = dn.horizon();
        let num_nodes = dn.num_nodes();

        // --- Timeline region ---------------------------------------------
        let timeline_total = dn.timeline_total();
        let timeline =
            TimelineRegion::build_streamed(disk, num_objects, timeline_total, |o, out| {
                dn.timeline_into(ObjectId(o), out)
            })?;

        // --- Partition region ----------------------------------------------
        let parts: Partitioning = partition(&mut dn, params.partition_depth);
        let mut writer = RecordWriter::new(disk)?;
        let mut partition_ptrs = Vec::with_capacity(parts.num_partitions as usize);
        // One scratch record, refilled per vertex.
        let mut vd = VertexData {
            interval: reach_core::TimeInterval::instant(0),
            members: Vec::new(),
            fwd: Vec::new(),
            rev: Vec::new(),
            bundles: vec![Vec::new(); mr.levels().len()],
        };
        for mine in &parts.members {
            let mut w = ByteWriter::with_capacity(64 * mine.len());
            w.put_u32(mine.len() as u32);
            for &v in mine {
                vd.interval = dn.interval(v);
                for (idx, bundle) in vd.bundles.iter_mut().enumerate() {
                    bundle.clear();
                    bundle.extend_from_slice(mr.bundle(idx, v));
                }
                dn.members_into(v, &mut vd.members);
                dn.fwd_into(v, &mut vd.fwd);
                dn.rev_into(v, &mut vd.rev);
                w.put_u32(v);
                vd.encode(&mut w);
            }
            writer.align_to_page(disk)?;
            partition_ptrs.push(writer.append(disk, w.as_bytes())?);
        }
        writer.finish(disk)?;

        // --- Metadata footer ----------------------------------------------
        let meta_payload = encode_meta(
            &params,
            horizon,
            num_objects,
            num_nodes,
            &parts.partition_of,
            &partition_ptrs,
            &timeline,
        );
        meta::write_footer(disk, &meta_payload)?;
        disk.reset_stats();

        Ok(Self {
            device: SharedDevice::share(device),
            params,
            horizon,
            num_objects,
            num_nodes,
            partition_of: parts.partition_of,
            partition_ptrs,
            timeline,
        })
    }

    /// Reopens an index previously built (with [`ReachGraph::build_on`]) on
    /// a persistent device: reads the metadata footer and reconstructs the
    /// in-memory state without touching the data regions.
    pub fn open(device: Box<dyn BlockDevice>) -> Result<Self, IndexError> {
        let device = SharedDevice::share(device);
        let payload = meta::read_footer(&mut device.cold_pager(0))?;
        let decoded = decode_meta(&payload)?;
        if decoded.params.page_size != device.page_size() {
            return Err(IndexError::Corrupt(format!(
                "metadata page size {} does not match device page size {}",
                decoded.params.page_size,
                device.page_size()
            )));
        }
        Ok(Self {
            device,
            params: decoded.params,
            horizon: decoded.horizon,
            num_objects: decoded.num_objects,
            num_nodes: decoded.num_nodes,
            partition_of: decoded.partition_of,
            partition_ptrs: decoded.partition_ptrs,
            timeline: decoded.timeline,
        })
    }

    /// Number of partitions on disk.
    pub fn num_partitions(&self) -> u32 {
        self.partition_ptrs.len() as u32
    }

    /// Number of `HN` vertices.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of objects in the indexed dataset.
    pub fn num_objects(&self) -> usize {
        self.num_objects
    }

    /// Indexed horizon in ticks.
    pub fn horizon(&self) -> Time {
        self.horizon
    }

    /// Index size on the device, bytes.
    pub fn size_bytes(&self) -> u64 {
        self.device.size_bytes()
    }

    /// The device hub the pages live behind.
    pub fn hub(&self) -> &SharedDevice {
        &self.device
    }

    /// The underlying block device (diagnostics and equivalence testing).
    pub fn device_mut(&mut self) -> &mut dyn BlockDevice {
        &mut self.device
    }

    /// Opens a cold read context: a pager on a fresh device handle (zeroed
    /// counters, no head position) and an empty partition buffer. Every
    /// query runs on one, so its counted IO never depends on what other
    /// queries, on this thread or another, read before or beside it.
    pub fn context(&self) -> GraphContext<'_> {
        GraphContext {
            graph: self,
            pager: self.device.cold_pager(0), // the partition buffer is the cache
            buffer: HashMap::new(),
            buffer_order: VecDeque::new(),
        }
    }

    /// Runs one traversal on a fresh context, converting its
    /// [`TraversalStats`] and the context's device counters into
    /// [`QueryStats`].
    fn accounted<T>(
        &self,
        run: impl FnOnce(&mut GraphContext<'_>) -> Result<(T, TraversalStats), IndexError>,
    ) -> Result<(T, QueryStats), IndexError> {
        let started = Instant::now();
        let mut cx = self.context();
        let (value, tstats) = run(&mut cx)?;
        let io = cx.io_stats();
        Ok((
            value,
            QueryStats {
                random_ios: io.random_reads,
                seq_ios: io.seq_reads,
                visited: tstats.visited,
                examined: tstats.examined,
                cpu: started.elapsed(),
            },
        ))
    }

    /// Every object reachable from `source` during `interval`, with exact
    /// earliest hold ticks (the paper's batch epidemiology / watch-list
    /// scenarios, §1). Returns the result plus the query's IO-accounted
    /// stats.
    pub fn reachable_set(
        &self,
        source: ObjectId,
        interval: reach_core::TimeInterval,
    ) -> Result<(Vec<(ObjectId, Time)>, QueryStats), IndexError> {
        self.accounted(|cx| crate::traverse::reachable_set(cx, source, interval))
    }

    /// Frontier-seeded variant of [`ReachGraph::reachable_set`]: the
    /// expansion starts from a whole earliest-arrival frontier (sorted or
    /// not; per-seed "hold from the window start" semantics) instead of a
    /// single source. This is the sealed leg of a cross-shard handoff —
    /// see `reach_core::FrontierHandoff`.
    pub fn reachable_set_from(
        &self,
        seeds: &[(ObjectId, Time)],
        interval: reach_core::TimeInterval,
    ) -> Result<(Vec<(ObjectId, Time)>, QueryStats), IndexError> {
        self.accounted(|cx| crate::traverse::reachable_set_seeded(cx, seeds, interval))
    }

    /// One decay-weighted frontier leg (the weighted sibling of
    /// [`ReachGraph::reachable_set_from`]): expands `seeds` plus the
    /// previous leg's `carry` groups over `interval` under `model`,
    /// measuring elapsed-time decay from `origin` and pruning below
    /// `floor`. Returns the leg's answer rows and continuation carry
    /// (see [`crate::decay::DecayLeg`]).
    pub fn decay_states_from(
        &self,
        seeds: &[reach_core::frontier::WeightedSeed],
        carry: &[reach_core::frontier::CarryGroup],
        interval: reach_core::TimeInterval,
        origin: Time,
        model: &reach_core::DecayModel,
        floor: f64,
    ) -> Result<(crate::decay::DecayLeg, QueryStats), IndexError> {
        self.accounted(|cx| {
            crate::decay::decay_states_seeded(cx, seeds, carry, interval, origin, model, floor)
        })
    }

    /// Point decay query: best weight and earliest maximum-weight arrival
    /// of `dest` from `source`, if it clears `theta` (see
    /// [`crate::decay::decay_reachable`]).
    pub fn decay_reachable(
        &self,
        source: ObjectId,
        dest: ObjectId,
        interval: reach_core::TimeInterval,
        model: &reach_core::DecayModel,
        theta: f64,
    ) -> Result<(Option<(f64, Time)>, QueryStats), IndexError> {
        self.accounted(|cx| crate::decay::decay_reachable(cx, source, dest, interval, model, theta))
    }

    /// Top-k ranked decay query in either direction (see
    /// [`crate::decay::top_k_reachable`] / [`crate::decay::top_k_reaching`]).
    pub fn top_k(
        &self,
        anchor: ObjectId,
        interval: reach_core::TimeInterval,
        k: usize,
        model: &reach_core::DecayModel,
        direction: reach_core::RankDirection,
    ) -> Result<(Vec<reach_core::Ranked>, QueryStats), IndexError> {
        self.accounted(|cx| match direction {
            reach_core::RankDirection::Reachable => {
                crate::decay::top_k_reachable(cx, anchor, interval, k, model)
            }
            reach_core::RankDirection::Reaching => {
                crate::decay::top_k_reaching(cx, anchor, interval, k, model)
            }
        })
    }

    /// Evaluates with an explicit traversal strategy.
    pub fn evaluate_with(&self, q: &Query, kind: TraversalKind) -> Result<QueryResult, IndexError> {
        let (outcome, stats) = self.accounted(|cx| evaluate(cx, q, kind))?;
        Ok(QueryResult { outcome, stats })
    }
}

/// One query's private read state over a [`ReachGraph`] image (see
/// [`ReachGraph::context`]): a pager on its own device handle plus a
/// bounded buffer of decoded partitions, discarding the oldest (§5.2).
/// Traversal reads it as an [`HnSource`]; live compaction re-streams it
/// as a [`DnAccess`].
pub struct GraphContext<'g> {
    graph: &'g ReachGraph,
    pager: Pager,
    /// Decoded-partition buffer (bounded, FIFO eviction).
    buffer: HashMap<u32, Partition>,
    buffer_order: VecDeque<u32>,
}

impl GraphContext<'_> {
    /// Device IO this context has counted since it was opened.
    pub fn io_stats(&self) -> IoStats {
        self.pager.stats()
    }

    fn fetch_partition(&mut self, pid: u32) -> Result<&Partition, IndexError> {
        let graph = self.graph;
        if !self.buffer.contains_key(&pid) {
            let bytes = read_record(&mut self.pager, graph.partition_ptrs[pid as usize])?;
            let decoded = Partition::decode(&bytes, graph.params.levels.len(), |v| {
                graph.partition_of.get(v as usize) == Some(&pid)
            })?;
            if self.buffer.len() >= graph.params.partition_cache.max(1) {
                if let Some(old) = self.buffer_order.pop_front() {
                    self.buffer.remove(&old);
                }
            }
            self.buffer.insert(pid, decoded);
            self.buffer_order.push_back(pid);
        }
        Ok(&self.buffer[&pid])
    }
}

/// Decoded metadata payload (see [`encode_meta`]).
struct DecodedMeta {
    params: GraphParams,
    horizon: Time,
    num_objects: usize,
    num_nodes: usize,
    partition_of: Vec<u32>,
    partition_ptrs: Vec<RecordPtr>,
    timeline: TimelineRegion,
}

#[allow(clippy::too_many_arguments)]
fn encode_meta(
    params: &GraphParams,
    horizon: Time,
    num_objects: usize,
    num_nodes: usize,
    partition_of: &[u32],
    partition_ptrs: &[RecordPtr],
    timeline: &TimelineRegion,
) -> Vec<u8> {
    let timeline_index = timeline.index();
    let mut w = ByteWriter::with_capacity(
        64 + 4 * partition_of.len() + 12 * partition_ptrs.len() + 12 * timeline_index.len(),
    );
    w.put_u32(params.partition_depth);
    w.put_u32_slice(&params.levels);
    w.put_u64(params.partition_cache as u64);
    w.put_u64(params.page_size as u64);
    w.put_u32(horizon);
    w.put_u64(num_objects as u64);
    w.put_u64(num_nodes as u64);
    w.put_u64(timeline.first_page());
    w.put_u32(timeline_index.len() as u32);
    for &(first, count) in timeline_index {
        w.put_u64(first);
        w.put_u32(count);
    }
    w.put_u32_slice(partition_of);
    w.put_u32(partition_ptrs.len() as u32);
    for ptr in partition_ptrs {
        ptr.encode(&mut w);
    }
    w.into_bytes()
}

fn decode_meta(payload: &[u8]) -> Result<DecodedMeta, IndexError> {
    let corrupt = |what: String| IndexError::Corrupt(format!("ReachGraph metadata: {what}"));
    let mut r = ByteReader::new(payload);
    let partition_depth = r.get_u32()?;
    let levels = r.get_u32_vec()?;
    let partition_cache = r.get_u64()? as usize;
    let page_size = r.get_u64()? as usize;
    // The same invariants `GraphParams::validate` asserts, but as typed
    // errors: this input is untrusted on-disk data, and `open` must never
    // panic on a corrupt footer.
    if partition_depth == 0 {
        return Err(corrupt("partition depth 0".into()));
    }
    if page_size < 64 {
        return Err(corrupt(format!("page size {page_size} unreasonably small")));
    }
    for (i, &l) in levels.iter().enumerate() {
        let expected = 2u32.checked_shl(i as u32).unwrap_or(0);
        if l != expected {
            return Err(corrupt(format!(
                "level {i} is {l}, expected the doubling chain value {expected}"
            )));
        }
    }
    let params = GraphParams {
        partition_depth,
        levels,
        partition_cache,
        page_size,
    };
    let horizon = r.get_u32()?;
    let num_objects = r.get_u64()? as usize;
    let num_nodes = r.get_u64()? as usize;
    let timeline_first_page = r.get_u64()?;
    let tl_len = r.get_u32()? as usize;
    // Cap pre-allocations by the bytes actually present: these counts are
    // untrusted, and a corrupt footer must produce an error, not an
    // allocator abort (each timeline entry is 12 encoded bytes).
    let mut timeline_index = Vec::with_capacity(tl_len.min(r.remaining() / 12));
    for _ in 0..tl_len {
        let first = r.get_u64()?;
        let count = r.get_u32()?;
        timeline_index.push((first, count));
    }
    if timeline_index.len() != num_objects {
        return Err(corrupt(format!(
            "timeline table covers {} objects but the graph has {num_objects}",
            timeline_index.len()
        )));
    }
    let partition_of = r.get_u32_vec()?;
    let np = r.get_u32()? as usize;
    let mut partition_ptrs = Vec::with_capacity(np.min(r.remaining() / RecordPtr::ENCODED_LEN));
    for _ in 0..np {
        partition_ptrs.push(RecordPtr::decode(&mut r)?);
    }
    if r.remaining() != 0 {
        return Err(corrupt(format!("{} trailing bytes", r.remaining())));
    }
    if partition_of.len() != num_nodes {
        return Err(corrupt(format!(
            "page table covers {} vertices but the graph has {num_nodes}",
            partition_of.len()
        )));
    }
    if let Some(&bad) = partition_of.iter().find(|&&pid| pid as usize >= np) {
        return Err(corrupt(format!(
            "page table references partition {bad} but only {np} partitions exist"
        )));
    }
    Ok(DecodedMeta {
        timeline: TimelineRegion::from_parts(timeline_first_page, timeline_index, page_size),
        params,
        horizon,
        num_objects,
        num_nodes,
        partition_of,
        partition_ptrs,
    })
}

/// [`DnAccess`] panics on device failure (see the trait docs: construction
/// sweeps have no way to resume); this is the message re-streaming uses.
const RESTREAM_IO: &str = "index device IO failed while re-streaming the DN of a sealed ReachGraph";

/// A sealed ReachGraph can *re-stream* the DN it was built from: vertex
/// records carry interval, members, and both DN1 edge directions, and the
/// timeline region carries every object's runs — together exactly the
/// [`DnAccess`] surface. This is what live compaction consumes: the sealed
/// base re-streams as a DN and merges with the delta through the ordinary
/// streaming builders, no original trace required.
///
/// Reads are charged to the context's device handle like any other access
/// (partition fetches ride the partition buffer, timeline scans the
/// pager), so compaction IO is honestly accounted. Device failure panics,
/// per the [`DnAccess`] contract.
impl DnAccess for GraphContext<'_> {
    fn num_objects(&self) -> usize {
        self.graph.num_objects
    }

    fn horizon(&self) -> Time {
        self.graph.horizon
    }

    fn num_nodes(&self) -> usize {
        self.graph.num_nodes
    }

    fn interval(&mut self, v: u32) -> reach_core::TimeInterval {
        self.vertex(v).expect(RESTREAM_IO).interval()
    }

    fn members_into(&mut self, v: u32, out: &mut Vec<u32>) {
        out.clear();
        out.extend_from_slice(self.vertex(v).expect(RESTREAM_IO).members());
    }

    fn fwd_into(&mut self, v: u32, out: &mut Vec<u32>) {
        out.clear();
        out.extend_from_slice(self.vertex(v).expect(RESTREAM_IO).fwd());
    }

    fn rev_into(&mut self, v: u32, out: &mut Vec<u32>) {
        out.clear();
        out.extend_from_slice(self.vertex(v).expect(RESTREAM_IO).rev());
    }

    fn timeline_into(&mut self, o: ObjectId, out: &mut Vec<(Time, u32)>) {
        self.graph
            .timeline
            .timeline_into(&mut self.pager, o, out)
            .expect(RESTREAM_IO);
    }

    fn timeline_total(&mut self) -> u64 {
        self.graph.timeline.total_entries()
    }
}

impl HnSource for GraphContext<'_> {
    fn backing(&self) -> &'static str {
        "disk"
    }

    fn levels(&self) -> &[Time] {
        &self.graph.params.levels
    }

    fn horizon(&self) -> Time {
        self.graph.horizon
    }

    fn num_objects(&self) -> usize {
        self.graph.num_objects
    }

    fn vertex(&mut self, v: u32) -> Result<Vertex<'_>, IndexError> {
        let pid = *self
            .graph
            .partition_of
            .get(v as usize)
            .ok_or_else(|| IndexError::Corrupt(format!("vertex {v} out of range")))?;
        self.fetch_partition(pid)?
            .vertex(v)
            .ok_or_else(|| IndexError::Corrupt(format!("vertex {v} missing from partition {pid}")))
    }

    fn node_of(&mut self, o: ObjectId, t: Time) -> Result<u32, IndexError> {
        // Shared `Ht` lookup: binary search over on-disk fixed-width
        // entries, one zero-copy `with_page` probe per step — the hottest
        // per-query loop besides partition fetches.
        self.graph.timeline.node_of(&mut self.pager, o, t)
    }
}

impl ReachIndex for ReachGraph {
    fn name(&self) -> &'static str {
        "ReachGraph"
    }

    fn evaluate(&self, query: &Query) -> Result<QueryResult, IndexError> {
        self.evaluate_with(query, TraversalKind::BmBfs)
    }

    fn answer(&self, request: &ReachRequest) -> Result<Answer, IndexError> {
        let q = &request.query;
        match request.kind {
            QueryKind::Reach => self.evaluate(q).map(Answer::from),
            QueryKind::Decay { theta, model } => {
                let (hit, stats) =
                    self.decay_reachable(q.source, q.dest, q.interval, &model, theta)?;
                Ok(Answer::decay(q.dest, hit, stats))
            }
            QueryKind::TopK {
                k,
                model,
                direction,
            } => {
                let (ranking, stats) = self.top_k(q.source, q.interval, k, &model, direction)?;
                Ok(Answer::ranked(ranking, stats))
            }
            _ => Err(request.unsupported(self.name())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use reach_contact::{Oracle, DEFAULT_LEVELS};
    use reach_core::TimeInterval;
    use reach_storage::FileDevice;

    fn random_world(
        seed: u64,
        n: usize,
        horizon: Time,
        density: f64,
    ) -> (DnGraph, MultiRes, Oracle) {
        let mut rng = StdRng::seed_from_u64(seed);
        let script: Vec<Vec<(u32, u32)>> = (0..horizon)
            .map(|_| {
                let mut pairs = Vec::new();
                for a in 0..n as u32 {
                    for b in (a + 1)..n as u32 {
                        if rng.gen_bool(density) {
                            pairs.push((a, b));
                        }
                    }
                }
                pairs
            })
            .collect();
        let dn = DnGraph::build_from_ticks(n, horizon, |t| script[t as usize].as_slice());
        let mr = MultiRes::build(&dn, &DEFAULT_LEVELS);
        let oracle = Oracle::from_events(n, script);
        (dn, mr, oracle)
    }

    fn params(page: usize) -> GraphParams {
        GraphParams {
            partition_depth: 8,
            levels: DEFAULT_LEVELS.to_vec(),
            partition_cache: 8,
            page_size: page,
        }
    }

    #[test]
    fn disk_graph_matches_oracle_all_kinds() {
        for seed in 0..5u64 {
            let n = 6;
            let horizon = 70;
            let (dn, mr, oracle) = random_world(seed, n, horizon, 0.03);
            let rg = ReachGraph::build(&dn, &mr, params(256)).unwrap();
            let mut rng = StdRng::seed_from_u64(seed ^ 0x777);
            for _ in 0..40 {
                let s = rng.gen_range(0..n as u32);
                let d = rng.gen_range(0..n as u32);
                let a = rng.gen_range(0..horizon);
                let b = rng.gen_range(a..horizon);
                let q = Query::new(ObjectId(s), ObjectId(d), TimeInterval::new(a, b));
                let expected = oracle.evaluate(&q).reachable;
                for kind in [
                    TraversalKind::EDfs,
                    TraversalKind::EBfs,
                    TraversalKind::BBfs,
                    TraversalKind::BmBfs,
                ] {
                    let got = rg.evaluate_with(&q, kind).unwrap();
                    assert_eq!(
                        got.reachable(),
                        expected,
                        "{} on disk disagrees on {q} (seed {seed})",
                        kind.name()
                    );
                }
            }
        }
    }

    #[test]
    fn node_of_matches_memory_graph() {
        let (dn, mr, _) = random_world(11, 5, 40, 0.08);
        let rg = ReachGraph::build(&dn, &mr, params(128)).unwrap();
        let mut cx = rg.context();
        for o in 0..5u32 {
            for t in 0..40 {
                assert_eq!(
                    cx.node_of(ObjectId(o), t).unwrap(),
                    dn.node_of(ObjectId(o), t).0,
                    "timeline lookup mismatch for o{o} at t{t}"
                );
            }
        }
    }

    #[test]
    fn queries_cost_io_and_partition_buffer_bounds_memory() {
        let (dn, mr, _) = random_world(2, 8, 120, 0.05);
        let rg = ReachGraph::build(&dn, &mr, params(256)).unwrap();
        let q = Query::new(ObjectId(0), ObjectId(7), TimeInterval::new(0, 119));
        let r = rg.evaluate_with(&q, TraversalKind::BmBfs).unwrap();
        assert!(
            r.stats.random_ios + r.stats.seq_ios > 0,
            "disk queries cost IO"
        );
        let mut cx = rg.context();
        evaluate(&mut cx, &q, TraversalKind::BmBfs).unwrap();
        assert!(cx.buffer.len() <= rg.params.partition_cache);
    }

    #[test]
    fn vertex_roundtrips_through_disk() {
        let (dn, mr, _) = random_world(5, 5, 30, 0.1);
        let rg = ReachGraph::build(&dn, &mr, params(128)).unwrap();
        let mut cx = rg.context();
        for v in 0..dn.num_nodes() as u32 {
            let vd = cx.vertex(v).unwrap();
            assert_eq!(vd.interval(), dn.node(v).interval);
            assert_eq!(
                vd.members(),
                dn.node(v).members.iter().map(|m| m.0).collect::<Vec<_>>()
            );
            assert_eq!(vd.fwd(), dn.fwd(v));
            assert_eq!(vd.rev(), dn.rev(v));
            assert_eq!(vd.num_bundles(), mr.levels().len());
            for idx in 0..mr.levels().len() {
                assert_eq!(vd.bundle(idx), mr.bundle(idx, v));
            }
        }
    }

    /// The id and raw record of `rg`'s largest partition.
    fn largest_record(rg: &ReachGraph) -> (u32, Vec<u8>) {
        let pid = (0..rg.num_partitions())
            .max_by_key(|&p| rg.partition_of.iter().filter(|&&q| q == p).count())
            .unwrap();
        let bytes = read_record(
            &mut rg.device.cold_pager(0),
            rg.partition_ptrs[pid as usize],
        )
        .unwrap();
        (pid, bytes)
    }

    #[test]
    fn corrupt_partition_records_are_typed_errors() {
        let (dn, mr, _) = random_world(12, 6, 80, 0.06);
        let rg = ReachGraph::build(&dn, &mr, params(256)).unwrap();
        let (pid, bytes) = largest_record(&rg);
        let levels = rg.params.levels.len();
        let decode = |bytes: &[u8]| {
            Partition::decode(bytes, levels, |v| {
                rg.partition_of.get(v as usize) == Some(&pid)
            })
        };
        decode(&bytes).unwrap();
        assert!(
            rg.partition_of.iter().filter(|&&p| p == pid).count() > 1,
            "a multi-vertex partition"
        );
        for cut in 0..bytes.len() {
            assert!(
                matches!(decode(&bytes[..cut]), Err(IndexError::Corrupt(_))),
                "prefix of {cut} bytes decoded"
            );
        }
        // Every length prefix of the first vertex, with a high bit flipped,
        // claims a list running past the record. The first vertex's lists
        // start after the count, its id, and its interval.
        assert!(bytes.len() < 1 << 16);
        let mut at = 16;
        for list in 0..3 + levels {
            let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
            for bit in 16..32 {
                let mut flipped = bytes.clone();
                flipped[at + bit / 8] ^= 1 << (bit % 8);
                assert!(
                    matches!(decode(&flipped), Err(IndexError::Corrupt(_))),
                    "list {list} length with bit {bit} flipped decoded"
                );
            }
            // The bundle count byte sits between rev and the bundles.
            at += 4 + 4 * len + usize::from(list == 2);
        }
    }

    #[test]
    fn page_table_disagreeing_with_a_partition_is_corrupt() {
        let (dn, mr, _) = random_world(12, 6, 80, 0.06);
        let mut rg = ReachGraph::build(&dn, &mr, params(256)).unwrap();
        assert!(rg.num_partitions() > 1);
        let v = 0u32;
        let home = rg.partition_of[v as usize];
        let sibling = (0..rg.num_nodes() as u32)
            .find(|&u| u != v && rg.partition_of[u as usize] == home)
            .expect("vertex 0 shares its partition");
        let elsewhere = (home + 1) % rg.num_partitions();
        rg.partition_of[v as usize] = elsewhere;
        // The page table sends `v` to a partition that does not hold it…
        assert!(matches!(
            rg.context().vertex(v),
            Err(IndexError::Corrupt(_))
        ));
        // …and `v`'s real partition holds a vertex the table places
        // elsewhere, so fetching any of its vertices fails too.
        assert!(matches!(
            rg.context().vertex(sibling),
            Err(IndexError::Corrupt(_))
        ));
    }

    #[test]
    fn deeper_partitions_mean_fewer_partitions() {
        let (dn, mr, _) = random_world(6, 6, 100, 0.05);
        let shallow = ReachGraph::build(
            &dn,
            &mr,
            GraphParams {
                partition_depth: 1,
                ..params(256)
            },
        )
        .unwrap();
        let deep = ReachGraph::build(
            &dn,
            &mr,
            GraphParams {
                partition_depth: 64,
                ..params(256)
            },
        )
        .unwrap();
        assert!(deep.num_partitions() <= shallow.num_partitions());
    }

    #[test]
    fn memory_and_disk_agree_exactly() {
        let (dn, mr, _) = random_world(8, 6, 60, 0.06);
        let rg = ReachGraph::build(&dn, &mr, params(256)).unwrap();
        let mem = crate::memory::MemoryHn::new(&dn, &mr);
        let mut rng = StdRng::seed_from_u64(123);
        for _ in 0..40 {
            let s = rng.gen_range(0..6u32);
            let d = rng.gen_range(0..6u32);
            let a = rng.gen_range(0..60);
            let b = rng.gen_range(a..60);
            let q = Query::new(ObjectId(s), ObjectId(d), TimeInterval::new(a, b));
            let disk = rg.evaluate_with(&q, TraversalKind::BmBfs).unwrap();
            let mem_r = mem.evaluate_with(&q, TraversalKind::BmBfs).unwrap();
            assert_eq!(disk.reachable(), mem_r.reachable(), "query {q}");
            assert_eq!(
                disk.stats.visited, mem_r.stats.visited,
                "visit counts differ on {q}"
            );
        }
    }

    #[test]
    fn metadata_roundtrips_through_footer() {
        let (dn, mr, _) = random_world(9, 5, 50, 0.06);
        let rg = ReachGraph::build(&dn, &mr, params(128)).unwrap();
        let payload = encode_meta(
            &rg.params,
            rg.horizon,
            rg.num_objects,
            rg.num_nodes,
            &rg.partition_of,
            &rg.partition_ptrs,
            &rg.timeline,
        );
        let decoded = decode_meta(&payload).unwrap();
        assert_eq!(decoded.params.levels, rg.params.levels);
        assert_eq!(decoded.horizon, rg.horizon);
        assert_eq!(decoded.num_objects, rg.num_objects);
        assert_eq!(decoded.num_nodes, rg.num_nodes);
        assert_eq!(decoded.partition_of, rg.partition_of);
        assert_eq!(decoded.partition_ptrs, rg.partition_ptrs);
        assert_eq!(decoded.timeline.index(), rg.timeline.index());
        assert_eq!(decoded.timeline.first_page(), rg.timeline.first_page());
        // Truncations decode to errors, not panics.
        for cut in 0..payload.len() {
            assert!(
                decode_meta(&payload[..cut]).is_err(),
                "prefix {cut} decoded"
            );
        }
        // Structurally valid but semantically corrupt metadata must produce
        // typed errors, never panics: a broken doubling chain…
        let bad_levels = encode_meta(
            &GraphParams {
                levels: vec![2, 3],
                ..rg.params.clone()
            },
            rg.horizon,
            rg.num_objects,
            rg.num_nodes,
            &rg.partition_of,
            &rg.partition_ptrs,
            &rg.timeline,
        );
        assert!(matches!(
            decode_meta(&bad_levels),
            Err(IndexError::Corrupt(_))
        ));
        // …and a page-table entry pointing past the partition directory.
        let mut poisoned = rg.partition_of.clone();
        poisoned[0] = u32::MAX;
        let bad_table = encode_meta(
            &rg.params,
            rg.horizon,
            rg.num_objects,
            rg.num_nodes,
            &poisoned,
            &rg.partition_ptrs,
            &rg.timeline,
        );
        assert!(matches!(
            decode_meta(&bad_table),
            Err(IndexError::Corrupt(_))
        ));
    }

    #[test]
    fn sealed_graph_restreams_its_dn_exactly() {
        let (dn, mr, _) = random_world(14, 6, 80, 0.05);
        let graph = ReachGraph::build(&dn, &mr, params(256)).unwrap();
        let mut rg = graph.context();
        assert_eq!(DnAccess::num_nodes(&rg), dn.num_nodes());
        assert_eq!(DnAccess::num_objects(&rg), dn.num_objects());
        assert_eq!(DnAccess::horizon(&rg), dn.horizon());
        let mut buf = Vec::new();
        for v in 0..dn.num_nodes() as u32 {
            assert_eq!(DnAccess::interval(&mut rg, v), dn.node(v).interval);
            rg.members_into(v, &mut buf);
            let expect: Vec<u32> = dn.node(v).members.iter().map(|m| m.0).collect();
            assert_eq!(buf, expect, "members of {v}");
            rg.fwd_into(v, &mut buf);
            assert_eq!(buf.as_slice(), dn.fwd(v), "fwd of {v}");
            rg.rev_into(v, &mut buf);
            assert_eq!(buf.as_slice(), dn.rev(v), "rev of {v}");
        }
        let mut tl = Vec::new();
        let mut total = 0u64;
        for o in 0..dn.num_objects() as u32 {
            DnAccess::timeline_into(&mut rg, ObjectId(o), &mut tl);
            assert_eq!(tl.as_slice(), dn.timeline(ObjectId(o)), "timeline of {o}");
            total += tl.len() as u64;
        }
        assert_eq!(rg.timeline_total(), total);
        // The re-streamed DN rebuilds a byte-identical index: partitioning,
        // multires, and serialization see the same DAG.
        let mr2 = MultiRes::build(&mut rg, &reach_contact::DEFAULT_LEVELS);
        assert_eq!(mr2.levels(), mr.levels());
        let mut rebuilt =
            ReachGraph::build_on(Box::new(SimDevice::new(256)), &mut rg, &mr2, params(256))
                .unwrap();
        let mut original = ReachGraph::build(&dn, &mr, params(256)).unwrap();
        let (a, b) = (original.device_mut(), rebuilt.device_mut());
        assert_eq!(a.len_pages(), b.len_pages());
        let (mut pa, mut pb) = (vec![0u8; 256], vec![0u8; 256]);
        for p in 0..a.len_pages() {
            a.read_page_into(p, &mut pa).unwrap();
            b.read_page_into(p, &mut pb).unwrap();
            assert_eq!(pa, pb, "page {p} differs");
        }
    }

    #[test]
    fn file_backed_graph_survives_reopen() {
        let mut path = std::env::temp_dir();
        path.push(format!("streach-diskgraph-{}.pages", std::process::id()));
        let (dn, mr, oracle) = random_world(4, 6, 60, 0.05);
        let queries: Vec<Query> = {
            let mut rng = StdRng::seed_from_u64(0xFEED);
            (0..30)
                .map(|_| {
                    let s = rng.gen_range(0..6u32);
                    let d = rng.gen_range(0..6u32);
                    let a = rng.gen_range(0..60);
                    let b = rng.gen_range(a..60);
                    Query::new(ObjectId(s), ObjectId(d), TimeInterval::new(a, b))
                })
                .collect()
        };
        let mut first_answers = Vec::new();
        {
            let dev = FileDevice::create(&path, 256).unwrap();
            let rg = ReachGraph::build_on(Box::new(dev), &dn, &mr, params(256)).unwrap();
            for q in &queries {
                first_answers.push(rg.evaluate(q).unwrap());
            }
        }
        let dev = FileDevice::open(&path, 256).unwrap();
        let rg = ReachGraph::open(Box::new(dev)).unwrap();
        for (q, first) in queries.iter().zip(&first_answers) {
            let again = rg.evaluate(q).unwrap();
            assert_eq!(again.reachable(), first.reachable(), "reopened on {q}");
            assert_eq!(
                again.reachable(),
                oracle.evaluate(q).reachable,
                "oracle on {q}"
            );
            assert_eq!(
                (again.stats.random_ios, again.stats.seq_ios),
                (first.stats.random_ios, first.stats.seq_ios),
                "IO accounting changed across reopen on {q}"
            );
        }
        let _ = std::fs::remove_file(&path);
    }
}
