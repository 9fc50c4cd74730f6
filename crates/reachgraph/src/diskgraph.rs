//! The disk-resident ReachGraph index (paper §5.1.3).
//!
//! Layout on the block device, in page order:
//!
//! 1. the *timeline region* — per object, its `(start_tick, node)` runs as
//!    fixed 8-byte entries (our substitute for the paper's per-tick `Ht`
//!    hash tables; same role: locating the vertex of `o_i(t)`);
//! 2. the *partition region* — one record per partition, in creation
//!    (topological) order, each packed right after the previous one; a
//!    partition record holds its vertices (interval, members, DN1 edges
//!    both directions, long-edge bundles) behind a slot table sorted by
//!    vertex id, each vertex's lists delimited by fixed-width cumulative
//!    ends (layout in [`crate::partition`](mod@crate::partition));
//! 3. the *metadata footer* (`reach_storage::meta`) — everything needed to
//!    reconstruct the in-memory state (params, page table, record
//!    directory), so an index built on a persistent backend can be dropped
//!    and reopened with [`ReachGraph::open`]. It opens with a tag naming
//!    the partition record layout; a footer with another tag, or one
//!    written before the tag existed, fails to open with
//!    [`IndexError::Corrupt`].
//!
//! The index is backend-agnostic: [`ReachGraph::build`] keeps the paper's
//! simulator, [`ReachGraph::build_on`] accepts any
//! [`BlockDevice`] — the layout and the counted
//! IO are identical on all of them.
//!
//! The index is an immutable image; every query, of any kind (one dispatch,
//! [`crate::traverse::answer`]), reads through its own [`GraphContext`], a
//! pager on a fresh device handle that starts cold.
//! Traversal fetches whole partitions and the context buffers a bounded
//! number of them, discarding the oldest (§5.2). A fetched record is read
//! into a reused buffer and its framing is checked once, in full, by
//! [`Partition::decode`] in one pass over its slot table; a vertex's lists
//! are decoded only when [`HnSource::vertex`] asks for that vertex (a
//! binary search of the record's slot table), into one scratch buffer the
//! context owns, and the returned [`Vertex`] view borrows it. A query thus
//! decodes the vertices it visits, not every vertex of every partition it
//! reads, and the re-streaming [`DnAccess`] surface decodes each vertex
//! once per call ([`DnAccess::node_into`] serves all three lists from one
//! decode). Neither the record format nor the counted IO depends on this:
//! decoding happens after the pages are read.

use crate::params::{GraphParams, TraversalKind};
use crate::partition::{Partition, PartitionEncoder};
use crate::placement::Sweep;
use crate::traverse::{evaluate, query_stats, TraversalStats};
use crate::vertex::{HnSource, Vertex};
use reach_contact::{DnAccess, DnGraph, MultiRes};
use reach_core::{
    Answer, FxHashMap, IndexError, ObjectId, Query, QueryResult, QueryStats, ReachIndex,
    ReachRequest, Time, TimeInterval,
};
use reach_storage::{
    meta, read_record_into, BlockDevice, ByteReader, ByteWriter, IoStats, Pager, RecordPtr,
    RecordWriter, SharedDevice, SimDevice, TimelineRegion,
};
use std::collections::VecDeque;
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
    /// touches one partition's vertices at a time and reads each vertex
    /// once ([`DnAccess::node_into`]), as the partitioning assigns it, so
    /// the whole DN never needs to be resident, and the resulting pages are
    /// byte-identical either way (asserted by `tests/streaming_build.rs`).
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
        // One sweep places and encodes: each vertex is read once, when the
        // partitioning assigns it, into three scratch lists refilled per
        // vertex, and pushed into one encoder whose buffers every partition
        // reuses; bundles are pushed straight from `mr`.
        let mut writer = RecordWriter::new(disk)?;
        let mut partition_ptrs = Vec::new();
        let mut sweep = Sweep::new(num_nodes, params.partition_depth);
        let mut encoder = PartitionEncoder::new(mr.levels().len());
        let (mut members, mut rev) = (Vec::new(), Vec::new());
        loop {
            let placed = sweep.next(|v, fwd| {
                let interval = dn.node_into(v, &mut members, fwd, &mut rev);
                let bundles = (0..mr.levels().len()).map(|idx| mr.bundle(idx, v));
                encoder.push(v, interval, &members, fwd, &rev, bundles);
                Ok::<(), IndexError>(())
            });
            let Some(mine) = placed else { break };
            mine?;
            partition_ptrs.push(writer.append(disk, encoder.finish())?);
        }
        let parts = sweep.finish();
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
            buffer: FxHashMap::default(),
            buffer_order: VecDeque::new(),
            scratch: Vec::new(),
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
        let (value, walk) = run(&mut cx)?;
        Ok((value, query_stats(cx.io_stats(), walk, started)))
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

    /// Evaluates with an explicit traversal strategy.
    pub fn evaluate_with(&self, q: &Query, kind: TraversalKind) -> Result<QueryResult, IndexError> {
        let (outcome, stats) = self.accounted(|cx| evaluate(cx, q, kind))?;
        Ok(QueryResult { outcome, stats })
    }
}

/// One query's private read state over a [`ReachGraph`] image (see
/// [`ReachGraph::context`]): a pager on its own device handle, a bounded
/// buffer of fetched partitions, discarding the oldest (§5.2), and the
/// scratch buffer the last vertex handed out was decoded into. Traversal
/// reads it as an [`HnSource`]; live compaction re-streams it as a
/// [`DnAccess`].
pub struct GraphContext<'g> {
    graph: &'g ReachGraph,
    pager: Pager,
    /// Fetched-partition buffer (bounded, FIFO eviction).
    buffer: FxHashMap<u32, Partition>,
    buffer_order: VecDeque<u32>,
    /// Lists of the vertex last handed out (see [`Partition::vertex`]).
    scratch: Vec<u32>,
}

impl GraphContext<'_> {
    /// Device IO this context has counted since it was opened.
    pub fn io_stats(&self) -> IoStats {
        self.pager.stats()
    }

    /// Buffers the partition holding vertex `v`, fetching it on a miss,
    /// and returns its id.
    fn fetch_holder(&mut self, v: u32) -> Result<u32, IndexError> {
        let graph = self.graph;
        let pid = *graph
            .partition_of
            .get(v as usize)
            .ok_or_else(|| IndexError::Corrupt(format!("vertex {v} out of range")))?;
        if self.buffer.contains_key(&pid) {
            return Ok(pid);
        }
        // Evict first, so the fetch reads into the evicted record's buffer.
        let mut record = Vec::new();
        if self.buffer.len() >= graph.params.partition_cache.max(1) {
            let oldest = self.buffer_order.pop_front();
            if let Some(evicted) = oldest.and_then(|old| self.buffer.remove(&old)) {
                record = evicted.into_record();
            }
        }
        read_record_into(
            &mut self.pager,
            graph.partition_ptrs[pid as usize],
            &mut record,
        )?;
        let fetched = Partition::decode(record, graph.params.levels.len(), |u| {
            graph.partition_of.get(u as usize) == Some(&pid)
        })?;
        self.buffer.insert(pid, fetched);
        self.buffer_order.push_back(pid);
        Ok(pid)
    }
}

/// The page table sends `v` to partition `pid`, which does not hold it.
fn missing(v: u32, pid: u32) -> IndexError {
    IndexError::Corrupt(format!("vertex {v} missing from partition {pid}"))
}

/// Tag of the partition record layout, the first field of the metadata
/// footer: `RGP2`, the slot-table layout of [`crate::partition`]. The
/// length-prefixed layout it replaced had no tag; its footers start with
/// the partition depth, so they fail the check too.
const RECORD_FORMAT: u32 = u32::from_le_bytes(*b"RGP2");

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
        68 + 4 * partition_of.len() + 12 * partition_ptrs.len() + 12 * timeline_index.len(),
    );
    w.put_u32(RECORD_FORMAT);
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
    let format = r.get_u32()?;
    if format != RECORD_FORMAT {
        return Err(corrupt(format!(
            "partition record format {format:#010x}, this build reads {RECORD_FORMAT:#010x}"
        )));
    }
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

    fn interval(&mut self, v: u32) -> TimeInterval {
        let pid = self.fetch_holder(v).expect(RESTREAM_IO);
        self.buffer[&pid]
            .interval(v)
            .ok_or_else(|| missing(v, pid))
            .expect(RESTREAM_IO)
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

    fn node_into(
        &mut self,
        v: u32,
        members: &mut Vec<u32>,
        fwd: &mut Vec<u32>,
        rev: &mut Vec<u32>,
    ) -> TimeInterval {
        let vd = self.vertex(v).expect(RESTREAM_IO);
        for (out, list) in [(members, vd.members()), (fwd, vd.fwd()), (rev, vd.rev())] {
            out.clear();
            out.extend_from_slice(list);
        }
        vd.interval()
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
        let pid = self.fetch_holder(v)?;
        self.buffer[&pid]
            .vertex(v, &mut self.scratch)
            .ok_or_else(|| missing(v, pid))
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
        let (mut answer, stats) =
            self.accounted(|cx| crate::traverse::answer(cx, request, self.name()))?;
        answer.stats = stats;
        Ok(answer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use reach_contact::{Oracle, DEFAULT_LEVELS};
    use reach_storage::{read_record, FileDevice};

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
    fn graph_without_long_edge_levels_matches_oracle() {
        let (dn, _, oracle) = random_world(3, 6, 70, 0.04);
        let mr = MultiRes::build(&dn, &[]);
        let rg = ReachGraph::build(
            &dn,
            &mr,
            GraphParams {
                levels: Vec::new(),
                ..params(256)
            },
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(0x0DD);
        for _ in 0..40 {
            let (s, d) = (rng.gen_range(0..6u32), rng.gen_range(0..6u32));
            let a = rng.gen_range(0..70);
            let b = rng.gen_range(a..70);
            let q = Query::new(ObjectId(s), ObjectId(d), TimeInterval::new(a, b));
            let got = rg.evaluate_with(&q, TraversalKind::BmBfs).unwrap();
            assert_eq!(got.reachable(), oracle.evaluate(&q).reachable, "{q}");
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
        // A one-partition buffer evicts on nearly every step, so fetches
        // read into evicted partitions' record buffers of other sizes.
        for partition_cache in [1, 8] {
            let rg = ReachGraph::build(
                &dn,
                &mr,
                GraphParams {
                    partition_cache,
                    ..params(128)
                },
            )
            .unwrap();
            assert!(rg.num_partitions() > 2);
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

    /// The little-endian `u32` at `at` of `bytes`.
    fn u32_at(bytes: &[u8], at: usize) -> u32 {
        u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
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
        let corrupt = |bytes: &[u8]| matches!(decode(bytes), Err(IndexError::Corrupt(_)));
        decode(&bytes).unwrap();
        // Header `[count: u32][w: u8]`, then `[id: u32][body: u32]` slots.
        let (count, width) = (u32_at(&bytes, 0) as usize, usize::from(bytes[4]));
        assert!(count > 1, "a multi-vertex partition");
        for cut in 0..bytes.len() {
            assert!(corrupt(&bytes[..cut]), "prefix of {cut} bytes decoded");
        }
        assert!(bytes.len() < 1 << 16);
        for slot in (5..5 + 8 * count).step_by(8) {
            // A high bit flipped in an id names a vertex out of order or
            // placed elsewhere; in a body offset, a body elsewhere.
            for at in [slot, slot + 4] {
                for bit in 16..32 {
                    let mut flipped = bytes.clone();
                    flipped[at + bit / 8] ^= 1 << (bit % 8);
                    assert!(
                        corrupt(&flipped),
                        "byte {at} with bit {bit} flipped decoded"
                    );
                }
            }
            let body = u32_at(&bytes, slot + 4) as usize;
            let (start, end) = (u32_at(&bytes, body), u32_at(&bytes, body + 4));
            let mut backwards = bytes.clone();
            backwards[body..body + 4].copy_from_slice(&(end + 1).to_le_bytes());
            assert!(corrupt(&backwards), "interval [{}, {end}] decoded", end + 1);
            assert!(start <= end);
            // Any list end raised past the vertex's last end either
            // decreases into the next end or runs the last list into the
            // next body.
            let ends = body + 8;
            let last = ends + (2 + levels) * width;
            let mut total = [0u8; 4];
            total[..width].copy_from_slice(&bytes[last..last + width]);
            let beyond = (u32::from_le_bytes(total) + 1).to_le_bytes();
            assert!(width == 4 || beyond[width] == 0, "the raised end fits");
            for list in 0..3 + levels {
                let at = ends + list * width;
                let mut raised = bytes.clone();
                raised[at..at + width].copy_from_slice(&beyond[..width]);
                assert!(
                    corrupt(&raised),
                    "list {list} end of the body at {body} raised"
                );
            }
        }
    }

    #[test]
    fn member_ids_outside_the_universe_are_corrupt() {
        let (dn, mr, _) = random_world(12, 6, 80, 0.06);
        let mut rg = ReachGraph::build(&dn, &mr, params(256)).unwrap();
        let lists = 3 + rg.params.levels.len();
        // A partition whose first vertex's first member lies on one page:
        // record byte `p` sits `ptr.offset + 4 + p` bytes (past the storage
        // length prefix) into the record's first page.
        let (page, at, v) = (0..rg.num_partitions() as usize)
            .find_map(|pid| {
                let ptr = rg.partition_ptrs[pid];
                let bytes = read_record(&mut rg.device.cold_pager(0), ptr).unwrap();
                let (v, body) = (u32_at(&bytes, 5), u32_at(&bytes, 9) as usize);
                let member = body + 8 + lists * usize::from(bytes[4]);
                assert_eq!(u32_at(&bytes, body), dn.node(v).interval.start);
                assert_eq!(u32_at(&bytes, member), dn.node(v).members[0].0);
                let pos = ptr.offset as usize + 4 + member;
                (pos % 256 + 4 <= 256).then_some((ptr.page + (pos / 256) as u64, pos % 256, v))
            })
            .expect("a first member on one page");
        let mut page_bytes = vec![0u8; 256];
        rg.device_mut()
            .read_page_into(page, &mut page_bytes)
            .unwrap();
        let node = dn.node(v);
        assert_eq!(u32_at(&page_bytes, at), node.members[0].0);
        // The member list still decodes; it now names object 6 of 6.
        page_bytes[at..at + 4].copy_from_slice(&6u32.to_le_bytes());
        rg.device_mut().write_page(page, &page_bytes).unwrap();
        let seed = (node.members[0], node.interval.start);
        let window = TimeInterval::new(node.interval.start, 79);
        assert!(matches!(
            rg.reachable_set_from(&[seed], window),
            Err(IndexError::Corrupt(_))
        ));
        // Point traversals key their maps by member id and must not panic
        // either, whatever they answer.
        for kind in [TraversalKind::BBfs, TraversalKind::BmBfs] {
            for d in 0..6 {
                let q = Query::new(seed.0, ObjectId(d), window);
                let _ = rg.evaluate_with(&q, kind);
            }
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
            let (mut m, mut f, mut r) = (vec![9], vec![9], vec![9]);
            let interval = rg.node_into(v, &mut m, &mut f, &mut r);
            assert_eq!(interval, dn.node(v).interval, "node_into interval of {v}");
            assert_eq!(
                (m, f.as_slice(), r.as_slice()),
                (expect, dn.fwd(v), dn.rev(v))
            );
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

    #[test]
    fn footers_of_another_record_format_fail_to_open() {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "streach-diskgraph-format-{}.pages",
            std::process::id()
        ));
        let (dn, mr, _) = random_world(4, 6, 60, 0.05);
        let dev = FileDevice::create(&path, 256).unwrap();
        ReachGraph::build_on(Box::new(dev), &dn, &mr, params(256)).unwrap();
        let payload = {
            let dev = FileDevice::open(&path, 256).unwrap();
            meta::read_footer(&mut Pager::new(Box::new(dev), 0)).unwrap()
        };
        assert_eq!(&payload[..4], b"RGP2");
        let mut old_tag = payload.clone();
        old_tag[..4].copy_from_slice(b"RGP1");
        // The length-prefixed layout wrote its footers without a tag.
        let untagged = payload[4..].to_vec();
        // Each footer is appended and becomes the device's last; the
        // original goes last, so the patching is shown to reopen.
        for (footer, opens) in [(old_tag, false), (untagged, false), (payload, true)] {
            let mut dev = FileDevice::open(&path, 256).unwrap();
            meta::write_footer(&mut dev, &footer).unwrap();
            drop(dev);
            let reopened = ReachGraph::open(Box::new(FileDevice::open(&path, 256).unwrap()));
            match reopened {
                Ok(rg) => {
                    assert!(opens, "a footer tagged {:?} opened", &footer[..4]);
                    assert_eq!(rg.num_nodes(), dn.num_nodes());
                }
                Err(e) => assert!(
                    !opens && matches!(e, IndexError::Corrupt(_)),
                    "footer tagged {:?}: {e}",
                    &footer[..4]
                ),
            }
        }
        let _ = std::fs::remove_file(&path);
    }
}
