//! GRAIL — scalable graph reachability via randomized interval labeling
//! (Yıldırım, Chaoji & Zaki, PVLDB 2010; the paper's baseline in §6.4).
//!
//! Each of `d` rounds performs a random-order depth-first traversal of the
//! DAG and assigns every vertex the interval `[min-rank of its subtree,
//! own post-order rank]`. Containment of all `d` intervals is necessary for
//! reachability; queries run a DFS pruned by label containment
//! ("exceptions" are resolved by search, so GRAIL degrades toward plain DFS
//! when source and destination are actually reachable — exactly the paper's
//! observation).
//!
//! Applied to the contact-network DAG `DN`: the query `o_i ~Tp~> o_j` maps
//! to vertex reachability from the component of `o_i(t1)` to the component
//! of `o_j(t2)`; every DN path is time-respecting by construction, so no
//! extra time filter is needed.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use reach_contact::{DnAccess, DnGraph};
use reach_core::{
    Answer, IndexError, ObjectId, Query, QueryKind, QueryOutcome, QueryResult, QueryStats,
    ReachIndex, ReachRequest, Time, TimeInterval,
};
use reach_graph::{HnSource, Vertex};
use reach_storage::{
    read_record, BlockDevice, ByteReader, ByteWriter, IoStats, Pager, RecordPtr, RecordWriter,
    SharedDevice, SimDevice, TimelineRegion,
};
use std::time::Instant;

/// The randomized interval labels of one DAG.
#[derive(Clone, Debug)]
pub struct GrailLabels {
    /// Number of label dimensions `d`.
    pub d: usize,
    /// Flattened `(min, rank)` pairs: entry `v * d + i`.
    labels: Vec<(u32, u32)>,
}

impl GrailLabels {
    /// Builds `d` randomized interval labelings of `dn` (paper's GRAIL uses
    /// a small constant `d`; we default to 5 in the experiments).
    ///
    /// Generic over [`DnAccess`], so labels build identically from a
    /// resident [`DnGraph`] and a spill-backed
    /// [`StreamedDn`](reach_contact::StreamedDn): adjacency is fetched
    /// per node and the DFS frees each node's child list when it leaves the
    /// stack, so resident scratch is `O(stack depth)` lists plus the labels
    /// themselves (which *are* the index being built).
    pub fn build<D: DnAccess>(mut dn: D, d: usize, seed: u64) -> Self {
        assert!(d >= 1, "at least one labeling required");
        let n = dn.num_nodes();
        let mut labels = vec![(0u32, 0u32); n * d];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut order: Vec<u32> = (0..n as u32).collect();
        let mut rank = vec![0u32; n];
        let mut visited = vec![false; n];
        let mut stack: Vec<(u32, usize)> = Vec::new();
        let mut children_buf: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut fwd_buf: Vec<u32> = Vec::new();
        for i in 0..d {
            // Random root order and random child order per round.
            order.shuffle(&mut rng);
            visited.iter_mut().for_each(|v| *v = false);
            let mut next_rank = 1u32;
            for &root in &order {
                if visited[root as usize] {
                    continue;
                }
                // Iterative post-order DFS with per-node shuffled children.
                visited[root as usize] = true;
                dn.fwd_into(root, &mut children_buf[root as usize]);
                children_buf[root as usize].shuffle(&mut rng);
                stack.push((root, 0));
                while let Some(&mut (v, ref mut ci)) = stack.last_mut() {
                    let kids = &children_buf[v as usize];
                    if *ci < kids.len() {
                        let c = kids[*ci];
                        *ci += 1;
                        if !visited[c as usize] {
                            visited[c as usize] = true;
                            dn.fwd_into(c, &mut children_buf[c as usize]);
                            children_buf[c as usize].shuffle(&mut rng);
                            stack.push((c, 0));
                        }
                    } else {
                        rank[v as usize] = next_rank;
                        next_rank += 1;
                        stack.pop();
                        // Off the stack for good this round: free its list.
                        children_buf[v as usize] = Vec::new();
                    }
                }
            }
            // min over subtree: children have larger ids (topological ids),
            // so a reverse-id sweep sees children before parents.
            for v in (0..n).rev() {
                let mut lo = rank[v];
                dn.fwd_into(v as u32, &mut fwd_buf);
                for &c in &fwd_buf {
                    lo = lo.min(labels[c as usize * d + i].0);
                }
                labels[v * d + i] = (lo, rank[v]);
            }
        }
        Self { d, labels }
    }

    /// The `i`-th interval of vertex `v`.
    #[inline]
    pub fn label(&self, v: u32, i: usize) -> (u32, u32) {
        self.labels[v as usize * self.d + i]
    }

    /// Whether `u`'s labels contain `v`'s (necessary condition for
    /// `u ⇝ v`).
    #[inline]
    pub fn may_reach(&self, u: u32, v: u32) -> bool {
        for i in 0..self.d {
            let (ulo, uhi) = self.label(u, i);
            let (vlo, vhi) = self.label(v, i);
            if vlo < ulo || vhi > uhi {
                return false;
            }
        }
        true
    }
}

/// Memory-resident GRAIL over a DN.
pub struct GrailMem<'a> {
    dn: &'a DnGraph,
    labels: GrailLabels,
}

impl<'a> GrailMem<'a> {
    /// Builds labels and wraps the graph.
    pub fn new(dn: &'a DnGraph, d: usize, seed: u64) -> Self {
        Self {
            dn,
            labels: GrailLabels::build(dn, d, seed),
        }
    }

    /// The labels (for inspection/tests).
    pub fn labels(&self) -> &GrailLabels {
        &self.labels
    }

    /// Label-pruned DFS from `u` to `v`; returns (reachable, vertices
    /// visited).
    pub fn reach(&self, u: u32, v: u32) -> (bool, u64) {
        let mut visited = std::collections::HashSet::new();
        let mut stack = vec![u];
        let mut count = 0u64;
        while let Some(x) = stack.pop() {
            if !visited.insert(x) {
                continue;
            }
            count += 1;
            if x == v {
                return (true, count);
            }
            if !self.labels.may_reach(x, v) {
                continue; // definite non-reachability: prune the subtree
            }
            for &c in self.dn.fwd(x) {
                if !visited.contains(&c) {
                    stack.push(c);
                }
            }
        }
        (false, count)
    }

    /// Evaluates a contact-network reachability query.
    pub fn evaluate_query(&self, q: &Query) -> Result<QueryResult, IndexError> {
        let started = Instant::now();
        let horizon = self.dn.horizon();
        if q.source.index() >= self.dn.num_objects() {
            return Err(IndexError::UnknownObject(q.source));
        }
        if q.dest.index() >= self.dn.num_objects() {
            return Err(IndexError::UnknownObject(q.dest));
        }
        if q.interval.start >= horizon {
            return Err(IndexError::IntervalOutOfRange {
                requested: q.interval,
                horizon,
            });
        }
        if q.source == q.dest {
            return Ok(QueryResult {
                outcome: QueryOutcome::reachable_at(q.interval.start),
                stats: QueryStats {
                    cpu: started.elapsed(),
                    ..Default::default()
                },
            });
        }
        let t2 = q.interval.end.min(horizon - 1);
        let u = self.dn.node_of(q.source, q.interval.start).0;
        let v = self.dn.node_of(q.dest, t2).0;
        let (reachable, visited) = self.reach(u, v);
        Ok(QueryResult {
            outcome: if reachable {
                QueryOutcome::reachable()
            } else {
                QueryOutcome::UNREACHABLE
            },
            stats: QueryStats {
                visited,
                cpu: started.elapsed(),
                ..Default::default()
            },
        })
    }
}

impl ReachIndex for GrailMem<'_> {
    fn name(&self) -> &'static str {
        "GRAIL(mem)"
    }

    fn evaluate(&self, query: &Query) -> Result<QueryResult, IndexError> {
        self.evaluate_query(query)
    }
}

/// Decoded disk vertex: DN1 out-edges plus the `d` interval labels.
type DiskVertex = (Vec<u32>, Vec<(u32, u32)>);

/// Disk-adopted GRAIL (paper §6.4, Table 5b): vertices placed *in generation
/// order* — no locality-aware partitioning — each carrying its labels and
/// DN1 out-edges; queries run the same pruned DFS fetching vertices through
/// a pager. The index is an immutable image: every query opens its own
/// cold pager on the device hub, so one image serves many threads.
pub struct GrailDisk {
    device: SharedDevice,
    /// Record address per vertex.
    node_ptrs: Vec<RecordPtr>,
    /// The `Ht` lookup region (shared layout with ReachGraph).
    timeline: TimelineRegion,
    horizon: Time,
    num_objects: usize,
    cache_pages: usize,
}

impl GrailDisk {
    /// Serializes `dn` + labels onto a fresh simulated device.
    pub fn build(
        dn: &DnGraph,
        d: usize,
        seed: u64,
        page_size: usize,
        cache_pages: usize,
    ) -> Result<Self, IndexError> {
        let device = SimDevice::new(page_size);
        Self::build_on(Box::new(device), dn, d, seed, cache_pages)
    }

    /// Serializes `dn` + labels onto any block device. A [`SharedDevice`]
    /// handle joins its hub (and the hub's page cache, if any).
    ///
    /// Generic over [`DnAccess`] like `ReachGraph::build_on`: a spill-backed
    /// `StreamedDn` builds the identical byte layout under a memory budget.
    pub fn build_on<D: DnAccess>(
        mut device: Box<dyn BlockDevice>,
        mut dn: D,
        d: usize,
        seed: u64,
        cache_pages: usize,
    ) -> Result<Self, IndexError> {
        let labels = GrailLabels::build(&mut dn, d, seed);
        let disk = device.as_mut();
        let num_objects = dn.num_objects();
        let horizon = dn.horizon();
        let num_nodes = dn.num_nodes();

        // Timeline region (identical layout to ReachGraph's, via the shared
        // reach_storage::TimelineRegion).
        let timeline_total = dn.timeline_total();
        let timeline =
            TimelineRegion::build_streamed(disk, num_objects, timeline_total, |o, out| {
                dn.timeline_into(ObjectId(o), out)
            })?;

        // Vertices in generation (id) order, packed — GRAIL has no notion of
        // partitioned placement, which is exactly its disk weakness.
        let mut writer = RecordWriter::new(disk)?;
        let mut node_ptrs = Vec::with_capacity(num_nodes);
        let mut fwd_buf: Vec<u32> = Vec::new();
        for v in 0..num_nodes as u32 {
            let mut w = ByteWriter::new();
            dn.fwd_into(v, &mut fwd_buf);
            w.put_u32_slice(&fwd_buf);
            w.put_u8(d as u8);
            for i in 0..d {
                let (lo, hi) = labels.label(v, i);
                w.put_u32(lo);
                w.put_u32(hi);
            }
            node_ptrs.push(writer.append(disk, w.as_bytes())?);
        }
        writer.finish(disk)?;
        disk.reset_stats();
        Ok(Self {
            device: SharedDevice::share(device),
            node_ptrs,
            timeline,
            horizon,
            num_objects,
            cache_pages,
        })
    }

    /// The device hub the pages live behind.
    pub fn hub(&self) -> &SharedDevice {
        &self.device
    }

    /// The underlying block device (diagnostics and equivalence testing).
    pub fn device_mut(&mut self) -> &mut dyn BlockDevice {
        &mut self.device
    }

    /// A cold pager for one query: a fresh device handle (zeroed counters,
    /// no head position) and an empty `cache_pages` buffer pool.
    fn open(&self) -> Pager {
        self.device.cold_pager(self.cache_pages)
    }

    /// Number of DAG vertices on disk.
    pub fn num_nodes(&self) -> usize {
        self.node_ptrs.len()
    }

    /// Reconstructs every vertex's validity interval and sorted member set
    /// from the timeline region alone.
    ///
    /// GRAIL's disk records deliberately carry nothing but edges and labels
    /// (that *is* the baseline's weakness, §6.4) — but the `Ht` timeline
    /// region is the member relation transposed: object `o`'s run
    /// `(start, v)` says `o ∈ v` over `[start, next_start - 1]`. One
    /// sequential scan of the region inverts it. The cost — `O(|O| + Σ
    /// timelines)` pages, mostly sequential — is charged to the device like
    /// any other read; callers needing it per query pay GRAIL's layout
    /// price honestly.
    fn reconstruct_components(
        &self,
        pager: &mut Pager,
    ) -> Result<(Vec<TimeInterval>, Vec<Vec<u32>>), IndexError> {
        let n = self.node_ptrs.len();
        let mut intervals: Vec<Option<TimeInterval>> = vec![None; n];
        let mut members: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut tl: Vec<(Time, u32)> = Vec::new();
        for o in 0..self.num_objects as u32 {
            self.timeline.timeline_into(pager, ObjectId(o), &mut tl)?;
            for (i, &(start, v)) in tl.iter().enumerate() {
                let end = match tl.get(i + 1) {
                    Some(&(next_start, _)) if next_start > 0 => next_start - 1,
                    Some(_) => {
                        return Err(IndexError::Corrupt(format!(
                            "timeline of o{o} has a non-initial run starting at tick 0"
                        )))
                    }
                    None => self.horizon - 1,
                };
                let slot = intervals.get_mut(v as usize).ok_or_else(|| {
                    IndexError::Corrupt(format!("timeline of o{o} references vertex {v}"))
                })?;
                let iv = TimeInterval::try_new(start, end).ok_or_else(|| {
                    IndexError::Corrupt(format!("timeline of o{o} has runs out of order"))
                })?;
                if slot.is_some_and(|have| have != iv) {
                    return Err(IndexError::Corrupt(format!(
                        "vertex {v} has inconsistent member intervals"
                    )));
                }
                *slot = Some(iv);
                members[v as usize].push(o);
            }
        }
        let intervals = intervals
            .into_iter()
            .enumerate()
            .map(|(v, iv)| {
                iv.ok_or_else(|| IndexError::Corrupt(format!("vertex {v} has no members")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok((intervals, members))
    }

    /// Every object reachable from `source` during `interval`, with its
    /// exact earliest hold tick — the frontier-extraction primitive live
    /// indexes use to continue a query past a sealed base's horizon
    /// ("frontier at a cut time": pass `[t1, cut - 1]`).
    ///
    /// Semantics are *shared* with `ReachGraph::reachable_set` — both run
    /// [`reach_graph::reachable_set`], so the earliest-arrival relaxation
    /// rules cannot drift apart. The cost is not shared: GRAIL stores no
    /// member sets, so the member relation is first reconstructed by
    /// inverting the timeline region (one mostly-sequential scan) and the
    /// expansion then fetches the per-vertex edge records through an
    /// [`HnSource`] view over the reconstruction.
    pub fn reachable_set(
        &self,
        source: ObjectId,
        interval: reach_core::TimeInterval,
    ) -> Result<(Vec<(ObjectId, Time)>, QueryStats), IndexError> {
        self.reachable_set_from(&[(source, interval.start)], interval)
    }

    /// Frontier-seeded variant of [`GrailDisk::reachable_set`]: expands
    /// from a whole earliest-arrival frontier (the sealed leg of a
    /// cross-shard handoff — see `reach_core::FrontierHandoff`). Rides the
    /// same `GrailHnView` as the single-source path, so the relaxation
    /// semantics are shared with ReachGraph and cannot drift apart.
    pub fn reachable_set_from(
        &self,
        seeds: &[(ObjectId, Time)],
        interval: reach_core::TimeInterval,
    ) -> Result<(Vec<(ObjectId, Time)>, QueryStats), IndexError> {
        for &(o, _) in seeds {
            if o.index() >= self.num_objects {
                return Err(IndexError::UnknownObject(o));
            }
        }
        if interval.start >= self.horizon {
            return Err(IndexError::IntervalOutOfRange {
                requested: interval,
                horizon: self.horizon,
            });
        }
        self.accounted(false, |view| {
            reach_graph::reachable_set_seeded(view, seeds, interval)
        })
    }

    /// Derives the DN₁ *reverse* adjacency from a reconstruction: an
    /// object's consecutive timeline runs are exactly the DN₁ edges it
    /// witnesses, so transposing the member relation again (this time in
    /// memory — the reconstruction already paid the IO) yields every
    /// predecessor list. GRAIL's disk records store no reverse edges; the
    /// reverse top-k walk needs them.
    fn derive_rev(
        intervals: &[TimeInterval],
        members: &[Vec<u32>],
        num_objects: usize,
    ) -> Vec<Vec<u32>> {
        let mut per_obj: Vec<Vec<(Time, u32)>> = vec![Vec::new(); num_objects];
        for (v, ms) in members.iter().enumerate() {
            for &o in ms {
                per_obj[o as usize].push((intervals[v].start, v as u32));
            }
        }
        let mut rev: Vec<Vec<u32>> = vec![Vec::new(); intervals.len()];
        for chain in &mut per_obj {
            chain.sort_unstable();
            for w in chain.windows(2) {
                let (u, v) = (w[0].1, w[1].1);
                if intervals[v as usize].start == intervals[u as usize].end + 1 {
                    rev[v as usize].push(u);
                }
            }
        }
        for r in &mut rev {
            r.sort_unstable();
            r.dedup();
        }
        rev
    }

    /// Runs one traversal through a reconstructed [`GrailHnView`] on a
    /// cold pager, converting its counters into [`QueryStats`]. `with_rev`
    /// additionally derives the reverse adjacency (reverse top-k needs it).
    fn accounted<T>(
        &self,
        with_rev: bool,
        run: impl FnOnce(&mut GrailHnView<'_>) -> Result<(T, reach_graph::TraversalStats), IndexError>,
    ) -> Result<(T, QueryStats), IndexError> {
        let started = Instant::now();
        let mut pager = self.open();
        let (intervals, members) = self.reconstruct_components(&mut pager)?;
        let rev = with_rev.then(|| Self::derive_rev(&intervals, &members, self.num_objects));
        let mut view = GrailHnView {
            disk: self,
            pager,
            intervals: &intervals,
            members: &members,
            rev: rev.as_deref(),
            fwd: Vec::new(),
        };
        let (value, tstats) = run(&mut view)?;
        let io = view.pager.stats();
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

    /// One decay-weighted frontier leg (the weighted sibling of
    /// [`GrailDisk::reachable_set_from`]); see
    /// `reach_graph::DecayLeg` and `reach_core::WeightedFrontier`.
    pub fn decay_states_from(
        &self,
        seeds: &[reach_core::frontier::WeightedSeed],
        carry: &[reach_core::frontier::CarryGroup],
        interval: reach_core::TimeInterval,
        origin: Time,
        model: &reach_core::DecayModel,
        floor: f64,
    ) -> Result<(reach_graph::DecayLeg, QueryStats), IndexError> {
        self.accounted(false, |view| {
            reach_graph::decay_states_seeded(view, seeds, carry, interval, origin, model, floor)
        })
    }

    /// Point decay query (see [`reach_graph::decay_reachable`]): the
    /// member relation is reconstructed by inverting the timeline region,
    /// then the shared weighted expansion runs over the view — GRAIL pays
    /// its layout price on decay queries exactly as it does on frontier
    /// extraction.
    pub fn decay_reachable(
        &self,
        source: ObjectId,
        dest: ObjectId,
        interval: reach_core::TimeInterval,
        model: &reach_core::DecayModel,
        theta: f64,
    ) -> Result<(Option<(f64, Time)>, QueryStats), IndexError> {
        self.accounted(false, |view| {
            reach_graph::decay_reachable(view, source, dest, interval, model, theta)
        })
    }

    /// Top-k ranked decay query in either direction. The reverse walk
    /// additionally derives DN₁ predecessor lists from the reconstruction
    /// (GRAIL stores none on disk).
    pub fn top_k(
        &self,
        anchor: ObjectId,
        interval: reach_core::TimeInterval,
        k: usize,
        model: &reach_core::DecayModel,
        direction: reach_core::RankDirection,
    ) -> Result<(Vec<reach_core::Ranked>, QueryStats), IndexError> {
        let reaching = direction == reach_core::RankDirection::Reaching;
        self.accounted(reaching, |view| match direction {
            reach_core::RankDirection::Reachable => {
                reach_graph::top_k_reachable(view, anchor, interval, k, model)
            }
            reach_core::RankDirection::Reaching => {
                reach_graph::top_k_reaching(view, anchor, interval, k, model)
            }
        })
    }

    /// The component-chain contact set of the indexed DAG (the
    /// [`reach_contact::chain_contacts`] extraction, reconstructed from
    /// disk) — what live compaction merges with a delta when the sealed
    /// base is a disk GRAIL — plus the device IO the reconstruction read.
    pub fn chain_contacts(&self) -> Result<(Vec<reach_core::Contact>, IoStats), IndexError> {
        let mut pager = self.open();
        let (intervals, members) = self.reconstruct_components(&mut pager)?;
        let mut out = Vec::new();
        for (v, ms) in members.iter().enumerate() {
            for w in ms.windows(2) {
                out.push(reach_core::Contact::new(
                    ObjectId(w[0]),
                    ObjectId(w[1]),
                    intervals[v],
                ));
            }
        }
        Ok((out, pager.stats()))
    }

    fn read_vertex(&self, pager: &mut Pager, v: u32) -> Result<DiskVertex, IndexError> {
        let bytes = read_record(pager, self.node_ptrs[v as usize])?;
        let mut r = ByteReader::new(&bytes);
        let fwd = r.get_u32_vec()?;
        let d = r.get_u8()? as usize;
        let mut labels = Vec::with_capacity(d);
        for _ in 0..d {
            labels.push((r.get_u32()?, r.get_u32()?));
        }
        Ok((fwd, labels))
    }

    /// Evaluates a query on a cold pager, counting IO.
    pub fn evaluate_query(&self, q: &Query) -> Result<QueryResult, IndexError> {
        let started = Instant::now();
        let mut pager = self.open();
        let mut stats = QueryStats::default();
        let outcome = self.run(&mut pager, q, &mut stats)?;
        let io = pager.stats();
        stats.random_ios = io.random_reads;
        stats.seq_ios = io.seq_reads;
        stats.cpu = started.elapsed();
        Ok(QueryResult { outcome, stats })
    }

    fn run(
        &self,
        pager: &mut Pager,
        q: &Query,
        stats: &mut QueryStats,
    ) -> Result<QueryOutcome, IndexError> {
        if q.source.index() >= self.num_objects {
            return Err(IndexError::UnknownObject(q.source));
        }
        if q.dest.index() >= self.num_objects {
            return Err(IndexError::UnknownObject(q.dest));
        }
        if q.interval.start >= self.horizon {
            return Err(IndexError::IntervalOutOfRange {
                requested: q.interval,
                horizon: self.horizon,
            });
        }
        if q.source == q.dest {
            return Ok(QueryOutcome::reachable_at(q.interval.start));
        }
        let t2 = q.interval.end.min(self.horizon - 1);
        let u = self.timeline.node_of(pager, q.source, q.interval.start)?;
        let v = self.timeline.node_of(pager, q.dest, t2)?;
        let (_, target_labels) = self.read_vertex(pager, v)?;
        let contained = |labels: &[(u32, u32)]| -> bool {
            labels
                .iter()
                .zip(&target_labels)
                .all(|(&(ulo, uhi), &(vlo, vhi))| ulo <= vlo && vhi <= uhi)
        };
        let mut visited = std::collections::HashSet::new();
        let mut stack = vec![u];
        while let Some(x) = stack.pop() {
            if !visited.insert(x) {
                continue;
            }
            stats.visited += 1;
            if x == v {
                return Ok(QueryOutcome::reachable());
            }
            let (fwd, labels) = self.read_vertex(pager, x)?;
            if !contained(&labels) {
                continue;
            }
            for c in fwd {
                stats.examined += 1;
                if !visited.contains(&c) {
                    stack.push(c);
                }
            }
        }
        Ok(QueryOutcome::UNREACHABLE)
    }
}

/// One query's [`HnSource`] over a disk GRAIL: its cold pager plus the
/// reconstructed component data — exactly the surface
/// [`reach_graph::reachable_set`] traverses (members, validity interval,
/// DN1 out-edges, `Ht` lookup), so the frontier extraction runs the same
/// code as ReachGraph's. GRAIL has no reverse
/// edges or long-edge bundles on disk; forward-only walks get them empty
/// (they never look), while the reverse top-k walk passes predecessor
/// lists derived in memory from the reconstruction (`rev`).
struct GrailHnView<'a> {
    disk: &'a GrailDisk,
    pager: Pager,
    intervals: &'a [TimeInterval],
    members: &'a [Vec<u32>],
    rev: Option<&'a [Vec<u32>]>,
    /// The last visited vertex's out-edges, as read from its record.
    fwd: Vec<u32>,
}

impl HnSource for GrailHnView<'_> {
    fn backing(&self) -> &'static str {
        "disk-grail"
    }

    fn levels(&self) -> &[Time] {
        &[]
    }

    fn horizon(&self) -> Time {
        self.disk.horizon
    }

    fn num_objects(&self) -> usize {
        self.disk.num_objects
    }

    fn vertex(&mut self, v: u32) -> Result<Vertex<'_>, IndexError> {
        (self.fwd, _) = self.disk.read_vertex(&mut self.pager, v)?;
        let interval = *self
            .intervals
            .get(v as usize)
            .ok_or_else(|| IndexError::Corrupt(format!("vertex {v} out of range")))?;
        Ok(Vertex::new(
            interval,
            &self.members[v as usize],
            &self.fwd,
            self.rev.map_or(&[], |r| &r[v as usize]),
        ))
    }

    fn node_of(&mut self, o: ObjectId, t: Time) -> Result<u32, IndexError> {
        self.disk.timeline.node_of(&mut self.pager, o, t)
    }
}

impl ReachIndex for GrailDisk {
    fn name(&self) -> &'static str {
        "GRAIL(disk)"
    }

    fn evaluate(&self, query: &Query) -> Result<QueryResult, IndexError> {
        self.evaluate_query(query)
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
    use rand::Rng;
    use reach_contact::Oracle;
    use reach_core::TimeInterval;

    fn random_world(seed: u64, n: usize, horizon: Time, density: f64) -> (DnGraph, Oracle) {
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
        let oracle = Oracle::from_events(n, script);
        (dn, oracle)
    }

    #[test]
    fn labels_necessary_condition_holds() {
        let (dn, _) = random_world(4, 6, 60, 0.05);
        let labels = GrailLabels::build(&dn, 4, 9);
        // For every true edge u→v, containment must hold (soundness of the
        // pruning direction).
        for u in 0..dn.num_nodes() as u32 {
            for &v in dn.fwd(u) {
                assert!(
                    labels.may_reach(u, v),
                    "edge {u}->{v} violates label containment"
                );
            }
        }
    }

    #[test]
    fn grail_mem_matches_oracle() {
        for seed in 0..6u64 {
            let (dn, oracle) = random_world(seed, 6, 60, 0.04);
            let grail = GrailMem::new(&dn, 3, seed ^ 0xF00D);
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..50 {
                let s = rng.gen_range(0..6u32);
                let d = rng.gen_range(0..6u32);
                let a = rng.gen_range(0..60);
                let b = rng.gen_range(a..60);
                let q = Query::new(ObjectId(s), ObjectId(d), TimeInterval::new(a, b));
                assert_eq!(
                    grail.evaluate_query(&q).unwrap().reachable(),
                    oracle.evaluate(&q).reachable,
                    "GRAIL(mem) mismatch on {q} (seed {seed})"
                );
            }
        }
    }

    #[test]
    fn grail_disk_matches_memory() {
        let (dn, oracle) = random_world(8, 6, 50, 0.05);
        let mem = GrailMem::new(&dn, 3, 5);
        let disk = GrailDisk::build(&dn, 3, 5, 256, 16).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..40 {
            let s = rng.gen_range(0..6u32);
            let d = rng.gen_range(0..6u32);
            let a = rng.gen_range(0..50);
            let b = rng.gen_range(a..50);
            let q = Query::new(ObjectId(s), ObjectId(d), TimeInterval::new(a, b));
            let m = mem.evaluate_query(&q).unwrap().reachable();
            let dk = disk.evaluate_query(&q).unwrap();
            assert_eq!(m, dk.reachable(), "disk/mem GRAIL disagree on {q}");
            assert_eq!(m, oracle.evaluate(&q).reachable, "GRAIL wrong on {q}");
        }
    }

    #[test]
    fn pruning_helps_on_unreachable_queries() {
        // Unreachable queries should be answered with far fewer visits than
        // the number of vertices, thanks to label containment pruning.
        let (dn, oracle) = random_world(2, 8, 120, 0.01);
        let grail = GrailMem::new(&dn, 4, 99);
        let mut pruned_visits = 0u64;
        let mut unreachable = 0u64;
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..60 {
            let s = rng.gen_range(0..8u32);
            let d = rng.gen_range(0..8u32);
            let q = Query::new(ObjectId(s), ObjectId(d), TimeInterval::new(0, 119));
            if s != d && !oracle.evaluate(&q).reachable {
                let r = grail.evaluate_query(&q).unwrap();
                pruned_visits += r.stats.visited;
                unreachable += 1;
            }
        }
        if unreachable > 0 {
            let avg = pruned_visits as f64 / unreachable as f64;
            assert!(
                avg < dn.num_nodes() as f64 * 0.8,
                "pruning ineffective: {avg} avg visits of {} nodes",
                dn.num_nodes()
            );
        }
    }

    #[test]
    fn disk_frontier_matches_oracle_arrivals() {
        for seed in 0..4u64 {
            let (dn, oracle) = random_world(seed ^ 0x51, 7, 50, 0.05);
            let disk = GrailDisk::build(&dn, 3, seed, 128, 8).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..12 {
                let s = rng.gen_range(0..7u32);
                let a = rng.gen_range(0..50);
                let b = rng.gen_range(a..50);
                let iv = TimeInterval::new(a, b);
                let (set, stats) = disk.reachable_set(ObjectId(s), iv).unwrap();
                let (_, when) = oracle.spread(ObjectId(s), iv, None);
                let expected: Vec<(ObjectId, Time)> = when
                    .iter()
                    .enumerate()
                    .filter_map(|(o, t)| t.map(|t| (ObjectId(o as u32), t)))
                    .collect();
                assert_eq!(set, expected, "frontier of o{s} over {iv} (seed {seed})");
                assert!(
                    stats.random_ios + stats.seq_ios > 0,
                    "reconstruction must cost IO"
                );
            }
        }
    }

    #[test]
    fn disk_chain_contacts_rebuild_the_indexed_dn() {
        let (dn, _) = random_world(23, 6, 60, 0.05);
        let disk = GrailDisk::build(&dn, 2, 7, 128, 8).unwrap();
        let (chains, io) = disk.chain_contacts().unwrap();
        assert!(io.total_reads() > 0, "reconstruction reads the device");
        // The reconstruction must agree with the in-memory extraction…
        let mut expected = reach_contact::chain_contacts(&dn);
        let mut got = chains.clone();
        let key = |c: &reach_core::Contact| (c.interval.start, c.a, c.b, c.interval.end);
        expected.sort_unstable_by_key(key);
        got.sort_unstable_by_key(key);
        assert_eq!(got, expected);
        // …and rebuild the identical DAG.
        let rebuilt = DnGraph::from_contacts(dn.num_objects(), dn.horizon(), &chains);
        assert_eq!(rebuilt.nodes(), dn.nodes());
        for v in 0..dn.num_nodes() as u32 {
            assert_eq!(rebuilt.fwd(v), dn.fwd(v));
        }
    }

    #[test]
    fn disk_queries_cost_io() {
        let (dn, _) = random_world(7, 6, 40, 0.06);
        let disk = GrailDisk::build(&dn, 2, 1, 128, 8).unwrap();
        let q = Query::new(ObjectId(0), ObjectId(5), TimeInterval::new(0, 39));
        let r = disk.evaluate_query(&q).unwrap();
        assert!(r.stats.random_ios + r.stats.seq_ios > 0);
    }
}
