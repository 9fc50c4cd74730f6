//! `HN` traversal algorithms (paper §5.2, Algorithm 2).
//!
//! All four strategies run against any [`HnSource`] (memory- or
//! disk-resident):
//!
//! * **E-DFS / E-BFS** — unidirectional search for a path from the source's
//!   vertex at `t1` to the destination's exact vertex at `t2`; no component
//!   membership checks, hence no early termination (the paper's naïve
//!   baselines).
//! * **B-BFS** — bidirectional search meeting at the interval midpoint,
//!   terminating as soon as an object is known to both sides with
//!   compatible times.
//! * **BM-BFS** — B-BFS plus multi-resolution long edges on the forward
//!   side: *"whenever possible the long edges with the largest weights are
//!   taken"*.
//!
//! Timestamped meeting check: the paper intersects the forward and backward
//! object sets; with run-merged nodes soundness requires comparing each
//! object's earliest hold time (forward) against its latest useful delivery
//! time (backward) — `ea(o) ≤ ld(o)`. Completeness at the midpoint split
//! follows from the transitivity property (5.2): on any witness path some
//! object holds the item at `mid`, is discovered forward with `ea ≤ mid` and
//! backward with `ld ≥ mid`.
//!
//! Storage note: the traversal's page traffic flows through
//! [`HnSource::node_of`] (timeline binary-search probes, each a zero-copy
//! `Pager::with_page` borrow of one page) and [`HnSource::vertex`]
//! (partition records, read whole through `read_record_into`, since a
//! record spanning pages cannot be borrowed from one pool slot). The disk
//! backing keeps each fetched record as a framing-checked
//! [`Partition`](crate::Partition), and `vertex` decodes just that
//! vertex's lists into the source's scratch buffer and returns a
//! [`Vertex`] view of them, so expanding a vertex costs a slot lookup and
//! one copy of its own lists — no allocation. Every source returns the
//! same view type; a view borrows its source, so each step reads what it
//! needs from the view before the next `vertex` or `node_of` call.

use crate::decay;
use crate::params::TraversalKind;
use crate::vertex::{HnSource, Vertex};
use reach_contact::launch_boundary;
use reach_core::{
    admit_object, admit_window, Answer, FxHashMap, IndexError, Query, QueryKind, QueryOutcome,
    QueryResult, QueryStats, RankDirection, ReachRequest, Time, TimeInterval,
};
use reach_storage::IoStats;
use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Work counters of one traversal.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct TraversalStats {
    /// Vertices fetched and expanded.
    pub visited: u64,
    /// Edge relaxations performed.
    pub examined: u64,
}

/// Evaluates `q` on `src` with the chosen strategy.
pub fn evaluate<S: HnSource>(
    src: &mut S,
    q: &Query,
    kind: TraversalKind,
) -> Result<(QueryOutcome, TraversalStats), IndexError> {
    let interval = q.admit(src.num_objects(), src.horizon())?;
    if q.source == q.dest {
        return Ok((
            QueryOutcome::reachable_at(interval.start),
            TraversalStats::default(),
        ));
    }
    match kind {
        TraversalKind::EDfs => unidirectional(src, q, interval, true),
        TraversalKind::EBfs => unidirectional(src, q, interval, false),
        TraversalKind::BBfs => bidirectional(src, q, interval, false),
        TraversalKind::BmBfs => bidirectional(src, q, interval, true),
    }
}

/// The one kind dispatch of every index that walks an [`HnSource`]:
/// `Reach` by BM-BFS, `Decay` by the weighted point walk, `TopK` in either
/// direction ([`crate::decay`]); any other kind is `Unsupported` by
/// `index`. Each walk runs the query's admission check. The answer's stats
/// are left unset, because the caller owns the device counters: it builds
/// them from the returned traversal counters with [`query_stats`].
pub fn answer<S: HnSource>(
    src: &mut S,
    request: &ReachRequest,
    index: &str,
) -> Result<(Answer, TraversalStats), IndexError> {
    let q = &request.query;
    let unset = QueryStats::default();
    Ok(match request.kind {
        QueryKind::Reach => {
            let (outcome, walk) = evaluate(src, q, TraversalKind::BmBfs)?;
            let result = QueryResult {
                outcome,
                stats: unset,
            };
            (result.into(), walk)
        }
        QueryKind::Decay { theta, model } => {
            let (hit, walk) =
                decay::decay_reachable(src, q.source, q.dest, q.interval, &model, theta)?;
            (Answer::decay(q.dest, hit, unset), walk)
        }
        QueryKind::TopK {
            k,
            model,
            direction,
        } => {
            let (ranking, walk) = match direction {
                RankDirection::Reachable => {
                    decay::top_k_reachable(src, q.source, q.interval, k, &model)?
                }
                RankDirection::Reaching => {
                    decay::top_k_reaching(src, q.source, q.interval, k, &model)?
                }
            };
            (Answer::ranked(ranking, unset), walk)
        }
        _ => return Err(request.unsupported(index)),
    })
}

/// The [`QueryStats`] of one `HN` walk: the device counters `io` of its
/// read context, the walk's own counters, and the time since `started`.
pub fn query_stats(io: IoStats, walk: TraversalStats, started: Instant) -> QueryStats {
    QueryStats {
        random_ios: io.random_reads,
        seq_ios: io.seq_reads,
        visited: walk.visited,
        examined: walk.examined,
        cpu: started.elapsed(),
    }
}

/// Batch primitive behind the paper's motivating scenarios (§1): every
/// object reachable from `source` during `interval`, with its exact earliest
/// hold tick. One forward traversal answers what would otherwise be
/// `|O| - 1` point queries.
///
/// The expansion runs on `DN_1` alone: exact earliest arrivals require
/// visiting every component generation anyway (long-edge jumps land whole
/// windows later and would report late arrivals for objects joined mid-
/// window), so the multi-resolution shortcuts buy nothing here.
pub fn reachable_set<S: HnSource>(
    src: &mut S,
    source: reach_core::ObjectId,
    interval: TimeInterval,
) -> Result<(Vec<(reach_core::ObjectId, Time)>, TraversalStats), IndexError> {
    reachable_set_seeded(src, &[(source, interval.start)], interval)
}

/// Multi-seed generalization of [`reachable_set`]: the earliest-arrival
/// expansion starts from a whole frontier instead of one source. Each seed
/// `(o, t)` holds the item from `max(t, interval.start)` on — a seed whose
/// arrival precedes the window "holds from the window start", exactly the
/// semantics the live delta applies to pre-watermark frontier seeds — and
/// seeds arriving after the (clamped) window end cannot contribute inside
/// it and are skipped. With a single seed `(source, interval.start)` this
/// is byte-for-byte the single-source expansion, so the sealed→delta and
/// shard→shard handoffs share one relaxation rule and cannot drift apart.
///
/// Rows come out strictly ascending by object id. A fetched vertex naming
/// a member outside the object universe is [`IndexError::Corrupt`].
pub fn reachable_set_seeded<S: HnSource>(
    src: &mut S,
    seeds: &[(reach_core::ObjectId, Time)],
    interval: TimeInterval,
) -> Result<(Vec<(reach_core::ObjectId, Time)>, TraversalStats), IndexError> {
    let mut stats = TraversalStats::default();
    for &(o, _) in seeds {
        admit_object(o, src.num_objects())?;
    }
    let interval = admit_window(interval, src.horizon())?;
    let (t1, t2) = (interval.start, interval.end);

    // Earliest hold tick per object, dense over the object universe;
    // `Time::MAX` marks an object not reached (every arrival is `≤ t2`).
    let num_objects = src.num_objects();
    let mut ea: Vec<Time> = vec![Time::MAX; num_objects];
    let mut best: FxHashMap<u32, Time> = FxHashMap::default();
    let mut heap: BinaryHeap<Reverse<(Time, u32)>> = BinaryHeap::new();
    for &(o, t) in seeds {
        let entry = t.max(t1);
        if entry > t2 {
            continue;
        }
        let v = src.node_of(o, entry)?;
        match best.entry(v) {
            Entry::Occupied(mut e) if *e.get() > entry => {
                e.insert(entry);
                heap.push(Reverse((entry, v)));
            }
            Entry::Vacant(e) => {
                e.insert(entry);
                heap.push(Reverse((entry, v)));
            }
            _ => {}
        }
    }
    while let Some(Reverse((a, v))) = heap.pop() {
        if best.get(&v).copied() != Some(a) {
            continue;
        }
        stats.visited += 1;
        let vd = src.vertex(v)?;
        for &m in vd.members() {
            let slot = ea.get_mut(m as usize).ok_or_else(|| {
                IndexError::Corrupt(format!(
                    "vertex {v} has member {m} outside {num_objects} objects"
                ))
            })?;
            *slot = (*slot).min(a);
        }
        let relax = |w: u32,
                     arr: Time,
                     best: &mut FxHashMap<u32, Time>,
                     heap: &mut BinaryHeap<Reverse<(Time, u32)>>,
                     stats: &mut TraversalStats| {
            stats.examined += 1;
            match best.entry(w) {
                Entry::Occupied(mut e) if *e.get() > arr => {
                    e.insert(arr);
                    heap.push(Reverse((arr, w)));
                }
                Entry::Vacant(e) => {
                    e.insert(arr);
                    heap.push(Reverse((arr, w)));
                }
                _ => {}
            }
        };
        if vd.interval().end < t2 {
            for &w in vd.fwd() {
                relax(w, vd.interval().end + 1, &mut best, &mut heap, &mut stats);
            }
        }
    }
    // Read in id order, so the rows come out ascending by object.
    let out = (0..)
        .zip(ea)
        .filter(|&(_, t)| t != Time::MAX)
        .map(|(o, t)| (reach_core::ObjectId(o), t))
        .collect();
    Ok((out, stats))
}

/// E-DFS / E-BFS: reach the destination's exact vertex.
fn unidirectional<S: HnSource>(
    src: &mut S,
    q: &Query,
    interval: TimeInterval,
    depth_first: bool,
) -> Result<(QueryOutcome, TraversalStats), IndexError> {
    let mut stats = TraversalStats::default();
    let (t1, t2) = (interval.start, interval.end);
    let v1 = src.node_of(q.source, t1)?;
    let v2 = src.node_of(q.dest, t2)?;
    let horizon = src.horizon();
    let levels: Vec<Time> = src.levels().to_vec();

    let mut best: FxHashMap<u32, Time> = FxHashMap::default();
    best.insert(v1, t1);
    // One container, two disciplines: LIFO for DFS, FIFO for BFS.
    let mut pending: std::collections::VecDeque<(u32, Time)> = std::collections::VecDeque::new();
    pending.push_back((v1, t1));
    while let Some((v, a)) = if depth_first {
        pending.pop_back()
    } else {
        pending.pop_front()
    } {
        if best.get(&v).copied() != Some(a) {
            continue; // superseded by an earlier arrival
        }
        if v == v2 {
            return Ok((QueryOutcome::reachable(), stats));
        }
        stats.visited += 1;
        let vd = src.vertex(v)?;
        let mut relax = |w: u32,
                         arr: Time,
                         pending: &mut std::collections::VecDeque<(u32, Time)>,
                         stats: &mut TraversalStats| {
            stats.examined += 1;
            match best.entry(w) {
                Entry::Occupied(mut e) if *e.get() > arr => {
                    e.insert(arr);
                    pending.push_back((w, arr));
                }
                Entry::Vacant(e) => {
                    e.insert(arr);
                    pending.push_back((w, arr));
                }
                _ => {}
            }
        };
        // Naïve expansion over the whole hypergraph: every valid long edge
        // at every resolution plus the DN1 edges.
        for (idx, &k) in levels.iter().enumerate() {
            if let Some(ta) = launch_boundary(vd.interval(), k, horizon) {
                if ta >= a && ta + k <= t2 {
                    for &w in vd.bundle(idx) {
                        relax(w, ta + k, &mut pending, &mut stats);
                    }
                }
            }
        }
        if vd.interval().end < t2 {
            for &w in vd.fwd() {
                relax(w, vd.interval().end + 1, &mut pending, &mut stats);
            }
        }
    }
    Ok((QueryOutcome::UNREACHABLE, stats))
}

/// B-BFS / BM-BFS: bidirectional, member-intersecting traversal.
fn bidirectional<S: HnSource>(
    src: &mut S,
    q: &Query,
    interval: TimeInterval,
    multires: bool,
) -> Result<(QueryOutcome, TraversalStats), IndexError> {
    let mut stats = TraversalStats::default();
    let (t1, t2) = (interval.start, interval.end);
    let mid = interval.midpoint();
    let horizon = src.horizon();
    let levels: Vec<Time> = src.levels().to_vec();

    let v1 = src.node_of(q.source, t1)?;
    let v2 = src.node_of(q.dest, t2)?;

    // Forward: earliest known hold time per object / arrival per vertex.
    let mut fwd_ea: FxHashMap<u32, Time> = FxHashMap::default();
    let mut fwd_best: FxHashMap<u32, Time> = FxHashMap::default();
    let mut fq: BinaryHeap<Reverse<(Time, u32)>> = BinaryHeap::new();
    fwd_best.insert(v1, t1);
    fq.push(Reverse((t1, v1)));

    // Backward: latest useful delivery time per object / latest presence per
    // vertex.
    let mut bwd_ld: FxHashMap<u32, Time> = FxHashMap::default();
    let mut bwd_best: FxHashMap<u32, Time> = FxHashMap::default();
    let mut bq: BinaryHeap<(Time, u32)> = BinaryHeap::new();
    bwd_best.insert(v2, t2);
    bq.push((t2, v2));

    loop {
        let mut progressed = false;
        // --- one forward step -------------------------------------------
        if let Some(Reverse((a, v))) = fq.pop() {
            progressed = true;
            if fwd_best.get(&v).copied() == Some(a) {
                stats.visited += 1;
                let vd = src.vertex(v)?;
                for &m in vd.members() {
                    let improved = match fwd_ea.entry(m) {
                        Entry::Occupied(mut e) if *e.get() > a => {
                            e.insert(a);
                            true
                        }
                        Entry::Vacant(e) => {
                            e.insert(a);
                            true
                        }
                        _ => false,
                    };
                    if improved {
                        if let Some(&ld) = bwd_ld.get(&m) {
                            if a <= ld {
                                return Ok((QueryOutcome::reachable(), stats));
                            }
                        }
                    }
                }
                expand_forward(
                    &vd,
                    a,
                    mid,
                    horizon,
                    &levels,
                    multires,
                    &mut fwd_best,
                    &mut fq,
                    &mut stats,
                );
            }
        }
        // --- one backward step -------------------------------------------
        if let Some((l, v)) = bq.pop() {
            progressed = true;
            if bwd_best.get(&v).copied() == Some(l) {
                stats.visited += 1;
                let vd = src.vertex(v)?;
                for &m in vd.members() {
                    let improved = match bwd_ld.entry(m) {
                        Entry::Occupied(mut e) if *e.get() < l => {
                            e.insert(l);
                            true
                        }
                        Entry::Vacant(e) => {
                            e.insert(l);
                            true
                        }
                        _ => false,
                    };
                    if improved {
                        if let Some(&ea) = fwd_ea.get(&m) {
                            if ea <= l {
                                return Ok((QueryOutcome::reachable(), stats));
                            }
                        }
                    }
                }
                // Backward expansion runs on the reverse of DN1 only (§5.2).
                // A node starting at tick 0 has no predecessors; guard the
                // subtraction anyway rather than rely on `rev` being empty.
                let Some(pred_end) = vd.interval().start.checked_sub(1) else {
                    continue;
                };
                for &u in vd.rev() {
                    stats.examined += 1;
                    let lat = pred_end; // == u.end by temporal adjacency
                    if lat < mid {
                        continue;
                    }
                    match bwd_best.entry(u) {
                        Entry::Occupied(mut e) if *e.get() < lat => {
                            e.insert(lat);
                            bq.push((lat, u));
                        }
                        Entry::Vacant(e) => {
                            e.insert(lat);
                            bq.push((lat, u));
                        }
                        _ => {}
                    }
                }
            }
        }
        if !progressed {
            return Ok((QueryOutcome::UNREACHABLE, stats));
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn expand_forward(
    vd: &Vertex<'_>,
    a: Time,
    mid: Time,
    horizon: Time,
    levels: &[Time],
    multires: bool,
    fwd_best: &mut FxHashMap<u32, Time>,
    fq: &mut BinaryHeap<Reverse<(Time, u32)>>,
    stats: &mut TraversalStats,
) {
    let mut relax = |w: u32, arr: Time, stats: &mut TraversalStats| {
        stats.examined += 1;
        match fwd_best.entry(w) {
            Entry::Occupied(mut e) if *e.get() > arr => {
                e.insert(arr);
                fq.push(Reverse((arr, w)));
            }
            Entry::Vacant(e) => {
                e.insert(arr);
                fq.push(Reverse((arr, w)));
            }
            _ => {}
        }
    };
    if multires {
        // Greedy: take the largest-weight valid long edge and ignore the
        // rest (paper §5.2).
        for (idx, &k) in levels.iter().enumerate().rev() {
            if let Some(ta) = launch_boundary(vd.interval(), k, horizon) {
                if ta >= a && ta + k <= mid && !vd.bundle(idx).is_empty() {
                    for &w in vd.bundle(idx) {
                        relax(w, ta + k, stats);
                    }
                    return;
                }
            }
        }
    }
    if vd.interval().end < mid {
        for &w in vd.fwd() {
            relax(w, vd.interval().end + 1, stats);
        }
    }
}
