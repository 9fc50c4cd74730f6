//! Decay-weighted `HN` traversal (Strzheletska & Tsotras, PAPERS.md).
//!
//! The boolean expansion in [`crate::traverse`] settles each deviation-
//! network node once, at its earliest arrival. The weighted sibling here
//! replaces "earliest arrival" with "best decay weight": a path making
//! `h` DN₁ hops that first delivers at tick `e` has weight
//! `per_transfer^h · per_tick^(e − t1)` (see
//! [`reach_core::decay::DecayModel`]), and the traversal is a max-weight
//! best-first expansion. Because both factors live in `(0, 1]`, weights
//! are monotone non-increasing along any path, which buys the two
//! properties everything below leans on:
//!
//! * **first scoring is final** — the first time an object is scored at a
//!   settled node, that weight is its maximum and (by the heap tie-break)
//!   its arrival is the earliest among maximum-weight paths;
//! * **threshold pruning is sound** — a state below the floor `θ` (or
//!   below the running k-th best weight) can never recover, so it is
//!   dropped instead of queued.
//!
//! Per-node state is a small Pareto set of `(transfers, entry)` pairs
//! rather than a scalar: a seeded frontier (the cross-shard relay) can
//! enter a node mid-interval with few hops while an edge enters it at its
//! start tick with more, and with both decay factors active neither
//! dominates. Edge entries always land on the node's start tick, so the
//! sets stay tiny in practice.
//!
//! A cross-cut leg (`Stop::Exhaust` mode, the [`decay_states_seeded`]
//! entry point) produces two payloads. The
//! per-object *answer rows* keep each object's best delivery states; the
//! [`CarryGroup`] *carry* keeps, per node still open at the cut, the
//! node's members and Pareto states. The next leg continues from the
//! carry, never from the answer rows: an object that walked its own run
//! chain toward the cut accumulated DN₁ hops its delivery states do not
//! show, and re-seeding from those would teleport it across that stretch
//! for free. Comparing the carried member set against the continuation
//! node's members tells the next leg whether the boundary at the cut is
//! a genuine membership change (one hop charged, exactly the DN₁ edge
//! the monolithic walk relaxes there) or the artificial split a seal
//! introduces (free continuation of the same run). The full
//! query-semantics contract lives in the repository's `QUERIES.md`.

use crate::traverse::TraversalStats;
use crate::vertex::HnSource;
use reach_core::decay::{DecayModel, Ranked};
use reach_core::frontier::{CarryGroup, WeightedSeed};
use reach_core::{admit_object, admit_window, IndexError, ObjectId, Query, Time, TimeInterval};
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap};

/// A heap entry: node `v` entered with `transfers` hops at tick `entry`,
/// carrying the precomputed weight. Max-heap by weight, ties broken
/// toward earlier entry, then smaller node id, then fewer transfers, so
/// pop order (and therefore every reported arrival) is deterministic.
#[derive(PartialEq, Debug)]
struct State {
    weight: f64,
    transfers: u32,
    entry: Time,
    node: u32,
}

impl Eq for State {}

impl Ord for State {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.weight
            .partial_cmp(&other.weight)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| other.entry.cmp(&self.entry))
            .then_with(|| other.node.cmp(&self.node))
            .then_with(|| other.transfers.cmp(&self.transfers))
    }
}

impl PartialOrd for State {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Inserts `(h, e)` into a Pareto set unless dominated (fewer-or-equal
/// transfers *and* no-later entry); evicts states it dominates. Returns
/// whether the state was admitted.
fn pareto_insert(set: &mut Vec<(u32, Time)>, h: u32, e: Time) -> bool {
    if set.iter().any(|&(ph, pe)| ph <= h && pe <= e) {
        return false;
    }
    set.retain(|&(ph, pe)| !(h <= ph && e <= pe));
    set.push((h, e));
    true
}

/// When the forward engine stops early.
#[derive(Clone, Copy)]
enum Stop {
    /// Run the frontier dry (the cross-shard leg mode).
    Exhaust,
    /// Return once this object is first scored (point queries).
    Target(ObjectId),
    /// Return once no queued state can still enter the top `k`
    /// (the anchor never counts toward `k`).
    TopK { k: usize, exclude: ObjectId },
}

/// Everything one forward expansion produces.
struct Expansion {
    /// First (= best) scoring per object: weight and arrival.
    scored: Vec<(ObjectId, f64, Time)>,
    /// Per-object Pareto `(transfers, entry)` rows, sorted by
    /// `(object, transfers, entry)` — the answer payload
    /// [`reach_core::frontier::WeightedFrontier::absorb`] consumes.
    rows: Vec<WeightedSeed>,
    /// Continuation groups for the next leg — one per node still open at
    /// the cut (leg mode only; empty for point and top-k runs).
    carry: Vec<CarryGroup>,
    stats: TraversalStats,
}

/// The forward max-weight engine shared by point, top-k, and leg modes.
/// `seeds` enter at face value (the original query source holding from
/// `t1`); `carry` groups are cross-cut continuations and pay one extra
/// DN₁ hop iff their membership changed at the window start (see the
/// module docs).
#[allow(clippy::too_many_arguments)]
fn forward<S: HnSource>(
    src: &mut S,
    seeds: &[WeightedSeed],
    carry: &[CarryGroup],
    interval: TimeInterval,
    origin: Time,
    model: &DecayModel,
    floor: f64,
    stop: Stop,
) -> Result<Expansion, IndexError> {
    let mut stats = TraversalStats::default();
    let seeded = seeds.iter().map(|&(o, _, _)| o);
    let carried = carry
        .iter()
        .flat_map(|g| g.members.iter().map(|&m| ObjectId(m)));
    for o in seeded.chain(carried) {
        admit_object(o, src.num_objects())?;
    }
    let interval = admit_window(interval, src.horizon())?;
    let (t1, t2) = (interval.start, interval.end);

    let weigh = |h: u32, e: Time| model.weight(h, e.saturating_sub(origin));
    let mut node_states: HashMap<u32, Vec<(u32, Time)>> = HashMap::new();
    let mut heap: BinaryHeap<State> = BinaryHeap::new();
    for &(o, h, e) in seeds {
        let entry = e.max(t1);
        if entry > t2 {
            continue;
        }
        let weight = weigh(h, entry);
        if weight < floor {
            continue;
        }
        let v = src.node_of(o, entry)?;
        if pareto_insert(node_states.entry(v).or_default(), h, entry) {
            heap.push(State {
                weight,
                transfers: h,
                entry,
                node: v,
            });
        }
    }

    // Cross-cut continuations: each group is one pre-cut node caught open
    // at the cut. Its members re-enter at the window start; membership
    // unchanged means the cut split one monolithic run artificially and
    // continuation is free, membership changed means the run genuinely
    // ended there and the DN₁ hop the monolithic walk would relax at the
    // boundary is charged.
    let mut gate: HashMap<u32, Vec<u32>> = HashMap::new();
    for group in carry {
        for &m in &group.members {
            let v = src.node_of(ObjectId(m), t1)?;
            if let Entry::Vacant(slot) = gate.entry(v) {
                slot.insert(src.vertex(v)?.members().to_vec());
            }
            let hop = u32::from(gate[&v] != group.members);
            for &(h, e) in &group.states {
                debug_assert!(e < t1, "carry states precede the leg window");
                let h = h + hop;
                let weight = weigh(h, t1);
                if weight < floor {
                    continue;
                }
                if pareto_insert(node_states.entry(v).or_default(), h, t1) {
                    heap.push(State {
                        weight,
                        transfers: h,
                        entry: t1,
                        node: v,
                    });
                }
            }
        }
    }

    let mut open: HashMap<u32, Vec<u32>> = HashMap::new();
    let mut first: HashMap<u32, (f64, Time)> = HashMap::new();
    let mut scored: Vec<(ObjectId, f64, Time)> = Vec::new();
    let mut object_rows: HashMap<u32, Vec<(u32, Time)>> = HashMap::new();
    // Weights of the current top-k candidates, best first.
    let mut kth: Vec<f64> = Vec::new();
    let mut dyn_floor = floor;

    'expand: while let Some(s) = heap.pop() {
        if let Stop::TopK { k, .. } = stop {
            if kth.len() == k && s.weight < kth[k - 1] {
                break;
            }
        }
        if s.weight < dyn_floor {
            continue;
        }
        let Some(set) = node_states.get(&s.node) else {
            continue;
        };
        if !set.contains(&(s.transfers, s.entry)) {
            continue; // superseded by a dominating state
        }
        stats.visited += 1;
        let vd = src.vertex(s.node)?;
        if matches!(stop, Stop::Exhaust) && vd.interval().end >= t2 {
            open.entry(s.node).or_insert_with(|| vd.members().to_vec());
        }
        for &m in vd.members() {
            pareto_insert(object_rows.entry(m).or_default(), s.transfers, s.entry);
            if let Entry::Vacant(slot) = first.entry(m) {
                slot.insert((s.weight, s.entry));
                scored.push((ObjectId(m), s.weight, s.entry));
                match stop {
                    Stop::Target(t) if t == ObjectId(m) => break 'expand,
                    Stop::TopK { k, exclude } if ObjectId(m) != exclude => {
                        let at = kth.iter().position(|&w| w < s.weight).unwrap_or(kth.len());
                        kth.insert(at, s.weight);
                        kth.truncate(k);
                        if kth.len() == k {
                            dyn_floor = dyn_floor.max(kth[k - 1]);
                        }
                    }
                    _ => {}
                }
            }
        }
        if vd.interval().end < t2 {
            let (h, e) = (s.transfers + 1, vd.interval().end + 1);
            let weight = weigh(h, e);
            if weight >= dyn_floor {
                for &w in vd.fwd() {
                    stats.examined += 1;
                    if pareto_insert(node_states.entry(w).or_default(), h, e) {
                        heap.push(State {
                            weight,
                            transfers: h,
                            entry: e,
                            node: w,
                        });
                    }
                }
            }
        }
    }

    let mut rows: Vec<WeightedSeed> = object_rows
        .into_iter()
        .flat_map(|(o, set)| set.into_iter().map(move |(h, e)| (ObjectId(o), h, e)))
        .collect();
    rows.sort_unstable_by_key(|&(o, h, e)| (o, h, e));
    let mut carry_out: Vec<CarryGroup> = open
        .into_iter()
        .map(|(v, members)| {
            let mut states = node_states.remove(&v).unwrap_or_default();
            states.sort_unstable();
            CarryGroup { members, states }
        })
        .collect();
    // Open nodes partition their members, so the leading member orders
    // groups deterministically.
    carry_out.sort_by(|a, b| a.members.cmp(&b.members));
    Ok(Expansion {
        scored,
        rows,
        carry: carry_out,
        stats,
    })
}

/// One cross-shard (or sealed→delta) decay leg's output: the answer rows
/// [`reach_core::frontier::WeightedFrontier::absorb`] consumes and the
/// continuation [`CarryGroup`]s the next leg seeds from (see the module
/// docs for why the two payloads must stay separate).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DecayLeg {
    /// Per-object Pareto `(transfers, entry)` delivery rows, sorted by
    /// `(object, transfers, entry)`.
    pub rows: Vec<WeightedSeed>,
    /// The state of every node still open at the leg's cut.
    pub carry: Vec<CarryGroup>,
}

/// One cross-shard (or sealed→delta) decay leg: expands `seeds` (at face
/// value) plus the previous leg's `carry` groups over `interval` and
/// returns the leg's two payloads. `origin` is the original query start
/// (elapsed-time decay measures from it); `floor` may carry a point
/// query's θ across legs (pass `0.0` for ranked queries).
pub fn decay_states_seeded<S: HnSource>(
    src: &mut S,
    seeds: &[WeightedSeed],
    carry: &[CarryGroup],
    interval: TimeInterval,
    origin: Time,
    model: &DecayModel,
    floor: f64,
) -> Result<(DecayLeg, TraversalStats), IndexError> {
    let ex = forward(
        src,
        seeds,
        carry,
        interval,
        origin,
        model,
        floor,
        Stop::Exhaust,
    )?;
    Ok((
        DecayLeg {
            rows: ex.rows,
            carry: ex.carry,
        },
        ex.stats,
    ))
}

/// Point decay query: the best weight and earliest maximum-weight arrival
/// with which `dest` is reachable from `source` inside `interval`, if
/// that weight clears `theta`. Expansion prunes below `theta`, so a
/// returned entry always satisfies the threshold.
pub fn decay_reachable<S: HnSource>(
    src: &mut S,
    source: ObjectId,
    dest: ObjectId,
    interval: TimeInterval,
    model: &DecayModel,
    theta: f64,
) -> Result<(Option<(f64, Time)>, TraversalStats), IndexError> {
    Query::new(source, dest, interval).admit(src.num_objects(), src.horizon())?;
    let seeds = [(source, 0u32, interval.start)];
    let ex = forward(
        src,
        &seeds,
        &[],
        interval,
        interval.start,
        model,
        theta,
        Stop::Target(dest),
    )?;
    let hit = ex
        .scored
        .iter()
        .find(|&&(o, _, _)| o == dest)
        .map(|&(_, w, e)| (w, e));
    Ok((hit, ex.stats))
}

/// Sorts first-scorings into [`Ranked::order`], drops the anchor,
/// truncates to `k`.
pub fn rank(scored: &[(ObjectId, f64, Time)], anchor: ObjectId, k: usize) -> Vec<Ranked> {
    let mut out: Vec<Ranked> = scored
        .iter()
        .filter(|&&(o, _, _)| o != anchor)
        .map(|&(object, weight, arrival)| Ranked {
            object,
            weight,
            arrival,
        })
        .collect();
    out.sort_by(Ranked::order);
    out.truncate(k);
    out
}

/// Top-k forward ranking: the `k` objects with the highest best-path
/// weight from `anchor` inside `interval` (the anchor itself excluded),
/// ranked by weight, then earliest arrival, then object id. The dynamic
/// floor — the running k-th best weight — prunes expansion, which is the
/// IO advantage `exp_decay` measures against full enumeration.
pub fn top_k_reachable<S: HnSource>(
    src: &mut S,
    anchor: ObjectId,
    interval: TimeInterval,
    k: usize,
    model: &DecayModel,
) -> Result<(Vec<Ranked>, TraversalStats), IndexError> {
    let seeds = [(anchor, 0u32, interval.start)];
    let ex = forward(
        src,
        &seeds,
        &[],
        interval,
        interval.start,
        model,
        0.0,
        Stop::TopK { k, exclude: anchor },
    )?;
    Ok((rank(&ex.scored, anchor, k), ex.stats))
}

/// Top-k reverse ranking: the `k` objects *reaching* `anchor` with the
/// highest best-path weight. A source `u` starts holding the item at
/// `interval.start`, so scoring happens only at nodes whose interval
/// covers the window start; delivery happens at the entry tick into the
/// first node of the anchor's run chain the path lands on.
pub fn top_k_reaching<S: HnSource>(
    src: &mut S,
    anchor: ObjectId,
    interval: TimeInterval,
    k: usize,
    model: &DecayModel,
) -> Result<(Vec<Ranked>, TraversalStats), IndexError> {
    let mut stats = TraversalStats::default();
    admit_object(anchor, src.num_objects())?;
    let interval = admit_window(interval, src.horizon())?;
    let (t1, t2) = (interval.start, interval.end);
    let weigh = |h: u32, e: Time| model.weight(h, e.saturating_sub(t1));

    // Seed the anchor's run chain: delivering into the chain node holding
    // the anchor at tick t means delivery at max(node.start, t1).
    let mut best: HashMap<u32, (f64, u32, Time)> = HashMap::new();
    let mut heap: BinaryHeap<State> = BinaryHeap::new();
    let mut t = t1;
    while t <= t2 {
        let v = src.node_of(anchor, t)?;
        let vd = src.vertex(v)?;
        let entry = vd.interval().start.max(t1);
        let weight = weigh(0, entry);
        let better = match best.get(&v) {
            Some(&(w, _, e)) => weight > w || (weight == w && entry < e),
            None => true,
        };
        if better {
            best.insert(v, (weight, 0, entry));
            heap.push(State {
                weight,
                transfers: 0,
                entry,
                node: v,
            });
        }
        if vd.interval().end >= t2 {
            break;
        }
        t = vd.interval().end + 1;
    }

    let mut first: HashMap<u32, (f64, Time)> = HashMap::new();
    let mut scored: Vec<(ObjectId, f64, Time)> = Vec::new();
    let mut kth: Vec<f64> = Vec::new();
    let mut dyn_floor = 0.0f64;
    while let Some(s) = heap.pop() {
        if kth.len() == k && s.weight < kth[k - 1] {
            break;
        }
        if best.get(&s.node).copied() != Some((s.weight, s.transfers, s.entry)) {
            continue;
        }
        stats.visited += 1;
        let vd = src.vertex(s.node)?;
        if vd.interval().start <= t1 && t1 <= vd.interval().end {
            // Only here can a source start its path at the window start.
            for &m in vd.members() {
                if let Entry::Vacant(slot) = first.entry(m) {
                    slot.insert((s.weight, s.entry));
                    if ObjectId(m) != anchor {
                        scored.push((ObjectId(m), s.weight, s.entry));
                        let at = kth.iter().position(|&w| w < s.weight).unwrap_or(kth.len());
                        kth.insert(at, s.weight);
                        kth.truncate(k);
                        if kth.len() == k {
                            dyn_floor = dyn_floor.max(kth[k - 1]);
                        }
                    }
                }
            }
        }
        if vd.interval().start > t1 {
            let (h, e) = (s.transfers + 1, s.entry);
            let weight = weigh(h, e);
            if weight >= dyn_floor {
                for &u in vd.rev() {
                    stats.examined += 1;
                    let better = match best.get(&u) {
                        Some(&(w, _, pe)) => weight > w || (weight == w && e < pe),
                        None => true,
                    };
                    if better {
                        best.insert(u, (weight, h, e));
                        heap.push(State {
                            weight,
                            transfers: h,
                            entry: e,
                            node: u,
                        });
                    }
                }
            }
        }
    }
    Ok((rank(&scored, anchor, k), stats))
}
