//! Multi-resolution augmentation: the long edges of `HN` (paper §5.1.2.2).
//!
//! For every resolution `L`, the paper adds a *long edge* from each component
//! at window boundary `t_a = kL` to every component at `t_a + L` reachable by
//! a length-`L` path, yielding `HN = DN_1 ∪ DN_2 ∪ … ∪ DN_32` (the
//! experimentally optimal six resolutions, §6.2.1.4).
//!
//! With run-merged nodes, only one window per node per level needs explicit
//! edges — the window in which the node *dies* (`t_a = ⌊end/L⌋·L`): in every
//! earlier window the node is still alive at the window's end and the item
//! simply stays put (member sets are frozen over a node's interval, see
//! [`crate::dag`]). This matches the paper's observation that only some
//! vertices carry edges at a given resolution (Table 4).
//!
//! Construction is by exact composition: the bundle at level `2k` is the
//! level-`k` advance applied twice, because a node dying inside a half-window
//! launches its stored level-`k` bundle at exactly that half-window boundary.
//!
//! Every level is built in **one sweep over the node ids, descending**. A
//! level-`2k` bundle composes level-`k` bundles of the node's descendants,
//! and a descendant starts after the node ends, so its id is larger and all
//! of its levels are already built when the sweep reaches the node. The
//! sweep reads each node's interval once for all levels, so a spill-backed
//! [`StreamedDn`](crate::StreamedDn) streams through the DN once, not once
//! per level. Each level is one [`Csr`]: a node's bundle is composed in one
//! reused scratch buffer and appended as the next row, so the rows arrive
//! last node first and each level is flipped in place at the end. A level
//! costs its two CSR vectors, not a list per node.

use crate::dag::{Csr, DnAccess, DnGraph};
use reach_core::{Time, TimeInterval};

/// The resolutions used by the paper's final configuration
/// (`DN_2 … DN_32`, six resolutions counting `DN_1`).
pub const DEFAULT_LEVELS: [Time; 5] = [2, 4, 8, 16, 32];

/// Launch boundary of `interval` at `level`: the unique multiple of `level`
/// in `(end - level, end]`, provided the node is alive there and the window
/// target `t_a + level` still exists (`≤ horizon - 1`).
#[inline]
pub fn launch_boundary(interval: TimeInterval, level: Time, horizon: Time) -> Option<Time> {
    let ta = (interval.end / level) * level;
    (ta >= interval.start && ta + level <= horizon.saturating_sub(1)).then_some(ta)
}

/// The long-edge bundles of every materialized resolution.
#[derive(Clone, Debug)]
pub struct MultiRes {
    levels: Vec<Time>,
    bundles: Vec<Csr>,
}

impl MultiRes {
    /// Builds bundles for a doubling chain of `levels` (e.g. `[2,4,8,16,32]`;
    /// must start at 2 and double). An empty slice yields a `DN_1`-only
    /// index.
    ///
    /// Generic over [`DnAccess`], so bundles build identically from a
    /// resident [`DnGraph`] and a spill-backed
    /// [`StreamedDn`](crate::StreamedDn). The bundle CSRs themselves stay
    /// resident — they are compact edge lists, small next to the decoded
    /// node data the access trait bounds.
    pub fn build<D: DnAccess>(mut dn: D, levels: &[Time]) -> Self {
        for (i, &l) in levels.iter().enumerate() {
            if i == 0 {
                assert_eq!(l, 2, "first long-edge level must be 2");
            } else {
                assert_eq!(
                    l,
                    levels[i - 1] * 2,
                    "levels must form a doubling chain (got {l} after {})",
                    levels[i - 1]
                );
            }
        }
        let horizon = dn.horizon();
        let n = dn.num_nodes();
        let mut bundles: Vec<Csr> = levels.iter().map(|_| Csr::with_capacity(n, n)).collect();
        let mut scratch: Vec<u32> = Vec::new();
        let mut succ: Vec<u32> = Vec::new();
        let mut fwd_buf: Vec<u32> = Vec::new();
        for v in (0..n as u32).rev() {
            let interval = dn.interval(v);
            for (idx, &level) in levels.iter().enumerate() {
                let Some(ta) = launch_boundary(interval, level, horizon) else {
                    bundles[idx].push_row(&[]);
                    continue;
                };
                if idx == 0 {
                    level2_bundle(
                        &mut dn,
                        v,
                        interval.end,
                        ta,
                        &mut scratch,
                        &mut succ,
                        &mut fwd_buf,
                    );
                } else {
                    let lower = Built {
                        csr: &bundles[idx - 1],
                        n,
                    };
                    compose(
                        &mut dn,
                        lower,
                        levels[idx - 1],
                        v,
                        interval.end,
                        ta,
                        &mut scratch,
                    );
                }
                bundles[idx].push_row(&scratch);
            }
        }
        for csr in &mut bundles {
            csr.reverse_rows();
        }
        Self {
            levels: levels.to_vec(),
            bundles,
        }
    }

    /// Materialized levels, ascending.
    pub fn levels(&self) -> &[Time] {
        &self.levels
    }

    /// The stored long-edge targets of `node` at `levels()[level_idx]`
    /// (empty when the node has no explicit bundle at that level).
    #[inline]
    pub fn bundle(&self, level_idx: usize, node: u32) -> &[u32] {
        self.bundles[level_idx].out(node)
    }

    /// Total long edges at one level.
    pub fn num_edges(&self, level_idx: usize) -> u64 {
        self.bundles[level_idx].num_edges()
    }

    /// Average out-degree at a level, counted over nodes that carry at least
    /// one edge at that level — the statistic of the paper's Table 4.
    pub fn avg_degree(&self, level_idx: usize) -> f64 {
        let csr = &self.bundles[level_idx];
        let mut edges = 0u64;
        let mut nodes = 0u64;
        for v in 0..csr.num_nodes() as u32 {
            let d = csr.out(v).len();
            if d > 0 {
                edges += d as u64;
                nodes += 1;
            }
        }
        if nodes == 0 {
            0.0
        } else {
            edges as f64 / nodes as f64
        }
    }
}

/// A level's bundles so far, rows pushed in descending node order: the
/// row of node `m` is row `n - 1 - m`.
#[derive(Clone, Copy)]
struct Built<'a> {
    csr: &'a Csr,
    n: usize,
}

impl Built<'_> {
    fn out(&self, m: u32) -> &[u32] {
        self.csr.out((self.n - 1) as u32 - m)
    }
}

/// Level-2 base case: fills `scratch` with the hold set two ticks after
/// `ta`, starting from `v` (which ends at `end`) alive at `ta` (with
/// `end ∈ {ta, ta+1}` by launch-boundary construction).
fn level2_bundle<D: DnAccess>(
    dn: &mut D,
    v: u32,
    end: Time,
    ta: Time,
    scratch: &mut Vec<u32>,
    succ: &mut Vec<u32>,
    fwd_buf: &mut Vec<u32>,
) {
    scratch.clear();
    debug_assert!(end == ta || end == ta + 1, "launch window must contain end");
    dn.fwd_into(v, succ);
    if end == ta + 1 {
        // Alive through ta+1; one DN1 dispersal lands exactly at ta+2.
        scratch.extend_from_slice(succ);
    } else {
        // Dies at ta: successors live at ta+1; advance each one more tick.
        for &w in succ.iter() {
            if dn.interval(w).end >= ta + 2 {
                scratch.push(w);
            } else {
                dn.fwd_into(w, fwd_buf);
                scratch.extend_from_slice(fwd_buf);
            }
        }
    }
    scratch.sort_unstable();
    scratch.dedup();
}

/// Doubling composition: fills `scratch` with the level-`2k` bundle of `v`
/// (which ends at `end`) at `ta`, the level-`k` advance applied at `ta`
/// and again at `ta + k`.
fn compose<D: DnAccess>(
    dn: &mut D,
    lower: Built<'_>,
    k: Time,
    v: u32,
    end: Time,
    ta: Time,
    scratch: &mut Vec<u32>,
) {
    // Hold set at ta + k: `v` itself if it outlives the half-window, else
    // its level-k bundle (its level-k launch is exactly ta).
    let only_v = [v];
    let mid: &[u32] = if end >= ta + k {
        &only_v
    } else {
        debug_assert_eq!((end / k) * k, ta);
        lower.out(v)
    };
    // Hold set at ta + 2k.
    scratch.clear();
    for &m in mid {
        if dn.interval(m).end >= ta + 2 * k {
            scratch.push(m);
        } else {
            // m dies inside [ta+k, ta+2k) ⇒ its level-k launch is exactly
            // ta+k, so its bundle is the advance we need.
            debug_assert_eq!((dn.interval(m).end / k) * k, ta + k);
            scratch.extend_from_slice(lower.out(m));
        }
    }
    scratch.sort_unstable();
    scratch.dedup();
}

/// Reference hold-set computation on `DN_1` alone: every node alive at
/// `to_t` that can hold an item that sits in `v` now. Exponential-ish, used
/// only to validate bundles in tests.
pub fn hold_set_dn1(dn: &DnGraph, v: u32, to_t: Time) -> Vec<u32> {
    fn rec(dn: &DnGraph, v: u32, to_t: Time, out: &mut Vec<u32>) {
        if dn.node(v).interval.end >= to_t {
            out.push(v);
            return;
        }
        for &w in dn.fwd(v) {
            rec(dn, w, to_t, out);
        }
    }
    let mut out = Vec::new();
    debug_assert!(dn.node(v).interval.start <= to_t);
    rec(dn, v, to_t, &mut out);
    out.sort_unstable();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_world(seed: u64, n: usize, horizon: Time, density: f64) -> DnGraph {
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
        let g = DnGraph::build_from_ticks(n, horizon, |t| script[t as usize].as_slice());
        g.validate().expect("random world is structurally valid");
        g
    }

    #[test]
    fn launch_boundary_rules() {
        // Node alive [3, 9], level 4, horizon 20: ta = 8.
        assert_eq!(launch_boundary(TimeInterval::new(3, 9), 4, 20), Some(8));
        // Node dies before ever being alive at its launch: [5, 6], level 4
        // → ta = 4 < start ⇒ none.
        assert_eq!(launch_boundary(TimeInterval::new(5, 6), 4, 20), None);
        // Window target beyond horizon: [3, 9], level 4, horizon 12 ⇒
        // ta + 4 = 12 > 11 ⇒ none.
        assert_eq!(launch_boundary(TimeInterval::new(3, 9), 4, 12), None);
        // Exactly at the horizon boundary is allowed.
        assert_eq!(launch_boundary(TimeInterval::new(3, 9), 4, 13), Some(8));
    }

    #[test]
    fn bundles_match_dn1_hold_sets_on_random_worlds() {
        for seed in 0..6u64 {
            let dn = random_world(seed, 6, 40, 0.08);
            let mr = MultiRes::build(&dn, &DEFAULT_LEVELS);
            for (idx, &level) in mr.levels().iter().enumerate() {
                // `bundle` and `avg_degree` index rows by node id, so each
                // level spans every node, bundle or not.
                assert_eq!(mr.bundles[idx].num_nodes(), dn.num_nodes());
                for v in 0..dn.num_nodes() as u32 {
                    let expected = match launch_boundary(dn.node(v).interval, level, dn.horizon()) {
                        Some(ta) => hold_set_dn1(&dn, v, ta + level),
                        None => Vec::new(),
                    };
                    assert_eq!(
                        mr.bundle(idx, v),
                        expected.as_slice(),
                        "seed {seed} level {level} node {v} ({:?})",
                        dn.node(v).interval
                    );
                }
            }
        }
    }

    #[test]
    fn bundles_are_sorted_and_deduped() {
        let dn = random_world(9, 8, 64, 0.10);
        let mr = MultiRes::build(&dn, &DEFAULT_LEVELS);
        for idx in 0..mr.levels().len() {
            for v in 0..dn.num_nodes() as u32 {
                let b = mr.bundle(idx, v);
                assert!(b.windows(2).all(|w| w[0] < w[1]), "unsorted bundle");
            }
        }
    }

    #[test]
    fn single_level_index() {
        let dn = random_world(3, 5, 20, 0.1);
        let mr = MultiRes::build(&dn, &[2]);
        assert_eq!(mr.levels(), &[2]);
        // Degenerate empty chain is also allowed.
        let none = MultiRes::build(&dn, &[]);
        assert!(none.levels().is_empty());
    }

    #[test]
    fn zero_node_dn_gives_empty_levels() {
        let dn = DnGraph::build_from_ticks(0, 40, |_| &[]);
        assert_eq!(dn.num_nodes(), 0);
        let mr = MultiRes::build(&dn, &DEFAULT_LEVELS);
        for (idx, csr) in mr.bundles.iter().enumerate() {
            assert_eq!(csr.num_nodes(), 0);
            assert_eq!(mr.num_edges(idx), 0);
            assert_eq!(mr.avg_degree(idx), 0.0);
        }
    }

    #[test]
    fn levels_past_the_horizon_are_empty_but_sized() {
        // Horizon 12: no window of level 16 or 32 ends by tick 11, so those
        // levels carry no edges, yet every level still has a row per node.
        let dn = random_world(2, 6, 12, 0.15);
        let mr = MultiRes::build(&dn, &DEFAULT_LEVELS);
        assert!(mr.num_edges(0) > 0, "level 2 fits inside the horizon");
        for (idx, &level) in mr.levels().iter().enumerate() {
            assert_eq!(mr.bundles[idx].num_nodes(), dn.num_nodes());
            if level > dn.horizon() - 1 {
                assert_eq!(mr.num_edges(idx), 0, "level {level}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "doubling chain")]
    fn non_doubling_levels_rejected() {
        let dn = random_world(1, 3, 10, 0.1);
        let _ = MultiRes::build(&dn, &[2, 6]);
    }

    #[test]
    fn avg_degree_counts_only_nodes_with_edges() {
        let dn = random_world(5, 6, 48, 0.12);
        let mr = MultiRes::build(&dn, &DEFAULT_LEVELS);
        for idx in 0..mr.levels().len() {
            let avg = mr.avg_degree(idx);
            if mr.num_edges(idx) > 0 {
                assert!(avg >= 1.0, "level {idx}: avg degree {avg} < 1");
            } else {
                assert_eq!(avg, 0.0);
            }
        }
    }

    #[test]
    fn higher_levels_have_no_smaller_reach() {
        // Sanity on the paper's Table-4 trend: bundles at higher resolutions
        // cover windows twice as long, so their average degree should not
        // collapse (weak monotonicity check on a dense-ish world).
        let dn = random_world(7, 8, 96, 0.15);
        let mr = MultiRes::build(&dn, &DEFAULT_LEVELS);
        let d2 = mr.avg_degree(0);
        let d32 = mr.avg_degree(mr.levels().len() - 1);
        assert!(
            d32 >= d2 * 0.5,
            "expected long windows to keep spreading: d2={d2}, d32={d32}"
        );
    }
}
