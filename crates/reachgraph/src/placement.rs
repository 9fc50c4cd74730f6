//! Disk placement: topological partitioning of `HN` (paper §5.1.3).
//!
//! Vertices are swept in topological order (node ids are construction-
//! ordered by interval start, which is topological for DN); each unassigned
//! vertex roots a new partition holding every still-unassigned vertex within
//! DN1 depth `d_p` of it. Long edges are ignored during partitioning to
//! preserve temporal locality, exactly as the paper prescribes. Partitions
//! are written to disk in creation order.

use reach_contact::DnAccess;
use std::convert::Infallible;

/// Result of partitioning: assignment and partition count.
#[derive(Clone, Debug)]
pub struct Partitioning {
    /// Partition id of every vertex.
    pub partition_of: Vec<u32>,
    /// Number of partitions.
    pub num_partitions: u32,
    /// Every partition's vertices back to back, each in assignment order.
    members: Vec<u32>,
    /// Partition `p` is `members[offsets[p]..offsets[p + 1]]`.
    offsets: Vec<u32>,
}

impl Partitioning {
    /// Every partition's vertices, in partition order.
    pub fn iter(&self) -> impl Iterator<Item = &[u32]> + '_ {
        self.offsets
            .windows(2)
            .map(|w| &self.members[w[0] as usize..w[1] as usize])
    }
}

/// Partitions `dn` with depth `depth` (the paper's `d_p`). Generic over
/// [`DnAccess`], so the sweep runs identically on a resident `DnGraph` and
/// a spill-backed `StreamedDn` (the assignment table and member lists — the
/// in-memory page table the final index keeps anyway — stay resident).
pub fn partition<D: DnAccess>(mut dn: D, depth: u32) -> Partitioning {
    let mut sweep = Sweep::new(dn.num_nodes(), depth);
    while sweep
        .next(|v, fwd| {
            dn.fwd_into(v, fwd);
            Ok::<(), Infallible>(())
        })
        .is_some()
    {}
    sweep.finish()
}

/// The partitioning sweep, one partition at a time, with the caller
/// reading each vertex: [`Sweep::next`] grows the next partition
/// breadth-first from the lowest unassigned id and hands every vertex it
/// assigns to a `visit` callback, in assignment order, which must leave
/// the vertex's DN1 out-edges in `fwd`. ReachGraph's build encodes each
/// vertex's record inside `visit`, so it reads every vertex once.
///
/// The partition's member list is its BFS queue: vertices are visited in
/// assignment order and expanded while they lie less than `depth` hops
/// from the root.
pub(crate) struct Sweep {
    depth: u32,
    next_root: u32,
    partition_of: Vec<u32>,
    members: Vec<u32>,
    offsets: Vec<u32>,
    fwd: Vec<u32>,
}

impl Sweep {
    pub(crate) fn new(num_nodes: usize, depth: u32) -> Self {
        Self {
            depth,
            next_root: 0,
            partition_of: vec![u32::MAX; num_nodes],
            members: Vec::with_capacity(num_nodes),
            offsets: vec![0],
            fwd: Vec::new(),
        }
    }

    /// Grows the next partition, visiting each of its vertices; returns its
    /// members, `None` once every vertex is placed, or the first error a
    /// visit returned.
    pub(crate) fn next<E>(
        &mut self,
        mut visit: impl FnMut(u32, &mut Vec<u32>) -> Result<(), E>,
    ) -> Option<Result<&[u32], E>> {
        let n = self.partition_of.len() as u32;
        while self.next_root < n && self.partition_of[self.next_root as usize] != u32::MAX {
            self.next_root += 1;
        }
        if self.next_root == n {
            return None;
        }
        let pid = (self.offsets.len() - 1) as u32;
        let start = self.members.len();
        self.partition_of[self.next_root as usize] = pid;
        self.members.push(self.next_root);
        // `members[head..level_end]` is the rest of BFS level `d`.
        let (mut head, mut level_end, mut d) = (start, start + 1, 0);
        while head < self.members.len() {
            if let Err(e) = visit(self.members[head], &mut self.fwd) {
                return Some(Err(e));
            }
            head += 1;
            if d < self.depth {
                for &w in &self.fwd {
                    if self.partition_of[w as usize] == u32::MAX {
                        self.partition_of[w as usize] = pid;
                        self.members.push(w);
                    }
                }
            }
            if head == level_end {
                d += 1;
                level_end = self.members.len();
            }
        }
        self.offsets.push(self.members.len() as u32);
        Some(Ok(&self.members[start..]))
    }

    /// The partitioning swept so far (all of it once `next` returned
    /// `None`).
    pub(crate) fn finish(self) -> Partitioning {
        Partitioning {
            num_partitions: (self.offsets.len() - 1) as u32,
            partition_of: self.partition_of,
            members: self.members,
            offsets: self.offsets,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reach_contact::DnGraph;
    use reach_core::Time;

    fn chain_world(links: usize) -> DnGraph {
        // Objects 0 and 1 touch briefly `links` times, creating a chain of
        // alternating pair/singleton nodes.
        let mut script: Vec<Vec<(u32, u32)>> = Vec::new();
        for _ in 0..links {
            script.push(vec![(0, 1)]);
            script.push(vec![]);
        }
        let h = script.len() as Time;
        let g = DnGraph::build_from_ticks(2, h, |t| script[t as usize].as_slice());
        g.validate().unwrap();
        g
    }

    #[test]
    fn every_vertex_assigned_exactly_once() {
        let dn = chain_world(6);
        let p = partition(&dn, 2);
        assert_eq!(p.partition_of.len(), dn.num_nodes());
        assert!(p.partition_of.iter().all(|&x| x != u32::MAX));
        let total: usize = p.iter().map(<[u32]>::len).sum();
        assert_eq!(total, dn.num_nodes());
        // Assignment table and member lists agree.
        for (pid, mine) in p.iter().enumerate() {
            for &v in mine {
                assert_eq!(p.partition_of[v as usize], pid as u32);
            }
        }
    }

    #[test]
    fn depth_one_groups_nothing_beyond_roots_children() {
        let dn = chain_world(4);
        let shallow = partition(&dn, 1);
        let deep = partition(&dn, 64);
        assert!(
            shallow.num_partitions >= deep.num_partitions,
            "deeper partitions must not increase the partition count"
        );
        // With a huge depth the whole weakly-forward-connected prefix
        // collapses into one partition rooted at vertex 0.
        assert_eq!(deep.partition_of[0], 0);
    }

    #[test]
    fn partitions_respect_topological_creation_order() {
        let dn = chain_world(5);
        let p = partition(&dn, 3);
        // The first vertex of partition k+1 must have a higher id than the
        // first vertex of partition k (roots are swept in topological id
        // order).
        let roots: Vec<u32> = p.iter().map(|m| m[0]).collect();
        assert!(roots.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn isolated_singletons_root_their_own_partitions() {
        // Three objects never in contact: three nodes, no edges — three
        // partitions regardless of depth.
        let script: Vec<Vec<(u32, u32)>> = vec![vec![]; 5];
        let dn = DnGraph::build_from_ticks(3, 5, |t| script[t as usize].as_slice());
        let p = partition(&dn, 8);
        assert_eq!(p.num_partitions, 3);
    }
}
