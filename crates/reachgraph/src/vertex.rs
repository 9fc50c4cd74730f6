//! Vertex records: the unit of traversal, memory- or disk-backed.
//!
//! Traversal reads vertices through [`Vertex`], a borrowed view that every
//! [`HnSource`] hands out: the disk index points it at the lists of one
//! vertex decoded from a partition record ([`crate::Partition`]), the
//! memory index into the DN's own adjacency. [`VertexData`] is the owned
//! form of a vertex; [`VertexData::encode`] adds it to a partition record
//! through the same [`PartitionEncoder`] index construction feeds from
//! borrowed parts.

use crate::partition::PartitionEncoder;
use reach_contact::MultiRes;
use reach_core::{IndexError, ObjectId, Time, TimeInterval};
use std::fmt;

/// Owned `HN` vertex: what index construction writes into a partition
/// record.
#[derive(Clone, Debug, PartialEq)]
pub struct VertexData {
    /// Validity interval of the component.
    pub interval: TimeInterval,
    /// Sorted member objects.
    pub members: Vec<u32>,
    /// DN1 successors (components at `end + 1`).
    pub fwd: Vec<u32>,
    /// DN1 predecessors (components at `start - 1`).
    pub rev: Vec<u32>,
    /// Long-edge bundles, one per materialized level (possibly empty).
    pub bundles: Vec<Vec<u32>>,
}

impl VertexData {
    /// Adds the vertex to the partition record `encoder` is writing, under
    /// id `id`. The record stores its interval, one cumulative list end per
    /// list (members, fwd, rev, then one bundle per level) and the lists'
    /// entries (see [`crate::partition`](mod@crate::partition)).
    ///
    /// # Panics
    /// If the vertex does not hold one bundle per level of the encoder.
    pub fn encode(&self, id: u32, encoder: &mut PartitionEncoder) {
        encoder.push(
            id,
            self.interval,
            &self.members,
            &self.fwd,
            &self.rev,
            self.bundles.iter().map(Vec::as_slice),
        );
    }
}

/// Borrowed view of one `HN` vertex as traversal consumes it. Cheap to
/// make and to copy: every accessor is a slice into storage its source
/// already holds.
#[derive(Clone, Copy)]
pub struct Vertex<'a> {
    interval: TimeInterval,
    members: &'a [u32],
    fwd: &'a [u32],
    rev: &'a [u32],
    bundles: Bundles<'a>,
}

/// Where a [`Vertex`]'s long-edge bundles live.
#[derive(Clone, Copy)]
enum Bundles<'a> {
    /// Back to back in an arena: level `i` spans `bounds[i]..bounds[i + 1]`.
    Arena { arena: &'a [u32], bounds: &'a [u32] },
    /// One adjacency per level of a resident [`MultiRes`].
    Resident { mr: &'a MultiRes, node: u32 },
}

impl<'a> Vertex<'a> {
    /// A vertex without long-edge bundles (a source with no levels).
    pub fn new(interval: TimeInterval, members: &'a [u32], fwd: &'a [u32], rev: &'a [u32]) -> Self {
        Self::in_arena(interval, members, fwd, rev, &[], &[0])
    }

    /// A vertex whose bundles lie in `arena`, delimited by `bounds`.
    pub(crate) fn in_arena(
        interval: TimeInterval,
        members: &'a [u32],
        fwd: &'a [u32],
        rev: &'a [u32],
        arena: &'a [u32],
        bounds: &'a [u32],
    ) -> Self {
        Self {
            interval,
            members,
            fwd,
            rev,
            bundles: Bundles::Arena { arena, bounds },
        }
    }

    /// A vertex whose bundles are `node`'s adjacency in `mr`.
    pub(crate) fn resident(
        interval: TimeInterval,
        members: &'a [u32],
        fwd: &'a [u32],
        rev: &'a [u32],
        mr: &'a MultiRes,
        node: u32,
    ) -> Self {
        Self {
            interval,
            members,
            fwd,
            rev,
            bundles: Bundles::Resident { mr, node },
        }
    }

    /// Validity interval of the component.
    pub fn interval(&self) -> TimeInterval {
        self.interval
    }

    /// Sorted member objects.
    pub fn members(&self) -> &'a [u32] {
        self.members
    }

    /// DN1 successors (components at `end + 1`).
    pub fn fwd(&self) -> &'a [u32] {
        self.fwd
    }

    /// DN1 predecessors (components at `start - 1`).
    pub fn rev(&self) -> &'a [u32] {
        self.rev
    }

    /// Number of long-edge bundles, one per materialized level.
    pub fn num_bundles(&self) -> usize {
        match self.bundles {
            Bundles::Arena { bounds, .. } => bounds.len() - 1,
            Bundles::Resident { mr, .. } => mr.levels().len(),
        }
    }

    /// Long-edge bundle of level index `level` (possibly empty).
    ///
    /// # Panics
    /// If `level >= self.num_bundles()`.
    pub fn bundle(&self, level: usize) -> &'a [u32] {
        match self.bundles {
            Bundles::Arena { arena, bounds } => {
                &arena[bounds[level] as usize..bounds[level + 1] as usize]
            }
            Bundles::Resident { mr, node } => mr.bundle(level, node),
        }
    }

    /// An owned copy of the whole vertex.
    pub fn to_data(&self) -> VertexData {
        VertexData {
            interval: self.interval,
            members: self.members.to_vec(),
            fwd: self.fwd.to_vec(),
            rev: self.rev.to_vec(),
            bundles: (0..self.num_bundles())
                .map(|level| self.bundle(level).to_vec())
                .collect(),
        }
    }
}

impl fmt::Debug for Vertex<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.to_data().fmt(f)
    }
}

/// The abstraction both the memory-resident and the disk-resident `HN`
/// expose to the traversal algorithms.
pub trait HnSource {
    /// Identifying name for reports ("memory" / "disk").
    fn backing(&self) -> &'static str;

    /// Materialized long-edge levels (ascending doubling chain).
    fn levels(&self) -> &[Time];

    /// Dataset horizon in ticks.
    fn horizon(&self) -> Time;

    /// Number of objects.
    fn num_objects(&self) -> usize;

    /// Fetches one vertex (charging IO where applicable). The view borrows
    /// the source until it is dropped.
    fn vertex(&mut self, v: u32) -> Result<Vertex<'_>, IndexError>;

    /// The vertex containing `o` at tick `t` (the paper's `Ht` lookup).
    fn node_of(&mut self, o: ObjectId, t: Time) -> Result<u32, IndexError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_view_slices_its_bundles() {
        let arena = [20, 30, 31];
        let bounds = [0, 1, 1, 3];
        let v = Vertex::in_arena(
            TimeInterval::new(3, 9),
            &[1, 4, 7],
            &[10],
            &[0],
            &arena,
            &bounds,
        );
        assert_eq!(v.num_bundles(), 3);
        assert_eq!(v.bundle(0), &[20]);
        assert!(v.bundle(1).is_empty());
        assert_eq!(v.bundle(2), &[30, 31]);
        assert_eq!(
            v.to_data(),
            VertexData {
                interval: TimeInterval::new(3, 9),
                members: vec![1, 4, 7],
                fwd: vec![10],
                rev: vec![0],
                bundles: vec![vec![20], vec![], vec![30, 31]],
            }
        );
    }

    #[test]
    fn plain_vertex_has_no_bundles() {
        let v = Vertex::new(TimeInterval::new(0, 0), &[2, 5, 9], &[], &[]);
        assert_eq!(v.num_bundles(), 0);
        assert_eq!(v.to_data().bundles, Vec::<Vec<u32>>::new());
    }
}
