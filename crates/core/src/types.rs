//! Identifiers of the dCUDA programming model. [`Rank`] and [`WinId`] are
//! `dcuda-queues`' typed ids, the runtime's too.

pub use dcuda_queues::{Rank, WindowId as WinId};

/// A notification tag.
pub type Tag = u32;

/// Placement of ranks onto cluster nodes: `ranks_per_node` consecutive world
/// ranks per node (the paper maps the 208 blocks of each device to
/// consecutive ranks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    /// Number of cluster nodes (one device per node, as on Greina).
    pub nodes: u32,
    /// Ranks (blocks) per node.
    pub ranks_per_node: u32,
}

impl Topology {
    /// Total world size.
    #[inline]
    pub fn world_size(&self) -> u32 {
        self.nodes * self.ranks_per_node
    }

    /// Node hosting `rank`.
    #[inline]
    pub fn node_of(&self, rank: Rank) -> u32 {
        rank.0 / self.ranks_per_node
    }

    /// Rank's index within its node (its identifier in the device
    /// communicator).
    #[inline]
    pub fn local_of(&self, rank: Rank) -> u32 {
        rank.0 % self.ranks_per_node
    }

    /// The world rank of local index `local` on `node`.
    #[inline]
    pub fn rank_of(&self, node: u32, local: u32) -> Rank {
        debug_assert!(node < self.nodes && local < self.ranks_per_node);
        Rank(node * self.ranks_per_node + local)
    }

    /// Iterate all world ranks.
    pub fn ranks(&self) -> impl Iterator<Item = Rank> {
        (0..self.world_size()).map(Rank)
    }

    /// True if both ranks live on the same device (shared-memory peers).
    #[inline]
    pub fn same_device(&self, a: Rank, b: Rank) -> bool {
        self.node_of(a) == self.node_of(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_math() {
        let t = Topology {
            nodes: 4,
            ranks_per_node: 208,
        };
        assert_eq!(t.world_size(), 832);
        assert_eq!(t.node_of(Rank(0)), 0);
        assert_eq!(t.node_of(Rank(207)), 0);
        assert_eq!(t.node_of(Rank(208)), 1);
        assert_eq!(t.local_of(Rank(209)), 1);
        assert_eq!(t.rank_of(3, 5), Rank(3 * 208 + 5));
        assert!(t.same_device(Rank(0), Rank(207)));
        assert!(!t.same_device(Rank(207), Rank(208)));
    }

    #[test]
    fn ranks_iterator_covers_world() {
        let t = Topology {
            nodes: 2,
            ranks_per_node: 3,
        };
        let all: Vec<_> = t.ranks().collect();
        assert_eq!(all.len(), 6);
        assert_eq!(all[0], Rank(0));
        assert_eq!(all[5], Rank(5));
    }
}
