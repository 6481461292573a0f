//! Windows: the global address space of the dCUDA model.
//!
//! A window registers, for every rank, a range of its device's memory; a
//! `(rank, window, offset)` tuple then denotes a global distributed-memory
//! address (paper §II-C). Windows of ranks on the *same* device may overlap
//! physically — the stencil example overlaps each rank's halo with its
//! neighbour's interior so that on-device halo exchanges degenerate to
//! zero-copy no-ops, while cross-node exchanges copy into duplicated halo
//! cells (paper Figure 3).
//!
//! Memory is held in per-node [`Arena`]s (8-byte-aligned so kernels can view
//! their windows as `f64` slices).

use crate::types::{Rank, Topology};
use std::ops::Range;

/// Backing storage for all windows of one node (8-byte aligned).
pub struct Arena {
    words: Box<[u64]>,
    bytes: usize,
}

impl Arena {
    /// Allocate a zeroed arena of `bytes` bytes.
    pub fn new(bytes: usize) -> Self {
        Arena {
            words: vec![0u64; bytes.div_ceil(8)].into_boxed_slice(),
            bytes,
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.bytes
    }

    /// True if the arena is empty.
    pub fn is_empty(&self) -> bool {
        self.bytes == 0
    }

    /// View as bytes.
    pub fn bytes(&self) -> &[u8] {
        // SAFETY: u64 -> u8 reinterpretation is always valid (alignment 8 ->
        // 1, no padding, any bit pattern is a valid u8).
        unsafe { std::slice::from_raw_parts(self.words.as_ptr().cast::<u8>(), self.bytes) }
    }

    /// View as mutable bytes.
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        // SAFETY: as in `bytes`, plus we hold &mut self.
        unsafe { std::slice::from_raw_parts_mut(self.words.as_mut_ptr().cast::<u8>(), self.bytes) }
    }
}

/// View an 8-byte-aligned byte slice as `f64`s.
///
/// # Panics
/// Panics if the slice is misaligned or its length is not a multiple of 8 —
/// both indicate a window-layout bug in the calling kernel.
pub fn f64_slice_mut(bytes: &mut [u8]) -> &mut [f64] {
    // SAFETY: alignment and length are checked; any bit pattern is a valid
    // f64.
    let (prefix, mid, suffix) = unsafe { bytes.align_to_mut::<f64>() };
    assert!(
        prefix.is_empty() && suffix.is_empty(),
        "window region is not f64-aligned (offset or length not a multiple of 8)"
    );
    mid
}

/// Immutable variant of [`f64_slice_mut`].
pub fn f64_slice(bytes: &[u8]) -> &[f64] {
    let (prefix, mid, suffix) = unsafe { bytes.align_to::<f64>() };
    assert!(
        prefix.is_empty() && suffix.is_empty(),
        "window region is not f64-aligned (offset or length not a multiple of 8)"
    );
    mid
}

/// Declarative window layout: for every world rank, the byte range of its
/// window within its node's arena for this window.
#[derive(Debug, Clone)]
pub struct WindowSpec {
    /// Per world-rank range (indexed by `Rank::index`).
    pub ranges: Vec<Range<usize>>,
}

impl WindowSpec {
    /// Non-overlapping layout: every rank gets `bytes_per_rank` private
    /// bytes, laid out consecutively per node.
    pub fn uniform(topo: &Topology, bytes_per_rank: usize) -> Self {
        let ranges = topo
            .ranks()
            .map(|r| {
                let local = topo.local_of(r) as usize;
                local * bytes_per_rank..(local + 1) * bytes_per_rank
            })
            .collect();
        WindowSpec { ranges }
    }

    /// Stencil-style overlapping layout along a 1-D ring of ranks: each rank
    /// owns `interior` bytes and its window extends one `halo` to each side.
    /// On-device neighbours' windows physically overlap (zero-copy
    /// exchanges); the two node-edge halos are duplicated storage (real
    /// copies across the network) — paper Figure 3.
    ///
    /// Within a rank's window, its own interior starts at byte `halo`.
    pub fn halo_ring(topo: &Topology, interior: usize, halo: usize) -> Self {
        let ranges = topo
            .ranks()
            .map(|r| {
                let local = topo.local_of(r) as usize;
                let start = local * interior;
                start..start + interior + 2 * halo
            })
            .collect();
        WindowSpec { ranges }
    }

    /// The byte range of `rank`'s window within its node arena.
    pub fn range_of(&self, rank: Rank) -> Range<usize> {
        self.ranges[rank.index()].clone()
    }

    /// Arena size needed on `node` (max range end over its local ranks).
    pub fn arena_len(&self, topo: &Topology, node: u32) -> usize {
        (0..topo.ranks_per_node)
            .map(|l| self.ranges[topo.rank_of(node, l).index()].end)
            .max()
            .unwrap_or(0)
    }

    /// Validate the layout against a topology (length, containment).
    ///
    /// # Panics
    /// Panics with a descriptive message on any inconsistency.
    pub fn validate(&self, topo: &Topology) {
        assert_eq!(
            self.ranges.len(),
            topo.world_size() as usize,
            "window must define a range for every world rank"
        );
        for r in &self.ranges {
            assert!(r.start <= r.end, "inverted window range {r:?}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Topology {
        Topology {
            nodes: 2,
            ranks_per_node: 4,
        }
    }

    #[test]
    fn arena_is_zeroed_and_sized() {
        let a = Arena::new(100);
        assert_eq!(a.len(), 100);
        assert!(a.bytes().iter().all(|&b| b == 0));
    }

    #[test]
    fn arena_f64_view_round_trips() {
        let mut a = Arena::new(64);
        {
            let f = f64_slice_mut(a.bytes_mut());
            assert_eq!(f.len(), 8);
            f[3] = 2.5;
        }
        let f = f64_slice(a.bytes());
        assert_eq!(f[3], 2.5);
        assert_eq!(f[0], 0.0);
    }

    #[test]
    #[should_panic(expected = "not f64-aligned")]
    fn misaligned_view_panics() {
        let mut a = Arena::new(64);
        let bytes = &mut a.bytes_mut()[4..20];
        let _ = f64_slice_mut(bytes);
    }

    #[test]
    fn uniform_layout_is_disjoint() {
        let t = topo();
        let w = WindowSpec::uniform(&t, 100);
        w.validate(&t);
        assert_eq!(w.range_of(Rank(0)), 0..100);
        assert_eq!(w.range_of(Rank(3)), 300..400);
        // Same layout on the second node.
        assert_eq!(w.range_of(Rank(4)), 0..100);
        assert_eq!(w.arena_len(&t, 0), 400);
    }

    #[test]
    fn halo_ring_overlaps_on_device() {
        let t = topo();
        let w = WindowSpec::halo_ring(&t, 100, 10);
        w.validate(&t);
        // Rank 0: window [0, 120); its interior is [10, 110) in window
        // coordinates = arena [0+10-10 ... let's check absolutes.
        assert_eq!(w.range_of(Rank(0)), 0..120);
        assert_eq!(w.range_of(Rank(1)), 100..220);
        // Rank 0's right halo (window bytes [110,120) = arena [110,120))
        // coincides with rank 1's left interior start (arena 100+10=110). ✓
        let r0 = w.range_of(Rank(0));
        let r1 = w.range_of(Rank(1));
        assert!(r0.end > r1.start, "neighbour windows overlap");
        // Arena covers 4 interiors + 2 edge halos.
        assert_eq!(w.arena_len(&t, 0), 4 * 100 + 20);
    }

    #[test]
    fn zero_copy_geometry() {
        // The put a stencil rank issues to its on-device left neighbour
        // targets the same absolute bytes it computed into: put from own
        // window offset `halo` (first interior line) to neighbour offset
        // `halo + interior` (their right halo).
        let t = topo();
        let interior = 100;
        let halo = 10;
        let w = WindowSpec::halo_ring(&t, interior, halo);
        let me = Rank(1);
        let left = Rank(0);
        let src_abs = w.range_of(me).start + halo; // my first interior byte
        let dst_abs = w.range_of(left).start + halo + interior; // their right halo
        assert_eq!(src_abs, dst_abs, "on-device halo put is zero-copy");
    }

    #[test]
    #[should_panic(expected = "every world rank")]
    fn validate_rejects_short_layout() {
        let t = topo();
        let w = WindowSpec {
            ranges: vec![0..10; 3],
        };
        w.validate(&t);
    }
}
