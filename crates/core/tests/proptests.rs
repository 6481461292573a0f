//! Property-based tests for window layouts, the topology algebra and the
//! barrier timing model.

use dcuda_core::barrier::barrier_exit_times;
use dcuda_core::types::{Rank, Topology};
use dcuda_core::window::{Arena, WindowSpec};
use dcuda_des::check::{forall, Gen};
use dcuda_des::{SimDuration, SimTime};

fn topo(g: &mut Gen) -> Topology {
    Topology {
        nodes: 1 + g.u32_below(5),
        ranks_per_node: 1 + g.u32_below(15),
    }
}

/// Topology round trips: rank -> (node, local) -> rank.
#[test]
fn topology_round_trip() {
    forall("topology_round_trip", 256, |g| {
        let t = topo(g);
        for r in t.ranks() {
            let node = t.node_of(r);
            let local = t.local_of(r);
            assert!(node < t.nodes);
            assert!(local < t.ranks_per_node);
            assert_eq!(t.rank_of(node, local), r);
        }
    });
}

/// Uniform windows are disjoint per node and fit the arena exactly.
#[test]
fn uniform_windows_are_disjoint() {
    forall("uniform_windows_are_disjoint", 256, |g| {
        let t = topo(g);
        let bytes = g.usize_in(1, 512);
        let w = WindowSpec::uniform(&t, bytes);
        w.validate(&t);
        for node in 0..t.nodes {
            let mut ranges: Vec<_> = (0..t.ranks_per_node)
                .map(|l| w.range_of(t.rank_of(node, l)))
                .collect();
            ranges.sort_by_key(|r| r.start);
            for pair in ranges.windows(2) {
                assert!(pair[0].end <= pair[1].start, "overlap in uniform layout");
            }
            assert_eq!(w.arena_len(&t, node), bytes * t.ranks_per_node as usize);
        }
    });
}

/// Halo-ring windows overlap adjacent on-device ranks by exactly the
/// halo on each side, and the zero-copy geometry holds: a rank's first
/// interior byte coincides with its left neighbour's right-halo start.
#[test]
fn halo_ring_geometry() {
    forall("halo_ring_geometry", 256, |g| {
        let t = topo(g);
        let interior = (g.usize_in(8, 256) & !7).max(8); // keep 8-aligned
        let halo = g.usize_in(1, 8) * 8;
        let w = WindowSpec::halo_ring(&t, interior, halo);
        w.validate(&t);
        for r in t.ranks() {
            if t.local_of(r) == 0 {
                continue;
            }
            let left = Rank(r.0 - 1);
            let my_first_interior = w.range_of(r).start + halo;
            let left_right_halo = w.range_of(left).start + halo + interior;
            assert_eq!(my_first_interior, left_right_halo);
        }
        // Arena covers all windows.
        for node in 0..t.nodes {
            let len = w.arena_len(&t, node);
            for l in 0..t.ranks_per_node {
                assert!(w.range_of(t.rank_of(node, l)).end <= len);
            }
        }
    });
}

/// Arena byte/f64 views agree for any 8-aligned write.
#[test]
fn arena_views_consistent() {
    forall("arena_views_consistent", 256, |g| {
        let words: Vec<u64> = (0..g.usize_in(1, 64)).map(|_| g.u64()).collect();
        let mut a = Arena::new(words.len() * 8);
        for (i, &w) in words.iter().enumerate() {
            a.bytes_mut()[i * 8..(i + 1) * 8].copy_from_slice(&w.to_le_bytes());
        }
        let f = dcuda_core::window::f64_slice(a.bytes());
        for (i, &w) in words.iter().enumerate() {
            assert_eq!(f[i].to_bits(), w);
        }
    });
}

/// A barrier never releases anyone before the last entrant, and every
/// exit is at or after the participant's own entry.
#[test]
fn barrier_is_a_barrier() {
    forall("barrier_is_a_barrier", 256, |g| {
        let entry: Vec<SimTime> = (0..g.usize_in(1, 20))
            .map(|_| SimTime::from_ps(g.u64_below(10_000) * 1_000_000))
            .collect();
        let exits = barrier_exit_times(&entry, SimDuration::from_micros(2));
        let max_entry = *entry.iter().max().unwrap();
        for (e, x) in entry.iter().zip(&exits) {
            assert!(x >= e);
            if entry.len() > 1 {
                assert!(*x >= max_entry, "exit {x} before last entry {max_entry}");
            }
        }
        // Bounded: at most ceil(log2 n) rounds of hops beyond the max entry.
        let rounds = (usize::BITS - (entry.len() - 1).leading_zeros()).max(1);
        let bound = max_entry + SimDuration::from_micros(3 * rounds as u64);
        for x in &exits {
            assert!(*x <= bound);
        }
    });
}
