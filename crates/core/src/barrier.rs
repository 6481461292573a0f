//! Timing model of the dissemination barrier.
//!
//! Both programming models use a barrier (`MPI_Barrier` on the host for
//! MPI-CUDA; the dCUDA `barrier` collective among ranks). This is pure
//! timing algebra over the schedule the real implementation uses: per-
//! participant *exit times* from per-participant *entry times*, so it
//! composes with the event-driven parts of the simulation without needing
//! its own processes.

use dcuda_des::{SimDuration, SimTime};

/// Dissemination barrier: ⌈log2 n⌉ rounds; in round `k`, participant `i`
/// signals `(i + 2^k) mod n` and waits for `(i - 2^k) mod n`. `hop` is the
/// cost of one (empty) signal between two participants — contention-free,
/// as the hops of one round are disjoint sender/receiver pairs.
///
/// Returns per-participant exit times. Panics if `entry` is empty.
pub fn barrier_exit_times(entry: &[SimTime], hop: SimDuration) -> Vec<SimTime> {
    assert!(!entry.is_empty(), "barrier over zero participants");
    let n = entry.len();
    let mut t = entry.to_vec();
    let mut k = 1usize;
    while k < n {
        let prev = t.clone();
        for i in 0..n {
            let peer = (i + n - (k % n)) % n;
            // Signal from `peer` departs at peer's current time and lands
            // `hop` later; participant `i` proceeds at the max.
            t[i] = prev[i].max(prev[peer] + hop);
        }
        k <<= 1;
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    const HOP: SimDuration = SimDuration::from_micros(1);

    #[test]
    fn barrier_single_rank_is_free() {
        assert_eq!(barrier_exit_times(&[t(5)], HOP), vec![t(5)]);
    }

    #[test]
    fn barrier_two_ranks_wait_for_slowest() {
        let out = barrier_exit_times(&[t(0), t(10)], HOP);
        // Rank 0 waits for rank 1's signal: 10 + 1 = 11. Rank 1 waits for
        // rank 0's: max(10, 0+1) = 10.
        assert_eq!(out[0], t(11));
        assert_eq!(out[1], t(10));
    }

    #[test]
    fn barrier_exit_after_global_max_entry() {
        // Dissemination correctness: every exit >= max entry (all-to-all
        // dependency closure over ceil(log2 8) = 3 rounds with stride 1,2,4
        // reaches every predecessor), and never before the own entry.
        let entry = vec![t(3), t(1), t(4), t(1), t(5), t(9), t(2), t(6)];
        let out = barrier_exit_times(&entry, HOP);
        let max_entry = *entry.iter().max().unwrap();
        for (e, x) in entry.iter().zip(&out) {
            assert!(x >= e);
            assert!(*x >= max_entry, "{x} < {max_entry}");
        }
    }

    #[test]
    fn barrier_log_rounds_cost() {
        // Synchronized entry: exit = entry + ceil(log2 n) hops.
        for x in barrier_exit_times(&[t(0); 8], HOP) {
            assert_eq!(x, t(3));
        }
        for x in barrier_exit_times(&[t(0); 9], HOP) {
            assert_eq!(x, t(4), "9 ranks need 4 rounds");
        }
    }
}
