//! Post-run metric aggregation: interval algebra, overlap efficiency, and
//! the [`TraceSummary`] surfaced through `RunReport`/`RtReport`.

use dcuda_des::stats::LatencyHistogram;

/// A set of disjoint, sorted half-open intervals `[start, end)` in
//  picoseconds of simulated time.
#[derive(Debug, Clone, Default)]
pub struct IntervalSet {
    iv: Vec<(u64, u64)>,
    normalized: bool,
}

impl IntervalSet {
    /// An empty set.
    pub fn new() -> Self {
        IntervalSet {
            iv: Vec::new(),
            normalized: true,
        }
    }

    /// Add one interval (any order; zero-length intervals are dropped).
    pub fn push(&mut self, start_ps: u64, end_ps: u64) {
        if end_ps > start_ps {
            self.iv.push((start_ps, end_ps));
            self.normalized = false;
        }
    }

    /// Sort and merge overlapping/adjacent intervals.
    pub fn normalize(&mut self) {
        if self.normalized {
            return;
        }
        self.iv.sort_unstable();
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(self.iv.len());
        for &(s, e) in &self.iv {
            match merged.last_mut() {
                Some(last) if s <= last.1 => last.1 = last.1.max(e),
                _ => merged.push((s, e)),
            }
        }
        self.iv = merged;
        self.normalized = true;
    }

    /// The merged intervals (normalizes first).
    pub fn intervals(&mut self) -> &[(u64, u64)] {
        self.normalize();
        &self.iv
    }

    /// Total covered picoseconds.
    pub fn total_ps(&mut self) -> u64 {
        self.normalize();
        self.iv.iter().map(|&(s, e)| e - s).sum()
    }

    /// Picoseconds of `self` that are also covered by `other`
    /// (`|self ∩ other|`). Both sets are normalized; the sweep is
    /// O(|self| + |other|).
    pub fn intersection_ps(&mut self, other: &mut IntervalSet) -> u64 {
        self.normalize();
        other.normalize();
        let (a, b) = (&self.iv, &other.iv);
        let (mut i, mut j, mut covered) = (0usize, 0usize, 0u64);
        while i < a.len() && j < b.len() {
            let lo = a[i].0.max(b[j].0);
            let hi = a[i].1.min(b[j].1);
            if hi > lo {
                covered += hi - lo;
            }
            if a[i].1 <= b[j].1 {
                i += 1;
            } else {
                j += 1;
            }
        }
        covered
    }

    /// Merge another set into this one.
    pub fn union_with(&mut self, other: &IntervalSet) {
        self.iv.extend_from_slice(&other.iv);
        self.normalized = false;
    }

    /// True if no interval was recorded.
    pub fn is_empty(&self) -> bool {
        self.iv.is_empty()
    }
}

/// Overlap efficiency (the quantity paper Figures 7/8 visualize): of all the
/// time ranks spent blocked (wait/flush/barrier), the fraction during which
/// at least one *other* rank resident on the same device was executing
/// compute — i.e. the wait was actually hidden by over-subscription.
///
/// `waits[r]` / `computes[r]` are per-rank interval sets; `device_of[r]`
/// maps a rank to its device. Returns `None` when no rank ever waited.
///
/// A rank cannot compute while it waits, so intersecting a rank's waits with
/// the union of its device's compute intervals equals intersecting with the
/// union over *other* ranks only.
pub fn overlap_efficiency(
    waits: &mut [IntervalSet],
    computes: &mut [IntervalSet],
    device_of: &[u32],
) -> Option<f64> {
    assert_eq!(waits.len(), computes.len());
    assert_eq!(waits.len(), device_of.len());
    let devices = device_of.iter().copied().max().map_or(0, |d| d + 1);
    let mut device_compute: Vec<IntervalSet> = (0..devices).map(|_| IntervalSet::new()).collect();
    for (r, c) in computes.iter_mut().enumerate() {
        c.normalize();
        device_compute[device_of[r] as usize].union_with(c);
    }
    let mut total = 0u64;
    let mut covered = 0u64;
    for (r, w) in waits.iter_mut().enumerate() {
        total += w.total_ps();
        covered += w.intersection_ps(&mut device_compute[device_of[r] as usize]);
    }
    (total > 0).then(|| covered as f64 / total as f64)
}

/// Metric aggregates of one traced run, surfaced as `RunReport::trace` /
/// `RtReport` extensions. All values derive from simulated time and
/// deterministic counters.
#[derive(Debug, Clone, Default)]
pub struct TraceSummary {
    /// Fraction of rank wait-time covered by other runnable ranks on the
    /// same device (`None` if no rank ever waited).
    pub overlap_efficiency: Option<f64>,
    /// Histogram of individual wait spans (wait/flush/barrier), log2-µs
    /// bucketed.
    pub wait_hist: LatencyHistogram,
    /// Histogram of network message latencies (injection to arrival).
    pub net_hist: LatencyHistogram,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(iv: &[(u64, u64)]) -> IntervalSet {
        let mut s = IntervalSet::new();
        for &(a, b) in iv {
            s.push(a, b);
        }
        s
    }

    #[test]
    fn normalize_merges_overlaps() {
        let mut s = set(&[(5, 10), (0, 6), (20, 30), (10, 12)]);
        assert_eq!(s.intervals(), &[(0, 12), (20, 30)]);
        assert_eq!(s.total_ps(), 22);
    }

    #[test]
    fn zero_length_dropped() {
        let mut s = set(&[(5, 5)]);
        assert!(s.is_empty());
        assert_eq!(s.total_ps(), 0);
    }

    #[test]
    fn intersection_sweep() {
        let mut a = set(&[(0, 10), (20, 30)]);
        let mut b = set(&[(5, 25)]);
        assert_eq!(a.intersection_ps(&mut b), 5 + 5);
        assert_eq!(b.intersection_ps(&mut a), 10);
    }

    #[test]
    fn overlap_fully_hidden() {
        // Rank 0 waits [0,10); rank 1 (same device) computes [0,10).
        let mut waits = vec![set(&[(0, 10)]), IntervalSet::new()];
        let mut computes = vec![IntervalSet::new(), set(&[(0, 10)])];
        let eff = overlap_efficiency(&mut waits, &mut computes, &[0, 0]);
        assert_eq!(eff, Some(1.0));
    }

    #[test]
    fn overlap_not_hidden_across_devices() {
        // The computing rank lives on another device: nothing is hidden.
        let mut waits = vec![set(&[(0, 10)]), IntervalSet::new()];
        let mut computes = vec![IntervalSet::new(), set(&[(0, 10)])];
        let eff = overlap_efficiency(&mut waits, &mut computes, &[0, 1]);
        assert_eq!(eff, Some(0.0));
    }

    #[test]
    fn overlap_partial() {
        let mut waits = vec![set(&[(0, 10)]), IntervalSet::new()];
        let mut computes = vec![IntervalSet::new(), set(&[(0, 4)])];
        let eff = overlap_efficiency(&mut waits, &mut computes, &[0, 0]);
        assert_eq!(eff, Some(0.4));
    }

    #[test]
    fn no_waits_is_none() {
        let mut waits = vec![IntervalSet::new()];
        let mut computes = vec![set(&[(0, 4)])];
        assert_eq!(overlap_efficiency(&mut waits, &mut computes, &[0]), None);
    }
}
