//! Statistics collection for simulation runs.
//!
//! Everything here is allocation-light and updates in O(1); the benchmark
//! harness reads the aggregates after a run.

use crate::time::SimDuration;

/// A monotonically increasing event counter.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counter(u64);

impl Counter {
    /// Increment by one.
    #[inline]
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current count.
    #[inline]
    pub fn get(self) -> u64 {
        self.0
    }
}

/// Running scalar summary: count, mean, min, max (Welford-free; sums are fine
/// at our magnitudes).
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Summary {
    fn default() -> Self {
        Summary {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl Summary {
    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of observations, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Minimum observation, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Maximum observation, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }
}

/// Power-of-two latency histogram over `SimDuration`s, bucketed by
/// microsecond log2 (bucket 0: <1 µs, bucket k: `[2^(k-1), 2^k)` µs).
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    summary: Summary,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: vec![0; 32],
            summary: Summary::default(),
        }
    }
}

impl LatencyHistogram {
    /// Record a latency sample.
    pub fn record(&mut self, d: SimDuration) {
        let us = d.as_micros_f64();
        self.summary.record(us);
        let bucket = if us < 1.0 {
            0
        } else {
            (us.log2().floor() as usize + 1).min(self.buckets.len() - 1)
        };
        self.buckets[bucket] += 1;
    }

    /// Raw bucket counts.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Scalar summary (in microseconds).
    pub fn summary(&self) -> &Summary {
        &self.summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let mut c = Counter::default();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn summary_aggregates() {
        let mut s = Summary::default();
        for x in [3.0, 1.0, 2.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 3);
        assert_eq!(s.mean(), Some(2.0));
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(3.0));
    }

    #[test]
    fn empty_summary_is_none() {
        let s = Summary::default();
        assert_eq!(s.mean(), None);
        assert_eq!(s.min(), None);
    }

    #[test]
    fn histogram_bucketing() {
        let mut h = LatencyHistogram::default();
        h.record(SimDuration::from_nanos(500)); // <1us -> bucket 0
        h.record(SimDuration::from_micros(1)); // [1,2) -> bucket 1
        h.record(SimDuration::from_micros(3)); // [2,4) -> bucket 2
        h.record(SimDuration::from_micros(19)); // [16,32) -> bucket 5
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.buckets()[1], 1);
        assert_eq!(h.buckets()[2], 1);
        assert_eq!(h.buckets()[5], 1);
        assert_eq!(h.summary().count(), 4);
    }
}
