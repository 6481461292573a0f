//! FIFO serializing resource (store-and-forward server).
//!
//! Models a link that transmits one message at a time: a NIC injection port,
//! a PCI-Express lane, a DMA engine. Because service times are deterministic
//! and the discipline is FIFO, the completion instant of a submission is
//! known immediately: `max(now, busy_until) + service`. The resource
//! therefore needs no internal events — the caller schedules delivery at the
//! returned instant.

use crate::time::{SimDuration, SimTime};

/// Identifier of a job accepted by a [`FifoResource`] (monotonic sequence).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct FifoJobId(pub u64);

/// A FIFO store-and-forward server.
#[derive(Debug, Clone)]
pub struct FifoResource {
    busy_until: SimTime,
    next_id: u64,
    /// Cumulative busy time, for utilization statistics.
    busy_total: SimDuration,
    /// Cumulative queueing delay experienced by submissions.
    queued_total: SimDuration,
}

impl FifoResource {
    /// Create an idle resource.
    pub fn new() -> Self {
        FifoResource {
            busy_until: SimTime::ZERO,
            next_id: 0,
            busy_total: SimDuration::ZERO,
            queued_total: SimDuration::ZERO,
        }
    }

    /// Submit a job at `now` requiring `service` time. Returns the job id and
    /// the instant at which the job completes (leaves the server).
    pub fn submit(&mut self, now: SimTime, service: SimDuration) -> (FifoJobId, SimTime) {
        let start = if self.busy_until > now {
            self.queued_total += self.busy_until.since(now);
            self.busy_until
        } else {
            now
        };
        let done = start + service;
        self.busy_until = done;
        self.busy_total += service;
        let id = FifoJobId(self.next_id);
        self.next_id += 1;
        (id, done)
    }

    /// Instant at which the server drains, given no further submissions.
    #[inline]
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Cumulative service time delivered.
    #[inline]
    pub fn busy_total(&self) -> SimDuration {
        self.busy_total
    }

    /// Cumulative queueing delay imposed on submissions.
    #[inline]
    pub fn queued_total(&self) -> SimDuration {
        self.queued_total
    }

    /// Number of jobs accepted.
    #[inline]
    pub fn jobs_accepted(&self) -> u64 {
        self.next_id
    }
}

impl Default for FifoResource {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const US: u64 = 1_000_000; // ps per microsecond

    #[test]
    fn idle_server_serves_immediately() {
        let mut f = FifoResource::new();
        let (_, done) = f.submit(SimTime::from_ps(10 * US), SimDuration::from_micros(5));
        assert_eq!(done, SimTime::from_ps(15 * US));
    }

    #[test]
    fn back_to_back_jobs_serialize() {
        let mut f = FifoResource::new();
        let t0 = SimTime::ZERO;
        let (_, d1) = f.submit(t0, SimDuration::from_micros(3));
        let (_, d2) = f.submit(t0, SimDuration::from_micros(4));
        assert_eq!(d1, SimTime::from_ps(3 * US));
        assert_eq!(d2, SimTime::from_ps(7 * US));
        assert_eq!(f.queued_total(), SimDuration::from_micros(3));
    }

    #[test]
    fn gap_resets_queueing() {
        let mut f = FifoResource::new();
        f.submit(SimTime::ZERO, SimDuration::from_micros(1));
        // Arrives after the server drained: no queueing.
        let (_, done) = f.submit(SimTime::from_ps(10 * US), SimDuration::from_micros(2));
        assert_eq!(done, SimTime::from_ps(12 * US));
        assert_eq!(f.queued_total(), SimDuration::ZERO);
    }

    #[test]
    fn utilization_accounting() {
        let mut f = FifoResource::new();
        f.submit(SimTime::ZERO, SimDuration::from_micros(2));
        f.submit(SimTime::ZERO, SimDuration::from_micros(2));
        assert_eq!(f.busy_total(), SimDuration::from_micros(4));
        assert_eq!(f.jobs_accepted(), 2);
    }

    #[test]
    fn ids_are_monotonic() {
        let mut f = FifoResource::new();
        let (a, _) = f.submit(SimTime::ZERO, SimDuration::ZERO);
        let (b, _) = f.submit(SimTime::ZERO, SimDuration::ZERO);
        assert!(b.0 > a.0);
    }
}
