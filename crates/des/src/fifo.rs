//! FIFO serializing resource (store-and-forward server).
//!
//! Models a link that transmits one message at a time: a NIC injection port,
//! a PCI-Express lane, a DMA engine. Because service times are deterministic
//! and the discipline is FIFO, the completion instant of a submission is
//! known immediately: `max(now, busy_until) + service`. The resource
//! therefore needs no internal events — the caller schedules delivery at the
//! returned instant.

use crate::time::{SimDuration, SimTime};

/// A FIFO store-and-forward server.
#[derive(Debug, Clone, Default)]
pub struct FifoResource {
    busy_until: SimTime,
}

impl FifoResource {
    /// Create an idle resource.
    pub fn new() -> Self {
        Self::default()
    }

    /// Submit a job at `now` requiring `service` time. Returns the instant
    /// at which the job completes (leaves the server).
    pub fn submit(&mut self, now: SimTime, service: SimDuration) -> SimTime {
        let done = self.busy_until.max(now) + service;
        self.busy_until = done;
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const US: u64 = 1_000_000; // ps per microsecond

    #[test]
    fn idle_server_serves_immediately() {
        let mut f = FifoResource::new();
        let done = f.submit(SimTime::from_ps(10 * US), SimDuration::from_micros(5));
        assert_eq!(done, SimTime::from_ps(15 * US));
    }

    #[test]
    fn back_to_back_jobs_serialize() {
        let mut f = FifoResource::new();
        let t0 = SimTime::ZERO;
        let d1 = f.submit(t0, SimDuration::from_micros(3));
        let d2 = f.submit(t0, SimDuration::from_micros(4));
        assert_eq!(d1, SimTime::from_ps(3 * US));
        assert_eq!(d2, SimTime::from_ps(7 * US));
    }

    #[test]
    fn gap_resets_queueing() {
        let mut f = FifoResource::new();
        f.submit(SimTime::ZERO, SimDuration::from_micros(1));
        // Arrives after the server drained: no queueing.
        let done = f.submit(SimTime::from_ps(10 * US), SimDuration::from_micros(2));
        assert_eq!(done, SimTime::from_ps(12 * US));
    }
}
