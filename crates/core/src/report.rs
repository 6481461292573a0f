//! Run outcome and statistics.

use dcuda_des::{SimDuration, SimTime};
use dcuda_trace::TraceSummary;
use dcuda_verify::{RaceReport, VerifyReport};

/// Statistics and timing of one simulated kernel run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Instant the last rank finished (kernel completion).
    pub end_time: SimTime,
    /// Per-rank finish instants.
    pub rank_finish: Vec<SimTime>,
    /// Remote memory accesses issued (puts + gets).
    pub rma_ops: u64,
    /// Operations satisfied by the zero-copy fast path (identical source and
    /// destination addresses in overlapping shared-memory windows).
    pub zero_copy_ops: u64,
    /// Shared-memory (same-device) operations, zero-copy or not.
    pub shared_ops: u64,
    /// Distributed (cross-node) operations.
    pub distributed_ops: u64,
    /// Notifications delivered to ranks.
    pub notifications: u64,
    /// Notification-queue entries scanned by matching (the paper's matching
    /// cost is proportional to this).
    pub notifications_scanned: u64,
    /// Barrier collectives completed.
    pub barriers: u64,
    /// Network messages injected (meta + data).
    pub net_messages: u64,
    /// Network messages that took the host-staged path.
    pub net_staged: u64,
    /// Total payload bytes moved across the network.
    pub net_bytes: u64,
    /// Total simulation events processed.
    pub events: u64,
    /// High-water mark of the event queue (scheduled, not yet fired).
    pub peak_event_queue: u64,
    /// Payload snapshot buffers handed out by the pool (host-side metric;
    /// does not affect modeled time).
    pub pool_acquires: u64,
    /// Pool acquires served without allocating.
    pub pool_hits: u64,
    /// Trace-derived aggregates (wait and network latency histograms,
    /// overlap efficiency). `None` unless tracing was enabled before the run.
    pub trace: Option<TraceSummary>,
    /// Invariant-monitor verdict (notification conservation, exactly-once
    /// delivery, matched ≤ delivered). `None` unless verify mode was on
    /// when the simulation was built (see [`crate::verify_mode`]).
    pub verify: Option<VerifyReport>,
    /// Happens-before races the detector found on window memory. Always
    /// empty unless race detection was on when the simulation was built
    /// (see [`crate::verify_mode::enable_races`]).
    pub races: Vec<RaceReport>,
}

impl RunReport {
    /// Kernel execution time as a duration from t = 0.
    pub fn elapsed(&self) -> SimDuration {
        self.end_time.since(SimTime::ZERO)
    }
}
