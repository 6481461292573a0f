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
    /// High-water mark of any single rank's pending-notification backlog.
    pub peak_pending_notifications: u64,
    /// Payload snapshot buffers handed out by the pool (host-side metric;
    /// does not affect modeled time).
    pub pool_acquires: u64,
    /// Pool acquires served without allocating.
    pub pool_hits: u64,
    /// Trace-derived aggregates (wait histograms, occupancy, overlap
    /// efficiency). `None` unless tracing was enabled before the run.
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

/// Aggregate statistics of the multi-tenant job scheduler (`dcuda-sched`):
/// one long-lived cluster serving a stream of job submissions. Counters are
/// cumulative since the scheduler was created; depth/slot fields are a
/// snapshot at the instant the stats were taken.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SchedStats {
    /// Jobs offered via `submit` (accepted into the queue or not).
    pub submitted: u64,
    /// Jobs admitted onto cluster capacity (gang-scheduled and started).
    pub admitted: u64,
    /// Admitted jobs that ran to completion.
    pub completed: u64,
    /// Admitted jobs that ended with a typed `RtError` (panic, race, ...).
    pub failed: u64,
    /// Jobs cancelled — dequeued before admission or torn down mid-run.
    pub cancelled: u64,
    /// Submissions rejected at admission control (quota, queue full,
    /// impossible shape, draining).
    pub rejected: u64,
    /// Jobs currently queued, waiting for capacity.
    pub queue_depth: u64,
    /// High-water mark of the queue depth.
    pub peak_queue_depth: u64,
    /// Jobs currently running on cluster capacity.
    pub running: u64,
    /// Total rank slots of the cluster (`devices * ranks_per_device`).
    pub slots_total: u64,
    /// Rank slots currently leased to running jobs.
    pub slots_busy: u64,
    /// High-water mark of leased slots.
    pub peak_slots_busy: u64,
    /// Time integral of `slots_busy` in nanosecond-slots — the numerator of
    /// device utilization (see [`SchedStats::utilization`]).
    pub busy_slot_nanos: u128,
    /// Runner threads started. Runners are reused across jobs, so a busy
    /// scheduler starts far fewer than it admits jobs.
    pub runners_started: u64,
}

impl SchedStats {
    /// Mean device utilization over a window of `elapsed_nanos` wall time:
    /// busy-slot time divided by total slot capacity over the window, in
    /// `[0, 1]`. Returns 0 for an empty window or zero-capacity cluster.
    pub fn utilization(&self, elapsed_nanos: u128) -> f64 {
        let denom = elapsed_nanos.saturating_mul(u128::from(self.slots_total));
        if denom == 0 {
            return 0.0;
        }
        (self.busy_slot_nanos as f64 / denom as f64).min(1.0)
    }

    /// Jobs that reached a terminal state (`completed + failed + cancelled`).
    pub fn finished(&self) -> u64 {
        self.completed + self.failed + self.cancelled
    }
}
