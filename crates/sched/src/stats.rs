//! Aggregate scheduler statistics.

/// Aggregate statistics of the multi-tenant job scheduler: one long-lived
/// cluster serving a stream of job submissions. Counters are cumulative
/// since the scheduler was created; depth/slot fields are a snapshot at the
/// instant the stats were taken.
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
