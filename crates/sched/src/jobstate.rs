//! The job-table state machine.
//!
//! A job moves `submitted → queued → running → {completed, failed,
//! cancelled}`. Every transition happens under the scheduler's table mutex;
//! [`TableState::advance`] makes them explicit and rejects illegal moves.
//! Cancel-vs-complete is arbitrated by the job's runner: a controller raises
//! the job's `CancelToken` ([`CancelVerdict::Requested`]) and the runner,
//! which observes the token at its cancellation points, records whichever
//! end it reached.

/// Terminal outcome of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobEnd {
    /// The job ran to completion; its report and checksum are valid.
    Completed,
    /// The job ended with a typed `RtError` (rank panic, race, transport).
    Failed,
    /// The job was torn down by `cancel` — dequeued before admission or
    /// cancelled mid-run via its `CancelToken`.
    Cancelled,
}

impl JobEnd {
    /// Canonical wire/report name.
    pub fn name(self) -> &'static str {
        match self {
            JobEnd::Completed => "completed",
            JobEnd::Failed => "failed",
            JobEnd::Cancelled => "cancelled",
        }
    }
}

/// What a controller's cancel request achieved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelVerdict {
    /// The job was still live when the request landed; the runner's
    /// published outcome is authoritative (it may still complete if it never
    /// reaches another cancellation point).
    Requested,
    /// The job was already terminal with this outcome — the cancel changes
    /// nothing.
    AlreadyDone(JobEnd),
}

/// Lifecycle of a job-table row, serialized under the table mutex. The
/// terminal edge out of `Running` is the runner's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableState {
    /// Admitted into the queue, waiting for capacity.
    Queued,
    /// Gang-scheduled onto leased slots; a runner thread owns it.
    Running,
    /// Terminal (see [`JobEnd`]).
    Done(JobEnd),
}

impl TableState {
    /// Apply one legal transition; illegal moves (regressing out of a
    /// terminal state, skipping `Running` except for a queue-side cancel)
    /// return the unchanged state as `Err` so callers can surface the bug
    /// instead of corrupting the table.
    pub fn advance(self, next: TableState) -> Result<TableState, TableState> {
        let legal = matches!(
            (self, next),
            (TableState::Queued, TableState::Running)
                | (TableState::Queued, TableState::Done(JobEnd::Cancelled))
                | (TableState::Running, TableState::Done(_))
        );
        if legal {
            Ok(next)
        } else {
            Err(self)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_transitions() {
        let s = TableState::Queued;
        let s = s.advance(TableState::Running).unwrap();
        assert!(s.advance(TableState::Queued).is_err());
        let s = s.advance(TableState::Done(JobEnd::Failed)).unwrap();
        assert!(s.advance(TableState::Running).is_err());
        assert!(TableState::Queued
            .advance(TableState::Done(JobEnd::Cancelled))
            .is_ok());
        assert!(TableState::Queued
            .advance(TableState::Done(JobEnd::Completed))
            .is_err());
    }
}
