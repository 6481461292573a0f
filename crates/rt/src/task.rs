//! Rank programs as resumable tasks, and the two ways to run them.
//!
//! In the paper a block waiting in `wait_notifications` is not a thread: it
//! is one of the resident blocks the SM switches between for free. A
//! [`RankTask`] is a rank program written the same way — a state machine
//! that runs until it would wait, then suspends with a [`Step`] naming what
//! it waits for. Two drivers run the same tasks:
//!
//! * the **cooperative driver** ([`try_run_cluster_job`]) runs a whole
//!   in-process world on the calling thread: each sweep resumes the ready
//!   tasks in rank order, tests what the waiting ones wait for, and runs
//!   one pass of every device engine;
//! * the **thread-per-rank adapter** ([`thread_per_rank`], over
//!   [`run_blocking`]) turns each task into a [`RankProgram`] that answers
//!   every step with the matching blocking [`RtCtx`] call, for
//!   [`try_run_cluster`](crate::try_run_cluster) and every other threaded
//!   entry point.
//!
//! Both make the same runtime calls in the same order, so a world's
//! checksums and protocol counters do not depend on the driver.
//!
//! [`try_run_cluster_job`]: crate::try_run_cluster_job

use crate::cluster::{panic_text, take_first, CancelToken, RankProgram, RtReport, World};
use crate::coll::CollWait;
use crate::ctx::RtCtx;
use crate::host::HostOutcome;
use crate::types::{RtError, RtQuery};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Why a [`RankTask`] returned control to its driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Resume once `count` notifications matching `query` have been matched
    /// (`dcuda_wait_notifications`; the driver consumes them).
    Wait {
        /// Notifications to match.
        query: RtQuery,
        /// How many.
        count: usize,
    },
    /// Resume once every operation this rank issued has completed
    /// (`dcuda_win_flush`).
    Flush,
    /// Resume once the collective notification a
    /// [`Collective`](crate::Collective) suspended on has been matched;
    /// then poll that collective again.
    Coll(CollWait),
    /// The program finished with this checksum.
    Done(u64),
}

impl fmt::Display for Step {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Step::Wait { query, count } => write!(
                f,
                "{count} notification(s) matching {}, {}, {}",
                query.win, query.source, query.tag
            ),
            Step::Flush => write!(f, "its flush"),
            Step::Coll(wait) => write!(f, "{wait}"),
            Step::Done(_) => write!(f, "nothing (finished)"),
        }
    }
}

/// A rank program as a resumable state machine.
///
/// The driver calls [`resume`](Self::resume) first with nothing awaited,
/// then again each time the [`Step`] it returned has been satisfied, until
/// it returns [`Step::Done`]. A task must never call a blocking method of
/// [`RtCtx`] (`wait_notifications`, `flush`, `barrier` or a
/// [`CollCtx`](crate::CollCtx) collective): under the cooperative driver
/// they fail with [`RtError::BlockingInTask`]. An error it returns ends its
/// world with that error.
pub trait RankTask: Send {
    /// Run until the next suspension point.
    fn resume(&mut self, ctx: &mut RtCtx) -> Result<Step, RtError>;
}

/// Drive `task` to completion on the calling rank thread, answering each
/// step with the matching blocking call, and return its checksum.
pub fn run_blocking(ctx: &mut RtCtx, task: &mut dyn RankTask) -> Result<u64, RtError> {
    loop {
        match task.resume(ctx)? {
            Step::Wait { query, count } => ctx.try_wait_notifications(query, count)?,
            Step::Flush => ctx.try_flush()?,
            Step::Coll(wait) => ctx.block_coll(wait)?,
            Step::Done(sum) => return Ok(sum),
        }
    }
}

/// The thread-per-rank adapter: one blocking [`RankProgram`] per task, each
/// paired with the cell its checksum is published into when it completes.
/// A task's error panics its rank thread, as the panicking convenience
/// methods of [`RtCtx`] do.
pub fn thread_per_rank(tasks: Vec<Box<dyn RankTask>>) -> Vec<(RankProgram, Arc<AtomicU64>)> {
    tasks
        .into_iter()
        .map(|mut task| {
            let cell = Arc::new(AtomicU64::new(0));
            let out = cell.clone();
            let program: RankProgram = Box::new(move |ctx: &mut RtCtx| {
                let rank = ctx.rank().0;
                let sum =
                    run_blocking(ctx, task.as_mut()).unwrap_or_else(|e| panic!("rank {rank}: {e}"));
                out.store(sum, Ordering::Release);
            });
            (program, cell)
        })
        .collect()
}

/// Where a task is between sweeps.
enum Slot {
    /// Never resumed yet.
    Start,
    /// Suspended on a step other than `Done`.
    Waiting(Step),
    /// Finished with this checksum.
    Done(u64),
}

impl Slot {
    /// May the task be resumed now? Tests consume what they match, as the
    /// blocking calls do.
    fn ready(&self, ctx: &mut RtCtx) -> Result<bool, RtError> {
        match *self {
            Slot::Start => Ok(true),
            Slot::Waiting(Step::Wait { query, count }) => ctx.try_test_notifications(query, count),
            Slot::Waiting(Step::Flush) => {
                if ctx.flush_complete() {
                    return Ok(true);
                }
                ctx.drain_deliveries()?;
                Ok(false)
            }
            Slot::Waiting(Step::Coll(wait)) => ctx.coll_test(wait.source, wait.tag),
            Slot::Waiting(Step::Done(_)) | Slot::Done(_) => Ok(false),
        }
    }
}

/// The cooperative driver: run `world`'s tasks and engines on this thread
/// until every task has finished and every engine is quiescent (see
/// [`try_run_cluster_job`](crate::try_run_cluster_job)).
pub(crate) fn drive(
    world: World,
    mut tasks: Vec<Box<dyn RankTask>>,
    cancel: &CancelToken,
) -> Result<(RtReport, Vec<u64>), RtError> {
    let World {
        mut ranks,
        engines,
        first_error,
        ..
    } = world;
    // The root cause of a task's failure: an engine failure on record (met
    // in a pass the task drove on a full command ring) beats a cancel,
    // which beats the error that surfaced (as on threads, where a rank
    // that fails once the abort flag is up is teardown).
    let root = |e: RtError| {
        take_first(&first_error).unwrap_or(if cancel.is_cancelled() {
            RtError::Cancelled
        } else {
            e
        })
    };
    let mut slots: Vec<Slot> = ranks.iter().map(|_| Slot::Start).collect();
    let mut outcomes: Vec<Option<HostOutcome>> = engines.iter().map(|_| None).collect();
    let mut running = tasks.len();
    while outcomes.iter().any(Option::is_none) {
        if cancel.is_cancelled() {
            return Err(root(RtError::Cancelled));
        }
        let mut moved = false;
        // One resume per task per sweep: a task whose next step is
        // satisfied at once waits for the next sweep, so it can neither
        // starve the other ranks nor outrun a cancel.
        for ((ctx, task), slot) in ranks.iter_mut().zip(&mut tasks).zip(&mut slots) {
            if slot.ready(ctx).map_err(root)? {
                moved = true;
                let rank = ctx.rank().0;
                let step = catch_unwind(AssertUnwindSafe(|| task.resume(ctx)))
                    .unwrap_or_else(|p| {
                        Err(RtError::RankPanicked {
                            rank,
                            message: panic_text(p),
                        })
                    })
                    .map_err(root)?;
                *slot = match step {
                    Step::Done(sum) => {
                        ctx.finish().map_err(root)?;
                        running -= 1;
                        Slot::Done(sum)
                    }
                    step => Slot::Waiting(step),
                };
            }
        }
        for (device, (engine, out)) in (0u32..).zip(engines.iter().zip(&mut outcomes)) {
            if out.is_some() {
                continue;
            }
            let pass = catch_unwind(AssertUnwindSafe(|| {
                let pass = engine.rank_pass()?;
                let progress = pass.work || pass.backlog;
                // Quiescence is judged only after a pass with no work, as
                // the host loop does.
                let end = if progress || running > 0 {
                    None
                } else {
                    engine.try_quiesce()?
                };
                Ok((progress, end))
            }));
            let (progress, end) = pass
                .unwrap_or_else(|p| {
                    Err(RtError::HostPanicked {
                        device,
                        message: panic_text(p),
                    })
                })
                .map_err(|e| take_first(&first_error).unwrap_or(e))?;
            moved |= progress;
            *out = end;
        }
        if !moved && outcomes.iter().any(Option::is_none) {
            return Err(RtError::Stalled {
                waiting: ranks
                    .iter()
                    .zip(&slots)
                    .filter_map(|(ctx, slot)| match slot {
                        Slot::Waiting(step) => Some((ctx.rank().0, step.to_string())),
                        _ => None,
                    })
                    .collect(),
            });
        }
    }
    let mut report = RtReport::default();
    for ctx in &ranks {
        report.matched += ctx.matched;
        report.barriers = report.barriers.max(ctx.barriers_entered);
        report.coll.absorb(ctx.coll);
    }
    for out in outcomes.into_iter().flatten() {
        report.puts += out.puts;
        report.notifications += out.notifications;
        report.net.absorb(out.net);
    }
    let sums = slots
        .iter()
        .map(|slot| match slot {
            Slot::Done(sum) => *sum,
            _ => 0,
        })
        .collect();
    Ok((report, sums))
}
