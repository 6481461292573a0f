//! Rank programs as tasks, and the two ways to run them.
//!
//! In the paper a block waiting in `wait_notifications` is not a thread: it
//! is one of the resident blocks the SM switches between for free. A
//! [`RankTask`] is a rank program written the same way — an `async fn`
//! over the rank's [`RtCtx`] whose every wait is an `.await` on the
//! runtime's one wait future. Two drivers run the same tasks:
//!
//! * the **cooperative driver** ([`try_run_cluster_job`]) runs a whole
//!   in-process world on the calling thread: each sweep polls every
//!   unfinished task once, in rank order, then runs one pass of every
//!   device engine;
//! * the **thread-per-rank adapter** ([`thread_per_rank`]) turns each task
//!   into a [`RankProgram`] that blocks on it, for
//!   [`try_run_cluster`](crate::try_run_cluster) and every other threaded
//!   entry point; there every wait spins until satisfied.
//!
//! Both make the same runtime calls in the same order, so a world's
//! checksums and protocol counters do not depend on the driver.
//!
//! [`try_run_cluster_job`]: crate::try_run_cluster_job

use crate::cluster::{
    fold_report, panic_text, take_first, CancelToken, RankProgram, RtReport, World,
};
use crate::ctx::{block_on, RtCtx};
use crate::host::HostOutcome;
use crate::types::RtError;
use dcuda_trace::Tracer;
use std::future::Future;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};

/// A running rank program: its checksum, or the error that ends its world.
pub type TaskFuture<'a> = Pin<Box<dyn Future<Output = Result<u64, RtError>> + 'a>>;

/// A rank program as a task: started once on its rank's context, it runs
/// until its future completes. A task must await the async forms of the
/// blocking [`RtCtx`] calls (`wait_notifications_async`, `flush_async`,
/// `barrier_async`, [`Collective::run`](crate::Collective::run)): under
/// the cooperative driver the blocking ones fail with
/// [`RtError::BlockingInTask`].
pub type RankTask = Box<dyn for<'a> FnOnce(&'a mut RtCtx) -> TaskFuture<'a> + Send>;

/// Box `f` as a [`RankTask`]; `|ctx| Box::pin(program(ctx, ..))` is the
/// usual shape.
pub fn task<F>(f: F) -> RankTask
where
    F: for<'a> FnOnce(&'a mut RtCtx) -> TaskFuture<'a> + Send + 'static,
{
    Box::new(f)
}

/// The thread-per-rank adapter: one blocking [`RankProgram`] per task, each
/// paired with the cell its checksum is published into when it completes.
/// A task's error panics its rank thread, as the panicking convenience
/// methods of [`RtCtx`] do.
pub fn thread_per_rank(tasks: Vec<RankTask>) -> Vec<(RankProgram, Arc<AtomicU64>)> {
    tasks
        .into_iter()
        .map(|task| {
            let cell = Arc::new(AtomicU64::new(0));
            let out = cell.clone();
            let program: RankProgram = Box::new(move |ctx: &mut RtCtx| {
                let rank = ctx.rank().0;
                let sum = block_on(task(ctx)).unwrap_or_else(|e| panic!("rank {rank}: {e}"));
                out.store(sum, Ordering::Release);
            });
            (program, cell)
        })
        .collect()
}

/// The driver's waker: a wait that a task reached in this sweep raises it.
#[derive(Default)]
struct Moved(AtomicBool);

impl Wake for Moved {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// The cooperative driver: run `world`'s tasks and engines on this thread
/// until every task has finished and every engine is quiescent (see
/// [`try_run_cluster_job`](crate::try_run_cluster_job)).
pub(crate) fn drive(
    world: World,
    tasks: Vec<RankTask>,
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
    let moved_flag = Arc::new(Moved::default());
    let waker = Waker::from(moved_flag.clone());
    let mut cx = Context::from_waker(&waker);
    let mut sums = vec![0u64; ranks.len()];
    let mut outcomes: Vec<Option<HostOutcome>> = engines.iter().map(|_| None).collect();
    let mut running: Vec<_> = ranks
        .iter_mut()
        .zip(tasks)
        .map(|(ctx, task)| {
            Some(Box::pin(async move {
                let sum = task(&mut *ctx).await?;
                ctx.finish()?;
                Ok::<_, RtError>(sum)
            }))
        })
        .collect();
    let mut unfinished = running.len();
    let stalled = loop {
        if cancel.is_cancelled() {
            return Err(root(RtError::Cancelled));
        }
        // Every wait suspends the poll that reached it, so each task runs
        // at most once per sweep: it can neither starve the other ranks
        // nor outrun a cancel.
        let mut moved = false;
        for ((slot, sum), rank) in running.iter_mut().zip(&mut sums).zip(0u32..) {
            let Some(fut) = slot else { continue };
            let poll = catch_unwind(AssertUnwindSafe(|| fut.as_mut().poll(&mut cx)))
                .unwrap_or_else(|p| {
                    Poll::Ready(Err(RtError::RankPanicked {
                        rank,
                        message: panic_text(p),
                    }))
                });
            if let Poll::Ready(out) = poll {
                *sum = out.map_err(root)?;
                *slot = None;
                unfinished -= 1;
                moved = true;
            }
        }
        moved |= moved_flag.0.swap(false, Ordering::Relaxed);
        for (device, (engine, out)) in (0u32..).zip(engines.iter().zip(&mut outcomes)) {
            if out.is_some() {
                continue;
            }
            let pass = catch_unwind(AssertUnwindSafe(|| {
                let pass = engine.rank_pass()?;
                let progress = pass.work || pass.backlog;
                // Quiescence is judged only after a pass with no work, as
                // the host loop does.
                let end = if progress || unfinished > 0 {
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
        if outcomes.iter().all(Option::is_some) {
            break false;
        }
        if !moved {
            break true;
        }
    };
    drop(running);
    if stalled {
        return Err(RtError::Stalled {
            waiting: ranks
                .iter()
                .filter_map(|ctx| Some((ctx.rank().0, ctx.waiting?.to_string())))
                .collect(),
        });
    }
    let report = fold_report(
        ranks,
        outcomes.into_iter().flatten(),
        &mut Tracer::disabled(),
        &mut Vec::new(),
    );
    Ok((report, sums))
}
