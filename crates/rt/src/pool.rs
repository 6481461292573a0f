//! One process-wide pool of parked OS threads, and the spawn helper every
//! cluster world starts its threads through.
//!
//! A job server launches a world of a few threads for every job, and each
//! world lives well under a millisecond, so creating and tearing down the
//! threads costs about as much as the run. [`Threads::Pooled`] hands such
//! work to a parked worker instead: it runs the closure under
//! `catch_unwind`, returns the result to the [`Joiner`] and parks again.
//! `spawn` never waits for a free worker — with none idle it starts a new
//! one — so a pooled closure that itself spawns pooled work cannot deadlock.
//! [`Threads::Fresh`] is a plain `std::thread::spawn`: a fresh thread is
//! placed when it is created and inherits its launcher's CPU mask, which a
//! reused worker does not.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Mutex, MutexGuard};
use std::thread::{self, JoinHandle};

/// Most workers kept parked between jobs; a worker that finishes while
/// this many are idle exits. A single job may be as large as the
/// scheduler's rank quota (256 ranks), and without a bound its threads
/// would stay parked for the life of the process.
const MAX_IDLE: usize = 64;

/// How later spawns reach one worker.
type Worker = Sender<Task>;

/// A job for a worker, given that worker's own handle; returns whether the
/// worker parked and should wait for more.
struct Task(Box<dyn FnOnce(&Worker) -> bool + Send>);

/// The parked workers, most recently parked last.
static IDLE: Mutex<Vec<Worker>> = Mutex::new(Vec::new());

fn idle() -> MutexGuard<'static, Vec<Worker>> {
    // Pushes and pops leave the list valid at every step.
    IDLE.lock().unwrap_or_else(|p| p.into_inner())
}

/// Offer the calling worker to later spawns unless the pool is full.
fn park(me: &Worker) -> bool {
    let mut idle = idle();
    let room = idle.len() < MAX_IDLE;
    if room {
        idle.push(me.clone());
    }
    room
}

/// Where a world's threads come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Threads {
    /// A new OS thread per spawn.
    Fresh,
    /// A parked worker of the process-wide pool.
    Pooled,
}

impl Threads {
    /// Run `f` on a thread of this kind.
    pub(crate) fn spawn<T, F>(self, f: F) -> Joiner<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        if self == Threads::Fresh {
            return Joiner::Fresh(thread::spawn(f));
        }
        let (tx, rx) = channel();
        let mut task = Task(Box::new(move |me| {
            let out = catch_unwind(AssertUnwindSafe(f));
            // Park before answering, so a joiner that spawns again at once
            // finds this worker idle instead of starting another.
            let parked = park(me);
            let _ = tx.send(out);
            parked
        }));
        let parked = idle().pop();
        if let Some(worker) = parked {
            match worker.send(task) {
                Ok(()) => return Joiner::Pooled(rx),
                // Not expected: a parked worker waits on its inbox until a
                // task arrives. Start a new worker for the task instead.
                Err(back) => task = back.0,
            }
        }
        thread::spawn(move || {
            let (me, inbox) = channel();
            let mut next = Ok(task);
            while let Ok(Task(run)) = next {
                if !run(&me) {
                    return;
                }
                next = inbox.recv();
            }
        });
        Joiner::Pooled(rx)
    }
}

/// The handle of a closure started by [`Threads::spawn`].
#[derive(Debug)]
pub(crate) enum Joiner<T> {
    /// A fresh thread's handle.
    Fresh(JoinHandle<T>),
    /// Where a pool worker sends the closure's outcome.
    Pooled(Receiver<thread::Result<T>>),
}

impl<T> Joiner<T> {
    /// Wait for the closure; `Err` carries its panic payload.
    pub(crate) fn join(self) -> thread::Result<T> {
        match self {
            Joiner::Fresh(h) => h.join(),
            Joiner::Pooled(rx) => rx
                .recv()
                .unwrap_or_else(|_| Err(Box::new("pool worker lost its job"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::{Arc, Barrier};

    #[test]
    fn a_burst_leaves_at_most_the_cap_parked() {
        let n = 2 * MAX_IDLE;
        let all_live = Arc::new(Barrier::new(n));
        let joins: Vec<_> = (0..n)
            .map(|_| {
                let all_live = all_live.clone();
                Threads::Pooled.spawn(move || {
                    all_live.wait();
                    thread::current().id()
                })
            })
            .collect();
        let ids: HashSet<_> = joins.into_iter().map(|j| j.join().unwrap()).collect();
        assert_eq!(ids.len(), n, "the burst ran on {n} live workers");
        let parked = idle().len();
        assert!(parked > 0 && parked <= MAX_IDLE, "{parked} workers parked");
    }

    #[test]
    fn a_panic_reaches_the_joiner() {
        let boom = Threads::Pooled.spawn(|| -> u32 { panic!("boom") }).join();
        assert_eq!(boom.unwrap_err().downcast_ref::<&str>(), Some(&"boom"));
    }
}
