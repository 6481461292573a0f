//! The scheduler proper: admission control, gang placement, job runners.
//!
//! One [`Scheduler`] owns the capacity ledger of a long-lived cluster and a
//! job table. `submit` validates quotas and enqueues; every state change
//! (a submit, a finished job) drives an admission pass that leases capacity
//! to queued jobs FIFO-with-backfill and spawns one runner thread per
//! admitted job. A runner executes its job as an independent cluster world
//! via [`dcuda_rt::try_run_cluster_job`] — its own cancel flag, its own
//! windows — which is the fault-isolation boundary: a job that panics or
//! fails tears down only its own world, publishes a `Failed` outcome and
//! frees its lease while neighbors run on. The world has no threads of its
//! own: its rank programs are resumable tasks, and the runner is the
//! cooperative driver that runs them and the world's device engines.
//!
//! A job's terminal outcome — table state, report and checksum — is written
//! once by its runner under the table mutex; cancel, status, wait and drain
//! read it under the same mutex, which is the whole cancel-vs-complete and
//! fail-vs-drain arbitration.

use crate::jobstate::{CancelVerdict, JobEnd, TableState};
use crate::ledger::{AdmissionQueue, Lease, Ledger, QueuedJob};
use crate::programs;
use crate::{JobSpec, SchedError, SchedLimits};
use dcuda_core::SchedStats;
use dcuda_rt::{
    thread_per_rank, try_run_cluster, try_run_cluster_job, CancelToken, RtError, RtReport,
};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Protocol counters of one job's run — the fields that must be
/// byte-identical between a job run on the shared scheduler and the same
/// spec run alone (net-plane counters are exempt by the conformance rules,
/// so they are not part of a job's identity).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobCounters {
    /// Puts routed by the job's hosts.
    pub puts: u64,
    /// Notifications enqueued at targets.
    pub notifications: u64,
    /// Notifications matched by rank-side queries.
    pub matched: u64,
    /// Barrier rounds completed.
    pub barriers: u64,
}

impl From<&RtReport> for JobCounters {
    fn from(r: &RtReport) -> Self {
        JobCounters {
            puts: r.puts,
            notifications: r.notifications,
            matched: r.matched,
            barriers: r.barriers,
        }
    }
}

/// Terminal report of one job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// Scheduler job id.
    pub id: u64,
    /// The spec's label.
    pub name: String,
    /// How the job ended.
    pub end: JobEnd,
    /// Rank-salted FNV checksum over every rank's published sum (0 unless
    /// `Completed`).
    pub checksum: u64,
    /// Protocol counters (zeroed unless `Completed`).
    pub counters: JobCounters,
    /// The typed runtime error (`Failed` only).
    pub error: Option<RtError>,
    /// Milliseconds spent queued before admission.
    pub wait_ms: f64,
    /// Milliseconds from admission to the terminal outcome.
    pub run_ms: f64,
}

/// Where a job currently is.
#[derive(Debug, Clone, PartialEq)]
pub enum JobStatus {
    /// Waiting for capacity at this queue position (0 = head).
    Queued {
        /// Position in the admission queue.
        position: usize,
    },
    /// Gang-scheduled and running.
    Running,
    /// Terminal, with its report.
    Done(JobResult),
}

struct Job {
    spec: JobSpec,
    table: TableState,
    cancel: CancelToken,
    lease: Option<Lease>,
    submitted: Instant,
    started: Option<Instant>,
    /// The terminal report; `Some` exactly when `table` is `Done`.
    result: Option<JobResult>,
}

struct State {
    ledger: Ledger,
    queue: AdmissionQueue,
    jobs: HashMap<u64, Job>,
    next_id: u64,
    stats: SchedStats,
    draining: bool,
    last_busy_mark: Instant,
}

struct Shared {
    limits: SchedLimits,
    created: Instant,
    state: Mutex<State>,
    cv: Condvar,
}

/// A long-lived multi-tenant job server over one cluster's capacity.
/// Cloning shares the same scheduler.
#[derive(Clone)]
pub struct Scheduler {
    shared: Arc<Shared>,
}

fn lock(shared: &Shared) -> std::sync::MutexGuard<'_, State> {
    match shared.state.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

/// Integrate the busy-slot time since the last ledger transition into the
/// utilization numerator. Call *before* any change to `slots_busy`.
fn mark_busy(state: &mut State, now: Instant) {
    let dt = now.duration_since(state.last_busy_mark).as_nanos();
    state.stats.busy_slot_nanos += dt * u128::from(state.ledger.slots_busy());
    state.last_busy_mark = now;
}

impl Scheduler {
    /// A scheduler over a `devices × ranks_per_device` cluster.
    pub fn new(devices: u32, ranks_per_device: u32, limits: SchedLimits) -> Scheduler {
        let ledger = Ledger::new(devices, ranks_per_device);
        let now = Instant::now();
        let stats = SchedStats {
            slots_total: ledger.slots_total(),
            ..SchedStats::default()
        };
        Scheduler {
            shared: Arc::new(Shared {
                limits,
                created: now,
                state: Mutex::new(State {
                    ledger,
                    queue: AdmissionQueue::new(limits.backfill_limit),
                    jobs: HashMap::new(),
                    next_id: 1,
                    stats,
                    draining: false,
                    last_busy_mark: now,
                }),
                cv: Condvar::new(),
            }),
        }
    }

    /// The configured limits.
    pub fn limits(&self) -> SchedLimits {
        self.shared.limits
    }

    /// Offer a job. Quota violations, impossible shapes, a full queue and a
    /// draining scheduler reject with typed errors; otherwise the job is
    /// queued (and admitted immediately if capacity is free) and its id
    /// returned.
    pub fn submit(&self, spec: JobSpec) -> Result<u64, SchedError> {
        let verdict = spec.validate(&self.shared.limits);
        let id = {
            let mut st = lock(&self.shared);
            st.stats.submitted += 1;
            if let Err(e) = verdict {
                st.stats.rejected += 1;
                return Err(e);
            }
            if st.draining {
                st.stats.rejected += 1;
                return Err(SchedError::Draining);
            }
            if st.queue.len() >= self.shared.limits.max_queue_depth {
                st.stats.rejected += 1;
                return Err(SchedError::QueueFull {
                    limit: self.shared.limits.max_queue_depth as u64,
                });
            }
            if !st.ledger.can_ever_fit(spec.devices, spec.ranks_per_device) {
                st.stats.rejected += 1;
                return Err(SchedError::NeverFits {
                    devices: spec.devices,
                    ranks_per_device: spec.ranks_per_device,
                    cap_devices: st.ledger.devices(),
                    cap_ranks_per_device: st.ledger.ranks_per_device(),
                });
            }
            let id = st.next_id;
            st.next_id += 1;
            st.queue.enqueue(QueuedJob {
                id,
                devices: spec.devices,
                ranks_per_device: spec.ranks_per_device,
                priority: spec.priority,
            });
            st.jobs.insert(
                id,
                Job {
                    spec,
                    table: TableState::Queued,
                    cancel: CancelToken::new(),
                    lease: None,
                    submitted: Instant::now(),
                    started: None,
                    result: None,
                },
            );
            st.stats.queue_depth = st.queue.len() as u64;
            st.stats.peak_queue_depth = st.stats.peak_queue_depth.max(st.stats.queue_depth);
            self.shared.cv.notify_all();
            id
        };
        admit(&self.shared);
        Ok(id)
    }

    /// Where is this job?
    pub fn status(&self, id: u64) -> Result<JobStatus, SchedError> {
        let st = lock(&self.shared);
        let job = st.jobs.get(&id).ok_or(SchedError::NoSuchJob(id))?;
        Ok(match job.table {
            TableState::Queued => JobStatus::Queued {
                position: st.queue.position(id).unwrap_or(0),
            },
            TableState::Running => JobStatus::Running,
            TableState::Done(_) => {
                JobStatus::Done(job.result.clone().expect("a done job has its report"))
            }
        })
    }

    /// Block until the job is terminal and return its report.
    pub fn wait(&self, id: u64) -> Result<JobResult, SchedError> {
        let mut st = lock(&self.shared);
        loop {
            let job = st.jobs.get(&id).ok_or(SchedError::NoSuchJob(id))?;
            if let Some(result) = &job.result {
                return Ok(result.clone());
            }
            st = match self.shared.cv.wait(st) {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
        }
    }

    /// Request cancellation. A queued job is dequeued and terminal
    /// immediately; a running job's cancel token is raised and the runner
    /// arbitrates ([`CancelVerdict::Requested`] — it may still complete if
    /// it wins the race); a terminal job reports
    /// [`CancelVerdict::AlreadyDone`].
    pub fn cancel(&self, id: u64) -> Result<CancelVerdict, SchedError> {
        let verdict = self.cancel_inner(id)?;
        if verdict == CancelVerdict::Requested {
            // A queue-side cancel may unblock a capacity-starved head.
            admit(&self.shared);
        }
        Ok(verdict)
    }

    fn cancel_inner(&self, id: u64) -> Result<CancelVerdict, SchedError> {
        let mut st = lock(&self.shared);
        let st = &mut *st;
        let job = st.jobs.get_mut(&id).ok_or(SchedError::NoSuchJob(id))?;
        match job.table {
            TableState::Queued => {
                st.queue.remove(id);
                job.table = job
                    .table
                    .advance(TableState::Done(JobEnd::Cancelled))
                    .expect("queued -> cancelled is legal");
                let wait_ms = job.submitted.elapsed().as_secs_f64() * 1e3;
                job.result = Some(JobResult {
                    id,
                    name: job.spec.name.clone(),
                    end: JobEnd::Cancelled,
                    checksum: 0,
                    counters: JobCounters::default(),
                    error: None,
                    wait_ms,
                    run_ms: 0.0,
                });
                st.stats.cancelled += 1;
                st.stats.queue_depth = st.queue.len() as u64;
                self.shared.cv.notify_all();
                Ok(CancelVerdict::Requested)
            }
            TableState::Running => {
                job.cancel.cancel();
                Ok(CancelVerdict::Requested)
            }
            TableState::Done(end) => Ok(CancelVerdict::AlreadyDone(end)),
        }
    }

    /// Stop admitting new submissions, let every queued and running job
    /// reach a terminal state, and return the final stats. The ledger is
    /// fully free afterwards — cancel and drain never leak slots, windows
    /// or scratch (windows live inside each job's cluster world and are
    /// dropped when its runner joins).
    pub fn drain(&self) -> SchedStats {
        let mut st = lock(&self.shared);
        st.draining = true;
        while !st.queue.is_empty() || st.stats.running > 0 {
            st = match self.shared.cv.wait(st) {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
        }
        mark_busy(&mut st, Instant::now());
        st.stats
    }

    /// A snapshot of the aggregate stats.
    pub fn stats(&self) -> SchedStats {
        let mut st = lock(&self.shared);
        mark_busy(&mut st, Instant::now());
        st.stats
    }

    /// Mean device utilization since the scheduler was created.
    pub fn utilization(&self) -> f64 {
        self.stats()
            .utilization(self.shared.created.elapsed().as_nanos())
    }
}

/// One admission pass: lease capacity to queued jobs (FIFO + bounded
/// backfill) and spawn a runner thread per admitted job.
fn admit(shared: &Arc<Shared>) {
    let started: Vec<u64> = {
        let mut st = lock(shared);
        let now = Instant::now();
        mark_busy(&mut st, now);
        let st = &mut *st;
        let admitted = st.queue.admit_pass(&mut st.ledger);
        let mut ids = Vec::with_capacity(admitted.len());
        for (queued, lease) in admitted {
            let job = st
                .jobs
                .get_mut(&queued.id)
                .expect("queued job is in the table");
            job.table = job
                .table
                .advance(TableState::Running)
                .expect("queued -> running is legal");
            job.lease = Some(lease);
            job.started = Some(now);
            st.stats.admitted += 1;
            st.stats.running += 1;
            ids.push(queued.id);
        }
        st.stats.queue_depth = st.queue.len() as u64;
        st.stats.slots_busy = st.ledger.slots_busy();
        st.stats.peak_slots_busy = st.stats.peak_slots_busy.max(st.stats.slots_busy);
        ids
    };
    for id in started {
        let shared = shared.clone();
        // One runner thread per admitted job: it drives the job's world to
        // its end, then books the outcome and drives the next admission
        // pass. The world spawns no thread of its own; the runner is
        // spawned fresh, because a process that stops creating threads
        // altogether makes its next fresh-thread worlds (`run_solo`)
        // measurably slower to launch (DESIGN.md §18, "Thread lifecycle").
        std::thread::Builder::new()
            .name(format!("dcuda-job-{id}"))
            .spawn(move || run_job(&shared, id))
            .expect("spawn job runner");
    }
}

/// Execute one admitted job to its terminal outcome.
fn run_job(shared: &Arc<Shared>, id: u64) {
    let (spec, cancel) = {
        let st = lock(shared);
        let job = &st.jobs[&id];
        (job.spec.clone(), job.cancel.clone())
    };
    let outcome = spec
        .rt_config()
        .and_then(|cfg| try_run_cluster_job(&cfg, programs::tasks(&spec), &cancel));
    let (end, checksum, counters, error) = match outcome {
        Ok((ref report, ref sums)) => (
            JobEnd::Completed,
            programs::fold_checksums(sums),
            JobCounters::from(report),
            None,
        ),
        Err(RtError::Cancelled) => (JobEnd::Cancelled, 0, JobCounters::default(), None),
        Err(e) => (JobEnd::Failed, 0, JobCounters::default(), Some(e)),
    };
    {
        let mut st = lock(shared);
        let now = Instant::now();
        mark_busy(&mut st, now);
        let st = &mut *st;
        let job = st.jobs.get_mut(&id).expect("running job is in the table");
        if let Some(lease) = job.lease.take() {
            st.ledger.release(&lease);
        }
        job.table = job
            .table
            .advance(TableState::Done(end))
            .expect("running -> done is legal");
        let started = job.started.unwrap_or(job.submitted);
        job.result = Some(JobResult {
            id,
            name: job.spec.name.clone(),
            end,
            checksum,
            counters,
            error,
            wait_ms: started.duration_since(job.submitted).as_secs_f64() * 1e3,
            run_ms: now.duration_since(started).as_secs_f64() * 1e3,
        });
        st.stats.running -= 1;
        st.stats.slots_busy = st.ledger.slots_busy();
        match end {
            JobEnd::Completed => st.stats.completed += 1,
            JobEnd::Failed => st.stats.failed += 1,
            JobEnd::Cancelled => st.stats.cancelled += 1,
        }
        shared.cv.notify_all();
    }
    admit(shared);
}

/// Run a spec alone on a fresh, dedicated cluster — the golden the
/// conformance suite compares every scheduler-run job against. Its ranks
/// run the job's tasks on threads of their own ([`thread_per_rank`]), an
/// independent check of the cooperative driver the scheduler uses.
pub fn run_solo(spec: &JobSpec) -> Result<JobResult, SchedError> {
    spec.validate(&SchedLimits {
        // Solo goldens bypass the shared server's queue policy but keep the
        // spec-shape validation.
        ..SchedLimits::default()
    })?;
    let cfg = spec.rt_config().map_err(SchedError::Rt)?;
    let (ranks, cells): (Vec<_>, Vec<_>) =
        thread_per_rank(programs::tasks(spec)).into_iter().unzip();
    let start = Instant::now();
    match try_run_cluster(&cfg, ranks) {
        Ok(report) => Ok(JobResult {
            id: 0,
            name: spec.name.clone(),
            end: JobEnd::Completed,
            checksum: programs::fold_checksums(
                &cells
                    .iter()
                    .map(|c| c.load(Ordering::Acquire))
                    .collect::<Vec<_>>(),
            ),
            counters: JobCounters::from(&report),
            error: None,
            wait_ms: 0.0,
            run_ms: start.elapsed().as_secs_f64() * 1e3,
        }),
        Err(e) => Ok(JobResult {
            id: 0,
            name: spec.name.clone(),
            end: JobEnd::Failed,
            checksum: 0,
            counters: JobCounters::default(),
            error: Some(e),
            wait_ms: 0.0,
            run_ms: start.elapsed().as_secs_f64() * 1e3,
        }),
    }
}
