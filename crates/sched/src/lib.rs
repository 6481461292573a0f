//! `dcuda-sched`: a multi-tenant job scheduler over the threaded runtime.
//!
//! The dCUDA paper evaluates one program per cluster run; this crate turns
//! the runtime into a long-lived shared service. A [`Scheduler`] owns the
//! capacity of one cluster (`devices × ranks_per_device` rank slots — the
//! paper's one-rank-per-SM mapping read as an accounting unit) and admits a
//! stream of [`JobSpec`] submissions:
//!
//! * **Gang scheduling, FIFO with bounded backfill** — a job's ranks are
//!   leased all-or-nothing onto free devices ([`ledger::Ledger`]); queued
//!   jobs wait for capacity, later jobs may jump a blocked head at most
//!   [`SchedLimits::backfill_limit`] times (no starvation).
//! * **Quotas at admission** — window/scratch bytes, queue (ring) capacity,
//!   gang size and queue depth are checked at `submit` and rejected with
//!   typed, deterministic [`SchedError`]s.
//! * **Fault isolation per job** — every admitted job runs as its own
//!   cluster world via [`dcuda_rt::try_run_cluster_job`] with its own
//!   cancel flag, so one job's `RankPanicked` (or any other failure) tears
//!   down only that job and frees its lease while neighbors run on. The
//!   world has no threads of its own: its ranks are
//!   [`dcuda_rt::RankTask`]s, and a runner thread drives them and the
//!   world's device engines. Runners are reused from job to job and exit
//!   after [`scheduler::RUNNER_IDLE`] without work.
//! * **A control plane on the launch codec** — [`server`] speaks
//!   `submit`/`status`/`cancel`/`drain` verbs as length-prefixed blobs
//!   (`dcuda_net::launch`), returning per-job reports plus an aggregate
//!   [`SchedStats`].
//!
//! Jobs are *named programs* (entries of [`dcuda_rt::programs::Program`],
//! re-exported as [`JobProgram`]) rather than closures so a spec can cross
//! the control plane; each is deterministic in
//! `(seed, world, iters, payload)` and publishes the same rank-salted
//! FNV checksums the conformance suite uses, which is what makes the
//! storm-vs-solo byte-identity tests in `tests/sched_conformance.rs`
//! possible. [`run_solo`] runs the same tasks on rank threads, so those
//! tests also check the cooperative driver against an independent one.

#![warn(missing_docs)]

pub mod jobstate;
pub mod ledger;
pub mod scheduler;
pub mod server;
pub mod stats;

pub use jobstate::{CancelVerdict, JobEnd, TableState};
pub use ledger::{AdmissionQueue, Lease, Ledger, QueuedJob};
pub use scheduler::{run_solo, JobCounters, JobResult, JobStatus, Scheduler};
pub use server::{serve, spawn_server, CtrlClient, ServerHandle};
pub use stats::SchedStats;

use dcuda_rt::programs::{Params, Program};
use dcuda_rt::{RankTask, RtConfig, RtError, MAX_WORLD};
use std::fmt;

/// The named program a job runs: the benchmark's name for the reference
/// program table. Specs must cross the control plane, so jobs pick an entry
/// of the table by its wire name instead of shipping closures.
pub use dcuda_rt::programs::Program as JobProgram;

/// One job submission: program, gang shape, window layout knobs and
/// priority. Serializable over the control plane via
/// [`to_kv`](JobSpec::to_kv)/[`parse_kv`](JobSpec::parse_kv).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Caller label (reported back verbatim; no whitespace or `=`).
    pub name: String,
    /// Which table program every rank executes.
    pub program: Program,
    /// Devices the gang spans.
    pub devices: u32,
    /// Ranks per device.
    pub ranks_per_device: u32,
    /// Communication rounds.
    pub iters: u32,
    /// Payload bytes per message.
    pub payload: usize,
    /// Extra window bytes the job reserves beyond the program's own layout
    /// (a quota surface: admission charges it against the window budget).
    pub extra_window: usize,
    /// Command/delivery ring capacity (power of two) — the per-job queue
    /// quota surface.
    pub ring_capacity: usize,
    /// Determinism seed for the program's data.
    pub seed: u64,
    /// Scheduling priority: higher admits earlier, equal stays FIFO.
    pub priority: u8,
}

impl JobSpec {
    /// A small job with conservative defaults, ready to customize.
    pub fn small(name: impl Into<String>, program: Program) -> JobSpec {
        JobSpec {
            name: name.into(),
            program,
            devices: 1,
            ranks_per_device: 2,
            iters: 4,
            payload: 64,
            extra_window: 0,
            ring_capacity: 64,
            seed: 1,
            priority: 0,
        }
    }

    /// Gang size (`devices * ranks_per_device`).
    pub fn ranks(&self) -> u32 {
        self.devices * self.ranks_per_device
    }

    /// What the spec's program data is generated from.
    pub fn params(&self) -> Params {
        Params {
            seed: self.seed,
            iters: self.iters,
            payload: self.payload,
        }
    }

    /// One task per world rank, in rank order: the scheduler runs them on
    /// the cooperative driver ([`dcuda_rt::try_run_cluster_job`]),
    /// [`run_solo`] on rank threads through [`dcuda_rt::thread_per_rank`].
    pub fn tasks(&self) -> Vec<RankTask> {
        self.program.tasks(self.params(), self.ranks())
    }

    /// The window layout every rank of this job registers.
    pub fn windows(&self) -> Vec<usize> {
        let mut w = self.program.windows(&self.params());
        if self.extra_window > 0 {
            w.push(self.extra_window);
        }
        w
    }

    /// Collective scratch bytes this job needs.
    pub fn coll_scratch(&self) -> usize {
        self.program.coll_scratch(&self.params(), self.ranks())
    }

    /// Total per-rank window footprint charged against the quota: the
    /// program layout, the extra reservation and the hidden scratch.
    pub fn window_bytes_total(&self) -> usize {
        self.windows().iter().sum::<usize>() + self.coll_scratch()
    }

    /// Validate against admission quotas — typed and deterministic: the
    /// same spec against the same limits always yields the same verdict.
    pub fn validate(&self, limits: &SchedLimits) -> Result<(), SchedError> {
        if self.name.is_empty() || self.name.contains(|c: char| c.is_whitespace() || c == '=') {
            return Err(SchedError::InvalidSpec(format!(
                "job name {:?} empty or contains whitespace/'='",
                self.name
            )));
        }
        if self.devices == 0 || self.ranks_per_device == 0 {
            return Err(SchedError::InvalidSpec("zero-rank gang".into()));
        }
        let ranks = u64::from(self.ranks());
        if ranks > u64::from(limits.max_ranks.min(MAX_WORLD)) {
            return Err(SchedError::Quota {
                what: "ranks",
                requested: ranks,
                limit: u64::from(limits.max_ranks.min(MAX_WORLD)),
            });
        }
        if !self.ring_capacity.is_power_of_two() || self.ring_capacity < 2 {
            return Err(SchedError::InvalidSpec(format!(
                "ring capacity {} is not a power of two >= 2",
                self.ring_capacity
            )));
        }
        if self.ring_capacity > limits.max_ring_capacity {
            return Err(SchedError::Quota {
                what: "ring capacity",
                requested: self.ring_capacity as u64,
                limit: limits.max_ring_capacity as u64,
            });
        }
        let window = self.window_bytes_total();
        if window > limits.max_window_bytes {
            return Err(SchedError::Quota {
                what: "window bytes",
                requested: window as u64,
                limit: limits.max_window_bytes as u64,
            });
        }
        Ok(())
    }

    /// The whole-world runtime configuration this job runs on.
    pub fn rt_config(&self) -> Result<RtConfig, RtError> {
        self.program
            .config(&self.params(), self.devices, self.ranks_per_device)
            .windows(self.windows())
            .ring_capacity(self.ring_capacity)
            .build()
    }

    /// Serialize as the control plane's `key=value` line.
    pub fn to_kv(&self) -> String {
        format!(
            "name={} program={} devices={} rpd={} iters={} payload={} extra={} ring={} seed={} prio={}",
            self.name,
            self.program.name(),
            self.devices,
            self.ranks_per_device,
            self.iters,
            self.payload,
            self.extra_window,
            self.ring_capacity,
            self.seed,
            self.priority,
        )
    }

    /// Parse the `key=value` line [`to_kv`](JobSpec::to_kv) emits. Unknown
    /// keys are errors (the control plane is versioned by strictness).
    pub fn parse_kv(line: &str) -> Result<JobSpec, String> {
        // Each key parses as its field's own type, so a value that does not
        // fit is refused rather than truncated.
        fn num<T: std::str::FromStr>(k: &str, v: &str) -> Result<T, String> {
            v.parse().map_err(|_| format!("bad number {v:?} for {k}"))
        }
        let mut spec = JobSpec::small("job", Program::Ring);
        let mut saw_name = false;
        for tok in line.split_whitespace() {
            let (k, v) = tok
                .split_once('=')
                .ok_or_else(|| format!("bad token {tok:?} (expected key=value)"))?;
            match k {
                "name" => {
                    spec.name = v.to_string();
                    saw_name = true;
                }
                "program" => spec.program = Program::parse(v)?,
                "devices" => spec.devices = num(k, v)?,
                "rpd" => spec.ranks_per_device = num(k, v)?,
                "iters" => spec.iters = num(k, v)?,
                "payload" => spec.payload = num(k, v)?,
                "extra" => spec.extra_window = num(k, v)?,
                "ring" => spec.ring_capacity = num(k, v)?,
                "seed" => spec.seed = num(k, v)?,
                "prio" => spec.priority = num(k, v)?,
                other => return Err(format!("unknown job key {other:?}")),
            }
        }
        if !saw_name {
            return Err("job spec missing name=".into());
        }
        Ok(spec)
    }
}

/// Per-job admission quotas and queue policy of one scheduler instance.
#[derive(Debug, Clone, Copy)]
pub struct SchedLimits {
    /// Largest gang a single job may request.
    pub max_ranks: u32,
    /// Per-rank window footprint cap (program layout + extra + scratch).
    pub max_window_bytes: usize,
    /// Per-job command/delivery ring capacity cap.
    pub max_ring_capacity: usize,
    /// Submissions allowed to wait in the queue before `QueueFull`.
    pub max_queue_depth: usize,
    /// Jobs that may jump a capacity-blocked queue head before backfill
    /// stops (the starvation bound).
    pub backfill_limit: u32,
}

impl Default for SchedLimits {
    fn default() -> Self {
        SchedLimits {
            max_ranks: 256,
            max_window_bytes: 4 << 20,
            max_ring_capacity: 4096,
            max_queue_depth: 65_536,
            backfill_limit: 4,
        }
    }
}

/// Errors of the scheduler API and control plane. Admission rejections are
/// deterministic: the same spec against the same limits and capacity shape
/// always fails the same way.
#[derive(Debug, Clone, PartialEq)]
pub enum SchedError {
    /// A per-job quota was exceeded at admission.
    Quota {
        /// Which quota (`ranks`, `window bytes`, `ring capacity`).
        what: &'static str,
        /// What the spec asked for.
        requested: u64,
        /// The configured cap.
        limit: u64,
    },
    /// The gang can never fit this cluster, even idle — rejected at submit
    /// instead of queueing forever.
    NeverFits {
        /// Devices the job asked for.
        devices: u32,
        /// Ranks per device the job asked for.
        ranks_per_device: u32,
        /// Devices the cluster has.
        cap_devices: u32,
        /// Slots per cluster device.
        cap_ranks_per_device: u32,
    },
    /// The submission queue is at its depth limit.
    QueueFull {
        /// The configured depth limit.
        limit: u64,
    },
    /// The scheduler is draining: no new submissions.
    Draining,
    /// No job with this id.
    NoSuchJob(u64),
    /// The spec is malformed (bad name, zero gang, non-power-of-two ring).
    InvalidSpec(String),
    /// The job's runtime failed with this typed error.
    Rt(RtError),
    /// A control-plane transport or protocol failure (client side).
    Control(String),
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedError::Quota {
                what,
                requested,
                limit,
            } => write!(f, "quota exceeded: {requested} {what} over the {limit} cap"),
            SchedError::NeverFits {
                devices,
                ranks_per_device,
                cap_devices,
                cap_ranks_per_device,
            } => write!(
                f,
                "gang of {devices}x{ranks_per_device} can never fit a \
                 {cap_devices}x{cap_ranks_per_device} cluster"
            ),
            SchedError::QueueFull { limit } => {
                write!(f, "submission queue full ({limit} jobs waiting)")
            }
            SchedError::Draining => write!(f, "scheduler draining: no new submissions"),
            SchedError::NoSuchJob(id) => write!(f, "no job {id}"),
            SchedError::InvalidSpec(msg) => write!(f, "invalid job spec: {msg}"),
            SchedError::Rt(e) => write!(f, "job runtime failed: {e}"),
            SchedError::Control(msg) => write!(f, "control plane: {msg}"),
        }
    }
}

impl std::error::Error for SchedError {}

impl From<RtError> for SchedError {
    fn from(e: RtError) -> Self {
        SchedError::Rt(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kv_round_trips() {
        let mut spec = JobSpec::small("storm-17", Program::Poison { at_iter: 3 });
        spec.devices = 2;
        spec.ranks_per_device = 3;
        spec.iters = 9;
        spec.payload = 192;
        spec.extra_window = 4096;
        spec.ring_capacity = 128;
        spec.seed = 0xFEED;
        spec.priority = 5;
        let line = spec.to_kv();
        assert_eq!(JobSpec::parse_kv(&line), Ok(spec));
    }

    #[test]
    fn kv_numbers_that_do_not_fit_their_field_are_refused() {
        for (kv, key) in [
            ("devices=4294967297", "devices"),
            ("rpd=4294967296", "rpd"),
            ("iters=-1", "iters"),
            ("prio=300", "prio"),
            ("seed=18446744073709551616", "seed"),
        ] {
            assert_eq!(
                JobSpec::parse_kv(&format!("name=j {kv}")),
                Err(format!("bad number {:?} for {key}", &kv[key.len() + 1..])),
            );
        }
        let edge = JobSpec::parse_kv("name=j devices=4294967295 prio=255").expect("fits");
        assert_eq!((edge.devices, edge.priority), (u32::MAX, u8::MAX));
    }

    #[test]
    fn quota_rejections_are_typed_and_deterministic() {
        let limits = SchedLimits::default();
        let mut spec = JobSpec::small("big", Program::Ring);
        spec.devices = 300;
        let first = spec.validate(&limits);
        assert_eq!(first, spec.validate(&limits));
        assert!(matches!(
            first,
            Err(SchedError::Quota { what: "ranks", .. })
        ));

        let mut fat = JobSpec::small("fat", Program::Ring);
        fat.extra_window = usize::MAX / 2;
        assert!(matches!(
            fat.validate(&limits),
            Err(SchedError::Quota {
                what: "window bytes",
                ..
            })
        ));

        let mut ring = JobSpec::small("ring", Program::Ring);
        ring.ring_capacity = 3;
        assert!(matches!(
            ring.validate(&limits),
            Err(SchedError::InvalidSpec(_))
        ));
        ring.ring_capacity = 1 << 20;
        assert!(matches!(
            ring.validate(&limits),
            Err(SchedError::Quota {
                what: "ring capacity",
                ..
            })
        ));
    }
}
