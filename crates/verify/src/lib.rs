//! Concurrency verification for the dCUDA queue and notification fabric.
//!
//! The paper's runtime rests on three concurrency claims: the
//! sequence-number ring never loses, duplicates or tears a message; credit
//! flow control never overruns a slot; and notifications are conserved
//! end-to-end (delivered exactly once, matched at most once). This crate
//! makes those claims *checkable*, in three cooperating layers:
//!
//! 1. [`sched`] + [`shim`] — a **bounded model checker**: a loom-style
//!    virtual scheduler with an operational release/acquire memory model
//!    that runs the *production* ring code (via the platform-generic
//!    `dcuda_queues::channel_on`) and exhaustively enumerates
//!    interleavings within a preemption bound, with schedule replay and
//!    shrinking. [`suite`] is the CI regression corpus, including a seeded
//!    `Release` → `Relaxed` mutation the checker must catch.
//! 2. [`invariants`] — a **runtime invariant monitor** pluggable into the
//!    simulator world (token-level exactly-once tracking) and the
//!    threaded runtime (per-thread counter shards reconciled after
//!    the join); violations surface as a structured [`VerifyReport`].
//! 3. [`deadlock`] — a **wait-for graph** over blocked ranks with
//!    wildcard-aware edges, a hopeless-set fixpoint, cycle extraction and
//!    a "no matching sender exists" liveness lint.
//! 4. [`races`] — a **vector-clock happens-before race detector** over
//!    window byte ranges: notifications, flushes and barriers are the only
//!    edges, so any concurrent conflicting pair of window accesses without
//!    one is reported as a typed [`RaceReport`].
//!
//! Everything is dependency-free (std + the in-house `dcuda-des`
//! primitives), like the rest of the workspace.

#![warn(missing_docs)]

pub mod deadlock;
pub mod invariants;
pub mod races;
pub mod sched;
pub mod shim;
pub mod suite;

pub use deadlock::{DeadlockReport, WaitForGraph, WaitReason};
pub use invariants::{reconcile_shards, InvariantMonitor, ShardCounters, VerifyReport, Violation};
pub use races::{AccessInfo, AccessKind, RaceDetector, RaceHandle, RaceMode, RaceReport};
pub use sched::{vyield, Failure, FailureKind, Model, Outcome, Schedule};
pub use shim::VPlatform;
pub use suite::{mutation_model, run_suite, SuiteEffort, SuiteResult};
