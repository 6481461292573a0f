//! Process-global verify-mode switch.
//!
//! The figure driver builds its simulations deep inside the app harnesses,
//! which do not expose the [`ClusterSim`](crate::world::ClusterSim) before
//! running it. This flag is the hook: set it before constructing
//! simulations (e.g. `figures --verify`) and every subsequently built
//! `ClusterSim` attaches an
//! [`InvariantMonitor`](dcuda_verify::InvariantMonitor).
//!
//! The monitor is strictly observational — it never schedules events or
//! alters timing — so enabling it must leave every reported series
//! byte-identical (covered by the `verify_transparency` golden test).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static VERIFY: AtomicBool = AtomicBool::new(false);
static RACES: AtomicBool = AtomicBool::new(false);

/// Attach an invariant monitor to every `ClusterSim` built from now on.
pub fn enable() {
    VERIFY.store(true, Ordering::Release);
}

/// Stop attaching monitors (mainly for tests that toggle the flag).
pub fn disable() {
    VERIFY.store(false, Ordering::Release);
}

/// Whether verify mode is on.
pub fn is_enabled() -> bool {
    VERIFY.load(Ordering::Acquire)
}

/// Attach the happens-before race detector to every `ClusterSim` built
/// from now on (`figures --verify race`). Like the invariant monitor it is
/// strictly observational; races surface in `RunReport::races`.
pub fn enable_races() {
    RACES.store(true, Ordering::Release);
}

/// Whether race detection is on.
pub fn races_enabled() -> bool {
    RACES.load(Ordering::Acquire)
}

static RACES_FOUND: AtomicU64 = AtomicU64::new(0);

/// Fold a finished simulation's race count into the process-wide tally
/// (the figure driver reads it after running every app).
pub fn note_races(n: u64) {
    RACES_FOUND.fetch_add(n, Ordering::AcqRel);
}

/// Races found by every simulation run so far in this process.
pub fn races_found() -> u64 {
    RACES_FOUND.load(Ordering::Acquire)
}
