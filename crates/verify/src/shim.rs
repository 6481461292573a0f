//! Virtual platform: `dcuda_queues::plat::Platform` implemented over the
//! model-checking scheduler.
//!
//! Instantiating the production ring as
//! `dcuda_queues::channel_on::<T, VPlatform>(cap)` inside a
//! [`Model::check`](crate::sched::Model::check) program routes every atomic
//! load/store and every payload-cell access through the virtual scheduler —
//! the checker explores interleavings and weak-memory behaviours of the
//! *shipped* protocol code, not of a re-implementation.
//!
//! Objects of this platform are only constructible inside a model execution
//! (creation registers a location with the current execution via TLS);
//! constructing one outside panics with a clear message.

use crate::sched::{current, ExecInner};
use dcuda_queues::plat::{PlatAtomicU64, PlatCell, Platform};
use std::cell::UnsafeCell;
use std::sync::atomic::Ordering;
use std::sync::Arc;

fn ctx(what: &str) -> (Arc<ExecInner>, usize) {
    current().unwrap_or_else(|| panic!("{what} used outside a dcuda-verify model execution"))
}

/// Model-checked atomic counter ([`PlatAtomicU64`] over the scheduler).
pub struct VAtomicU64 {
    exec: Arc<ExecInner>,
    loc: usize,
}

impl PlatAtomicU64 for VAtomicU64 {
    fn new(v: u64) -> Self {
        let (exec, tid) = ctx("VAtomicU64");
        let loc = exec.new_loc(tid, true, "atomic", v);
        VAtomicU64 { exec, loc }
    }

    fn load(&self, order: Ordering) -> u64 {
        let (_, tid) = ctx("VAtomicU64");
        self.exec.op_load(tid, self.loc, order)
    }

    fn store(&self, v: u64, order: Ordering) {
        let (_, tid) = ctx("VAtomicU64");
        self.exec.op_store(tid, self.loc, v, order)
    }

    fn compare_exchange(
        &self,
        current: u64,
        new: u64,
        success: Ordering,
        failure: Ordering,
    ) -> Result<u64, u64> {
        let (_, tid) = ctx("VAtomicU64");
        self.exec
            .op_cas(tid, self.loc, current, new, success, failure)
    }
}

/// Model-checked payload cell. The value lives in an `UnsafeCell<Option<T>>`
/// so that protocol violations (double read, read-before-publish) become
/// model failures instead of the undefined behaviour they would be on the
/// production `MaybeUninit` cell.
pub struct VCell<T> {
    exec: Arc<ExecInner>,
    loc: usize,
    value: UnsafeCell<Option<T>>,
}

impl<T> PlatCell<T> for VCell<T> {
    fn empty() -> Self {
        let (exec, tid) = ctx("VCell");
        let loc = exec.new_loc(tid, false, "payload cell", 0);
        VCell {
            exec,
            loc,
            value: UnsafeCell::new(None),
        }
    }

    unsafe fn write(&self, v: T) {
        let (_, tid) = ctx("VCell");
        // The model grant (race/fullness checks + scheduling) precedes the
        // data write; the calling thread stays active until its next
        // visible op, so the access is exclusive in real memory too.
        self.exec.op_cell_write(tid, self.loc);
        *self.value.get() = Some(v);
    }

    unsafe fn read(&self) -> T {
        let (_, tid) = ctx("VCell");
        self.exec.op_cell_read(tid, self.loc);
        // op_cell_read diverges on an empty cell, so the model's full flag
        // guarantees a value is present here.
        match (*self.value.get()).take() {
            Some(v) => v,
            None => unreachable!("model full-flag and cell contents diverged"),
        }
    }
}

/// The virtual [`Platform`]: pass to `dcuda_queues::channel_on` inside a
/// model program.
pub struct VPlatform;

impl Platform for VPlatform {
    type AtomicU64 = VAtomicU64;
    type Cell<T> = VCell<T>;
}
