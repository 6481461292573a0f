//! Platform abstraction for the queue protocol's memory primitives.
//!
//! The SPSC ring (`spsc.rs`) is written against this small trait family
//! instead of `std::sync::atomic` directly, so the *same protocol code* can
//! run on two substrates:
//!
//! * [`StdPlatform`] — real `AtomicU64` + `UnsafeCell<MaybeUninit<T>>`
//!   payload cells. This is the production configuration; it compiles to
//!   exactly the code the ring had before the abstraction existed (the
//!   traits are `#[inline]`-forwarded zero-cost wrappers).
//! * `dcuda-verify`'s virtual platform — shimmed atomics that route every
//!   load/store through a model-checking scheduler which enumerates thread
//!   interleavings and weak-memory behaviours. Because the ring is generic,
//!   the checker exercises the shipped protocol, not a copy of it.
//!
//! # Safety contract for implementors
//!
//! The ring declares itself `Send`/`Sync` for any `Platform` (the SPSC
//! protocol guarantees exclusive payload access between the seq/tail
//! synchronization points). An implementation must therefore only use
//! associated types that are safe to share across threads when `T: Send` —
//! in particular [`Platform::Cell`] must not hand out aliasing access
//! beyond what [`PlatCell::write`]/[`PlatCell::read`] callers already
//! promise.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU64, Ordering};

/// An atomic 64-bit counter as the queue protocols use it: loads and stores
/// with explicit orderings, which is all the rings need (that is the point
/// of the paper's single-writer design), and one compare-exchange for the
/// window lend word, the only word two parties may both move.
pub trait PlatAtomicU64 {
    /// A counter initialized to `v`.
    fn new(v: u64) -> Self;
    /// Atomic load.
    fn load(&self, order: Ordering) -> u64;
    /// Atomic store.
    fn store(&self, v: u64, order: Ordering);
    /// Strong compare-exchange: store `new` if the value is `current`.
    /// `Ok` carries the replaced value, `Err` the value found instead.
    fn compare_exchange(
        &self,
        current: u64,
        new: u64,
        success: Ordering,
        failure: Ordering,
    ) -> Result<u64, u64>;
}

/// A payload slot: logically a `MaybeUninit<T>` whose init state is tracked
/// by the protocol (the slot's sequence number), not the cell itself.
///
/// # Safety
///
/// Callers of [`write`](Self::write) and [`read`](Self::read) must uphold
/// the SPSC exclusivity protocol: `write` requires that no other thread is
/// accessing the cell and that any previous value has been moved out;
/// `read` requires that a matching `write` happened-before it and moves the
/// value out (reading twice without an intervening write is undefined).
pub trait PlatCell<T> {
    /// A cell holding no value.
    fn empty() -> Self;
    /// Move `v` into the cell.
    ///
    /// # Safety
    /// See the trait-level contract.
    unsafe fn write(&self, v: T);
    /// Move the value out of the cell.
    ///
    /// # Safety
    /// See the trait-level contract.
    unsafe fn read(&self) -> T;
}

/// The pair of primitives a queue is built from.
pub trait Platform: 'static {
    /// Atomic counter type (sequence numbers, tail, disconnect flag).
    type AtomicU64: PlatAtomicU64;
    /// Payload slot type.
    type Cell<T>: PlatCell<T>;
}

/// Production platform: real atomics, `UnsafeCell` payload slots.
pub struct StdPlatform;

impl PlatAtomicU64 for AtomicU64 {
    #[inline]
    fn new(v: u64) -> Self {
        AtomicU64::new(v)
    }

    #[inline]
    fn load(&self, order: Ordering) -> u64 {
        AtomicU64::load(self, order)
    }

    #[inline]
    fn store(&self, v: u64, order: Ordering) {
        AtomicU64::store(self, v, order)
    }

    #[inline]
    fn compare_exchange(
        &self,
        current: u64,
        new: u64,
        success: Ordering,
        failure: Ordering,
    ) -> Result<u64, u64> {
        AtomicU64::compare_exchange(self, current, new, success, failure)
    }
}

/// Production payload cell: `UnsafeCell<MaybeUninit<T>>`, exactly the slot
/// representation the ring used before the platform abstraction.
pub struct StdCell<T>(UnsafeCell<MaybeUninit<T>>);

impl<T> PlatCell<T> for StdCell<T> {
    #[inline]
    fn empty() -> Self {
        StdCell(UnsafeCell::new(MaybeUninit::uninit()))
    }

    #[inline]
    unsafe fn write(&self, v: T) {
        (*self.0.get()).write(v);
    }

    #[inline]
    unsafe fn read(&self) -> T {
        (*self.0.get()).assume_init_read()
    }
}

impl Platform for StdPlatform {
    type AtomicU64 = AtomicU64;
    type Cell<T> = StdCell<T>;
}
