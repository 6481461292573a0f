//! A rank's window memory, shared by the rank and its device engine.
//!
//! The rank's [`RtCtx`](crate::RtCtx) and, in a world its ranks drive, its
//! device's engine each hold the bank through an `Arc`, so an engine can
//! never write into memory the rank has freed. A [`LendWord`] says which
//! of the two may touch the windows: the rank while it owns them, the
//! engine only while it lands a payload in windows the waiting rank lent
//! (see `dcuda_queues::lend`). The rank lends them only from inside the
//! one wait future, which holds the context mutably, so no window slice
//! the rank handed out can be alive then.
//!
//! This file holds the crate's only unsafe code on window memory: deriving
//! the rank's view of the windows, and the one landing copy. xtask lint R4
//! keeps raw window pointers and copies out of every other file.

use dcuda_queues::LendWord;
use std::cell::UnsafeCell;

/// The smallest payload an engine lands itself. Smaller payloads travel to
/// the rank in the delivery, whose copy costs less than the lend-word
/// exchange and the cache lines the engine's core would pull in (DESIGN
/// "Landing in place" has the sweep this size comes from).
pub(crate) const LAND_MIN: usize = 16 << 10;

/// One rank's windows: the user windows in layout order, then the hidden
/// collective-scratch window, empty until the rank first touches it.
pub(crate) struct WindowBank {
    lend: LendWord,
    windows: UnsafeCell<Vec<Vec<u8>>>,
}

// SAFETY: the windows are touched by the owning rank's thread while the
// lend word reads `OWNED`, and by one engine driver inside `land`, which
// holds the word in `LANDING`; the word's acquire/release edges order each
// side's accesses before the other's (model-checked in dcuda-verify's
// `window_lend_model`). `Vec<u8>` itself is `Send`.
unsafe impl Sync for WindowBank {}

impl WindowBank {
    pub fn new(windows: Vec<Vec<u8>>) -> Self {
        WindowBank {
            lend: LendWord::new(),
            windows: UnsafeCell::new(windows),
        }
    }

    /// The rank's view of its windows. Only `RtCtx` calls this, through
    /// `&self` of the context, while the rank owns the windows.
    pub fn rank_windows(&self) -> &Vec<Vec<u8>> {
        // SAFETY: the rank owns the windows (it lends them only inside a
        // wait, which borrows its context mutably, so this borrow cannot be
        // alive then); the engine touches them only while they are lent.
        unsafe { &*self.windows.get() }
    }

    /// The rank's mutable view of its windows; as [`rank_windows`], called
    /// through `&mut self` of the context, so the borrow is unique.
    ///
    /// [`rank_windows`]: Self::rank_windows
    #[allow(clippy::mut_from_ref)]
    pub fn rank_windows_mut(&self) -> &mut Vec<Vec<u8>> {
        // SAFETY: as in `rank_windows`, and the `&mut RtCtx` the caller
        // holds makes this the only rank-side borrow.
        unsafe { &mut *self.windows.get() }
    }

    /// The rank enters a wait: the engine may land payloads from now on.
    pub fn lend(&self) {
        self.lend.lend();
    }

    /// The rank leaves a wait: take the windows back, waiting out a landing
    /// in progress (one copy by a running engine driver). A no-op if they
    /// were not lent.
    pub fn reclaim(&self) {
        let mut spins = 0u32;
        while !self.lend.try_reclaim() {
            spins += 1;
            if spins < 64 {
                std::hint::spin_loop();
            } else {
                // The driver holding the landing may share this core.
                std::thread::yield_now();
            }
        }
    }

    /// The engine side: copy `data` to `off` of window `win` if the rank
    /// has lent its windows and the range is inside the window as it is
    /// now (an untouched scratch window is empty). `false`: nothing was
    /// written, and the payload must travel to the rank.
    pub fn try_land(&self, win: usize, off: usize, data: &[u8]) -> bool {
        self.lend
            .land(|| {
                // SAFETY: `land` runs this while the word reads `LANDING`,
                // which only a lent bank can enter and only this call
                // leaves: the rank touches no window until then.
                let windows = unsafe { &mut *self.windows.get() };
                let dst = windows
                    .get_mut(win)
                    .and_then(|w| w.get_mut(off..off.checked_add(data.len())?));
                dst.map(|dst| dst.copy_from_slice(data)).is_some()
            })
            .unwrap_or(false)
    }
}
