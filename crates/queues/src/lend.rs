//! The lend word: who may touch a rank's window memory right now.
//!
//! A rank owns its windows. While it waits it lends them to its device
//! engine, which may then land a payload in them directly instead of
//! handing the bytes to the rank to copy (paper §III: the host writes a
//! notified put's data into the target window and the block only polls the
//! notification). One word with three states guards the memory:
//!
//! * [`OWNED`] — the rank may read and write its windows; the engine may
//!   not touch them;
//! * [`LENT`] — the rank is inside a wait and touches nothing;
//! * [`LANDING`] — the engine is copying into the windows.
//!
//! Only the rank moves `OWNED → LENT` ([`lend`](LendWord::lend), a release
//! store), and only the engine leaves `LANDING` (a release store back to
//! `LENT` once its copy is done). Both may try to leave `LENT` at the same
//! time, so those two moves are compare-exchanges:
//! [`land`](LendWord::land) takes `LENT → LANDING` and
//! [`try_reclaim`](LendWord::try_reclaim) takes `LENT → OWNED`, each with
//! acquire ordering. The rank's accesses before a lend therefore happen
//! before every landing in that lend, and each landing happens before the
//! rank's accesses after it reclaims.
//!
//! Like the SPSC ring, the word is generic over [`Platform`], so
//! `dcuda-verify` model-checks this code in the form it ships.

use crate::plat::{PlatAtomicU64, Platform, StdPlatform};
use std::sync::atomic::Ordering;

/// The rank may touch its windows.
pub const OWNED: u64 = 0;
/// The rank waits and has given its windows to its engine.
pub const LENT: u64 = 1;
/// The engine is copying into the windows.
pub const LANDING: u64 = 2;

/// One rank's lend word (see the module docs).
pub struct LendWord<P: Platform = StdPlatform> {
    state: P::AtomicU64,
}

impl<P: Platform> Default for LendWord<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P: Platform> LendWord<P> {
    /// A word in state [`OWNED`].
    pub fn new() -> Self {
        LendWord {
            state: P::AtomicU64::new(OWNED),
        }
    }

    /// The rank lends its windows (it must own them). The release store
    /// publishes every access the rank made to them so far to the engine's
    /// next landing.
    pub fn lend(&self) {
        debug_assert_eq!(
            self.state.load(Ordering::Acquire),
            OWNED,
            "lend while not owned"
        );
        self.state.store(LENT, Ordering::Release);
    }

    /// The rank takes its windows back: `true` once it owns them, which it
    /// already does if it never lent them; `false` while a landing is in
    /// progress (try again: the engine holds the windows for one copy).
    pub fn try_reclaim(&self) -> bool {
        match self
            .state
            .compare_exchange(LENT, OWNED, Ordering::Acquire, Ordering::Acquire)
        {
            Ok(_) => true,
            Err(found) => found == OWNED,
        }
    }

    /// The engine runs `copy` on the windows if the rank has lent them,
    /// and gives them back to the lend afterwards; `None` (nothing run)
    /// while the rank owns them.
    pub fn land<R>(&self, copy: impl FnOnce() -> R) -> Option<R> {
        self.state
            .compare_exchange(LENT, LANDING, Ordering::Acquire, Ordering::Acquire)
            .ok()?;
        let out = copy();
        self.state.store(LENT, Ordering::Release);
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_landing_needs_a_lend() {
        let word = LendWord::<StdPlatform>::new();
        assert_eq!(word.land(|| 1), None, "owned windows are the rank's");
        word.lend();
        assert_eq!(word.land(|| 2), Some(2));
        assert_eq!(word.land(|| 3), Some(3), "a lend covers many landings");
        assert!(word.try_reclaim());
        assert_eq!(word.land(|| 4), None);
        assert!(word.try_reclaim(), "reclaiming owned windows is a no-op");
    }

    #[test]
    fn the_rank_cannot_reclaim_mid_landing() {
        let word = LendWord::<StdPlatform>::new();
        word.lend();
        let reclaimed = word.land(|| word.try_reclaim());
        assert_eq!(reclaimed, Some(false));
        assert!(word.try_reclaim());
    }
}
