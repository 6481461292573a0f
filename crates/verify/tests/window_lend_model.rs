//! Model checking for the window lend word — the guard that lets a device
//! engine land a payload in a waiting rank's window memory. The runtime's
//! bank calls `LendWord::{lend, try_reclaim, land}` from `dcuda-queues`;
//! this suite runs those same three bodies on [`VPlatform`], with the
//! window as two model-checked payload cells and the notification as the
//! shipped SPSC ring, so every access to the window is checked for
//! happens-before against every other.
//!
//! The rank owns its window, lends it around each wait step, reclaims it
//! and then touches every byte, as a program may; it stops once the
//! notification arrives, applying the payload itself if the engine did
//! not land it. The engine lands the payload if the window is lent and
//! then sends the notification, carrying the payload only if it could not
//! land it — `Host::deliver_local`'s choice.

use dcuda_queues::plat::{PlatCell, Platform};
use dcuda_queues::{channel_on, LendWord};
use dcuda_verify::sched::ModelThread;
use dcuda_verify::{mutation_model, FailureKind, Model, Outcome, VPlatform};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

type Cell = <VPlatform as Platform>::Cell<u32>;

const OLD: u32 = 0x0101;
const NEW: u32 = 0x0202;

/// Window memory of two words: a landing that tore would leave them apart.
struct Window {
    lo: Cell,
    hi: Cell,
}

// SAFETY: the model scheduler runs one virtual thread at a time, and
// whether the lend word orders the cell accesses is exactly what it checks
// (the runtime's bank makes the same claim for real window memory).
unsafe impl Sync for Window {}

impl Window {
    /// Take both words (the cells move their value out).
    fn take(&self) -> (u32, u32) {
        // SAFETY: the lend protocol under test is what makes these
        // accesses exclusive; the model reports any that are not.
        unsafe { (self.lo.read(), self.hi.read()) }
    }

    fn put(&self, v: u32) {
        // SAFETY: as in `take`.
        unsafe {
            self.lo.write(v);
            self.hi.write(v);
        }
    }
}

/// The notification: did the engine land the payload, or does it carry it?
#[derive(Debug)]
struct Notice {
    landed: bool,
    payload: u32,
}

/// Executions in which the engine landed the payload, and in which it
/// left it to the rank (plain counters outside the model).
#[derive(Default)]
struct Seen {
    landed: AtomicU64,
    fell_back: AtomicU64,
}

/// Rank and engine over one window, the engine making `attempts` tries to
/// land before it notifies (a lend covers every landing in it).
fn mk_lend(attempts: u32, seen: Arc<Seen>) -> impl Fn() -> Vec<ModelThread> {
    move || {
        let seen = seen.clone();
        let word = Arc::new(LendWord::<VPlatform>::new());
        let window = Arc::new(Window {
            lo: Cell::empty(),
            hi: Cell::empty(),
        });
        window.put(OLD);
        let (mut tx, mut rx) = channel_on::<Notice, VPlatform>(2);
        let (rank_word, rank_window) = (word.clone(), window.clone());
        let rank: ModelThread = Box::new(move || loop {
            rank_word.lend();
            dcuda_verify::vyield();
            while !rank_word.try_reclaim() {
                dcuda_verify::vyield();
            }
            // Owned again: every byte is the rank's, landed or not.
            let (lo, hi) = rank_window.take();
            assert_eq!(lo, hi, "torn window: {lo:#x} / {hi:#x}");
            assert!(lo == OLD || lo == NEW, "window holds {lo:#x}");
            rank_window.put(lo);
            if let Ok(notice) = rx.try_recv() {
                if !notice.landed {
                    rank_window.take();
                    rank_window.put(notice.payload);
                }
                let (lo, hi) = rank_window.take();
                assert_eq!((lo, hi), (NEW, NEW), "notified before the payload");
                rank_window.put(lo);
                return;
            }
        });
        let engine: ModelThread = Box::new(move || {
            let mut landed = false;
            for _ in 0..attempts {
                landed = word
                    .land(|| {
                        window.take();
                        window.put(NEW);
                    })
                    .is_some();
                if landed {
                    break;
                }
                dcuda_verify::vyield();
            }
            let count = if landed {
                &seen.landed
            } else {
                &seen.fell_back
            };
            count.fetch_add(1, Ordering::SeqCst);
            let mut notice = Notice {
                landed,
                payload: NEW,
            };
            loop {
                match tx.try_send(notice) {
                    Ok(()) => return,
                    Err(dcuda_queues::TrySendError::Full(n)) => notice = n,
                    Err(e) => panic!("ring: {e:?}"),
                }
                dcuda_verify::vyield();
            }
        });
        vec![rank, engine]
    }
}

fn model() -> Model {
    Model {
        preemption_bound: 2,
        max_executions: 200_000,
        ..Model::default()
    }
}

/// Lend, land and reclaim pass under bounded preemption: no access to the
/// window without a happens-before edge to the previous one, no torn
/// window, and the payload is in place when its notification is seen —
/// whether the engine landed it or the rank copied it. Both choices are
/// explored.
#[test]
fn lend_land_reclaim_passes() {
    for attempts in [1, 2] {
        let seen = Arc::new(Seen::default());
        match model().check(mk_lend(attempts, seen.clone())) {
            Outcome::Pass {
                executions,
                truncated,
            } => {
                assert!(!truncated, "bounded search hit the execution cap");
                assert!(executions > 50, "suspiciously small branch space");
            }
            Outcome::Fail(f) => panic!("lend protocol failed ({attempts} attempts): {f}"),
        }
        let landed = seen.landed.load(Ordering::SeqCst);
        let fell_back = seen.fell_back.load(Ordering::SeqCst);
        assert!(
            landed > 0 && fell_back > 0,
            "{landed} landed, {fell_back} fell back"
        );
    }
}

/// Seeded mutation: the rank's lend store demoted to relaxed. The engine's
/// landing is then unordered after the rank's last write to its window.
#[test]
fn demoted_lend_store_is_caught() {
    let m = Model {
        demote_release_of: Some(0),
        ..model()
    };
    let failure = m
        .check(mk_lend(1, Arc::default()))
        .failure()
        .expect("a relaxed lend must be caught")
        .clone();
    assert_eq!(failure.kind, FailureKind::DataRace);
    let replayed = m.replay(mk_lend(1, Arc::default()), &failure.schedule);
    assert_eq!(
        replayed.failure().map(|f| f.kind.clone()),
        Some(FailureKind::DataRace)
    );
}

/// Seeded mutation: the engine's release after landing demoted to relaxed.
/// The rank's first access after it reclaims is then unordered after the
/// landing copy.
#[test]
fn demoted_landing_release_is_caught() {
    let m = Model {
        demote_release_of: Some(1),
        ..model()
    };
    let failure = m
        .check(mk_lend(1, Arc::default()))
        .failure()
        .expect("a relaxed landing release must be caught")
        .clone();
    assert_eq!(failure.kind, FailureKind::DataRace);
    let replayed = m.replay(mk_lend(1, Arc::default()), &failure.schedule);
    assert_eq!(
        replayed.failure().map(|f| f.kind.clone()),
        Some(FailureKind::DataRace)
    );
}

/// The suite's global mutation (every release demoted) is caught too.
#[test]
fn every_release_demoted_is_caught() {
    let failure = mutation_model()
        .check(mk_lend(1, Arc::default()))
        .failure()
        .expect("demoted releases must be caught")
        .clone();
    assert_eq!(failure.kind, FailureKind::DataRace);
}
