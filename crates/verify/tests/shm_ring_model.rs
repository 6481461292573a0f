//! Model checking for the shared-mapping SPSC *byte* ring — the record
//! protocol `dcuda-net`'s shm plane runs over an `mmap`ed file. The plane
//! has no ring code of its own: it hands its mapping to `dcuda-queues`'
//! producer and consumer as their `RingStore`, and this suite drives those
//! same two bodies — through the `try_push_parts` / `try_pop_with` entry
//! points the plane calls — over `CellStore` on [`VPlatform`]. Every
//! length-word/body cell access and both monotonic frontier atomics go
//! through the virtual scheduler, so the pad/wrap placement math and the
//! Release-publish / Acquire-observe pairing are explored as shipped.

use dcuda_queues::byte_ring_on;
use dcuda_queues::bytering::{plan_record, record_bytes};
use dcuda_verify::sched::ModelThread;
use dcuda_verify::{mutation_model, FailureKind, Model, Outcome, VPlatform};

/// Producer/consumer handoff of `msgs` 4-byte-body records over a
/// `cap`-byte mapped region. With `cap = 20` and 8-byte records the third
/// push lands at offset 16 with only 4 bytes to the edge, forcing the
/// PAD_MARKER skip — the subtlest branch of the placement planner — under
/// model-checked interleaving.
fn mk_byte_ring_handoff(cap: usize, msgs: u8) -> impl Fn() -> Vec<ModelThread> {
    move || {
        let (mut tx, mut rx) = byte_ring_on::<VPlatform>(cap);
        let producer: ModelThread = Box::new(move || {
            for i in 0..msgs {
                let half = [i + 1; 2];
                while !tx.try_push_parts(&[&half, &half]) {
                    dcuda_verify::vyield();
                }
            }
        });
        let consumer: ModelThread = Box::new(move || {
            for i in 0..msgs {
                let check = |body: &[u8]| {
                    assert_eq!(body, [i + 1; 4], "record {i} torn or out of order");
                };
                while rx.try_pop_with(check).expect("well-formed ring").is_none() {
                    dcuda_verify::vyield();
                }
            }
        });
        vec![producer, consumer]
    }
}

/// Sanity on the geometry the tests below rely on: 8-byte records in a
/// 20-byte region place the third record across the edge.
#[test]
fn handoff_geometry_forces_the_pad_path() {
    let rec = record_bytes(4);
    assert_eq!(rec, 8);
    // After two records head = 16 in a 20-byte region; only 4 bytes remain
    // to the edge, so the third placement pads and wraps to offset 0.
    let g = plan_record(2 * rec as u64, 2 * rec as u64, 20, rec).expect("record must fit");
    assert_eq!(g.pad, 4);
    assert_eq!(g.offset, 0);
}

/// The shared-mapping handoff, pad path included, passes under bounded
/// preemption: no torn record, no double-read of a cell, no read before
/// publication, in any explored interleaving.
#[test]
fn byte_ring_handoff_passes_with_pad_path() {
    let m = Model {
        preemption_bound: 2,
        max_executions: 120_000,
        ..Model::default()
    };
    match m.check(mk_byte_ring_handoff(20, 3)) {
        Outcome::Pass { executions, .. } => {
            assert!(executions > 50, "suspiciously small branch space");
        }
        Outcome::Fail(f) => panic!("byte ring handoff failed: {f}"),
    }
}

/// A single record on the smallest legal region explores its full bounded
/// branch space without hitting the execution cap.
#[test]
fn byte_ring_single_record_completes_search() {
    let m = Model {
        preemption_bound: 2,
        max_executions: 500_000,
        ..Model::default()
    };
    match m.check(mk_byte_ring_handoff(16, 1)) {
        Outcome::Pass {
            truncated,
            executions,
        } => {
            assert!(!truncated, "bounded search hit the execution cap");
            assert!(executions > 20, "suspiciously small branch space");
        }
        Outcome::Fail(f) => panic!("single-record handoff failed: {f}"),
    }
}

/// Seeded ordering mutation: demoting the producer's Release publication
/// of `head` (exactly what a sloppy port of the shm plane to relaxed
/// stores would do) must surface as a data race on the record cells, and
/// the reported schedule must replay to the same failure.
#[test]
fn demoted_release_publication_is_caught() {
    let m = mutation_model();
    let failure = m
        .check(mk_byte_ring_handoff(16, 1))
        .failure()
        .expect("demoted Release publish must be caught")
        .clone();
    assert_eq!(failure.kind, FailureKind::DataRace);

    let replayed = m.replay(mk_byte_ring_handoff(16, 1), &failure.schedule);
    let rf = replayed
        .failure()
        .expect("replay must reproduce the failure");
    assert_eq!(rf.kind, FailureKind::DataRace);
}
