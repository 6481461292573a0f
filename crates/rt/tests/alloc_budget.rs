//! Exact allocation budgets of the program table on the cooperative driver.
//!
//! A job world runs every rank task and every device engine on the calling
//! thread, in a fixed order, so the heap operations a run makes are as
//! deterministic as its protocol counters. This binary counts them with a
//! per-thread counting global allocator and pins, per program and shape,
//! the allocations of a run at two iteration counts and the puts it made.
//! The difference between the two counts is the steady-state cost of the
//! extra iterations, with world construction and teardown cancelled out.
//! A change that adds or removes a heap operation on a put, a wait or an
//! engine pass moves these pins; it re-records them and names the cause.

use dcuda_rt::programs::{Params, Program};
use dcuda_rt::{try_run_cluster_job, CancelToken};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`) made by this
    /// thread; tests run on separate threads, so they do not mix.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count_one() {
    // `try_with`: a thread's last frees run after its locals are gone.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// `[allocation calls, puts, collective puts]` of one cooperative run,
/// the allocations counted from task construction to the returned report.
fn run(program: Program, devices: u32, ranks_per_device: u32, p: Params) -> [u64; 3] {
    let cfg = program
        .config(&p, devices, ranks_per_device)
        .build()
        .expect("valid config");
    let before = allocs();
    let tasks = program.tasks(p, cfg.world());
    let (report, _) =
        try_run_cluster_job(&cfg, tasks, &CancelToken::new()).expect("cooperative run");
    [allocs() - before, report.puts, report.coll.puts]
}

/// Short and long run of each program-table entry: `iters` is 4 and 8.
const SHORT: u32 = 4;
const LONG: u32 = 8;

/// One pinned cell: the program, its shape and payload, then
/// `[allocation calls, puts, collective puts]` at `SHORT` and at `LONG`
/// iterations.
struct Budget {
    program: Program,
    devices: u32,
    ranks_per_device: u32,
    payload: usize,
    counts: [[u64; 3]; 2],
}

const fn budget(
    program: Program,
    (devices, ranks_per_device): (u32, u32),
    payload: usize,
    counts: [[u64; 3]; 2],
) -> Budget {
    Budget {
        program,
        devices,
        ranks_per_device,
        payload,
        counts,
    }
}

/// Steady state, from the two runs: `PingPong` 3.5 allocations per
/// iteration (one round trip, two puts) at any payload and placement,
/// `Ring` 12.5, `Stencil` 13.5, `Allreduce` 481 per 4 KiB call (about one
/// per chunk put) and `Coll` 422.25; `Racey` ignores `iters`. Building a
/// world costs one window bank per rank and, per device, the engine's
/// bank list and payload marks.
const BUDGETS: [Budget; 8] = [
    budget(Program::PingPong, (2, 1), 8, [[81, 8, 0], [95, 16, 0]]),
    budget(
        Program::PingPong,
        (2, 1),
        64 << 10,
        [[81, 8, 0], [95, 16, 0]],
    ),
    budget(Program::PingPong, (1, 2), 8, [[68, 8, 0], [82, 16, 0]]),
    budget(Program::Ring, (2, 2), 256, [[159, 0, 40], [209, 0, 72]]),
    budget(
        Program::Stencil,
        (2, 2),
        256,
        [[167, 24, 32], [221, 48, 64]],
    ),
    budget(
        Program::Allreduce,
        (2, 2),
        4 << 10,
        [[2042, 0, 1600], [3966, 0, 3200]],
    ),
    budget(
        Program::Coll,
        (2, 2),
        1 << 10,
        [[1865, 0, 1152], [3554, 0, 2304]],
    ),
    budget(Program::Racey, (1, 2), 256, [[63, 1, 2], [63, 1, 2]]),
];

/// Every program-table entry's allocation calls and puts, at two iteration
/// counts, equal their pins exactly, and a second run of the same cell
/// makes exactly as many allocation calls as the first.
#[test]
fn program_table_allocation_budgets_are_pinned() {
    let mut report = String::new();
    let mut drift = false;
    for b in &BUDGETS {
        let counts = [SHORT, LONG].map(|iters| {
            let p = Params {
                seed: 7,
                iters,
                payload: b.payload,
            };
            let first = run(b.program, b.devices, b.ranks_per_device, p);
            let again = run(b.program, b.devices, b.ranks_per_device, p);
            assert_eq!(first, again, "{:?} {p:?}: a rerun differs", b.program);
            first
        });
        let per_iter = (counts[1][0] - counts[0][0]) as f64 / f64::from(LONG - SHORT);
        report += &format!(
            "{:?} {}x{} {} B: {counts:?} ({per_iter} allocations per iteration)\n",
            b.program, b.devices, b.ranks_per_device, b.payload
        );
        drift |= counts != b.counts;
    }
    assert!(!drift, "allocation budgets moved:\n{report}");
}
