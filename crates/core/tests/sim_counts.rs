//! Exact work counts of the simulator on the repo benchmark's `sim_overlap`
//! shape: 2 nodes x 104 ranks (the paper's Fig. 7 residency, 208 blocks on
//! 13 SMs per device), 200 ring-halo exchanges with Newton work between
//! them, `SystemSpec::greina()`.
//!
//! The event queue's paths, the device advances, the serving passes and
//! the heap allocations inside `run()` are as deterministic as the
//! modelled instants, so they pin the simulator's host work the way
//! `model_pin.rs` pins its output. A host-side change that claims to leave
//! every modelled picosecond alone must leave the serving passes alone too:
//! a pass is where service arithmetic happens, so one more or one fewer is
//! a different sequence of float operations. Any other count that moves is
//! re-recorded with its cause named.

use dcuda_core::types::Topology;
use dcuda_core::{
    ClusterSim, Rank, RankCtx, RankKernel, RunReport, Suspend, SystemSpec, WinId, WindowSpec,
};
use dcuda_des::{QueueCounts, SplitMix64};
use dcuda_device::{BlockCharge, DeviceCounts};
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

const HALO: usize = 1024;
/// Newton iterations between exchanges (128 threads x one ~16-flop DP
/// division each, per iteration).
const WORK_ITERS: f64 = 64.0;

/// One rank of the ring-halo kernel. Window layout per rank:
/// `[own | from-left | from-right]`, `HALO` bytes each.
struct RingHalo {
    seed: u64,
    left: Option<Rank>,
    right: Option<Rank>,
    exchanges: u32,
    done: u32,
}

fn own_payload(seed: u64, rank: u32) -> Vec<u8> {
    let mut bytes = vec![0u8; HALO];
    for (i, w) in bytes.chunks_exact_mut(8).enumerate() {
        let mut r = SplitMix64::new(
            seed ^ u64::from(rank).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (i as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
                ^ 13u64.wrapping_mul(0x1656_67B1_9E37_79F9),
        );
        w.copy_from_slice(&r.next_u64().to_le_bytes());
    }
    bytes
}

impl RankKernel for RingHalo {
    fn resume(&mut self, ctx: &mut RankCtx<'_>) -> Suspend {
        if self.done == 0 {
            let rank = ctx.rank().0;
            ctx.win_mut(WinId(0))[..HALO].copy_from_slice(&own_payload(self.seed, rank));
        }
        if self.done >= self.exchanges {
            return Suspend::Finished;
        }
        self.done += 1;
        ctx.charge(BlockCharge::flops(128.0 * 16.0 * WORK_ITERS));
        let mut expected = 0;
        if let Some(l) = self.left {
            // Lands in the left neighbour's from-right slot.
            ctx.put_notify(WinId(0), l, 2 * HALO, 0, HALO, 1);
            expected += 1;
        }
        if let Some(r) = self.right {
            ctx.put_notify(WinId(0), r, HALO, 0, HALO, 1);
            expected += 1;
        }
        Suspend::WaitNotifications {
            win: Some(WinId(0)),
            source: None,
            tag: Some(1),
            count: expected,
        }
    }
}

/// Build and run the shape; returns the report and the allocations made
/// inside `run()`.
fn sim_overlap(seed: u64) -> (RunReport, u64) {
    let topo = Topology {
        nodes: 2,
        ranks_per_node: 104,
    };
    let world = topo.world_size();
    let kernels: Vec<Box<dyn RankKernel>> = topo
        .ranks()
        .map(|r| {
            Box::new(RingHalo {
                seed,
                left: (r.0 > 0).then(|| Rank(r.0 - 1)),
                right: (r.0 + 1 < world).then(|| Rank(r.0 + 1)),
                exchanges: 200,
                done: 0,
            }) as Box<dyn RankKernel>
        })
        .collect();
    let window = WindowSpec::uniform(&topo, 3 * HALO);
    let mut sim = ClusterSim::new(SystemSpec::greina(), topo, vec![window], kernels);
    let before = allocs();
    let report = sim.run();
    (report, allocs() - before)
}

#[test]
fn sim_overlap_work_counts_are_pinned() {
    let (report, run_allocs) = sim_overlap(1);
    // The modelled values `benchmark/golden/sim_overlap.json` holds.
    assert_eq!(report.end_time.as_ps(), 12_600_654_922);
    assert_eq!((report.rma_ops, report.notifications), (82_800, 82_800));
    assert_eq!(report.net_bytes, 428_800);

    let queue = QueueCounts {
        fifo_schedules: 248_065,
        heap_schedules: 292_543,
        arms: 322_992,
        fifo_pops: 248_065,
        heap_pops: 292_543,
        timer_pops: 157_845,
    };
    assert_eq!(report.queue, queue);
    assert_eq!(report.events, 863_600);
    assert_eq!(
        report.events,
        queue.fifo_schedules + queue.heap_schedules + queue.arms
    );
    let device = DeviceCounts {
        advances: 323_045,
        sm_passes: 1_241_128,
        memory_passes: 200_845,
    };
    assert_eq!(report.device, device);
    // Each SM is sized for its blocks at launch, so serving allocates
    // nothing per SM here.
    assert_eq!(run_allocs, 4_044, "heap allocations inside run()");
}
