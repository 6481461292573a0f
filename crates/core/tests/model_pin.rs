//! Bit-exact pins of the modelled outputs. The device model, the host
//! pipeline and the fabric are deterministic, so a host-side speed-up of the
//! simulator must leave every instant unchanged to the picosecond. Each
//! shape pins `end_time` in ps and an FNV-1a digest over every rank's
//! finish instant in ps. Any drift in the per-job service arithmetic, even
//! a different rounding order, moves them; a change to the cost model on
//! purpose re-records them. Each shape also pins the run's counters, so an
//! event the healthy path gains or loses shows even when no instant moves.

use dcuda_core::types::Topology;
use dcuda_core::{
    ClusterSim, Rank, RankCtx, RankKernel, RunReport, Suspend, SystemSpec, WinId, WindowSpec,
};
use dcuda_device::BlockCharge;

const HALO: usize = 1024;
/// Compute iterations per exchange (Figs. 7 and 8 at x = 64).
const WORK_ITERS: f64 = 64.0;
/// Fig. 7's Newton work per step: 128 threads x one ~16-flop division.
const NEWTON_FLOPS: f64 = 128.0 * 16.0 * WORK_ITERS;
/// Fig. 8's copy work per step: read and write one halo per iteration.
const COPY_BYTES: f64 = 2.0 * HALO as f64 * WORK_ITERS;

/// `(end_time in ps, FNV-1a over rank_finish in ps)`.
fn pin(report: &RunReport) -> (u64, u64) {
    let digest = report
        .rank_finish
        .iter()
        .flat_map(|t| t.as_ps().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
    (report.end_time.as_ps(), digest)
}

/// `[events, net_messages, net_staged, net_bytes, rma_ops, notifications,
/// peak_event_queue]`.
fn counters(report: &RunReport) -> [u64; 7] {
    [
        report.events,
        report.net_messages,
        report.net_staged,
        report.net_bytes,
        report.rma_ops,
        report.notifications,
        report.peak_event_queue,
    ]
}

/// One compute step, then notified puts into both chain neighbours' halo
/// slots (window layout `[own | from-left | from-right]`).
struct ChainHalo {
    charge: BlockCharge,
    left: Option<Rank>,
    right: Option<Rank>,
    exchanges: u32,
    done: u32,
}

impl RankKernel for ChainHalo {
    fn resume(&mut self, ctx: &mut RankCtx<'_>) -> Suspend {
        if self.done >= self.exchanges {
            return Suspend::Finished;
        }
        self.done += 1;
        ctx.charge(self.charge);
        let mut expected = 0;
        if let Some(l) = self.left {
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

/// A chain of `nodes x ranks_per_node` ranks, 5 exchanges, rank `r`
/// charging `charge(r)` per step.
fn chain_halo(ranks_per_node: u32, charge: impl Fn(u32) -> BlockCharge) -> RunReport {
    let topo = Topology {
        nodes: 2,
        ranks_per_node,
    };
    let world = topo.world_size();
    let kernels: Vec<Box<dyn RankKernel>> = topo
        .ranks()
        .map(|r| {
            Box::new(ChainHalo {
                charge: charge(r.0),
                left: (r.0 > 0).then(|| Rank(r.0 - 1)),
                right: (r.0 + 1 < world).then(|| Rank(r.0 + 1)),
                exchanges: 5,
                done: 0,
            }) as Box<dyn RankKernel>
        })
        .collect();
    let window = WindowSpec::uniform(&topo, 3 * HALO);
    ClusterSim::new(SystemSpec::greina(), topo, vec![window], kernels).run()
}

/// One side of a put ping-pong: the initiator puts first, the responder
/// answers every put it receives.
struct PingPong {
    peer: Rank,
    bytes: usize,
    initiator: bool,
    iters: u32,
    done: u32,
    reply_due: bool,
}

impl RankKernel for PingPong {
    fn resume(&mut self, ctx: &mut RankCtx<'_>) -> Suspend {
        if self.done >= self.iters {
            return Suspend::Finished;
        }
        if self.initiator || self.reply_due {
            ctx.put_notify(WinId(0), self.peer, 0, 0, self.bytes, 1);
            self.done += 1;
            if !self.initiator && self.done >= self.iters {
                return Suspend::Finished;
            }
        }
        self.reply_due = true;
        Suspend::WaitNotifications {
            win: Some(WinId(0)),
            source: Some(self.peer),
            tag: Some(1),
            count: 1,
        }
    }
}

/// Fig. 6, distributed placement: one rank on each of two nodes.
fn distributed_pingpong(bytes: usize) -> RunReport {
    let topo = Topology {
        nodes: 2,
        ranks_per_node: 1,
    };
    let kernels: Vec<Box<dyn RankKernel>> = (0..2)
        .map(|r| {
            Box::new(PingPong {
                peer: Rank(1 - r),
                bytes,
                initiator: r == 0,
                iters: 20,
                done: 0,
                reply_due: false,
            }) as Box<dyn RankKernel>
        })
        .collect();
    let window = WindowSpec::uniform(&topo, bytes.max(8));
    ClusterSim::new(SystemSpec::greina(), topo, vec![window], kernels).run()
}

/// Newton work between ring halos: every SM runs eight uncapped jobs.
#[test]
fn sim_overlap_halo_is_pinned() {
    // 2 nodes x 104 ranks: 8 blocks per SM.
    let report = chain_halo(104, |_| BlockCharge::flops(NEWTON_FLOPS));
    assert_eq!(pin(&report), (344_378_270, 7_847_132_373_934_159_964));
    assert_eq!(
        counters(&report),
        [21_123, 20, 0, 10_720, 2_070, 2_070, 418]
    );
}

/// Fig. 8's copy work: per-block capped jobs on the memory interface.
#[test]
fn fig8_copy_is_pinned() {
    let report = chain_halo(104, |_| BlockCharge::mem(COPY_BYTES));
    assert_eq!(pin(&report), (534_202_380, 12_224_945_028_383_171_389));
    assert_eq!(
        counters(&report),
        [21_638, 20, 0, 10_720, 2_070, 2_070, 418]
    );
}

/// A partly occupied device: 2 nodes x 5 ranks leave 8 of 13 SMs idle
/// for the whole run. Ranks cycle through compute-only, memory-only and
/// roofline (both) charges, so idle SMs, busy SMs and the capped memory
/// interface all take part in the same advances.
#[test]
fn partial_occupancy_mixed_charges_are_pinned() {
    let report = chain_halo(5, |r| match r % 3 {
        0 => BlockCharge::flops(NEWTON_FLOPS),
        1 => BlockCharge::mem(COPY_BYTES),
        _ => BlockCharge {
            flops: NEWTON_FLOPS / 2.0,
            mem_bytes: COPY_BYTES,
        },
    });
    assert_eq!(pin(&report), (411_696_779, 7_227_581_985_886_942_473));
    assert_eq!(counters(&report), [984, 20, 0, 10_720, 90, 90, 16]);
}

/// Fig. 6's distributed ping-pong, for an empty and a 64 KiB packet.
#[test]
fn fig6_distributed_pingpong_is_pinned() {
    let empty = distributed_pingpong(1);
    assert_eq!(pin(&empty), (750_613_320, 139_246_100_164_450_635));
    assert_eq!(counters(&empty), [522, 80, 0, 1_960, 40, 40, 3]);
    let staged = distributed_pingpong(64 << 10);
    assert_eq!(pin(&staged), (909_884_440, 17_652_084_182_923_208_469));
    assert_eq!(counters(&staged), [522, 80, 40, 2_623_360, 40, 40, 3]);
}
