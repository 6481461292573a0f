//! The event-driven dCUDA runtime: the paper's architecture in virtual time.
//!
//! One [`ClusterSim`] models the whole cluster: per node a GPU
//! ([`dcuda_device::Device`]), a PCIe link, and a host runtime (event
//! handler + block managers, executed by a single worker thread — paper
//! §III-A); one interconnect ([`dcuda_fabric::Network`]) between nodes.
//! Ranks are blocks; their kernels are [`RankKernel`] state machines doing
//! real numerics on per-node [`Arena`] memory while the world charges their
//! costs to the simulated hardware.
//!
//! # The notified-put pipeline (paper Figure 5)
//!
//! ```text
//! origin rank        origin host          target host          target rank
//!  put_notify ─PCIe─▶ block manager ─MPI─▶ event handler
//!                      │   └─ data (device-to-device) ─┐ ... block manager
//!                      └─ flush id update              └──▶ completion
//!                                                            └─PCIe─▶ notification
//! ```
//!
//! Shared-memory accesses short-circuit: the copy runs on the origin block
//! itself (charged to its SM/memory resources, zero-copy when source and
//! destination coincide in overlapping windows) and only the notification
//! loops through the host (paper §III-A: "we go even one step further and
//! loop device local notifications through the host as well").

use crate::barrier::barrier_exit_times;
use crate::kernel::{NotifyMode, RankCtx, RankKernel, RmaKind, RmaOp, Segment, Suspend};
use crate::pool::PayloadPool;
use crate::report::RunReport;
use crate::spec::SystemSpec;
use crate::types::{Rank, Topology};
use crate::window::{Arena, WindowSpec};
use dcuda_des::{EventQueue, FifoResource, SimDuration, SimTime, Slab, SlotKey};
use dcuda_device::{BlockCharge, BlockSlot, Device, LaunchConfig};
use dcuda_fabric::{Network, NodeId, PcieLink, TransferPath};
use dcuda_queues::{IndexedMatcher, Notification, Query, ANY};
use dcuda_trace::metrics::{overlap_efficiency, IntervalSet};
use dcuda_trace::{TraceSummary, Tracer, Track};
use dcuda_verify::{InvariantMonitor, RaceDetector, RaceReport, WaitForGraph, WaitReason};
use std::collections::VecDeque;

/// Where a rank currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// Has (or is about to get) a `RankWork` event.
    Ready,
    /// A charge is draining on the device.
    Computing,
    /// Blocked in `wait_notifications`.
    Waiting,
    /// Blocked in `flush`.
    Flushing,
    /// Blocked in the barrier collective.
    InBarrier,
    /// Kernel finished.
    Done,
}

struct RankState {
    /// The recorded step still to run, with a memory charge queued ahead
    /// of each same-device copy.
    actions: VecDeque<Segment>,
    suspend: Option<Suspend>,
    status: Status,
    query: Query,
    want: u32,
    outstanding: u32,
    /// Arrived-but-unmatched notifications. The index answers queries in
    /// O(matches) host time; the *modeled* linear-scan cost it reports is
    /// charged to the simulated device unchanged.
    pending: IndexedMatcher,
    /// Device work owed for notification matching, prepended to the next
    /// charge (the paper: "the notification matching itself is relatively
    /// compute heavy").
    match_backlog_flops: f64,
    finish: SimTime,
}

impl RankState {
    fn new() -> Self {
        RankState {
            actions: VecDeque::new(),
            suspend: None,
            status: Status::Ready,
            query: Query::WILDCARD,
            want: 0,
            outstanding: 0,
            pending: IndexedMatcher::new(),
            match_backlog_flops: 0.0,
            finish: SimTime::ZERO,
        }
    }
}

/// An in-flight distributed transfer.
struct Transfer {
    op: RmaOp,
    origin: Rank,
    /// Snapshot of the payload, taken when the data leaves its source
    /// memory.
    payload: Vec<u8>,
    /// Target-side meta processing finished (receive posted).
    meta_ready: Option<SimTime>,
    /// Data landed in destination device memory.
    data_ready: Option<SimTime>,
    completion_submitted: bool,
    /// First monitor token minted for this transfer's notification fan-out
    /// (0 when unmonitored or the op does not notify).
    notif_token: u64,
}

/// Host-side work items (everything the per-node worker thread does).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HostItem {
    /// Origin block manager processes a put/get command.
    RmaCmd { xfer: u64 },
    /// Origin block manager forwards a device-local notification
    /// (optionally fanned out to every local rank, the §V broadcast-put).
    SharedNotify {
        target: u32,
        notif: Notification,
        origin: u32,
        all: bool,
        /// First monitor token of the (contiguously minted) fan-out; 0 when
        /// the run is unmonitored.
        token: u64,
    },
    /// Target event handler + block manager process incoming meta.
    MetaAtTarget { xfer: u64 },
    /// Completion handling once meta and data are both in.
    Complete { xfer: u64 },
    /// A rank entered the barrier. `nb_tag` is set for nonblocking entries
    /// (completion delivered as a notification instead of an ack).
    BarrierCmd { rank: u32, nb_tag: Option<u32> },
}

impl HostItem {
    /// Trace span label.
    fn label(self) -> &'static str {
        match self {
            HostItem::RmaCmd { .. } => "rma_cmd",
            HostItem::SharedNotify { .. } => "shared_notify",
            HostItem::MetaAtTarget { .. } => "meta_at_target",
            HostItem::Complete { .. } => "complete",
            HostItem::BarrierCmd { .. } => "barrier_cmd",
        }
    }
}

/// Token of the `local`-th member of a contiguously minted broadcast
/// fan-out (0 stays 0: unmonitored run).
fn fan_token(first: u64, local: u32) -> u64 {
    if first == 0 {
        0
    } else {
        first + u64::from(local)
    }
}

/// Trace span label of the state a rank is leaving (`None` for states that
/// are not materialized as spans).
fn status_span_name(s: Status) -> Option<&'static str> {
    match s {
        Status::Computing => Some("compute"),
        Status::Waiting => Some("wait"),
        Status::Flushing => Some("flush"),
        Status::InBarrier => Some("barrier"),
        Status::Ready | Status::Done => None,
    }
}

/// Simulation events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    RankWork {
        rank: u32,
    },
    /// The device's next internal completion; armed in timer slot `node`.
    DeviceTick {
        node: u32,
    },
    HostNotice {
        node: u32,
        item: HostItem,
    },
    HostDone {
        node: u32,
        item: HostItem,
    },
    NetMetaArrive {
        xfer: u64,
    },
    NetDataArrive {
        xfer: u64,
    },
    NotifDeliver {
        rank: u32,
        notif: Notification,
        token: u64,
    },
    OriginFree {
        rank: u32,
    },
    BarrierAck {
        rank: u32,
    },
}

/// The simulated cluster executing one dCUDA kernel.
pub struct ClusterSim {
    spec: SystemSpec,
    topo: Topology,
    queue: EventQueue<Ev>,
    devices: Vec<Device>,
    pcie: Vec<PcieLink>,
    host_worker: Vec<FifoResource>,
    net: Network,
    /// `[node][window]` backing memory.
    arenas: Vec<Vec<Arena>>,
    windows: Vec<WindowSpec>,
    /// `[rank][window]` byte range in the node arena.
    ranges: Vec<Vec<std::ops::Range<usize>>>,
    ranks: Vec<RankState>,
    kernels: Vec<Box<dyn RankKernel>>,
    transfers: Slab<Transfer>,
    /// Device work side table: tag -> rank.
    work: Slab<u32>,
    // Barrier state.
    barrier_arrived: Vec<u32>,
    barrier_entry: Vec<Option<SimTime>>,
    /// Per-rank nonblocking tag for the current barrier epoch.
    barrier_nb: Vec<Option<u32>>,
    // Counters.
    finished: u32,
    rma_ops: u64,
    zero_copy_ops: u64,
    shared_ops: u64,
    distributed_ops: u64,
    notifications: u64,
    notifications_scanned: u64,
    barriers: u64,
    /// Reusable payload snapshot buffers.
    pool: PayloadPool,
    /// Cluster-wide trace recorder (disabled unless
    /// [`enable_tracing`](Self::enable_tracing) ran before `run`).
    tracer: Tracer,
    /// Token-level invariant monitor (attached when
    /// [`verify_mode`](crate::verify_mode) was on at construction or
    /// [`enable_verification`](Self::enable_verification) ran). Strictly
    /// observational: it never schedules events or changes timing.
    monitor: Option<InvariantMonitor>,
    /// Happens-before race detector over window byte ranges (attached when
    /// [`verify_mode::races_enabled`](crate::verify_mode::races_enabled)
    /// was on at construction or
    /// [`enable_race_detection`](Self::enable_race_detection) ran).
    /// Observational like the monitor; races land in `RunReport::races`.
    races: Option<RaceDetector>,
    /// Instant each rank entered its current [`Status`] (trace span start).
    status_since: Vec<SimTime>,
    // Scratch.
    completed_buf: Vec<u64>,
    /// Segment buffer lent to each kernel resume and drained back.
    segments_buf: Vec<Segment>,
}

impl ClusterSim {
    /// Build a cluster of `topo.nodes` nodes with the given window layouts
    /// and per-rank kernels (indexed by world rank).
    ///
    /// # Panics
    /// Panics if the kernel count does not match the topology, a window
    /// layout is invalid, or the per-node rank count exceeds device
    /// residency.
    pub fn new(
        spec: SystemSpec,
        topo: Topology,
        windows: Vec<WindowSpec>,
        kernels: Vec<Box<dyn RankKernel>>,
    ) -> Self {
        assert_eq!(
            kernels.len(),
            topo.world_size() as usize,
            "need one kernel per world rank"
        );
        for w in &windows {
            w.validate(&topo);
        }
        let launch = LaunchConfig {
            blocks: topo.ranks_per_node,
            ..LaunchConfig::paper()
        };
        let devices: Vec<Device> = (0..topo.nodes)
            .map(|_| Device::launch(spec.device.clone(), &launch))
            .collect();
        let arenas: Vec<Vec<Arena>> = (0..topo.nodes)
            .map(|n| {
                windows
                    .iter()
                    .map(|w| Arena::new(w.arena_len(&topo, n)))
                    .collect()
            })
            .collect();
        let ranges: Vec<Vec<std::ops::Range<usize>>> = topo
            .ranks()
            .map(|r| windows.iter().map(|w| w.range_of(r)).collect())
            .collect();
        let pcie = (0..topo.nodes)
            .map(|_| PcieLink::new(spec.pcie.clone()))
            .collect();
        let host_worker = (0..topo.nodes).map(|_| FifoResource::new()).collect();
        let net = Network::new(spec.network.clone(), topo.nodes as usize);
        let ranks = (0..topo.world_size()).map(|_| RankState::new()).collect();
        ClusterSim {
            spec,
            topo,
            queue: EventQueue::new(),
            devices,
            pcie,
            host_worker,
            net,
            arenas,
            windows,
            ranges,
            ranks,
            kernels,
            transfers: Slab::new(),
            work: Slab::new(),
            barrier_arrived: vec![0; topo.nodes as usize],
            barrier_entry: vec![None; topo.nodes as usize],
            barrier_nb: vec![None; topo.world_size() as usize],
            finished: 0,
            rma_ops: 0,
            zero_copy_ops: 0,
            shared_ops: 0,
            distributed_ops: 0,
            notifications: 0,
            notifications_scanned: 0,
            barriers: 0,
            pool: PayloadPool::new(),
            tracer: Tracer::disabled(),
            monitor: crate::verify_mode::is_enabled().then(InvariantMonitor::default),
            races: crate::verify_mode::races_enabled()
                .then(|| RaceDetector::new(topo.world_size())),
            status_since: vec![SimTime::ZERO; topo.world_size() as usize],
            completed_buf: Vec::new(),
            segments_buf: Vec::new(),
        }
    }

    /// Start recording a cluster-wide trace. Call before [`run`](Self::run);
    /// the run itself is unaffected (tracing observes sim-time instants, it
    /// never schedules events), and the resulting `RunReport` gains a
    /// [`TraceSummary`].
    pub fn enable_tracing(&mut self) {
        self.tracer = Tracer::enabled();
        self.net.enable_log();
        for link in &mut self.pcie {
            link.enable_log();
        }
    }

    /// Take the recorded trace (empty unless
    /// [`enable_tracing`](Self::enable_tracing) preceded [`run`](Self::run)).
    pub fn take_trace(&mut self) -> Tracer {
        std::mem::take(&mut self.tracer)
    }

    /// Attach the invariant monitor to this simulation regardless of the
    /// global [`verify_mode`](crate::verify_mode) flag. Call before
    /// [`run`](Self::run); the run itself is unaffected (the monitor
    /// observes, it never schedules), and the resulting `RunReport` gains a
    /// [`dcuda_verify::VerifyReport`]. The run panics if the monitor finds
    /// a violation — verification is loud by design.
    pub fn enable_verification(&mut self) {
        if self.monitor.is_none() {
            self.monitor = Some(InvariantMonitor::default());
        }
    }

    /// Attach the happens-before race detector regardless of the global
    /// [`verify_mode::races_enabled`](crate::verify_mode::races_enabled)
    /// flag. Call before [`run`](Self::run); the detector observes RMA
    /// issues, notification matches, flushes and barriers — never kernel
    /// timing — and every racy pair it finds lands in `RunReport::races`.
    pub fn enable_race_detection(&mut self) {
        if self.races.is_none() {
            self.races = Some(RaceDetector::new(self.topo.world_size()));
        }
    }

    /// Mint a monitor token for one notification headed to `target`
    /// (0 = unmonitored run).
    fn mint(&mut self, target: u32, notif: Notification) -> u64 {
        self.monitor.as_mut().map_or(0, |m| m.sent(target, notif))
    }

    /// Mint one token per resident rank of `node` (contiguous range; the
    /// fan-out addresses token `first + local`). Returns the first token.
    fn mint_broadcast(&mut self, node: u32, notif: Notification) -> u64 {
        let mut first = 0;
        for local in 0..self.topo.ranks_per_node {
            let target = self.topo.rank_of(node, local).0;
            let t = self.mint(target, notif);
            if local == 0 {
                first = t;
            }
        }
        first
    }

    /// Move a rank to a new status, closing the trace span of the state it
    /// leaves.
    fn set_status(&mut self, rank: u32, new: Status, now: SimTime) {
        let prev = self.ranks[rank as usize].status;
        if prev == new {
            return;
        }
        self.ranks[rank as usize].status = new;
        if self.tracer.is_enabled() {
            if let Some(name) = status_span_name(prev) {
                let since = self.status_since[rank as usize];
                self.tracer
                    .span(Track::Rank(rank), name, since.as_ps(), now.as_ps(), vec![]);
            }
        }
        self.status_since[rank as usize] = now;
    }

    /// Immutable access to a node's arena for a window (for test inspection
    /// and result extraction after a run).
    pub fn arena(&self, node: u32, win: crate::types::WinId) -> &[u8] {
        self.arenas[node as usize][win.index()].bytes()
    }

    /// Topology of the simulated cluster.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The registered window layouts.
    pub fn windows(&self) -> &[WindowSpec] {
        &self.windows
    }

    /// Run the kernel to completion and report.
    ///
    /// # Panics
    /// Panics with a per-rank status dump if the system deadlocks (event
    /// queue drained while ranks are still blocked).
    pub fn run(&mut self) -> RunReport {
        // Kernel launch: all blocks become resident after the launch
        // overhead, then start executing.
        let start = SimTime::ZERO + self.spec.device.launch_overhead;
        for r in 0..self.topo.world_size() {
            self.queue.schedule_at(start, Ev::RankWork { rank: r });
        }
        while let Some((now, ev)) = self.queue.pop() {
            self.handle(now, ev);
            if self.finished == self.topo.world_size() {
                break;
            }
        }
        if self.finished != self.topo.world_size() {
            // Event queue drained with unfinished ranks: build the
            // wildcard-aware wait-for graph and report *why* — hopeless
            // ranks, wait cycles, and the "no matching sender exists" lint —
            // instead of a bare status dump.
            let not_entered: Vec<u32> = self
                .ranks
                .iter()
                .enumerate()
                .filter(|(_, s)| s.status != Status::InBarrier && s.status != Status::Done)
                .map(|(i, _)| i as u32)
                .collect();
            let mut graph = WaitForGraph::new(self.topo.world_size());
            for (i, s) in self.ranks.iter().enumerate() {
                let rank = i as u32;
                match s.status {
                    Status::Done => graph.set_done(rank),
                    Status::Waiting => graph.add_waiter(
                        rank,
                        WaitReason::Notification {
                            query: s.query,
                            want: u64::from(s.want),
                        },
                    ),
                    Status::InBarrier => graph.add_waiter(
                        rank,
                        WaitReason::Barrier {
                            missing: not_entered.clone(),
                        },
                    ),
                    Status::Flushing => graph.add_waiter(rank, WaitReason::Flush),
                    Status::Ready | Status::Computing => {}
                }
            }
            let analysis = graph.analyze();
            let stuck: Vec<String> = self
                .ranks
                .iter()
                .enumerate()
                .filter(|(_, s)| s.status != Status::Done)
                .take(16)
                .map(|(i, s)| {
                    format!(
                        "rank {i}: {:?} (pending notifs: {})",
                        s.status,
                        s.pending.len()
                    )
                })
                .collect();
            panic!(
                "dCUDA deadlock: {}/{} ranks finished\n{analysis}stuck examples: {:#?}",
                self.finished,
                self.topo.world_size(),
                stuck
            );
        }
        let end_time = self
            .ranks
            .iter()
            .map(|s| s.finish)
            .max()
            .unwrap_or(SimTime::ZERO);
        let trace = self.tracer.is_enabled().then(|| self.finish_trace());
        let verify = self.monitor.take().map(InvariantMonitor::finish);
        if let Some(v) = &verify {
            assert!(v.is_clean(), "invariant monitor: {}", v.summary());
        }
        let races = self
            .races
            .take()
            .map(|d| d.reports().to_vec())
            .unwrap_or_default();
        crate::verify_mode::note_races(races.len() as u64);
        RunReport {
            end_time,
            rank_finish: self.ranks.iter().map(|s| s.finish).collect(),
            rma_ops: self.rma_ops,
            zero_copy_ops: self.zero_copy_ops,
            shared_ops: self.shared_ops,
            distributed_ops: self.distributed_ops,
            notifications: self.notifications,
            notifications_scanned: self.notifications_scanned,
            barriers: self.barriers,
            net_messages: self.net.messages.get(),
            net_staged: self.net.staged_messages.get(),
            net_bytes: (0..self.topo.nodes)
                .map(|n| self.net.bytes_sent(NodeId(n)))
                .sum(),
            events: self.queue.scheduled_total(),
            peak_event_queue: self.queue.peak_pending() as u64,
            pool_acquires: self.pool.acquires(),
            pool_hits: self.pool.hits(),
            trace,
            verify,
            races,
        }
    }

    /// Fold the component-local logs into the tracer and compute the run's
    /// [`TraceSummary`]. Only called on traced runs, after the event loop.
    fn finish_trace(&mut self) -> TraceSummary {
        let mut summary = TraceSummary::default();

        // Network message lifecycles: the NIC track shows each message's
        // serialization interval (FIFO — never overlapping), the receiver
        // gets an arrival instant, and end-to-end latency feeds the
        // histogram.
        for rec in self.net.take_log() {
            self.tracer.span(
                Track::NetLink(rec.src.0),
                "msg",
                rec.egress_start.as_ps(),
                rec.egress_free.as_ps(),
                vec![
                    ("dst", u64::from(rec.dst.0).into()),
                    ("bytes", rec.bytes.into()),
                    ("path", rec.path.label().into()),
                ],
            );
            self.tracer.instant(
                Track::NetLink(rec.dst.0),
                "arrive",
                rec.arrival.as_ps(),
                vec![
                    ("src", u64::from(rec.src.0).into()),
                    ("bytes", rec.bytes.into()),
                ],
            );
            summary.net_hist.record(rec.arrival.since(rec.inject));
        }
        for (node, link) in self.pcie.iter_mut().enumerate() {
            for rec in link.take_log() {
                self.tracer.span(
                    Track::Pcie(node as u32),
                    rec.op.label(),
                    rec.start.as_ps(),
                    rec.done.as_ps(),
                    vec![("bytes", rec.bytes.into())],
                );
            }
        }

        // Per-rank blocked/compute intervals from the recorded spans.
        let world = self.topo.world_size() as usize;
        let mut waits: Vec<IntervalSet> = (0..world).map(|_| IntervalSet::new()).collect();
        let mut computes: Vec<IntervalSet> = (0..world).map(|_| IntervalSet::new()).collect();
        for s in self.tracer.spans() {
            if let Track::Rank(r) = s.track {
                match s.name {
                    "compute" => computes[r as usize].push(s.start_ps, s.end_ps),
                    "wait" | "flush" | "barrier" => {
                        waits[r as usize].push(s.start_ps, s.end_ps);
                        summary
                            .wait_hist
                            .record(SimDuration::from_ps(s.end_ps - s.start_ps));
                    }
                    _ => {}
                }
            }
        }
        let device_of: Vec<u32> = (0..self.topo.world_size())
            .map(|r| self.topo.node_of(Rank(r)))
            .collect();
        summary.overlap_efficiency = overlap_efficiency(&mut waits, &mut computes, &device_of);
        summary
    }

    fn handle(&mut self, now: SimTime, ev: Ev) {
        match ev {
            Ev::RankWork { rank } => self.advance_rank(rank, now),
            Ev::DeviceTick { node } => self.pump_device(node, now),
            Ev::HostNotice { node, item } => {
                // The action occupies the single worker thread briefly
                // (throughput limit) and completes after its pipeline
                // latency.
                let freed = self.host_worker[node as usize].submit(now, self.spec.host.worker_gap);
                let done = freed + self.host_cost(item);
                if self.tracer.is_enabled() {
                    let start = freed
                        .as_ps()
                        .saturating_sub(self.spec.host.worker_gap.as_ps());
                    self.tracer
                        .span(Track::Host(node), item.label(), start, done.as_ps(), vec![]);
                }
                self.queue.schedule_at(done, Ev::HostDone { node, item });
            }
            Ev::HostDone { node, item } => self.host_done(node, item, now),
            Ev::NetMetaArrive { xfer } => {
                // For a get, the "meta" travels origin -> holder.
                let tr = self
                    .transfers
                    .get(SlotKey::from_bits(xfer))
                    .expect("meta for unknown transfer");
                let target_node = self.topo.node_of(tr.op.partner);
                self.queue.schedule_at(
                    now + self.spec.host.poll_delay,
                    Ev::HostNotice {
                        node: target_node,
                        item: HostItem::MetaAtTarget { xfer },
                    },
                );
            }
            Ev::NetDataArrive { xfer } => {
                let key = SlotKey::from_bits(xfer);
                // The fabric is reliable: each transfer's payload arrives
                // exactly once, while the transfer is live.
                let landed = self
                    .transfers
                    .get(key)
                    .expect("data for unknown transfer")
                    .data_ready;
                assert!(landed.is_none(), "second data copy for one transfer");
                // Land the payload in destination memory.
                self.land_payload(key);
                let tr = self.transfers.get_mut(key).expect("live transfer");
                tr.data_ready = Some(now);
                self.maybe_complete(key, now);
            }
            Ev::NotifDeliver { rank, notif, token } => {
                self.deliver_notification(rank, notif, token, now)
            }
            Ev::OriginFree { rank } => {
                let st = &mut self.ranks[rank as usize];
                debug_assert!(st.outstanding > 0, "origin-free without outstanding op");
                st.outstanding -= 1;
                if st.status == Status::Flushing && st.outstanding == 0 {
                    st.suspend = None;
                    self.set_status(rank, Status::Ready, now);
                    self.queue.schedule_at(now, Ev::RankWork { rank });
                }
            }
            Ev::BarrierAck { rank } => {
                let st = &mut self.ranks[rank as usize];
                debug_assert_eq!(st.status, Status::InBarrier);
                st.suspend = None;
                self.set_status(rank, Status::Ready, now);
                self.queue.schedule_at(
                    now + self.spec.device.notification_poll_interval,
                    Ev::RankWork { rank },
                );
            }
        }
    }

    fn host_cost(&self, item: HostItem) -> SimDuration {
        let h = &self.spec.host;
        match item {
            HostItem::RmaCmd { .. }
            | HostItem::SharedNotify { .. }
            | HostItem::Complete { .. }
            | HostItem::BarrierCmd { .. } => h.block_manager_cost,
            HostItem::MetaAtTarget { .. } => h.dispatch_cost + h.block_manager_cost,
        }
    }

    /// Advance a node's device, turning completed work into `RankWork`
    /// events, and rearm its timer.
    fn pump_device(&mut self, node: u32, now: SimTime) {
        self.drain_device(node, now);
        self.rearm_device(node);
    }

    /// Advance a node's device to `now` and turn completed work into
    /// `RankWork` events, leaving its timer to the caller.
    fn drain_device(&mut self, node: u32, now: SimTime) {
        let dev = &mut self.devices[node as usize];
        self.completed_buf.clear();
        dev.advance_to(now, &mut self.completed_buf);
        for i in 0..self.completed_buf.len() {
            let tag = self.completed_buf[i];
            let rank = self
                .work
                .remove(SlotKey::from_bits(tag))
                .expect("device completion for unknown work");
            self.queue.schedule_at(now, Ev::RankWork { rank });
        }
    }

    fn rearm_device(&mut self, node: u32) {
        match self.devices[node as usize].next_event() {
            Some(t) => self.queue.arm(node as usize, t, Ev::DeviceTick { node }),
            None => self.queue.disarm(node as usize),
        }
    }

    /// Process a rank's action list until it blocks.
    fn advance_rank(&mut self, rank: u32, now: SimTime) {
        // A `RankWork` event for a computing rank means its device charge
        // drained: the compute span ends here.
        if self.ranks[rank as usize].status == Status::Computing {
            self.set_status(rank, Status::Ready, now);
        }
        loop {
            if self.ranks[rank as usize].status == Status::Done {
                return;
            }
            match self.ranks[rank as usize].actions.pop_front() {
                Some(Segment::Charge(mut c)) => {
                    {
                        let st = &mut self.ranks[rank as usize];
                        c.flops += st.match_backlog_flops;
                        st.match_backlog_flops = 0.0;
                    }
                    self.set_status(rank, Status::Computing, now);
                    let node = self.topo.node_of(Rank(rank));
                    let local = self.topo.local_of(Rank(rank));
                    let tag = self.work.insert(rank).to_bits();
                    // Bring the device up to date, add the new work, then
                    // arm the timer once for the new active set.
                    self.drain_device(node, now);
                    self.devices[node as usize].submit_block_work(now, BlockSlot(local), c, tag);
                    self.rearm_device(node);
                    return;
                }
                Some(Segment::Op(op)) => {
                    self.initiate_op(rank, op, now);
                }
                Some(Segment::IBarrier(tag)) => {
                    let node = self.topo.node_of(Rank(rank));
                    let visible = self.pcie[node as usize].post_txn(now, 16);
                    self.queue.schedule_at(
                        visible + self.spec.host.poll_delay,
                        Ev::HostNotice {
                            node,
                            item: HostItem::BarrierCmd {
                                rank,
                                nb_tag: Some(tag),
                            },
                        },
                    );
                    // Nonblocking: keep processing.
                }
                None => {
                    let pending = self.ranks[rank as usize].suspend.take();
                    match pending {
                        None => {
                            self.call_kernel(rank, now);
                            // Loop to process the freshly recorded segments.
                        }
                        Some(Suspend::Finished) => {
                            self.set_status(rank, Status::Done, now);
                            self.ranks[rank as usize].finish = now;
                            self.finished += 1;
                            return;
                        }
                        Some(Suspend::WaitNotifications {
                            win,
                            source,
                            tag,
                            count,
                        }) => {
                            {
                                let st = &mut self.ranks[rank as usize];
                                st.query = Query {
                                    win: win.map_or(ANY, |w| w.0),
                                    source: source.map_or(ANY, |r| r.0),
                                    tag: tag.unwrap_or(ANY),
                                };
                                st.want = count;
                            }
                            self.set_status(rank, Status::Waiting, now);
                            self.try_match(rank, now, false);
                            return;
                        }
                        Some(Suspend::Barrier) => {
                            self.set_status(rank, Status::InBarrier, now);
                            let node = self.topo.node_of(Rank(rank));
                            let visible = self.pcie[node as usize].post_txn(now, 16);
                            self.queue.schedule_at(
                                visible + self.spec.host.poll_delay,
                                Ev::HostNotice {
                                    node,
                                    item: HostItem::BarrierCmd { rank, nb_tag: None },
                                },
                            );
                            return;
                        }
                        Some(Suspend::Flush) => {
                            if self.ranks[rank as usize].outstanding > 0 {
                                self.set_status(rank, Status::Flushing, now);
                                return;
                            }
                            // Already flushed; continue straight into the
                            // next kernel step.
                        }
                    }
                }
            }
        }
    }

    /// Call the rank's kernel and queue the segments it recorded.
    fn call_kernel(&mut self, rank: u32, _now: SimTime) {
        let r = Rank(rank);
        let node = self.topo.node_of(r) as usize;
        let mut segments = std::mem::take(&mut self.segments_buf);
        let suspend = {
            // Split borrows: kernels and arenas are distinct fields.
            let ClusterSim {
                kernels,
                arenas,
                ranges,
                topo,
                spec,
                ..
            } = self;
            let mut ctx = RankCtx {
                rank: r,
                world_size: topo.world_size(),
                device_rank: topo.local_of(r),
                device_size: topo.ranks_per_node,
                node: node as u32,
                arenas: &mut arenas[node],
                ranges: &ranges[rank as usize],
                segments: &mut segments,
                // Issue cost: ~0.3 us of SM time to assemble and enqueue the
                // command tuple.
                op_issue_flops: 0.3e-6 * spec.device.sm_flops,
            };
            kernels[rank as usize].resume(&mut ctx)
        };
        debug_assert!(self.ranks[rank as usize].actions.is_empty());
        for seg in segments.drain(..) {
            if let Segment::Op(op) = &seg {
                // Same-device copies run on the origin block itself: model
                // the copy as a memory charge (read + write) that precedes
                // the dispatch (skipped entirely on the zero-copy path).
                if self.topo.same_device(r, op.partner) && !self.is_zero_copy(r, op) {
                    self.ranks[rank as usize]
                        .actions
                        .push_back(Segment::Charge(BlockCharge::mem(2.0 * op.len as f64)));
                }
            }
            self.ranks[rank as usize].actions.push_back(seg);
        }
        self.segments_buf = segments;
        self.ranks[rank as usize].suspend = Some(suspend);
        self.set_status(rank, Status::Ready, _now);
    }

    /// Mirror an RMA issue into the race detector. Puts map directly: a
    /// source-range read at the origin plus an asynchronous channel-epoch
    /// write at the target, with the notification (when any) carrying the
    /// join snapshot the target's matching wait consumes. Gets are
    /// approximated as a notified put flowing the other way (partner →
    /// origin): the remote read is credited to the partner's clock as of
    /// issue time and the local landing is the channel effect — the
    /// closest expressible shape (the sim already mints get notifications
    /// with `source = partner`, so the join keys line up).
    fn race_rma(&mut self, rank: u32, op: &RmaOp, now: SimTime) {
        if self.races.is_none() {
            return;
        }
        let notify = (op.notify != NotifyMode::None).then_some(op.tag);
        // A device-broadcast notification also reaches the partner's
        // siblings; collect them first so each wait gets a join snapshot.
        let siblings: Vec<u32> =
            if op.kind == RmaKind::Put && op.notify == NotifyMode::AllOnTargetDevice {
                let node = self.topo.node_of(op.partner);
                (0..self.topo.ranks_per_node)
                    .map(|local| self.topo.rank_of(node, local).0)
                    .filter(|&r| r != op.partner.0)
                    .collect()
            } else {
                Vec::new()
            };
        let d = self.races.as_mut().expect("checked above");
        let report = match op.kind {
            RmaKind::Put => d.put(
                rank,
                op.partner.0,
                op.win.0,
                (op.local_offset, op.local_offset + op.len),
                op.win.0,
                (op.remote_offset, op.remote_offset + op.len),
                notify,
                if notify.is_some() {
                    "put_notify"
                } else {
                    "put"
                },
            ),
            RmaKind::Get => d.put(
                op.partner.0,
                rank,
                op.win.0,
                (op.remote_offset, op.remote_offset + op.len),
                op.win.0,
                (op.local_offset, op.local_offset + op.len),
                notify,
                "get",
            ),
        };
        for sibling in siblings {
            let d = self.races.as_mut().expect("checked above");
            d.stash_snapshot(sibling, rank, op.win.0, op.tag);
        }
        if let Some(r) = report {
            self.race_found(&r, now);
        }
    }

    /// A race was just completed: emit its trace instant (the report itself
    /// already sits in the detector's accumulated list).
    fn race_found(&mut self, report: &RaceReport, now: SimTime) {
        if self.tracer.is_enabled() {
            self.tracer.instant(
                Track::Rank(report.owner),
                "race",
                now.as_ps(),
                vec![
                    ("win", u64::from(report.win).into()),
                    ("owner", u64::from(report.owner).into()),
                    ("start", (report.start as u64).into()),
                    ("end", (report.end as u64).into()),
                ],
            );
        }
    }

    /// Absolute byte span of the *local* side of an op in its node arena.
    fn local_span(&self, rank: Rank, op: &RmaOp) -> std::ops::Range<usize> {
        let base = self.ranges[rank.index()][op.win.index()].start;
        base + op.local_offset..base + op.local_offset + op.len
    }

    /// Absolute byte span of the *remote* side of an op in the partner's
    /// node arena.
    fn remote_span(&self, op: &RmaOp) -> std::ops::Range<usize> {
        let base = self.ranges[op.partner.index()][op.win.index()].start;
        base + op.remote_offset..base + op.remote_offset + op.len
    }

    fn is_zero_copy(&self, rank: Rank, op: &RmaOp) -> bool {
        self.topo.same_device(rank, op.partner) && self.local_span(rank, op) == self.remote_span(op)
    }

    /// Begin executing an RMA operation at its issue time.
    fn initiate_op(&mut self, rank: u32, op: RmaOp, now: SimTime) {
        {
            let partner_range = &self.ranges[op.partner.index()][op.win.index()];
            let partner_len = partner_range.end - partner_range.start;
            assert!(
                op.remote_offset + op.len <= partner_len,
                "rank {rank}: RMA remote range {}..{} exceeds {:?}'s window {:?} of {} bytes",
                op.remote_offset,
                op.remote_offset + op.len,
                op.partner,
                op.win,
                partner_len
            );
        }
        self.rma_ops += 1;
        self.race_rma(rank, &op, now);
        if self.tracer.is_enabled() {
            let name = match (op.kind, op.notify) {
                (RmaKind::Put, NotifyMode::None) => "put",
                (RmaKind::Put, _) => "put_notify",
                (RmaKind::Get, NotifyMode::None) => "get",
                (RmaKind::Get, _) => "get_notify",
            };
            self.tracer.instant(
                Track::Rank(rank),
                name,
                now.as_ps(),
                vec![
                    ("win", u64::from(op.win.0).into()),
                    ("partner", u64::from(op.partner.0).into()),
                    ("len", (op.len as u64).into()),
                    ("tag", u64::from(op.tag).into()),
                ],
            );
        }
        let r = Rank(rank);
        let node = self.topo.node_of(r);
        let same = self.topo.same_device(r, op.partner);
        if same {
            self.shared_ops += 1;
            if self.is_zero_copy(r, &op) {
                self.zero_copy_ops += 1;
            } else {
                // Perform the copy now (its time was charged as the
                // preceding memory-charge action).
                let local = self.local_span(r, &op);
                let remote = self.remote_span(&op);
                let arena = &mut self.arenas[node as usize][op.win.index()];
                match op.kind {
                    RmaKind::Put => arena.bytes_mut().copy_within(local, remote.start),
                    RmaKind::Get => arena.bytes_mut().copy_within(remote, local.start),
                }
            }
            if op.notify != NotifyMode::None {
                // Notification loops through the host (paper §III-A).
                self.ranks[rank as usize].outstanding += 1;
                let notif_target = match op.kind {
                    RmaKind::Put => op.partner.0,
                    RmaKind::Get => rank,
                };
                let notif = Notification {
                    win: op.win.0,
                    source: rank,
                    tag: op.tag,
                };
                let token = if op.notify == NotifyMode::AllOnTargetDevice {
                    self.mint_broadcast(node, notif)
                } else {
                    self.mint(notif_target, notif)
                };
                let visible = self.pcie[node as usize].post_txn(now, 16);
                self.queue.schedule_at(
                    visible + self.spec.host.poll_delay,
                    Ev::HostNotice {
                        node,
                        item: HostItem::SharedNotify {
                            target: notif_target,
                            origin: rank,
                            all: op.notify == NotifyMode::AllOnTargetDevice,
                            notif,
                            token,
                        },
                    },
                );
            }
            return;
        }
        // Distributed: command to the origin block manager. Put payloads
        // are snapshotted at issue time (the source buffer may be reused by
        // the kernel immediately after the nonblocking call returns; real
        // dCUDA requires a flush first, our model gives the stronger
        // issue-time-snapshot semantics).
        self.distributed_ops += 1;
        self.ranks[rank as usize].outstanding += 1;
        // Monitor tokens are minted at issue time (the origin "sends" the
        // notification with the put); delivery consumes them at the target.
        let notif_token = match (op.kind, op.notify) {
            (_, NotifyMode::None) => 0,
            (RmaKind::Put, NotifyMode::Target) => self.mint(
                op.partner.0,
                Notification {
                    win: op.win.0,
                    source: rank,
                    tag: op.tag,
                },
            ),
            (RmaKind::Put, NotifyMode::AllOnTargetDevice) => self.mint_broadcast(
                self.topo.node_of(op.partner),
                Notification {
                    win: op.win.0,
                    source: rank,
                    tag: op.tag,
                },
            ),
            (RmaKind::Get, _) => self.mint(
                rank,
                Notification {
                    win: op.win.0,
                    source: op.partner.0,
                    tag: op.tag,
                },
            ),
        };
        let payload = match op.kind {
            RmaKind::Put => {
                let local = self.local_span(r, &op);
                let mut buf = self.pool.acquire(op.len);
                buf.extend_from_slice(&self.arenas[node as usize][op.win.index()].bytes()[local]);
                buf
            }
            RmaKind::Get => Vec::new(),
        };
        let xfer = self
            .transfers
            .insert(Transfer {
                op,
                origin: r,
                payload,
                meta_ready: None,
                data_ready: None,
                completion_submitted: false,
                notif_token,
            })
            .to_bits();
        let visible = self.pcie[node as usize].post_txn(now, self.spec.host.meta_bytes);
        self.queue.schedule_at(
            visible + self.spec.host.poll_delay,
            Ev::HostNotice {
                node,
                item: HostItem::RmaCmd { xfer },
            },
        );
    }

    /// Execute the effect of a completed host job.
    fn host_done(&mut self, node: u32, item: HostItem, now: SimTime) {
        match item {
            HostItem::RmaCmd { xfer } => {
                let key = SlotKey::from_bits(xfer);
                let (op, origin) = {
                    let tr = self.transfers.get(key).expect("cmd for unknown transfer");
                    (tr.op, tr.origin)
                };
                let origin_node = NodeId(node);
                let partner_node = NodeId(self.topo.node_of(op.partner));
                // Meta information to the partner's event handler.
                let meta = self.net.send(
                    now,
                    origin_node,
                    partner_node,
                    self.spec.host.meta_bytes,
                    TransferPath::HostToHost,
                );
                self.queue
                    .schedule_at(meta.arrival, Ev::NetMetaArrive { xfer });
                match op.kind {
                    RmaKind::Put => {
                        // Inject the data message (payload was snapshotted
                        // at issue time).
                        let path = self
                            .net
                            .device_path(origin_node, partner_node, op.len as u64);
                        let data =
                            self.net
                                .send(now, origin_node, partner_node, op.len as u64, path);
                        self.queue
                            .schedule_at(data.arrival, Ev::NetDataArrive { xfer });
                        // Send buffers reusable -> flush id advances.
                        self.queue.schedule_at(
                            data.egress_free.max(now),
                            Ev::OriginFree { rank: origin.0 },
                        );
                    }
                    RmaKind::Get => {
                        // Data flows back only after the partner processes
                        // the request; nothing else to do here.
                    }
                }
            }
            HostItem::SharedNotify {
                target,
                notif,
                origin,
                all,
                token,
            } => {
                self.queue.schedule_at(now, Ev::OriginFree { rank: origin });
                if all {
                    // Broadcast-put: one notification per resident rank of
                    // the target device (each its own queue transaction).
                    // Tokens were minted contiguously in local order.
                    for local in 0..self.topo.ranks_per_node {
                        let rank = self.topo.rank_of(node, local);
                        let visible = self.pcie[node as usize].post_txn(now, 16);
                        self.queue.schedule_at(
                            visible,
                            Ev::NotifDeliver {
                                rank: rank.0,
                                notif,
                                token: fan_token(token, local),
                            },
                        );
                    }
                } else {
                    let visible = self.pcie[node as usize].post_txn(now, 16);
                    self.queue.schedule_at(
                        visible,
                        Ev::NotifDeliver {
                            rank: target,
                            notif,
                            token,
                        },
                    );
                }
            }
            HostItem::MetaAtTarget { xfer } => {
                let key = SlotKey::from_bits(xfer);
                let (op, origin) = {
                    let tr = self.transfers.get(key).expect("meta for unknown transfer");
                    (tr.op, tr.origin)
                };
                match op.kind {
                    RmaKind::Put => {
                        let tr = self.transfers.get_mut(key).expect("live transfer");
                        tr.meta_ready = Some(now);
                        self.maybe_complete(key, now);
                    }
                    RmaKind::Get => {
                        // We are on the data-holder node: snapshot and send
                        // the data back to the origin.
                        let remote = self.remote_span(&op);
                        let mut payload = self.pool.acquire(op.len);
                        payload.extend_from_slice(
                            &self.arenas[node as usize][op.win.index()].bytes()[remote],
                        );
                        let tr = self.transfers.get_mut(key).expect("live transfer");
                        assert!(tr.meta_ready.is_none(), "second get request");
                        tr.meta_ready = Some(now);
                        tr.payload = payload;
                        let holder_node = NodeId(node);
                        let origin_node = NodeId(self.topo.node_of(origin));
                        let path = self
                            .net
                            .device_path(holder_node, origin_node, op.len as u64);
                        let data =
                            self.net
                                .send(now, holder_node, origin_node, op.len as u64, path);
                        self.queue
                            .schedule_at(data.arrival, Ev::NetDataArrive { xfer });
                    }
                }
            }
            HostItem::Complete { xfer } => {
                let (op, origin, notif_token) = {
                    let tr = self
                        .transfers
                        .remove(SlotKey::from_bits(xfer))
                        .expect("complete unknown transfer");
                    (tr.op, tr.origin, tr.notif_token)
                };
                match op.kind {
                    RmaKind::Put => {
                        let notif = Notification {
                            win: op.win.0,
                            source: origin.0,
                            tag: op.tag,
                        };
                        match op.notify {
                            NotifyMode::None => {}
                            NotifyMode::Target => {
                                let visible = self.pcie[node as usize].post_txn(now, 16);
                                self.queue.schedule_at(
                                    visible,
                                    Ev::NotifDeliver {
                                        rank: op.partner.0,
                                        notif,
                                        token: notif_token,
                                    },
                                );
                            }
                            NotifyMode::AllOnTargetDevice => {
                                for local in 0..self.topo.ranks_per_node {
                                    let rank = self.topo.rank_of(node, local);
                                    let visible = self.pcie[node as usize].post_txn(now, 16);
                                    self.queue.schedule_at(
                                        visible,
                                        Ev::NotifDeliver {
                                            rank: rank.0,
                                            notif,
                                            token: fan_token(notif_token, local),
                                        },
                                    );
                                }
                            }
                        }
                    }
                    RmaKind::Get => {
                        // Origin side: data landed; flush can advance and the
                        // origin rank is notified.
                        self.queue
                            .schedule_at(now, Ev::OriginFree { rank: origin.0 });
                        if op.notify != NotifyMode::None {
                            let visible = self.pcie[node as usize].post_txn(now, 16);
                            self.queue.schedule_at(
                                visible,
                                Ev::NotifDeliver {
                                    rank: origin.0,
                                    notif: Notification {
                                        win: op.win.0,
                                        source: op.partner.0,
                                        tag: op.tag,
                                    },
                                    token: notif_token,
                                },
                            );
                        }
                    }
                }
            }
            HostItem::BarrierCmd { rank, nb_tag } => {
                let n = node as usize;
                self.barrier_arrived[n] += 1;
                self.barrier_nb[rank as usize] = nb_tag;
                if self.barrier_arrived[n] == self.topo.ranks_per_node {
                    self.barrier_entry[n] = Some(now);
                    if self.barrier_entry.iter().all(Option::is_some) {
                        self.finish_barrier(now);
                    }
                }
            }
        }
    }

    /// All nodes have entered: run the host-level dissemination barrier and
    /// ack every rank.
    fn finish_barrier(&mut self, _now: SimTime) {
        self.barriers += 1;
        if let Some(d) = self.races.as_mut() {
            // Blocking entrants join the all-entries clock now; nonblocking
            // entrants get it stashed as their pending completion
            // notification on the IBARRIER window and join when they match.
            let completions: Vec<(u32, Option<u32>)> = self
                .barrier_nb
                .iter()
                .enumerate()
                .map(|(r, nb)| (r as u32, *nb))
                .collect();
            d.barrier_entries(&completions, crate::kernel::IBARRIER_WIN);
        }
        let entries: Vec<SimTime> = self
            .barrier_entry
            .iter()
            .map(|t| t.expect("all nodes entered"))
            .collect();
        // One barrier signal: an empty message, meta-information only.
        let netspec = self.net.spec();
        let hop = netspec.overhead
            + netspec.latency
            + SimDuration::from_secs_f64(self.spec.host.meta_bytes as f64 / netspec.host_bandwidth);
        let exits = barrier_exit_times(&entries, hop);
        for node in 0..self.topo.nodes {
            let exit = exits[node as usize];
            for local in 0..self.topo.ranks_per_node {
                let rank = self.topo.rank_of(node, local);
                let visible = self.pcie[node as usize].post_txn(exit, 16);
                match self.barrier_nb[rank.index()].take() {
                    Some(tag) => {
                        // Nonblocking entry: completion as a notification
                        // (paper §V).
                        let notif = Notification {
                            win: crate::kernel::IBARRIER_WIN,
                            source: rank.0,
                            tag,
                        };
                        let token = self.mint(rank.0, notif);
                        self.queue.schedule_at(
                            visible,
                            Ev::NotifDeliver {
                                rank: rank.0,
                                notif,
                                token,
                            },
                        );
                    }
                    None => {
                        self.queue
                            .schedule_at(visible, Ev::BarrierAck { rank: rank.0 });
                    }
                }
            }
            self.barrier_arrived[node as usize] = 0;
            self.barrier_entry[node as usize] = None;
        }
    }

    /// Write an arrived payload into its destination arena.
    fn land_payload(&mut self, key: SlotKey) {
        let (op, origin, payload) = {
            let tr = self.transfers.get_mut(key).expect("land unknown transfer");
            (tr.op, tr.origin, std::mem::take(&mut tr.payload))
        };
        match op.kind {
            RmaKind::Put => {
                let node = self.topo.node_of(op.partner) as usize;
                let span = self.remote_span(&op);
                self.arenas[node][op.win.index()].bytes_mut()[span].copy_from_slice(&payload);
            }
            RmaKind::Get => {
                let node = self.topo.node_of(origin) as usize;
                let span = self.local_span(origin, &op);
                self.arenas[node][op.win.index()].bytes_mut()[span].copy_from_slice(&payload);
            }
        }
        // The snapshot buffer's job is done; keep it for the next put.
        self.pool.recycle(payload);
    }

    /// If meta and data are both in, submit the completion host job (on the
    /// target node for puts, the origin node for gets).
    fn maybe_complete(&mut self, key: SlotKey, now: SimTime) {
        let tr = self.transfers.get_mut(key).expect("unknown transfer");
        if tr.completion_submitted || tr.meta_ready.is_none() || tr.data_ready.is_none() {
            return;
        }
        tr.completion_submitted = true;
        let node = match tr.op.kind {
            RmaKind::Put => self.topo.node_of(tr.op.partner),
            RmaKind::Get => self.topo.node_of(tr.origin),
        };
        self.queue.schedule_at(
            now,
            Ev::HostNotice {
                node,
                item: HostItem::Complete {
                    xfer: key.to_bits(),
                },
            },
        );
    }

    /// A notification became visible in a rank's device-side queue.
    fn deliver_notification(&mut self, rank: u32, notif: Notification, token: u64, now: SimTime) {
        self.notifications += 1;
        if let Some(m) = self.monitor.as_mut() {
            m.delivered(notif.source, rank, token, notif);
        }
        if self.tracer.is_enabled() {
            self.tracer.instant(
                Track::Rank(rank),
                "notify",
                now.as_ps(),
                vec![
                    ("win", u64::from(notif.win).into()),
                    ("source", u64::from(notif.source).into()),
                    ("tag", u64::from(notif.tag).into()),
                ],
            );
        }
        self.ranks[rank as usize].pending.insert(notif);
        if self.ranks[rank as usize].status == Status::Waiting {
            self.try_match(rank, now, true);
        }
    }

    /// Attempt to satisfy a waiting rank's query. `poll` adds the device
    /// poll interval before the rank resumes (it was spinning on the queue).
    fn try_match(&mut self, rank: u32, now: SimTime, poll: bool) {
        let match_flops_per_scan =
            self.spec.device.notification_match_cost.as_secs_f64() * self.spec.device.sm_flops;
        let st = &mut self.ranks[rank as usize];
        debug_assert_eq!(st.status, Status::Waiting);
        let (monitor, races) = (&mut self.monitor, &mut self.races);
        let hit = st.pending.try_match_with(st.query, st.want as usize, |n| {
            if let Some(m) = monitor.as_mut() {
                m.matched(rank, *n, 1);
            }
            if let Some(d) = races.as_mut() {
                d.matched(rank, n.source, n.win, n.tag);
            }
        });
        match hit {
            Some(scanned) => {
                self.notifications_scanned += scanned as u64;
                st.match_backlog_flops += scanned as f64 * match_flops_per_scan;
                st.suspend = None;
                self.set_status(rank, Status::Ready, now);
                let wake = if poll {
                    now + self.spec.device.notification_poll_interval
                } else {
                    now
                };
                self.queue.schedule_at(wake, Ev::RankWork { rank });
            }
            None => {
                // Failed scans also consume device time while spinning. The
                // modeled cost comes from the matcher (a linear matcher
                // re-reads every pending entry), not from any host-side
                // shortcut the index takes.
                let scanned = st.pending.failed_scan_cost();
                self.notifications_scanned += scanned as u64;
                st.match_backlog_flops += scanned as f64 * match_flops_per_scan;
            }
        }
    }
}
