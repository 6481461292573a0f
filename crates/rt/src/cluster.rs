//! Cluster assembly: wire the queues of a world, then run it on threads or
//! as tasks.
//!
//! Three entry shapes exist. The classic [`try_run_cluster`] family runs the
//! whole world in one process over an [`InProcessPlane`], a thread per rank
//! and per device host loop. The [`try_run_cluster_part`] form runs a
//! *contiguous slice of devices* with caller-supplied [`Transport`]
//! endpoints — this is what each worker process of a `dcuda-launch`
//! multi-process run executes, with the other devices reachable over the
//! `dcuda-net` socket mesh. [`try_run_cluster_job`] runs a whole in-process
//! world of [`RankTask`]s on the calling thread alone (the cooperative
//! driver, [`mod@crate::task`]). All three build their world with one
//! builder.

use crate::bank::WindowBank;
use crate::coll::CollStats;
use crate::ctx::RtCtx;
use crate::host::{FlushHistory, Host, HostOutcome, SharedHost};
use crate::msg::{Cmd, Delivery};
use crate::task::RankTask;
use crate::types::RtError;
use dcuda_net::{InProcessPlane, NetStats, Transport};
use dcuda_queues::{channel, IndexedMatcher, ANY};
use dcuda_trace::{Tracer, Track};
use dcuda_verify::{
    reconcile_shards, RaceHandle, RaceMode, RaceReport, ShardCounters, VerifyReport,
};
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Upper bound on a single window's size (windows are allocated per rank, so
/// oversized layouts exhaust memory before any useful work happens).
pub const MAX_WINDOW_BYTES: usize = 1 << 30;

/// Upper bound on the world size (outside a job world every rank is an OS
/// thread).
pub const MAX_WORLD: u32 = 4096;

/// Default size of the hidden per-rank collective scratch window.
pub const DEFAULT_COLL_SCRATCH: usize = 64 * 1024;

/// Upper bound on progress-pool workers (each is an OS thread per
/// [`ClusterPart`]; more workers than local devices never helps).
pub const MAX_PROGRESS_THREADS: u32 = 64;

/// Who drives a host engine's routing and transport work (the asynchronous
/// progress engine — the analogue of NCCL/NVSHMEM proxy threads).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProgressMode {
    /// No dedicated progress threads: each device's host thread drives its
    /// engine, with byte-identical protocol counters and delivery order. In
    /// a world run whole in one process on threads ([`try_run_cluster`] and
    /// its traced and verified forms) a rank that would wait also
    /// runs a pass of its own device's engine whenever no other thread owns
    /// it, so a notified put no longer waits for two host threads to be
    /// scheduled; the host loop then yields after every pass. Parts run
    /// over a socket mesh ([`try_run_cluster_part`]) leave the host loop as
    /// the only driver, yielding only after a pass that found no work. A
    /// job world ([`try_run_cluster_job`]) has no host loops: its one
    /// driver thread passes every engine once per sweep.
    #[default]
    Inline,
    /// A pool of `n` dedicated progress threads co-drives every host
    /// engine of this [`ClusterPart`]: workers drain transport frames and
    /// pump deferred transport work whenever a host loop is busy
    /// elsewhere, work-stealing across the part's devices (worker `i`
    /// homes devices `d` with `d % n == i` and steals the rest
    /// opportunistically).
    Threads(u32),
}

/// Cluster shape and window layout.
///
/// Construct via [`RtConfig::builder`] for validated assembly, or fill the
/// fields directly and let [`try_run_cluster`] validate at launch.
#[derive(Debug, Clone)]
pub struct RtConfig {
    /// Number of devices (each with its own host thread, except in a job
    /// world).
    pub devices: u32,
    /// Ranks per device (each its own thread outside a job world — keep
    /// modest).
    pub ranks_per_device: u32,
    /// Window sizes in bytes (same layout on every rank).
    pub windows: Vec<usize>,
    /// Ring capacity for the command/delivery queues (power of two).
    pub ring_capacity: usize,
    /// Bytes of hidden per-rank scratch reserved for the collective engine
    /// (staging for in-flight reduction chunks). Collectives whose schedule
    /// needs more fail with `CollError::ScratchTooSmall`; size via
    /// [`dcuda_coll::allreduce_scratch_bytes`]. A rank allocates its
    /// scratch, at this size, the first time data lands in it or is read
    /// from it, so a rank that only runs barriers and user puts never does.
    pub coll_scratch: usize,
    /// Happens-before race detection over window memory (`None` = off; the
    /// hot path then carries a single pointer-null check, like tracing).
    /// Build via [`RtConfigBuilder::race_detect`]. The handle must be
    /// shared by **every** [`ClusterPart`] of the world — per-process
    /// detectors would miss cross-process synchronization edges and report
    /// false races, so race detection is only sound when the whole world
    /// shares one process (in-process loopback meshes included).
    pub races: Option<RaceHandle>,
    /// Progress engine: who drives the host engines' routing/transport
    /// work besides the host loops ([`ProgressMode::Inline`] = no pool;
    /// in a whole in-process world the waiting ranks help, see there).
    pub progress: ProgressMode,
    /// Iterations of deterministic spin work each host loop burns between
    /// progress passes, emulating a host busy with application work (the
    /// busy-host benchmark's knob; `0` = an undisturbed host loop).
    pub host_busy_spin: u64,
}

impl Default for RtConfig {
    fn default() -> Self {
        RtConfig {
            devices: 2,
            ranks_per_device: 4,
            windows: vec![4096],
            ring_capacity: 64,
            coll_scratch: DEFAULT_COLL_SCRATCH,
            races: None,
            progress: ProgressMode::Inline,
            host_busy_spin: 0,
        }
    }
}

impl RtConfig {
    /// Start building a validated configuration.
    pub fn builder() -> RtConfigBuilder {
        RtConfigBuilder {
            cfg: RtConfig::default(),
        }
    }

    /// World size (`devices * ranks_per_device`).
    pub fn world(&self) -> u32 {
        self.devices * self.ranks_per_device
    }

    /// Check every invariant [`try_run_cluster`] relies on.
    pub fn validate(&self) -> Result<(), RtError> {
        let fail = |msg: String| Err(RtError::InvalidConfig(msg));
        if self.devices == 0 {
            return fail("zero devices".into());
        }
        if self.ranks_per_device == 0 {
            return fail("zero ranks per device".into());
        }
        let world = self.devices.saturating_mul(self.ranks_per_device);
        if world > MAX_WORLD {
            return fail(format!(
                "world of {world} ranks exceeds the {MAX_WORLD}-thread cap"
            ));
        }
        if self.windows.is_empty() {
            return fail("no windows registered".into());
        }
        // +1: the hidden collective-scratch window is appended after the
        // user layout and must itself stay clear of the wildcard index.
        if self.windows.len() + 1 >= ANY as usize {
            return fail(format!(
                "{} windows collide with the wildcard",
                self.windows.len()
            ));
        }
        if self.coll_scratch > MAX_WINDOW_BYTES {
            return fail(format!(
                "collective scratch of {} bytes exceeds the {MAX_WINDOW_BYTES}-byte cap",
                self.coll_scratch
            ));
        }
        if let Some((i, &bytes)) = self
            .windows
            .iter()
            .enumerate()
            .find(|&(_, &b)| b > MAX_WINDOW_BYTES)
        {
            return fail(format!(
                "window {i} of {bytes} bytes exceeds the {MAX_WINDOW_BYTES}-byte cap"
            ));
        }
        if !self.ring_capacity.is_power_of_two() || self.ring_capacity < 2 {
            return fail(format!(
                "ring capacity {} is not a power of two >= 2",
                self.ring_capacity
            ));
        }
        if let ProgressMode::Threads(n) = self.progress {
            if n == 0 {
                return fail("progress thread pool of zero workers (use Inline)".into());
            }
            if n > MAX_PROGRESS_THREADS {
                return fail(format!(
                    "{n} progress threads exceed the {MAX_PROGRESS_THREADS}-thread cap"
                ));
            }
        }
        Ok(())
    }
}

/// Validating builder for [`RtConfig`].
#[derive(Debug, Clone)]
pub struct RtConfigBuilder {
    cfg: RtConfig,
}

impl RtConfigBuilder {
    /// Number of devices.
    pub fn devices(mut self, n: u32) -> Self {
        self.cfg.devices = n;
        self
    }

    /// Ranks per device.
    pub fn ranks_per_device(mut self, n: u32) -> Self {
        self.cfg.ranks_per_device = n;
        self
    }

    /// Replace the window layout.
    pub fn windows(mut self, sizes: Vec<usize>) -> Self {
        self.cfg.windows = sizes;
        self
    }

    /// Append one window of `bytes` to the layout.
    pub fn window(mut self, bytes: usize) -> Self {
        self.cfg.windows.push(bytes);
        self
    }

    /// Command/delivery ring capacity (power of two).
    pub fn ring_capacity(mut self, cap: usize) -> Self {
        self.cfg.ring_capacity = cap;
        self
    }

    /// Size of the hidden per-rank collective scratch window.
    pub fn coll_scratch(mut self, bytes: usize) -> Self {
        self.cfg.coll_scratch = bytes;
        self
    }

    /// Enable happens-before race detection over window memory.
    pub fn race_detect(mut self, mode: RaceMode) -> Self {
        self.cfg.races = RaceHandle::new(mode);
        self
    }

    /// Select the progress engine (default [`ProgressMode::Inline`]).
    pub fn progress(mut self, mode: ProgressMode) -> Self {
        self.cfg.progress = mode;
        self
    }

    /// Burn `iters` of spin work in each host loop between passes
    /// (busy-host emulation; default `0`).
    pub fn host_busy_spin(mut self, iters: u64) -> Self {
        self.cfg.host_busy_spin = iters;
        self
    }

    /// Validate and produce the configuration.
    pub fn build(self) -> Result<RtConfig, RtError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

/// Execution statistics.
#[derive(Debug, Clone, Default)]
pub struct RtReport {
    /// Puts routed by the hosts.
    pub puts: u64,
    /// Notifications enqueued at targets.
    pub notifications: u64,
    /// Notifications matched by rank-side queries.
    pub matched: u64,
    /// Barrier collectives completed (world-wide rounds).
    pub barriers: u64,
    /// Always 0: neither the runtime nor any transport plane has a
    /// reliability layer, because each plane's medium is reliable and
    /// ordered. Kept because the repo benchmark reports it.
    pub retries: u64,
    /// Always 0, as `retries`, and kept for the same reason.
    pub dups_suppressed: u64,
    /// Collective-engine statistics, aggregated over all ranks. The
    /// schedule-determined fields (`puts`, `bytes`, `chunks`) must agree
    /// across backends like the counters above; the hidden/blocked wait
    /// split is timing-dependent and exempt from conformance.
    pub coll: CollStats,
    /// Transport-plane counters (all zero on the in-process backend). These
    /// describe the plumbing, not the protocol: backends must agree on every
    /// field above while this one legitimately differs.
    pub net: NetStats,
    /// Races found by the happens-before detector (observe mode; strict
    /// mode surfaces the first race as [`RtError::Race`] instead). Always
    /// empty when `RtConfig::races` is `None`.
    pub races: Vec<RaceReport>,
}

/// Fold a finished world into its report, the one fold of every driver:
/// each rank's counters in rank order, then each engine's outcome in device
/// order. Timelines merge into `trace`, and invariant-counter shards
/// (verified runs only) collect into `shards`.
pub(crate) fn fold_report(
    ranks: impl IntoIterator<Item = RtCtx>,
    outcomes: impl IntoIterator<Item = HostOutcome>,
    trace: &mut Tracer,
    shards: &mut Vec<ShardCounters>,
) -> RtReport {
    let mut report = RtReport::default();
    for ctx in ranks {
        report.matched += ctx.matched;
        report.barriers = report.barriers.max(ctx.barriers_entered);
        report.coll.absorb(ctx.coll);
        trace.absorb(ctx.tracer);
        shards.extend(ctx.counters.map(|c| *c));
    }
    for out in outcomes {
        report.puts += out.puts;
        report.notifications += out.notifications;
        report.net.absorb(out.net);
        trace.absorb(out.net_trace);
        shards.extend(out.counters.map(|c| *c));
    }
    report
}

/// A rank program: a blocking closure over the rank's context.
pub type RankProgram = Box<dyn FnOnce(&mut RtCtx) + Send>;

/// Cooperative cancellation handle for a job world.
///
/// [`try_run_cluster_job`] wires the token into the run as its abort flag:
/// [`cancel`](CancelToken::cancel) raises it, the driver observes it at the
/// start of its next sweep (a task stuck on a full command ring sees it
/// too) and the run returns [`RtError::Cancelled`] — unless some rank or
/// engine had already failed first: a real root cause always wins over a
/// cancel. Cloning shares the same flag, so a scheduler can keep one half
/// while the job runner holds the other.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken(Arc::new(AtomicBool::new(false)))
    }

    /// Raise the flag: the run this token was passed to stops at its next
    /// sweep. Idempotent.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Has [`cancel`](CancelToken::cancel) been called?
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// Run `programs` (one per world rank) on a threaded cluster and return
/// statistics.
///
/// # Panics
/// Panics if the configuration fails [`RtConfig::validate`] or the program
/// count does not match the topology; [`try_run_cluster`] reports the same
/// conditions as [`RtError`] values.
pub fn run_cluster(cfg: &RtConfig, programs: Vec<RankProgram>) -> RtReport {
    try_run_cluster(cfg, programs).unwrap_or_else(|e| panic!("run_cluster: {e}"))
}

/// Fallible [`run_cluster`].
pub fn try_run_cluster(cfg: &RtConfig, programs: Vec<RankProgram>) -> Result<RtReport, RtError> {
    run_part_inner(cfg, programs, None, false, false).map(|(report, _, _)| report)
}

/// Run a job world: one [`RankTask`] per world rank, all on the calling
/// thread, and return the statistics with every rank's checksum (in rank
/// order). This is the entry point the multi-tenant scheduler runs every
/// admitted job through.
///
/// The world is built in process like [`try_run_cluster`]'s, but no thread
/// is spawned for it: the caller is the cooperative driver. Each sweep
/// polls every unfinished task once in rank order — a task waiting on
/// something that has not happened suspends again at once — and runs one
/// pass of every device engine; the run ends when every task has finished
/// and every engine reports quiescence. A task never blocks: it awaits,
/// and a blocking [`RtCtx`] call from inside it fails with
/// [`RtError::BlockingInTask`].
///
/// * A sweep in which no task reached a new wait or finished and no engine
///   moved anything is a fixed point — nothing else could ever move the
///   world — so the run ends at once with [`RtError::Stalled`], naming the
///   waiting ranks.
/// * Cancelling `cancel` tears down *this* world only and the run returns
///   [`RtError::Cancelled`]; a token cancelled only after the run
///   completed leaves the `Ok` result intact. A genuine failure
///   (`RankPanicked`, a task's own error, an engine failure) wins as the
///   root cause.
/// * A configuration this driver cannot honour is refused with
///   [`RtError::InvalidConfig`] naming the field: race detection
///   (`race_detect`), a progress pool (`progress`) and busy-host
///   emulation (`host_busy_spin`) all assume threads.
pub fn try_run_cluster_job(
    cfg: &RtConfig,
    tasks: Vec<RankTask>,
    cancel: &CancelToken,
) -> Result<(RtReport, Vec<u64>), RtError> {
    cfg.validate()?;
    let refuse = |field: &str, why: &str| {
        Err(RtError::InvalidConfig(format!(
            "{field}: {why}; a job world runs on one thread"
        )))
    };
    if cfg.races.is_some() {
        return refuse("race_detect", "the race detector orders rank threads");
    }
    if let ProgressMode::Threads(_) = cfg.progress {
        return refuse("progress", "a progress pool is a set of threads");
    }
    if cfg.host_busy_spin > 0 {
        return refuse("host_busy_spin", "busy-host emulation needs host loops");
    }
    check_count("rank tasks", tasks.len(), cfg.world(), cfg.world())?;
    let world = build_world(
        cfg,
        0,
        cfg.devices,
        in_process_planes(cfg.devices),
        Wiring {
            traced: false,
            verified: false,
            rank_driven: true,
            cooperative: true,
            abort: cancel.0.clone(),
        },
    )?;
    crate::task::drive(world, tasks, cancel)
}

/// As [`try_run_cluster`], with per-rank tracing enabled: returns the merged
/// cluster [`Tracer`] alongside the statistics. Rank spans (`wait`, `flush`,
/// `barrier`) and instants (`put`, `put_notify`) are stamped with per-rank
/// logical sequence numbers — ordering is meaningful within a rank's track,
/// not across tracks.
pub fn run_cluster_traced(
    cfg: &RtConfig,
    programs: Vec<RankProgram>,
) -> Result<(RtReport, Tracer), RtError> {
    run_part_inner(cfg, programs, None, true, false).map(|(report, trace, _)| (report, trace))
}

/// As [`try_run_cluster`], with the invariant monitor enabled: every rank
/// and host keeps a [`ShardCounters`] shard, reconciled after the join into
/// a [`VerifyReport`] covering notification conservation (`delivered +
/// dropped == sent`, `matched <= delivered` per class), the credit bound on
/// every command ring, and flush/barrier sequence monotonicity.
pub fn try_run_cluster_verified(
    cfg: &RtConfig,
    programs: Vec<RankProgram>,
) -> Result<(RtReport, VerifyReport), RtError> {
    run_part_inner(cfg, programs, None, false, true)
        .map(|(report, _, verify)| (report, verify.unwrap_or_default()))
}
/// One worker of the progress pool: sweeps every shared engine each round,
/// home engines first (worker `w` of `n` homes engines `j` with
/// `j % n == w`), then the rest — a pass that progresses a non-home engine
/// is a *steal*. Engines momentarily owned by their host loop (or another
/// worker) are skipped via `try_lock`, never blocked on. Returns the
/// worker's timeline (empty unless `traced`); errors surface through
/// `first_error` + the abort flag.
fn progress_worker(
    idx: u32,
    nworkers: u32,
    engines: Vec<SharedHost>,
    abort: &AtomicBool,
    first_error: &Mutex<Option<RtError>>,
    traced: bool,
) -> Tracer {
    let mut tracer = if traced {
        Tracer::enabled()
    } else {
        Tracer::disabled()
    };
    let n = engines.len();
    // Per-worker logical clock: ordering is meaningful within this track
    // only, like the rank and net timelines.
    let mut clock = 0u64;
    let mut passes = 0u64;
    loop {
        if abort.load(Ordering::Acquire) {
            break;
        }
        if engines.iter().all(|e| e.done.load(Ordering::Acquire)) {
            break;
        }
        let mut any = false;
        for k in 0..n {
            let j = (idx as usize + k) % n;
            let stealing = (j as u32) % nworkers != idx % nworkers;
            match engines[j].progress_pass(stealing) {
                Ok(true) => {
                    any = true;
                    passes += 1;
                    clock += 1;
                    tracer.instant(
                        Track::Progress(idx),
                        if stealing { "steal" } else { "drive" },
                        clock,
                        vec![("engine", (j as u64).into())],
                    );
                }
                Ok(false) => {}
                Err(e) => {
                    if !matches!(e, RtError::Aborted) {
                        record_first(first_error, e);
                    }
                    abort.store(true, Ordering::Release);
                    clock += 1;
                    tracer.instant(Track::Progress(idx), "abort", clock, vec![]);
                    return tracer;
                }
            }
        }
        if !any {
            std::thread::yield_now();
        }
    }
    clock += 1;
    tracer.span(
        Track::Progress(idx),
        "worker",
        0,
        clock,
        vec![("passes", passes.into())],
    );
    tracer
}

/// Take the recorded root cause of a failed run, if any.
pub(crate) fn take_first(slot: &Mutex<Option<RtError>>) -> Option<RtError> {
    match slot.lock() {
        Ok(mut g) => g.take(),
        Err(p) => p.into_inner().take(),
    }
}

/// Record the first failure observed across the cluster's threads.
fn record_first(slot: &Mutex<Option<RtError>>, err: RtError) {
    let mut g = match slot.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    };
    if g.is_none() {
        *g = Some(err);
    }
}

/// How every drive of a device's engine ends when it is charged to the
/// engine — the host thread's whole run, whichever progress mode drove it,
/// and each pass a waiting rank runs: hand back the value, or record the
/// root cause once as that device's host failure and raise the abort flag
/// so ranks spinning on deliveries or flush acks bail with `Aborted` and
/// the world's join completes. (`Aborted` itself is never a root cause: it
/// means the host observed a failure raised elsewhere.)
pub(crate) fn engine_result<T>(
    device: u32,
    res: std::thread::Result<Result<T, RtError>>,
    abort: &AtomicBool,
    first_error: &Mutex<Option<RtError>>,
) -> Option<T> {
    match res {
        Ok(Ok(out)) => return Some(out),
        Ok(Err(RtError::Aborted)) => {}
        Ok(Err(e)) => record_first(first_error, e),
        Err(p) => record_first(
            first_error,
            RtError::HostPanicked {
                device,
                message: panic_text(p),
            },
        ),
    }
    abort.store(true, Ordering::Release);
    None
}

pub(crate) fn panic_text(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The slice of a cluster one worker process runs: world devices
/// `first_device .. first_device + local_devices` out of `cfg.devices`.
#[derive(Debug, Clone, Copy)]
pub struct ClusterPart {
    /// First world device hosted by this process.
    pub first_device: u32,
    /// Number of consecutive world devices hosted by this process.
    pub local_devices: u32,
}

/// Run one process's slice of a multi-process cluster.
///
/// `cfg` describes the *whole* world (every process passes the identical
/// configuration — rank numbering and barrier rounds depend
/// on it). `programs` covers only the local ranks, in device-major order,
/// and `planes` supplies one [`Transport`] endpoint per local device,
/// index-aligned with `part.first_device`. Returns this process's share of
/// the statistics plus its merged tracer (empty unless `traced`).
pub fn try_run_cluster_part(
    cfg: &RtConfig,
    part: ClusterPart,
    programs: Vec<RankProgram>,
    planes: Vec<Box<dyn Transport>>,
    traced: bool,
) -> Result<(RtReport, Tracer), RtError> {
    run_part_inner(cfg, programs, Some((part, planes)), traced, false)
        .map(|(report, trace, _)| (report, trace))
}

fn in_process_planes(devices: u32) -> Vec<Box<dyn Transport>> {
    InProcessPlane::new_world(devices)
        .into_iter()
        .map(|ep| Box::new(ep) as Box<dyn Transport>)
        .collect()
}

/// `what` must number one per local rank.
fn check_count(what: &str, n: usize, local_ranks: u32, world: u32) -> Result<(), RtError> {
    if n != local_ranks as usize {
        return Err(RtError::InvalidConfig(format!(
            "{n} {what} for {local_ranks} local ranks (world of {world})"
        )));
    }
    Ok(())
}

/// How [`build_world`] wires a world.
struct Wiring {
    traced: bool,
    verified: bool,
    /// Every rank holds its own device's engine and drives it instead of
    /// waiting (rank-driven progress, see [`SharedHost`]).
    rank_driven: bool,
    /// Ranks run as tasks under the cooperative driver.
    cooperative: bool,
    /// The world's first-failure flag (a job world's cancel token).
    abort: Arc<AtomicBool>,
}

/// A world wired and ready to run: ranks, engines and the failure slots
/// they share.
pub(crate) struct World {
    /// Rank contexts in world-rank order.
    pub ranks: Vec<RtCtx>,
    /// Device engines in device order.
    pub engines: Vec<SharedHost>,
    pub finished_global: Arc<AtomicU32>,
    pub abort: Arc<AtomicBool>,
    pub first_error: Arc<Mutex<Option<RtError>>>,
}

/// Wire devices `first_device .. first_device + local_devices` of `cfg`'s
/// world: each rank's command and delivery rings, windows and context,
/// and each device's engine on its plane endpoint.
fn build_world(
    cfg: &RtConfig,
    first_device: u32,
    local_devices: u32,
    planes: Vec<Box<dyn Transport>>,
    wiring: Wiring,
) -> Result<World, RtError> {
    if planes.len() != local_devices as usize {
        return Err(RtError::InvalidConfig(format!(
            "{} transport endpoints for {local_devices} local devices",
            planes.len()
        )));
    }
    let world = cfg.world();
    if let Some(h) = &cfg.races {
        // Size the shared detector before any rank reports through it.
        // Parts of a loopback mesh all resolve to the same world.
        h.init(world);
    }
    let Wiring {
        traced,
        verified,
        rank_driven,
        cooperative,
        abort,
    } = wiring;
    let finished_global = Arc::new(AtomicU32::new(0));
    let first_error: Arc<Mutex<Option<RtError>>> = Arc::new(Mutex::new(None));
    let mut ranks: Vec<RtCtx> = Vec::new();
    let mut engines = Vec::new();
    for (device, plane) in (first_device..).zip(planes) {
        let first_local = ranks.len();
        let mut cmd_rx = Vec::new();
        let mut delivery_tx = Vec::new();
        let mut flush = Vec::new();
        let mut banks = Vec::new();
        for local in 0..cfg.ranks_per_device {
            let (ctx_cmd_tx, host_cmd_rx) = channel::<Cmd>(cfg.ring_capacity);
            let (host_del_tx, ctx_del_rx) = channel::<Delivery>(cfg.ring_capacity);
            let flush_done = Arc::new(AtomicU64::new(0));
            cmd_rx.push(host_cmd_rx);
            delivery_tx.push(host_del_tx);
            flush.push(FlushHistory::new(flush_done.clone()));
            // User windows in layout order, then the hidden collective
            // scratch window at index `user_windows`, empty until its first
            // use.
            let bank = Arc::new(WindowBank::new(
                cfg.windows
                    .iter()
                    .map(|&b| vec![0u8; b])
                    .chain(std::iter::once(Vec::new()))
                    .collect(),
            ));
            if rank_driven {
                banks.push(bank.clone());
            }
            ranks.push(RtCtx {
                rank: device * cfg.ranks_per_device + local,
                world,
                device,
                local,
                ranks_per_device: cfg.ranks_per_device,
                bank,
                user_windows: cfg.windows.len(),
                scratch_bytes: cfg.coll_scratch,
                cmd: ctx_cmd_tx,
                delivery: ctx_del_rx,
                pending: IndexedMatcher::new(),
                coll_inbox: Default::default(),
                coll: CollStats::default(),
                flush_sent: 0,
                flush_done,
                barriers_entered: 0,
                matched: 0,
                tracer: if traced {
                    Tracer::enabled()
                } else {
                    Tracer::disabled()
                },
                clock: 0,
                abort: abort.clone(),
                engine: None,
                first_error: first_error.clone(),
                cooperative,
                waiting: None,
                counters: verified.then(Box::default),
                last_flush_seen: 0,
                races: cfg.races.clone(),
            });
        }
        let engine = SharedHost::new(Host {
            device,
            devices: cfg.devices,
            ranks_per_device: cfg.ranks_per_device,
            cmd_rx,
            delivery_tx,
            delivery_backlog: (0..cfg.ranks_per_device).map(|_| VecDeque::new()).collect(),
            banks,
            last_payload: vec![0; cfg.ranks_per_device as usize],
            plane,
            finished_global: finished_global.clone(),
            finished_remote: vec![0; cfg.devices as usize],
            abort: abort.clone(),
            flush,
            puts_routed: 0,
            notifications_sent: 0,
            counters: verified.then(Box::default),
            busy_spin: cfg.host_busy_spin,
            progress_frames: 0,
            steals: 0,
        });
        if rank_driven {
            for ctx in &mut ranks[first_local..] {
                ctx.engine = Some(engine.clone());
            }
        }
        engines.push(engine);
    }
    Ok(World {
        ranks,
        engines,
        finished_global,
        abort,
        first_error,
    })
}

/// Run a world on threads: one per rank program, one per device host loop,
/// and the progress pool if configured.
///
/// `part`: this process's slice of a multi-process world with its socket
/// endpoints; `None` runs the whole world here on the in-process plane,
/// where under [`ProgressMode::Inline`] waiting ranks drive their own
/// device's engine (see [`SharedHost`]). Socket parts keep the ranks off it.
fn run_part_inner(
    cfg: &RtConfig,
    programs: Vec<RankProgram>,
    part: Option<(ClusterPart, Vec<Box<dyn Transport>>)>,
    traced: bool,
    verified: bool,
) -> Result<(RtReport, Tracer, Option<VerifyReport>), RtError> {
    cfg.validate()?;
    let rank_driven = part.is_none() && cfg.progress == ProgressMode::Inline;
    let (part, planes) = part.unwrap_or_else(|| {
        let whole = ClusterPart {
            first_device: 0,
            local_devices: cfg.devices,
        };
        (whole, in_process_planes(cfg.devices))
    });
    run_world(cfg, programs, part, planes, rank_driven, traced, verified)
}

/// [`run_part_inner`] on a validated configuration, with its engines' plane
/// endpoints and whether ranks drive them.
pub(crate) fn run_world(
    cfg: &RtConfig,
    programs: Vec<RankProgram>,
    part: ClusterPart,
    planes: Vec<Box<dyn Transport>>,
    rank_driven: bool,
    traced: bool,
    verified: bool,
) -> Result<(RtReport, Tracer, Option<VerifyReport>), RtError> {
    let (first_device, local_devices) = (part.first_device, part.local_devices);
    if local_devices == 0 || first_device.saturating_add(local_devices) > cfg.devices {
        return Err(RtError::InvalidConfig(format!(
            "part devices {}..{} outside the {}-device world",
            first_device,
            u64::from(first_device) + u64::from(local_devices),
            cfg.devices
        )));
    }
    let world = cfg.world();
    check_count(
        "programs",
        programs.len(),
        local_devices * cfg.ranks_per_device,
        world,
    )?;
    if verified && local_devices != cfg.devices {
        return Err(RtError::InvalidConfig(
            "invariant verification requires the whole world in one process".into(),
        ));
    }
    // Ranks or a pool drive the engines besides their host loops.
    let co_driven = rank_driven || matches!(cfg.progress, ProgressMode::Threads(_));
    let World {
        ranks,
        engines,
        finished_global,
        abort,
        first_error,
    } = build_world(
        cfg,
        first_device,
        local_devices,
        planes,
        Wiring {
            traced,
            verified,
            rank_driven,
            cooperative: false,
            abort: Arc::new(AtomicBool::new(false)),
        },
    )?;

    let mut host_handles = Vec::new();
    for (device, eng) in (first_device..).zip(&engines) {
        let (eng, abort, first_error) = (eng.clone(), abort.clone(), first_error.clone());
        host_handles.push(std::thread::spawn(move || {
            let res =
                std::panic::catch_unwind(AssertUnwindSafe(|| eng.run_host_loop(&abort, co_driven)));
            // Raised success or failure alike: workers and ranks must
            // stop driving an engine whose loop has exited.
            eng.done.store(true, Ordering::Release);
            engine_result(device, res, &abort, &first_error)
        }));
    }
    let mut progress_handles = Vec::new();
    if let ProgressMode::Threads(nworkers) = cfg.progress {
        for w in 0..nworkers {
            let engines = engines.clone();
            let abort = abort.clone();
            let first_error = first_error.clone();
            progress_handles.push(std::thread::spawn(move || {
                progress_worker(w, nworkers, engines, &abort, &first_error, traced)
            }));
        }
    }
    let mut rank_handles = Vec::new();
    for (mut ctx, program) in ranks.into_iter().zip(programs) {
        let abort = abort.clone();
        let first_error = first_error.clone();
        let finished_global = finished_global.clone();
        rank_handles.push(std::thread::spawn(move || {
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| program(&mut ctx)));
            let finish = match outcome {
                Ok(()) => ctx.finish(),
                // A blocking call that saw the abort flag unwinds by
                // panicking: that is the teardown, not a root cause (the
                // flag is raised only after the root cause is on record).
                Err(_) if abort.load(Ordering::Acquire) => Err(RtError::Aborted),
                Err(p) => {
                    record_first(
                        &first_error,
                        RtError::RankPanicked {
                            rank: ctx.rank,
                            message: panic_text(p),
                        },
                    );
                    Err(RtError::Aborted)
                }
            };
            if let Err(e) = finish {
                // The host never sees our Finish command: count this
                // rank finished directly so every host's quiescence
                // check still reaches the world count, and flag the
                // abort so blocked peers unwind too.
                if !matches!(e, RtError::Aborted) {
                    record_first(&first_error, e);
                }
                abort.store(true, Ordering::Release);
                finished_global.fetch_add(1, Ordering::AcqRel);
            }
            ctx
        }));
    }
    let mut finished = Vec::new();
    for h in rank_handles {
        match h.join() {
            Ok(ctx) => finished.push(ctx),
            Err(p) => {
                // Unreachable in practice (the closure catches program
                // panics), but never poison the whole join over it.
                record_first(
                    &first_error,
                    RtError::RankPanicked {
                        rank: u32::MAX,
                        message: panic_text(p),
                    },
                );
            }
        }
    }
    let mut outcomes = Vec::new();
    for h in host_handles {
        match h.join() {
            Ok(out) => outcomes.extend(out),
            Err(p) => {
                record_first(
                    &first_error,
                    RtError::HostPanicked {
                        device: u32::MAX,
                        message: panic_text(p),
                    },
                );
            }
        }
    }
    let mut trace = if traced {
        Tracer::enabled()
    } else {
        Tracer::disabled()
    };
    let mut shards = Vec::new();
    let mut report = fold_report(finished, outcomes, &mut trace, &mut shards);
    for h in progress_handles {
        // Workers exit on their own once every engine's loop has (all
        // `done` flags raised) or the abort flag lands; they surface
        // errors through `first_error`, so the join only collects their
        // timelines.
        if let Ok(t) = h.join() {
            trace.absorb(t);
        }
    }
    if let Some(err) = take_first(&first_error) {
        // Strict-mode races reach this join as the rank panic or abort they
        // caused downstream (the panicking accessors stringify the typed
        // error). Surface the root cause — the first recorded race — as the
        // typed `RtError::Race` instead of the secondary failure.
        if let Some(h) = &cfg.races {
            if h.strict() {
                if let Some(r) = h.snapshot().into_iter().next() {
                    return Err(RtError::Race(Box::new(r)));
                }
            }
        }
        return Err(err);
    }
    if let Some(h) = &cfg.races {
        // Every world rank has finished by the time a part's hosts quiesce,
        // so the snapshot is complete (and identical across mesh parts).
        report.races = h.snapshot();
    }
    let verify = verified.then(|| reconcile_shards(cfg.ring_capacity as u64, shards));
    Ok((report, trace, verify))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bank::LAND_MIN;
    use crate::task::{drive, task};
    use crate::types::{Rank, RtQuery, Tag, WindowId};
    use dcuda_net::{NetError, WireMsg};
    use std::sync::mpsc;

    /// Device 0's endpoint without the ack it owes the crafted deliver:
    /// rank 1 never issued that put, so device 1 would refuse the ack as
    /// a transport error.
    struct DropAcks(dcuda_net::InProcessEndpoint);

    impl Transport for DropAcks {
        fn send(&mut self, peer: u32, msg: WireMsg) -> Result<(), NetError> {
            if matches!(msg, WireMsg::Ack { .. }) {
                return Ok(());
            }
            self.0.send(peer, msg)
        }
        fn try_recv(&mut self) -> Result<Option<WireMsg>, NetError> {
            self.0.try_recv()
        }
        fn pump(&mut self) -> Result<bool, NetError> {
            self.0.pump()
        }
    }

    /// A 2x1 world's in-process endpoints, device 1 having already sent
    /// device 0's rank a landing-sized payload aimed 8 bytes past the end
    /// of its window: only a crafted plane can carry one, as every put an
    /// in-process rank issues is range-checked at its origin.
    fn hostile_world() -> (RtConfig, Vec<Box<dyn Transport>>) {
        let cfg = RtConfig {
            devices: 2,
            ranks_per_device: 1,
            windows: vec![LAND_MIN],
            ..RtConfig::default()
        };
        let mut planes = InProcessPlane::new_world(2);
        let deliver = WireMsg::Deliver {
            dst_local: 0,
            win: 0,
            dst_off: 8,
            source: 1,
            tag: 5,
            notify: true,
            seq: 0,
            origin_device: 1,
            origin_local: 0,
            flush_id: 1,
            data: vec![0xAB; LAND_MIN],
        };
        planes[1].send(0, deliver).expect("plane send");
        let device1 = planes.pop().expect("device 1");
        let device0 = planes.pop().expect("device 0");
        (cfg, vec![Box::new(DropAcks(device0)), Box::new(device1)])
    }

    fn expect_range_error(got: Result<(), RtError>) {
        match got {
            Err(RtError::RangeOutOfBounds {
                win: WindowId(0),
                offset: 8,
                len: LAND_MIN,
                window_len: LAND_MIN,
            }) => {}
            other => panic!("expected a range error at the rank, got {other:?}"),
        }
    }

    fn query() -> RtQuery {
        RtQuery::exact(WindowId(0), Rank(1), Tag(5))
    }

    #[test]
    fn a_deliver_that_does_not_fit_is_a_range_error_at_the_rank_on_threads() {
        let (cfg, planes) = hostile_world();
        let (tx, rx) = mpsc::channel();
        let rank0: RankProgram = Box::new(move |ctx| {
            tx.send(ctx.try_wait_notifications(query(), 1))
                .expect("test is listening");
        });
        let whole = ClusterPart {
            first_device: 0,
            local_devices: 2,
        };
        let programs = vec![rank0, Box::new(|_: &mut RtCtx| {}) as RankProgram];
        run_world(&cfg, programs, whole, planes, true, false, false)
            .expect("the rank handled its error; no engine failed");
        expect_range_error(rx.recv().expect("rank reported"));
    }

    #[test]
    fn a_deliver_that_does_not_fit_is_a_range_error_at_the_rank_in_a_job() {
        let (cfg, planes) = hostile_world();
        let world = build_world(
            &cfg,
            0,
            2,
            planes,
            Wiring {
                traced: false,
                verified: false,
                rank_driven: true,
                cooperative: true,
                abort: Arc::new(AtomicBool::new(false)),
            },
        )
        .expect("world");
        let (tx, rx) = mpsc::channel();
        let rank0 = task(move |ctx| {
            Box::pin(async move {
                let got = ctx.wait_notifications_async(query(), 1).await;
                tx.send(got).expect("test is listening");
                Ok(0)
            })
        });
        let rank1 = task(|_| Box::pin(async { Ok(0) }));
        drive(world, vec![rank0, rank1], &CancelToken::new())
            .expect("the rank handled its error; no engine failed");
        expect_range_error(rx.recv().expect("rank reported"));
    }
}
