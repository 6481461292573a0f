//! Bounded model checker: a loom-style virtual scheduler with an
//! operational weak-memory model.
//!
//! # What it does
//!
//! [`Model::check`] takes a *closed program* — a factory producing a small
//! set of thread closures over the virtual platform (`crate::shim`) — and
//! enumerates its interleavings by depth-first search over *branch points*:
//!
//! * **scheduling branches** — before every visible operation the active
//!   thread may be preempted in favour of any other live thread, up to a
//!   configurable preemption budget ([`Model::preemption_bound`],
//!   CHESS-style iterative context bounding). Forced switches — explicit
//!   [`vyield`] calls and thread exits — are free.
//! * **reads-from branches** — an atomic load may observe any store to the
//!   location that coherence permits (anything at or after the thread's
//!   per-location view floor), modelling release/acquire weak memory
//!   operationally: only a release store read by an acquire load transfers
//!   the writer's vector clock and view. Consecutive stale observations of
//!   one location are capped ([`Model::stale_cap`]) so polling loops
//!   converge; this bounds the modelled staleness, it does not affect
//!   soundness of reported failures.
//!
//! The search is exhaustive over that bounded branch space. Every execution
//! is a deterministic function of its *schedule* — the vector of branch
//! choices — which is what makes [`Model::replay`] and [`Model::shrink`]
//! possible, and what the seeded [`Model::explore_random`] mode records.
//!
//! # What it catches
//!
//! * **data races** on payload cells: FastTrack-style vector-clock
//!   happens-before checking on every [`shim::VCell`](crate::shim) access.
//!   Demoting the ring's release publish to relaxed
//!   ([`Model::demote_release`]) makes the consumer's payload read racy —
//!   the seeded-mutation regression relies on the checker proving that.
//! * **double reads / reads of unpublished slots**: cells are full/empty
//!   tracked; reading an empty cell or overwriting a full one fails the
//!   execution (instead of being silent UB as it would be in production).
//! * **lost wakeups / livelocks**: an execution exceeding
//!   [`Model::max_steps`] scheduler steps reports the schedule that starved.
//! * **program assertions**: panics in thread closures surface as failures
//!   with the offending schedule attached.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Maximum virtual threads per execution (workers + the setup context).
pub const MAX_TIDS: usize = 8;

/// Thread id reserved for the setup context (`Model::check`'s factory runs
/// under it; its writes happen-before every worker's first step).
pub(crate) const ROOT_TID: usize = MAX_TIDS - 1;

/// Fixed-width vector clock over [`MAX_TIDS`] virtual threads.
pub(crate) type Vc = [u64; MAX_TIDS];

fn vc_join(a: &mut Vc, b: &Vc) {
    for (x, y) in a.iter_mut().zip(b.iter()) {
        *x = (*x).max(*y);
    }
}

fn is_acquire(order: Ordering) -> bool {
    matches!(
        order,
        Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst
    )
}

fn vc_leq(a: &Vc, b: &Vc) -> bool {
    a.iter().zip(b.iter()).all(|(x, y)| x <= y)
}

/// A recorded branch-choice vector: replaying it reproduces the execution
/// bit-for-bit (the scheduler is deterministic given the choices).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schedule(pub Vec<u32>);

impl std::fmt::Display for Schedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let parts: Vec<String> = self.0.iter().map(|c| c.to_string()).collect();
        write!(f, "{}", parts.join(","))
    }
}

impl Schedule {
    /// Parse the `Display` form (comma-separated choices), e.g. for a
    /// replay recipe pasted from a failure report.
    pub fn parse(s: &str) -> Option<Schedule> {
        if s.trim().is_empty() {
            return Some(Schedule(Vec::new()));
        }
        s.split(',')
            .map(|p| p.trim().parse::<u32>().ok())
            .collect::<Option<Vec<u32>>>()
            .map(Schedule)
    }
}

/// Why an execution failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureKind {
    /// Happens-before violation on a payload cell (unsynchronized access).
    DataRace,
    /// A payload cell was read while empty (double read, or read of a slot
    /// whose publication was never observed).
    ReadEmpty,
    /// A payload cell was overwritten while still holding an unread value
    /// (credit/flow-control violation).
    OverwriteUnread,
    /// The execution exceeded the step budget (livelock / lost wakeup).
    Livelock,
    /// A thread closure panicked (assertion failure in the program).
    Panic,
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FailureKind::DataRace => "data race",
            FailureKind::ReadEmpty => "read of empty slot",
            FailureKind::OverwriteUnread => "overwrite of unread slot",
            FailureKind::Livelock => "livelock",
            FailureKind::Panic => "panic",
        };
        f.write_str(s)
    }
}

/// A failing execution: what went wrong and the schedule that reproduces it.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Failure class.
    pub kind: FailureKind,
    /// Human-readable detail (location, thread, values).
    pub message: String,
    /// Branch choices reproducing the failure via [`Model::replay`].
    pub schedule: Schedule,
    /// Executions examined before this failure surfaced.
    pub executions: u64,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} (after {} executions; replay schedule: [{}])",
            self.kind, self.message, self.executions, self.schedule
        )
    }
}

/// Result of a [`Model::check`] run.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// Every enumerated execution passed.
    Pass {
        /// Number of distinct executions explored.
        executions: u64,
        /// True when the search hit [`Model::max_executions`] before the
        /// branch space was exhausted.
        truncated: bool,
    },
    /// A failing execution was found (search stops at the first one).
    Fail(Box<Failure>),
}

impl Outcome {
    /// True when the search completed without failures.
    pub fn passed(&self) -> bool {
        matches!(self, Outcome::Pass { .. })
    }

    /// The failure, if any.
    pub fn failure(&self) -> Option<&Failure> {
        match self {
            Outcome::Fail(f) => Some(f),
            Outcome::Pass { .. } => None,
        }
    }

    /// Executions examined.
    pub fn executions(&self) -> u64 {
        match self {
            Outcome::Pass { executions, .. } => *executions,
            Outcome::Fail(f) => f.executions,
        }
    }
}

/// Checker configuration. The defaults suit the regression corpus: small
/// programs, a few dozen visible operations.
#[derive(Debug, Clone)]
pub struct Model {
    /// Maximum *unforced* context switches per execution (CHESS-style
    /// context bound). Forced switches ([`vyield`], thread exit) are free.
    /// `usize::MAX` makes the search fully exhaustive — only viable for
    /// programs with a handful of operations.
    pub preemption_bound: usize,
    /// Maximum consecutive stale reads-from choices per (thread, location)
    /// before the model forces the coherence-latest value; keeps polling
    /// loops finite.
    pub stale_cap: u32,
    /// Scheduler steps per execution before declaring a livelock.
    pub max_steps: u64,
    /// Upper bound on executions explored (safety valve; `Pass.truncated`
    /// reports if it was hit).
    pub max_executions: u64,
    /// Seeded mutation: treat every release store as relaxed. The checker
    /// must then find a data race in any program relying on the ring's
    /// publish edge — the regression corpus asserts it does.
    pub demote_release: bool,
    /// Seeded mutation: treat the release stores of this one thread (its
    /// index in the program's thread vector) as relaxed, to show which
    /// party's publication a protocol needs.
    pub demote_release_of: Option<usize>,
}

impl Default for Model {
    fn default() -> Self {
        Model {
            preemption_bound: 3,
            stale_cap: 1,
            max_steps: 20_000,
            max_executions: 2_000_000,
            demote_release: false,
            demote_release_of: None,
        }
    }
}

/// One store in a location's coherence order.
struct Store {
    val: u64,
    /// Writer's vector clock, present iff this was an (undemoted) release
    /// store — acquire loads join it.
    rel: Option<Vc>,
    /// Writer's per-location view floors at store time (release only).
    view: Option<Vec<u64>>,
}

enum LocKind {
    Atomic,
    Cell,
}

struct LocState {
    kind: LocKind,
    name: &'static str,
    /// Coherence-ordered stores (atomics only).
    stores: Vec<Store>,
    /// Cell state: vector clocks of accesses + full/empty tracking.
    wclock: Vc,
    rclock: Vc,
    full: bool,
}

struct ThreadState {
    vc: Vc,
    /// Per-location coherence floor: index of the oldest store this thread
    /// may still legally observe.
    view: Vec<u64>,
    /// Consecutive stale reads per location (bounded by `stale_cap`).
    stale: Vec<u32>,
    started: bool,
    done: bool,
}

struct BranchPoint {
    chosen: u32,
    count: u32,
}

struct Core {
    cfg: Model,
    nthreads: usize,
    active: usize,
    done_count: usize,
    completed: bool,
    aborted: bool,
    failure: Option<(FailureKind, String)>,
    steps: u64,
    preemptions: usize,
    script: Vec<u32>,
    script_pos: usize,
    trail: Vec<BranchPoint>,
    locs: Vec<LocState>,
    threads: Vec<ThreadState>,
}

impl Core {
    fn new(cfg: Model, script: Vec<u32>) -> Core {
        let mut threads = Vec::with_capacity(MAX_TIDS);
        for _ in 0..MAX_TIDS {
            threads.push(ThreadState {
                vc: [0; MAX_TIDS],
                view: Vec::new(),
                stale: Vec::new(),
                started: false,
                done: false,
            });
        }
        threads[ROOT_TID].started = true;
        Core {
            cfg,
            nthreads: 0,
            active: ROOT_TID,
            done_count: 0,
            completed: false,
            aborted: false,
            failure: None,
            steps: 0,
            preemptions: 0,
            script,
            script_pos: 0,
            trail: Vec::new(),
            locs: Vec::new(),
            threads,
        }
    }

    /// Consume one branch choice among `count` alternatives. Records the
    /// point in the trail when it is a real branch (`count >= 2`).
    fn choose(&mut self, count: u32) -> u32 {
        if count < 2 {
            return 0;
        }
        let c = if self.script_pos < self.script.len() {
            self.script[self.script_pos].min(count - 1)
        } else {
            0
        };
        self.script_pos += 1;
        self.trail.push(BranchPoint { chosen: c, count });
        c
    }

    /// The reads-from choice of an atomic read of `loc` by `tid`: the
    /// index of one of the coherence-permitted stores, latest first, that
    /// `older` admits (the latest always is). Moves the thread's coherence
    /// floor and staleness count.
    fn pick_store(&mut self, tid: usize, loc: usize, older: impl Fn(&Store) -> bool) -> usize {
        debug_assert!(matches!(self.locs[loc].kind, LocKind::Atomic));
        let floor = self.threads[tid].view[loc] as usize;
        let n = self.locs[loc].stores.len();
        debug_assert!(floor < n, "coherence floor past the store list");
        let stores = &self.locs[loc].stores;
        let mut eligible: Vec<usize> = (floor..n)
            .rev()
            .filter(|&i| i == n - 1 || older(&stores[i]))
            .collect();
        if self.threads[tid].stale[loc] >= self.cfg.stale_cap {
            // Bounded staleness: force the coherence-latest store so spin
            // loops converge.
            eligible.truncate(1);
        }
        let idx = eligible[self.choose(eligible.len() as u32) as usize];
        if idx == n - 1 {
            self.threads[tid].stale[loc] = 0;
        } else {
            self.threads[tid].stale[loc] += 1;
        }
        self.threads[tid].view[loc] = self.threads[tid].view[loc].max(idx as u64);
        idx
    }

    /// An acquire read of store `idx` of `loc` by `tid`: join the writer's
    /// clock and coherence view if the store released.
    fn acquire(&mut self, tid: usize, loc: usize, idx: usize) {
        let store = &self.locs[loc].stores[idx];
        let Some(rel) = store.rel else {
            return;
        };
        let view = store.view.clone();
        let t = &mut self.threads[tid];
        vc_join(&mut t.vc, &rel);
        for (floor, &f) in t.view.iter_mut().zip(view.iter().flatten()) {
            *floor = (*floor).max(f);
        }
    }

    /// Does a release store by `tid` keep its release semantics, or does
    /// a seeded mutation demote it to relaxed?
    fn keeps_release(&self, tid: usize) -> bool {
        !self.cfg.demote_release && self.cfg.demote_release_of != Some(tid)
    }

    fn live_others(&self, tid: usize) -> Vec<usize> {
        (0..self.nthreads)
            .filter(|&t| t != tid && self.threads[t].started && !self.threads[t].done)
            .collect()
    }

    fn grow_views(&mut self) {
        let n = self.locs.len();
        for t in &mut self.threads {
            t.view.resize(n, 0);
            t.stale.resize(n, 0);
        }
    }
}

/// Shared state of one execution; shim objects hold an `Arc` to this.
/// Wakeups are targeted — one condvar per virtual thread plus one for the
/// controller — because a broadcast per visible op is the scheduler's
/// dominant cost across hundreds of thousands of executions.
pub(crate) struct ExecInner {
    m: Mutex<Core>,
    cvs: [Condvar; MAX_TIDS],
    ctrl: Condvar,
}

/// Sentinel panic payload used to unwind worker stacks out of an aborted
/// execution. `resume_unwind` skips the panic hook, so aborts are silent;
/// the worker loop recognizes the token and keeps the worker alive for the
/// next execution. Drop handlers that re-enter shim ops while this unwind
/// is in flight see the ops degrade to no-ops (guarded by
/// `std::thread::panicking()`), so teardown never double-panics.
struct AbortToken;

fn abort_unwind() -> ! {
    std::panic::resume_unwind(Box::new(AbortToken));
}

thread_local! {
    static CUR: std::cell::RefCell<Option<(Arc<ExecInner>, usize)>> =
        const { std::cell::RefCell::new(None) };
}

pub(crate) fn current() -> Option<(Arc<ExecInner>, usize)> {
    CUR.with(|c| c.borrow().clone())
}

fn set_current(v: Option<(Arc<ExecInner>, usize)>) {
    CUR.with(|c| *c.borrow_mut() = v);
}

impl ExecInner {
    fn lock(&self) -> MutexGuard<'_, Core> {
        match self.m.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    fn wait_active<'a>(&'a self, mut g: MutexGuard<'a, Core>, tid: usize) -> MutexGuard<'a, Core> {
        // No spinning here: a grant handoff needs the *other* thread to run,
        // which on a single-core host means a full OS context switch anyway —
        // spinning only delays it. Budgets, not handoff latency, are the
        // tractability lever (see `suite::SuiteEffort`).
        loop {
            if g.aborted {
                drop(g);
                abort_unwind();
            }
            if g.active == tid {
                return g;
            }
            g = match self.cvs[tid].wait(g) {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
        }
    }

    /// Hand the grant to `next` (the caller re-waits or exits afterwards).
    fn grant(&self, g: &mut MutexGuard<'_, Core>, next: usize) {
        g.active = next;
        self.cvs[next].notify_one();
    }

    fn notify_everyone(&self) {
        for cv in &self.cvs {
            cv.notify_all();
        }
        self.ctrl.notify_all();
    }

    fn fail(&self, mut g: MutexGuard<'_, Core>, kind: FailureKind, message: String) -> ! {
        if g.failure.is_none() {
            g.failure = Some((kind, message));
        }
        g.aborted = true;
        drop(g);
        self.notify_everyone();
        abort_unwind();
    }

    /// Common prologue for every visible op: wait for the grant, count the
    /// step, offer a preemption branch, tick the thread's clock.
    fn enter_op<'a>(&'a self, tid: usize, yield_op: bool) -> MutexGuard<'a, Core> {
        let g = self.lock();
        let mut g = self.wait_active(g, tid);
        g.steps += 1;
        if g.steps > g.cfg.max_steps {
            let steps = g.steps;
            self.fail(
                g,
                FailureKind::Livelock,
                format!("no progress after {steps} scheduler steps"),
            );
        }
        if tid == ROOT_TID {
            // Setup context runs alone; no scheduling.
            g.threads[ROOT_TID].vc[ROOT_TID] += 1;
            return g;
        }
        if yield_op {
            // Forced switch: hand over to another live thread if any.
            let others = g.live_others(tid);
            if !others.is_empty() {
                let c = g.choose(others.len() as u32) as usize;
                self.grant(&mut g, others[c]);
                g = self.wait_active(g, tid);
            }
        } else {
            // Preemption point: stay (choice 0) or switch, budget permitting.
            let mut alts = Vec::new();
            if g.preemptions < g.cfg.preemption_bound {
                alts = g.live_others(tid);
            }
            if !alts.is_empty() {
                let c = g.choose(1 + alts.len() as u32);
                if c != 0 {
                    g.preemptions += 1;
                    let next = alts[(c - 1) as usize];
                    self.grant(&mut g, next);
                    g = self.wait_active(g, tid);
                }
            }
        }
        g.threads[tid].vc[tid] += 1;
        g
    }

    // ---- shim entry points -------------------------------------------------
    //
    // Every entry point no-ops when the calling thread is already unwinding:
    // that only happens when drop handlers (e.g. the ring's disconnect-on-
    // drop) re-enter the shim during an abort unwind, and modelling teardown
    // of a dead execution would deadlock or double-panic.

    pub(crate) fn new_loc(
        &self,
        tid: usize,
        kind_atomic: bool,
        name: &'static str,
        init: u64,
    ) -> usize {
        if std::thread::panicking() {
            return 0;
        }
        let mut g = self.lock();
        let vc = g.threads[tid].vc;
        let loc = g.locs.len();
        let (kind, stores) = if kind_atomic {
            // Construction is a release store: handing the object to worker
            // threads synchronizes, exactly like `Arc` publication.
            (
                LocKind::Atomic,
                vec![Store {
                    val: init,
                    rel: Some(vc),
                    view: Some(vec![0; loc + 1]),
                }],
            )
        } else {
            (LocKind::Cell, Vec::new())
        };
        g.locs.push(LocState {
            kind,
            name,
            stores,
            wclock: [0; MAX_TIDS],
            rclock: [0; MAX_TIDS],
            full: false,
        });
        g.grow_views();
        loc
    }

    pub(crate) fn op_load(&self, tid: usize, loc: usize, order: Ordering) -> u64 {
        if std::thread::panicking() {
            return 0;
        }
        let mut g = self.enter_op(tid, false);
        let idx = g.pick_store(tid, loc, |_| true);
        if is_acquire(order) {
            g.acquire(tid, loc, idx);
        }
        g.locs[loc].stores[idx].val
    }

    /// A strong compare-exchange. Success reads the coherence-latest store
    /// (read-modify-write atomicity) and appends `new` after it; a failure
    /// is a load that may observe any coherence-permitted store holding
    /// another value. The appended store releases only if the exchange
    /// does: unlike C++20 it does not continue the release sequence of the
    /// store it replaced, which can only add reports, never hide one.
    pub(crate) fn op_cas(
        &self,
        tid: usize,
        loc: usize,
        current: u64,
        new: u64,
        success: Ordering,
        failure: Ordering,
    ) -> Result<u64, u64> {
        if std::thread::panicking() {
            return Err(current.wrapping_add(1));
        }
        let mut g = self.enter_op(tid, false);
        // Success reads the latest store; an older one only fails.
        let idx = g.pick_store(tid, loc, |st| st.val != current);
        let n = g.locs[loc].stores.len();
        let found = g.locs[loc].stores[idx].val;
        let ok = found == current;
        if is_acquire(if ok { success } else { failure }) {
            g.acquire(tid, loc, idx);
        }
        if !ok {
            return Err(found);
        }
        let release = matches!(
            success,
            Ordering::Release | Ordering::AcqRel | Ordering::SeqCst
        ) && g.keeps_release(tid);
        let (vc, view) = {
            let t = &g.threads[tid];
            (t.vc, t.view.clone())
        };
        g.locs[loc].stores.push(Store {
            val: new,
            rel: release.then_some(vc),
            view: release.then_some(view),
        });
        g.threads[tid].view[loc] = n as u64;
        g.threads[tid].stale[loc] = 0;
        Ok(found)
    }

    pub(crate) fn op_store(&self, tid: usize, loc: usize, val: u64, order: Ordering) {
        if std::thread::panicking() {
            return;
        }
        let mut g = self.enter_op(tid, false);
        debug_assert!(matches!(g.locs[loc].kind, LocKind::Atomic));
        let release = matches!(
            order,
            Ordering::Release | Ordering::AcqRel | Ordering::SeqCst
        );
        let effective_release = release && g.keeps_release(tid);
        let idx = g.locs[loc].stores.len();
        let (vc, view) = {
            let t = &g.threads[tid];
            (t.vc, t.view.clone())
        };
        g.locs[loc].stores.push(Store {
            val,
            rel: effective_release.then_some(vc),
            view: effective_release.then_some(view),
        });
        g.threads[tid].view[loc] = idx as u64;
        g.threads[tid].stale[loc] = 0;
    }

    pub(crate) fn op_cell_write(&self, tid: usize, loc: usize) {
        if std::thread::panicking() {
            return;
        }
        let g = self.enter_op(tid, false);
        debug_assert!(matches!(g.locs[loc].kind, LocKind::Cell));
        let name = g.locs[loc].name;
        let vc = g.threads[tid].vc;
        if !vc_leq(&g.locs[loc].wclock, &vc) || !vc_leq(&g.locs[loc].rclock, &vc) {
            self.fail(
                g,
                FailureKind::DataRace,
                format!(
                    "thread {tid} wrote {name} without happens-before ordering to a prior access"
                ),
            );
        }
        if g.locs[loc].full {
            self.fail(
                g,
                FailureKind::OverwriteUnread,
                format!("thread {tid} overwrote {name} before the previous value was consumed"),
            );
        }
        let mut g = g;
        g.locs[loc].full = true;
        g.locs[loc].wclock[tid] = g.threads[tid].vc[tid];
    }

    pub(crate) fn op_cell_read(&self, tid: usize, loc: usize) {
        if std::thread::panicking() {
            return;
        }
        let g = self.enter_op(tid, false);
        debug_assert!(matches!(g.locs[loc].kind, LocKind::Cell));
        let name = g.locs[loc].name;
        let vc = g.threads[tid].vc;
        if !vc_leq(&g.locs[loc].wclock, &vc) {
            self.fail(
                g,
                FailureKind::DataRace,
                format!("thread {tid} read {name} without happens-before ordering to its writer"),
            );
        }
        if !g.locs[loc].full {
            self.fail(
                g,
                FailureKind::ReadEmpty,
                format!("thread {tid} read {name} while empty (double read or unpublished slot)"),
            );
        }
        let mut g = g;
        g.locs[loc].full = false;
        g.locs[loc].rclock[tid] = g.threads[tid].vc[tid];
    }

    pub(crate) fn op_yield(&self, tid: usize) {
        if std::thread::panicking() {
            return;
        }
        let _g = self.enter_op(tid, true);
    }

    fn thread_done(&self, tid: usize) {
        let g = self.lock();
        if g.aborted {
            return;
        }
        let mut g = self.wait_active(g, tid);
        g.threads[tid].done = true;
        g.done_count += 1;
        if g.done_count == g.nthreads {
            g.completed = true;
            drop(g);
            self.ctrl.notify_one();
        } else {
            let others = g.live_others(tid);
            if !others.is_empty() {
                let c = g.choose(others.len() as u32) as usize;
                let next = others[c];
                self.grant(&mut g, next);
            }
        }
    }

    fn record_panic(&self, tid: usize, message: String) {
        let mut g = self.lock();
        if g.failure.is_none() {
            g.failure = Some((FailureKind::Panic, format!("thread {tid}: {message}")));
        }
        g.aborted = true;
        drop(g);
        self.notify_everyone();
    }
}

/// Yield the virtual scheduler from inside a model program (the analogue of
/// `std::thread::yield_now()` in a polling loop). Outside a model execution
/// this is a real yield, so shared helper code works in both worlds.
pub fn vyield() {
    match current() {
        Some((exec, tid)) => exec.op_yield(tid),
        None => std::thread::yield_now(),
    }
}

/// A thread closure of a model program.
pub type ModelThread = Box<dyn FnOnce() + Send + 'static>;

fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

type Job = (Arc<ExecInner>, usize, ModelThread);

/// Persistent OS worker threads, one per virtual thread slot: executions
/// reuse them instead of paying a thread spawn per execution (the search
/// runs tens of thousands of executions). Aborted executions unwind their
/// workers with [`AbortToken`], so a worker survives failures and replays
/// alike; the pool dies when its senders drop at the end of the search.
struct Pool {
    txs: Vec<std::sync::mpsc::Sender<Job>>,
}

impl Pool {
    fn new() -> Pool {
        Pool { txs: Vec::new() }
    }

    fn ensure(&mut self, n: usize) {
        while self.txs.len() < n {
            let (tx, rx) = std::sync::mpsc::channel::<Job>();
            std::thread::spawn(move || {
                while let Ok((exec, tid, f)) = rx.recv() {
                    set_current(Some((exec.clone(), tid)));
                    let r = std::panic::catch_unwind(AssertUnwindSafe(f));
                    match r {
                        Ok(()) => exec.thread_done(tid),
                        // Abort unwind: the failure (if any) is already
                        // recorded; the worker just moves on.
                        Err(p) if p.downcast_ref::<AbortToken>().is_some() => {}
                        Err(p) => exec.record_panic(tid, panic_message(p)),
                    }
                    set_current(None);
                }
            });
            self.txs.push(tx);
        }
    }
}

enum ExecResult {
    Pass(Vec<BranchPoint>),
    Fail(FailureKind, String, Schedule),
}

impl Model {
    /// Explore every schedule of the program produced by `mk` (bounded by
    /// the configured budgets). `mk` is invoked once per execution and must
    /// be deterministic; the closures it returns are the virtual threads.
    pub fn check<F>(&self, mk: F) -> Outcome
    where
        F: Fn() -> Vec<ModelThread>,
    {
        let mut pool = Pool::new();
        let mut script: Vec<u32> = Vec::new();
        let mut executions = 0u64;
        loop {
            executions += 1;
            match self.run_one(&mk, script.clone(), &mut pool) {
                ExecResult::Fail(kind, message, schedule) => {
                    return Outcome::Fail(Box::new(Failure {
                        kind,
                        message,
                        schedule,
                        executions,
                    }));
                }
                ExecResult::Pass(trail) => {
                    // DFS backtrack: bump the deepest branch with an
                    // untried alternative.
                    let mut next = None;
                    for i in (0..trail.len()).rev() {
                        if trail[i].chosen + 1 < trail[i].count {
                            next = Some(i);
                            break;
                        }
                    }
                    match next {
                        None => {
                            return Outcome::Pass {
                                executions,
                                truncated: false,
                            }
                        }
                        Some(i) => {
                            script = trail[..i].iter().map(|b| b.chosen).collect();
                            script.push(trail[i].chosen + 1);
                        }
                    }
                }
            }
            if executions >= self.max_executions {
                return Outcome::Pass {
                    executions,
                    truncated: true,
                };
            }
        }
    }

    /// Run exactly one execution with the given branch choices (choices
    /// beyond the schedule default to 0). Returns the outcome of that
    /// single execution with `executions == 1`.
    pub fn replay<F>(&self, mk: F, schedule: &Schedule) -> Outcome
    where
        F: Fn() -> Vec<ModelThread>,
    {
        let mut pool = Pool::new();
        self.replay_on(&mk, schedule, &mut pool)
    }

    fn replay_on<F>(&self, mk: &F, schedule: &Schedule, pool: &mut Pool) -> Outcome
    where
        F: Fn() -> Vec<ModelThread>,
    {
        match self.run_one(mk, schedule.0.clone(), pool) {
            ExecResult::Fail(kind, message, schedule) => Outcome::Fail(Box::new(Failure {
                kind,
                message,
                schedule,
                executions: 1,
            })),
            ExecResult::Pass(_) => Outcome::Pass {
                executions: 1,
                truncated: false,
            },
        }
    }

    /// Greedily minimize a failing schedule: try zeroing each choice (0 is
    /// the "default path" — no preemption / latest store) and truncating
    /// the tail, keeping any change that still reproduces the same failure
    /// kind. Deterministic; worst case `O(len^2)` replays.
    pub fn shrink<F>(&self, mk: F, failure: &Failure) -> Failure
    where
        F: Fn() -> Vec<ModelThread>,
    {
        // A schedule with its tail of default choices stripped replays
        // identically (missing choices default to 0), so shrinking operates
        // on the *script*, not the full recorded trail.
        let strip = |mut s: Schedule| {
            while s.0.last() == Some(&0) {
                s.0.pop();
            }
            s
        };
        let adopt = |f: Failure, script: Schedule| Failure {
            kind: f.kind,
            message: f.message,
            schedule: strip(script),
            executions: failure.executions,
        };
        let mut pool = Pool::new();
        let mut best = adopt(failure.clone(), failure.schedule.clone());
        let mut changed = true;
        while changed {
            changed = false;
            // Truncate from the end first: shorter schedules dominate.
            while !best.schedule.0.is_empty() {
                let mut cand = best.schedule.clone();
                cand.0.pop();
                match self.replay_on(&mk, &cand, &mut pool) {
                    Outcome::Fail(f) if f.kind == best.kind => {
                        best = adopt(*f, cand);
                        changed = true;
                    }
                    _ => break,
                }
            }
            for i in 0..best.schedule.0.len() {
                if best.schedule.0[i] == 0 {
                    continue;
                }
                let mut cand = best.schedule.clone();
                cand.0[i] = 0;
                if let Outcome::Fail(f) = self.replay_on(&mk, &cand, &mut pool) {
                    if f.kind == best.kind {
                        best = adopt(*f, cand);
                        changed = true;
                    }
                }
            }
        }
        best
    }

    /// Seeded random exploration: `iterations` executions with branch
    /// choices drawn from a SplitMix64 stream. Complements the bounded DFS
    /// for programs whose branch space exceeds the exhaustive budget; any
    /// failure found carries its exact schedule for [`Model::replay`].
    pub fn explore_random<F>(&self, mk: F, seed: u64, iterations: u64) -> Outcome
    where
        F: Fn() -> Vec<ModelThread>,
    {
        let mut pool = Pool::new();
        let mut rng = dcuda_des::rng::SplitMix64::new(seed);
        for it in 0..iterations {
            // Random script long enough for any corpus program; choices are
            // clamped to the live alternative count at each branch.
            let script: Vec<u32> = (0..4096).map(|_| (rng.next_u64() % 4) as u32).collect();
            match self.run_one(&mk, script, &mut pool) {
                ExecResult::Fail(kind, message, schedule) => {
                    return Outcome::Fail(Box::new(Failure {
                        kind,
                        message,
                        schedule,
                        executions: it + 1,
                    }));
                }
                ExecResult::Pass(_) => {}
            }
        }
        Outcome::Pass {
            executions: iterations,
            truncated: true,
        }
    }

    fn run_one<F>(&self, mk: &F, script: Vec<u32>, pool: &mut Pool) -> ExecResult
    where
        F: Fn() -> Vec<ModelThread>,
    {
        let exec = Arc::new(ExecInner {
            m: Mutex::new(Core::new(self.clone(), script)),
            cvs: std::array::from_fn(|_| Condvar::new()),
            ctrl: Condvar::new(),
        });

        // Build the program under the setup context.
        set_current(Some((exec.clone(), ROOT_TID)));
        let threads = mk();
        set_current(None);
        let n = threads.len();
        assert!(
            (1..MAX_TIDS).contains(&n),
            "model programs must have 1..={} threads, got {n}",
            MAX_TIDS - 1
        );

        {
            let mut g = exec.lock();
            g.nthreads = n;
            let root_vc = g.threads[ROOT_TID].vc;
            let root_view = g.threads[ROOT_TID].view.clone();
            for t in 0..n {
                g.threads[t].started = true;
                g.threads[t].vc = root_vc;
                g.threads[t].view = root_view.clone();
            }
        }

        // Feed the pool: one persistent worker per virtual thread slot. A
        // worker still unwinding a previous aborted execution just picks the
        // new job up when it finishes tearing down.
        pool.ensure(n);
        for (tid, f) in threads.into_iter().enumerate() {
            pool.txs[tid]
                .send((exec.clone(), tid, f))
                .expect("model worker thread died");
        }

        // Initial grant: pick the first runnable thread.
        {
            let mut g = exec.lock();
            let c = g.choose(n as u32) as usize;
            exec.grant(&mut g, c);
        }

        // Wait for completion or abort.
        let mut g = exec.lock();
        while !g.completed && !g.aborted {
            g = match exec.ctrl.wait(g) {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
        }
        if let Some((kind, message)) = g.failure.take() {
            let schedule = Schedule(g.trail.iter().map(|b| b.chosen).collect());
            return ExecResult::Fail(kind, message, schedule);
        }
        ExecResult::Pass(std::mem::take(&mut g.trail))
    }
}
