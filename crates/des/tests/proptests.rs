//! Property-based tests for the simulation kernel: event ordering, timer
//! slots, PS conservation laws, slab soundness.

use dcuda_des::check::{forall, Gen};
use dcuda_des::stats::Summary;
use dcuda_des::{EventQueue, PsJobId, PsResource, SimDuration, SimTime, Slab, SlotKey};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// Events always pop in non-decreasing time order, FIFO among ties, and
/// none are lost.
#[test]
fn event_queue_total_order() {
    forall("event_queue_total_order", 256, |g| {
        let times = g.vec_with(300, |g| g.u64_below(1000));
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule_at(SimTime::from_ps(t), i);
        }
        let mut popped = Vec::new();
        let mut last = SimTime::ZERO;
        while let Some((t, idx)) = q.pop() {
            assert!(t >= last);
            last = t;
            popped.push((t, idx));
        }
        assert_eq!(popped.len(), times.len());
        // FIFO among equal timestamps: indices increase within a tie group.
        for w in popped.windows(2) {
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1);
            }
        }
    });
}

/// Same ordering guarantees when events are scheduled *while popping* —
/// the real driver pattern, which exercises the `now`-FIFO fast path
/// against the heap.
#[test]
fn event_queue_total_order_interleaved() {
    forall("event_queue_total_order_interleaved", 256, |g| {
        let mut q = EventQueue::new();
        let mut next_id = 0u64;
        let mut scheduled = 0usize;
        for _ in 0..g.usize_in(1, 40) {
            q.schedule_at(SimTime::from_ps(g.u64_below(500)), next_id);
            next_id += 1;
            scheduled += 1;
        }
        let mut popped = 0usize;
        let mut last = SimTime::ZERO;
        let mut last_seq_at: Option<(SimTime, u64)> = None;
        while let Some((t, id)) = q.pop() {
            assert!(t >= last, "time went backwards");
            if let Some((lt, lid)) = last_seq_at {
                if t == lt {
                    assert!(id > lid, "FIFO violated among ties");
                }
            }
            last = t;
            last_seq_at = Some((t, id));
            popped += 1;
            // Sometimes schedule follow-ups at `now` (fast path) or later.
            if scheduled < 300 {
                for _ in 0..g.usize_below(3) {
                    let dt = if g.bool() { 0 } else { 1 + g.u64_below(100) };
                    q.schedule_at(t + SimDuration::from_ps(dt), next_id);
                    next_id += 1;
                    scheduled += 1;
                }
            }
        }
        assert_eq!(popped, scheduled, "no events lost");
    });
}

/// The pre-slot timer pattern, kept as the oracle for timer slots: every
/// arm schedules a fresh event stamped with the slot's generation, and a
/// popped event whose generation has moved on (re-armed or disarmed since)
/// is stale and skipped.
struct GenerationTimers {
    queue: EventQueue<(u64, Option<(usize, u64)>)>,
    /// `(generation, armed)` per slot.
    timers: Vec<(u64, bool)>,
}

impl GenerationTimers {
    fn arm(&mut self, slot: usize, at: SimTime, payload: u64) {
        let timer = &mut self.timers[slot];
        *timer = (timer.0 + 1, true);
        self.queue.schedule_at(at, (payload, Some((slot, timer.0))));
    }

    fn disarm(&mut self, slot: usize) {
        let timer = &mut self.timers[slot];
        *timer = (timer.0 + 1, false);
    }

    /// The next event that is not stale; a current tick disarms its slot.
    fn pop(&mut self) -> Option<(SimTime, u64)> {
        while let Some((t, (payload, timer))) = self.queue.pop() {
            match timer {
                None => return Some((t, payload)),
                Some((slot, gen)) if self.timers[slot] == (gen, true) => {
                    self.timers[slot].1 = false;
                    return Some((t, payload));
                }
                Some(_) => {}
            }
        }
        None
    }
}

/// Re-armable timer slots pop exactly what generation-checked timers
/// deliver once their stale events are filtered out: the same `(time,
/// payload)` sequence and the same `scheduled_total`, over seeded mixes of
/// `schedule_at` (at `now` and later), arms on 1–3 slots (at `now` too),
/// disarms and pops.
#[test]
fn timer_slots_match_generation_checked_timers() {
    forall("timer_slots_match_generation_checked_timers", 512, |g| {
        let slots = g.usize_in(1, 4);
        let mut fast = EventQueue::new();
        let mut spec = GenerationTimers {
            queue: EventQueue::new(),
            timers: vec![(0, false); slots],
        };
        let mut payload = 0u64;
        let at = |g: &mut Gen, now: SimTime| match g.usize_below(3) {
            0 => now,
            _ => now + SimDuration::from_ps(1 + g.u64_below(50)),
        };
        for _ in 0..g.usize_in(1, 300) {
            // A pop that finds only stale events still advances the
            // oracle's clock past the slots' one.
            let now = fast.now().max(spec.queue.now());
            payload += 1;
            match g.usize_below(10) {
                0..=2 => {
                    let t = at(g, now);
                    fast.schedule_at(t, payload);
                    spec.queue.schedule_at(t, (payload, None));
                }
                3..=5 => {
                    let (slot, t) = (g.usize_below(slots), at(g, now));
                    fast.arm(slot, t, payload);
                    spec.arm(slot, t, payload);
                }
                6 => {
                    let slot = g.usize_below(slots);
                    fast.disarm(slot);
                    spec.disarm(slot);
                }
                _ => assert_eq!(fast.pop(), spec.pop()),
            }
        }
        loop {
            let next = fast.pop();
            assert_eq!(next, spec.pop());
            if next.is_none() {
                break;
            }
        }
        assert!(fast.is_empty());
        assert_eq!(fast.scheduled_total(), spec.queue.scheduled_total());
    });
}

/// The queue without its FIFO, arena, timer slots or packed keys: one
/// `BinaryHeap` of `(time, seq, slot, payload)` tuples holding every
/// event, where an arm pushes a tuple tagged with its timer slot and a
/// tuple whose slot was re-armed or disarmed since is skipped on pop.
struct TupleQueue {
    heap: BinaryHeap<Reverse<(SimTime, u64, usize, u64)>>,
    /// The sequence number of each timer slot's live arm.
    armed: Vec<Option<u64>>,
    /// Live events: plain ones in the heap plus armed slots.
    live: usize,
    now: SimTime,
    seq: u64,
}

/// The slot a plain (non-timer) event carries in [`TupleQueue`].
const PLAIN: usize = usize::MAX;

impl TupleQueue {
    fn push(&mut self, at: SimTime, slot: usize, payload: u64) {
        assert!(at >= self.now);
        self.heap.push(Reverse((at, self.seq, slot, payload)));
        if slot != PLAIN {
            self.live += usize::from(self.armed[slot].is_none());
            self.armed[slot] = Some(self.seq);
        } else {
            self.live += 1;
        }
        self.seq += 1;
    }

    fn disarm(&mut self, slot: usize) {
        if self.armed[slot].take().is_some() {
            self.live -= 1;
        }
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        while let Some(Reverse((t, seq, slot, payload))) = self.heap.pop() {
            if slot != PLAIN {
                if self.armed[slot] != Some(seq) {
                    continue;
                }
                self.armed[slot] = None;
            }
            self.live -= 1;
            self.now = t;
            return Some((t, payload));
        }
        None
    }
}

/// The packed-key queue pops exactly what a `(time, seq, slot)` tuple heap
/// pops, over seeded mixes of schedules, arms on 1–4 timer slots, disarms
/// and pops: ties at one instant (a third of all times are `now`), short
/// and long horizons, and times within a few picoseconds of `u64::MAX`,
/// where the time fills every bit of the key's high half. Length, next
/// time and sequence count agree after every step.
#[test]
fn packed_queue_matches_tuple_heap() {
    forall("packed_queue_matches_tuple_heap", 512, |g| {
        let slots = g.usize_in(1, 5);
        let mut fast = EventQueue::new();
        let mut spec = TupleQueue {
            heap: BinaryHeap::new(),
            armed: vec![None; slots],
            live: 0,
            now: SimTime::ZERO,
            seq: 0,
        };
        let at = |g: &mut Gen, now: SimTime| {
            let now = now.as_ps();
            SimTime::from_ps(match g.usize_below(16) {
                0..=4 => now,
                5..=10 => now.saturating_add(1 + g.u64_below(20)),
                11..=14 => now.saturating_add(g.u64_below(1 << 40)),
                _ => now.max(u64::MAX - g.u64_below(4)),
            })
        };
        for payload in 0..g.usize_in(1, 400) as u64 {
            let now = fast.now();
            assert_eq!(now, spec.now);
            match g.usize_below(10) {
                0..=3 => {
                    let t = at(g, now);
                    fast.schedule_at(t, payload);
                    spec.push(t, PLAIN, payload);
                }
                4..=5 => {
                    let (slot, t) = (g.usize_below(slots), at(g, now));
                    fast.arm(slot, t, payload);
                    spec.push(t, slot, payload);
                }
                6 => {
                    let slot = g.usize_below(slots);
                    fast.disarm(slot);
                    spec.disarm(slot);
                }
                _ => assert_eq!(fast.pop(), spec.pop()),
            }
            assert_eq!(fast.len(), spec.live);
            assert_eq!(fast.scheduled_total(), spec.seq);
        }
        loop {
            let next = fast.peek_time();
            let popped = fast.pop();
            assert_eq!(next, popped.map(|(t, _)| t));
            assert_eq!(popped, spec.pop());
            if popped.is_none() {
                break;
            }
        }
        assert_eq!((fast.len(), spec.live), (0, 0));
    });
}

/// Processor sharing conserves work: total delivered equals total
/// demand once all jobs complete, regardless of arrival pattern.
#[test]
fn ps_conserves_work() {
    forall("ps_conserves_work", 128, |g| {
        let n = g.usize_in(1, 40);
        let demands: Vec<f64> = (0..n).map(|_| g.f64_in(1.0, 1000.0)).collect();
        let mut arr: Vec<u64> = (0..n).map(|_| g.u64_below(10_000)).collect();
        arr.sort_unstable();
        let mut r = PsResource::new(1e6);
        let mut done = Vec::new();
        let mut completed = 0usize;
        let mut i = 0usize;
        let mut now = SimTime::ZERO;
        while completed < n {
            // Next event: arrival or completion.
            let next_arrival = (i < n).then(|| SimTime::from_ps(arr[i] * 1_000_000));
            let next_completion = r.next_completion();
            let t = match (next_arrival, next_completion) {
                (Some(a), Some(c)) => a.min(c),
                (Some(a), None) => a,
                (None, Some(c)) => c,
                (None, None) => break,
            };
            assert!(t >= now);
            now = t;
            r.advance_to(now, &mut done);
            completed = done.len();
            while i < n && SimTime::from_ps(arr[i] * 1_000_000) == now {
                r.submit(now, demands[i], i as u64);
                i += 1;
            }
        }
        let total: f64 = demands.iter().sum();
        assert!((r.delivered() - total).abs() < total * 1e-9 + 1e-6);
        // Every job completed exactly once.
        let mut tags: Vec<u64> = done.iter().map(|&(_, t)| t).collect();
        tags.sort_unstable();
        assert_eq!(tags, (0..n as u64).collect::<Vec<_>>());
    });
}

/// Capped PS never serves a job faster than its cap nor the resource
/// faster than its rate.
#[test]
fn ps_caps_respected() {
    forall("ps_caps_respected", 256, |g| {
        let cap = g.f64_in(1.0, 100.0);
        let n = g.usize_in(1, 20);
        let rate = 50.0;
        let mut r = PsResource::capped(rate, cap);
        // Every job of demand equal to the cap: each needs >= 1 s.
        for i in 0..n {
            r.submit(SimTime::ZERO, cap, i as u64);
        }
        let first = r.next_completion().unwrap();
        // No completion can happen before 1 s (cap-bound) nor before
        // total/rate (resource-bound).
        let bound = 1.0f64.max(n as f64 * cap / rate);
        assert!(first >= SimTime::ZERO + SimDuration::from_secs_f64(bound * (1.0 - 1e-9)));
    });
}

/// `PsResource` as general per-job-cap water-filling, without the shared
/// service level or the cached next completion: every query sorts the caps,
/// refills the rates and divides per job. Kept as the executable
/// specification the differential test below holds the incremental
/// resource to.
struct OraclePs {
    rate: f64,
    jobs: Slab<OracleJob>,
    last_update: SimTime,
    rates_dirty: bool,
    delivered: f64,
    eps: f64,
}

struct OracleJob {
    remaining: f64,
    cap: f64,
    rate: f64,
    tag: u64,
}

impl OraclePs {
    fn new(rate: f64) -> Self {
        OraclePs {
            rate,
            jobs: Slab::new(),
            last_update: SimTime::ZERO,
            rates_dirty: false,
            delivered: 0.0,
            eps: rate * 2e-12,
        }
    }

    fn refill_rates(&mut self) {
        if !self.rates_dirty {
            return;
        }
        self.rates_dirty = false;
        let n = self.jobs.len();
        if n == 0 {
            return;
        }
        let mut caps: Vec<f64> = self.jobs.iter().map(|(_, j)| j.cap.max(0.0)).collect();
        caps.sort_unstable_by(|a, b| a.total_cmp(b));
        let mut remaining_rate = self.rate;
        let mut remaining_jobs = n;
        let mut level = f64::INFINITY;
        for &cap in &caps {
            let fair = remaining_rate / remaining_jobs as f64;
            if cap <= fair {
                remaining_rate -= cap;
                remaining_jobs -= 1;
            } else {
                level = fair;
                break;
            }
        }
        for (_, job) in self.jobs.iter_mut() {
            job.rate = job.cap.min(level);
        }
    }

    fn advance_to(&mut self, now: SimTime, completed: &mut Vec<(SlotKey, u64)>) {
        self.refill_rates();
        if !self.jobs.is_empty() {
            let dt = now.since(self.last_update).as_secs_f64();
            if dt > 0.0 {
                for (_, job) in self.jobs.iter_mut() {
                    let served = (dt * job.rate).min(job.remaining);
                    job.remaining -= served;
                    self.delivered += served;
                }
            }
        }
        self.last_update = now;
        let done: Vec<(SlotKey, u64)> = self
            .jobs
            .iter()
            .filter(|(_, j)| j.remaining <= self.eps)
            .map(|(k, j)| (k, j.tag))
            .collect();
        if !done.is_empty() {
            self.rates_dirty = true;
        }
        for (k, tag) in done {
            self.jobs.remove(k);
            completed.push((k, tag));
        }
    }

    fn submit_capped(&mut self, demand: f64, cap: f64, tag: u64) -> SlotKey {
        self.rates_dirty = true;
        self.jobs.insert(OracleJob {
            remaining: demand,
            cap,
            rate: 0.0,
            tag,
        })
    }

    fn cancel(&mut self, id: SlotKey) -> Option<f64> {
        let r = self.jobs.remove(id).map(|j| j.remaining);
        if r.is_some() {
            self.rates_dirty = true;
        }
        r
    }

    fn remaining(&self, id: SlotKey) -> Option<f64> {
        self.jobs.get(id).map(|j| j.remaining)
    }

    fn next_completion(&mut self) -> Option<SimTime> {
        self.refill_rates();
        if self.jobs.is_empty() {
            return None;
        }
        let secs = self
            .jobs
            .iter()
            .map(|(_, j)| {
                if j.rate > 0.0 {
                    j.remaining.max(0.0) / j.rate
                } else {
                    f64::INFINITY
                }
            })
            .fold(f64::INFINITY, f64::min);
        Some(self.last_update + SimDuration::from_secs_f64(secs))
    }
}

/// The incremental `PsResource` (one cached service level, cached next
/// completion fused into the advance pass, caller-buffered completions,
/// inlined no-op advances) is indistinguishable from the oracle given the
/// same cap on every submit: the same completion instants in ps, the same
/// tags in the same order, bitwise-equal `delivered` and per-job remaining
/// demand, over seeded mixes of plain and zero-demand submits, cancels,
/// and advances to the predicted next completion, to the current instant
/// again (often right after a submit or a cancel), and to random later
/// instants. When the resource runs dry, time sometimes moves on with only
/// the oracle advanced, so the next submit lands on a resource idle since
/// an earlier instant, as an idle SM outside the device's busy set does.
/// Half the cases are uncapped (an SM), half capped (the memory
/// interface), including borderline caps of `rate / n` and one ulp either
/// side for an `n` the case reaches, where `min(cap, rate / n)` and
/// water-filling differ in the last bit.
#[test]
fn ps_matches_pre_cache_oracle() {
    forall("ps_matches_pre_cache_oracle", 512, |g| {
        let rate = *g.choose(&[1e6, 240e9, 1.37e12]);
        let mut warm = 0;
        let cap = match g.usize_below(4) {
            0 | 1 => f64::INFINITY,
            2 => *g.choose(&[rate / 300.0, rate / 100.0, rate / 7.0, rate * 2.0]),
            _ => {
                warm = g.usize_in(2, 40);
                let level = rate / warm as f64;
                *g.choose(&[level.next_down(), level, level.next_up()])
            }
        };
        let mut fast = PsResource::capped(rate, cap);
        let mut spec = OraclePs::new(rate);
        let mut live: Vec<(PsJobId, SlotKey)> = Vec::new();
        let (mut got, mut want) = (Vec::new(), Vec::new());
        let mut now = SimTime::ZERO;
        let mut tag = 0u64;
        let mut submit = |g: &mut Gen,
                          fast: &mut PsResource,
                          spec: &mut OraclePs,
                          live: &mut Vec<(PsJobId, SlotKey)>,
                          now: SimTime| {
            let demand = match g.usize_below(6) {
                0 => 0.0,
                _ => rate * g.f64_in(1e-9, 1e-5),
            };
            tag += 1;
            let a = fast.submit(now, demand, tag);
            let b = spec.submit_capped(demand, cap, tag);
            live.push((a, b));
        };
        let mut step = |fast: &mut PsResource,
                        spec: &mut OraclePs,
                        live: &mut Vec<(PsJobId, SlotKey)>,
                        t: SimTime| {
            got.clear();
            want.clear();
            fast.advance_to(t, &mut got);
            spec.advance_to(t, &mut want);
            assert!(
                got.iter().map(|&(_, t)| t).eq(want.iter().map(|&(_, t)| t)),
                "completion order at {t}"
            );
            live.retain(|&(id, _)| got.iter().all(|&(done, _)| done != id));
            assert_eq!(fast.delivered().to_bits(), spec.delivered.to_bits());
        };
        // A borderline cap is only borderline at its `n`: reach it first.
        for _ in 0..warm {
            submit(g, &mut fast, &mut spec, &mut live, now);
        }
        for _ in 0..g.usize_in(1, 150) {
            match g.usize_below(11) {
                0..=3 => {
                    submit(g, &mut fast, &mut spec, &mut live, now);
                    if g.bool() {
                        step(&mut fast, &mut spec, &mut live, now);
                    }
                }
                4 if !live.is_empty() => {
                    let (a, b) = live.swap_remove(g.usize_below(live.len()));
                    let (ra, rb) = (fast.cancel(a), spec.cancel(b));
                    assert_eq!(ra.map(f64::to_bits), rb.map(f64::to_bits));
                    if g.bool() {
                        step(&mut fast, &mut spec, &mut live, now);
                    }
                }
                5..=6 => {
                    let (a, b) = (fast.next_completion(), spec.next_completion());
                    assert_eq!(a, b, "predicted completion");
                    if let Some(t) = a {
                        now = t;
                        step(&mut fast, &mut spec, &mut live, now);
                    }
                }
                7 => step(&mut fast, &mut spec, &mut live, now),
                8 if live.is_empty() => {
                    // Idle gap: only the oracle sees the time pass.
                    assert!(fast.is_idle());
                    now += SimDuration::from_secs_f64(g.f64_in(0.0, 2e-5));
                    let mut none = Vec::new();
                    spec.advance_to(now, &mut none);
                    assert!(none.is_empty());
                }
                _ => {
                    now += SimDuration::from_secs_f64(g.f64_in(0.0, 2e-5));
                    step(&mut fast, &mut spec, &mut live, now);
                }
            }
            if g.bool() {
                assert_eq!(fast.next_completion(), spec.next_completion());
            }
            assert_eq!(fast.is_idle(), live.is_empty());
            for &(a, b) in &live {
                assert_eq!(
                    fast.remaining(a).map(f64::to_bits),
                    spec.remaining(b).map(f64::to_bits)
                );
            }
        }
        // Drain: every remaining job completes at the instant both predict.
        let mut guard = 0;
        while let Some(t) = fast.next_completion() {
            assert_eq!(Some(t), spec.next_completion());
            step(&mut fast, &mut spec, &mut live, t);
            guard += 1;
            assert!(guard < 10_000, "drain did not converge");
        }
        assert!(live.is_empty() && spec.next_completion().is_none());
    });
}

/// Slab keys stay valid until removed and never resolve after.
#[test]
fn slab_soundness() {
    forall("slab_soundness", 256, |g| {
        let ops = g.vec_with(200, |g| g.bool());
        let mut slab = Slab::new();
        let mut live: Vec<(dcuda_des::SlotKey, u32)> = Vec::new();
        let mut counter = 0u32;
        for op in ops {
            if op || live.is_empty() {
                let key = slab.insert(counter);
                live.push((key, counter));
                counter += 1;
            } else {
                let (key, val) = live.swap_remove(counter as usize % live.len());
                assert_eq!(slab.remove(key), Some(val));
                assert_eq!(slab.get(key), None);
            }
            for &(k, v) in &live {
                assert_eq!(slab.get(k), Some(&v));
            }
        }
        assert_eq!(slab.len(), live.len());
    });
}

/// `iter` yields exactly the live entries in ascending slot order (the
/// order completion order and tie-breaks depend on), `iter_mut` writes
/// land, and both stay right across LIFO slot reuse and a slab grown past
/// 200 slots then drained to a few.
#[test]
fn slab_iterates_live_slots_in_order() {
    type Oracle = BTreeMap<usize, (SlotKey, u64)>;
    /// Insert (or remove a random live entry), then compare with the
    /// oracle and sometimes write through `iter_mut`.
    fn step(g: &mut Gen, slab: &mut Slab<u64>, oracle: &mut Oracle, insert: bool) {
        if insert {
            let value = g.u64();
            let key = slab.insert(value);
            assert!(oracle.insert(key.index(), (key, value)).is_none());
        } else {
            let index = *oracle.keys().nth(g.usize_below(oracle.len())).unwrap();
            let (key, value) = oracle.remove(&index).unwrap();
            assert_eq!(slab.remove(key), Some(value));
        }
        assert!(slab
            .iter()
            .map(|(k, &v)| (k, v))
            .eq(oracle.values().copied()));
        assert_eq!(slab.iter().count(), slab.len());
        if g.usize_below(8) == 0 {
            for (_, v) in slab.iter_mut() {
                *v = v.wrapping_add(1);
            }
            for (k, v) in oracle.values_mut() {
                *v = v.wrapping_add(1);
                assert_eq!(slab.get(*k), Some(&*v));
            }
        }
    }
    forall("slab_iterates_live_slots_in_order", 256, |g| {
        let (mut slab, mut oracle) = (Slab::new(), Oracle::new());
        for _ in 0..g.usize_in(1, 80) {
            let insert = oracle.is_empty() || g.bool();
            step(g, &mut slab, &mut oracle, insert);
        }
        for _ in 0..200 {
            step(g, &mut slab, &mut oracle, true);
        }
        let few = g.usize_in(1, 4);
        while oracle.len() > few {
            step(g, &mut slab, &mut oracle, false);
        }
        for _ in 0..g.usize_in(1, 80) {
            let insert = oracle.is_empty() || g.bool();
            step(g, &mut slab, &mut oracle, insert);
        }
    });
}

/// Summary statistics are order-invariant.
#[test]
fn summary_order_invariant() {
    forall("summary_order_invariant", 256, |g| {
        let mut xs: Vec<f64> = (0..g.usize_in(1, 50))
            .map(|_| g.f64_in(-1e6, 1e6))
            .collect();
        let mut a = Summary::default();
        for &x in &xs {
            a.record(x);
        }
        xs.reverse();
        let mut b = Summary::default();
        for &x in &xs {
            b.record(x);
        }
        assert_eq!(a.min(), b.min());
        assert_eq!(a.max(), b.max());
        assert!((a.mean().unwrap() - b.mean().unwrap()).abs() < 1e-6);
    });
}

/// `SimDuration::from_secs_f64` as it was before the libm-free rounding:
/// the clamp of negative and non-finite inputs to zero, then `round`.
fn libm_ps(secs: f64) -> u64 {
    if !secs.is_finite() || secs <= 0.0 {
        return 0;
    }
    (secs * 1e12).round() as u64
}

/// The libm-free rounding in `from_secs_f64` gives exactly
/// `(secs * 1e12).round() as u64`: at and one ulp either side of `k + 0.5`
/// picoseconds (halves round away from zero), at 0.49999999999999994 (where
/// adding one half and truncating rounds up), around 2^52 (the last
/// binade with a fraction: 2^52 − 0.5 rounds up), at 2^63, 2^64 and beyond
/// (where `as` saturates), on subnormal and clamped inputs, and over a
/// seeded sweep of magnitudes and raw bit patterns.
#[test]
fn from_secs_f64_matches_libm_round() {
    let check = |secs: f64| {
        assert_eq!(
            SimDuration::from_secs_f64(secs).as_ps(),
            libm_ps(secs),
            "secs = {secs:e} ({:#018x})",
            secs.to_bits()
        );
    };
    let two52 = (1u64 << 52) as f64;
    let mut targets = vec![
        0.49999999999999994,
        two52 - 1.0,
        two52 - 0.5,
        two52,
        two52 + 1.0,
        2.0 * two52 + 2.0,
        (1u64 << 63) as f64,
        u64::MAX as f64,
        1e20,
    ];
    targets.extend(
        [
            0u64,
            1,
            2,
            3,
            7,
            1000,
            19_000_000,
            123_456_789,
            1 << 40,
            (1 << 51) - 1,
        ]
        .map(|k| k as f64 + 0.5),
    );
    for target in targets {
        // Step over the inputs whose products land just below, on (where
        // some input's does) and just above the target.
        let mut secs = target / 1e12;
        for _ in 0..4 {
            secs = secs.next_down();
        }
        let (mut below, mut above) = (false, false);
        for _ in 0..9 {
            below |= secs * 1e12 <= target;
            above |= secs * 1e12 >= target;
            check(secs);
            secs = secs.next_up();
        }
        assert!(below && above, "inputs do not straddle {target} ps");
    }
    let specials = [
        0.0,
        -0.0,
        -1.0,
        -1e-12,
        f64::from_bits(1),
        f64::MIN_POSITIVE,
        f64::MIN_POSITIVE / 3.0,
        5e-13,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MAX,
        1e300,
    ];
    for secs in specials {
        check(secs);
    }
    forall("from_secs_f64_matches_libm_round", 4096, |g| {
        check(g.f64_in(0.0, 1e-3));
        check(g.f64_in(0.0, 1.0) * 10f64.powi(g.usize_below(30) as i32 - 20));
        let k = g.u64_below(1 << 40) as f64;
        check((k + 0.5) / 1e12);
        check(f64::from_bits(g.u64()));
    });
}
