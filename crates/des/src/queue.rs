//! The pending-event set: a time-ordered queue with FIFO tie-breaking.
//!
//! # Performance engineering
//!
//! Two structural choices decouple the queue's host-side cost from the event
//! payload type and the dominant scheduling pattern of the cluster model:
//!
//! * **Arena-allocated entries under packed keys.** The binary heap orders
//!   one `u128` per entry: the time in the high 64 bits, then the sequence
//!   number, then the arena slot (see `pack`), so a sift compares one
//!   integer instead of a `(time, seq, slot)` tuple. Payloads live in a
//!   free-listed arena and are moved exactly twice (in on schedule, out on
//!   pop) no matter how often the heap sifts. Large event enums no longer
//!   ripple through every percolation step, and slot reuse keeps the arena
//!   allocation-free at steady state.
//! * **Current-time FIFO fast path.** Simulation handlers overwhelmingly
//!   schedule follow-up events at the *current* instant (`schedule_at(now)`
//!   chains in the notified-put pipeline). Those events bypass the heap
//!   entirely and land in a FIFO holding only entries at `now`; `pop`
//!   merges the FIFO and the heap by `(time, seq)`, which preserves the
//!   global FIFO-among-equal-times order exactly. The common
//!   schedule-then-immediately-pop cycle is O(1) instead of two O(log n)
//!   heap operations.
//! * **Re-armable timer slots.** A resource whose next completion moves
//!   every time its active set changes (a device's SMs) owns one slot.
//!   [`EventQueue::arm`] replaces the slot's pending event in place and
//!   [`EventQueue::disarm`] clears it, so a superseded prediction never
//!   enters the heap. An arm takes a fresh sequence number exactly as
//!   `schedule_at` does, and `pop` merges the slots with the FIFO and the
//!   heap by `(time, seq)`: the surviving events pop in the same order as
//!   if every arm had been scheduled and every superseded one skipped on
//!   delivery. The earliest slot is cached; the slots are rescanned only
//!   when that slot is disarmed, popped or re-armed later.
//!
//! The FIFO can only hold entries stamped with the current time: `now` never
//! decreases, so once the clock moves past an instant no new entry can join
//! that instant's tie group, and all FIFO entries are popped (they compare
//! `<=` every heap key) before the clock can advance.

use crate::time::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Bits of a packed key that hold the sequence number.
const SEQ_BITS: u32 = 40;
/// Bits of a packed key that hold the arena or timer slot.
const SLOT_BITS: u32 = 24;

/// Pack `(at, seq, slot)` into one key whose integer order is the tuple's
/// lexicographic order: the time fills the high 64 bits, the sequence
/// number the next [`SEQ_BITS`], the slot the low [`SLOT_BITS`].
///
/// # Panics
/// Panics if `slot` does not fit its field; a key never wraps. The
/// sequence number is checked where it is drawn ([`EventQueue::next_seq`]).
#[inline]
fn pack(at: SimTime, seq: u64, slot: usize) -> u128 {
    debug_assert!(seq >> SEQ_BITS == 0);
    assert!(
        slot >> SLOT_BITS == 0,
        "EventQueue: slot {slot} exceeds {SLOT_BITS} bits"
    );
    u128::from(at.as_ps()) << 64 | u128::from(seq) << SLOT_BITS | slot as u128
}

/// The time of a packed key.
#[inline]
fn time_of(key: u128) -> SimTime {
    SimTime::from_ps((key >> 64) as u64)
}

/// The slot of a packed key.
#[inline]
fn slot_of(key: u128) -> usize {
    (key as usize) & ((1 << SLOT_BITS) - 1)
}

/// How many events took each path through an [`EventQueue`]: the
/// simulator's work as counts, which depend only on the model (a host-side
/// change to the queue leaves them exact).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueCounts {
    /// Events scheduled at the current instant (the FIFO fast path).
    pub fifo_schedules: u64,
    /// Events scheduled for a later instant (the heap).
    pub heap_schedules: u64,
    /// Timer-slot arms.
    pub arms: u64,
    /// Events popped from the FIFO.
    pub fifo_pops: u64,
    /// Events popped from the heap.
    pub heap_pops: u64,
    /// Events popped from timer slots.
    pub timer_pops: u64,
}

/// A deterministic pending-event set.
///
/// Events scheduled for the same instant are delivered in scheduling order
/// (FIFO), which makes simulations reproducible run-to-run regardless of heap
/// internals. Popping an event advances the queue's clock; scheduling into
/// the past is a model bug and panics.
pub struct EventQueue<E> {
    /// Min-heap over packed `(time, seq, arena slot)` keys.
    heap: BinaryHeap<Reverse<u128>>,
    /// Payload arena for heap-resident events; `None` slots are free.
    arena: Vec<Option<E>>,
    /// Free arena slots.
    free: Vec<u32>,
    /// Events scheduled at exactly `now`, in scheduling order.
    now_fifo: VecDeque<(u64, E)>,
    /// Timer slots: the armed event of each under its packed `(time, seq,
    /// timer slot)` key.
    timers: Vec<Option<(u128, E)>>,
    /// Key of the earliest armed slot.
    next_timer: Option<u128>,
    /// Number of armed timer slots.
    armed: usize,
    now: SimTime,
    seq: u64,
    counts: QueueCounts,
    peak_pending: usize,
}

impl<E> EventQueue<E> {
    /// Create an empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            arena: Vec::new(),
            free: Vec::new(),
            now_fifo: VecDeque::new(),
            timers: Vec::new(),
            next_timer: None,
            armed: 0,
            now: SimTime::ZERO,
            seq: 0,
            counts: QueueCounts::default(),
            peak_pending: 0,
        }
    }

    /// Current virtual time (time of the last popped event).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events scheduled or armed over the queue's lifetime.
    #[inline]
    pub fn scheduled_total(&self) -> u64 {
        self.seq
    }

    /// The schedules, arms and pops so far, by path.
    #[inline]
    pub fn counts(&self) -> QueueCounts {
        self.counts
    }

    /// Largest number of simultaneously pending events observed.
    #[inline]
    pub fn peak_pending(&self) -> usize {
        self.peak_pending
    }

    /// Number of events currently pending, armed timer slots included.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len() + self.now_fifo.len() + self.armed
    }

    /// True when no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is before the current time, or if the sequence
    /// number or the arena slot outgrows its field of the packed key.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "EventQueue::schedule_at: scheduling into the past ({at:?} < {:?})",
            self.now
        );
        let seq = self.next_seq();
        if at == self.now {
            self.counts.fifo_schedules += 1;
            self.now_fifo.push_back((seq, event));
        } else {
            let slot = match self.free.pop() {
                Some(s) => {
                    debug_assert!(self.arena[s as usize].is_none());
                    self.arena[s as usize] = Some(event);
                    s as usize
                }
                None => {
                    self.arena.push(Some(event));
                    self.arena.len() - 1
                }
            };
            self.counts.heap_schedules += 1;
            self.heap.push(Reverse(pack(at, seq, slot)));
        }
        self.peak_pending = self.peak_pending.max(self.len());
    }

    /// Take the next sequence number.
    ///
    /// # Panics
    /// Panics once the numbers outgrow their [`SEQ_BITS`] field of the
    /// packed key.
    #[inline]
    fn next_seq(&mut self) -> u64 {
        let seq = self.seq;
        assert!(
            seq >> SEQ_BITS == 0,
            "EventQueue: sequence number {seq} exceeds {SEQ_BITS} bits"
        );
        self.seq += 1;
        seq
    }

    /// Arm timer slot `slot` with `event` at `at`, replacing the event the
    /// slot held. The arm takes a fresh sequence number, so among equal
    /// times it pops after everything scheduled or armed before it.
    ///
    /// # Panics
    /// Panics if `at` is before the current time, or if the sequence
    /// number or `slot` outgrows its field of the packed key.
    pub fn arm(&mut self, slot: usize, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "EventQueue::arm: scheduling into the past ({at:?} < {:?})",
            self.now
        );
        let key = pack(at, self.next_seq(), slot);
        self.counts.arms += 1;
        if slot >= self.timers.len() {
            self.timers.resize_with(slot + 1, || None);
        }
        let old = self.timers[slot].replace((key, event));
        self.armed += usize::from(old.is_none());
        match self.next_timer {
            // Every other slot's key is above the earliest one, so a key
            // below it is the new earliest wherever it was armed. Only a
            // re-arm of the earliest slot at a later key needs a rescan.
            Some(next) if key >= next && slot_of(next) == slot => self.refresh_next_timer(),
            Some(next) if key >= next => {}
            _ => self.next_timer = Some(key),
        }
        self.peak_pending = self.peak_pending.max(self.len());
    }

    /// Clear timer slot `slot`; its pending event, if any, never pops.
    pub fn disarm(&mut self, slot: usize) {
        if let Some(timer) = self.timers.get_mut(slot) {
            if timer.take().is_some() {
                self.armed -= 1;
                if self.next_timer.is_some_and(|next| slot_of(next) == slot) {
                    self.refresh_next_timer();
                }
            }
        }
    }

    fn refresh_next_timer(&mut self) {
        self.next_timer = self
            .timers
            .iter()
            .filter_map(|t| t.as_ref().map(|&(key, _)| key))
            .min();
    }

    /// Schedule `event` after a relative delay.
    #[inline]
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        let queued = if self.now_fifo.is_empty() {
            self.heap.peek().map(|&Reverse(key)| time_of(key))
        } else {
            // FIFO entries are stamped `now`, which no heap entry precedes.
            Some(self.now)
        };
        let timer = self.next_timer.map(time_of);
        match (queued, timer) {
            (Some(q), Some(t)) => Some(q.min(t)),
            (q, t) => q.or(t),
        }
    }

    /// Remove and return the earliest event, advancing the clock to its time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        // A heap entry can tie the FIFO's timestamp (scheduled for this
        // instant before the clock reached it), and so can an armed slot;
        // the global sequence number arbitrates FIFO order across all three
        // stores. Sequence numbers are unique, so the slot bits below them
        // never decide a comparison.
        let fifo_key = self
            .now_fifo
            .front()
            .map(|&(seq, _)| pack(self.now, seq, 0));
        let heap_key = self.heap.peek().map(|&Reverse(key)| key);
        let queued = match (fifo_key, heap_key) {
            (None, None) => None,
            (Some(f), None) => Some((f, true)),
            (None, Some(h)) => Some((h, false)),
            (Some(f), Some(h)) => Some(if f < h { (f, true) } else { (h, false) }),
        };
        if let Some(next) = self.next_timer {
            if queued.is_none_or(|(q, _)| next < q) {
                let (_, event) = self.timers[slot_of(next)]
                    .take()
                    .expect("next timer is armed");
                self.armed -= 1;
                self.counts.timer_pops += 1;
                self.refresh_next_timer();
                self.now = time_of(next);
                return Some((self.now, event));
            }
        }
        let (_, take_fifo) = queued?;
        if take_fifo {
            let (_, event) = self.now_fifo.pop_front().expect("checked non-empty");
            self.counts.fifo_pops += 1;
            Some((self.now, event))
        } else {
            let Reverse(key) = self.heap.pop().expect("checked non-empty");
            let t = time_of(key);
            debug_assert!(t >= self.now);
            self.counts.heap_pops += 1;
            self.now = t;
            let slot = slot_of(key);
            let event = self.arena[slot]
                .take()
                .expect("heap key points at live arena slot");
            self.free.push(slot as u32);
            Some((t, event))
        }
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_ps(30), "c");
        q.schedule_at(SimTime::from_ps(10), "a");
        q.schedule_at(SimTime::from_ps(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn fifo_among_equal_times() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule_at(SimTime::from_ps(5), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.schedule_in(SimDuration::from_micros(3), ());
        assert_eq!(q.now(), SimTime::ZERO);
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_ps(3_000_000));
        assert_eq!(q.now(), t);
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn rejects_past_events() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_ps(10), 1);
        q.pop();
        q.schedule_at(SimTime::from_ps(5), 2);
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_ps(10), 1u32);
        let (t, e) = q.pop().unwrap();
        assert_eq!((t.as_ps(), e), (10, 1));
        // Scheduling relative to the advanced clock.
        q.schedule_in(SimDuration::from_ps(5), 2u32);
        let (t, e) = q.pop().unwrap();
        assert_eq!((t.as_ps(), e), (15, 2));
        assert!(q.is_empty());
        assert_eq!(q.scheduled_total(), 2);
    }

    #[test]
    fn fast_path_preserves_fifo_against_heap_ties() {
        // Heap entry scheduled for t=10 from t=0; clock reaches 10; then a
        // same-time event takes the fast path. The earlier-scheduled heap
        // entry must still pop first at the tie.
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_ps(10), "early-heap");
        q.schedule_at(SimTime::from_ps(10), "late-heap");
        let (_, first) = q.pop().unwrap(); // advances now to 10
        assert_eq!(first, "early-heap");
        q.schedule_at(SimTime::from_ps(10), "fifo"); // fast path at now
        assert_eq!(q.counts().fifo_schedules, 1);
        let (_, second) = q.pop().unwrap();
        assert_eq!(second, "late-heap", "heap tie scheduled earlier wins");
        let (_, third) = q.pop().unwrap();
        assert_eq!(third, "fifo");
    }

    #[test]
    fn fast_path_interleaves_with_future_events() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_ps(5), 'a');
        q.pop();
        q.schedule_at(SimTime::from_ps(5), 'b'); // fast path
        q.schedule_at(SimTime::from_ps(7), 'c');
        q.schedule_at(SimTime::from_ps(5), 'd'); // fast path
        assert_eq!(q.peek_time(), Some(SimTime::from_ps(5)));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!['b', 'd', 'c']);
    }

    #[test]
    fn arena_slots_are_reused() {
        let mut q = EventQueue::new();
        for round in 0..10 {
            for i in 0..8 {
                q.schedule_at(SimTime::from_ps(round * 100 + i + 1), i);
            }
            while q.pop().is_some() {}
        }
        // Steady-state arena: no more slots than the peak concurrent load.
        assert!(q.arena.len() <= 8, "arena grew to {}", q.arena.len());
        assert_eq!(q.peak_pending(), 8);
    }

    #[test]
    fn len_counts_both_stores() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::ZERO, 1); // fast path (now == ZERO)
        q.schedule_at(SimTime::from_ps(4), 2);
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
        q.pop();
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn packed_keys_order_like_tuples() {
        let tuples = [
            (0, 0, 0),
            (0, 0, (1 << SLOT_BITS) - 1),
            (0, 1, 0),
            (1, 0, 0),
            (u64::MAX - 1, (1 << SEQ_BITS) - 1, 7),
            (u64::MAX, 0, 0),
            (u64::MAX, (1 << SEQ_BITS) - 1, (1 << SLOT_BITS) - 1),
        ];
        for a in tuples {
            let ka = pack(SimTime::from_ps(a.0), a.1, a.2);
            assert_eq!((time_of(ka).as_ps(), slot_of(ka)), (a.0, a.2));
            for b in tuples {
                let kb = pack(SimTime::from_ps(b.0), b.1, b.2);
                assert_eq!(ka.cmp(&kb), a.cmp(&b), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds 24 bits")]
    fn slot_overflow_panics() {
        pack(SimTime::ZERO, 0, 1 << SLOT_BITS);
    }

    #[test]
    #[should_panic(expected = "exceeds 40 bits")]
    fn sequence_overflow_panics() {
        let mut q = EventQueue::new();
        q.seq = (1 << SEQ_BITS) - 1;
        q.schedule_at(SimTime::from_ps(1), 'a');
        q.schedule_at(SimTime::from_ps(1), 'b');
    }

    #[test]
    #[should_panic(expected = "exceeds 24 bits")]
    fn timer_slot_overflow_panics() {
        let mut q = EventQueue::new();
        q.arm(1 << SLOT_BITS, SimTime::from_ps(1), ());
    }
}
