//! Single-producer single-consumer ring with embedded sequence numbers and
//! credit-based flow control.
//!
//! # Protocol (paper §III-C, "Queue Design")
//!
//! The ring holds `capacity` slots, each tagged with an atomic sequence
//! number. Message `i` (0-based) goes into slot `i % capacity` and is
//! published by storing sequence `i + 1` with release ordering *after* the
//! payload write — mirroring the single PCIe vector transaction that writes
//! entry + sequence number atomically on the real hardware. The consumer
//! recognizes slot validity by comparing the stored sequence against the
//! message index it expects; no head pointer crosses the link.
//!
//! The consumer publishes its progress in a `tail` counter (the number of
//! messages consumed). The producer keeps a local `credits` count,
//! decremented per send; only when it hits zero does the producer read
//! `tail` (the "occasional PCI-Express transaction to update the free
//! counter"). The consumer-side read of each slot is safe because a slot is
//! never rewritten until the consumer has advanced `tail` past it and the
//! producer has observed that.
//!
//! # Memory ordering
//!
//! * producer payload write → `seq.store(Release)` pairs with consumer
//!   `seq.load(Acquire)` → payload read;
//! * consumer payload read → `tail.store(Release)` pairs with producer
//!   `tail.load(Acquire)` → slot reuse.
//!
//! # Platform genericity
//!
//! The ring is generic over [`Platform`], which supplies the atomic counter
//! and payload-cell types. Production code uses the default
//! [`StdPlatform`] (real atomics — identical code to a non-generic ring);
//! `dcuda-verify` instantiates the very same functions over a virtual
//! platform whose atomics are scheduled by a bounded model checker. Use
//! [`channel`] for the standard ring and [`channel_on`] to pick a platform.

use crate::plat::{PlatAtomicU64, PlatCell, Platform, StdPlatform};
use std::sync::atomic::Ordering;
use std::sync::Arc;

#[repr(align(64))]
struct CachePadded<T>(T);

struct Slot<T, P: Platform> {
    seq: P::AtomicU64,
    value: P::Cell<T>,
}

struct Ring<T, P: Platform> {
    slots: Box<[Slot<T, P>]>,
    /// Messages consumed, published by the consumer (receiver memory).
    tail: CachePadded<P::AtomicU64>,
    /// Set when either endpoint drops, so the peer can observe disconnect.
    disconnected: P::AtomicU64,
}

// SAFETY: the SPSC protocol guarantees exclusive access to each slot's
// payload between the seq/tail synchronization points; T crossing threads
// requires T: Send. Platform implementations promise thread-safe primitives
// (see the `plat` module's safety contract).
unsafe impl<T: Send, P: Platform> Sync for Ring<T, P> {}
unsafe impl<T: Send, P: Platform> Send for Ring<T, P> {}

/// Error returned by [`Sender::try_send`].
#[derive(Debug, PartialEq, Eq)]
pub enum TrySendError<T> {
    /// The ring is full (no credits and the tail confirms no space).
    Full(T),
    /// The receiver was dropped.
    Disconnected(T),
}

/// Error returned by [`Receiver::try_recv`].
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum RecvError {
    /// No message is currently available.
    Empty,
    /// The sender was dropped and the ring is drained.
    Disconnected,
}

/// Producer endpoint.
pub struct Sender<T, P: Platform = StdPlatform> {
    ring: Arc<Ring<T, P>>,
    /// Next message index to write.
    head: u64,
    /// Local credit count (free slots known without reading `tail`).
    credits: u64,
    /// Number of times the credit counter was refreshed from `tail` —
    /// observable cost metric matching the paper's "occasional transaction".
    pub credit_refreshes: u64,
}

/// Consumer endpoint.
pub struct Receiver<T, P: Platform = StdPlatform> {
    ring: Arc<Ring<T, P>>,
    /// Next message index to read.
    next: u64,
}

/// Create a ring with `capacity` slots (must be a power of two for cheap
/// index masking; the paper's queues are sized likewise).
///
/// # Panics
/// Panics if `capacity` is zero or not a power of two.
pub fn channel<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    channel_on::<T, StdPlatform>(capacity)
}

/// As [`channel`], but over an explicit [`Platform`]. This is how
/// `dcuda-verify` runs the production ring under its model-checking
/// scheduler; production code should keep using [`channel`].
///
/// # Panics
/// Panics if `capacity` is zero or not a power of two.
pub fn channel_on<T, P: Platform>(capacity: usize) -> (Sender<T, P>, Receiver<T, P>) {
    assert!(
        capacity.is_power_of_two() && capacity > 0,
        "capacity must be a nonzero power of two, got {capacity}"
    );
    let slots = (0..capacity)
        .map(|_| Slot {
            seq: P::AtomicU64::new(0),
            value: P::Cell::<T>::empty(),
        })
        .collect::<Vec<_>>()
        .into_boxed_slice();
    let ring = Arc::new(Ring {
        slots,
        tail: CachePadded(P::AtomicU64::new(0)),
        disconnected: P::AtomicU64::new(0),
    });
    (
        Sender {
            ring: ring.clone(),
            head: 0,
            credits: capacity as u64,
            credit_refreshes: 0,
        },
        Receiver { ring, next: 0 },
    )
}

impl<T, P: Platform> Sender<T, P> {
    /// Capacity of the ring.
    pub fn capacity(&self) -> usize {
        self.ring.slots.len()
    }

    /// Attempt to enqueue. On success this costs one "transaction" (slot
    /// write + sequence publish); when credits are exhausted it additionally
    /// reads the consumer tail once.
    pub fn try_send(&mut self, value: T) -> Result<(), TrySendError<T>> {
        if self.ring.disconnected.load(Ordering::Acquire) != 0 {
            return Err(TrySendError::Disconnected(value));
        }
        if self.credits == 0 {
            // Credit refresh: one read of the receiver-published tail.
            let tail = self.ring.tail.0.load(Ordering::Acquire);
            self.credit_refreshes += 1;
            let in_flight = self.head - tail;
            self.credits = self.ring.slots.len() as u64 - in_flight;
            if self.credits == 0 {
                return Err(TrySendError::Full(value));
            }
        }
        let cap = self.ring.slots.len() as u64;
        let slot = &self.ring.slots[(self.head % cap) as usize];
        // SAFETY: credits > 0 guarantees the consumer has finished with this
        // slot (tail >= head - cap + 1), so we have exclusive access.
        unsafe {
            slot.value.write(value);
        }
        slot.seq.store(self.head + 1, Ordering::Release);
        self.head += 1;
        self.credits -= 1;
        Ok(())
    }

    /// Messages sent so far.
    pub fn sent(&self) -> u64 {
        self.head
    }

    /// Producer's current view of ring occupancy: messages sent minus
    /// consumed progress as of the last credit refresh (`capacity -
    /// credits`). The invariant monitor checks this never exceeds
    /// [`capacity`](Self::capacity) — credit flow control must bound
    /// in-flight messages without reading the tail on every send.
    pub fn in_flight_upper_bound(&self) -> u64 {
        self.ring.slots.len() as u64 - self.credits
    }

    /// Has the consumer taken at least `n` messages? Answered from the
    /// credit count when it already shows that many, else by one acquire
    /// read of the tail (which, unlike a credit refresh, grants no
    /// credits). The consumer publishes its tail as it takes a message, so
    /// `true` says the messages were taken, not what was done with them.
    pub fn consumed_at_least(&self, n: u64) -> bool {
        n <= self.head - self.in_flight_upper_bound()
            || self.ring.tail.0.load(Ordering::Acquire) >= n
    }
}

impl<T, P: Platform> Receiver<T, P> {
    /// Capacity of the ring.
    pub fn capacity(&self) -> usize {
        self.ring.slots.len()
    }

    /// Attempt to dequeue the next message.
    pub fn try_recv(&mut self) -> Result<T, RecvError> {
        let cap = self.ring.slots.len() as u64;
        let slot = &self.ring.slots[(self.next % cap) as usize];
        let mut seq = slot.seq.load(Ordering::Acquire);
        if seq != self.next + 1 {
            // Not yet published (or a stale earlier round).
            if self.ring.disconnected.load(Ordering::Acquire) == 0 {
                return Err(RecvError::Empty);
            }
            // Disconnect observed. The sender's disconnect store releases
            // everything it published, and our acquire load synchronized
            // with it — so a *re-read* of seq now sees any publication that
            // preceded the drop. Without this re-check, a stale first seq
            // read paired with a fresh disconnected read would drop the
            // ring's tail messages (found by the dcuda-verify model
            // checker: two independent loads may read from different
            // moments on weakly-ordered hardware).
            seq = slot.seq.load(Ordering::Acquire);
            if seq != self.next + 1 {
                return Err(RecvError::Disconnected);
            }
        }
        // SAFETY: the release store of seq happened after the payload write;
        // our acquire load synchronizes with it, and only we read this slot.
        let value = unsafe { slot.value.read() };
        self.next += 1;
        // Publish progress for the producer's credit refresh.
        self.ring.tail.0.store(self.next, Ordering::Release);
        Ok(value)
    }

    /// Peek whether a message is available without consuming it.
    pub fn is_ready(&self) -> bool {
        let cap = self.ring.slots.len() as u64;
        let slot = &self.ring.slots[(self.next % cap) as usize];
        slot.seq.load(Ordering::Acquire) == self.next + 1
    }

    /// Messages consumed so far.
    pub fn consumed(&self) -> u64 {
        self.next
    }
}

impl<T, P: Platform> Drop for Sender<T, P> {
    fn drop(&mut self) {
        self.ring.disconnected.store(1, Ordering::Release);
    }
}

impl<T, P: Platform> Drop for Receiver<T, P> {
    fn drop(&mut self) {
        self.ring.disconnected.store(1, Ordering::Release);
        // Drain remaining messages so their destructors run.
        while let Ok(v) = self.try_recv_ignore_disconnect() {
            drop(v);
        }
    }
}

impl<T, P: Platform> Receiver<T, P> {
    fn try_recv_ignore_disconnect(&mut self) -> Result<T, ()> {
        let cap = self.ring.slots.len() as u64;
        let slot = &self.ring.slots[(self.next % cap) as usize];
        if slot.seq.load(Ordering::Acquire) != self.next + 1 {
            return Err(());
        }
        // SAFETY: same argument as `try_recv` — seq publication guards the
        // payload read.
        let value = unsafe { slot.value.read() };
        self.next += 1;
        self.ring.tail.0.store(self.next, Ordering::Release);
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    #[test]
    fn send_recv_roundtrip() {
        let (mut tx, mut rx) = channel::<u32>(4);
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        assert_eq!(rx.try_recv(), Ok(1));
        assert_eq!(rx.try_recv(), Ok(2));
        assert_eq!(rx.try_recv(), Err(RecvError::Empty));
    }

    #[test]
    fn fills_at_capacity() {
        let (mut tx, mut rx) = channel::<u32>(4);
        for i in 0..4 {
            tx.try_send(i).unwrap();
        }
        assert_eq!(tx.try_send(99), Err(TrySendError::Full(99)));
        assert_eq!(rx.try_recv(), Ok(0));
        // After the consumer advances, the refreshed credits admit one more.
        tx.try_send(4).unwrap();
    }

    #[test]
    fn credit_refresh_is_occasional() {
        // Paper: one PCIe transaction per enqueue plus an *occasional* tail
        // read. With a consumer that keeps pace, refreshes happen at most
        // once per `capacity` sends.
        let (mut tx, mut rx) = channel::<u64>(8);
        for i in 0..1000u64 {
            tx.try_send(i).unwrap();
            assert_eq!(rx.try_recv(), Ok(i));
        }
        assert!(
            tx.credit_refreshes <= 1000 / 8 + 1,
            "got {} refreshes",
            tx.credit_refreshes
        );
    }

    #[test]
    fn in_flight_never_exceeds_capacity() {
        let (mut tx, mut rx) = channel::<u64>(4);
        for round in 0..100u64 {
            while tx.try_send(round).is_ok() {
                assert!(tx.in_flight_upper_bound() <= 4);
            }
            while rx.try_recv().is_ok() {}
        }
    }

    #[test]
    fn consumed_at_least_reads_the_tail_without_granting_credits() {
        let (mut tx, mut rx) = channel::<u8>(4);
        assert!(tx.consumed_at_least(0));
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        assert!(!tx.consumed_at_least(1));
        rx.try_recv().unwrap();
        assert!(tx.consumed_at_least(1) && !tx.consumed_at_least(2));
        assert_eq!((tx.credit_refreshes, tx.in_flight_upper_bound()), (0, 2));
    }

    #[test]
    fn wraparound_many_rounds() {
        let (mut tx, mut rx) = channel::<u64>(2);
        for i in 0..10_000u64 {
            tx.try_send(i).unwrap();
            assert_eq!(rx.try_recv(), Ok(i));
        }
        assert_eq!(tx.sent(), 10_000);
        assert_eq!(rx.consumed(), 10_000);
    }

    #[test]
    fn is_ready_reflects_state() {
        let (mut tx, mut rx) = channel::<u8>(2);
        assert!(!rx.is_ready());
        tx.try_send(7).unwrap();
        assert!(rx.is_ready());
        rx.try_recv().unwrap();
        assert!(!rx.is_ready());
    }

    #[test]
    fn sender_drop_observed_after_drain() {
        let (mut tx, mut rx) = channel::<u8>(4);
        tx.try_send(1).unwrap();
        drop(tx);
        // Buffered message still readable...
        assert_eq!(rx.try_recv(), Ok(1));
        // ...then disconnect is reported.
        assert_eq!(rx.try_recv(), Err(RecvError::Disconnected));
    }

    #[test]
    fn receiver_drop_fails_send() {
        let (mut tx, rx) = channel::<u8>(4);
        drop(rx);
        assert_eq!(tx.try_send(1), Err(TrySendError::Disconnected(1)));
    }

    #[test]
    fn drops_buffered_values() {
        use std::sync::atomic::AtomicUsize;
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        #[derive(Debug)]
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let (mut tx, rx) = channel::<D>(4);
        tx.try_send(D).unwrap();
        tx.try_send(D).unwrap();
        drop(rx);
        assert_eq!(DROPS.load(Ordering::SeqCst), 2);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let _ = channel::<u8>(3);
    }

    #[test]
    fn cross_thread_stress() {
        // A producer and a consumer hammer the ring; every message must
        // arrive exactly once, in order.
        let (mut tx, mut rx) = channel::<u64>(64);
        const N: u64 = 20_000;
        let producer = std::thread::spawn(move || {
            let mut i = 0u64;
            while i < N {
                match tx.try_send(i) {
                    Ok(()) => i += 1,
                    Err(TrySendError::Full(_)) => std::thread::yield_now(),
                    Err(TrySendError::Disconnected(_)) => panic!("consumer died"),
                }
            }
            tx
        });
        let mut expect = 0u64;
        while expect < N {
            match rx.try_recv() {
                Ok(v) => {
                    assert_eq!(v, expect);
                    expect += 1;
                }
                Err(RecvError::Empty) => std::thread::yield_now(),
                Err(RecvError::Disconnected) => panic!("producer died early"),
            }
        }
        let tx = producer.join().unwrap();
        assert_eq!(tx.sent(), N);
    }

    #[test]
    fn cross_thread_stress_large_payload() {
        // Payloads wider than a word exercise the payload-write / seq-publish
        // ordering.
        let (mut tx, mut rx) = channel::<[u64; 8]>(16);
        const N: u64 = 10_000;
        let producer = std::thread::spawn(move || {
            let mut i = 0u64;
            while i < N {
                let v = [i; 8];
                match tx.try_send(v) {
                    Ok(()) => i += 1,
                    Err(TrySendError::Full(_)) => std::thread::yield_now(),
                    Err(TrySendError::Disconnected(_)) => panic!("consumer died"),
                }
            }
        });
        let mut expect = 0u64;
        while expect < N {
            match rx.try_recv() {
                Ok(v) => {
                    assert_eq!(v, [expect; 8], "torn or reordered entry");
                    expect += 1;
                }
                Err(RecvError::Empty) => std::thread::yield_now(),
                Err(RecvError::Disconnected) => panic!("producer died early"),
            }
        }
        producer.join().unwrap();
    }
}
