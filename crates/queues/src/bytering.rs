//! SPSC *byte* ring: variable-length records over a contiguous region.
//!
//! This is the ring behind the shared-memory transport plane: the
//! producer and consumer are generic over a [`RingStore`] — where the two
//! frontier counters and the bytes live — and `dcuda-net` instantiates them
//! over an `mmap`ed file shared by two processes, while `dcuda-verify`
//! instantiates the *same code* over [`CellStore`] on its model-checking
//! [`Platform`]. The index math, the pad/wrap
//! discipline and the Release/Acquire publication pairing exist once.
//!
//! # Protocol
//!
//! `head` counts bytes ever published by the producer, `tail` bytes ever
//! consumed; both increase monotonically and are mapped into the region
//! modulo its capacity. A record is a 4-byte little-endian length word
//! followed by the body, stored **contiguously** (records never wrap).
//! All positions stay 4-aligned: the capacity is a multiple of 4 and every
//! record advance is rounded up to a multiple of 4. When a record would
//! not fit before the end of the region, the producer writes the
//! [`PAD_MARKER`] length word and skips to offset 0; the consumer mirrors
//! the skip.
//!
//! Publication order is the whole correctness story, exactly as in the
//! paper's device/host queues: the producer writes the record bytes
//! *first* and only then stores the advanced `head` with `Release`; the
//! consumer `Acquire`-loads `head` before touching the bytes, and
//! `Release`-stores the advanced `tail` only after it has finished reading
//! (licensing the producer to overwrite). The verify suite proves the
//! checker would catch a demotion of either `Release` store.

use crate::plat::{PlatAtomicU64, PlatCell, Platform};
use std::sync::atomic::Ordering::{Acquire, Release};
use std::sync::Arc;

/// Length-word value marking "skip to the start of the region".
pub const PAD_MARKER: u32 = u32::MAX;

/// Bytes of record header (the length word).
pub const REC_LEN_BYTES: usize = 4;

/// Round a byte count up to the 4-byte record alignment.
pub const fn round_up4(n: usize) -> usize {
    (n + 3) & !3
}

/// Total ring bytes a record with `body_len` content occupies.
pub const fn record_bytes(body_len: usize) -> usize {
    REC_LEN_BYTES + round_up4(body_len)
}

/// Can a record with `body_len` content always fit in an (empty) ring of
/// `cap` bytes? The bound is `cap / 2`, not `cap`: a record larger than
/// half the region could need an edge pad bigger than the space it leaves,
/// making the head/tail occupancy invariant (`head - tail <= cap`)
/// unsatisfiable at some positions. The shm plane chunks larger transfers
/// so every chunk satisfies this.
pub const fn fits(cap: usize, body_len: usize) -> bool {
    record_bytes(body_len) <= cap / 2
}

/// Placement decision for one record: where its length word goes and how
/// far `head` advances once it is published.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// Bytes skipped at the end of the region (0 = no pad). When nonzero
    /// the producer writes [`PAD_MARKER`] at the old `head % cap` first.
    pub pad: usize,
    /// Region offset of the record's length word.
    pub offset: usize,
    /// Total head advance (pad + length word + aligned body).
    pub advance: u64,
}

/// Plan the placement of a `record_bytes`-byte record (see
/// [`record_bytes`]) given the producer frontier `head`, the consumer
/// frontier `tail` and the region capacity `cap` (a multiple of 4).
/// Returns `None` when the ring lacks space — the caller retries after
/// refreshing `tail`. Kept a pure function so the trickiest part of the
/// protocol — the wrap/pad offset math — is unit-testable at every
/// head/tail geometry.
pub fn plan_record(head: u64, tail: u64, cap: usize, record_bytes: usize) -> Option<Grant> {
    debug_assert_eq!(cap % 4, 0, "ring capacity must be 4-aligned");
    debug_assert_eq!(record_bytes % 4, 0, "record sizes are 4-aligned");
    debug_assert!(
        record_bytes <= cap / 2,
        "record exceeds the cap/2 placement bound"
    );
    let used = (head - tail) as usize;
    let at = (head % cap as u64) as usize;
    let to_edge = cap - at;
    // Positions are 4-aligned, so when a pad is needed the remaining edge
    // space always holds the 4-byte marker.
    let (pad, offset) = if record_bytes <= to_edge {
        (0, at)
    } else {
        (to_edge, 0)
    };
    if used + pad + record_bytes > cap {
        return None;
    }
    Some(Grant {
        pad,
        offset,
        advance: (pad + record_bytes) as u64,
    })
}

/// One endpoint's handle on the memory a ring lives in: the two monotonic
/// frontier counters and the byte region between them. The producer and
/// consumer below are generic over it, so the record protocol has a single
/// body whether the ring lives in process memory ([`CellStore`], which
/// `dcuda-verify` instantiates on its model-checking platform) or in a file
/// mapped by two processes (`dcuda-net`'s shm plane).
pub trait RingStore {
    /// Counter type of the two frontiers.
    type Atomic: PlatAtomicU64;

    /// Region size in bytes (a multiple of 4, at least 8).
    fn capacity(&self) -> usize;

    /// Bytes ever published (written by the producer only).
    fn head(&self) -> &Self::Atomic;

    /// Bytes ever consumed (written by the consumer only).
    fn tail(&self) -> &Self::Atomic;

    /// Copy `src` into the region at byte offset `off`.
    ///
    /// # Safety
    /// `[off, off + src.len())` must lie inside the region and belong to
    /// the caller under the SPSC grant discipline: between the consumer
    /// frontier it Acquire-observed and its own unpublished head.
    unsafe fn write(&self, off: usize, src: &[u8]);

    /// Hand the region bytes `[off, off + len)` to `f`.
    ///
    /// # Safety
    /// The range must lie inside the region and below a producer frontier
    /// the caller Acquire-observed, and not yet be released by a tail
    /// store; each byte is read at most once per publication.
    unsafe fn read<R>(&mut self, off: usize, len: usize, f: impl FnOnce(&[u8]) -> R) -> R;
}

/// The consumer found a length word no producer of this protocol writes
/// (only possible when a foreign writer shares the region, as on the mapped
/// shm plane). The ring stays parked on the bad record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingCorrupt {
    /// Region offset of the offending length word.
    pub offset: usize,
    /// The value found there.
    pub len_word: u32,
}

struct Shared<P: Platform> {
    head: P::AtomicU64,
    tail: P::AtomicU64,
    cells: Box<[P::Cell<u8>]>,
}

// Safety: the SPSC protocol gives each byte cell exactly one writer (the
// producer, before the Release-publish of `head`) and one reader (the
// consumer, after the Acquire-load of `head` and before the
// Release-publish of `tail`), so sharing the region across the two
// endpoint threads is sound. See the plat.rs safety contract.
unsafe impl<P: Platform> Sync for Shared<P> {}
unsafe impl<P: Platform> Send for Shared<P> {}

/// In-process [`RingStore`]: platform atomics and one platform cell per
/// byte, shared by the two endpoints of [`byte_ring_on`].
pub struct CellStore<P: Platform> {
    shared: Arc<Shared<P>>,
    /// Consumer-side staging: cells cannot be borrowed as a slice, so a
    /// record is moved out of them into this reused buffer.
    scratch: Vec<u8>,
}

impl<P: Platform> RingStore for CellStore<P> {
    type Atomic = P::AtomicU64;

    fn capacity(&self) -> usize {
        self.shared.cells.len()
    }

    fn head(&self) -> &P::AtomicU64 {
        &self.shared.head
    }

    fn tail(&self) -> &P::AtomicU64 {
        &self.shared.tail
    }

    unsafe fn write(&self, off: usize, src: &[u8]) {
        for (cell, &b) in self.shared.cells[off..off + src.len()].iter().zip(src) {
            // Safety: the caller owns the range, and the value a cell held
            // was moved out by the consumer before it Release-published
            // the tail the producer read.
            unsafe { cell.write(b) };
        }
    }

    unsafe fn read<R>(&mut self, off: usize, len: usize, f: impl FnOnce(&[u8]) -> R) -> R {
        self.scratch.clear();
        let cells = &self.shared.cells[off..off + len];
        // Safety: a matching write happened-before (the range lies below
        // the Acquire-observed head), and the tail frontier only moves past
        // a record after this single read of each of its bytes.
        self.scratch
            .extend(cells.iter().map(|cell| unsafe { cell.read() }));
        f(&self.scratch)
    }
}

/// Producer endpoint of a byte ring over the storage `S`.
pub struct ByteRingProducer<S: RingStore> {
    store: S,
    head: u64,
    tail_cache: u64,
}

/// Consumer endpoint of a byte ring over the storage `S`.
pub struct ByteRingConsumer<S: RingStore> {
    store: S,
    tail: u64,
    head_cache: u64,
}

/// Create a byte ring of `cap` bytes (rounded up to a multiple of 4) on
/// platform `P`. Production code uses real atomics; the verify suite
/// instantiates the identical code on its model-checking platform.
pub fn byte_ring_on<P: Platform>(
    cap: usize,
) -> (
    ByteRingProducer<CellStore<P>>,
    ByteRingConsumer<CellStore<P>>,
) {
    let cap = round_up4(cap.max(REC_LEN_BYTES + 4));
    let cells = (0..cap).map(|_| P::Cell::<u8>::empty()).collect();
    let shared = Arc::new(Shared::<P> {
        head: P::AtomicU64::new(0),
        tail: P::AtomicU64::new(0),
        cells,
    });
    let store = |shared| CellStore {
        shared,
        scratch: Vec::new(),
    };
    (
        ByteRingProducer::new(store(Arc::clone(&shared))),
        ByteRingConsumer::new(store(shared)),
    )
}

impl<S: RingStore> ByteRingProducer<S> {
    /// Producer of a ring nothing has been published to yet (both
    /// frontiers in `store` are 0).
    pub fn new(store: S) -> Self {
        ByteRingProducer {
            store,
            head: 0,
            tail_cache: 0,
        }
    }

    /// Try to push one record; `false` means the ring is full (retry after
    /// the consumer drains). `body` must satisfy [`fits`] for this ring.
    pub fn try_push(&mut self, body: &[u8]) -> bool {
        self.try_push_parts(&[body])
    }

    /// [`try_push`](Self::try_push) of a record whose body is the
    /// concatenation of `parts`, each copied straight into the region (no
    /// staging buffer).
    pub fn try_push_parts(&mut self, parts: &[&[u8]]) -> bool {
        let cap = self.store.capacity();
        let body_len: usize = parts.iter().map(|p| p.len()).sum();
        let need = record_bytes(body_len);
        if need > cap / 2 {
            return false;
        }
        let grant = match plan_record(self.head, self.tail_cache, cap, need) {
            Some(g) => g,
            None => {
                // Stale view of the consumer: refresh and retry once. The
                // Acquire pairs with the consumer's Release tail store and
                // licenses us to overwrite the bytes it has consumed.
                self.tail_cache = self.store.tail().load(Acquire);
                match plan_record(self.head, self.tail_cache, cap, need) {
                    Some(g) => g,
                    None => return false,
                }
            }
        };
        // Safety: `plan_record` granted this endpoint exclusive ownership
        // of every range written below (each lies between the consumer
        // frontier and the edge of the region).
        unsafe {
            if grant.pad > 0 {
                let at = (self.head % cap as u64) as usize;
                self.store.write(at, &PAD_MARKER.to_le_bytes());
            }
            self.store
                .write(grant.offset, &(body_len as u32).to_le_bytes());
            let mut off = grant.offset + REC_LEN_BYTES;
            for p in parts {
                self.store.write(off, p);
                off += p.len();
            }
        }
        self.head += grant.advance;
        // Publish: every byte of the record happens-before the consumer's
        // Acquire load of the new head.
        self.store.head().store(self.head, Release);
        true
    }
}

impl<S: RingStore> ByteRingConsumer<S> {
    /// Consumer of a ring nothing has been consumed from yet.
    pub fn new(store: S) -> Self {
        ByteRingConsumer {
            store,
            tail: 0,
            head_cache: 0,
        }
    }

    /// Pop the next record body, or `None` if the ring is empty. (A
    /// [`RingCorrupt`] ring also reads as empty; in-process rings have no
    /// foreign writer that could corrupt one.)
    pub fn try_pop(&mut self) -> Option<Vec<u8>> {
        self.try_pop_with(|body| body.to_vec()).unwrap_or(None)
    }

    /// Pop the next record and hand its body to `f` as a slice of the
    /// region where the storage allows it (no staging); the record is
    /// consumed when `f` returns. `Ok(None)` means the ring is empty.
    pub fn try_pop_with<R>(
        &mut self,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<Option<R>, RingCorrupt> {
        let cap = self.store.capacity();
        loop {
            if self.head_cache == self.tail {
                // Pairs with the producer's Release head store: once we
                // observe the new head, the record bytes are visible.
                self.head_cache = self.store.head().load(Acquire);
                if self.head_cache == self.tail {
                    return Ok(None);
                }
            }
            let at = (self.tail % cap as u64) as usize;
            // Safety: `head != tail` and positions are 4-aligned, so the
            // length word at `at` is in bounds and published.
            let len_word = unsafe {
                self.store.read(at, REC_LEN_BYTES, |b| {
                    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
                })
            };
            let corrupt = RingCorrupt {
                offset: at,
                len_word,
            };
            // The length word is input from the other endpoint — another
            // process on a mapped ring. Trust nothing the producer above
            // could not have written: a frontier beyond the occupancy
            // invariant, a record past the cap/2 bound, the region edge or
            // the published bytes, a pad with no record behind it.
            let published = match self.head_cache.checked_sub(self.tail) {
                Some(n) if n <= cap as u64 => n as usize,
                _ => return Err(corrupt),
            };
            if len_word == PAD_MARKER {
                // Skip the unused edge; a record is guaranteed to follow
                // at offset 0 (the producer publishes pad + record as one
                // head advance).
                if at == 0 || cap - at >= published {
                    return Err(corrupt);
                }
                self.tail += (cap - at) as u64;
                self.store.tail().store(self.tail, Release);
                continue;
            }
            // (`len` is bounded first so the rounding cannot overflow.)
            let len = len_word as usize;
            if len > published {
                return Err(corrupt);
            }
            let need = record_bytes(len);
            if need > cap / 2 || need > cap - at || need > published {
                return Err(corrupt);
            }
            // Safety: the record lies inside the region (checked above) and
            // below the Acquire-observed head.
            let r = unsafe { self.store.read(at + REC_LEN_BYTES, len, f) };
            self.tail += need as u64;
            // License the producer to overwrite the consumed bytes.
            self.store.tail().store(self.tail, Release);
            return Ok(Some(r));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plat::StdPlatform;

    type Store = CellStore<StdPlatform>;

    fn ring(cap: usize) -> (ByteRingProducer<Store>, ByteRingConsumer<Store>) {
        byte_ring_on::<StdPlatform>(cap)
    }

    #[test]
    fn roundtrip_with_wrap_and_pad() {
        let (mut tx, mut rx) = ring(32);
        let mut next = 0u8;
        for round in 0..64 {
            // Varying sizes force both the aligned and pad paths.
            let len = [1usize, 5, 11, 12][round % 4];
            let body: Vec<u8> = (0..len)
                .map(|_| {
                    next = next.wrapping_add(1);
                    next
                })
                .collect();
            assert!(tx.try_push(&body), "push {round} must fit");
            assert_eq!(rx.try_pop().as_deref(), Some(&body[..]), "round {round}");
        }
        assert_eq!(rx.try_pop(), None);
    }

    #[test]
    fn full_ring_refuses_then_recovers() {
        let (mut tx, mut rx) = ring(32);
        let body = [7u8; 8];
        let mut pushed = 0;
        while tx.try_push(&body) {
            pushed += 1;
            assert!(pushed < 100, "ring never filled");
        }
        assert!(pushed >= 2);
        assert!(!tx.try_push(&body));
        assert_eq!(rx.try_pop().as_deref(), Some(&body[..]));
        assert!(tx.try_push(&body), "space freed by the pop");
        for _ in 0..pushed {
            assert_eq!(rx.try_pop().as_deref(), Some(&body[..]));
        }
        assert_eq!(rx.try_pop(), None);
    }

    #[test]
    fn oversized_record_is_refused() {
        let (mut tx, _rx) = ring(16);
        assert!(!tx.try_push(&[0u8; 64]));
    }

    #[test]
    fn cross_thread_stream_preserves_order() {
        let (mut tx, mut rx) = ring(256);
        let total = 10_000u32;
        std::thread::scope(|s| {
            s.spawn(move || {
                for i in 0..total {
                    let body = i.to_le_bytes();
                    while !tx.try_push(&body) {
                        std::hint::spin_loop();
                    }
                }
            });
            let mut expect = 0u32;
            while expect < total {
                if let Some(body) = rx.try_pop() {
                    assert_eq!(body, expect.to_le_bytes());
                    expect += 1;
                } else {
                    std::hint::spin_loop();
                }
            }
        });
    }

    #[test]
    fn hostile_length_words_are_typed_errors() {
        // (length word, published bytes): a record longer than cap/2, one
        // that claims more than was published, a pad at offset 0.
        for (len_word, head) in [(1 << 20, 8u64), (20, 8), (PAD_MARKER, 8)] {
            let (tx, mut rx) = ring(64);
            // Safety: nothing else touches the fresh ring.
            unsafe { tx.store.write(0, &u32::to_le_bytes(len_word)) };
            tx.store.head().store(head, Release);
            let want = RingCorrupt {
                offset: 0,
                len_word,
            };
            assert_eq!(rx.try_pop_with(|_| ()), Err(want));
            assert_eq!(rx.try_pop_with(|_| ()), Err(want), "stays parked");
            assert_eq!(rx.try_pop(), None);
        }
        // A frontier beyond the occupancy invariant.
        let (tx, mut rx) = ring(64);
        unsafe { tx.store.write(0, &4u32.to_le_bytes()) };
        tx.store.head().store(1 << 40, Release);
        assert!(rx.try_pop_with(|_| ()).is_err());
    }

    #[test]
    fn plan_record_pads_at_edge() {
        // head at 28 of a 32-byte ring: a 12-byte record needs a pad.
        let g = plan_record(28, 20, 32, 12).expect("fits");
        assert_eq!(g.pad, 4);
        assert_eq!(g.offset, 0);
        assert_eq!(g.advance, 16);
        // Same record with the ring too full must be refused.
        assert_eq!(plan_record(28, 8, 32, 12), None);
    }
}
