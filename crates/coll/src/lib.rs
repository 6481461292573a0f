//! Pure collective-algorithm layer for the dCUDA runtime.
//!
//! The paper stops at point-to-point `put_notify` / notification waiting;
//! this crate supplies everything *above* that layer that does not touch a
//! transport: validated collective plans ([`CollPlan`]), element-typed
//! reduction kernels over raw window bytes ([`reduce_into`]), the segment
//! and neighbour arithmetic of ring / binomial-tree / recursive-doubling
//! schedules, and a serial reference reduction ([`serial_allreduce`]) the
//! property tests compare every distributed schedule against.
//!
//! The executor that turns these schedules into notified RMA lives in
//! `dcuda-rt`'s `coll` module (`CollCtx`); keeping this crate free of
//! runtime types lets the runtime depend on it without a cycle and lets the
//! schedule math be unit-tested exhaustively without spawning threads.
//!
//! Chunking model: every collective is executed in chunks of
//! [`CollPlan::chunk_bytes`]. Within one schedule step all outgoing chunk
//! puts are posted before the first incoming chunk is awaited, so chunk
//! *k+1*'s `put_notify` traffic is in flight while chunk *k*'s local
//! reduction runs — the TP/DP-overlap trick modern training stacks use.

#![warn(missing_docs)]

use std::fmt;
use std::ops::Range;

/// Element type of a collective reduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dtype {
    /// Little-endian `u32` elements.
    U32,
    /// Little-endian `u64` elements.
    U64,
    /// Little-endian `i32` elements.
    I32,
    /// Little-endian IEEE-754 `f64` elements.
    F64,
}

impl Dtype {
    /// Element size in bytes.
    pub fn size(self) -> usize {
        match self {
            Dtype::U32 | Dtype::I32 => 4,
            Dtype::U64 | Dtype::F64 => 8,
        }
    }

    /// Canonical name.
    pub fn name(self) -> &'static str {
        match self {
            Dtype::U32 => "u32",
            Dtype::U64 => "u64",
            Dtype::I32 => "i32",
            Dtype::F64 => "f64",
        }
    }
}

/// Combining operator of a collective reduction.
///
/// Integer `Sum` wraps, so every association order produces the same bytes;
/// `F64` results are deterministic for a fixed algorithm and chunking but
/// may differ *between* algorithms (association order differs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceOp {
    /// Elementwise (wrapping) addition.
    Sum,
    /// Elementwise minimum.
    Min,
    /// Elementwise maximum.
    Max,
}

impl ReduceOp {
    /// Canonical name.
    pub fn name(self) -> &'static str {
        match self {
            ReduceOp::Sum => "sum",
            ReduceOp::Min => "min",
            ReduceOp::Max => "max",
        }
    }
}

/// Collective schedule family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CollAlgo {
    /// Ring reduce-scatter + ring all-gather (bandwidth-optimal, 2(N-1)
    /// steps of 1/N-sized segments).
    Ring,
    /// Binomial-tree reduce-to-root + binomial broadcast (latency-optimal
    /// for small buffers, works for any world size).
    Tree,
    /// Recursive doubling over the largest power-of-two sub-world with a
    /// pre/post fold for the remainder ranks.
    RecursiveDoubling,
}

impl CollAlgo {
    /// Canonical name (`ring`, `tree`, `rdbl`).
    pub fn name(self) -> &'static str {
        match self {
            CollAlgo::Ring => "ring",
            CollAlgo::Tree => "tree",
            CollAlgo::RecursiveDoubling => "rdbl",
        }
    }

    /// Parse a canonical name.
    pub fn parse(name: &str) -> Result<CollAlgo, CollError> {
        match name {
            "ring" => Ok(CollAlgo::Ring),
            "tree" => Ok(CollAlgo::Tree),
            "rdbl" => Ok(CollAlgo::RecursiveDoubling),
            _ => Err(CollError::UnknownAlgo),
        }
    }
}

/// Errors of collective plan validation and schedule execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollError {
    /// `chunk_bytes` of zero.
    ZeroChunk,
    /// `chunk_bytes` not a multiple of the element size.
    ChunkMisaligned {
        /// The offending chunk size.
        chunk_bytes: usize,
        /// Element size of the plan's dtype.
        elem: usize,
    },
    /// A buffer region whose length is not a multiple of the element size.
    BufferMisaligned {
        /// The offending region length.
        len: usize,
        /// Element size of the plan's dtype.
        elem: usize,
    },
    /// Reduction inputs of different lengths.
    LengthMismatch {
        /// Accumulator length.
        acc: usize,
        /// Source length.
        src: usize,
    },
    /// The runtime's collective scratch window is too small for this
    /// schedule (raise it via the cluster config).
    ScratchTooSmall {
        /// Bytes the schedule needs.
        need: usize,
        /// Bytes the scratch window has.
        have: usize,
    },
    /// A broadcast root outside the world.
    RootOutOfRange {
        /// The offending root.
        root: u32,
        /// World size.
        world: u32,
    },
    /// An algorithm name that is not `ring`, `tree` or `rdbl`.
    UnknownAlgo,
}

impl fmt::Display for CollError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CollError::ZeroChunk => write!(f, "chunk_bytes must be positive"),
            CollError::ChunkMisaligned { chunk_bytes, elem } => write!(
                f,
                "chunk_bytes {chunk_bytes} not a multiple of the {elem}-byte element"
            ),
            CollError::BufferMisaligned { len, elem } => write!(
                f,
                "buffer of {len} bytes not a multiple of the {elem}-byte element"
            ),
            CollError::LengthMismatch { acc, src } => {
                write!(f, "reduce length mismatch: acc {acc} bytes, src {src} bytes")
            }
            CollError::ScratchTooSmall { need, have } => write!(
                f,
                "collective scratch of {have} bytes too small (schedule needs {need}; raise coll_scratch in the cluster config)"
            ),
            CollError::RootOutOfRange { root, world } => {
                write!(f, "broadcast root {root} outside the world of {world} ranks")
            }
            CollError::UnknownAlgo => {
                write!(f, "unknown collective algorithm (expected ring, tree or rdbl)")
            }
        }
    }
}

impl std::error::Error for CollError {}

/// A validated collective execution plan: schedule family, chunk
/// granularity, combining operator and element type.
///
/// Construct via [`CollPlan::builder`]; a `CollPlan` value is proof the
/// combination passed validation (positive, element-aligned chunking).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollPlan {
    algo: CollAlgo,
    chunk_bytes: usize,
    op: ReduceOp,
    dtype: Dtype,
}

impl CollPlan {
    /// Start building a plan (defaults: ring, 4 KiB chunks, `Sum` over
    /// `u64`).
    pub fn builder() -> CollPlanBuilder {
        CollPlanBuilder {
            algo: CollAlgo::Ring,
            chunk_bytes: 4096,
            op: ReduceOp::Sum,
            dtype: Dtype::U64,
        }
    }

    /// Schedule family.
    pub fn algo(&self) -> CollAlgo {
        self.algo
    }

    /// Chunk granularity in bytes.
    pub fn chunk_bytes(&self) -> usize {
        self.chunk_bytes
    }

    /// Combining operator.
    pub fn op(&self) -> ReduceOp {
        self.op
    }

    /// Element type.
    pub fn dtype(&self) -> Dtype {
        self.dtype
    }
}

/// Validating builder for [`CollPlan`].
#[derive(Debug, Clone, Copy)]
pub struct CollPlanBuilder {
    algo: CollAlgo,
    chunk_bytes: usize,
    op: ReduceOp,
    dtype: Dtype,
}

impl CollPlanBuilder {
    /// Schedule family.
    pub fn algo(mut self, algo: CollAlgo) -> Self {
        self.algo = algo;
        self
    }

    /// Chunk granularity in bytes (must be a positive multiple of the
    /// element size).
    pub fn chunk_bytes(mut self, bytes: usize) -> Self {
        self.chunk_bytes = bytes;
        self
    }

    /// Combining operator.
    pub fn op(mut self, op: ReduceOp) -> Self {
        self.op = op;
        self
    }

    /// Element type.
    pub fn dtype(mut self, dtype: Dtype) -> Self {
        self.dtype = dtype;
        self
    }

    /// Validate and produce the plan.
    pub fn build(self) -> Result<CollPlan, CollError> {
        if self.chunk_bytes == 0 {
            return Err(CollError::ZeroChunk);
        }
        let elem = self.dtype.size();
        if !self.chunk_bytes.is_multiple_of(elem) {
            return Err(CollError::ChunkMisaligned {
                chunk_bytes: self.chunk_bytes,
                elem,
            });
        }
        Ok(CollPlan {
            algo: self.algo,
            chunk_bytes: self.chunk_bytes,
            op: self.op,
            dtype: self.dtype,
        })
    }
}

/// One typed elementwise pass: `f` runs once per element pair, so the
/// operator is chosen once per call rather than once per element.
macro_rules! reduce_typed {
    ($acc:expr, $src:expr, $op:expr, $ty:ty, $size:literal, $sum:expr) => {{
        fn apply(acc: &mut [u8], src: &[u8], f: impl Fn($ty, $ty) -> $ty) {
            for (a, s) in acc.chunks_exact_mut($size).zip(src.chunks_exact($size)) {
                let av = <$ty>::from_le_bytes(a.try_into().unwrap());
                let sv = <$ty>::from_le_bytes(s.try_into().unwrap());
                a.copy_from_slice(&f(av, sv).to_le_bytes());
            }
        }
        match $op {
            ReduceOp::Sum => apply($acc, $src, $sum),
            ReduceOp::Min => apply($acc, $src, <$ty>::min),
            ReduceOp::Max => apply($acc, $src, <$ty>::max),
        }
    }};
}

/// Elementwise reduction of `src` into `acc` (`acc[i] = op(acc[i], src[i])`)
/// over little-endian elements of `dtype`. Both slices must have equal,
/// element-aligned lengths.
pub fn reduce_into(
    acc: &mut [u8],
    src: &[u8],
    op: ReduceOp,
    dtype: Dtype,
) -> Result<(), CollError> {
    if acc.len() != src.len() {
        return Err(CollError::LengthMismatch {
            acc: acc.len(),
            src: src.len(),
        });
    }
    let elem = dtype.size();
    if !acc.len().is_multiple_of(elem) {
        return Err(CollError::BufferMisaligned {
            len: acc.len(),
            elem,
        });
    }
    match dtype {
        Dtype::U32 => reduce_typed!(acc, src, op, u32, 4, u32::wrapping_add),
        Dtype::U64 => reduce_typed!(acc, src, op, u64, 8, u64::wrapping_add),
        Dtype::I32 => reduce_typed!(acc, src, op, i32, 4, i32::wrapping_add),
        Dtype::F64 => reduce_typed!(acc, src, op, f64, 8, |a: f64, b: f64| a + b),
    }
    Ok(())
}

/// Serial reference allreduce: fold every rank's buffer in rank order.
///
/// For integer operators (wrapping sum, min, max) the result is independent
/// of association order, so every distributed schedule must match it
/// bitwise; for `F64` sums it is *a* deterministic order, not necessarily
/// the schedule's.
pub fn serial_allreduce(
    inputs: &[&[u8]],
    op: ReduceOp,
    dtype: Dtype,
) -> Result<Vec<u8>, CollError> {
    let first = inputs
        .first()
        .ok_or(CollError::LengthMismatch { acc: 0, src: 0 })?;
    let mut acc = first.to_vec();
    for src in &inputs[1..] {
        reduce_into(&mut acc, src, op, dtype)?;
    }
    Ok(acc)
}

/// Byte range (relative to the buffer start) of segment `seg` when a
/// `len`-byte buffer of `elem`-byte elements is partitioned into `world`
/// contiguous segments with sizes differing by at most one element.
pub fn segment_range(len: usize, elem: usize, world: u32, seg: u32) -> Range<usize> {
    debug_assert!(
        len.is_multiple_of(elem),
        "misaligned buffer reached segment_range"
    );
    let n = len / elem;
    let world = world as usize;
    let seg = seg as usize;
    let base = n / world;
    let rem = n % world;
    let start = seg * base + seg.min(rem);
    let size = base + usize::from(seg < rem);
    (start * elem)..((start + size) * elem)
}

/// Largest segment size in bytes under [`segment_range`] partitioning.
pub fn max_segment_bytes(len: usize, elem: usize, world: u32) -> usize {
    let n = len / elem;
    let world = world as usize;
    (n / world + usize::from(!n.is_multiple_of(world))) * elem
}

/// Split `len` bytes into `(offset, len)` chunk spans of at most
/// `chunk_bytes` each, in offset order. Empty for `len == 0`.
pub fn chunk_spans(len: usize, chunk_bytes: usize) -> Vec<(usize, usize)> {
    debug_assert!(chunk_bytes > 0);
    let mut spans = Vec::with_capacity(len.div_ceil(chunk_bytes.max(1)));
    let mut off = 0;
    while off < len {
        let c = chunk_bytes.min(len - off);
        spans.push((off, c));
        off += c;
    }
    spans
}

/// Right neighbour on the rank ring.
pub fn ring_right(rank: u32, world: u32) -> u32 {
    (rank + 1) % world
}

/// Left neighbour on the rank ring.
pub fn ring_left(rank: u32, world: u32) -> u32 {
    (rank + world - 1) % world
}

/// `ceil(log2(n))` for `n >= 1` (0 for `n == 1`).
pub fn ceil_log2(n: u32) -> u32 {
    debug_assert!(n >= 1);
    32 - (n - 1).leading_zeros()
}

/// Largest power of two `<= n` for `n >= 1`.
pub fn pow2_floor(n: u32) -> u32 {
    debug_assert!(n >= 1);
    1 << (31 - n.leading_zeros())
}

/// Scratch bytes the runtime executor needs for an allreduce of a `len`-byte
/// buffer under `algo`: ring schedules land each step's incoming segment in
/// its own slot, tree/recursive-doubling land each round's full incoming
/// buffer in its own slot (slots stay disjoint so a fast peer running ahead
/// can never clobber bytes still being reduced).
pub fn allreduce_scratch_bytes(algo: CollAlgo, len: usize, elem: usize, world: u32) -> usize {
    if world <= 1 {
        return 0;
    }
    match algo {
        CollAlgo::Ring => (world as usize - 1) * max_segment_bytes(len, elem, world),
        CollAlgo::Tree => ceil_log2(world) as usize * len,
        CollAlgo::RecursiveDoubling => (ceil_log2(pow2_floor(world)) as usize + 1) * len,
    }
}

/// Scratch bytes for a ring reduce-scatter of a `len`-byte buffer.
pub fn reduce_scatter_scratch_bytes(len: usize, elem: usize, world: u32) -> usize {
    if world <= 1 {
        return 0;
    }
    (world as usize - 1) * max_segment_bytes(len, elem, world)
}

/// One step of a binomial-tree reduction round for `rank` (any world size):
/// at round `k` (partner distance `1 << k`) a rank either sends its buffer
/// to its parent and leaves the reduce phase, receives from a child, or
/// idles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeStep {
    /// Send the (partially reduced) buffer to this parent and stop reducing.
    SendTo(u32),
    /// Receive and reduce a child's buffer.
    RecvFrom(u32),
    /// No partner this round.
    Idle,
}

/// The binomial reduce-phase role of `rank` at round `k` (virtual rank
/// space; rotate by the root before calling for rooted trees).
pub fn tree_reduce_step(rank: u32, world: u32, k: u32) -> TreeStep {
    let bit = 1u32 << k;
    let span = bit << 1;
    if rank % span == bit {
        TreeStep::SendTo(rank - bit)
    } else if rank.is_multiple_of(span) && rank + bit < world {
        TreeStep::RecvFrom(rank + bit)
    } else {
        TreeStep::Idle
    }
}

/// The round at which virtual rank `vr != 0` receives its broadcast data
/// (the index of its lowest set bit), and its parent.
pub fn bcast_parent(vr: u32) -> (u32, u32) {
    debug_assert!(vr != 0);
    let k = vr.trailing_zeros();
    (k, vr - (1 << k))
}

/// The children of virtual rank `vr` in a binomial broadcast over `world`
/// ranks, in forwarding order (largest stride first).
pub fn bcast_children(vr: u32, world: u32) -> Vec<u32> {
    let recv_round = if vr == 0 {
        ceil_log2(world)
    } else {
        vr.trailing_zeros()
    };
    (0..recv_round)
        .rev()
        .map(|k| vr + (1 << k))
        .filter(|&c| c < world)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_builder_validates() {
        let p = CollPlan::builder()
            .algo(CollAlgo::Tree)
            .chunk_bytes(64)
            .op(ReduceOp::Min)
            .dtype(Dtype::I32)
            .build()
            .unwrap();
        assert_eq!(p.algo(), CollAlgo::Tree);
        assert_eq!(p.chunk_bytes(), 64);
        assert_eq!(p.op(), ReduceOp::Min);
        assert_eq!(p.dtype(), Dtype::I32);
        assert_eq!(
            CollPlan::builder().chunk_bytes(0).build(),
            Err(CollError::ZeroChunk)
        );
        assert_eq!(
            CollPlan::builder()
                .chunk_bytes(12)
                .dtype(Dtype::U64)
                .build(),
            Err(CollError::ChunkMisaligned {
                chunk_bytes: 12,
                elem: 8
            })
        );
    }

    #[test]
    fn algo_names_roundtrip() {
        for a in [CollAlgo::Ring, CollAlgo::Tree, CollAlgo::RecursiveDoubling] {
            assert_eq!(CollAlgo::parse(a.name()), Ok(a));
        }
        assert_eq!(CollAlgo::parse("bogus"), Err(CollError::UnknownAlgo));
    }

    #[test]
    fn reduce_kernels_per_dtype() {
        let mut acc = [3u32.to_le_bytes(), 7u32.to_le_bytes()].concat();
        let src = [5u32.to_le_bytes(), 2u32.to_le_bytes()].concat();
        reduce_into(&mut acc, &src, ReduceOp::Sum, Dtype::U32).unwrap();
        assert_eq!(acc, [8u32.to_le_bytes(), 9u32.to_le_bytes()].concat());
        reduce_into(&mut acc, &src, ReduceOp::Min, Dtype::U32).unwrap();
        assert_eq!(acc, [5u32.to_le_bytes(), 2u32.to_le_bytes()].concat());

        let mut acc = (-5i32).to_le_bytes().to_vec();
        reduce_into(&mut acc, &3i32.to_le_bytes(), ReduceOp::Max, Dtype::I32).unwrap();
        assert_eq!(acc, 3i32.to_le_bytes());

        let mut acc = u64::MAX.to_le_bytes().to_vec();
        reduce_into(&mut acc, &2u64.to_le_bytes(), ReduceOp::Sum, Dtype::U64).unwrap();
        assert_eq!(acc, 1u64.to_le_bytes(), "u64 sum wraps");

        let mut acc = 1.5f64.to_le_bytes().to_vec();
        reduce_into(&mut acc, &0.25f64.to_le_bytes(), ReduceOp::Sum, Dtype::F64).unwrap();
        assert_eq!(acc, 1.75f64.to_le_bytes());
    }

    /// The kernel as a per-element specification: the operator is matched
    /// for every element.
    fn reduce_reference(acc: &[u8], src: &[u8], op: ReduceOp, dtype: Dtype) -> Vec<u8> {
        macro_rules! elem {
            ($a:expr, $s:expr, $ty:ty, $sum:expr) => {{
                let a = <$ty>::from_le_bytes($a.try_into().unwrap());
                let s = <$ty>::from_le_bytes($s.try_into().unwrap());
                let r: $ty = match op {
                    ReduceOp::Sum => $sum(a, s),
                    ReduceOp::Min => a.min(s),
                    ReduceOp::Max => a.max(s),
                };
                r.to_le_bytes().to_vec()
            }};
        }
        let n = dtype.size();
        acc.chunks_exact(n)
            .zip(src.chunks_exact(n))
            .flat_map(|(a, s)| match dtype {
                Dtype::U32 => elem!(a, s, u32, u32::wrapping_add),
                Dtype::U64 => elem!(a, s, u64, u64::wrapping_add),
                Dtype::I32 => elem!(a, s, i32, i32::wrapping_add),
                Dtype::F64 => elem!(a, s, f64, |a: f64, b: f64| a + b),
            })
            .collect()
    }

    #[test]
    fn reduce_kernel_matches_per_element_reference() {
        use dcuda_des::check::{forall, Gen};
        const SPECIALS: [f64; 8] = [
            f64::NAN,
            -f64::NAN,
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE / 4.0,
            f64::MAX,
        ];
        let element = |g: &mut Gen, dtype: Dtype| -> Vec<u8> {
            match dtype {
                Dtype::F64 => match g.usize_below(3) {
                    0 => g.choose(&SPECIALS).to_le_bytes().to_vec(),
                    1 => g.f64_in(-1e6, 1e6).to_le_bytes().to_vec(),
                    _ => g.u64().to_le_bytes().to_vec(),
                },
                _ => g.u64().to_le_bytes()[..dtype.size()].to_vec(),
            }
        };
        forall("reduce_kernel_matches_per_element_reference", 512, |g| {
            let dtype = *g.choose(&[Dtype::U32, Dtype::U64, Dtype::I32, Dtype::F64]);
            let op = *g.choose(&[ReduceOp::Sum, ReduceOp::Min, ReduceOp::Max]);
            let len = g.usize_below(64);
            let mut acc: Vec<u8> = (0..len).flat_map(|_| element(g, dtype)).collect();
            let src: Vec<u8> = (0..len).flat_map(|_| element(g, dtype)).collect();
            let want = reduce_reference(&acc, &src, op, dtype);
            reduce_into(&mut acc, &src, op, dtype).unwrap();
            assert_eq!(acc, want, "{op:?} over {dtype:?}");
        });
    }

    #[test]
    fn reduce_rejects_bad_shapes() {
        let mut acc = vec![0u8; 8];
        assert!(matches!(
            reduce_into(&mut acc, &[0u8; 4], ReduceOp::Sum, Dtype::U64),
            Err(CollError::LengthMismatch { .. })
        ));
        let mut odd = vec![0u8; 6];
        assert!(matches!(
            reduce_into(&mut odd, &[0u8; 6], ReduceOp::Sum, Dtype::U64),
            Err(CollError::BufferMisaligned { .. })
        ));
    }

    #[test]
    fn serial_reference_is_order_free_for_integers() {
        let a: Vec<u8> = (0..4u32).flat_map(|v| v.to_le_bytes()).collect();
        let b: Vec<u8> = (10..14u32).flat_map(|v| v.to_le_bytes()).collect();
        let c: Vec<u8> = (100..104u32).flat_map(|v| v.to_le_bytes()).collect();
        let abc = serial_allreduce(&[&a, &b, &c], ReduceOp::Sum, Dtype::U32).unwrap();
        let cba = serial_allreduce(&[&c, &b, &a], ReduceOp::Sum, Dtype::U32).unwrap();
        assert_eq!(abc, cba);
    }

    #[test]
    fn segments_cover_exactly() {
        for (len, elem, world) in [(64, 8, 4u32), (72, 8, 5), (24, 4, 7), (8, 8, 4), (0, 8, 3)] {
            let mut covered = 0;
            for seg in 0..world {
                let r = segment_range(len, elem, world, seg);
                assert_eq!(r.start, covered, "segments must be contiguous");
                assert!(r.len().is_multiple_of(elem));
                assert!(r.len() <= max_segment_bytes(len, elem, world));
                covered = r.end;
            }
            assert_eq!(covered, len, "segments must cover the buffer");
        }
    }

    #[test]
    fn chunk_spans_cover() {
        assert_eq!(chunk_spans(0, 64), vec![]);
        assert_eq!(chunk_spans(100, 64), vec![(0, 64), (64, 36)]);
        assert_eq!(chunk_spans(64, 64), vec![(0, 64)]);
        let spans = chunk_spans(1000, 8);
        assert_eq!(spans.iter().map(|&(_, l)| l).sum::<usize>(), 1000);
    }

    #[test]
    fn log_helpers() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(8), 3);
        assert_eq!(pow2_floor(1), 1);
        assert_eq!(pow2_floor(6), 4);
        assert_eq!(pow2_floor(8), 8);
    }

    #[test]
    fn tree_schedule_reduces_to_root() {
        // Simulate the message pattern: every rank's value must reach rank 0
        // exactly once, for both power-of-two and ragged worlds.
        for world in [1u32, 2, 3, 4, 6, 7, 8, 13] {
            let mut holds: Vec<Vec<u32>> = (0..world).map(|r| vec![r]).collect();
            let mut active: Vec<bool> = vec![true; world as usize];
            for k in 0..ceil_log2(world.max(2)) {
                for r in 0..world {
                    if !active[r as usize] {
                        continue;
                    }
                    if let TreeStep::SendTo(parent) = tree_reduce_step(r, world, k) {
                        let vals = std::mem::take(&mut holds[r as usize]);
                        holds[parent as usize].extend(vals);
                        active[r as usize] = false;
                    }
                }
            }
            let mut at_root = holds[0].clone();
            at_root.sort_unstable();
            let expect: Vec<u32> = (0..world).collect();
            assert_eq!(at_root, expect, "world {world}");
        }
    }

    #[test]
    fn bcast_tree_reaches_everyone() {
        for world in [1u32, 2, 3, 5, 8, 13] {
            let mut reached = vec![false; world as usize];
            reached[0] = true;
            // Process in parent-before-child order: virtual rank order works
            // because every parent is numerically smaller.
            for vr in 0..world {
                if !reached[vr as usize] {
                    continue;
                }
                for c in bcast_children(vr, world) {
                    assert!(!reached[c as usize], "world {world}: {c} reached twice");
                    reached[c as usize] = true;
                }
            }
            assert!(reached.iter().all(|&r| r), "world {world}: {reached:?}");
            for vr in 1..world {
                let (_, parent) = bcast_parent(vr);
                assert!(bcast_children(parent, world).contains(&vr));
            }
        }
    }

    #[test]
    fn scratch_sizing() {
        assert_eq!(allreduce_scratch_bytes(CollAlgo::Ring, 64, 8, 1), 0);
        assert_eq!(allreduce_scratch_bytes(CollAlgo::Ring, 64, 8, 4), 3 * 16);
        assert_eq!(allreduce_scratch_bytes(CollAlgo::Tree, 64, 8, 8), 3 * 64);
        assert_eq!(
            allreduce_scratch_bytes(CollAlgo::RecursiveDoubling, 64, 8, 6),
            (2 + 1) * 64
        );
        assert_eq!(reduce_scatter_scratch_bytes(64, 8, 4), 3 * 16);
    }

    #[test]
    fn errors_render() {
        assert!(CollError::ScratchTooSmall { need: 10, have: 5 }
            .to_string()
            .contains("coll_scratch"));
        assert!(CollError::ChunkMisaligned {
            chunk_bytes: 3,
            elem: 8
        }
        .to_string()
        .contains("multiple"));
    }
}
