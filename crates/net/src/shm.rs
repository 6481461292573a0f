//! Shared-memory same-host plane: memory-mapped SPSC byte rings per peer
//! pair.
//!
//! When the launch handshake detects two workers on the same host, their
//! connection skips the socket mesh entirely: the lower-indexed process
//! creates a file holding two [`dcuda_queues::bytering`] regions (one per
//! direction), both sides `mmap` it `MAP_SHARED`, and messages move as
//! single `memcpy`s through the mapping. The ring protocol — the pad/wrap
//! offset math and the Release/Acquire publication pairing — is not
//! restated here: this module only supplies the mapping as the
//! [`RingStore`] of `dcuda-queues`' producer and consumer, the very code
//! the `dcuda-verify` suite model-checks. The attacher unlinks the file as
//! soon as both sides hold their mappings, so a killed world leaves no ring
//! behind.
//!
//! # Copy discipline
//!
//! * *Eager* messages (encoding ≤ [`EAGER_MAX`]) are written **directly into
//!   the ring** as one record: header bytes + payload bytes, one payload
//!   copy on the way in, one on the way out.
//! * *Large-class* messages (longer, counted in `rndz_msgs`) are chunked: a `JumboFirst`
//!   record carries the message header, then `JumboMore` records carry the
//!   payload window-to-window — each payload byte crosses the mapping with
//!   a single `memcpy` per direction, reassembled straight into the final
//!   delivery buffer.
//!
//! # Faults and ordering
//!
//! Records carry a dense per-direction sequence number and run the same
//! exactly-once discipline as the socket plane (`crate::link`): a
//! `NetFaults` drop withholds a message for a later retransmission pass, a
//! duplicate writes the record (or whole jumbo chain) twice; the receiver
//! releases messages strictly in sequence and suppresses repeats.
//!
//! # Liveness
//!
//! Both processes publish their PID in the mapping header; `peer_alive`
//! probes the peer with `kill(pid, 0)` so a crashed neighbor surfaces as
//! `peer_gone` exactly like a socket EOF.

use crate::link::{LinkRx, LinkTx, NetFaults};
use crate::socket::{lock, AtomicStats};
use crate::transport::NetError;
use crate::wire::{is_eager, MsgHeader, WireMsg, EAGER_MAX, SHM_RING_BYTES};
use dcuda_queues::bytering::{fits, ByteRingConsumer, ByteRingProducer, RingStore};
use std::collections::VecDeque;
use std::fs::OpenOptions;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Payload bytes per `JumboMore` record.
const JUMBO_CHUNK: usize = 64 << 10;

/// Mapping header magic, written last by the creator (a ready flag).
const SHM_MAGIC: u64 = 0x6443_5348_4d31_0001; // "dCSHM1" + version

const FILE_HDR: usize = 64;
const RING_HDR: usize = 128; // head at +0, tail at +64 (cache-line apart)

const OFF_MAGIC: usize = 0;
const OFF_PID_LO: usize = 8;
const OFF_PID_HI: usize = 16;
const OFF_CAP: usize = 24;

/// Record kinds inside a ring record body.
const KIND_WHOLE: u8 = 0;
const KIND_JUMBO_FIRST: u8 = 1;
const KIND_JUMBO_MORE: u8 = 2;

/// Bytes of the shm message header inside every record body:
/// `[u8 kind][u32 dst_device][u64 seq]`.
const REC_MSG_HDR: usize = 13;

// Every record this module writes (a whole eager message, a jumbo header, a
// jumbo chunk) must satisfy the ring's cap/2 placement bound.
const _: () = assert!(
    SHM_RING_BYTES.is_multiple_of(4)
        && fits(SHM_RING_BYTES, REC_MSG_HDR + JUMBO_CHUNK)
        && fits(SHM_RING_BYTES, REC_MSG_HDR + EAGER_MAX)
);

const FILE_LEN: usize = FILE_HDR + 2 * (RING_HDR + SHM_RING_BYTES);

fn ring_base(which: usize) -> usize {
    FILE_HDR + which * (RING_HDR + SHM_RING_BYTES)
}

// --- raw mapping ---------------------------------------------------------

#[cfg(unix)]
mod sys {
    use std::os::raw::{c_int, c_void};
    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
        pub fn kill(pid: i32, sig: c_int) -> c_int;
    }
    pub const PROT_READ: c_int = 0x1;
    pub const PROT_WRITE: c_int = 0x2;
    pub const MAP_SHARED: c_int = 0x01;
}

/// Is the shared-memory plane available on this platform?
pub fn shm_supported() -> bool {
    cfg!(unix)
}

/// A `MAP_SHARED` view of the pair file.
struct Mapping {
    ptr: *mut u8,
    len: usize,
}

// Safety: the mapping is plain shared memory; all cross-thread /
// cross-process synchronization goes through the atomics embedded in it.
unsafe impl Send for Mapping {}
unsafe impl Sync for Mapping {}

impl Mapping {
    #[cfg(unix)]
    fn of_file(file: &std::fs::File, len: usize) -> std::io::Result<Mapping> {
        use std::os::unix::io::AsRawFd;
        // Safety: mapping a file we hold open, with a length we just sized
        // it to; the pointer is checked for MAP_FAILED below.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ | sys::PROT_WRITE,
                sys::MAP_SHARED,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(Mapping {
            ptr: ptr as *mut u8,
            len,
        })
    }

    #[cfg(not(unix))]
    fn of_file(_file: &std::fs::File, _len: usize) -> std::io::Result<Mapping> {
        Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "shared-memory plane requires a unix mmap",
        ))
    }

    /// The `AtomicU64` embedded at byte offset `off` (must be 8-aligned
    /// and in bounds — all offsets here are 64-byte multiples).
    fn atomic(&self, off: usize) -> &AtomicU64 {
        debug_assert!(off + 8 <= self.len && off.is_multiple_of(8));
        // Safety: in-bounds, aligned, and AtomicU64 tolerates concurrent
        // access from the peer process by construction.
        unsafe { &*(self.ptr.add(off) as *const AtomicU64) }
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        #[cfg(unix)]
        // Safety: unmapping exactly the region mmap returned.
        unsafe {
            sys::munmap(self.ptr as *mut std::os::raw::c_void, self.len);
        }
    }
}

// --- the mapping as ring storage ----------------------------------------

/// One direction ring inside the mapping: head at `base`, tail a cache line
/// later, [`SHM_RING_BYTES`] region bytes from `base + RING_HDR`.
struct MappedRing {
    map: Arc<Mapping>,
    base: usize,
}

impl RingStore for MappedRing {
    type Atomic = AtomicU64;

    fn capacity(&self) -> usize {
        SHM_RING_BYTES
    }

    fn head(&self) -> &AtomicU64 {
        self.map.atomic(self.base)
    }

    fn tail(&self) -> &AtomicU64 {
        self.map.atomic(self.base + 64)
    }

    unsafe fn write(&self, off: usize, src: &[u8]) {
        debug_assert!(off + src.len() <= SHM_RING_BYTES);
        // SAFETY: the ring lies inside the mapping and the caller stays
        // inside the ring; exclusivity per its SPSC grant.
        unsafe {
            let dst = self.map.ptr.add(self.base + RING_HDR + off);
            std::ptr::copy_nonoverlapping(src.as_ptr(), dst, src.len());
        }
    }

    unsafe fn read<R>(&mut self, off: usize, len: usize, f: impl FnOnce(&[u8]) -> R) -> R {
        debug_assert!(off + len <= SHM_RING_BYTES);
        // SAFETY: in bounds as above; the producer will not overwrite the
        // range until the consumer publishes a tail beyond it, which the
        // caller does only after `f` returns.
        let body = unsafe {
            std::slice::from_raw_parts(self.map.ptr.add(self.base + RING_HDR + off), len)
        };
        f(body)
    }
}

// --- send side -----------------------------------------------------------

struct OutMsg {
    seq: u64,
    dst_device: u32,
    /// Encoded message header ([`WireMsg::into_parts`]).
    head: Vec<u8>,
    /// Payload bytes; never re-staged — each byte is memcpy'd once, into
    /// the ring.
    data: Vec<u8>,
    /// Eager: header and payload travel as one record. Otherwise a jumbo
    /// chain: a header record, then the payload in chunks.
    whole: bool,
    /// Records of the current transmission already in the ring.
    written: usize,
    /// Fault-injected duplicate transmissions still owed.
    extra_copies: u8,
}

impl OutMsg {
    /// Kind and body parts of the `k`-th record of this message's chain;
    /// `None` past its end.
    fn record(&self, k: usize) -> Option<(u8, [&[u8]; 2])> {
        match (self.whole, k) {
            (true, 0) => Some((KIND_WHOLE, [&self.head, &self.data])),
            (true, _) => None,
            (false, 0) => Some((KIND_JUMBO_FIRST, [&self.head, &[]])),
            (false, k) => {
                let chunk = self.data.chunks(JUMBO_CHUNK).nth(k - 1)?;
                Some((KIND_JUMBO_MORE, [chunk, &[]]))
            }
        }
    }
}

struct ShmTx {
    prod: ByteRingProducer<MappedRing>,
    /// Sequencing, fault rolls and the retransmit park.
    link: LinkTx<OutMsg>,
    /// Messages waiting for ring space, in order.
    queue: VecDeque<OutMsg>,
}

impl ShmTx {
    /// Drive the send backlog (retransmissions + queued messages). Returns
    /// true if any record hit the ring.
    fn service(&mut self, stats: &AtomicStats) -> bool {
        let mut moved = false;
        // Retransmissions re-enter the queue behind fresher sequence
        // numbers, exercising the receiver's reorder path.
        let due = self.link.due_retransmits(stats);
        self.queue.extend(due);
        while let Some(front) = self.queue.front_mut() {
            let (complete, wrote) = Self::write_step(&mut self.prod, front, stats);
            moved |= wrote;
            if !complete {
                break;
            }
            if front.extra_copies > 0 {
                // Fault-injected duplicate: replay the whole record (or
                // jumbo chain) under the same sequence number.
                front.extra_copies -= 1;
                front.written = 0;
            } else {
                self.queue.pop_front();
            }
        }
        moved
    }

    /// Push as many of `m`'s remaining records as fit; returns
    /// (complete, wrote_anything).
    fn write_step(
        prod: &mut ByteRingProducer<MappedRing>,
        m: &mut OutMsg,
        stats: &AtomicStats,
    ) -> (bool, bool) {
        let before = m.written;
        while let Some((kind, [a, b])) = m.record(m.written) {
            let hdr = rec_msg_hdr(kind, m.dst_device, m.seq);
            if !prod.try_push_parts(&[&hdr, a, b]) {
                return (false, m.written > before);
            }
            let bytes = (REC_MSG_HDR + a.len() + b.len()) as u64;
            stats.frames_sent.fetch_add(1, Ordering::Relaxed);
            stats.bytes_sent.fetch_add(bytes, Ordering::Relaxed);
            stats.shm_bytes_sent.fetch_add(bytes, Ordering::Relaxed);
            m.written += 1;
        }
        if !m.data.is_empty() {
            // The whole payload crossed into the mapping exactly once.
            stats.copies_tx.fetch_add(1, Ordering::Relaxed);
        }
        (true, true)
    }
}

// --- receive side --------------------------------------------------------

struct JumboRx {
    seq: u64,
    dst_device: u32,
    head: MsgHeader,
    data: Vec<u8>,
}

struct ShmRx {
    cons: ByteRingConsumer<MappedRing>,
    /// Release frontier, reorder buffer and duplicate verdict; a message
    /// is slotted with its destination device.
    link: LinkRx<(u32, WireMsg)>,
    jumbo: Option<JumboRx>,
}

// --- the connection ------------------------------------------------------

/// One same-host peer link over a shared mapping.
pub(crate) struct ShmConn {
    peer_proc: u32,
    map: Arc<Mapping>,
    tx: Mutex<ShmTx>,
    rx: Mutex<ShmRx>,
    peer_pid_off: usize,
    liveness: Mutex<(Instant, bool)>,
}

impl ShmConn {
    /// Create (lower index) or attach (higher index) the `my_proc`–
    /// `peer_proc` pair mapping in `dir` (one filesystem for both sides)
    /// and return the link; attaching gives up at `deadline`. `faults` has
    /// the socket plane's semantics.
    pub(crate) fn connect(
        dir: &Path,
        my_proc: u32,
        peer_proc: u32,
        faults: Option<NetFaults>,
        deadline: Instant,
    ) -> Result<ShmConn, NetError> {
        let lo = my_proc.min(peer_proc);
        let hi = my_proc.max(peer_proc);
        let path = dir.join(format!("pair_{lo}_{hi}.ring"));
        let creator = my_proc == lo;
        let map = if creator {
            let file = OpenOptions::new()
                .read(true)
                .write(true)
                .create_new(true)
                .open(&path)
                .map_err(|e| NetError::Io(format!("create {}: {e}", path.display())))?;
            file.set_len(FILE_LEN as u64)
                .map_err(|e| NetError::Io(format!("size {}: {e}", path.display())))?;
            let map = Mapping::of_file(&file, FILE_LEN).map_err(|e| NetError::Io(e.to_string()))?;
            map.atomic(OFF_CAP)
                .store(SHM_RING_BYTES as u64, Ordering::Relaxed);
            map.atomic(OFF_PID_LO)
                .store(u64::from(std::process::id()), Ordering::Relaxed);
            // Ready flag last: the attacher spins on it and must observe
            // the initialized header when it does.
            map.atomic(OFF_MAGIC).store(SHM_MAGIC, Ordering::Release);
            map
        } else {
            let map = loop {
                let file = OpenOptions::new().read(true).write(true).open(&path);
                if let Ok(file) = file {
                    if file.metadata().map(|m| m.len()).unwrap_or(0) == FILE_LEN as u64 {
                        break Mapping::of_file(&file, FILE_LEN)
                            .map_err(|e| NetError::Io(e.to_string()))?;
                    }
                }
                if Instant::now() >= deadline {
                    return Err(NetError::Io(format!(
                        "timed out waiting for shm pair file {}",
                        path.display()
                    )));
                }
                std::thread::sleep(Duration::from_millis(2));
            };
            while map.atomic(OFF_MAGIC).load(Ordering::Acquire) != SHM_MAGIC {
                if Instant::now() >= deadline {
                    return Err(NetError::Io(format!(
                        "timed out waiting for shm header of {}",
                        path.display()
                    )));
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            if map.atomic(OFF_CAP).load(Ordering::Relaxed) != SHM_RING_BYTES as u64 {
                return Err(NetError::Io(format!(
                    "shm ring capacity mismatch in {}",
                    path.display()
                )));
            }
            map.atomic(OFF_PID_HI)
                .store(u64::from(std::process::id()), Ordering::Release);
            // Both sides hold their mappings now; the name has done its job.
            // Unlinking here, not at teardown, is what keeps a SIGKILLed
            // world from leaking the file.
            std::fs::remove_file(&path)
                .map_err(|e| NetError::Io(format!("unlink {}: {e}", path.display())))?;
            map
        };
        let map = Arc::new(map);
        let ring = |which| MappedRing {
            map: Arc::clone(&map),
            base: ring_base(which),
        };
        // Ring 0 carries lo→hi, ring 1 carries hi→lo.
        let (tx_ring, rx_ring) = if creator { (0, 1) } else { (1, 0) };
        Ok(ShmConn {
            peer_proc,
            tx: Mutex::new(ShmTx {
                prod: ByteRingProducer::new(ring(tx_ring)),
                link: LinkTx::new(faults, my_proc, peer_proc),
                queue: VecDeque::new(),
            }),
            rx: Mutex::new(ShmRx {
                cons: ByteRingConsumer::new(ring(rx_ring)),
                link: LinkRx::new(),
                jumbo: None,
            }),
            peer_pid_off: if creator { OFF_PID_HI } else { OFF_PID_LO },
            liveness: Mutex::new((Instant::now(), true)),
            map,
        })
    }

    /// Peer process index of this link.
    pub(crate) fn peer_proc(&self) -> u32 {
        self.peer_proc
    }

    /// Queue a message and push as much of the ring backlog as fits.
    pub(crate) fn send(&self, dst_device: u32, msg: WireMsg, stats: &AtomicStats) {
        let (head, data) = msg.into_parts();
        let mut tx = lock(&self.tx);
        let seq = tx.link.assign_seq();
        let encoded_len = head.len() + data.len();
        stats.count_class(encoded_len);
        stats.shm_msgs.fetch_add(1, Ordering::Relaxed);
        let out = OutMsg {
            seq,
            dst_device,
            head,
            data,
            whole: is_eager(encoded_len),
            written: 0,
            extra_copies: 0,
        };
        if let Some((mut out, copies)) = tx.link.first_transmission(out) {
            out.extra_copies = copies - 1;
            tx.queue.push_back(out);
        }
        tx.service(stats);
    }

    /// Drive the send backlog; true if any record hit the ring.
    pub(crate) fn service(&self, stats: &AtomicStats) -> bool {
        lock(&self.tx).service(stats)
    }

    /// Drain inbound records, routing complete in-order messages through
    /// `route(dst_device, msg)`. Returns true if anything was consumed.
    pub(crate) fn drain(
        &self,
        stats: &AtomicStats,
        mut route: impl FnMut(u32, WireMsg),
    ) -> Result<bool, NetError> {
        let mut rx = lock(&self.rx);
        let mut consumed = false;
        loop {
            let rx = &mut *rx;
            let parsed = rx
                .cons
                .try_pop_with(|body| parse_record(body, &mut rx.jumbo, stats))
                .map_err(|e| NetError::Io(format!("shm peer {}: {e:?}", self.peer_proc)))?;
            let done = match parsed {
                None => break,
                Some(r) => r?,
            };
            consumed = true;
            stats.frames_recv.fetch_add(1, Ordering::Relaxed);
            if let Some((seq, dst_device, msg)) = done {
                if rx.link.admit(seq, stats) {
                    rx.link.fill(seq, (dst_device, msg));
                    while let Some((dst, msg)) = rx.link.pop_ready() {
                        route(dst, msg);
                    }
                }
            }
        }
        Ok(consumed)
    }

    /// Is the send backlog fully flushed into the ring?
    pub(crate) fn tx_idle(&self) -> bool {
        let tx = lock(&self.tx);
        tx.queue.is_empty() && tx.link.idle()
    }

    /// Probe the peer process (rate-limited): false once it has exited.
    pub(crate) fn peer_alive(&self) -> bool {
        let mut g = lock(&self.liveness);
        let (ref mut last, ref mut alive) = *g;
        if !*alive {
            return false;
        }
        if last.elapsed() < Duration::from_millis(20) {
            return *alive;
        }
        *last = Instant::now();
        let pid = self.map.atomic(self.peer_pid_off).load(Ordering::Acquire);
        if pid == 0 {
            // Peer not attached yet (still in establish): assume alive.
            return true;
        }
        *alive = pid_alive(pid as i64);
        *alive
    }
}

fn rec_msg_hdr(kind: u8, dst_device: u32, seq: u64) -> [u8; REC_MSG_HDR] {
    let mut h = [0u8; REC_MSG_HDR];
    h[0] = kind;
    h[1..5].copy_from_slice(&dst_device.to_le_bytes());
    h[5..13].copy_from_slice(&seq.to_le_bytes());
    h
}

/// Parse one ring record body; returns a complete message when one
/// finishes (whole record or the last jumbo chunk).
#[allow(clippy::type_complexity)]
fn parse_record(
    body: &[u8],
    jumbo: &mut Option<JumboRx>,
    stats: &AtomicStats,
) -> Result<Option<(u64, u32, WireMsg)>, NetError> {
    if body.len() < REC_MSG_HDR {
        return Err(NetError::Io(format!(
            "shm record too short: {} bytes",
            body.len()
        )));
    }
    let kind = body[0];
    let dst_device = u32::from_le_bytes([body[1], body[2], body[3], body[4]]);
    let seq = u64::from_le_bytes([
        body[5], body[6], body[7], body[8], body[9], body[10], body[11], body[12],
    ]);
    let rest = &body[REC_MSG_HDR..];
    match kind {
        KIND_WHOLE => {
            let head = WireMsg::decode_header(rest).map_err(NetError::Codec)?;
            if head.total_len() != rest.len() {
                return Err(NetError::Io("shm record length mismatch".into()));
            }
            let data = rest[head.consumed..].to_vec();
            if !data.is_empty() {
                stats.copies_rx.fetch_add(1, Ordering::Relaxed);
            }
            let msg = head.into_msg(data).map_err(NetError::Codec)?;
            Ok(Some((seq, dst_device, msg)))
        }
        KIND_JUMBO_FIRST => {
            let head = WireMsg::decode_header(rest).map_err(NetError::Codec)?;
            if head.consumed != rest.len() {
                return Err(NetError::Io("shm jumbo header length mismatch".into()));
            }
            let cap = head.data_len;
            *jumbo = Some(JumboRx {
                seq,
                dst_device,
                head,
                data: Vec::with_capacity(cap),
            });
            Ok(None)
        }
        KIND_JUMBO_MORE => {
            let j = jumbo.as_mut().ok_or_else(|| {
                NetError::Io("shm jumbo continuation without a header record".into())
            })?;
            if j.seq != seq {
                return Err(NetError::Io("interleaved shm jumbo chains".into()));
            }
            // The single receive-side copy: mapping → final delivery buffer.
            j.data.extend_from_slice(rest);
            if j.data.len() < j.head.data_len {
                return Ok(None);
            }
            let j = match jumbo.take() {
                Some(j) => j,
                None => return Ok(None),
            };
            stats.copies_rx.fetch_add(1, Ordering::Relaxed);
            let msg = j.head.into_msg(j.data).map_err(NetError::Codec)?;
            Ok(Some((j.seq, j.dst_device, msg)))
        }
        other => Err(NetError::Io(format!("unknown shm record kind {other}"))),
    }
}

#[cfg(unix)]
fn pid_alive(pid: i64) -> bool {
    if pid <= 0 || pid > i64::from(i32::MAX) {
        return false;
    }
    // Safety: signal 0 performs only the existence/permission check.
    unsafe { sys::kill(pid as i32, 0) == 0 }
}

#[cfg(not(unix))]
fn pid_alive(_pid: i64) -> bool {
    true
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::AtomicU32;

    fn temp_dir() -> PathBuf {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let d = std::env::temp_dir().join(format!("dcuda-shm-test-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn pair(dir: &Path, faults: Option<NetFaults>) -> (ShmConn, ShmConn) {
        let deadline = Instant::now() + Duration::from_secs(10);
        let connect = move |dir: &Path, my_proc, peer_proc| {
            ShmConn::connect(dir, my_proc, peer_proc, faults, deadline).unwrap()
        };
        let dir2 = dir.to_path_buf();
        let t = std::thread::spawn(move || connect(&dir2, 1, 0));
        let a = connect(dir, 0, 1);
        (a, t.join().unwrap())
    }

    fn deliver(data: Vec<u8>) -> WireMsg {
        crate::socket::tests::deliver(0, data)
    }

    #[test]
    fn eager_and_jumbo_roundtrip_with_single_copies() {
        let dir = temp_dir();
        let (a, b) = pair(&dir, None);
        // Both sides hold their mappings: the pair file is already unlinked,
        // so nothing is left to leak however the world ends — and traffic
        // flows regardless.
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "ring file");
        let stats_a = AtomicStats::default();
        let stats_b = AtomicStats::default();
        let small = deliver(vec![1, 2, 3]);
        let large = deliver(vec![7u8; 300 << 10]); // several jumbo chunks
        a.send(1, small.clone(), &stats_a);
        a.send(1, large.clone(), &stats_a);
        let fin = WireMsg::Finished {
            device: 0,
            ranks: 1,
        };
        a.send(1, fin.clone(), &stats_a);
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut got = Vec::new();
        while got.len() < 3 {
            a.service(&stats_a);
            b.drain(&stats_b, |_dst, msg| got.push(msg)).unwrap();
            assert!(Instant::now() < deadline, "timed out");
        }
        assert_eq!(got, vec![small, large, fin]);
        // Copy accounting: exactly one payload copy per direction per
        // payload-bearing message.
        assert_eq!(stats_a.copies_tx.load(Ordering::Relaxed), 2);
        assert_eq!(stats_b.copies_rx.load(Ordering::Relaxed), 2);
        assert_eq!(stats_a.eager_msgs.load(Ordering::Relaxed), 2); // small + finished
        assert_eq!(stats_a.rndz_msgs.load(Ordering::Relaxed), 1);
        assert!(a.tx_idle());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lossy_shm_stream_preserves_fifo_exactly_once() {
        use crate::socket::tests::lossy_payload;
        for seed in [11, 12, 13] {
            let dir = temp_dir();
            let (a, b) = pair(
                &dir,
                Some(NetFaults {
                    seed,
                    drop_p: 0.25,
                    dup_p: 0.25,
                }),
            );
            let stats_a = AtomicStats::default();
            let stats_b = AtomicStats::default();
            let n = 300u32;
            for i in 0..n {
                a.send(1, deliver(lossy_payload(i)), &stats_a);
            }
            let deadline = Instant::now() + Duration::from_secs(20);
            let mut expect = 0u32;
            while expect < n {
                a.service(&stats_a);
                let mut fifo_ok = true;
                b.drain(&stats_b, |_dst, msg| match msg {
                    WireMsg::Deliver { data, .. } => {
                        if data != lossy_payload(expect) {
                            fifo_ok = false;
                        }
                        expect += 1;
                    }
                    other => panic!("unexpected {other:?}"),
                })
                .unwrap();
                assert!(fifo_ok, "seed {seed}: FIFO broken near {expect}");
                assert!(
                    Instant::now() < deadline,
                    "seed {seed}: timed out at {expect}"
                );
            }
            b.drain(&stats_b, |_, msg| panic!("duplicate delivered: {msg:?}"))
                .unwrap();
            assert!(
                stats_a.net_retries.load(Ordering::Relaxed) > 0,
                "seed {seed}: drops must retransmit"
            );
            assert!(
                stats_b.net_dups_suppressed.load(Ordering::Relaxed) > 0,
                "seed {seed}: dups must be suppressed"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn hostile_length_word_is_a_typed_error() {
        let dir = temp_dir();
        let (a, b) = pair(&dir, None);
        let stats = AtomicStats::default();
        a.send(1, deliver(vec![1, 2, 3]), &stats);
        // A peer gone bad overwrites the published record's length word
        // (ring 0 carries 0→1; its first record sits at region offset 0).
        let ring = MappedRing {
            map: Arc::clone(&b.map),
            base: ring_base(0),
        };
        // SAFETY: in bounds; racing nobody, `a` and `b` are both idle.
        unsafe { ring.write(0, &0x7fff_fff0u32.to_le_bytes()) };
        let err = b.drain(&stats, |_, _| panic!("nothing to deliver"));
        assert!(
            matches!(&err, Err(NetError::Io(e)) if e.contains("RingCorrupt")),
            "{err:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn peer_pid_liveness_is_observed() {
        let dir = temp_dir();
        let (a, _b) = pair(&dir, None);
        // Both sides are this process, so the peer is trivially alive.
        assert!(a.peer_alive());
        // Forge a dead peer pid and wait out the rate limiter.
        a.map
            .atomic(a.peer_pid_off)
            .store(u64::MAX / 2, Ordering::Release);
        std::thread::sleep(Duration::from_millis(25));
        assert!(!a.peer_alive());
        std::fs::remove_dir_all(&dir).ok();
    }
}
