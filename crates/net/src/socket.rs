//! The multi-process socket backend.
//!
//! A [`SocketPlane`] connects the processes of a launch into a full TCP
//! mesh (one connection per process pair, full duplex) and hands out one
//! [`NetEndpoint`] per local device. Endpoints implement
//! [`Transport`]; the runtime's host threads
//! cannot tell them apart from the in-process backend.
//!
//! A tcp link is what a shm link is: a sequenced stream of
//! [`FrameKind::Data`] frames, one per message whatever its size, whose
//! ordering, exactly-once delivery and flow control are the medium's own —
//! one TCP connection per peer pair here, one SPSC ring per direction
//! there. No credit window, no handshake before a large payload and no
//! retransmission are layered on what TCP already provides. Per
//! connection:
//!
//! * **Sequencing** — frames are numbered densely from 0. The receiver
//!   takes only the next number and fails the stream with
//!   [`CodecError::OutOfSequence`] on any other, so whatever a corrupt or
//!   hostile peer sends, nothing is held back waiting for a gap.
//! * **Coalescing and the vectored write** — short frames accumulate in a
//!   per-connection write buffer flushed when it crosses [`COALESCE_LIMIT`]
//!   or on `pump()`, so a burst of small puts becomes one `write(2)`; a
//!   payload of at least [`VECTORED_MIN`] bytes is never staged — it rides
//!   as its own iovec, the kernel write its only send-side copy. (The
//!   `eager_msgs`/`rndz_msgs` counters are size classes by encoded length,
//!   as on shm; both classes ship the moment they are sent.)
//! * **Progress** — the plane owns no thread. The streams run nonblocking;
//!   [`Transport::try_recv`] moves inbound bytes, [`Transport::pump`]
//!   outbound ones. Receive advances a per-connection state machine
//!   (`RxPhase`) that resumes frames split at arbitrary byte boundaries
//!   and releases completed messages into the per-device inbox that
//!   loopback and shm traffic use too (no pass runs while a local inbox is
//!   `INBOX_HIGH_WATER` deep: a slow host's backlog waits in the socket
//!   buffers, and behind them in the sender's stage). **Receive never
//!   writes**: the two halves of a connection share no lock. A flush the
//!   kernel will not take whole drops what went out and resumes behind it
//!   on the next call. Nothing waits on a socket after the mesh handshake.
//! * **Close** — dropping an endpoint closes the sockets as they are,
//!   which resets a connection that still holds unread bytes. A host that
//!   finished cleanly steps [`Transport::close`] first: send halves shut
//!   down behind their last staged byte, receive halves read to the
//!   peer's FIN, so neither side's last frames can be lost to a reset.
//!
//! Failure model: a connection EOF or write failure marks the peer process
//! gone. The transport itself keeps running — the *host* decides whether
//! that is benign (every rank of that process already finished) or fatal,
//! via [`Transport::gone_peers`].

use crate::shm::{shm_supported, ShmConn};
use crate::transport::{NetError, NetStats, PlaneKind, Transport};
use crate::wire::{
    is_eager, parse_u32_payload, u32_payload, CodecError, Frame, FrameHeader, FrameKind, MsgHeader,
    WireMsg, COALESCE_LIMIT, FRAME_HEADER_BYTES, VECTORED_MIN,
};
use dcuda_trace::{Tracer, Track};
use std::collections::BTreeSet;
use std::io::{IoSlice, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicIsize, AtomicU32, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, TryLockError};
use std::time::{Duration, Instant};

/// What a launch may set on its transport; every tuning value is a
/// constant in [`crate::wire`].
#[derive(Debug, Clone, Default)]
pub struct NetConfig {
    /// Record net send/recv/flush instants on [`Track::Net`].
    pub traced: bool,
}

/// Everything `SocketPlane::establish` needs to join the mesh.
pub struct MeshOpts {
    /// This process's index in `0..procs`.
    pub my_proc: u32,
    /// Total processes in the launch.
    pub procs: u32,
    /// Devices hosted by every process (world device `d` lives in process
    /// `d / devices_per_proc`).
    pub devices_per_proc: u32,
    /// Mesh listener address of every process, index-aligned.
    pub peer_addrs: Vec<String>,
    /// Host fingerprint of every process, index-aligned. Two processes
    /// with equal fingerprints share a host and negotiate the
    /// shared-memory plane (when `shm_dir` is set). An empty table forces
    /// TCP for every peer.
    pub peer_hosts: Vec<String>,
    /// Directory for the shared-memory pair files (must be on a
    /// filesystem visible to every same-host process). `None` disables
    /// the shm plane.
    pub shm_dir: Option<PathBuf>,
    /// This process's already-bound mesh listener.
    pub listener: TcpListener,
    /// Transport tuning.
    pub config: NetConfig,
}

const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(30);

/// Messages one receive pass may release per connection before it returns
/// to its caller, so a fast peer cannot starve the local command rings.
const RX_RELEASE_CAP: usize = 64;

/// Unpopped messages in any one local inbox at which receive passes stop
/// taking bytes off the links: the backlog of a slow host then stays in the
/// socket buffers and shm rings, whose filling up pushes back on the sender,
/// instead of growing in this process's memory.
const INBOX_HIGH_WATER: isize = 1024;

// --- plane-wide shared state --------------------------------------------

/// Plane-wide counters, shared with the shm links (`crate::shm`).
#[derive(Default)]
pub(crate) struct AtomicStats {
    pub(crate) frames_sent: AtomicU64,
    pub(crate) frames_recv: AtomicU64,
    pub(crate) bytes_sent: AtomicU64,
    pub(crate) eager_msgs: AtomicU64,
    pub(crate) rndz_msgs: AtomicU64,
    pub(crate) coalesced_flushes: AtomicU64,
    pub(crate) shm_msgs: AtomicU64,
    pub(crate) shm_bytes_sent: AtomicU64,
    pub(crate) copies_tx: AtomicU64,
    pub(crate) copies_rx: AtomicU64,
    pub(crate) vectored_writes: AtomicU64,
}

impl AtomicStats {
    /// Count one sent message of `encoded_len` bytes in its size class.
    pub(crate) fn count_class(&self, encoded_len: usize) {
        let class = if is_eager(encoded_len) {
            &self.eager_msgs
        } else {
            &self.rndz_msgs
        };
        class.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> NetStats {
        NetStats {
            frames_sent: self.frames_sent.load(Ordering::Relaxed),
            frames_recv: self.frames_recv.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            eager_msgs: self.eager_msgs.load(Ordering::Relaxed),
            rndz_msgs: self.rndz_msgs.load(Ordering::Relaxed),
            coalesced_flushes: self.coalesced_flushes.load(Ordering::Relaxed),
            shm_msgs: self.shm_msgs.load(Ordering::Relaxed),
            shm_bytes_sent: self.shm_bytes_sent.load(Ordering::Relaxed),
            copies_tx: self.copies_tx.load(Ordering::Relaxed),
            copies_rx: self.copies_rx.load(Ordering::Relaxed),
            vectored_writes: self.vectored_writes.load(Ordering::Relaxed),
            // `net_retries` is always 0; the progress-pool counters live
            // in the runtime, not the plane, and the report layer folds
            // them in (`dcuda_rt`).
            ..NetStats::default()
        }
    }
}

/// Lock `m`, shrugging off poisoning: every critical section in this crate
/// leaves the guarded state valid at each step, so a panicked holder (a
/// dying host thread) must not wedge the links its peers still drive.
pub(crate) fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// A large frame staged for a vectored write: its header bytes (frame
/// header + message header, one small Vec) and the payload — the caller's
/// buffer itself, never re-staged — plus the `wbuf` watermark that keeps
/// the stream in emit order.
struct BigOut {
    wmark: usize,
    head: Vec<u8>,
    data: Vec<u8>,
}

/// Send half of one process-pair connection, shared (behind a mutex) by
/// the local host threads that send on it.
struct ConnTx {
    stream: TcpStream,
    /// Coalescing write buffer for short frames (encoded bytes).
    wbuf: Vec<u8>,
    /// Frames staged (wbuf + big) since the last flush.
    wbuf_frames: u64,
    /// Large frames staged for the next vectored write, in emit order
    /// relative to `wbuf` via their watermark.
    big: Vec<BigOut>,
    /// Bytes at the head of the staged stream (`wbuf` with `big`
    /// interleaved) the kernel already took: where a flush that met
    /// `WouldBlock` resumes. Whole written frames are dropped from the
    /// stage, so this only ever points into the first staged piece.
    flushed: usize,
    /// A vectored payload was staged since the last completed flush.
    vectored: bool,
    /// Sequence number of the next data frame.
    next_seq: u64,
    /// Set on EOF/write failure; all further sends are silently dropped
    /// (mirroring the in-process "send to exited peer" semantics).
    closed: bool,
}

impl ConnTx {
    /// Sequence a message and stage its frame, whatever its size: a frame
    /// the socket buffer has no room for waits in the stage, not behind a
    /// protocol. Short frames coalesce into `wbuf`; payloads of at least
    /// [`VECTORED_MIN`] bytes become their own iovec so the kernel write is
    /// the only payload copy.
    fn enqueue(&mut self, dst_device: u32, msg: WireMsg, stats: &AtomicStats) {
        if self.closed {
            return;
        }
        let (head, data) = msg.into_parts();
        stats.count_class(head.len() + data.len());
        let fh = FrameHeader {
            kind: FrameKind::Data,
            dst_device,
            seq: self.next_seq,
            payload_len: head.len() + data.len(),
        };
        self.next_seq += 1;
        if data.len() < VECTORED_MIN {
            // Short-frame fallback: coalesce (payload staged once here,
            // then written: two copy events when it carries data).
            fh.encode_into(&mut self.wbuf);
            self.wbuf.extend_from_slice(&head);
            self.wbuf.extend_from_slice(&data);
            if !data.is_empty() {
                stats.copies_tx.fetch_add(2, Ordering::Relaxed);
            }
        } else {
            let mut hb = Vec::with_capacity(FRAME_HEADER_BYTES + head.len());
            fh.encode_into(&mut hb);
            hb.extend_from_slice(&head);
            self.big.push(BigOut {
                wmark: self.wbuf.len(),
                head: hb,
                data,
            });
            self.vectored = true;
            // The vectored kernel write is the single payload copy.
            stats.copies_tx.fetch_add(1, Ordering::Relaxed);
        }
        self.wbuf_frames += 1;
        stats.frames_sent.fetch_add(1, Ordering::Relaxed);
        stats.bytes_sent.fetch_add(
            (FRAME_HEADER_BYTES + fh.payload_len) as u64,
            Ordering::Relaxed,
        );
    }

    /// Flush if forced, over the coalescing limit, or holding any vectored
    /// payload. Returns true if any bytes moved toward the socket.
    fn service(&mut self, force_flush: bool, stats: &AtomicStats) -> (bool, Option<NetError>) {
        let staged = !self.wbuf.is_empty() || !self.big.is_empty();
        let due = force_flush || self.wbuf.len() >= COALESCE_LIMIT || !self.big.is_empty();
        if self.closed || !(staged && due) {
            return (false, None);
        }
        match self.flush(stats) {
            Ok(wrote) => (wrote, None),
            Err(e) => (false, Some(e)),
        }
    }

    /// Write what the kernel takes of the staged stream and return whether
    /// any byte moved. On `WouldBlock` what was written is dropped from the
    /// stage and the next call resumes behind it; frames emitted meanwhile
    /// append at the end (the stream is append-only).
    fn flush(&mut self, stats: &AtomicStats) -> Result<bool, NetError> {
        if self.wbuf.is_empty() && self.big.is_empty() {
            return Ok(false);
        }
        let from = self.flushed;
        let done = match write_staged(&mut self.stream, &self.wbuf, &self.big, from) {
            Ok((at, false)) => {
                self.compact(at);
                return Ok(at > from);
            }
            Ok(_) => {
                if self.wbuf_frames > 1 {
                    stats.coalesced_flushes.fetch_add(1, Ordering::Relaxed);
                }
                if self.vectored {
                    stats.vectored_writes.fetch_add(1, Ordering::Relaxed);
                }
                Ok(true)
            }
            Err(e) => {
                self.closed = true;
                Err(NetError::Io(e.to_string()))
            }
        };
        // Written out or failed: the stage is spent either way.
        self.wbuf.clear();
        self.big.clear();
        self.wbuf_frames = 0;
        self.flushed = 0;
        self.vectored = false;
        done
    }

    /// Drop the first `at` bytes of the staged stream, all of them written:
    /// large frames that went out whole release their payloads, the written
    /// prefix of `wbuf` is cut and the watermarks are rebased, and `flushed`
    /// keeps only the offset into a large frame the kernel took part of.
    fn compact(&mut self, at: usize) {
        let (mut left, mut cut, mut whole) = (at, 0, 0);
        for b in &self.big {
            let frame = b.wmark - cut + b.head.len() + b.data.len();
            if left < frame {
                break;
            }
            left -= frame;
            cut = b.wmark;
            whole += 1;
        }
        self.big.drain(..whole);
        let next = self.big.first().map_or(self.wbuf.len(), |b| b.wmark);
        let short = left.min(next - cut);
        self.wbuf.drain(..cut + short);
        for b in &mut self.big {
            b.wmark -= cut + short;
        }
        self.flushed = left - short;
    }

    /// Nothing staged; unflushed bytes count as staged.
    fn idle(&self) -> bool {
        self.closed || (self.wbuf.is_empty() && self.big.is_empty())
    }
}

/// One nonblocking pass over the staged stream — the coalescing buffer with
/// the large payloads interleaved at their watermarks, in emit order — from
/// byte offset `skip`, retrying `EINTR` and partial writes until the kernel
/// stops taking bytes. Returns the offset reached and whether that is the
/// end of the stream.
fn write_staged(
    stream: &mut TcpStream,
    wbuf: &[u8],
    big: &[BigOut],
    skip: usize,
) -> std::io::Result<(usize, bool)> {
    let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(big.len() * 2 + 1);
    let mut pos = 0usize;
    for b in big {
        if b.wmark > pos {
            slices.push(IoSlice::new(&wbuf[pos..b.wmark]));
            pos = b.wmark;
        }
        slices.push(IoSlice::new(&b.head));
        if !b.data.is_empty() {
            slices.push(IoSlice::new(&b.data));
        }
    }
    if pos < wbuf.len() {
        slices.push(IoSlice::new(&wbuf[pos..]));
    }
    let mut bufs = &mut slices[..];
    IoSlice::advance_slices(&mut bufs, skip);
    let mut at = skip;
    while !bufs.is_empty() {
        match stream.write_vectored(bufs) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "write made no progress",
                ))
            }
            Ok(n) => {
                at += n;
                IoSlice::advance_slices(&mut bufs, n);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok((at, false)),
            Err(e) => return Err(e),
        }
    }
    Ok((at, true))
}

/// The two halves of a connection are independent: nothing that runs under
/// one lock takes the other (receive never writes, send never reads).
struct ConnShared {
    peer_proc: u32,
    tx: Mutex<ConnTx>,
    /// Taken with `try_lock` by whichever caller drives receive.
    rx: Mutex<ConnRx>,
}

/// A peer-pair link: TCP mesh connection or same-host shared-memory rings.
/// One world can mix both (plane selection is per peer pair).
enum PeerLink {
    Tcp(Arc<ConnShared>),
    Shm(Arc<ShmConn>),
}

impl PeerLink {
    fn kind(&self) -> PlaneKind {
        match self {
            PeerLink::Tcp(_) => PlaneKind::Tcp,
            PeerLink::Shm(_) => PlaneKind::Shm,
        }
    }
}

struct PlaneShared {
    my_proc: u32,
    procs: u32,
    devices_per_proc: u32,
    /// Peer links indexed by peer process (None at `my_proc`).
    conns: Vec<Option<PeerLink>>,
    /// Inbox senders for local devices (loopback and every link's
    /// released messages).
    local_tx: Vec<mpsc::Sender<WireMsg>>,
    /// Messages sent into each local inbox and not yet popped (a pop may
    /// be counted before its push, hence signed).
    inbox_depth: Vec<AtomicIsize>,
    /// Local endpoints that began an orderly close.
    closing: AtomicU32,
    stats: AtomicStats,
    /// First fatal transport error (corrupt stream, protocol violation).
    error: Mutex<Option<NetError>>,
    /// Peer processes observed gone (EOF / reset / write failure).
    peer_gone: Mutex<BTreeSet<u32>>,
}

impl PlaneShared {
    fn first_local_device(&self) -> u32 {
        self.my_proc * self.devices_per_proc
    }

    fn set_error(&self, e: NetError) {
        lock(&self.error).get_or_insert(e);
    }

    fn set_peer_gone(&self, proc: u32) {
        lock(&self.peer_gone).insert(proc);
    }

    /// Service one connection's send side; record failures.
    fn service_conn(&self, conn: &ConnShared, force: bool) -> bool {
        let (moved, err) = lock(&conn.tx).service(force, &self.stats);
        if err.is_some() {
            // A write failure means the peer vanished; the host decides if
            // the world was already quiescent.
            self.set_peer_gone(conn.peer_proc);
        }
        moved
    }

    /// Index of world device `dst_device` among this process's devices;
    /// a frame addressed elsewhere is a fatal routing error.
    fn local_index(&self, dst_device: u32) -> Option<usize> {
        let idx = dst_device.wrapping_sub(self.first_local_device());
        if idx >= self.devices_per_proc {
            self.set_error(NetError::Io(format!(
                "frame routed to device {dst_device}, not local to process {}",
                self.my_proc
            )));
            return None;
        }
        Some(idx as usize)
    }

    /// Route one inbound message to its local device inbox.
    fn route_local(&self, dst_device: u32, msg: WireMsg) {
        if let Some(idx) = self.local_index(dst_device) {
            self.push_local(idx, msg);
        }
    }

    fn push_local(&self, idx: usize, msg: WireMsg) {
        self.inbox_depth[idx].fetch_add(1, Ordering::Relaxed);
        // A closed inbox means that host already exited (its ranks
        // finished); late messages are moot.
        if self.local_tx[idx].send(msg).is_err() {
            self.inbox_depth[idx].fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// The plane each peer process negotiated.
    fn planes(&self) -> Vec<(u32, PlaneKind)> {
        self.conns
            .iter()
            .enumerate()
            .filter_map(|(j, l)| l.as_ref().map(|l| (j as u32, l.kind())))
            .collect()
    }

    /// One receive pass over every link, shm and tcp alike; true if any
    /// moved. Skipped while a local inbox is over [`INBOX_HIGH_WATER`]
    /// (every host pass empties its inbox, so the gate reopens; what an
    /// exited host left unpopped is at most the few messages that raced
    /// its last pass).
    fn drain_links(&self) -> bool {
        let backlogged = |d: &AtomicIsize| d.load(Ordering::Relaxed) >= INBOX_HIGH_WATER;
        if self.inbox_depth.iter().any(backlogged) {
            return false;
        }
        let mut moved = false;
        for link in self.conns.iter().flatten() {
            match link {
                // Drain the inbound ring into the local inboxes.
                PeerLink::Shm(conn) => {
                    match conn.drain(&self.stats, |dst, msg| self.route_local(dst, msg)) {
                        Ok(c) => moved |= c,
                        Err(e) => self.set_error(e),
                    }
                }
                // Advance the receive machine until it would block (or hits
                // its release cap); a connection another caller is driving
                // is skipped.
                PeerLink::Tcp(conn) => {
                    if let Some(mut rx) = try_lock(&conn.rx) {
                        moved |= pump_conn(self, conn.peer_proc, &mut rx);
                    }
                }
            }
        }
        moved
    }

    /// One step of the orderly close of every tcp link (shm has nothing to
    /// close: the mapped rings outlive either process). The send half is
    /// shut down once what is staged on it went out — the peer reads this
    /// side's last frames, then a FIN — while the receive half keeps being
    /// read and discarded; true once every peer's FIN (or failure) was seen,
    /// so no socket is left holding unread bytes when it is dropped.
    fn close_links(&self) -> bool {
        let mut done = true;
        for link in self.conns.iter().flatten() {
            let PeerLink::Tcp(conn) = link else { continue };
            {
                let mut tx = lock(&conn.tx);
                if !tx.closed {
                    tx.service(true, &self.stats);
                }
                if !tx.closed && tx.idle() {
                    // From here sends to this peer are dropped, as they
                    // are for a peer that exited.
                    let _ = tx.stream.shutdown(Shutdown::Write);
                    tx.closed = true;
                }
                done &= tx.closed;
            }
            match try_lock(&conn.rx) {
                Some(mut rx) => {
                    pump_conn(self, conn.peer_proc, &mut rx);
                    done &= rx.dead;
                }
                None => done = false,
            }
        }
        done
    }
}

/// `try_lock`, shrugging off poisoning like [`lock`]; `None` if held.
fn try_lock<T>(m: &Mutex<T>) -> Option<std::sync::MutexGuard<'_, T>> {
    match m.try_lock() {
        Ok(g) => Some(g),
        Err(TryLockError::Poisoned(p)) => Some(p.into_inner()),
        Err(TryLockError::WouldBlock) => None,
    }
}

/// The multi-process backend: builds the TCP mesh and hands out endpoints.
pub struct SocketPlane;

impl SocketPlane {
    /// Test support, not part of the launch path: a two-process-shaped mesh
    /// hosted entirely by the calling process, one device per "process".
    /// This is how tests, benches and soaks put a real tcp or shm plane
    /// under the two halves of a world. With `shm_dir` set both sides
    /// advertise the same host fingerprint and negotiate the shared-memory
    /// plane through pair files in that directory; otherwise loopback tcp.
    #[doc(hidden)]
    pub fn loopback_pair(
        config: NetConfig,
        shm_dir: Option<PathBuf>,
    ) -> Result<[Vec<NetEndpoint>; 2], NetError> {
        let l0 = TcpListener::bind("127.0.0.1:0")?;
        let l1 = TcpListener::bind("127.0.0.1:0")?;
        let peer_addrs = vec![l0.local_addr()?.to_string(), l1.local_addr()?.to_string()];
        let shm = shm_dir.is_some() && shm_supported();
        let peer_hosts = match shm_dir {
            Some(_) => vec!["loopback-pair".to_string(); 2],
            None => Vec::new(),
        };
        let opts = |my_proc, listener| MeshOpts {
            my_proc,
            procs: 2,
            devices_per_proc: 1,
            peer_addrs: peer_addrs.clone(),
            peer_hosts: peer_hosts.clone(),
            shm_dir: shm_dir.clone(),
            listener,
            config: config.clone(),
        };
        // One thread suffices: the half that goes first finishes its side of
        // the handshake alone — on shm the ring creator (process 0), on tcp
        // the dialer (process 1, whose connect lands in the bound
        // listener's backlog).
        if shm {
            let e0 = SocketPlane::establish(opts(0, l0))?;
            Ok([e0, SocketPlane::establish(opts(1, l1))?])
        } else {
            let e1 = SocketPlane::establish(opts(1, l1))?;
            Ok([SocketPlane::establish(opts(0, l0))?, e1])
        }
    }

    /// Join the mesh and return one endpoint per local device, index-aligned
    /// (endpoint `i` is world device `my_proc * devices_per_proc + i`).
    ///
    /// Protocol: process `i` dials every `j < i` and accepts from every
    /// `j > i`; the dialer opens with a [`FrameKind::Hello`] frame carrying
    /// its process index, which the acceptor reads before the stream goes
    /// nonblocking. The caller (launcher) must have distributed
    /// `peer_addrs` beforehand.
    ///
    /// Peers whose entry in `peer_hosts` matches this process's (and with
    /// `shm_dir` set, on a platform with mmap) skip the TCP mesh and
    /// negotiate the shared-memory plane instead — both sides compute the
    /// same predicate from the same tables, so the dial/accept counts stay
    /// consistent without extra handshaking.
    pub fn establish(opts: MeshOpts) -> Result<Vec<NetEndpoint>, NetError> {
        let MeshOpts {
            my_proc,
            procs,
            devices_per_proc,
            peer_addrs,
            peer_hosts,
            shm_dir,
            listener,
            config,
        } = opts;
        if peer_addrs.len() != procs as usize {
            return Err(NetError::Io(format!(
                "peer address table has {} entries for {procs} processes",
                peer_addrs.len()
            )));
        }
        if !peer_hosts.is_empty() && peer_hosts.len() != procs as usize {
            return Err(NetError::Io(format!(
                "peer host table has {} entries for {procs} processes",
                peer_hosts.len()
            )));
        }
        let shm_ok = shm_dir.is_some() && shm_supported() && !peer_hosts.is_empty();
        let use_shm = |j: u32| -> bool {
            // An empty fingerprint means "host unknown" (legacy worker):
            // never treat two unknowns as the same machine.
            shm_ok
                && j != my_proc
                && !peer_hosts[my_proc as usize].is_empty()
                && peer_hosts[j as usize] == peer_hosts[my_proc as usize]
        };
        let deadline = Instant::now() + HANDSHAKE_TIMEOUT;
        let mut streams: Vec<Option<TcpStream>> = (0..procs).map(|_| None).collect();
        for (j, addr) in peer_addrs.iter().enumerate().take(my_proc as usize) {
            if use_shm(j as u32) {
                continue;
            }
            let stream = dial(addr, deadline)?;
            stream.set_nodelay(true)?;
            write_hello(&stream, my_proc)?;
            streams[j] = Some(stream);
        }
        listener.set_nonblocking(true)?;
        let expect_accepts = (my_proc + 1..procs).filter(|&j| !use_shm(j)).count();
        let mut accepted = 0;
        while accepted < expect_accepts {
            match listener.accept() {
                Ok((stream, _)) => {
                    stream.set_nodelay(true)?;
                    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
                    let peer = read_hello(&stream)?;
                    stream.set_read_timeout(None)?;
                    if peer <= my_proc || peer >= procs {
                        return Err(NetError::Io(format!(
                            "unexpected hello from process {peer}"
                        )));
                    }
                    streams[peer as usize] = Some(stream);
                    accepted += 1;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        return Err(NetError::Io(format!(
                            "mesh handshake timed out with {accepted} of {expect_accepts} peers accepted"
                        )));
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => return Err(e.into()),
            }
        }

        let (local_tx, inboxes): (Vec<_>, Vec<_>) = (0..devices_per_proc)
            .map(|_| mpsc::channel::<WireMsg>())
            .unzip();

        let mut conns: Vec<Option<PeerLink>> = (0..procs).map(|_| None).collect();
        for (j, stream) in streams.into_iter().enumerate() {
            let Some(stream) = stream else { continue };
            // Handshake I/O is done: from here nothing waits on this socket
            // (the flag lives on the file description both halves share).
            stream.set_nonblocking(true)?;
            conns[j] = Some(PeerLink::Tcp(Arc::new(ConnShared {
                peer_proc: j as u32,
                tx: Mutex::new(ConnTx {
                    stream: stream.try_clone()?,
                    wbuf: Vec::new(),
                    wbuf_frames: 0,
                    big: Vec::new(),
                    flushed: 0,
                    vectored: false,
                    next_seq: 0,
                    closed: false,
                }),
                rx: Mutex::new(ConnRx {
                    stream,
                    phase: RxPhase::fresh_header(),
                    expected: 0,
                    dead: false,
                }),
            })));
        }
        if let Some(dir) = shm_dir.as_deref() {
            for j in 0..procs {
                if !use_shm(j) {
                    continue;
                }
                let conn = ShmConn::connect(dir, my_proc, j, deadline)?;
                conns[j as usize] = Some(PeerLink::Shm(Arc::new(conn)));
            }
        }

        let shared = Arc::new(PlaneShared {
            my_proc,
            procs,
            devices_per_proc,
            conns,
            local_tx,
            inbox_depth: (0..devices_per_proc).map(|_| AtomicIsize::new(0)).collect(),
            closing: AtomicU32::new(0),
            stats: AtomicStats::default(),
            error: Mutex::new(None),
            peer_gone: Mutex::new(BTreeSet::new()),
        });

        let mut endpoints: Vec<NetEndpoint> = inboxes
            .into_iter()
            .enumerate()
            .map(|(i, inbox)| NetEndpoint {
                device: my_proc * devices_per_proc + i as u32,
                shared: Arc::clone(&shared),
                inbox,
                tracer: if config.traced {
                    Tracer::enabled()
                } else {
                    Tracer::disabled()
                },
                primary: i == 0,
                clock: 0,
                closing: false,
            })
            .collect();
        if config.traced {
            // Record the negotiated plane per peer as trace metadata (the
            // launcher also reports it in the world JSON).
            if let Some(ep0) = endpoints.first_mut() {
                let device = ep0.device;
                for (k, (proc, kind)) in shared.planes().into_iter().enumerate() {
                    ep0.tracer.instant(
                        Track::Net(device),
                        "plane",
                        k as u64,
                        vec![
                            ("peer_proc", u64::from(proc).into()),
                            ("plane", kind.as_str().into()),
                        ],
                    );
                }
            }
        }
        Ok(endpoints)
    }
}

fn dial(addr: &str, deadline: Instant) -> Result<TcpStream, NetError> {
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::ConnectionRefused | std::io::ErrorKind::AddrNotAvailable
                ) && Instant::now() < deadline =>
            {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => return Err(NetError::Io(format!("dial {addr}: {e}"))),
        }
    }
}

/// Open a dialed connection: announce which process is calling.
fn write_hello(mut stream: &TcpStream, my_proc: u32) -> std::io::Result<()> {
    let hello = Frame {
        kind: FrameKind::Hello,
        dst_device: 0,
        seq: 0,
        payload: u32_payload(my_proc),
    };
    stream.write_all(&hello.encode())
}

fn read_hello(mut stream: &TcpStream) -> Result<u32, NetError> {
    match Frame::read_from(&mut stream) {
        Ok(Some(f)) if f.kind == FrameKind::Hello => Ok(parse_u32_payload(&f.payload)?),
        Ok(Some(f)) => Err(NetError::Io(format!(
            "expected hello, got {:?} frame",
            f.kind
        ))),
        Ok(None) => Err(NetError::Io("peer closed during handshake".into())),
        Err(e) => Err(NetError::Io(format!("handshake read: {e}"))),
    }
}

// --- receive path --------------------------------------------------------

/// Classify a receive-side failure: a broken stream (anything carrying a
/// [`CodecError`], or other invalid data) is the plane's fatal error; any
/// failure but invalid data also means the peer process is gone.
fn reader_fail(shared: &PlaneShared, peer: u32, e: std::io::Error) {
    let invalid = e.kind() == std::io::ErrorKind::InvalidData;
    match e
        .get_ref()
        .and_then(|inner| inner.downcast_ref::<CodecError>())
    {
        Some(c) => shared.set_error(NetError::Codec(c.clone())),
        None if invalid => shared.set_error(NetError::Io(e.to_string())),
        None => {}
    }
    if !invalid {
        shared.set_peer_gone(peer);
    }
}

/// Nonblocking decode state of one connection — where a frame split at an
/// arbitrary byte boundary resumes on the next receive pass.
enum RxPhase {
    /// Accumulating the fixed-size frame header.
    Header {
        buf: [u8; FRAME_HEADER_BYTES],
        got: usize,
    },
    /// Accumulating the ≤[`WireMsg::HEADER_MAX`]-byte message prefix of a
    /// data frame.
    MsgPrefix {
        head: FrameHeader,
        buf: [u8; WireMsg::HEADER_MAX],
        got: usize,
        take: usize,
    },
    /// Streaming the remaining payload **straight into its final delivery
    /// buffer** across however many passes it takes — one receive-side
    /// copy.
    MsgData {
        head: FrameHeader,
        mh: MsgHeader,
        data: Vec<u8>,
        got: usize,
    },
}

impl RxPhase {
    fn fresh_header() -> RxPhase {
        RxPhase::Header {
            buf: [0u8; FRAME_HEADER_BYTES],
            got: 0,
        }
    }
}

/// Receive half of one process-pair connection.
struct ConnRx {
    stream: TcpStream,
    phase: RxPhase,
    /// Sequence number of the next data frame.
    expected: u64,
    /// EOF or failure observed; the stream is not read again.
    dead: bool,
}

/// Outcome of one nonblocking buffer fill.
enum Fill {
    Done,
    Blocked,
    Eof,
}

/// Fill `buf[*got..]` from a nonblocking stream, retrying `EINTR`.
fn fill_nb(stream: &mut TcpStream, buf: &mut [u8], got: &mut usize) -> std::io::Result<Fill> {
    while *got < buf.len() {
        match stream.read(&mut buf[*got..]) {
            Ok(0) => return Ok(Fill::Eof),
            Ok(n) => *got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(Fill::Blocked),
            Err(e) => return Err(e),
        }
    }
    Ok(Fill::Done)
}

fn eof_mid_frame(needed: usize) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::UnexpectedEof,
        CodecError::Truncated { needed },
    )
}

fn invalid(e: CodecError) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, e)
}

/// A decoded payload is complete: release it into its device inbox
/// (counted in `released`).
fn complete_msg(
    shared: &PlaneShared,
    released: &mut usize,
    head: FrameHeader,
    mh: MsgHeader,
    data: Vec<u8>,
) -> std::io::Result<()> {
    if mh.data_len > 0 {
        shared.stats.copies_rx.fetch_add(1, Ordering::Relaxed);
    }
    let msg = mh.into_msg(data).map_err(invalid)?;
    shared.stats.frames_recv.fetch_add(1, Ordering::Relaxed);
    shared.route_local(head.dst_device, msg);
    *released += 1;
    Ok(())
}

/// One state-machine step: satisfy the current phase's byte needs and run
/// its completion actions. `Ok(true)` = progressed (call again);
/// `Ok(false)` = would block or the connection just died cleanly. Reads
/// only: nothing here, or below it, touches the connection's send half.
fn advance_conn(
    shared: &PlaneShared,
    peer_proc: u32,
    c: &mut ConnRx,
    released: &mut usize,
) -> std::io::Result<bool> {
    let phase = std::mem::replace(&mut c.phase, RxPhase::fresh_header());
    match phase {
        RxPhase::Header { mut buf, mut got } => {
            match fill_nb(&mut c.stream, &mut buf, &mut got)? {
                Fill::Blocked => {
                    c.phase = RxPhase::Header { buf, got };
                    Ok(false)
                }
                Fill::Eof if got == 0 => {
                    // Clean EOF at a frame boundary: the peer process
                    // exited. Benign iff its ranks had all finished — the
                    // host decides.
                    shared.set_peer_gone(peer_proc);
                    c.dead = true;
                    Ok(false)
                }
                Fill::Eof => Err(eof_mid_frame(FRAME_HEADER_BYTES - got)),
                Fill::Done => {
                    // An unknown kind byte (the retired control frames
                    // included) fails here, before any payload is read.
                    let head = FrameHeader::parse(&buf).map_err(invalid)?;
                    c.phase = match head.kind {
                        FrameKind::Data => {
                            // Rejected on the header, before any payload
                            // is read: a lost, repeated or reordered frame
                            // means the stream is broken.
                            if head.seq != c.expected {
                                return Err(invalid(CodecError::OutOfSequence {
                                    expected: c.expected,
                                    got: head.seq,
                                }));
                            }
                            c.expected += 1;
                            RxPhase::MsgPrefix {
                                take: head.payload_len.min(WireMsg::HEADER_MAX),
                                head,
                                buf: [0u8; WireMsg::HEADER_MAX],
                                got: 0,
                            }
                        }
                        // `establish` read the one hello before the stream
                        // went nonblocking: another is a broken peer.
                        FrameKind::Hello => {
                            return Err(invalid(CodecError::BadKind {
                                kind: FrameKind::Hello.to_u8(),
                            }))
                        }
                    };
                    Ok(true)
                }
            }
        }
        RxPhase::MsgPrefix {
            head,
            mut buf,
            mut got,
            take,
        } => match fill_nb(&mut c.stream, &mut buf[..take], &mut got)? {
            Fill::Blocked => {
                c.phase = RxPhase::MsgPrefix {
                    head,
                    buf,
                    got,
                    take,
                };
                Ok(false)
            }
            Fill::Eof => Err(eof_mid_frame(take - got)),
            Fill::Done => {
                let mh = WireMsg::decode_header(&buf[..take]).map_err(invalid)?;
                if mh.total_len() != head.payload_len {
                    return Err(invalid(CodecError::TrailingBytes {
                        extra: head.payload_len.abs_diff(mh.total_len()),
                    }));
                }
                let mut data = vec![0u8; mh.data_len];
                let spill = take - mh.consumed;
                data[..spill].copy_from_slice(&buf[mh.consumed..take]);
                if spill == data.len() {
                    complete_msg(shared, released, head, mh, data)?;
                } else {
                    c.phase = RxPhase::MsgData {
                        head,
                        mh,
                        data,
                        got: spill,
                    };
                }
                Ok(true)
            }
        },
        RxPhase::MsgData {
            head,
            mh,
            mut data,
            mut got,
        } => match fill_nb(&mut c.stream, &mut data, &mut got)? {
            Fill::Blocked => {
                c.phase = RxPhase::MsgData {
                    head,
                    mh,
                    data,
                    got,
                };
                Ok(false)
            }
            Fill::Eof => Err(eof_mid_frame(data.len() - got)),
            Fill::Done => {
                complete_msg(shared, released, head, mh, data)?;
                Ok(true)
            }
        },
    }
}

/// Progress one connection's receive machine until it would block or has
/// released [`RX_RELEASE_CAP`] messages; true if it advanced at all. Marks
/// the connection dead on EOF or failure.
fn pump_conn(shared: &PlaneShared, peer_proc: u32, c: &mut ConnRx) -> bool {
    let mut moved = false;
    let mut released = 0;
    while !c.dead && released < RX_RELEASE_CAP {
        match advance_conn(shared, peer_proc, c, &mut released) {
            Ok(true) => moved = true,
            Ok(false) => break,
            Err(e) => {
                reader_fail(shared, peer_proc, e);
                c.dead = true;
            }
        }
    }
    moved
}

// --- the endpoint --------------------------------------------------------

/// One local device's endpoint on a [`SocketPlane`].
pub struct NetEndpoint {
    device: u32,
    shared: Arc<PlaneShared>,
    /// Everything addressed to this device: loopback sends and the
    /// messages any endpoint's receive pass released from a tcp or shm link.
    inbox: mpsc::Receiver<WireMsg>,
    tracer: Tracer,
    /// Exactly one endpoint per plane reports the plane-wide [`NetStats`]
    /// (the others return zeros), so summing endpoint stats never double
    /// counts.
    primary: bool,
    /// Logical event counter for trace timestamps (the threaded runtime
    /// has no simulated clock; the trace contract allows per-track
    /// sequence numbers).
    clock: u64,
    /// This endpoint began its orderly close.
    closing: bool,
}

impl NetEndpoint {
    /// World device id of this endpoint.
    pub fn device(&self) -> u32 {
        self.device
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Pop this device's inbox.
    fn pop(&mut self) -> Option<WireMsg> {
        let msg = self.inbox.try_recv().ok()?;
        let idx = (self.device - self.shared.first_local_device()) as usize;
        self.shared.inbox_depth[idx].fetch_sub(1, Ordering::Relaxed);
        Some(msg)
    }
}

impl Transport for NetEndpoint {
    fn send(&mut self, peer: u32, msg: WireMsg) -> Result<(), NetError> {
        let peer_proc = peer / self.shared.devices_per_proc;
        if peer_proc == self.shared.my_proc {
            // Local loopback: same-process devices talk through the inbox
            // channels directly, exactly like the in-process backend.
            let idx = (peer - self.shared.first_local_device()) as usize;
            if idx < self.shared.local_tx.len() {
                self.shared.push_local(idx, msg);
            }
            return Ok(());
        }
        if self
            .shared
            .conns
            .get(peer_proc as usize)
            .and_then(|c| c.as_ref())
            .is_none()
        {
            return Err(NetError::Io(format!(
                "no connection to process {peer_proc} (device {peer})"
            )));
        }
        if self.tracer.is_enabled() {
            let ts = self.tick();
            let (path, bytes) = match &msg {
                WireMsg::Deliver { data, .. } => {
                    // The class the counters will put it in.
                    let mut head = Vec::new();
                    msg.encode_header_into(&mut head);
                    let eager = is_eager(head.len() + data.len());
                    (if eager { "eager" } else { "rndz" }, data.len() as u64)
                }
                _ => ("ctl", 0),
            };
            self.tracer.instant(
                Track::Net(self.device),
                "net_send",
                ts,
                vec![
                    ("peer", u64::from(peer).into()),
                    ("bytes", bytes.into()),
                    ("path", path.into()),
                ],
            );
        }
        match &self.shared.conns[peer_proc as usize] {
            Some(PeerLink::Tcp(conn)) => {
                lock(&conn.tx).enqueue(peer, msg, &self.shared.stats);
                self.shared.service_conn(conn, false);
            }
            Some(PeerLink::Shm(conn)) => conn.send(peer, msg, &self.shared.stats),
            None => unreachable!("checked above"),
        }
        Ok(())
    }

    fn try_recv(&mut self) -> Result<Option<WireMsg>, NetError> {
        // What is already routed goes first; only an empty inbox is worth a
        // receive pass over the links (any endpoint may run it — routing
        // goes through the shared inboxes).
        let mut msg = self.pop();
        if msg.is_none() && self.shared.drain_links() {
            msg = self.pop();
        }
        match msg {
            Some(msg) => {
                if self.tracer.is_enabled() {
                    let ts = self.tick();
                    self.tracer.instant(
                        Track::Net(self.device),
                        "net_recv",
                        ts,
                        vec![("bytes", (msg.payload_len() as u64).into())],
                    );
                }
                Ok(Some(msg))
            }
            None => match lock(&self.shared.error).as_ref() {
                Some(e) => Err(e.clone()),
                None => Ok(None),
            },
        }
    }

    fn pump(&mut self) -> Result<bool, NetError> {
        let mut moved = false;
        for link in self.shared.conns.iter().flatten() {
            match link {
                PeerLink::Tcp(conn) => moved |= self.shared.service_conn(conn, true),
                PeerLink::Shm(conn) => moved |= conn.service(&self.shared.stats),
            }
        }
        if moved && self.tracer.is_enabled() {
            let ts = self.tick();
            self.tracer
                .instant(Track::Net(self.device), "net_flush", ts, vec![]);
        }
        Ok(moved)
    }

    fn idle(&self) -> bool {
        self.shared.conns.iter().flatten().all(|link| match link {
            PeerLink::Tcp(c) => lock(&c.tx).idle(),
            PeerLink::Shm(c) => c.tx_idle(),
        })
    }

    fn remote_devices(&self) -> Vec<u32> {
        let base = self.shared.first_local_device();
        let local = base..base + self.shared.devices_per_proc;
        (0..self.shared.procs * self.shared.devices_per_proc)
            .filter(|d| !local.contains(d))
            .collect()
    }

    fn peer_gone(&self) -> Option<u32> {
        self.gone_peers().first().copied()
    }

    fn gone_peers(&self) -> Vec<u32> {
        // Shm links have no socket to EOF; probe peer liveness instead.
        for link in self.shared.conns.iter().flatten() {
            if let PeerLink::Shm(conn) = link {
                if !conn.peer_alive() {
                    self.shared.set_peer_gone(conn.peer_proc());
                }
            }
        }
        lock(&self.shared.peer_gone).iter().copied().collect()
    }

    fn stats(&self) -> NetStats {
        if self.primary {
            self.shared.stats.snapshot()
        } else {
            NetStats::default()
        }
    }

    fn peer_planes(&self) -> Vec<(u32, PlaneKind)> {
        self.shared.planes()
    }

    fn close(&mut self) -> bool {
        if !std::mem::replace(&mut self.closing, true) {
            self.shared.closing.fetch_add(1, Ordering::AcqRel);
        }
        // The links are the whole process's: a sibling host still running
        // may still have to send on them.
        self.shared.closing.load(Ordering::Acquire) == self.shared.devices_per_proc
            && self.shared.close_links()
    }

    fn take_tracer(&mut self) -> Tracer {
        std::mem::take(&mut self.tracer)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::wire::{EAGER_MAX, MAX_FRAME_PAYLOAD};

    /// The two endpoints of a loopback mesh (tcp, or shm through `shm_dir`).
    fn mesh_pair(shm_dir: Option<PathBuf>) -> [NetEndpoint; 2] {
        SocketPlane::loopback_pair(NetConfig::default(), shm_dir)
            .unwrap()
            .map(|mut eps| eps.pop().unwrap())
    }

    /// Receive on `ep`, pumping both sides the way the runtime's host
    /// progress loops do (coalescing flushes go out on pump).
    fn recv_blocking(ep: &mut NetEndpoint, other: &mut NetEndpoint) -> WireMsg {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            other.pump().unwrap();
            ep.pump().unwrap();
            if let Some(m) = ep.try_recv().unwrap() {
                return m;
            }
            assert!(Instant::now() < deadline, "timed out waiting for message");
            std::thread::yield_now();
        }
    }

    /// Process 0 of a two-process mesh whose peer is a thread that completes
    /// the handshake as process 1 and then runs `script` on its socket.
    fn mesh_with_fake_peer(
        script: impl FnOnce(TcpStream) + Send + 'static,
    ) -> (NetEndpoint, std::thread::JoinHandle<()>) {
        let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = l0.local_addr().unwrap().to_string();
        let fake = std::thread::spawn(move || {
            let s = TcpStream::connect(addr).unwrap();
            write_hello(&s, 1).unwrap();
            script(s);
        });
        let mut a = SocketPlane::establish(MeshOpts {
            my_proc: 0,
            procs: 2,
            devices_per_proc: 1,
            peer_addrs: vec!["unused".into(), "unused".into()],
            peer_hosts: vec![],
            shm_dir: None,
            listener: l0,
            config: NetConfig::default(),
        })
        .unwrap();
        (a.pop().unwrap(), fake)
    }

    pub(crate) fn deliver(dst_local: u32, data: Vec<u8>) -> WireMsg {
        WireMsg::Deliver {
            dst_local,
            win: 0,
            dst_off: 0,
            source: 1,
            tag: 9,
            notify: true,
            seq: 0,
            origin_device: 0,
            origin_local: 0,
            flush_id: 1,
            data,
        }
    }

    #[test]
    fn two_process_mesh_roundtrip_eager_and_rndz() {
        let [mut a0, mut b0] = mesh_pair(None);
        // Eager-class, then large-class, then a control message: FIFO order
        // must hold across the size-class boundary.
        let small = deliver(0, vec![1, 2, 3]);
        let large = deliver(0, vec![7u8; EAGER_MAX * 4]);
        a0.send(1, small.clone()).unwrap();
        a0.send(1, large.clone()).unwrap();
        let fin = WireMsg::Finished {
            device: 0,
            ranks: 1,
        };
        a0.send(1, fin.clone()).unwrap();
        assert_eq!(recv_blocking(&mut b0, &mut a0), small);
        assert_eq!(recv_blocking(&mut b0, &mut a0), large);
        assert_eq!(recv_blocking(&mut b0, &mut a0), fin);
        b0.send(
            0,
            WireMsg::Ack {
                origin_local: 0,
                flush_id: 1,
            },
        )
        .unwrap();
        assert_eq!(
            recv_blocking(&mut a0, &mut b0),
            WireMsg::Ack {
                origin_local: 0,
                flush_id: 1
            }
        );
        // Drain to idle.
        let deadline = Instant::now() + Duration::from_secs(10);
        while !(a0.idle() && b0.idle()) {
            a0.pump().unwrap();
            b0.pump().unwrap();
            assert!(Instant::now() < deadline, "transport never went idle");
        }
        let s = a0.stats();
        assert!(s.eager_msgs >= 2);
        assert_eq!(s.rndz_msgs, 1);
        assert_eq!(a0.remote_devices(), vec![1]);
        assert!(a0.peer_gone().is_none());
    }

    /// The `i`-th message of a soak: even ones eager (256 B), odd ones
    /// 8 KiB, above [`EAGER_MAX`] (a vectored tcp frame, a jumbo chain on
    /// shm). The index leads the payload, so FIFO and integrity are one
    /// comparison.
    pub(crate) fn soak_payload(i: u32) -> Vec<u8> {
        let len = if i.is_multiple_of(2) { 256 } else { 8 << 10 };
        let mut data = vec![(i % 251) as u8; len];
        data[..4].copy_from_slice(&i.to_le_bytes());
        data
    }

    #[test]
    fn soak_stream_preserves_fifo_exactly_once() {
        // 300 messages across the eager/large boundary, with pumps and
        // receive passes interleaved with the sends: every one arrives
        // once, in order, and nothing follows the last.
        let [mut a0, mut b0] = mesh_pair(None);
        let expect_next = |msg: WireMsg, next: &mut u32| match msg {
            WireMsg::Deliver { data, .. } => {
                assert!(data == soak_payload(*next), "FIFO broken at {next}");
                *next += 1;
            }
            other => panic!("unexpected message {other:?}"),
        };
        let n = 300u32;
        let mut next = 0u32;
        for i in 0..n {
            a0.send(1, deliver(0, soak_payload(i))).unwrap();
            a0.pump().unwrap();
            b0.pump().unwrap();
            while let Some(msg) = b0.try_recv().unwrap() {
                expect_next(msg, &mut next);
            }
        }
        while next < n {
            expect_next(recv_blocking(&mut b0, &mut a0), &mut next);
        }
        assert_eq!(b0.try_recv().unwrap(), None, "no duplicates delivered");
        let deadline = Instant::now() + Duration::from_secs(10);
        while !a0.idle() {
            a0.pump().unwrap();
            assert!(Instant::now() < deadline, "sender never drained");
        }
        assert_eq!(a0.stats().frames_sent, u64::from(n));
        assert_eq!(b0.stats().frames_recv, u64::from(n));
    }

    #[test]
    fn killed_peer_is_reported_not_hung() {
        // A fake peer process that completes the mesh handshake and then
        // dies (drops its socket). The surviving plane must surface
        // peer_gone instead of hanging or erroring mid-read.
        // Socket closes when the fake drops it: simulated process death.
        let (mut a0, fake) = mesh_with_fake_peer(drop);
        fake.join().unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while a0.peer_gone().is_none() {
            assert_eq!(a0.try_recv().unwrap(), None);
            assert!(Instant::now() < deadline, "EOF never surfaced");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(a0.gone_peers(), vec![1]);
        // Sends to the dead peer are silently dropped, like mpsc; whether
        // they surface a peer_gone (not an error) depends on kernel buffer
        // timing, so just assert they never fail hard.
        for _ in 0..4 {
            a0.send(1, deliver(0, vec![0; 32])).unwrap();
            a0.pump().unwrap();
        }
    }

    #[test]
    fn tcp_large_messages_are_single_copy_each_direction() {
        let [mut a0, mut b0] = mesh_pair(None);
        let n = 8u32;
        for i in 0..n {
            a0.send(1, deliver(0, vec![i as u8; EAGER_MAX * 4]))
                .unwrap();
        }
        for i in 0..n {
            match recv_blocking(&mut b0, &mut a0) {
                WireMsg::Deliver { data, .. } => assert_eq!(data[0], i as u8),
                other => panic!("unexpected message {other:?}"),
            }
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while !a0.idle() {
            a0.pump().unwrap();
            assert!(Instant::now() < deadline, "sender never drained");
        }
        let sent = a0.stats();
        let recvd = b0.stats();
        assert_eq!(sent.rndz_msgs, u64::from(n));
        // The acceptance criterion: one payload copy per direction and one
        // frame for every large-class message, proven by the counters.
        assert_eq!(sent.copies_tx, u64::from(n), "tx copies per large payload");
        assert_eq!(recvd.copies_rx, u64::from(n), "rx copies per large payload");
        assert_eq!(sent.frames_sent, u64::from(n), "frames per large message");
        assert!(sent.vectored_writes >= u64::from(n));
    }

    #[test]
    fn a_staged_large_payload_is_the_callers_buffer() {
        // `copies_tx` counts the kernel write as the only tx copy of a
        // large payload, so staging must keep the caller's allocation.
        let [a0, _b0] = mesh_pair(None);
        let data = vec![7u8; VECTORED_MIN];
        let ptr = data.as_ptr();
        let mut tx = conn_tx(&a0);
        tx.enqueue(1, deliver(0, data), &a0.shared.stats);
        assert_eq!(tx.big.len(), 1);
        assert_eq!(tx.big[0].data.as_ptr(), ptr, "payload copied while staging");
        tx.wbuf.clear();
        tx.big.clear();
    }

    #[test]
    fn receive_machine_resumes_frames_trickled_byte_by_byte() {
        // A fake peer that completes the handshake, then dribbles an
        // encoded Data frame one byte at a time. The receive machine must
        // resume the partial frame across `try_recv` calls and deliver it
        // intact.
        let msg = deliver(0, vec![42u8; 97]);
        let wire_msg = msg.clone();
        let (mut a0, fake) = mesh_with_fake_peer(move |s| {
            let (head, data) = wire_msg.into_parts();
            let mut payload = head;
            payload.extend_from_slice(&data);
            let frame = Frame {
                kind: FrameKind::Data,
                dst_device: 0,
                seq: 0,
                payload,
            };
            for byte in frame.encode() {
                (&s).write_all(&[byte]).unwrap();
                std::thread::yield_now();
            }
            // Keep the socket open until the plane confirms delivery.
            let mut sink = [0u8; 64];
            let _ = (&s).read(&mut sink);
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        let got = loop {
            if let Some(m) = a0.try_recv().unwrap() {
                break m;
            }
            assert!(Instant::now() < deadline, "trickled frame never arrived");
            std::thread::yield_now();
        };
        assert_eq!(got, msg);
        drop(a0);
        fake.join().unwrap();
    }

    #[test]
    fn bidirectional_bulk_from_one_thread_cannot_deadlock() {
        // 32 MiB posted in *each* direction before anyone reads, then one
        // thread pumps both ends: far more than the socket buffers hold,
        // so any write that waited for the peer to read would wait forever.
        let [mut a0, mut b0] = mesh_pair(None);
        let n = 32u8;
        for i in 0..n {
            a0.send(1, deliver(0, vec![i; 1 << 20])).unwrap();
            b0.send(0, deliver(0, vec![!i; 1 << 20])).unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        let (mut got_a, mut got_b) = (0u8, 0u8);
        while got_a < n || got_b < n || !(a0.idle() && b0.idle()) {
            a0.pump().unwrap();
            b0.pump().unwrap();
            for (ep, got, flip) in [(&mut a0, &mut got_a, true), (&mut b0, &mut got_b, false)] {
                while let Some(msg) = ep.try_recv().unwrap() {
                    let WireMsg::Deliver { data, .. } = msg else {
                        panic!("unexpected message {msg:?}");
                    };
                    let want = if flip { !*got } else { *got };
                    assert!(data.len() == 1 << 20 && data.iter().all(|&b| b == want));
                    *got += 1;
                }
            }
            assert!(Instant::now() < deadline, "bulk exchange wedged");
        }
    }

    /// The send half of `ep`'s only tcp connection.
    fn conn_tx(ep: &NetEndpoint) -> std::sync::MutexGuard<'_, ConnTx> {
        match ep.shared.conns.iter().flatten().next() {
            Some(PeerLink::Tcp(conn)) => lock(&conn.tx),
            _ => panic!("no tcp link"),
        }
    }

    /// The unwritten rest of a connection's staged stream, flattened.
    fn staged_rest(tx: &ConnTx) -> Vec<u8> {
        let (mut out, mut pos) = (Vec::new(), 0);
        for b in &tx.big {
            out.extend_from_slice(&tx.wbuf[pos..b.wmark]);
            out.extend_from_slice(&b.head);
            out.extend_from_slice(&b.data);
            pos = b.wmark;
        }
        out.extend_from_slice(&tx.wbuf[pos..]);
        out.split_off(tx.flushed)
    }

    #[test]
    fn partial_flush_drops_what_was_written_at_every_offset() {
        // Stage short and large frames interleaved (one large frame at the
        // very front, two back to back) and cut the stream at every byte:
        // what is left must be exactly the unwritten suffix, with `flushed`
        // pointing only into a leading large frame.
        let [a0, _b0] = mesh_pair(None);
        let stage = |tx: &mut ConnTx| {
            tx.wbuf.clear();
            tx.big.clear();
            tx.flushed = 0;
            let mut byte = 0u8;
            let mut next = |n: usize| -> Vec<u8> {
                (0..n)
                    .map(|_| {
                        byte = byte.wrapping_add(1);
                        byte
                    })
                    .collect()
            };
            for (short, large) in [(0, 9), (5, 7), (0, 4), (3, 0)] {
                tx.wbuf.extend_from_slice(&next(short));
                if large > 0 {
                    tx.big.push(BigOut {
                        wmark: tx.wbuf.len(),
                        head: next(2),
                        data: next(large),
                    });
                }
            }
        };
        let mut tx = conn_tx(&a0);
        stage(&mut tx);
        let all = staged_rest(&tx);
        assert_eq!(all.len(), 8 + 3 * 2 + 20);
        for at in 0..all.len() {
            stage(&mut tx);
            tx.compact(at);
            assert_eq!(staged_rest(&tx), all[at..], "cut at {at}");
            let into_large = tx
                .big
                .first()
                .is_some_and(|b| b.wmark == 0 && tx.flushed < b.head.len() + b.data.len());
            assert!(tx.flushed == 0 || into_large, "cut at {at}");
            // A second partial write resumes from the compacted stage.
            let more = (all.len() - at) / 2;
            let resume = tx.flushed;
            tx.compact(resume + more);
            assert_eq!(staged_rest(&tx), all[at + more..], "cut at {at}+{more}");
        }
        tx.wbuf.clear();
        tx.big.clear();
        tx.flushed = 0;
    }

    #[test]
    fn a_host_that_does_not_pop_backpressures_the_links() {
        // 48 MiB toward a process that drives its links but whose host never
        // pops: the inbox must stop growing at the high-water mark (plus one
        // pass's release cap), the socket buffers fill behind it, and the
        // sender holds the rest staged. Nothing is lost or reordered once
        // the host pops.
        let [mut a0, mut b0] = mesh_pair(None);
        let n = 3 * INBOX_HIGH_WATER as u32;
        let payload = |i: u32| {
            let mut data = vec![0u8; 16 << 10];
            data[..4].copy_from_slice(&i.to_le_bytes());
            data
        };
        for i in 0..n {
            a0.send(1, deliver(0, payload(i))).unwrap();
        }
        for _ in 0..2000 {
            a0.pump().unwrap();
            b0.shared.drain_links();
            let depth = b0.shared.inbox_depth[0].load(Ordering::Relaxed);
            assert!(depth < INBOX_HIGH_WATER + RX_RELEASE_CAP as isize);
        }
        assert!(
            !a0.idle(),
            "the sender ran ahead of a receiver that never popped"
        );
        for i in 0..n {
            match recv_blocking(&mut b0, &mut a0) {
                WireMsg::Deliver { data, .. } => assert_eq!(data, payload(i)),
                other => panic!("unexpected message {other:?}"),
            }
        }
        assert_eq!(b0.shared.inbox_depth[0].load(Ordering::Relaxed), 0);
    }

    #[test]
    fn orderly_close_leaves_no_unread_bytes_to_reset_the_peer() {
        // Frames from the peer land after this side's last pass and are
        // never received. Dropping the endpoint with them unread would
        // reset the connection (the peer's read fails, and on a real link
        // this side's unsent tail is discarded); after `close` the peer
        // reads this side's last message and a clean EOF.
        let (go, wait_go) = mpsc::channel();
        let (told, peer) = mpsc::channel();
        let (mut a0, fake) = mesh_with_fake_peer(move |s| {
            wait_go.recv().unwrap();
            for seq in 0..3 {
                let (mut payload, data) = deliver(0, vec![seq as u8; 64]).into_parts();
                payload.extend_from_slice(&data);
                (&s).write_all(&frame(FrameKind::Data, seq, payload))
                    .unwrap();
            }
            told.send(Ok(Vec::new())).unwrap();
            let mut got = Vec::new();
            told.send((&s).read_to_end(&mut got).map(|_| got)).unwrap();
        });
        let last = WireMsg::Finished {
            device: 0,
            ranks: 1,
        };
        a0.send(1, last.clone()).unwrap();
        a0.pump().unwrap();
        go.send(()).unwrap();
        peer.recv().unwrap().unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while !a0.close() {
            assert!(Instant::now() < deadline, "close never completed");
            std::thread::yield_now();
        }
        // Closed: further sends are dropped like sends to an exited peer.
        a0.send(1, last.clone()).unwrap();
        assert!(a0.idle());
        drop(a0);
        fake.join().unwrap();
        let got = peer.recv().unwrap().expect("peer read was reset");
        let (head, data) = last.into_parts();
        assert!(data.is_empty());
        let sent = Frame {
            kind: FrameKind::Data,
            dst_device: 1,
            seq: 0,
            payload: head,
        };
        assert_eq!(got, sent.encode());
    }

    /// `try_recv` on a plane whose peer wrote `bytes` after the handshake
    /// and then closed, polled until it yields an error: the messages
    /// delivered before it, and the error.
    fn recv_until_error(bytes: Vec<u8>) -> (Vec<WireMsg>, NetError) {
        let (mut a0, fake) = mesh_with_fake_peer(move |s| (&s).write_all(&bytes).unwrap());
        fake.join().unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut delivered = Vec::new();
        loop {
            match a0.try_recv() {
                Ok(None) => {}
                Ok(Some(msg)) => delivered.push(msg),
                Err(e) => return (delivered, e),
            }
            assert!(Instant::now() < deadline, "hostile bytes never surfaced");
            std::thread::yield_now();
        }
    }

    /// [`recv_until_error`] on bytes of which nothing may be delivered.
    fn recv_error_after(bytes: Vec<u8>) -> NetError {
        let (delivered, e) = recv_until_error(bytes);
        assert!(
            delivered.is_empty(),
            "hostile bytes delivered {delivered:?}"
        );
        e
    }

    fn frame(kind: FrameKind, seq: u64, payload: Vec<u8>) -> Vec<u8> {
        Frame {
            kind,
            dst_device: 0,
            seq,
            payload,
        }
        .encode()
    }

    #[test]
    fn hostile_frames_are_typed_errors() {
        // The kind bytes of the retired credit and rendezvous frames, each
        // declaring a 64 MiB payload: rejected on the header, before a byte
        // of the (never sent) payload is buffered or waited for.
        for kind in 2..=5u8 {
            let mut retired = frame(FrameKind::Data, 0, Vec::new());
            retired[4] = kind;
            let len_at = FRAME_HEADER_BYTES - 4;
            retired[len_at..].copy_from_slice(&(MAX_FRAME_PAYLOAD as u32).to_le_bytes());
            assert_eq!(
                recv_error_after(retired),
                NetError::Codec(CodecError::BadKind { kind })
            );
        }
        let mut bad_magic = frame(FrameKind::Data, 0, vec![0; 8]);
        bad_magic[0] ^= 0xff;
        assert!(matches!(
            recv_error_after(bad_magic),
            NetError::Codec(CodecError::BadMagic { .. })
        ));
        let mut bad_kind = frame(FrameKind::Data, 0, vec![0; 8]);
        bad_kind[4] = 0xee;
        assert_eq!(
            recv_error_after(bad_kind),
            NetError::Codec(CodecError::BadKind { kind: 0xee })
        );
        // EOF mid-frame: the header promises 8 payload bytes, 3 arrive.
        let mut cut = frame(FrameKind::Data, 0, vec![0; 8]);
        cut.truncate(FRAME_HEADER_BYTES + 3);
        assert!(matches!(
            recv_error_after(cut),
            NetError::Codec(CodecError::Truncated { .. })
        ));
        // Whole data frames numbered from 1: frame 0 never comes. The first
        // header fails the stream, so nothing waits for the gap to fill.
        let msg = deliver(0, vec![5; 64]);
        let data_frame = |seq| {
            let (mut payload, data) = msg.clone().into_parts();
            payload.extend_from_slice(&data);
            frame(FrameKind::Data, seq, payload)
        };
        let gap: Vec<u8> = (1..=8).flat_map(data_frame).collect();
        assert_eq!(
            recv_error_after(gap),
            NetError::Codec(CodecError::OutOfSequence {
                expected: 0,
                got: 1
            })
        );
        // A hello after the handshake (here behind frame 0): the dialer's
        // first hello is the only one the protocol has.
        let hello = frame(FrameKind::Hello, 0, 1u32.to_le_bytes().to_vec());
        let (delivered, e) = recv_until_error([data_frame(0), hello].concat());
        assert_eq!(delivered, vec![msg.clone()]);
        assert_eq!(e, NetError::Codec(CodecError::BadKind { kind: 0 }));
        // Frame 0 twice: the first is delivered, the repeat fails the
        // stream instead of being dropped as a duplicate.
        let (delivered, e) = recv_until_error([data_frame(0), data_frame(0)].concat());
        assert_eq!(delivered, vec![msg.clone()]);
        assert_eq!(
            e,
            NetError::Codec(CodecError::OutOfSequence {
                expected: 1,
                got: 0
            })
        );
    }

    #[cfg(unix)]
    #[test]
    fn same_host_mesh_negotiates_shm_plane() {
        let dir = std::env::temp_dir().join(format!("dcuda-shm-mesh-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let [mut a0, mut b0] = mesh_pair(Some(dir.clone()));
        assert_eq!(a0.peer_planes(), vec![(1, PlaneKind::Shm)]);
        assert_eq!(b0.peer_planes(), vec![(0, PlaneKind::Shm)]);
        // Same contract as the socket mesh: FIFO across the eager/rndz
        // boundary, single payload copy per direction.
        let small = deliver(0, vec![1, 2, 3]);
        let large = deliver(0, vec![9u8; EAGER_MAX * 4]);
        a0.send(1, small.clone()).unwrap();
        a0.send(1, large.clone()).unwrap();
        assert_eq!(recv_blocking(&mut b0, &mut a0), small);
        assert_eq!(recv_blocking(&mut b0, &mut a0), large);
        let fin = WireMsg::Finished {
            device: 1,
            ranks: 1,
        };
        b0.send(0, fin.clone()).unwrap();
        assert_eq!(recv_blocking(&mut a0, &mut b0), fin);
        let sent = a0.stats();
        assert_eq!(sent.shm_msgs, 2);
        assert!(sent.shm_bytes_sent > 0);
        assert_eq!(sent.copies_tx, 2); // one per payload-bearing message
        assert!(a0.peer_gone().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }
}
