//! The transport boundary of the threaded runtime.
//!
//! A [`Transport`] is one device's endpoint on the inter-host plane: it can
//! address any device in the world by id and receive the messages other
//! devices addressed to it. The runtime's host threads are written against
//! this trait only, so the plane is swappable:
//!
//! * [`InProcessPlane`] — the original shared-memory path: every device
//!   lives in one OS process and the plane is a set of `std::sync::mpsc`
//!   channels. Zero configuration, zero copies beyond the channel send.
//! * [`crate::socket::SocketPlane`] — the multi-process backend: devices
//!   are partitioned across OS processes connected by a TCP mesh (or
//!   same-host shared-memory rings), with the length-prefixed
//!   [`crate::wire`] codec, small-message coalescing and single-copy
//!   streaming of large payloads; flow control is the medium's own.
//!
//! No plane owns a thread: [`Transport::try_recv`] (inbound) and
//! [`Transport::pump`] (outbound) are the only points at which bytes move,
//! for every link kind (and, once the world is done, [`Transport::close`]).

use crate::wire::{CodecError, WireMsg};
use dcuda_trace::Tracer;
use std::sync::mpsc;

/// Transport-layer failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// An OS-level socket failure (rendered, since `io::Error` is not
    /// `Clone`).
    Io(String),
    /// A malformed byte stream.
    Codec(CodecError),
    /// A peer process disappeared (connection EOF or reset) before the
    /// cluster reached quiescence.
    PeerGone {
        /// Process index of the lost peer.
        proc: u32,
    },
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "socket error: {e}"),
            NetError::Codec(e) => write!(f, "wire codec error: {e}"),
            NetError::PeerGone { proc } => write!(f, "peer process {proc} disappeared"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<CodecError> for NetError {
    fn from(e: CodecError) -> Self {
        NetError::Codec(e)
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e.to_string())
    }
}

/// Per-endpoint transport statistics (all zero on the in-process backend).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Frames written to sockets.
    pub frames_sent: u64,
    /// Frames received from sockets (post-dedup).
    pub frames_recv: u64,
    /// Bytes written (headers + payloads).
    pub bytes_sent: u64,
    /// Eager-class messages sent (whole encoding within `EAGER_MAX`).
    pub eager_msgs: u64,
    /// Large-class messages sent (the name is MPI's "rendezvous" class;
    /// there is no handshake): streamed, never staged — one vectored frame
    /// on tcp, a record chain on shm.
    pub rndz_msgs: u64,
    /// Socket writes that flushed more than one coalesced frame.
    pub coalesced_flushes: u64,
    /// Frames retransmitted after an injected drop.
    pub net_retries: u64,
    /// Duplicate frames suppressed by the sequence window.
    pub net_dups_suppressed: u64,
    /// Messages that moved over shared-memory rings (same-host plane).
    pub shm_msgs: u64,
    /// Bytes written into shared-memory rings.
    pub shm_bytes_sent: u64,
    /// Send-side payload copy events: each time the bytes of a
    /// payload-bearing message are traversed on their way out (staging
    /// into a buffer, the socket write, or the ring memcpy each count
    /// one). A zero-copy fast path shows exactly one per message.
    pub copies_tx: u64,
    /// Receive-side payload copy events (kernel read or ring memcpy into
    /// the final delivery buffer, plus any re-staging).
    pub copies_rx: u64,
    /// Socket flushes that used a vectored (header+payload iovec) write.
    pub vectored_writes: u64,
    /// Transport messages drained by dedicated progress threads instead of
    /// the owning host loop (zero in inline-progress mode).
    pub progress_frames: u64,
    /// Progress-pool work steals: passes where a worker progressed a rank
    /// homed on another worker.
    pub steals: u64,
}

impl NetStats {
    /// Merge another endpoint's statistics into this one.
    pub fn absorb(&mut self, other: NetStats) {
        self.frames_sent += other.frames_sent;
        self.frames_recv += other.frames_recv;
        self.bytes_sent += other.bytes_sent;
        self.eager_msgs += other.eager_msgs;
        self.rndz_msgs += other.rndz_msgs;
        self.coalesced_flushes += other.coalesced_flushes;
        self.net_retries += other.net_retries;
        self.net_dups_suppressed += other.net_dups_suppressed;
        self.shm_msgs += other.shm_msgs;
        self.shm_bytes_sent += other.shm_bytes_sent;
        self.copies_tx += other.copies_tx;
        self.copies_rx += other.copies_rx;
        self.vectored_writes += other.vectored_writes;
        self.progress_frames += other.progress_frames;
        self.steals += other.steals;
    }
}

/// Which plane a peer-pair connection negotiated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlaneKind {
    /// Same-process mpsc channels.
    InProcess,
    /// TCP socket mesh.
    Tcp,
    /// Same-host shared-memory rings.
    Shm,
}

impl PlaneKind {
    /// Stable lowercase name (report JSON, trace metadata).
    pub fn as_str(self) -> &'static str {
        match self {
            PlaneKind::InProcess => "inprocess",
            PlaneKind::Tcp => "tcp",
            PlaneKind::Shm => "shm",
        }
    }
}

/// One device's endpoint on the inter-host plane.
///
/// Contract (what the host threads rely on):
/// * per-peer FIFO: two messages sent to the same destination device are
///   received there in send order;
/// * `send` to a device whose process already exited is a silent no-op
///   (matching the mpsc semantics the runtime shuts down with);
/// * `try_recv` and `pump` are the only progress points: a plane owns no
///   thread, so nothing moves between calls. Neither blocks. `try_recv`
///   drives receive progress when nothing is queued for this device;
///   `pump` drives deferred sends (coalescing flushes, retransmit queues,
///   writes the socket or ring took only part of) and reads nothing — no
///   send ever waits on something the peer sends back. Both must be called
///   regularly by whoever drives the owning host engine, one caller at a
///   time per endpoint. `close` is the same kind of step for the end of a
///   clean run.
pub trait Transport: Send {
    /// Send `msg` to device `peer` (any world device, including local ones).
    fn send(&mut self, peer: u32, msg: WireMsg) -> Result<(), NetError>;

    /// Receive the next message addressed to this device, if any (driving
    /// receive progress first when none is queued).
    fn try_recv(&mut self) -> Result<Option<WireMsg>, NetError>;

    /// Drive deferred sends. Returns `true` if anything moved toward a
    /// peer.
    fn pump(&mut self) -> Result<bool, NetError>;

    /// No deferred work pending (safe to consider this endpoint quiescent).
    fn idle(&self) -> bool {
        true
    }

    /// World devices whose host lives in *another* process (the runtime
    /// broadcasts rank-finish announcements to exactly these).
    fn remote_devices(&self) -> Vec<u32> {
        Vec::new()
    }

    /// A peer process that vanished, if any: the first one noticed.
    fn peer_gone(&self) -> Option<u32> {
        None
    }

    /// Every peer process that vanished so far. Whether that is benign is
    /// the host's call: a process all of whose ranks had announced their
    /// finish simply left first.
    fn gone_peers(&self) -> Vec<u32> {
        self.peer_gone().into_iter().collect()
    }

    /// Endpoint statistics (zero for in-process planes).
    fn stats(&self) -> NetStats {
        NetStats::default()
    }

    /// The plane each remote peer *process* negotiated, as
    /// `(peer_proc, kind)` pairs (empty for single-process planes).
    fn peer_planes(&self) -> Vec<(u32, PlaneKind)> {
        Vec::new()
    }

    /// One nonblocking step of the orderly close, for a host whose world is
    /// quiescent: stop sending, keep reading, and report `true` once every
    /// peer process has closed its side too (a socket link sends its FIN
    /// when all endpoints of the process have called this and its staged
    /// bytes are out). A host calls it until `true`, or a deadline of its
    /// own, before dropping the endpoint; dropping without it is the abrupt
    /// close a failed run wants. Planes with nothing to close say `true`.
    fn close(&mut self) -> bool {
        true
    }

    /// Surrender the endpoint's trace recorder (net send/recv/coalesce
    /// instants; disabled and empty unless the plane was built traced).
    fn take_tracer(&mut self) -> Tracer {
        Tracer::disabled()
    }
}

/// The shared-memory backend: one mpsc channel per device, all in one
/// process. This is exactly the plane the runtime used before the
/// transport boundary existed, now behind the trait.
pub struct InProcessPlane;

/// One device's endpoint on an [`InProcessPlane`].
pub struct InProcessEndpoint {
    peers: Vec<mpsc::Sender<WireMsg>>,
    inbox: mpsc::Receiver<WireMsg>,
}

impl InProcessPlane {
    /// Build endpoints for a world of `devices` devices, index-aligned.
    pub fn new_world(devices: u32) -> Vec<InProcessEndpoint> {
        let mut txs = Vec::with_capacity(devices as usize);
        let mut rxs = Vec::with_capacity(devices as usize);
        for _ in 0..devices {
            let (tx, rx) = mpsc::channel::<WireMsg>();
            txs.push(tx);
            rxs.push(rx);
        }
        rxs.into_iter()
            .map(|inbox| InProcessEndpoint {
                peers: txs.clone(),
                inbox,
            })
            .collect()
    }
}

impl Transport for InProcessEndpoint {
    fn send(&mut self, peer: u32, msg: WireMsg) -> Result<(), NetError> {
        // A closed peer means its host already exited (its ranks are done);
        // dropping the message mirrors the pre-trait mpsc semantics.
        if let Some(tx) = self.peers.get(peer as usize) {
            let _ = tx.send(msg);
        }
        Ok(())
    }

    fn try_recv(&mut self) -> Result<Option<WireMsg>, NetError> {
        match self.inbox.try_recv() {
            Ok(msg) => Ok(Some(msg)),
            // Disconnected == all other hosts exited; nothing more will come.
            Err(mpsc::TryRecvError::Empty) | Err(mpsc::TryRecvError::Disconnected) => Ok(None),
        }
    }

    fn pump(&mut self) -> Result<bool, NetError> {
        Ok(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_process_plane_routes_by_device() {
        let mut eps = InProcessPlane::new_world(3);
        let mut e2 = eps.pop().expect("endpoint 2");
        let mut e1 = eps.pop().expect("endpoint 1");
        let mut e0 = eps.pop().expect("endpoint 0");
        e0.send(
            1,
            WireMsg::Finished {
                device: 0,
                ranks: 1,
            },
        )
        .unwrap();
        e0.send(
            2,
            WireMsg::Finished {
                device: 0,
                ranks: 2,
            },
        )
        .unwrap();
        assert_eq!(
            e1.try_recv().unwrap(),
            Some(WireMsg::Finished {
                device: 0,
                ranks: 1
            })
        );
        assert_eq!(e1.try_recv().unwrap(), None);
        assert_eq!(
            e2.try_recv().unwrap(),
            Some(WireMsg::Finished {
                device: 0,
                ranks: 2
            })
        );
        assert!(e0.idle());
        assert!(e0.remote_devices().is_empty());
        assert_eq!(e0.stats(), NetStats::default());
    }

    #[test]
    fn send_to_dead_peer_is_silent() {
        let mut eps = InProcessPlane::new_world(2);
        drop(eps.pop());
        let mut e0 = eps.pop().expect("endpoint 0");
        e0.send(
            1,
            WireMsg::Finished {
                device: 0,
                ranks: 1,
            },
        )
        .unwrap();
        e0.send(
            7,
            WireMsg::Finished {
                device: 0,
                ranks: 1,
            },
        )
        .unwrap(); // out of range: ignored
    }
}
