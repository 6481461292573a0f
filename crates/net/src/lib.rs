//! `dcuda-net` — the multi-process transport of the dCUDA reproduction.
//!
//! The threaded runtime (`dcuda-rt`) models each node's device event
//! handler as a host thread and each dCUDA rank as a worker thread; until
//! this crate, all of them had to share one OS process and the inter-host
//! plane was a set of in-memory channels. `dcuda-net` makes that plane a
//! first-class, swappable boundary:
//!
//! * [`Transport`] — the trait host threads are written against, with the
//!   original shared-memory path as [`InProcessPlane`];
//! * [`wire`] — the length-prefixed codec: semantic [`WireMsg`]s (put
//!   deliveries, flush acks, barrier tokens, finish announcements) inside
//!   connection-level [`Frame`]s carrying the sequence numbers of the
//!   exactly-once link discipline (flow control is the byte stream's own:
//!   the credits of the paper's PCIe command queues live in
//!   `dcuda-queues`, not on a socket);
//! * [`SocketPlane`] — the `MultiProcess` backend: a TCP mesh between the
//!   worker processes of a launch, with small-message coalescing,
//!   single-copy vectored writes of large payloads and deterministic
//!   byte-stream fault injection ([`NetFaults`]);
//! * [`launch`] — the coordinator/worker handshake and child-process
//!   reaping used by the `dcuda-launch` binary.
//!
//! Everything is dependency-free `std` networking: no async runtime, no
//! serde — the codec is hand-rolled and property-tested.

#![warn(missing_docs)]

pub mod launch;
mod link;
pub mod shm;
pub mod socket;
pub mod transport;
pub mod wire;

pub use launch::LaunchError;
pub use link::NetFaults;
pub use shm::shm_supported;
pub use socket::{MeshOpts, NetConfig, NetEndpoint, SocketPlane};
pub use transport::{InProcessEndpoint, InProcessPlane, NetError, NetStats, PlaneKind, Transport};
pub use wire::{CodecError, Frame, FrameKind, WireMsg, EAGER_MAX};
