//! Discrete-event simulation kernel used by every dCUDA substrate model.
//!
//! The crate provides the minimal, deterministic machinery for
//! execution-driven simulation of a GPU cluster:
//!
//! * [`SimTime`] / [`SimDuration`] — picosecond-resolution virtual time,
//! * [`EventQueue`] — a stable (FIFO among equal timestamps) pending-event set
//!   with re-armable timer slots,
//! * [`PsResource`] — an egalitarian processor-sharing resource, the model we
//!   use for streaming multiprocessors and memory interfaces (resident blocks
//!   share SM throughput equally; a stalled block consumes none — this is the
//!   latency-hiding mechanism the dCUDA paper builds on),
//! * [`FifoResource`] — a store-and-forward serializing server, the model we
//!   use for NIC and PCIe link serialization,
//! * [`stats`] — counters, histograms and time-weighted statistics.
//!
//! The kernel is generic over the event payload type: domain crates define an
//! event enum and drive `while let Some((t, ev)) = q.pop() { world.handle(...) }`.
//! Determinism is guaranteed by the (time, sequence-number) total order.

#![warn(missing_docs)]

pub mod check;
pub mod fifo;
pub mod ps;
pub mod queue;
pub mod rng;
pub mod slab;
pub mod stats;
pub mod time;

pub use fifo::FifoResource;
pub use ps::{PsJobId, PsResource};
pub use queue::EventQueue;
pub use rng::SplitMix64;
pub use slab::{BitSet, Slab, SlotKey};
pub use time::{SimDuration, SimTime};
