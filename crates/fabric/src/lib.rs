//! Interconnect and PCI-Express models for the simulated GPU cluster.
//!
//! The dCUDA paper's testbed is ten nodes with one Tesla K80 each, connected
//! by 4x EDR InfiniBand; the paper measures ~6 GB/s device-direct bandwidth
//! and a ~19 µs end-to-end notified-put pipeline. This crate provides the
//! timing substrate for that environment:
//!
//! * [`NetworkSpec`] / [`Network`] — a LogGP-style fully connected fabric
//!   with per-node NIC egress serialization, fixed wire latency, per-message
//!   overhead, and the OpenMPI *host-staging* policy (large device buffers
//!   are staged through pinned host memory, trading extra latency for higher
//!   bandwidth — paper §IV-C).
//! * [`PcieSpec`] / [`PcieLink`] — the host–device link used for queue
//!   transactions (single-transaction enqueues, paper §III-C) and DMA copies.
//!
//! All models are *time functions*: they mutate internal contention state and
//! return delivery instants; the caller schedules the corresponding events.
//! Like the paper's MPI over InfiniBand, the fabric is reliable and ordered:
//! it has no fault model. Fault injection for real traffic belongs to the
//! transport (`dcuda-net`'s `NetFaults`).

#![warn(missing_docs)]

pub mod network;
pub mod pcie;
pub mod spec;

pub use network::{Delivery, MsgRecord, Network, NodeId, TransferPath};
pub use pcie::{PcieLink, PcieOp, PcieRecord};
pub use spec::{NetworkSpec, PcieSpec};
