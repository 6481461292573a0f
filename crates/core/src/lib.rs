//! The dCUDA programming model — device-side remote memory access with
//! target notification — and its runtime, on the simulated GPU cluster.
//!
//! This crate is the reproduction of the paper's primary contribution
//! (Gysi, Bär, Hoefler: *dCUDA: Hardware Supported Overlap of Computation and
//! Communication*, SC'16). It provides:
//!
//! * the **programming model** ([`kernel`]): ranks (= CUDA blocks) implement
//!   [`RankKernel`]; inside a step they do real math on their window memory,
//!   accrue hardware cost charges, and issue `put_notify` / `get_notify` /
//!   `put` operations; they suspend on `wait_notifications`, `barrier` or
//!   `flush` — the same API surface as the paper's Figure 2 listing;
//! * **windows** ([`window`]): per-rank memory ranges registered into a
//!   global address space; windows of ranks sharing a device may physically
//!   overlap, enabling the zero-copy fast path;
//! * the **runtime** ([`world`]): the event-driven model of the paper's
//!   architecture (Figure 4/5) — device-side library, command / ack /
//!   notification queues over PCIe, one host event handler and per-rank
//!   block managers per node, MPI transport between nodes — driven on the
//!   [`dcuda_des`] kernel with the [`dcuda_device`] and [`dcuda_fabric`]
//!   models supplying timing;
//! * the **MPI-CUDA baseline driver** ([`baseline`]): the traditional
//!   host-controlled alternation of kernel launches and MPI phases that the
//!   paper compares against (Figure 1, left).

#![warn(missing_docs)]

pub mod barrier;
pub mod baseline;
pub mod kernel;
pub mod pool;
pub mod report;
pub mod spec;
pub mod types;
pub mod verify_mode;
pub mod window;
pub mod world;

pub use kernel::{RankCtx, RankKernel, Suspend, IBARRIER_WIN};
pub use report::RunReport;
pub use spec::{HostSpec, SystemSpec};
pub use types::{Rank, Tag, WinId};
pub use window::WindowSpec;
pub use world::ClusterSim;

// Re-exported so downstream crates can consume traces without a direct
// `dcuda-trace` dependency.
pub use dcuda_trace::{TraceSummary, Tracer};
