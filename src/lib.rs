//! dCUDA-rs — reproduction of "dCUDA: Hardware Supported Overlap of
//! Computation and Communication" (Gysi, Bär, Hoefler; SC'16) on a
//! deterministic simulated GPU cluster.
//!
//! This root crate re-exports the workspace members so examples and
//! integration tests can reach the whole stack through one dependency:
//!
//! * [`des`] — discrete-event simulation kernel,
//! * [`fabric`] — interconnect (InfiniBand-like) and PCIe models,
//! * [`device`] — GPU device model (SMs, occupancy, memory system),
//! * [`queues`] — real lock-free host–device queue implementations,
//! * [`core`] — the dCUDA programming model and runtime (the paper's
//!   contribution),
//! * [`rt`] — native threaded executor for the blocking API,
//! * [`net`] — multi-process socket transport and launch control plane,
//! * [`apps`] — mini-applications and microbenchmarks from the evaluation.
//!
//! [`workloads`] holds the backend-conformance programs the `dcuda-launch`
//! binary runs identically on the in-process and multi-process transports
//! (names for entries of the shared program table `rt::programs::Program`).
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-vs-measured record of every evaluation figure.

pub mod workloads;

pub use dcuda_apps as apps;
pub use dcuda_bench as bench;
pub use dcuda_core as core;
pub use dcuda_des as des;
pub use dcuda_device as device;
pub use dcuda_fabric as fabric;
pub use dcuda_net as net;
pub use dcuda_queues as queues;
pub use dcuda_rt as rt;
pub use dcuda_sched as sched;
pub use dcuda_trace as trace;
