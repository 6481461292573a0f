//! GPU device model for the dCUDA simulation.
//!
//! Models a Tesla-K80-class accelerator (one GK210 chip) at the granularity
//! the dCUDA paper cares about: **blocks** are the unit of scheduling and
//! communication (the paper maps one MPI-style rank to each block), and the
//! phenomena that matter are
//!
//! * **occupancy** — register file / thread / block limits bound how many
//!   blocks are resident ("in flight") per SM; dCUDA caps the launch at that
//!   bound so every rank is schedulable (no preemption on Kepler),
//! * **latency hiding** — an SM shares its throughput among *runnable*
//!   resident blocks; a block stalled on a notification consumes nothing, so
//!   spare parallelism absorbs communication latency,
//! * **memory bandwidth** — a device-wide resource that a single block
//!   cannot saturate (bounded bytes-in-flight, Little's law), but hundreds of
//!   blocks can.
//!
//! [`Device`] serves its SMs itself, each as an equal-share
//! processor-sharing server (FLOP-denominated), all busy SMs in one pass,
//! and owns one capped processor-sharing resource
//! ([`dcuda_des::PsResource`]) for the memory interface (byte-denominated).
//! Block work is submitted as a [`BlockCharge`]; the block's step completes
//! when both its compute and memory demands drain (roofline-style overlap
//! of the two pipelines).

#![warn(missing_docs)]

pub mod charge;
pub mod device;
pub mod occupancy;
pub mod spec;

pub use charge::BlockCharge;
pub use device::{BlockSlot, Device, DeviceCounts, WorkTag};
pub use occupancy::{occupancy, LaunchConfig, Occupancy};
pub use spec::DeviceSpec;
