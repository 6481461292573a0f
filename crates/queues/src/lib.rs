//! Lock-free host–device queue implementations from dCUDA (paper §III-C).
//!
//! The dCUDA runtime connects each device-side library instance (one per
//! rank/block) with its host-side block manager through circular-buffer
//! queues engineered for the PCI-Express bottleneck:
//!
//! * the buffer **lives in receiver memory** so the receiver polls locally,
//! * every entry embeds a **sequence number**; the receiver detects valid
//!   entries from the sequence number instead of a shared head pointer, so an
//!   enqueue costs a *single* PCIe transaction (one entry write),
//! * the sender tracks free space with a **credit counter** and only
//!   occasionally refreshes it by reading the receiver-published tail.
//!
//! [`channel`] implements exactly that protocol with Rust atomics (the PCIe
//! write becomes a release store; the credit refresh becomes an acquire load
//! of the tail). [`match_in_order`] is the reference for the device-side
//! notification matching with (window, rank, tag) wildcards, in-order
//! matching and queue compaction (paper §III-C "Notification Matching");
//! [`IndexedMatcher`] serves the same semantics at O(matches) cost and is
//! the pending list both drivers run. [`LendWord`] says whether a waiting
//! rank has lent its window memory to its engine, which may then land
//! payloads in it. [`Rank`], [`WindowId`] and [`Tag`] are the typed ids of
//! the device API, defined here once for the simulator and the runtime.
//!
//! These structures are used for real by the native threaded runtime
//! (`dcuda-rt`); the discrete-event simulation models their *timing* (one
//! transaction per enqueue, occasional credit-refresh reads) in
//! `dcuda-core`.

#![warn(missing_docs)]

pub mod bytering;
pub mod dedup;
pub mod ids;
pub mod indexed;
pub mod lend;
pub mod notify;
pub mod plat;
pub mod spsc;

pub use bytering::{byte_ring_on, ByteRingConsumer, ByteRingProducer};
pub use dedup::{DedupWindow, DEDUP_WINDOW};
pub use ids::{Rank, Tag, WindowId};
pub use indexed::IndexedMatcher;
pub use lend::LendWord;
pub use notify::{match_in_order, Notification, Query, ANY};
pub use plat::{PlatAtomicU64, PlatCell, Platform, StdPlatform};
pub use spsc::{channel, channel_on, Receiver, RecvError, Sender, TrySendError};
