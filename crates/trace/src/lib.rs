//! Cluster-wide tracing and metrics for the dCUDA reproduction.
//!
//! The paper's whole argument is about *where time goes*: waits on remote
//! memory access hidden by over-subscription. This crate provides the
//! always-compiled, zero-cost-when-disabled instrumentation layer that makes
//! that visible:
//!
//! * [`Tracer`] — a deterministic span/instant recorder stamped exclusively
//!   with simulated time (picoseconds). A disabled tracer costs one branch
//!   per hook and allocates nothing, so trace-disabled runs are bit-identical
//!   to untraced builds;
//! * [`Track`] — the timeline taxonomy: one track per rank, one per device
//!   event handler (host worker), one per network link (egress NIC), one per
//!   PCIe link;
//! * [`chrome`] — Chrome-trace / Perfetto JSON export (`chrome://tracing`,
//!   <https://ui.perfetto.dev>);
//! * [`metrics`] — post-run aggregates built on [`dcuda_des::stats`]:
//!   wait-latency histograms, resource occupancy, and the *overlap
//!   efficiency* (the fraction of rank wait-time covered by other runnable
//!   ranks on the same device — the quantity Figures 7/8 of the paper
//!   visualize).
//!
//! Determinism contract: every timestamp entering the tracer is a
//! [`dcuda_des::SimTime`]-derived picosecond count (or a per-track logical
//! sequence number for the threaded runtime). Wall-clock never appears in a
//! trace, so identical simulations produce identical traces.

#![warn(missing_docs)]

pub mod chrome;
pub mod metrics;

pub use metrics::{IntervalSet, TraceSummary};

/// A timeline in the cluster-wide trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Track {
    /// One dCUDA rank (CUDA block). The per-rank timeline of compute, put,
    /// wait, flush and barrier spans.
    Rank(u32),
    /// The device event handler / block manager worker of one node
    /// (paper Figure 4's single host worker thread).
    Host(u32),
    /// The egress NIC of one node (network message lifecycle).
    NetLink(u32),
    /// The host-device PCIe link of one node (DMA and queue-transaction
    /// traffic).
    Pcie(u32),
    /// The socket transport endpoint of one device in the multi-process
    /// runtime (`dcuda-net` send/recv/coalesce instants).
    Net(u32),
    /// One worker of the asynchronous progress pool (`ProgressMode::Threads`):
    /// per-thread drain/steal timeline of the progress engine.
    Progress(u32),
}

impl Track {
    /// Chrome-trace process id grouping for this track.
    pub fn pid(self) -> u32 {
        match self {
            Track::Rank(_) => 0,
            Track::Host(_) => 1,
            Track::NetLink(_) => 2,
            Track::Pcie(_) => 3,
            Track::Net(_) => 4,
            Track::Progress(_) => 5,
        }
    }

    /// Chrome-trace thread id within the process group.
    pub fn tid(self) -> u32 {
        match self {
            Track::Rank(i)
            | Track::Host(i)
            | Track::NetLink(i)
            | Track::Pcie(i)
            | Track::Net(i)
            | Track::Progress(i) => i,
        }
    }

    /// Human-readable name of the process group.
    pub fn process_name(self) -> &'static str {
        match self {
            Track::Rank(_) => "ranks",
            Track::Host(_) => "device event handlers",
            Track::NetLink(_) => "network links",
            Track::Pcie(_) => "pcie links",
            Track::Net(_) => "socket transport",
            Track::Progress(_) => "progress threads",
        }
    }

    /// Human-readable track (thread) name.
    pub fn track_name(self) -> String {
        match self {
            Track::Rank(i) => format!("rank {i}"),
            Track::Host(i) => format!("host {i}"),
            Track::NetLink(i) => format!("nic {i}"),
            Track::Pcie(i) => format!("pcie {i}"),
            Track::Net(i) => format!("net dev {i}"),
            Track::Progress(i) => format!("progress {i}"),
        }
    }
}

/// A typed argument value attached to a span or instant.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// Unsigned integer (counts, bytes, ranks, tags).
    U64(u64),
    /// Float (rates, fractions).
    F64(f64),
    /// Short label (transfer path, op kind).
    Str(&'static str),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}

impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}

impl From<&'static str> for ArgValue {
    fn from(v: &'static str) -> Self {
        ArgValue::Str(v)
    }
}

/// A completed span on a track: `[start_ps, end_ps)` in simulated time.
#[derive(Debug, Clone)]
pub struct Span {
    /// Timeline the span belongs to.
    pub track: Track,
    /// Span label (e.g. `"wait"`, `"put_notify"`, `"msg"`).
    pub name: &'static str,
    /// Start instant, picoseconds of simulated time.
    pub start_ps: u64,
    /// End instant, picoseconds of simulated time (`>= start_ps`).
    pub end_ps: u64,
    /// Typed key/value details.
    pub args: Vec<(&'static str, ArgValue)>,
}

/// A zero-duration event on a track.
#[derive(Debug, Clone)]
pub struct Instant {
    /// Timeline the instant belongs to.
    pub track: Track,
    /// Instant label (e.g. `"notify"`).
    pub name: &'static str,
    /// Picoseconds of simulated time.
    pub ts_ps: u64,
    /// Typed key/value details.
    pub args: Vec<(&'static str, ArgValue)>,
}

/// The span/instant recorder.
///
/// Constructed [`disabled`](Tracer::disabled) by default: every hook is a
/// single branch and the recorder owns no allocations, so instrumented code
/// paths are byte-identical to uninstrumented ones when tracing is off.
#[derive(Debug, Default)]
pub struct Tracer {
    enabled: bool,
    spans: Vec<Span>,
    instants: Vec<Instant>,
}

impl Tracer {
    /// A recorder that drops everything (the default).
    pub fn disabled() -> Self {
        Tracer::default()
    }

    /// A recording tracer.
    pub fn enabled() -> Self {
        Tracer {
            enabled: true,
            spans: Vec::new(),
            instants: Vec::new(),
        }
    }

    /// Is this tracer recording?
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Record a completed span. No-op when disabled.
    #[inline]
    pub fn span(
        &mut self,
        track: Track,
        name: &'static str,
        start_ps: u64,
        end_ps: u64,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        if !self.enabled {
            return;
        }
        debug_assert!(end_ps >= start_ps, "span {name} ends before it starts");
        self.spans.push(Span {
            track,
            name,
            start_ps,
            end_ps,
            args,
        });
    }

    /// Record an instant event. No-op when disabled.
    #[inline]
    pub fn instant(
        &mut self,
        track: Track,
        name: &'static str,
        ts_ps: u64,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        if !self.enabled {
            return;
        }
        self.instants.push(Instant {
            track,
            name,
            ts_ps,
            args,
        });
    }

    /// Recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Recorded instants.
    pub fn instants(&self) -> &[Instant] {
        &self.instants
    }

    /// Merge another tracer's records into this one (component-local
    /// recorders are collected into the cluster trace after a run).
    pub fn absorb(&mut self, other: Tracer) {
        if !self.enabled {
            return;
        }
        self.spans.extend(other.spans);
        self.instants.extend(other.instants);
    }

    /// Number of recorded events (spans + instants).
    pub fn len(&self) -> usize {
        self.spans.len() + self.instants.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.instants.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        t.span(Track::Rank(0), "wait", 0, 10, vec![]);
        t.instant(Track::Rank(0), "notify", 5, vec![]);
        assert!(t.is_empty());
        assert!(!t.is_enabled());
    }

    #[test]
    fn enabled_tracer_records() {
        let mut t = Tracer::enabled();
        t.span(Track::Rank(1), "wait", 3, 9, vec![("count", 2u64.into())]);
        t.instant(Track::Host(0), "cmd", 4, vec![]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.spans()[0].track, Track::Rank(1));
        assert_eq!(t.spans()[0].end_ps, 9);
    }

    #[test]
    fn absorb_merges() {
        let mut a = Tracer::enabled();
        let mut b = Tracer::enabled();
        b.span(Track::NetLink(0), "msg", 0, 1, vec![]);
        a.absorb(b);
        assert_eq!(a.spans().len(), 1);
    }

    #[test]
    fn track_taxonomy() {
        assert_eq!(Track::Rank(7).pid(), 0);
        assert_eq!(Track::Host(2).pid(), 1);
        assert_eq!(Track::NetLink(2).tid(), 2);
        assert_eq!(Track::Pcie(1).track_name(), "pcie 1");
        assert_eq!(Track::Net(3).pid(), 4);
        assert_eq!(Track::Net(3).track_name(), "net dev 3");
        assert_eq!(Track::Progress(1).pid(), 5);
        assert_eq!(Track::Progress(1).tid(), 1);
        assert_eq!(Track::Progress(1).track_name(), "progress 1");
    }
}
