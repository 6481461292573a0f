//! Fully connected cluster fabric with NIC egress serialization.
//!
//! The model follows LogGP: a message submitted at `t` occupies the sender's
//! NIC for `overhead + bytes / bandwidth` (serialization; the "g·k" term) and
//! is delivered `latency` after serialization completes. Concurrent messages
//! from one node share its NIC FIFO, which is what produces bandwidth
//! saturation and message-rate limits. Ingress contention is not modeled
//! (egress-only LogGP); the evaluation workloads are halo exchanges and tree
//! collectives where egress is the bottleneck.

use crate::spec::NetworkSpec;
use dcuda_des::stats::Counter;
use dcuda_des::{FifoResource, SimDuration, SimTime};

/// Index of a cluster node (one host + one device per node).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Which path a device-buffer transfer takes (paper §IV-C).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TransferPath {
    /// GPUDirect device-to-device: lower bandwidth, no staging latency.
    DeviceDirect,
    /// Staged through pinned host memory: higher bandwidth, extra latency.
    HostStaged,
    /// Payload already lives in host memory (MPI control messages).
    HostToHost,
    /// Same-node loopback (no NIC involvement).
    Loopback,
}

impl TransferPath {
    /// Short static label (trace/diagnostic output).
    pub fn label(self) -> &'static str {
        match self {
            TransferPath::DeviceDirect => "device-direct",
            TransferPath::HostStaged => "host-staged",
            TransferPath::HostToHost => "host-to-host",
            TransferPath::Loopback => "loopback",
        }
    }
}

/// Lifecycle record of one injected message (only collected while the
/// network log is enabled).
#[derive(Clone, Copy, Debug)]
pub struct MsgRecord {
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Payload size.
    pub bytes: u64,
    /// Transfer path taken.
    pub path: TransferPath,
    /// Instant the message was handed to the NIC.
    pub inject: SimTime,
    /// Instant the NIC began serializing it (= `inject` when the NIC was
    /// idle; later under egress contention).
    pub egress_start: SimTime,
    /// Instant the sender's NIC released it.
    pub egress_free: SimTime,
    /// Instant it landed at the destination.
    pub arrival: SimTime,
}

/// Timing outcome of injecting one message.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Delivery {
    /// Instant the sender's NIC releases the message (send buffer reusable —
    /// what MPI request completion means for the sender).
    pub egress_free: SimTime,
    /// Instant the payload lands at the destination.
    pub arrival: SimTime,
}

/// Per-node NIC state.
struct Nic {
    egress: FifoResource,
    bytes_sent: u64,
}

/// The cluster interconnect.
pub struct Network {
    spec: NetworkSpec,
    nics: Vec<Nic>,
    /// Total messages injected.
    pub messages: Counter,
    /// Messages that took the host-staged path.
    pub staged_messages: Counter,
    /// Message lifecycle log; `None` (the default) records nothing, so the
    /// hook in [`send`](Self::send) costs one branch.
    log: Option<Vec<MsgRecord>>,
}

impl Network {
    /// Create a fabric connecting `nodes` nodes.
    pub fn new(spec: NetworkSpec, nodes: usize) -> Self {
        Network {
            nics: (0..nodes)
                .map(|_| Nic {
                    egress: FifoResource::new(),
                    bytes_sent: 0,
                })
                .collect(),
            spec,
            messages: Counter::default(),
            staged_messages: Counter::default(),
            log: None,
        }
    }

    /// Start collecting per-message lifecycle records.
    pub fn enable_log(&mut self) {
        self.log.get_or_insert_with(Vec::new);
    }

    /// Drain the collected lifecycle records (empty if logging was never
    /// enabled). Logging stays enabled.
    pub fn take_log(&mut self) -> Vec<MsgRecord> {
        self.log.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.nics.len()
    }

    /// The fabric parameters.
    pub fn spec(&self) -> &NetworkSpec {
        &self.spec
    }

    /// Decide the path for a device-resident payload of `bytes` between two
    /// nodes, applying the host-staging policy.
    pub fn device_path(&self, src: NodeId, dst: NodeId, bytes: u64) -> TransferPath {
        if src == dst {
            TransferPath::Loopback
        } else if bytes >= self.spec.stage_threshold {
            TransferPath::HostStaged
        } else {
            TransferPath::DeviceDirect
        }
    }

    /// Inject a message and return its timing.
    ///
    /// `path` selects bandwidth and extra latency; use
    /// [`device_path`](Self::device_path) for device payloads and
    /// [`TransferPath::HostToHost`] for control messages.
    ///
    /// # Panics
    /// Panics if `src`/`dst` are out of range, or if `path` is
    /// [`TransferPath::Loopback`] while `src != dst`.
    pub fn send(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        path: TransferPath,
    ) -> Delivery {
        self.messages.inc();
        if path == TransferPath::Loopback || src == dst {
            assert!(
                src == dst,
                "loopback path requires src == dst (got {src:?} -> {dst:?})"
            );
            let d = Delivery {
                egress_free: now,
                arrival: now + self.spec.loopback_latency,
            };
            if let Some(log) = &mut self.log {
                log.push(MsgRecord {
                    src,
                    dst,
                    bytes,
                    path: TransferPath::Loopback,
                    inject: now,
                    egress_start: now,
                    egress_free: d.egress_free,
                    arrival: d.arrival,
                });
            }
            return d;
        }
        assert!(src.index() < self.nics.len(), "src node out of range");
        assert!(dst.index() < self.nics.len(), "dst node out of range");

        let (bandwidth, extra_latency) = match path {
            TransferPath::DeviceDirect => (self.spec.device_bandwidth, SimDuration::ZERO),
            TransferPath::HostStaged => {
                self.staged_messages.inc();
                (self.spec.host_bandwidth, self.spec.stage_latency)
            }
            TransferPath::HostToHost => (self.spec.host_bandwidth, SimDuration::ZERO),
            TransferPath::Loopback => unreachable!(),
        };

        let serialization =
            self.spec.overhead + SimDuration::from_secs_f64(bytes as f64 / bandwidth);
        let nic = &mut self.nics[src.index()];
        nic.bytes_sent += bytes;
        let egress_done = nic.egress.submit(now, serialization);
        let d = Delivery {
            egress_free: egress_done,
            arrival: egress_done + self.spec.latency + extra_latency,
        };
        if let Some(log) = &mut self.log {
            log.push(MsgRecord {
                src,
                dst,
                bytes,
                path,
                inject: now,
                egress_start: SimTime::from_ps(
                    egress_done.as_ps().saturating_sub(serialization.as_ps()),
                ),
                egress_free: d.egress_free,
                arrival: d.arrival,
            });
        }
        d
    }

    /// Total bytes injected by `node`.
    pub fn bytes_sent(&self, node: NodeId) -> u64 {
        self.nics[node.index()].bytes_sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(nodes: usize) -> Network {
        Network::new(NetworkSpec::greina(), nodes)
    }

    #[test]
    fn small_message_is_latency_bound() {
        let mut n = net(2);
        let d = n.send(
            SimTime::ZERO,
            NodeId(0),
            NodeId(1),
            0,
            TransferPath::DeviceDirect,
        );
        // overhead + latency = 0.3 + 1.7 us
        assert_eq!(d.arrival, SimTime::ZERO + SimDuration::from_micros(2));
        // The sender is free as soon as serialization (overhead) ends.
        assert_eq!(d.egress_free, SimTime::ZERO + SimDuration::from_nanos(300));
    }

    #[test]
    fn large_direct_message_is_bandwidth_bound() {
        let mut n = net(2);
        let bytes = 6_000_000; // 1 ms at 6 GB/s
        let d = n.send(
            SimTime::ZERO,
            NodeId(0),
            NodeId(1),
            bytes,
            TransferPath::DeviceDirect,
        );
        let expect_us = 1000.0 + 2.0;
        let t = d.arrival;
        assert!((t.as_micros_f64() - expect_us).abs() < 0.01, "got {t}");
    }

    #[test]
    fn staging_policy_thresholds() {
        let n = net(2);
        assert_eq!(
            n.device_path(NodeId(0), NodeId(1), 1024),
            TransferPath::DeviceDirect
        );
        assert_eq!(
            n.device_path(NodeId(0), NodeId(1), 16 * 1024),
            TransferPath::DeviceDirect,
            "paper: 16 kB halos go direct under the default config"
        );
        assert_eq!(
            n.device_path(NodeId(0), NodeId(1), 64 * 1024),
            TransferPath::HostStaged
        );
        assert_eq!(
            n.device_path(NodeId(0), NodeId(0), 1 << 30),
            TransferPath::Loopback
        );
    }

    #[test]
    fn staged_path_wins_for_large_messages() {
        // The whole point of the OpenMPI policy: above the threshold the
        // staged path must deliver earlier despite its extra latency.
        let bytes = 1 << 20; // 1 MB
        let mut a = net(2);
        let direct = a
            .send(
                SimTime::ZERO,
                NodeId(0),
                NodeId(1),
                bytes,
                TransferPath::DeviceDirect,
            )
            .arrival;
        let mut b = net(2);
        let staged = b
            .send(
                SimTime::ZERO,
                NodeId(0),
                NodeId(1),
                bytes,
                TransferPath::HostStaged,
            )
            .arrival;
        assert!(staged < direct, "staged {staged} vs direct {direct}");
        assert_eq!(b.staged_messages.get(), 1);
    }

    #[test]
    fn nic_serializes_concurrent_sends() {
        let mut n = net(3);
        let bytes = 600_000; // 100 us each at 6 GB/s
        let t1 = n
            .send(
                SimTime::ZERO,
                NodeId(0),
                NodeId(1),
                bytes,
                TransferPath::DeviceDirect,
            )
            .arrival;
        let t2 = n
            .send(
                SimTime::ZERO,
                NodeId(0),
                NodeId(2),
                bytes,
                TransferPath::DeviceDirect,
            )
            .arrival;
        // Second message waits for the first one's serialization.
        assert!(t2.since(t1) >= SimDuration::from_micros(100));
    }

    #[test]
    fn distinct_senders_do_not_contend() {
        let mut n = net(3);
        let bytes = 600_000;
        let t1 = n.send(
            SimTime::ZERO,
            NodeId(0),
            NodeId(2),
            bytes,
            TransferPath::DeviceDirect,
        );
        let t2 = n.send(
            SimTime::ZERO,
            NodeId(1),
            NodeId(2),
            bytes,
            TransferPath::DeviceDirect,
        );
        assert_eq!(t1.arrival, t2.arrival);
    }

    #[test]
    fn loopback_is_fast() {
        let mut n = net(2);
        let d = n.send(
            SimTime::ZERO,
            NodeId(1),
            NodeId(1),
            1 << 20,
            TransferPath::Loopback,
        );
        assert_eq!(
            d.arrival,
            SimTime::ZERO + NetworkSpec::greina().loopback_latency
        );
        assert_eq!(d.egress_free, SimTime::ZERO);
    }

    #[test]
    fn byte_accounting() {
        let mut n = net(2);
        n.send(
            SimTime::ZERO,
            NodeId(0),
            NodeId(1),
            123,
            TransferPath::DeviceDirect,
        );
        n.send(
            SimTime::ZERO,
            NodeId(0),
            NodeId(1),
            77,
            TransferPath::HostToHost,
        );
        assert_eq!(n.bytes_sent(NodeId(0)), 200);
        assert_eq!(n.messages.get(), 2);
    }
}
