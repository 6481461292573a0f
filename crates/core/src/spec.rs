//! Full-system parameter set.

use dcuda_des::SimDuration;
use dcuda_device::DeviceSpec;
use dcuda_fabric::{NetworkSpec, PcieSpec};

/// Host-runtime cost parameters (the event handler / block manager layer of
/// paper Figure 4, executed by a single worker thread per node).
#[derive(Debug, Clone)]
pub struct HostSpec {
    /// Pipeline latency of one block-manager action (process a command,
    /// handle a completion, post a receive).
    pub block_manager_cost: SimDuration,
    /// Pipeline latency of one event-handler dispatch (route an incoming
    /// message to the right block manager).
    pub dispatch_cost: SimDuration,
    /// Occupancy of the node's single worker thread per action — the
    /// *throughput* limit of the host runtime, far below the end-to-end
    /// action latency (the worker pipelines across block managers; paper
    /// §III-C optimizes for throughput per Little's law).
    pub worker_gap: SimDuration,
    /// Mean delay before the host worker notices newly arrived queue entries
    /// (progress-loop granularity; the worker polls mapped device memory).
    pub poll_delay: SimDuration,
    /// Size of the meta-information tuple shipped per remote access (data
    /// pointer, size, target rank/window/offset, tag, flush id — paper §III-B).
    pub meta_bytes: u64,
}

impl HostSpec {
    /// Defaults calibrated so the end-to-end notified-put pipeline matches
    /// the paper's measured latencies (7.8 µs shared / 19.4 µs distributed —
    /// see the calibration test in `dcuda-apps`).
    pub fn greina() -> Self {
        HostSpec {
            block_manager_cost: SimDuration::from_nanos(2_800),
            dispatch_cost: SimDuration::from_nanos(1_200),
            worker_gap: SimDuration::from_nanos(100),
            poll_delay: SimDuration::from_nanos(1_500),
            meta_bytes: 48,
        }
    }
}

impl Default for HostSpec {
    fn default() -> Self {
        Self::greina()
    }
}

/// Every hardware and runtime parameter of the simulated cluster.
#[derive(Debug, Clone, Default)]
pub struct SystemSpec {
    /// Per-node GPU parameters.
    pub device: DeviceSpec,
    /// Interconnect parameters.
    pub network: NetworkSpec,
    /// Host–device link parameters.
    pub pcie: PcieSpec,
    /// Host runtime parameters.
    pub host: HostSpec,
}

impl SystemSpec {
    /// The Greina testbed (paper §IV-A): K80 devices, 4x EDR InfiniBand.
    pub fn greina() -> Self {
        SystemSpec {
            device: DeviceSpec::k80(),
            network: NetworkSpec::greina(),
            pcie: PcieSpec::greina(),
            host: HostSpec::greina(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn greina_spec_is_consistent() {
        let s = SystemSpec::greina();
        assert_eq!(s.device.max_resident_blocks(), 208);
        assert!(s.host.block_manager_cost > SimDuration::ZERO);
        assert!(s.host.meta_bytes > 0);
    }
}
