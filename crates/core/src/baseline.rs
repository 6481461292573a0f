//! The MPI-CUDA baseline: host-controlled alternation of kernel launches and
//! message exchanges (paper Figure 1, left).
//!
//! Traditional MPI-CUDA programs run their main loop on the host: launch a
//! kernel, synchronize the device, exchange messages with two-sided MPI,
//! repeat. Computation and communication therefore serialize — the scaling
//! cost of the paper's baselines "roughly corresponds to the halo exchange
//! time". The driver models each node as a bulk-synchronous timeline:
//!
//! * a **kernel phase** submits every local block's charge to the node's
//!   device model and advances the node to the drain instant (plus launch
//!   overhead and a host synchronization cost);
//! * an **exchange phase** injects the phase's messages through the fabric
//!   and advances each node to the completion of its sends and receives
//!   (two-sided semantics: a receive completes no earlier than the matching
//!   send's delivery);
//! * a **barrier phase** runs the host dissemination barrier.
//!
//! Kernels run real numerics through a caller-provided closure over the
//! per-node [`Arena`](crate::window::Arena) memory, so baseline results can be compared bit-wise
//! against dCUDA results.

use crate::barrier::barrier_exit_times;
use crate::spec::SystemSpec;
use crate::types::Topology;
use dcuda_des::{SimDuration, SimTime};
use dcuda_device::{BlockCharge, BlockSlot, Device, LaunchConfig};
use dcuda_fabric::{Network, NodeId, TransferPath};

/// One two-sided message of an exchange phase.
#[derive(Debug, Clone, Copy)]
pub struct ExchangeMsg {
    /// Sending node.
    pub src: u32,
    /// Receiving node.
    pub dst: u32,
    /// Payload bytes (device buffers; the staging policy applies).
    pub bytes: u64,
}

/// Host-side cost knobs of the baseline (in addition to the shared
/// [`SystemSpec`]).
#[derive(Debug, Clone)]
pub struct BaselineCosts {
    /// Host-side cost per kernel launch + device synchronization
    /// (cudaLaunchKernel + cudaStreamSynchronize round trips).
    pub sync_cost: SimDuration,
    /// Host-side cost per MPI call on a device buffer (request bookkeeping,
    /// stream synchronization, transport posting — CUDA-aware MPI of the
    /// paper's era pays tens of microseconds per call).
    pub mpi_call_cost: SimDuration,
}

impl Default for BaselineCosts {
    fn default() -> Self {
        BaselineCosts {
            sync_cost: SimDuration::from_micros(10),
            mpi_call_cost: SimDuration::from_micros(8),
        }
    }
}

/// Bulk-synchronous MPI-CUDA cluster model.
pub struct MpiCudaSim {
    spec: SystemSpec,
    costs: BaselineCosts,
    topo: Topology,
    devices: Vec<Device>,
    net: Network,
    /// Per-node current time.
    t: Vec<SimTime>,
    /// Cumulative time nodes spent inside exchange phases (the paper's
    /// "halo exchange" series is measured exactly like this: the same run
    /// with communication timed separately).
    exchange_time: Vec<SimDuration>,
    kernel_launches: u64,
    scratch: Vec<u64>,
}

impl MpiCudaSim {
    /// Create a baseline cluster.
    pub fn new(spec: SystemSpec, costs: BaselineCosts, topo: Topology) -> Self {
        let launch = LaunchConfig {
            blocks: topo.ranks_per_node,
            ..LaunchConfig::paper()
        };
        MpiCudaSim {
            devices: (0..topo.nodes)
                .map(|_| Device::launch(spec.device.clone(), &launch))
                .collect(),
            net: Network::new(spec.network.clone(), topo.nodes as usize),
            t: vec![SimTime::ZERO; topo.nodes as usize],
            exchange_time: vec![SimDuration::ZERO; topo.nodes as usize],
            kernel_launches: 0,
            scratch: Vec::new(),
            spec,
            costs,
            topo,
        }
    }

    /// Per-node current times.
    pub fn times(&self) -> &[SimTime] {
        &self.t
    }

    /// Maximum node time (the measured execution time: the paper collects
    /// "the maximum execution time found on the different nodes").
    pub fn elapsed(&self) -> SimDuration {
        self.t
            .iter()
            .max()
            .copied()
            .unwrap_or(SimTime::ZERO)
            .since(SimTime::ZERO)
    }

    /// Maximum cumulative exchange time over nodes.
    pub fn exchange_elapsed(&self) -> SimDuration {
        self.exchange_time
            .iter()
            .max()
            .copied()
            .unwrap_or(SimDuration::ZERO)
    }

    /// Kernels launched so far.
    pub fn kernel_launches(&self) -> u64 {
        self.kernel_launches
    }

    /// Run a kernel phase: `charges[node][block]` device work, executed
    /// after the launch overhead, followed by host synchronization.
    ///
    /// # Panics
    /// Panics if `charges` does not match the topology.
    pub fn kernel_phase(&mut self, charges: &[Vec<BlockCharge>]) {
        assert_eq!(charges.len(), self.topo.nodes as usize);
        for (node, node_charges) in charges.iter().enumerate() {
            assert!(
                node_charges.len() <= self.topo.ranks_per_node as usize,
                "more block charges than blocks"
            );
            self.kernel_launches += 1;
            let start = self.t[node] + self.spec.device.launch_overhead;
            let dev = &mut self.devices[node];
            self.scratch.clear();
            dev.advance_to(start, &mut self.scratch);
            for (b, &c) in node_charges.iter().enumerate() {
                dev.submit_block_work(start, BlockSlot(b as u32), c, b as u64);
            }
            let mut end = start;
            while let Some(tnext) = dev.next_event() {
                end = tnext;
                self.scratch.clear();
                dev.advance_to(tnext, &mut self.scratch);
            }
            self.t[node] = end + self.costs.sync_cost;
        }
    }

    /// Run an exchange phase of two-sided messages. Every node participating
    /// (as sender or receiver) synchronizes on its own sends' local
    /// completion and its receives' deliveries.
    pub fn exchange_phase(&mut self, msgs: &[ExchangeMsg]) {
        let entry = self.t.clone();
        let mut new_t = self.t.clone();
        for m in msgs {
            assert!(m.src < self.topo.nodes && m.dst < self.topo.nodes);
            let (s, d) = (m.src as usize, m.dst as usize);
            let path = self.net.device_path(NodeId(m.src), NodeId(m.dst), m.bytes);
            let path = if m.src == m.dst {
                TransferPath::Loopback
            } else {
                path
            };
            let send_start = entry[s] + self.costs.mpi_call_cost;
            let del = self
                .net
                .send(send_start, NodeId(m.src), NodeId(m.dst), m.bytes, path);
            // Sender completes when its buffer frees; receiver when the
            // payload arrives and it has posted the receive.
            new_t[s] = new_t[s].max(del.egress_free + self.costs.mpi_call_cost);
            let recv_ready = entry[d] + self.costs.mpi_call_cost;
            new_t[d] = new_t[d].max(del.arrival.max(recv_ready) + self.costs.mpi_call_cost);
        }
        for (n, &nt) in new_t.iter().enumerate() {
            self.exchange_time[n] += nt.since(entry[n]);
            self.t[n] = nt;
        }
    }

    /// Run a host-level barrier (MPI_Barrier over all nodes).
    pub fn barrier_phase(&mut self) {
        let netspec = self.net.spec();
        let hop = netspec.overhead + netspec.latency + SimDuration::from_nanos(100);
        let entry = self.t.clone();
        let exits = barrier_exit_times(&entry, hop);
        for (n, &x) in exits.iter().enumerate() {
            self.exchange_time[n] += x.since(entry[n]);
            self.t[n] = x;
        }
    }

    /// Access the fabric statistics.
    pub fn network(&self) -> &Network {
        &self.net
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo(nodes: u32) -> Topology {
        Topology {
            nodes,
            ranks_per_node: 8,
        }
    }

    fn sim(nodes: u32) -> MpiCudaSim {
        MpiCudaSim::new(SystemSpec::greina(), BaselineCosts::default(), topo(nodes))
    }

    #[test]
    fn kernel_phase_advances_by_work_plus_overheads() {
        let mut s = sim(1);
        // 8 blocks, one per SM, each 105e9*1e-3 flops = 1 ms at full SM rate.
        let charges = vec![vec![BlockCharge::flops(105.0e6); 8]];
        s.kernel_phase(&charges);
        let expect = 7.0 + 1000.0 + 10.0; // launch + work + sync (us)
        assert!(
            (s.elapsed().as_micros_f64() - expect).abs() < 0.5,
            "got {}",
            s.elapsed()
        );
    }

    #[test]
    fn exchange_couples_neighbor_timelines() {
        let mut s = sim(2);
        // Node 0 idles; node 1 computes first.
        s.kernel_phase(&[vec![], vec![BlockCharge::flops(105.0e6); 8]]);
        let t0_before = s.times()[0];
        let t1_before = s.times()[1];
        assert!(t1_before > t0_before);
        // Node 1 sends to node 0: node 0 must wait for node 1's data.
        s.exchange_phase(&[ExchangeMsg {
            src: 1,
            dst: 0,
            bytes: 1024,
        }]);
        assert!(s.times()[0] > t1_before, "receiver waits for sender");
    }

    #[test]
    fn exchange_time_is_tracked() {
        let mut s = sim(2);
        s.exchange_phase(&[ExchangeMsg {
            src: 0,
            dst: 1,
            bytes: 16 * 1024,
        }]);
        assert!(s.exchange_elapsed() > SimDuration::ZERO);
    }

    #[test]
    fn serialized_phases_add_up() {
        // The defining property of MPI-CUDA: compute and exchange times sum.
        let mut s = sim(2);
        let work = vec![vec![BlockCharge::flops(105.0e6); 8]; 2];
        s.kernel_phase(&work);
        let after_kernel = s.elapsed();
        s.exchange_phase(&[
            ExchangeMsg {
                src: 0,
                dst: 1,
                bytes: 16 * 1024,
            },
            ExchangeMsg {
                src: 1,
                dst: 0,
                bytes: 16 * 1024,
            },
        ]);
        let total = s.elapsed();
        assert!(total > after_kernel, "exchange adds time on top of compute");
        assert!(
            (total.as_micros_f64()
                - after_kernel.as_micros_f64()
                - s.exchange_elapsed().as_micros_f64())
            .abs()
                < 0.5
        );
    }

    #[test]
    fn barrier_synchronizes_timelines() {
        let mut s = sim(4);
        s.kernel_phase(&[vec![BlockCharge::flops(105.0e6); 8], vec![], vec![], vec![]]);
        s.barrier_phase();
        let times = s.times();
        let max = times.iter().max().unwrap();
        for t in times {
            // All nodes exit within a few hops of the max entrant.
            assert!(max.since(*t) < SimDuration::from_micros(10));
        }
    }

    #[test]
    fn launch_counter() {
        let mut s = sim(2);
        s.kernel_phase(&[vec![], vec![]]);
        s.kernel_phase(&[vec![], vec![]]);
        assert_eq!(s.kernel_launches(), 4);
    }
}
