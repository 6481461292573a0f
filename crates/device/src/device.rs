//! The device proper: SMs, memory interface, and in-flight block work.
//!
//! The [`Device`] is a passive resource collection driven by the simulation
//! world (see the driving protocol in [`dcuda_des::ps`]): the world submits
//! block work, asks for the next internal completion instant, arms a timer
//! slot for it, and calls [`Device::advance_to`] when the timer fires.
//!
//! Only SMs with live jobs are visited, in ascending SM index: an idle SM
//! has nothing to serve and reports no completion, so skipping it leaves
//! every busy SM's sequence of service steps, and the completion order,
//! exactly as an advance of every SM would.

use crate::charge::BlockCharge;
use crate::occupancy::{occupancy, LaunchConfig};
use crate::spec::DeviceSpec;
use dcuda_des::{BitSet, PsResource, SimTime, Slab, SlotKey};

/// A resident block's position on the device (index within the launch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockSlot(pub u32);

/// Caller-supplied tag identifying a unit of block work; returned when the
/// work completes.
pub type WorkTag = u64;

struct Work {
    tag: WorkTag,
    pending: u8,
}

/// One simulated GPU.
pub struct Device {
    spec: DeviceSpec,
    resident_blocks: u32,
    /// Per-SM compute resources, FLOP-denominated.
    sms: Vec<PsResource>,
    /// The SMs with live jobs.
    busy: BitSet,
    /// Device-wide memory interface, byte-denominated, per-block capped.
    memory: PsResource,
    works: Slab<Work>,
    scratch: Vec<(dcuda_des::PsJobId, u64)>,
}

impl Device {
    /// Create a device and "launch" the given configuration, pinning the
    /// resident-block count.
    ///
    /// # Panics
    /// Panics if the launch requests more blocks than can be resident — the
    /// dCUDA execution model forbids over-subscription beyond residency
    /// because non-resident blocks could deadlock collectives (paper §III-A).
    pub fn launch(spec: DeviceSpec, cfg: &LaunchConfig) -> Self {
        let occ = occupancy(&spec, cfg);
        assert!(
            cfg.blocks <= occ.resident_blocks,
            "launch of {} blocks exceeds residency {} (limited by {:?}); \
             dCUDA requires all ranks in flight at once",
            cfg.blocks,
            occ.resident_blocks,
            occ.limited_by
        );
        let sms = (0..spec.sm_count)
            .map(|_| PsResource::new(spec.sm_flops))
            .collect();
        let memory = PsResource::capped(spec.mem_bandwidth, spec.block_mem_bandwidth);
        Device {
            resident_blocks: cfg.blocks,
            busy: BitSet::with_capacity(spec.sm_count as usize),
            sms,
            memory,
            works: Slab::new(),
            scratch: Vec::new(),
            spec,
        }
    }

    /// The device parameters.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Number of blocks resident (= ranks on this device).
    pub fn resident_blocks(&self) -> u32 {
        self.resident_blocks
    }

    /// The SM a block is pinned to (round-robin assignment, matching how the
    /// hardware distributes blocks across SMs at launch).
    #[inline]
    pub fn sm_of(&self, block: BlockSlot) -> usize {
        (block.0 % self.spec.sm_count) as usize
    }

    /// Submit one block step's work at `now`. The step completes (and `tag`
    /// is reported by [`advance_to`](Self::advance_to)) when both the
    /// compute and the memory demand have drained.
    ///
    /// The caller must have advanced the device to `now` first (it is safe to
    /// call [`advance_to`](Self::advance_to) redundantly).
    pub fn submit_block_work(
        &mut self,
        now: SimTime,
        block: BlockSlot,
        charge: BlockCharge,
        tag: WorkTag,
    ) {
        assert!(
            block.0 < self.resident_blocks,
            "block {} not resident (launch has {})",
            block.0,
            self.resident_blocks
        );
        let sm = self.sm_of(block);
        // Zero-demand charges still go through the SM as a zero-length job so
        // completion is always delivered via the event path (uniformity).
        let key = self.works.insert(Work { tag, pending: 0 });
        let mut pending = 0u8;
        // Compute demand.
        if charge.flops > 0.0 || charge.mem_bytes == 0.0 {
            self.sms[sm].submit(now, charge.flops.max(0.0), key.to_bits());
            self.busy.insert(sm);
            pending += 1;
        }
        // Memory demand, capped at the per-block streaming limit.
        if charge.mem_bytes > 0.0 {
            self.memory.submit(now, charge.mem_bytes, key.to_bits());
            pending += 1;
        }
        self.works
            .get_mut(key)
            .expect("freshly inserted work")
            .pending = pending;
    }

    /// Advance the busy SMs, in SM order, then the memory interface to
    /// `now`, appending the tags of block steps that completed.
    pub fn advance_to(&mut self, now: SimTime, completed: &mut Vec<WorkTag>) {
        self.scratch.clear();
        let (sms, scratch) = (&mut self.sms, &mut self.scratch);
        self.busy.retain(|i| {
            sms[i].advance_to(now, scratch);
            !sms[i].is_idle()
        });
        self.memory.advance_to(now, &mut self.scratch);
        for &(_, bits) in &self.scratch {
            let key = SlotKey::from_bits(bits);
            let work = self
                .works
                .get_mut(key)
                .expect("PS completion for unknown work");
            work.pending -= 1;
            if work.pending == 0 {
                let tag = work.tag;
                self.works.remove(key);
                completed.push(tag);
            }
        }
    }

    /// Earliest instant at which any in-flight block step progresses, or
    /// `None` if the device is idle.
    pub fn next_event(&mut self) -> Option<SimTime> {
        let mut earliest = self.memory.next_completion();
        for i in self.busy.iter() {
            if let Some(t) = self.sms[i].next_completion() {
                earliest = Some(earliest.map_or(t, |e| e.min(t)));
            }
        }
        earliest
    }

    /// Number of block steps currently in flight.
    pub fn in_flight(&self) -> usize {
        self.works.len()
    }

    /// Total bytes delivered by the memory interface so far.
    pub fn bytes_delivered(&self) -> f64 {
        self.memory.delivered()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcuda_des::SimDuration;

    fn device() -> Device {
        Device::launch(DeviceSpec::k80(), &LaunchConfig::paper())
    }

    /// Run the device to completion from `now`, returning (tag, time) pairs.
    fn run_to_idle(dev: &mut Device, mut now: SimTime) -> Vec<(WorkTag, SimTime)> {
        let mut out = Vec::new();
        let mut completed = Vec::new();
        while let Some(t) = dev.next_event() {
            assert!(t >= now, "device event in the past");
            now = t;
            completed.clear();
            dev.advance_to(now, &mut completed);
            out.extend(completed.iter().map(|&tag| (tag, now)));
        }
        out
    }

    #[test]
    fn compute_only_step_takes_flops_over_sm_rate() {
        let mut dev = device();
        // 105e9 FLOPs on a 105 GFLOP/s SM -> 1 s.
        dev.submit_block_work(SimTime::ZERO, BlockSlot(0), BlockCharge::flops(105.0e9), 1);
        let done = run_to_idle(&mut dev, SimTime::ZERO);
        assert_eq!(done.len(), 1);
        assert!((done[0].1.as_secs_f64() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn blocks_on_same_sm_share_throughput() {
        let mut dev = device();
        // Blocks 0 and 13 land on SM 0; block 1 lands on SM 1.
        dev.submit_block_work(SimTime::ZERO, BlockSlot(0), BlockCharge::flops(105.0e9), 1);
        dev.submit_block_work(SimTime::ZERO, BlockSlot(13), BlockCharge::flops(105.0e9), 2);
        dev.submit_block_work(SimTime::ZERO, BlockSlot(1), BlockCharge::flops(105.0e9), 3);
        let done = run_to_idle(&mut dev, SimTime::ZERO);
        let t = |tag| {
            done.iter()
                .find(|&&(x, _)| x == tag)
                .map(|&(_, t)| t.as_secs_f64())
                .unwrap()
        };
        assert!((t(1) - 2.0).abs() < 1e-9, "shared SM halves the rate");
        assert!((t(2) - 2.0).abs() < 1e-9);
        assert!((t(3) - 1.0).abs() < 1e-9, "dedicated SM runs at full rate");
    }

    #[test]
    fn single_block_memory_hits_block_cap() {
        let mut dev = device();
        // 2.1e9 bytes at the 2.1 GB/s per-block streaming cap -> 1 s even
        // though the interface could do it in ~8.8 ms.
        dev.submit_block_work(SimTime::ZERO, BlockSlot(0), BlockCharge::mem(2.1e9), 1);
        let done = run_to_idle(&mut dev, SimTime::ZERO);
        assert!((done[0].1.as_secs_f64() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn full_residency_saturates_memory_interface() {
        let mut dev = device();
        // 208 blocks want 437 GB/s in aggregate but the 240 GB/s interface
        // binds: fair share ~1.154 GB/s per block.
        for b in 0..208 {
            dev.submit_block_work(
                SimTime::ZERO,
                BlockSlot(b),
                BlockCharge::mem(1.2e9),
                b as u64,
            );
        }
        let done = run_to_idle(&mut dev, SimTime::ZERO);
        assert_eq!(done.len(), 208);
        let expect = 208.0 * 1.2e9 / 240.0e9;
        for &(_, t) in &done {
            assert!((t.as_secs_f64() - expect).abs() < 1e-6);
        }
        // The interface was saturated the whole time.
        assert!((dev.bytes_delivered() - 208.0 * 1.2e9).abs() < 1.0);
    }

    #[test]
    fn memory_latency_hiding_stalled_blocks_free_bandwidth() {
        // Half the blocks stall: the other half runs at its (higher) cap,
        // not the old fair share — the bandwidth-domain latency hiding.
        let mut dev = device();
        for b in 0..104 {
            dev.submit_block_work(
                SimTime::ZERO,
                BlockSlot(b),
                BlockCharge::mem(2.1e9),
                b as u64,
            );
        }
        let done = run_to_idle(&mut dev, SimTime::ZERO);
        // 104 x 2.1 = 218.4 < 240: every block runs at its cap -> 1 s.
        for &(_, t) in &done {
            assert!((t.as_secs_f64() - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn roofline_step_is_max_of_compute_and_memory() {
        let mut dev = device();
        // Compute 1 s, memory 0.5 s -> completes at 1 s (pipelines overlap).
        dev.submit_block_work(
            SimTime::ZERO,
            BlockSlot(0),
            BlockCharge {
                flops: 105.0e9,
                mem_bytes: 0.525e9,
            },
            1,
        );
        let done = run_to_idle(&mut dev, SimTime::ZERO);
        assert_eq!(done.len(), 1);
        assert!((done[0].1.as_secs_f64() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_charge_completes_immediately() {
        let mut dev = device();
        dev.submit_block_work(SimTime::ZERO, BlockSlot(5), BlockCharge::ZERO, 42);
        let done = run_to_idle(&mut dev, SimTime::ZERO);
        assert_eq!(done, vec![(42, SimTime::ZERO)]);
    }

    #[test]
    fn latency_hiding_stalled_block_does_not_slow_sm() {
        // Two blocks on one SM; one "stalls" (submits nothing) while the
        // other computes — the running block gets the full SM.
        let mut dev = device();
        dev.submit_block_work(SimTime::ZERO, BlockSlot(0), BlockCharge::flops(105.0e9), 1);
        let done = run_to_idle(&mut dev, SimTime::ZERO);
        assert!((done[0].1.as_secs_f64() - 1.0).abs() < 1e-9);
        // Now the stalled block wakes and computes alone.
        let t0 = done[0].1;
        let mut completed = Vec::new();
        dev.advance_to(t0, &mut completed);
        dev.submit_block_work(t0, BlockSlot(13), BlockCharge::flops(105.0e9), 2);
        let done2 = run_to_idle(&mut dev, t0);
        assert!((done2[0].1.as_secs_f64() - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "exceeds residency")]
    fn oversubscribed_launch_rejected() {
        let cfg = LaunchConfig {
            blocks: 209,
            ..LaunchConfig::paper()
        };
        Device::launch(DeviceSpec::k80(), &cfg);
    }

    #[test]
    #[should_panic(expected = "not resident")]
    fn non_resident_block_rejected() {
        let mut dev = device();
        dev.submit_block_work(SimTime::ZERO, BlockSlot(208), BlockCharge::ZERO, 0);
    }

    #[test]
    fn each_completed_step_reports_its_tag_once() {
        let mut dev = device();
        dev.submit_block_work(SimTime::ZERO, BlockSlot(0), BlockCharge::flops(1.0), 1);
        dev.submit_block_work(SimTime::ZERO, BlockSlot(1), BlockCharge::flops(1.0), 2);
        let mut tags: Vec<WorkTag> = run_to_idle(&mut dev, SimTime::ZERO)
            .into_iter()
            .map(|(tag, _)| tag)
            .collect();
        tags.sort_unstable();
        assert_eq!(tags, [1, 2]);
    }

    #[test]
    fn interleaved_submissions_keep_time_consistent() {
        let mut dev = device();
        dev.submit_block_work(SimTime::ZERO, BlockSlot(0), BlockCharge::flops(105.0e9), 1);
        // Advance halfway, then add work on another SM.
        let half = SimTime::ZERO + SimDuration::from_secs_f64(0.5);
        let mut completed = Vec::new();
        dev.advance_to(half, &mut completed);
        assert!(completed.is_empty());
        dev.submit_block_work(half, BlockSlot(1), BlockCharge::flops(52.5e9), 2);
        let done = run_to_idle(&mut dev, half);
        // Both finish at t = 1 s.
        for &(_, t) in &done {
            assert!((t.as_secs_f64() - 1.0).abs() < 1e-9);
        }
    }
}
