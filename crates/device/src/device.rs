//! The device proper: SMs, memory interface, and in-flight block work.
//!
//! The [`Device`] is a passive resource collection driven by the simulation
//! world (see the driving protocol in [`dcuda_des::ps`]): the world submits
//! block work, asks for the next internal completion instant, arms a timer
//! slot for it, and calls [`Device::advance_to`] when the timer fires.
//!
//! The device serves its SMs itself. Each SM is an egalitarian
//! processor-sharing server: its live block steps share the SM's FLOP rate
//! equally, and a stalled block (one with no step submitted) takes no share.
//! Every busy SM was last served at the device's own instant, so one
//! advance computes one `dt` and, in ascending SM order, serves each job in
//! ascending slot order with `served = min(dt·level, remaining)`. Only SMs
//! with live jobs are visited: an idle SM has nothing to serve and reports
//! no completion. The memory interface is a capped [`PsResource`] served
//! after the SMs.

use crate::charge::BlockCharge;
use crate::occupancy::{occupancy, LaunchConfig};
use crate::spec::DeviceSpec;
use dcuda_des::{BitSet, PsJobId, PsResource, SimDuration, SimTime, Slab, SlotKey};

/// A resident block's position on the device (index within the launch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockSlot(pub u32);

/// Caller-supplied tag identifying a unit of block work; returned when the
/// work completes.
pub type WorkTag = u64;

/// The device's work as counts: they depend only on the model, so a
/// host-side change to the device leaves them exact.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceCounts {
    /// Calls to [`Device::advance_to`].
    pub advances: u64,
    /// SM serving passes: one per busy SM per advance that is later than
    /// the device's last one, or that follows a submit to that SM.
    pub sm_passes: u64,
    /// Memory-interface serving passes, counted the same way.
    pub memory_passes: u64,
}

impl std::ops::AddAssign for DeviceCounts {
    fn add_assign(&mut self, rhs: DeviceCounts) {
        self.advances += rhs.advances;
        self.sm_passes += rhs.sm_passes;
        self.memory_passes += rhs.memory_passes;
    }
}

struct Work {
    tag: WorkTag,
    pending: u8,
}

/// One block step on an SM.
struct SmJob {
    /// Remaining demand, in FLOPs.
    remaining: f64,
    /// The step's key in the device's `works` slab, as bits.
    work: u64,
}

/// One SM's live block steps, in a [`Slab`]: served in ascending slot
/// order, freed slots reused most-recently-freed first, so steps that
/// complete at one instant are reported in the same order a [`PsResource`]
/// per SM reported them. The slab grows with the live steps; it has no cap.
struct Sm {
    jobs: Slab<SmJob>,
    /// Least remaining demand over the live jobs; infinite when idle.
    least: f64,
    /// Seconds from the device's instant to this SM's next completion,
    /// `least / (rate / live jobs)`; meaningless when idle.
    next: f64,
    /// A job was submitted since the SM was last served.
    submitted: bool,
}

impl Sm {
    /// An idle SM with room for `blocks` live jobs before it grows.
    fn with_capacity(blocks: usize) -> Self {
        Sm {
            jobs: Slab::with_capacity(blocks),
            least: f64::INFINITY,
            next: f64::INFINITY,
            submitted: false,
        }
    }

    fn insert(&mut self, demand: f64, work: u64, rate: f64) {
        self.jobs.insert(SmJob {
            remaining: demand,
            work,
        });
        // No live job was served since the last pass, so the least demand
        // is the old least or the new job's.
        self.least = self.least.min(demand);
        self.next = self.least / (rate / self.jobs.len() as f64);
        self.submitted = true;
    }

    /// Serve every live job for `dt` seconds at `rate / len` each, in slot
    /// order, handing the work key of each job that drains (remaining
    /// demand within `eps`) to `done` and freeing its slot.
    fn serve(&mut self, dt: f64, rate: f64, eps: f64, mut done: impl FnMut(u64)) {
        let step = dt * (rate / self.jobs.len() as f64);
        let mut least = f64::INFINITY;
        self.jobs.retain(|job| {
            if dt > 0.0 {
                job.remaining -= step.min(job.remaining);
            }
            if job.remaining <= eps {
                done(job.work);
                false
            } else {
                // A survivor's demand is positive, so a compare is `min`.
                if job.remaining < least {
                    least = job.remaining;
                }
                true
            }
        });
        self.least = least;
        self.next = least / (rate / self.jobs.len() as f64);
        self.submitted = false;
    }
}

/// One simulated GPU.
pub struct Device {
    spec: DeviceSpec,
    resident_blocks: u32,
    /// Per-SM block steps, FLOP-denominated.
    sms: Vec<Sm>,
    /// The SMs with live jobs.
    busy: BitSet,
    /// The instant every busy SM was last served at, or first submitted to.
    last: SimTime,
    /// Some SM was submitted to since the last serving pass.
    submitted: bool,
    /// The SMs' earliest completion as of the last pass, `None` after a
    /// submit (computed again by [`next_event`](Self::next_event)).
    sm_next: Option<Option<SimTime>>,
    /// Completion epsilon in FLOPs (~2 ps of one SM's full rate).
    sm_eps: f64,
    /// Device-wide memory interface, byte-denominated, per-block capped.
    memory: PsResource,
    works: Slab<Work>,
    /// Memory-interface completions of the current advance.
    scratch: Vec<(PsJobId, u64)>,
    advances: u64,
    sm_passes: u64,
}

/// Count one drained resource job of the step keyed by `bits`, reporting
/// the step's tag once its last job drains.
fn finish(works: &mut Slab<Work>, bits: u64, completed: &mut Vec<WorkTag>) {
    let key = SlotKey::from_bits(bits);
    let work = works.get_mut(key).expect("completion for unknown work");
    work.pending -= 1;
    if work.pending == 0 {
        let tag = work.tag;
        works.remove(key);
        completed.push(tag);
    }
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
        assert!(
            spec.sm_flops.is_finite() && spec.sm_flops > 0.0,
            "SM rate must be positive, got {}",
            spec.sm_flops
        );
        let memory = PsResource::capped(spec.mem_bandwidth, spec.block_mem_bandwidth);
        // A block has one step in flight at a time in the cluster model, so
        // each SM is sized for its share of the launch.
        let per_sm = cfg.blocks.div_ceil(spec.sm_count) as usize;
        Device {
            resident_blocks: cfg.blocks,
            sms: (0..spec.sm_count)
                .map(|_| Sm::with_capacity(per_sm))
                .collect(),
            busy: BitSet::with_capacity(spec.sm_count as usize),
            last: SimTime::ZERO,
            submitted: false,
            sm_next: Some(None),
            sm_eps: spec.sm_flops * 2e-12,
            memory,
            works: Slab::new(),
            scratch: Vec::new(),
            advances: 0,
            sm_passes: 0,
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
    ///
    /// # Panics
    /// Panics if the block is not resident, if either field of the charge
    /// is negative or not finite, or if the device has busy SMs or a busy
    /// memory interface that were not advanced to `now`.
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
        for (what, value) in [("FLOPs", charge.flops), ("memory bytes", charge.mem_bytes)] {
            assert!(
                value.is_finite() && value >= 0.0,
                "block {} charged {value} {what}; a charge must be finite and non-negative",
                block.0
            );
        }
        let sm = self.sm_of(block);
        // Zero-demand charges still go through the SM as a zero-length job so
        // completion is always delivered via the event path (uniformity).
        let key = self.works.insert(Work { tag, pending: 0 });
        let mut pending = 0u8;
        // Compute demand.
        if charge.flops > 0.0 || charge.mem_bytes == 0.0 {
            if self.busy.is_empty() {
                // Idle SMs owe nothing, so they take `now` as their instant.
                assert!(now >= self.last, "Device time went backwards");
                self.last = now;
            } else {
                assert!(
                    now == self.last,
                    "Device submit at {now} to SMs last served at {}",
                    self.last
                );
            }
            self.sms[sm].insert(charge.flops, key.to_bits(), self.spec.sm_flops);
            self.busy.insert(sm);
            self.submitted = true;
            self.sm_next = None;
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
    ///
    /// At the instant the SMs already hold, only SMs submitted to since
    /// are served (a zero-length pass that drains zero-demand jobs); any
    /// other SM would serve nothing and complete nothing.
    ///
    /// # Panics
    /// Panics if `now` is before the instant the SMs were last served at.
    pub fn advance_to(&mut self, now: SimTime, completed: &mut Vec<WorkTag>) {
        self.advances += 1;
        let dt = now.since(self.last);
        if dt > SimDuration::ZERO || self.submitted {
            let dt = dt.as_secs_f64();
            self.last = now;
            self.submitted = false;
            let (rate, eps) = (self.spec.sm_flops, self.sm_eps);
            let (sms, works, passes) = (&mut self.sms, &mut self.works, &mut self.sm_passes);
            let mut least: Option<f64> = None;
            self.busy.retain(|i| {
                let sm = &mut sms[i];
                if dt > 0.0 || sm.submitted {
                    *passes += 1;
                    sm.serve(dt, rate, eps, |bits| finish(works, bits, completed));
                }
                if sm.jobs.is_empty() {
                    return false;
                }
                least = Some(least.map_or(sm.next, |l| l.min(sm.next)));
                true
            });
            self.sm_next = Some(least.map(|q| now + SimDuration::from_secs_f64(q)));
        }
        self.scratch.clear();
        self.memory.advance_to(now, &mut self.scratch);
        for &(_, bits) in &self.scratch {
            finish(&mut self.works, bits, completed);
        }
    }

    /// Earliest instant at which any in-flight block step progresses, or
    /// `None` if the device is idle.
    ///
    /// Each busy SM's next completion is its least remaining demand over
    /// its per-job level, after the device's instant. The least quotient
    /// is rounded to picoseconds once: rounding and the add are monotone,
    /// so that is the least of the per-SM instants.
    pub fn next_event(&mut self) -> Option<SimTime> {
        let sm_next = *self.sm_next.get_or_insert_with(|| {
            let sms = &self.sms;
            let least = self.busy.iter().map(|i| sms[i].next).reduce(f64::min);
            least.map(|q| self.last + SimDuration::from_secs_f64(q))
        });
        match (sm_next, self.memory.next_completion()) {
            (Some(s), Some(m)) => Some(s.min(m)),
            (s, m) => s.or(m),
        }
    }

    /// Number of block steps currently in flight.
    pub fn in_flight(&self) -> usize {
        self.works.len()
    }

    /// The advances and serving passes so far.
    pub fn counts(&self) -> DeviceCounts {
        DeviceCounts {
            advances: self.advances,
            sm_passes: self.sm_passes,
            memory_passes: self.memory.passes(),
        }
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

    // A charge with a negative or non-finite field is rejected with the
    // block and the value named; a memory-only one used to reach neither
    // resource and stall its rank forever.

    #[test]
    #[should_panic(expected = "block 7 charged -1 memory bytes")]
    fn negative_memory_charge_rejected() {
        device().submit_block_work(SimTime::ZERO, BlockSlot(7), BlockCharge::mem(-1.0), 1);
    }

    #[test]
    #[should_panic(expected = "block 7 charged NaN memory bytes")]
    fn nan_memory_charge_rejected() {
        device().submit_block_work(SimTime::ZERO, BlockSlot(7), BlockCharge::mem(f64::NAN), 1);
    }

    #[test]
    #[should_panic(expected = "block 3 charged -2 FLOPs")]
    fn negative_flops_charge_rejected() {
        device().submit_block_work(SimTime::ZERO, BlockSlot(3), BlockCharge::flops(-2.0), 1);
    }

    #[test]
    #[should_panic(expected = "block 3 charged NaN FLOPs")]
    fn nan_flops_charge_rejected() {
        device().submit_block_work(SimTime::ZERO, BlockSlot(3), BlockCharge::flops(f64::NAN), 1);
    }

    #[test]
    #[should_panic(expected = "block 0 charged inf FLOPs")]
    fn infinite_charge_rejected() {
        let charge = BlockCharge {
            flops: f64::INFINITY,
            mem_bytes: 1.0,
        };
        device().submit_block_work(SimTime::ZERO, BlockSlot(0), charge, 1);
    }

    #[test]
    #[should_panic(expected = "last served at")]
    fn submit_to_busy_sms_needs_an_advance() {
        let mut dev = device();
        dev.submit_block_work(SimTime::ZERO, BlockSlot(0), BlockCharge::flops(1.0e9), 1);
        let later = SimTime::ZERO + SimDuration::from_micros(1);
        dev.submit_block_work(later, BlockSlot(1), BlockCharge::flops(1.0e9), 2);
    }
}
