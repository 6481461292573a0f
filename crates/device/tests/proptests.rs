//! Property tests for the device model: the busy-SM set against a device
//! that advances every SM on every call.

use dcuda_des::check::{forall, Gen};
use dcuda_des::{PsJobId, PsResource, SimDuration, SimTime, Slab, SlotKey};
use dcuda_device::{BlockCharge, BlockSlot, Device, DeviceSpec, LaunchConfig, WorkTag};

/// The device without its busy set: every SM and the memory interface are
/// advanced on every call and asked for their next completion. Kept as the
/// executable specification the busy-set [`Device`] is held to.
struct EagerDevice {
    sm_count: u32,
    sms: Vec<PsResource>,
    memory: PsResource,
    /// `(tag, pending resource jobs)` per in-flight block step.
    works: Slab<(WorkTag, u8)>,
    scratch: Vec<(PsJobId, u64)>,
}

impl EagerDevice {
    fn new(spec: &DeviceSpec) -> Self {
        EagerDevice {
            sm_count: spec.sm_count,
            sms: (0..spec.sm_count)
                .map(|_| PsResource::new(spec.sm_flops))
                .collect(),
            memory: PsResource::capped(spec.mem_bandwidth, spec.block_mem_bandwidth),
            works: Slab::new(),
            scratch: Vec::new(),
        }
    }

    fn submit(&mut self, now: SimTime, block: BlockSlot, charge: BlockCharge, tag: WorkTag) {
        let key = self.works.insert((tag, 0));
        let mut pending = 0;
        if charge.flops > 0.0 || charge.mem_bytes == 0.0 {
            let sm = (block.0 % self.sm_count) as usize;
            self.sms[sm].submit(now, charge.flops.max(0.0), key.to_bits());
            pending += 1;
        }
        if charge.mem_bytes > 0.0 {
            self.memory.submit(now, charge.mem_bytes, key.to_bits());
            pending += 1;
        }
        self.works.get_mut(key).unwrap().1 = pending;
    }

    fn advance_to(&mut self, now: SimTime, completed: &mut Vec<WorkTag>) {
        self.scratch.clear();
        for sm in &mut self.sms {
            sm.advance_to(now, &mut self.scratch);
        }
        self.memory.advance_to(now, &mut self.scratch);
        for &(_, bits) in &self.scratch {
            let key = SlotKey::from_bits(bits);
            let work = self.works.get_mut(key).unwrap();
            work.1 -= 1;
            if work.1 == 0 {
                completed.push(work.0);
                self.works.remove(key);
            }
        }
    }

    fn next_event(&mut self) -> Option<SimTime> {
        self.sms
            .iter_mut()
            .chain([&mut self.memory])
            .filter_map(PsResource::next_completion)
            .min()
    }
}

fn random_charge(g: &mut Gen) -> BlockCharge {
    let flops = g.f64_in(1e3, 1e7);
    let bytes = g.f64_in(1e2, 1e6);
    match g.usize_below(4) {
        0 => BlockCharge::flops(flops),
        1 => BlockCharge::mem(bytes),
        2 => BlockCharge {
            flops,
            mem_bytes: bytes,
        },
        _ => BlockCharge::ZERO,
    }
}

/// A device that advances and queries only the SMs with live jobs reports
/// the same block steps complete, in the same order, at the same instants
/// as one that visits every SM, and predicts the same next event, over
/// seeded mixes of compute, memory, roofline and zero charges, advances to
/// the predicted event, to the current instant again and to random later
/// instants. Launches range from one block (twelve of the K80's thirteen
/// SMs never busy) to full residency, and half the cases use a 130-SM
/// device, whose busy set spans three words.
#[test]
fn busy_set_device_matches_eager_oracle() {
    forall("busy_set_device_matches_eager_oracle", 256, |g| {
        let spec = if g.bool() {
            DeviceSpec::k80()
        } else {
            DeviceSpec {
                sm_count: 130,
                ..DeviceSpec::k80()
            }
        };
        let blocks = *g.choose(&[1, 5, 13, 70, spec.max_resident_blocks()]);
        let cfg = LaunchConfig {
            blocks: blocks.min(spec.max_resident_blocks()),
            ..LaunchConfig::paper()
        };
        let mut dev = Device::launch(spec.clone(), &cfg);
        let mut eager = EagerDevice::new(&spec);
        let (mut got, mut want) = (Vec::new(), Vec::new());
        let mut step = |dev: &mut Device, eager: &mut EagerDevice, t: SimTime| {
            got.clear();
            want.clear();
            dev.advance_to(t, &mut got);
            eager.advance_to(t, &mut want);
            assert_eq!(got, want, "completions at {t}");
        };
        let mut now = SimTime::ZERO;
        for tag in 0..g.usize_in(1, 300) as WorkTag {
            match g.usize_below(8) {
                0..=3 => {
                    let block = BlockSlot(g.u32_below(cfg.blocks));
                    let charge = random_charge(g);
                    dev.submit_block_work(now, block, charge, tag);
                    eager.submit(now, block, charge, tag);
                }
                4..=5 => {
                    let next = dev.next_event();
                    assert_eq!(next, eager.next_event(), "predicted event");
                    if let Some(t) = next {
                        now = t;
                        step(&mut dev, &mut eager, now);
                    }
                }
                6 => step(&mut dev, &mut eager, now),
                _ => {
                    now += SimDuration::from_secs_f64(g.f64_in(0.0, 5e-5));
                    step(&mut dev, &mut eager, now);
                }
            }
            if g.bool() {
                assert_eq!(dev.next_event(), eager.next_event());
            }
            assert_eq!(dev.in_flight(), eager.works.len());
        }
        let mut guard = 0;
        while let Some(t) = dev.next_event() {
            assert_eq!(Some(t), eager.next_event());
            step(&mut dev, &mut eager, t);
            guard += 1;
            assert!(guard < 10_000, "drain did not converge");
        }
        assert_eq!(eager.next_event(), None);
        assert_eq!(dev.in_flight(), 0);
        assert_eq!(
            dev.bytes_delivered().to_bits(),
            eager.memory.delivered().to_bits()
        );
    });
}
