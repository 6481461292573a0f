//! Property tests for the device model: the device's own SM service
//! against one `PsResource` per SM, every SM advanced on every call.

use dcuda_des::check::{forall, Gen};
use dcuda_des::{PsJobId, PsResource, SimDuration, SimTime, Slab, SlotKey};
use dcuda_device::{BlockCharge, BlockSlot, Device, DeviceSpec, LaunchConfig, WorkTag};

/// The device as one egalitarian `PsResource` per SM, without a busy set:
/// every SM and the memory interface are advanced on every call and asked
/// for their next completion. Kept as the executable specification the
/// [`Device`], which serves its SMs in one pass, is held to.
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

/// Drive both devices to idle from `now`, checking every predicted event
/// and completion list against each other; returns `(tag, instant)` in
/// completion order.
fn drain_both(
    dev: &mut Device,
    eager: &mut EagerDevice,
    mut now: SimTime,
    stop_after: Option<WorkTag>,
) -> (Vec<(WorkTag, SimTime)>, SimTime) {
    let (mut out, mut got, mut want) = (Vec::new(), Vec::new(), Vec::new());
    while let Some(t) = dev.next_event() {
        assert_eq!(Some(t), eager.next_event(), "predicted event");
        now = t;
        got.clear();
        want.clear();
        dev.advance_to(now, &mut got);
        eager.advance_to(now, &mut want);
        assert_eq!(got, want, "completions at {now}");
        out.extend(got.iter().map(|&tag| (tag, now)));
        if stop_after.is_some_and(|stop| got.contains(&stop)) {
            break;
        }
    }
    (out, now)
}

fn both(spec: &DeviceSpec) -> (Device, EagerDevice) {
    (
        Device::launch(spec.clone(), &LaunchConfig::paper()),
        EagerDevice::new(spec),
    )
}

/// Steps that complete at one instant on one SM come out in slot order,
/// and slots are reused most-recently-freed first, as a `PsResource` per
/// SM reported them: SM 0's slots 1 and 3 drain in that order, the two
/// steps submitted next take slot 3 and then slot 1, and with equal
/// demands they complete together as `[second, first]`. Equal survivors in
/// slots 2 and 4 tie too.
#[test]
fn same_instant_completions_follow_reused_slot_order() {
    let spec = DeviceSpec::k80();
    let (mut dev, mut eager) = both(&spec);
    // Blocks 0, 13, 26, 39, 52 all sit on SM 0 (slots 0-4 in this order).
    let demands = [
        (0, 5.0e6),
        (13, 0.5e6),
        (26, 4.0e6),
        (39, 1.0e6),
        (52, 4.0e6),
    ];
    for (tag, &(block, flops)) in demands.iter().enumerate() {
        let charge = BlockCharge::flops(flops);
        dev.submit_block_work(SimTime::ZERO, BlockSlot(block), charge, tag as WorkTag + 1);
        eager.submit(SimTime::ZERO, BlockSlot(block), charge, tag as WorkTag + 1);
    }
    let (first, t) = drain_both(&mut dev, &mut eager, SimTime::ZERO, Some(4));
    let order: Vec<WorkTag> = first.iter().map(|&(tag, _)| tag).collect();
    assert_eq!(order, [2, 4], "slot 1 drains before slot 3");
    for (tag, block) in [(6, 39), (7, 13)] {
        let charge = BlockCharge::flops(1.0e6);
        dev.submit_block_work(t, BlockSlot(block), charge, tag);
        eager.submit(t, BlockSlot(block), charge, tag);
    }
    let (rest, _) = drain_both(&mut dev, &mut eager, t, None);
    let groups: Vec<Vec<WorkTag>> = rest
        .chunk_by(|a, b| a.1 == b.1)
        .map(|g| g.iter().map(|&(tag, _)| tag).collect())
        .collect();
    assert!(
        groups.contains(&vec![7, 6]),
        "reused slots 1, 3: {groups:?}"
    );
    assert!(groups.contains(&vec![3, 5]), "slots 2, 4: {groups:?}");
    assert_eq!(dev.in_flight(), 0);
}

/// One SM holds far more live steps than a block per slot: 40 steps on
/// SM 0, with ties, then 40 more submitted while half drain, all matching
/// the `PsResource` oracle instant for instant.
#[test]
fn one_sm_grows_past_thirty_two_live_steps() {
    let spec = DeviceSpec::k80();
    let (mut dev, mut eager) = both(&spec);
    let charge = |i: u64| BlockCharge::flops(1.0e5 * (1 + i * 7 % 40) as f64);
    for tag in 0..40 {
        dev.submit_block_work(SimTime::ZERO, BlockSlot(0), charge(tag), tag);
        eager.submit(SimTime::ZERO, BlockSlot(0), charge(tag), tag);
    }
    assert_eq!(dev.in_flight(), 40);
    let (early, t) = drain_both(&mut dev, &mut eager, SimTime::ZERO, Some(33));
    assert!(early.len() < 40);
    for tag in 40..80 {
        dev.submit_block_work(t, BlockSlot(13 * (tag as u32 % 16)), charge(tag), tag);
        eager.submit(t, BlockSlot(13 * (tag as u32 % 16)), charge(tag), tag);
    }
    assert!(dev.in_flight() > 40);
    let (late, _) = drain_both(&mut dev, &mut eager, t, None);
    assert_eq!(early.len() + late.len(), 80);
    assert_eq!(dev.in_flight(), 0);
}
