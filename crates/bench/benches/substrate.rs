//! Substrate microbenchmarks: the building blocks' raw performance
//! (event queue, processor-sharing resource, lock-free ring).

use dcuda_bench::harness::bench;
use dcuda_des::{EventQueue, PsResource, SimTime};
use dcuda_queues::channel;

fn bench_event_queue() {
    bench("des/event_queue_push_pop_1k", || {
        let mut q = EventQueue::new();
        for i in 0..1000u64 {
            q.schedule_at(SimTime::from_ps((i * 7919) % 100_000), i);
        }
        let mut acc = 0u64;
        while let Some((_, e)) = q.pop() {
            acc = acc.wrapping_add(e);
        }
        acc
    });
    // The hot pattern in cluster runs: most events schedule at `now`.
    bench("des/event_queue_now_fast_path_1k", || {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_ps(10), u64::MAX);
        let mut acc = 0u64;
        for i in 0..1000u64 {
            q.schedule_at(SimTime::ZERO, i);
            let (_, e) = q.pop().unwrap();
            acc = acc.wrapping_add(e);
        }
        acc
    });
}

fn bench_ps() {
    bench("des/ps_resource_208_jobs", || {
        let mut r = PsResource::new(1e12);
        let mut done = Vec::new();
        r.advance_to(SimTime::ZERO, &mut done);
        for i in 0..208 {
            r.submit_capped(1e6, 1.05e9, i);
        }
        let mut now = SimTime::ZERO;
        while let Some(t) = r.next_completion() {
            now = now.max(t);
            r.advance_to(now, &mut done);
            if done.len() >= 208 {
                break;
            }
        }
        done.len()
    });
}

fn bench_ring() {
    bench("queues/spsc_send_recv_4k", || {
        let (mut tx, mut rx) = channel::<u64>(64);
        let mut acc = 0u64;
        for i in 0..4096u64 {
            tx.try_send(i).unwrap();
            acc = acc.wrapping_add(rx.try_recv().unwrap());
        }
        acc
    });
}

fn main() {
    bench_event_queue();
    bench_ps();
    bench_ring();
}
