//! Scoped-thread parallel map for independent simulation runs.
//!
//! Every figure row is a pure function of `(SystemSpec, config)`: each
//! `ClusterSim` owns its whole world and the simulation is deterministic, so
//! rows can run on any thread in any order and still produce byte-identical
//! series. The driver exploits that with a small work-stealing pool over
//! `std::thread::scope` — no dependency, no unsafe, no shared state beyond
//! an index counter.
//!
//! `figures --serial` forces sequential execution; comparing its output
//! against the parallel run is the determinism check.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

static SERIAL: AtomicBool = AtomicBool::new(false);

/// Force [`par_map`] to run sequentially on the calling thread.
pub fn set_serial(serial: bool) {
    SERIAL.store(serial, Ordering::Relaxed);
}

/// Is sequential mode on?
pub fn is_serial() -> bool {
    SERIAL.load(Ordering::Relaxed)
}

/// Worker count: one per available core, capped by the job count.
fn workers_for(jobs: usize) -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .min(jobs)
}

/// Apply `f` to every item, in parallel, preserving input order in the
/// output. Items are claimed dynamically (an atomic cursor), so long rows
/// (8-node, 208-rank sims) don't serialize behind a static partition.
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if n <= 1 || is_serial() {
        return items.into_iter().map(f).collect();
    }
    let slots: Vec<Mutex<(Option<T>, Option<R>)>> = items
        .into_iter()
        .map(|t| Mutex::new((Some(t), None)))
        .collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers_for(n) {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = slots[i]
                    .lock()
                    .expect("job slot poisoned")
                    .0
                    .take()
                    .expect("job claimed twice");
                let r = f(item);
                slots[i].lock().expect("job slot poisoned").1 = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("job slot poisoned")
                .1
                .expect("worker completed every claimed job")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let out = par_map((0..100).collect::<Vec<i32>>(), |x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_singleton() {
        assert_eq!(par_map(Vec::<i32>::new(), |x| x), Vec::<i32>::new());
        assert_eq!(par_map(vec![7], |x| x + 1), vec![8]);
    }

    #[test]
    fn serial_mode_matches_parallel() {
        let items: Vec<u64> = (0..64).collect();
        let par = par_map(items.clone(), |x| x.wrapping_mul(0x9e3779b97f4a7c15));
        set_serial(true);
        let ser = par_map(items, |x| x.wrapping_mul(0x9e3779b97f4a7c15));
        set_serial(false);
        assert_eq!(par, ser);
    }
}
