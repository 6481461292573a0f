//! A job world spawns no thread. This binary holds a single test, so no
//! other test's threads come and go while it counts this process's
//! threads in `/proc/self/task`.

use dcuda_rt::{task, try_run_cluster_job, CancelToken, Rank, RankTask, RtConfig};
use dcuda_rt::{RtQuery, Tag, WindowId};

const W0: WindowId = WindowId(0);

/// Threads of this process (Linux); `None` elsewhere.
fn threads() -> Option<usize> {
    std::fs::read_dir("/proc/self/task").ok().map(|d| d.count())
}

/// One ring round: put to the right neighbour, wait for the left one, and
/// return the thread count seen from inside the world.
fn round() -> RankTask {
    task(|ctx| {
        Box::pin(async move {
            let (r, n) = (ctx.rank().0, ctx.world_size());
            ctx.try_put_notify(W0, Rank((r + 1) % n), 0, 0, 1, Tag(1))?;
            ctx.wait_notifications_async(RtQuery::exact(W0, Rank((r + n - 1) % n), Tag(1)), 1)
                .await?;
            Ok(threads().unwrap_or(0) as u64)
        })
    })
}

#[test]
fn fifty_job_worlds_leave_the_thread_count_unchanged() {
    let cfg = RtConfig {
        devices: 2,
        ranks_per_device: 2,
        windows: vec![64],
        ..RtConfig::default()
    };
    let before = threads();
    for _ in 0..50 {
        let tasks = (0..4).map(|_| round()).collect();
        let (_, seen) = try_run_cluster_job(&cfg, tasks, &CancelToken::new()).unwrap();
        if let Some(before) = before {
            assert!(
                seen.iter().all(|&n| n as usize == before),
                "{seen:?} threads inside a job world, {before} before"
            );
        }
        assert_eq!(threads(), before);
    }
}
