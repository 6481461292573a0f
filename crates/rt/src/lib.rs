//! Native threaded dCUDA executor.
//!
//! The discrete-event simulation (`dcuda-core`) models the paper's runtime
//! in virtual time; this crate *runs* it, with real concurrency:
//!
//! * every rank is an OS thread executing a blocking program against
//!   [`RtCtx`] — the same call shapes as the paper's Figure 2 listing
//!   (`put_notify`, `wait_notifications`, `flush`, `barrier`) — or, in a
//!   job world ([`try_run_cluster_job`]), a resumable [`RankTask`] that
//!   suspends where the blocking program would wait; the whole job world
//!   then runs on its caller's thread, with no rank or host threads of its
//!   own (the [`task`] module's cooperative driver);
//! * every device has a host engine playing the **event handler / block
//!   manager** role of paper Figure 4, connected to its ranks through the
//!   real sequence-numbered, credit-controlled rings of [`dcuda_queues`]
//!   and run by a host thread (a job world's driver passes it instead);
//!   in a world run whole in one process a rank that would wait runs that
//!   engine itself when it is free (caller-driven progress,
//!   [`ProgressMode::Inline`]), so no message waits for a host thread to
//!   be scheduled;
//! * hosts exchange inter-device traffic over channels (the MPI layer).
//!
//! Notifications carry their payload; a rank applies pending deliveries to
//! its window memory when it polls its notification queue, so data is always
//! visible once the matching notification has been matched — the
//! linearizable semantics the paper's notification queues provide.
//!
//! The executor favours correctness and protocol fidelity over raw speed
//! (window memory is rank-private, so even same-device puts copy).

#![warn(missing_docs)]

pub mod cluster;
pub mod coll;
pub mod ctx;
pub mod host;
pub mod msg;
pub mod programs;
pub mod task;
pub mod types;

pub use cluster::{
    run_cluster, run_cluster_traced, try_run_cluster, try_run_cluster_job, try_run_cluster_part,
    try_run_cluster_verified, CancelToken, ClusterPart, ProgressMode, RtConfig, RtConfigBuilder,
    RtReport, DEFAULT_COLL_SCRATCH, MAX_PROGRESS_THREADS, MAX_WINDOW_BYTES, MAX_WORLD,
};
pub use coll::{CollCtx, CollStats, CollWait, Collective, COLL_TAG_BIT};
pub use ctx::RtCtx;
pub use dcuda_coll::{
    allreduce_scratch_bytes, reduce_scatter_scratch_bytes, CollAlgo, CollError, CollPlan,
    CollPlanBuilder, Dtype, ReduceOp,
};
pub use dcuda_net::{NetStats, Transport};
pub use dcuda_verify::{RaceMode, RaceReport, VerifyReport};
pub use task::{run_blocking, thread_per_rank, RankTask, Step};
pub use types::{Rank, RtError, RtQuery, Tag, WindowId};

/// One-stop imports for writing rank programs: the context, the typed
/// identifiers, the collective extension trait and the plan vocabulary.
pub mod prelude {
    pub use crate::cluster::{ProgressMode, RtConfig, RtConfigBuilder, RtReport};
    pub use crate::coll::{CollCtx, CollStats, Collective};
    pub use crate::ctx::RtCtx;
    pub use crate::task::{RankTask, Step};
    pub use crate::types::{Rank, RtError, RtQuery, Tag, WindowId};
    pub use dcuda_coll::{
        allreduce_scratch_bytes, reduce_scatter_scratch_bytes, CollAlgo, CollError, CollPlan,
        CollPlanBuilder, Dtype, ReduceOp,
    };
    pub use dcuda_verify::{RaceMode, RaceReport};
}
