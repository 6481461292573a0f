//! Egalitarian processor-sharing (PS) resource with an optional per-job
//! rate cap.
//!
//! A PS resource serves all active jobs simultaneously at one service level.
//! Uncapped, each job receives an equal share of the total service rate;
//! capped, every job gets `min(cap, λ)` by *water-filling*, where the water
//! level `λ` is chosen so the shares sum to the resource rate (or every job
//! is at its cap and the resource is partially idle). The cap belongs to the
//! resource, not the job, so all live jobs always run at the same level.
//!
//! This is our model for the **device memory interface** — capped PS: each
//! block can keep only a bounded number of bytes in flight (Little's law),
//! so one block tops out near 1 GB/s while hundreds of blocks together
//! saturate 240 GB/s (paper §IV-B explains the low shared-memory put
//! bandwidth exactly this way).
//!
//! A **streaming multiprocessor** executing resident blocks is equal-share
//! PS: a block stalled on a notification is simply not submitted, so other
//! blocks absorb its share (the hardware latency-hiding mechanism the dCUDA
//! paper exploits). `dcuda_device::Device` serves its SMs itself with this
//! resource's arithmetic, all SMs in one pass; an uncapped `PsResource` per
//! SM is the oracle its tests hold it to.
//!
//! # Driving protocol
//!
//! The resource does not schedule its own events. The owning model must:
//!
//! 1. call [`PsResource::advance_to`] with the current time before a cancel,
//!    before a submit to a busy resource, and at every completion event;
//! 2. pass the current time to [`PsResource::submit`], which stamps it on a
//!    resource that was idle — an idle resource has nothing to serve, so it
//!    need not be advanced at all while it stays idle;
//! 3. after any change to the active set, re-query
//!    [`PsResource::next_completion`] and re-arm its timer slot for that
//!    instant (see [`EventQueue::arm`](crate::EventQueue::arm)).
//!
//! Under that protocol, jobs complete exactly at the instants the resource
//! predicts (modulo 1 ps rounding, absorbed by an epsilon). Advancing an
//! idle resource, or a busy one again to the instant it already holds with
//! no submit since, is an inlined no-op: neither can change any job's
//! remaining demand, the delivered total or the next completion.

use crate::slab::{Slab, SlotKey};
use crate::time::{SimDuration, SimTime};

/// Handle to a job submitted to a [`PsResource`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PsJobId(SlotKey);

struct Job {
    /// Remaining demand, in service units.
    remaining: f64,
    /// Caller-supplied tag returned on completion.
    tag: u64,
}

/// An egalitarian processor-sharing resource with one per-job rate cap.
pub struct PsResource {
    /// Service rate in units per second (e.g. FLOP/s or bytes/s).
    rate: f64,
    /// Maximum service rate one job can absorb (units/s); infinite when
    /// uncapped.
    cap: f64,
    jobs: Slab<Job>,
    last_update: SimTime,
    /// A job was submitted since the last advance, so an advance to
    /// `last_update` itself still has work: completing zero-demand jobs and
    /// refreshing `next`.
    submitted: bool,
    /// `(n, level)`: the per-job service rate for `n` live jobs, cached
    /// until the job count changes.
    level: (usize, f64),
    /// [`next_completion`](Self::next_completion)'s answer, cached until a
    /// submit, a cancel, or an advance.
    next: Option<Option<SimTime>>,
    /// Total service units delivered (for utilization statistics).
    delivered: f64,
    /// Full advance passes over the live jobs (see [`passes`](Self::passes)).
    passes: u64,
    /// Completion epsilon in service units (~2 ps of full-rate service).
    eps: f64,
}

impl PsResource {
    /// Create an uncapped resource with the given service rate (units per
    /// second).
    ///
    /// # Panics
    /// Panics if the rate is not strictly positive and finite.
    pub fn new(rate: f64) -> Self {
        Self::capped(rate, f64::INFINITY)
    }

    /// Create a resource with the given service rate whose jobs can each
    /// absorb at most `cap` units/s.
    ///
    /// # Panics
    /// Panics if the rate is not strictly positive and finite, or the cap is
    /// not strictly positive.
    pub fn capped(rate: f64, cap: f64) -> Self {
        assert!(
            rate.is_finite() && rate > 0.0,
            "PsResource rate must be positive, got {rate}"
        );
        assert!(cap > 0.0, "PsResource cap must be positive, got {cap}");
        PsResource {
            rate,
            cap,
            jobs: Slab::new(),
            last_update: SimTime::ZERO,
            submitted: false,
            level: (0, 0.0),
            next: Some(None),
            delivered: 0.0,
            passes: 0,
            eps: rate * 2e-12,
        }
    }

    /// Service rate in units per second.
    #[inline]
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Total service units delivered so far (advance time first for an exact
    /// figure).
    #[inline]
    pub fn delivered(&self) -> f64 {
        self.delivered
    }

    /// Advances that served the live jobs: each one that found the
    /// resource busy and either later than its last update or submitted to
    /// since. The no-op advances are not counted.
    #[inline]
    pub fn passes(&self) -> u64 {
        self.passes
    }

    /// The service rate every live job gets: water-filling over `n` equal
    /// caps. The loop runs in full rather than as `min(cap, rate / n)`,
    /// which differs in the last bit when `cap ≈ rate / n`.
    fn level(&mut self) -> f64 {
        let n = self.jobs.len();
        if self.level.0 != n {
            let mut remaining_rate = self.rate;
            let mut remaining_jobs = n;
            let mut level = f64::INFINITY;
            for _ in 0..n {
                let fair = remaining_rate / remaining_jobs as f64;
                if self.cap <= fair {
                    // This job saturates at its cap; redistribute the
                    // leftovers.
                    remaining_rate -= self.cap;
                    remaining_jobs -= 1;
                } else {
                    level = fair;
                    break;
                }
            }
            self.level = (n, self.cap.min(level));
        }
        self.level.1
    }

    /// True when no job is live.
    #[inline]
    pub fn is_idle(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Advance the resource to `now`, serving active jobs at the service
    /// level, and append `(job, tag)` for every job that completes
    /// (remaining demand reaches zero) to `completed`, in slot order.
    ///
    /// An idle resource, or one already at `now` with no submit since its
    /// last advance, returns at once: the full pass would serve nothing and
    /// complete nothing, and the next completion it would cache is the one
    /// [`next_completion`](Self::next_completion) computes lazily.
    ///
    /// # Panics
    /// Panics if `now` is before the instant the resource was last advanced
    /// or submitted to.
    #[inline]
    pub fn advance_to(&mut self, now: SimTime, completed: &mut Vec<(PsJobId, u64)>) {
        if self.jobs.is_empty() {
            assert!(now >= self.last_update, "PsResource time went backwards");
            return;
        }
        if now == self.last_update && !self.submitted {
            return;
        }
        self.serve_to(now, completed);
    }

    /// The full advance pass over every live job.
    ///
    /// The same pass also caches the next completion: every survivor runs at
    /// one level, and correctly rounded division by a positive constant is
    /// monotonic, so the least remaining demand over the level *is* the
    /// least per-job quotient.
    fn serve_to(&mut self, now: SimTime, completed: &mut Vec<(PsJobId, u64)>) {
        let dt = now.since(self.last_update).as_secs_f64();
        self.last_update = now;
        self.submitted = false;
        self.passes += 1;
        let level = self.level();
        let eps = self.eps;
        let first = completed.len();
        let mut least = f64::INFINITY;
        for (k, job) in self.jobs.iter_mut() {
            if dt > 0.0 {
                let served = (dt * level).min(job.remaining);
                job.remaining -= served;
                self.delivered += served;
            }
            if job.remaining <= eps {
                completed.push((PsJobId(k), job.tag));
            } else {
                least = least.min(job.remaining);
            }
        }
        for &(id, _) in &completed[first..] {
            self.jobs.remove(id.0).expect("completing a live job");
        }
        self.next = Some(
            (!self.jobs.is_empty()).then(|| now + SimDuration::from_secs_f64(least / self.level())),
        );
    }

    /// Submit a job with `demand` service units at `now`. A busy resource
    /// must already have been advanced to `now`; an idle one takes `now` as
    /// its last update, since it had nothing to serve before.
    ///
    /// Zero-demand jobs are legal; they complete at the next `advance_to`.
    ///
    /// # Panics
    /// Panics if `demand` is negative or not finite, if `now` is before the
    /// resource's last update, or if a busy resource was not advanced to
    /// `now` first.
    pub fn submit(&mut self, now: SimTime, demand: f64, tag: u64) -> PsJobId {
        assert!(
            demand.is_finite() && demand >= 0.0,
            "PsResource demand must be non-negative, got {demand}"
        );
        if self.jobs.is_empty() {
            assert!(now >= self.last_update, "PsResource time went backwards");
            self.last_update = now;
        } else {
            assert!(
                now == self.last_update,
                "PsResource submit at {now} to a busy resource last advanced to {}",
                self.last_update
            );
        }
        self.submitted = true;
        self.next = None;
        PsJobId(self.jobs.insert(Job {
            remaining: demand,
            tag,
        }))
    }

    /// Cancel a job (e.g. a block killed mid-kernel). Returns the remaining
    /// demand if the job was live.
    pub fn cancel(&mut self, id: PsJobId) -> Option<f64> {
        let job = self.jobs.remove(id.0)?;
        self.next = None;
        Some(job.remaining)
    }

    /// Remaining demand of a live job.
    pub fn remaining(&self, id: PsJobId) -> Option<f64> {
        self.jobs.get(id.0).map(|j| j.remaining)
    }

    /// The instant at which the next job will complete under the current
    /// active set, or `None` if idle. Always `>= last_update`.
    pub fn next_completion(&mut self) -> Option<SimTime> {
        if let Some(next) = self.next {
            return next;
        }
        let next = (!self.jobs.is_empty()).then(|| {
            let least = self
                .jobs
                .iter()
                .map(|(_, j)| j.remaining)
                .fold(f64::INFINITY, f64::min);
            self.last_update + SimDuration::from_secs_f64(least / self.level())
        });
        self.next = Some(next);
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(r: &mut PsResource, now: SimTime) -> Vec<u64> {
        let mut v = Vec::new();
        r.advance_to(now, &mut v);
        v.into_iter().map(|(_, t)| t).collect()
    }

    fn secs(s: f64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs_f64(s)
    }

    #[test]
    fn single_job_completes_at_demand_over_rate() {
        let mut r = PsResource::new(100.0); // 100 units/s
        r.submit(SimTime::ZERO, 50.0, 7); // 0.5 s
        let t = r.next_completion().unwrap();
        assert!((t.as_secs_f64() - 0.5).abs() < 1e-9);
        assert_eq!(drain(&mut r, t), vec![7]);
        assert!(r.next_completion().is_none());
    }

    #[test]
    fn two_equal_jobs_share_rate() {
        let mut r = PsResource::new(100.0);
        r.submit(SimTime::ZERO, 50.0, 1);
        r.submit(SimTime::ZERO, 50.0, 2);
        // Each gets 50 units/s -> both complete at t = 1 s.
        let t = r.next_completion().unwrap();
        assert!((t.as_secs_f64() - 1.0).abs() < 1e-9);
        let mut tags = drain(&mut r, t);
        tags.sort_unstable();
        assert_eq!(tags, vec![1, 2]);
    }

    #[test]
    fn late_arrival_slows_first_job() {
        let mut r = PsResource::new(100.0);
        let mut done = Vec::new();
        r.submit(SimTime::ZERO, 100.0, 1); // alone: 1 s
        r.advance_to(secs(0.5), &mut done);
        assert!(done.is_empty());
        r.submit(secs(0.5), 100.0, 2);
        // Job 1 has 50 left at half rate -> completes at 0.5 + 1.0 = 1.5 s.
        let t = r.next_completion().unwrap();
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-9, "got {}", t);
        assert_eq!(drain(&mut r, t), vec![1]);
        // Job 2 now alone with 50 left -> completes 0.5 s later.
        let t2 = r.next_completion().unwrap();
        assert!((t2.as_secs_f64() - 2.0).abs() < 1e-9);
        assert_eq!(drain(&mut r, t2), vec![2]);
    }

    #[test]
    fn latency_hiding_idle_job_absorbed() {
        // The dCUDA mechanism in miniature: two blocks' worth of work, one of
        // which is "stalled" (never submitted) for the first half. Total
        // completion time equals total demand / rate regardless of stalls,
        // as long as at least one job keeps the resource busy.
        let mut r = PsResource::new(10.0);
        let mut done = Vec::new();
        r.submit(SimTime::ZERO, 10.0, 1); // 1 s alone
        let t1 = r.next_completion().unwrap();
        r.advance_to(t1, &mut done);
        r.submit(t1, 10.0, 2);
        let t2 = r.next_completion().unwrap();
        assert!((t2.as_secs_f64() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn zero_demand_completes_immediately() {
        let mut r = PsResource::new(1.0);
        r.submit(SimTime::ZERO, 0.0, 9);
        let t = r.next_completion().unwrap();
        assert_eq!(t, SimTime::ZERO);
        assert_eq!(drain(&mut r, t), vec![9]);
    }

    #[test]
    fn cancel_removes_job() {
        let mut r = PsResource::new(10.0);
        let a = r.submit(SimTime::ZERO, 10.0, 1);
        r.submit(SimTime::ZERO, 10.0, 2);
        assert_eq!(r.cancel(a), Some(10.0));
        // Remaining job now gets full rate: completes at 1 s.
        let t = r.next_completion().unwrap();
        assert!((t.as_secs_f64() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn delivered_accounts_work() {
        let mut r = PsResource::new(100.0);
        let mut done = Vec::new();
        r.submit(SimTime::ZERO, 30.0, 1);
        let t = r.next_completion().unwrap();
        r.advance_to(t, &mut done);
        assert!((r.delivered() - 30.0).abs() < 1e-6);
    }

    #[test]
    fn many_jobs_numerical_stability() {
        // 208 identical jobs (a full K80 residency) must all complete at the
        // same predicted instant without epsilon misses.
        let mut r = PsResource::new(1.37e12);
        let mut done = Vec::new();
        for i in 0..208 {
            r.submit(SimTime::ZERO, 1e6, i);
        }
        let t = r.next_completion().unwrap();
        r.advance_to(t, &mut done);
        assert_eq!(done.len(), 208);
    }

    #[test]
    fn idle_resource_takes_the_submit_instant() {
        let mut r = PsResource::new(10.0);
        let mut done = Vec::new();
        r.submit(SimTime::ZERO, 10.0, 1);
        r.advance_to(secs(1.0), &mut done);
        assert!(r.is_idle());
        // Idle and never advanced from 1 s to 2 s: nothing was owed.
        r.submit(secs(2.0), 10.0, 2);
        let t = r.next_completion().unwrap();
        assert!((t.as_secs_f64() - 3.0).abs() < 1e-9, "got {t}");
    }

    #[test]
    #[should_panic(expected = "busy resource last advanced")]
    fn submit_to_busy_resource_needs_an_advance() {
        let mut r = PsResource::new(10.0);
        r.submit(SimTime::ZERO, 10.0, 1);
        r.submit(secs(0.5), 10.0, 2);
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn idle_advance_into_the_past_panics() {
        let mut r = PsResource::new(10.0);
        let mut done = Vec::new();
        r.submit(secs(1.0), 0.0, 1);
        r.advance_to(secs(1.0), &mut done);
        assert_eq!(done.len(), 1);
        r.advance_to(secs(0.5), &mut done);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_rate_rejected() {
        let _ = PsResource::new(0.0);
    }

    // --- capped (water-filling) behaviour ---

    #[test]
    fn single_capped_job_cannot_exceed_cap() {
        // A 240 GB/s memory interface, but one block caps at 1 GB/s — the
        // paper's "single block cannot saturate the memory interface".
        let mut r = PsResource::capped(240e9, 1e9);
        r.submit(SimTime::ZERO, 1e9, 1); // 1 GB at 1 GB/s cap -> 1 s
        let t = r.next_completion().unwrap();
        assert!((t.as_secs_f64() - 1.0).abs() < 1e-9, "got {t}");
    }

    #[test]
    fn many_capped_jobs_saturate_resource() {
        // 240 blocks x 1 GB/s caps on a 120 GB/s resource: the resource, not
        // the caps, is the bottleneck; each job gets the 0.5 GB/s fair share.
        let mut r = PsResource::capped(120e9, 1e9);
        let mut done = Vec::new();
        for i in 0..240 {
            r.submit(SimTime::ZERO, 0.5e9, i);
        }
        let t = r.next_completion().unwrap();
        assert!((t.as_secs_f64() - 1.0).abs() < 1e-9, "got {t}");
        r.advance_to(t, &mut done);
        assert_eq!(done.len(), 240);
    }

    #[test]
    fn cap_slack_leaves_resource_idle() {
        // One job with cap 10 on a rate-100 resource: utilization is 10%.
        let mut r = PsResource::capped(100.0, 10.0);
        let mut done = Vec::new();
        r.submit(SimTime::ZERO, 20.0, 1);
        let t = r.next_completion().unwrap();
        assert!((t.as_secs_f64() - 2.0).abs() < 1e-9);
        r.advance_to(t, &mut done);
        assert!((r.delivered() - 20.0).abs() < 1e-6);
    }
}
