//! PCI-Express link between one host and one device.
//!
//! Two traffic classes matter for dCUDA (paper §III-C):
//!
//! * **Queue transactions** — small mapped-memory writes/reads used by the
//!   circular-buffer queues. An enqueue costs one transaction; polling a
//!   remote tail pointer costs one read. These are latency-dominated and
//!   modeled as fixed-latency jobs on the link FIFO.
//! * **DMA copies** — bulk transfers (host staging) with a setup latency and
//!   bandwidth-bound serialization.
//!
//! Both classes share the link FIFO, so queue traffic experiences head-of-line
//! blocking behind bulk DMA — a real effect on the testbed.

use crate::spec::PcieSpec;
use dcuda_des::{FifoResource, SimDuration, SimTime};

/// Traffic class of one logged PCIe job.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PcieOp {
    /// Queue-entry posted write.
    Txn,
    /// Remote tail-pointer / credit poll read.
    Poll,
    /// Bulk DMA copy.
    Dma,
}

impl PcieOp {
    /// Short static label (trace/diagnostic output).
    pub fn label(self) -> &'static str {
        match self {
            PcieOp::Txn => "txn",
            PcieOp::Poll => "poll",
            PcieOp::Dma => "dma",
        }
    }
}

/// Lifecycle record of one PCIe job (only collected while the link log is
/// enabled).
#[derive(Clone, Copy, Debug)]
pub struct PcieRecord {
    /// Traffic class.
    pub op: PcieOp,
    /// Payload bytes (zero for polls).
    pub bytes: u64,
    /// Instant the link began servicing it (later than the issue instant
    /// under head-of-line blocking).
    pub start: SimTime,
    /// Instant the link released it (excludes the one-way wire latency a
    /// posted write still needs before it is visible remotely).
    pub done: SimTime,
}

/// A single host–device PCIe link.
pub struct PcieLink {
    spec: PcieSpec,
    fifo: FifoResource,
    /// Job lifecycle log; `None` (the default) records nothing.
    log: Option<Vec<PcieRecord>>,
}

impl PcieLink {
    /// Create an idle link.
    pub fn new(spec: PcieSpec) -> Self {
        PcieLink {
            spec,
            fifo: FifoResource::new(),
            log: None,
        }
    }

    /// Link parameters.
    pub fn spec(&self) -> &PcieSpec {
        &self.spec
    }

    /// Start collecting per-job lifecycle records.
    pub fn enable_log(&mut self) {
        self.log.get_or_insert_with(Vec::new);
    }

    /// Drain the collected lifecycle records (empty if logging was never
    /// enabled). Logging stays enabled.
    pub fn take_log(&mut self) -> Vec<PcieRecord> {
        self.log.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// Record one serviced job.
    #[inline]
    fn log_job(&mut self, op: PcieOp, bytes: u64, service: SimDuration, done: SimTime) {
        if let Some(log) = &mut self.log {
            log.push(PcieRecord {
                op,
                bytes,
                start: SimTime::from_ps(done.as_ps().saturating_sub(service.as_ps())),
                done,
            });
        }
    }

    /// Post a queue-entry write of `bytes` (an enqueue). Entries larger than
    /// the atomic transaction width cost proportionally more transactions.
    /// Returns the instant the write is visible on the other side.
    ///
    /// Posted writes pipeline: each occupies the link for `txn_gap`, and the
    /// one-way `txn_latency` is added after the link releases the last
    /// transaction of the entry.
    pub fn post_txn(&mut self, now: SimTime, bytes: u64) -> SimTime {
        let txns = bytes.div_ceil(self.spec.max_txn_bytes).max(1);
        let service = self.spec.txn_gap.saturating_mul(txns);
        let done = self.fifo.submit(now, service);
        self.log_job(PcieOp::Txn, bytes, service, done);
        done + self.spec.txn_latency
    }

    /// Read a remote location (tail-pointer poll, credit refresh). Returns
    /// the instant the value is available to the poller.
    pub fn poll(&mut self, now: SimTime) -> SimTime {
        let service = self.spec.poll_latency;
        let done = self.fifo.submit(now, service);
        self.log_job(PcieOp::Poll, 0, service, done);
        done
    }

    /// Bulk DMA copy of `bytes`. Returns the completion instant.
    pub fn dma_copy(&mut self, now: SimTime, bytes: u64) -> SimTime {
        let service = self.spec.dma_setup
            + SimDuration::from_secs_f64(bytes as f64 / self.spec.dma_bandwidth);
        let done = self.fifo.submit(now, service);
        self.log_job(PcieOp::Dma, bytes, service, done);
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link() -> PcieLink {
        PcieLink::new(PcieSpec::greina())
    }

    #[test]
    fn small_enqueue_is_one_txn() {
        let mut l = link();
        let spec = PcieSpec::greina();
        let t = l.post_txn(SimTime::ZERO, 16);
        assert_eq!(t, SimTime::ZERO + spec.txn_gap + spec.txn_latency);
    }

    #[test]
    fn posted_writes_pipeline() {
        // A burst of enqueues is gap-limited, not latency-limited: the Nth
        // write lands N*gap + latency after the burst start.
        let mut l = link();
        let spec = PcieSpec::greina();
        let mut last = SimTime::ZERO;
        for _ in 0..100 {
            last = l.post_txn(SimTime::ZERO, 16);
        }
        let expect = SimTime::ZERO + spec.txn_gap.saturating_mul(100) + spec.txn_latency;
        assert_eq!(last, expect);
    }

    #[test]
    fn oversized_entry_costs_multiple_txns() {
        let mut l = link();
        let spec = PcieSpec::greina();
        let t = l.post_txn(SimTime::ZERO, 40); // ceil(40/16) = 3
        assert_eq!(
            t,
            SimTime::ZERO + spec.txn_gap.saturating_mul(3) + spec.txn_latency
        );
    }

    #[test]
    fn zero_byte_txn_still_costs_one() {
        let mut l = link();
        let spec = PcieSpec::greina();
        let t = l.post_txn(SimTime::ZERO, 0);
        assert_eq!(t, SimTime::ZERO + spec.txn_gap + spec.txn_latency);
    }

    #[test]
    fn dma_has_setup_plus_bandwidth() {
        let mut l = link();
        let bytes = 11_000_000; // 1 ms at 11 GB/s
        let t = l.dma_copy(SimTime::ZERO, bytes);
        let expect_us = 1000.0 + 1.0; // + 1 us setup
        assert!((t.as_micros_f64() - expect_us).abs() < 0.01, "got {t}");
    }

    #[test]
    fn queue_txn_blocks_behind_dma() {
        let mut l = link();
        let dma_done = l.dma_copy(SimTime::ZERO, 11_000_000);
        let txn_done = l.post_txn(SimTime::ZERO, 16);
        assert!(txn_done > dma_done, "head-of-line blocking expected");
    }

    #[test]
    fn polls_cost_one_poll_latency() {
        let mut l = link();
        let t = l.poll(SimTime::ZERO);
        assert_eq!(t, SimTime::ZERO + PcieSpec::greina().poll_latency);
    }
}
