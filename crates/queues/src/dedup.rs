//! Receiver-side duplicate suppression over per-origin sequence numbers.
//!
//! Senders stamp every message with a per-origin sequence number; a
//! [`DedupWindow`] at the receiver accepts each sequence number exactly once
//! (an anti-replay sliding window, RFC 4302 style), which keeps notification
//! delivery exactly-once when the fabric duplicates or retransmits packets.
//! It is a plain sequential state machine — the embedding event loop
//! provides the clock and the transport.

/// Size of the replay window in sequence numbers.
pub const DEDUP_WINDOW: u64 = 64;

/// Sliding-window duplicate suppressor over per-origin sequence numbers.
///
/// Sequence numbers may arrive out of order; each is accepted at most once.
/// Numbers older than [`DEDUP_WINDOW`] behind the newest accepted one are
/// conservatively treated as duplicates (retransmits always carry the
/// original number, so a number that old has either been seen or its
/// transfer has been retried since).
#[derive(Debug, Default, Clone)]
pub struct DedupWindow {
    highest: u64,
    /// Bit `j` set means `highest - 1 - j` was accepted.
    mask: u64,
    seen_any: bool,
    /// Duplicates suppressed so far.
    suppressed: u64,
}

impl DedupWindow {
    /// An empty window: every sequence number is still fresh.
    pub fn new() -> Self {
        DedupWindow::default()
    }

    /// Accept or reject one sequence number. Returns `true` exactly once per
    /// number (within the window's memory).
    pub fn accept(&mut self, seq: u64) -> bool {
        if !self.seen_any {
            self.seen_any = true;
            self.highest = seq;
            self.mask = 0;
            return true;
        }
        if seq > self.highest {
            let diff = seq - self.highest;
            self.mask = if diff >= DEDUP_WINDOW {
                0
            } else {
                (self.mask << diff) | (1u64 << (diff - 1))
            };
            self.highest = seq;
            return true;
        }
        if seq == self.highest {
            self.suppressed += 1;
            return false;
        }
        let dist = self.highest - seq;
        if dist > DEDUP_WINDOW {
            self.suppressed += 1;
            return false;
        }
        let bit = 1u64 << (dist - 1);
        if self.mask & bit != 0 {
            self.suppressed += 1;
            false
        } else {
            self.mask |= bit;
            true
        }
    }

    /// Number of duplicates rejected so far.
    pub fn suppressed(&self) -> u64 {
        self.suppressed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_sequences_all_accepted() {
        let mut w = DedupWindow::new();
        for s in 0..1000 {
            assert!(w.accept(s));
        }
        assert_eq!(w.suppressed(), 0);
    }

    #[test]
    fn duplicates_rejected_in_any_order() {
        let mut w = DedupWindow::new();
        for s in [3u64, 1, 2, 0, 5, 4] {
            assert!(w.accept(s), "first sight of {s}");
        }
        for s in [0u64, 1, 2, 3, 4, 5] {
            assert!(!w.accept(s), "duplicate of {s}");
        }
        assert_eq!(w.suppressed(), 6);
    }

    #[test]
    fn ancient_sequence_is_treated_as_duplicate() {
        let mut w = DedupWindow::new();
        assert!(w.accept(0));
        assert!(w.accept(1000));
        assert!(!w.accept(1), "older than the window: suppressed");
        assert!(w.accept(999), "within the window and unseen: accepted");
    }

    #[test]
    fn window_boundary_is_exact() {
        let mut w = DedupWindow::new();
        assert!(w.accept(DEDUP_WINDOW + 5));
        assert!(w.accept(5), "exactly at distance DEDUP_WINDOW");
        assert!(!w.accept(4), "one past the window");
    }
}
