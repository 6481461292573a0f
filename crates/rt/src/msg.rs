//! Message types flowing through the runtime's queues and channels.

use dcuda_queues::Notification;

/// A command from a rank to its block manager (device → host ring).
#[derive(Debug)]
pub enum Cmd {
    /// Remote put: deliver `data` into `dst`'s window and (optionally)
    /// notify.
    Put {
        /// Destination world rank.
        dst: u32,
        /// Destination window.
        win: u32,
        /// Byte offset in the destination rank's window.
        dst_off: usize,
        /// Payload.
        data: Vec<u8>,
        /// Notification tag.
        tag: u32,
        /// Enqueue a notification at the target.
        notify: bool,
        /// Origin's flush sequence number for this operation.
        flush_id: u64,
    },
    /// The rank's program finished.
    Finish,
}

/// A delivery from the host to a rank (host → device ring): payload plus the
/// notification that announces it.
#[derive(Debug)]
pub struct Delivery {
    /// The notification (window the data lands in, source, tag).
    pub notif: Notification,
    /// Byte offset in the target's window.
    pub dst_off: usize,
    /// Payload: empty for a pure notification, and for one whose payload
    /// the engine already landed in the target window.
    pub data: Vec<u8>,
    /// True if a notification should be enqueued (false: silent data
    /// delivery from a plain `put`).
    pub notify: bool,
}

// Inter-host messages live in `dcuda_net::wire::WireMsg` since the plane
// became a swappable `Transport`; the host flattens `Delivery` into
// `WireMsg::Deliver` fields at the boundary.
