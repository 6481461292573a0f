//! The benchmark's own span recorder.
//!
//! Spans are taken from *outside* the system, around the calls into each
//! layer's public functions (stamps inside the program are a later change).
//! Each thread records into its own [`SpanBuf`]; buffers append themselves to
//! the shared [`Tracer`] when dropped, so nothing is shared on the hot path.
//! A layer's self time is its span minus the part its child spans cover.

use crate::json::Json;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Nanoseconds since the first call in this process (one clock for all
/// threads, so spans of different threads line up in the trace).
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Track the span is drawn on (rank or driver thread; a fresh world of
    /// a later repetition reuses the track numbers of the previous one).
    pub tid: u32,
    /// The [`SpanBuf`] that recorded it, unique within a [`Tracer`].
    pub buf: u32,
    /// Index within that buffer; `(buf, id)` is unique.
    pub id: u32,
    /// `id` of the enclosing span in the same buffer, or [`NO_PARENT`].
    pub parent: u32,
    /// Shared by all spans of one operation (round trip, job, iteration).
    pub op: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// Collects the spans of one traced run; cloning shares the collection.
#[derive(Clone, Default)]
pub struct Tracer {
    sink: Option<Arc<Sink>>,
}

#[derive(Default)]
struct Sink {
    spans: Mutex<Vec<Span>>,
    next_buf: AtomicU32,
}

impl Tracer {
    pub fn on() -> Self {
        Tracer {
            sink: Some(Arc::default()),
        }
    }

    pub fn off() -> Self {
        Tracer::default()
    }

    /// A recording buffer for thread/track `tid` (inert when tracing is off).
    pub fn buf(&self, tid: u32) -> SpanBuf {
        SpanBuf {
            sink: self.sink.clone(),
            tid,
            // Relaxed: the counter only hands out distinct numbers.
            buf: self
                .sink
                .as_ref()
                .map_or(0, |s| s.next_buf.fetch_add(1, Ordering::Relaxed)),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Everything recorded so far by buffers that have been dropped.
    pub fn take(&self) -> Vec<Span> {
        match &self.sink {
            Some(s) => std::mem::take(&mut *s.spans.lock().expect("span sink poisoned")),
            None => Vec::new(),
        }
    }
}

/// Token returned by [`SpanBuf::begin`]; hand it back to [`SpanBuf::end`].
#[derive(Clone, Copy)]
pub struct Open(u32);

pub struct SpanBuf {
    sink: Option<Arc<Sink>>,
    tid: u32,
    buf: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl SpanBuf {
    #[inline]
    pub fn begin(&mut self, name: &'static str, op: u64) -> Open {
        if self.sink.is_none() {
            return Open(NO_PARENT);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start: now_ns(),
            end: 0,
            tid: self.tid,
            buf: self.buf,
            id,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            op,
        });
        self.open.push(id);
        Open(id)
    }

    #[inline]
    pub fn end(&mut self, open: Open) {
        if open.0 == NO_PARENT {
            return;
        }
        self.spans[open.0 as usize].end = now_ns();
        // Spans close in LIFO order; tolerate a skipped `end` by unwinding
        // to the span being closed.
        while let Some(top) = self.open.pop() {
            if top == open.0 {
                break;
            }
        }
    }

    /// Record `f` as one span.
    #[inline]
    pub fn time<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name, op);
        let out = f();
        self.end(open);
        out
    }
}

impl Drop for SpanBuf {
    fn drop(&mut self) {
        if let Some(sink) = &self.sink {
            // Never panic in drop: a poisoned sink only loses trace data.
            if let Ok(mut all) = sink.spans.lock() {
                // `end == 0` marks a span that was never closed.
                all.extend(self.spans.iter().filter(|s| s.end != 0));
            }
        }
    }
}

/// Self time of every span (aligned with `spans`): its duration minus the
/// union of the intervals its direct children cover, clipped to the span.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<(u32, u32), Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != NO_PARENT) {
        children
            .entry((s.buf, s.parent))
            .or_default()
            .push((s.start, s.end));
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get_mut(&(s.buf, s.id)) else {
                return s.dur();
            };
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                let b = b.min(s.end);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.dur() - covered
        })
        .collect()
}

/// Durations (ns) of every span called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur() as f64)
        .collect()
}

/// Total self time (ns) and call count per span name, sorted by name.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, u64, u64)> {
    let mut by: HashMap<&'static str, (u64, u64)> = HashMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let e = by.entry(s.name).or_default();
        e.0 += own;
        e.1 += 1;
    }
    let mut rows: Vec<_> = by.into_iter().map(|(n, (t, c))| (n, t, c)).collect();
    rows.sort_unstable();
    rows
}

/// Chrome-trace (`chrome://tracing`, Perfetto) rendering of at most
/// `max_events` spans, earliest first, one track per recording thread.
pub fn chrome_trace(spans: &[Span], max_events: usize) -> String {
    let mut order: Vec<&Span> = spans.iter().collect();
    order.sort_unstable_by_key(|s| (s.start, s.buf, s.id));
    let events = order.into_iter().take(max_events).map(|s| {
        let global = |id: u32| (u64::from(s.buf) << 32) | u64::from(id);
        let mut args = vec![("id", Json::Int(global(s.id))), ("op", Json::Int(s.op))];
        if s.parent != NO_PARENT {
            args.push(("parent", Json::Int(global(s.parent))));
        }
        Json::obj([
            ("name", Json::Str(s.name.into())),
            ("ph", Json::Str("X".into())),
            ("ts", Json::Num(s.start as f64 / 1e3)),
            ("dur", Json::Num(s.dur() as f64 / 1e3)),
            ("pid", Json::Int(1)),
            ("tid", Json::Int(u64::from(s.tid))),
            ("args", Json::obj(args)),
        ])
    });
    Json::obj([
        ("displayTimeUnit", Json::Str("ns".into())),
        ("traceEvents", Json::Arr(events.collect())),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start: u64, end: u64) -> Span {
        Span {
            name: "s",
            start,
            end,
            tid: 0,
            buf: 0,
            id,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root 0..100, child 10..60, grandchild 20..30: the grandchild is
        // covered by the child, not charged to the root a second time.
        let spans = [
            span(0, NO_PARENT, 0, 100),
            span(1, 0, 10, 60),
            span(2, 1, 20, 30),
        ];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn self_time_merges_overlapping_children() {
        // children 10..50 and 30..70 overlap: coverage is 60, not 80; a
        // child poking past its parent is clipped.
        let spans = [
            span(0, NO_PARENT, 0, 100),
            span(1, 0, 10, 50),
            span(2, 0, 30, 70),
            span(3, 0, 90, 120),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn children_of_other_buffers_do_not_count() {
        let mut other = span(1, 0, 10, 60);
        other.buf = 7;
        let spans = [span(0, NO_PARENT, 0, 100), other];
        assert_eq!(self_times(&spans)[0], 100);
    }

    #[test]
    fn buffers_nest_and_collect_on_drop() {
        let tracer = Tracer::on();
        {
            let mut buf = tracer.buf(3);
            let outer = buf.begin("outer", 9);
            buf.time("inner", 9, || std::hint::black_box(1 + 1));
            buf.end(outer);
        }
        let spans = tracer.take();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", NO_PARENT));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", 0));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        assert!(spans.iter().all(|s| s.tid == 3 && s.op == 9));
        let rows = self_time_by_name(&spans);
        assert_eq!(
            rows.iter().map(|r| r.0).collect::<Vec<_>>(),
            ["inner", "outer"]
        );
    }

    #[test]
    fn off_tracer_records_nothing() {
        let tracer = Tracer::off();
        let mut buf = tracer.buf(0);
        assert_eq!(buf.time("x", 0, || 5), 5);
        drop(buf);
        assert!(tracer.take().is_empty());
    }

    #[test]
    fn chrome_trace_is_capped_and_ordered() {
        let spans = [span(0, NO_PARENT, 50, 60), span(1, 0, 5, 9)];
        let text = chrome_trace(&spans, 1);
        assert_eq!(text.matches("\"ph\"").count(), 1);
        assert!(text.contains("\"ts\": 0.005"));
        assert!(text.contains("\"parent\": 0"));
    }
}
