//! Chrome-trace ("Trace Event Format") JSON export.
//!
//! The emitted file loads directly into `chrome://tracing` and Perfetto
//! (<https://ui.perfetto.dev>). Layout:
//!
//! * one *process* per component class (ranks / device event handlers /
//!   network links / PCIe links), named by metadata events;
//! * one *thread* (track) per rank, per host worker, per NIC and per PCIe
//!   link;
//! * spans as `"ph": "X"` complete events, instants as `"ph": "i"`;
//! * timestamps in microseconds of **simulated** time (the format's `ts`
//!   unit), emitted in nondecreasing order within each track.
//!
//! The writer depends on nothing but `std`; numbers are formatted with
//! Rust's shortest-roundtrip float formatter, so identical traces produce
//! identical bytes.

use crate::{ArgValue, Tracer, Track};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Convert picoseconds of simulated time to the format's microsecond unit.
fn ps_to_us(ps: u64) -> f64 {
    ps as f64 / 1e6
}

/// Append `s` to `out` as a quoted JSON string literal.
pub fn push_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

fn push_args(out: &mut String, args: &[(&'static str, ArgValue)]) {
    out.push('{');
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_escaped(out, k);
        out.push(':');
        match v {
            ArgValue::U64(n) => {
                let _ = write!(out, "{n}");
            }
            ArgValue::F64(f) => push_f64(out, *f),
            ArgValue::Str(s) => push_escaped(out, s),
        }
    }
    out.push('}');
}

/// One renderable event, normalized for sorting.
struct Row<'a> {
    track: Track,
    ts_ps: u64,
    /// Complete events carry a duration; instants do not.
    dur_ps: Option<u64>,
    name: &'a str,
    args: &'a [(&'static str, ArgValue)],
}

/// Serialize a [`Tracer`]'s records as a Chrome-trace JSON object.
///
/// Events are ordered by (process, track, timestamp, duration), making the
/// output deterministic and each track's `ts` sequence nondecreasing — the
/// property the CI schema check asserts.
pub fn to_chrome_json(tracer: &Tracer) -> String {
    let mut rows: Vec<Row<'_>> = Vec::with_capacity(tracer.len());
    for s in tracer.spans() {
        rows.push(Row {
            track: s.track,
            ts_ps: s.start_ps,
            dur_ps: Some(s.end_ps - s.start_ps),
            name: s.name,
            args: &s.args,
        });
    }
    for i in tracer.instants() {
        rows.push(Row {
            track: i.track,
            ts_ps: i.ts_ps,
            dur_ps: None,
            name: i.name,
            args: &i.args,
        });
    }
    rows.sort_by_key(|r| (r.track.pid(), r.track.tid(), r.ts_ps, r.dur_ps));

    let tracks: BTreeSet<Track> = rows.iter().map(|r| r.track).collect();
    let pids: BTreeSet<(u32, &'static str)> =
        tracks.iter().map(|t| (t.pid(), t.process_name())).collect();

    let mut out = String::with_capacity(rows.len() * 96 + 1024);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let mut emit_sep = |out: &mut String| {
        if first {
            first = false;
        } else {
            out.push(',');
        }
        out.push('\n');
    };
    for (pid, name) in &pids {
        emit_sep(&mut out);
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{pid},\"tid\":0,\"args\":{{\"name\":"
        );
        push_escaped(&mut out, name);
        out.push_str("}}");
    }
    for t in &tracks {
        emit_sep(&mut out);
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{},\"tid\":{},\"args\":{{\"name\":",
            t.pid(),
            t.tid()
        );
        push_escaped(&mut out, &t.track_name());
        out.push_str("}}");
    }
    for r in &rows {
        emit_sep(&mut out);
        out.push_str("{\"ph\":");
        match r.dur_ps {
            Some(dur) => {
                out.push_str("\"X\",\"dur\":");
                push_f64(&mut out, ps_to_us(dur));
            }
            None => out.push_str("\"i\",\"s\":\"t\""),
        }
        out.push_str(",\"name\":");
        push_escaped(&mut out, r.name);
        let _ = write!(out, ",\"pid\":{},\"tid\":{}", r.track.pid(), r.track.tid());
        out.push_str(",\"ts\":");
        push_f64(&mut out, ps_to_us(r.ts_ps));
        out.push_str(",\"args\":");
        push_args(&mut out, r.args);
        out.push('}');
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_is_json_safe() {
        let mut s = String::new();
        push_escaped(&mut s, "a\"b\\c\nd");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn emits_metadata_and_events() {
        let mut t = Tracer::enabled();
        t.span(
            Track::Rank(0),
            "wait",
            2_000_000,
            5_000_000,
            vec![("count", 1u64.into())],
        );
        t.instant(Track::NetLink(1), "arrive", 7_000_000, vec![]);
        let json = to_chrome_json(&t);
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("\"name\":\"rank 0\""));
        assert!(json.contains("\"name\":\"nic 1\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"dur\":3"));
        assert!(json.contains("\"ph\":\"i\""));
        // ts in microseconds.
        assert!(json.contains("\"ts\":2"));
        assert!(json.contains("\"ts\":7"));
    }

    #[test]
    fn per_track_ts_is_sorted() {
        let mut t = Tracer::enabled();
        // Inserted out of order on the same track.
        t.span(Track::Host(0), "b", 9_000_000, 10_000_000, vec![]);
        t.span(Track::Host(0), "a", 1_000_000, 2_000_000, vec![]);
        let json = to_chrome_json(&t);
        let a = json.find("\"name\":\"a\"").unwrap();
        let b = json.find("\"name\":\"b\"").unwrap();
        assert!(a < b, "events must be time-sorted within a track");
    }

    #[test]
    fn deterministic_bytes() {
        let build = || {
            let mut t = Tracer::enabled();
            t.span(Track::Rank(3), "put", 1, 2, vec![("bytes", 1024u64.into())]);
            t.instant(Track::Pcie(0), "txn", 3, vec![("path", "dma".into())]);
            to_chrome_json(&t)
        };
        assert_eq!(build(), build());
    }
}
