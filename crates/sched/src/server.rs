//! The scheduler control plane: length-prefixed verbs on the launch codec.
//!
//! One [`serve`]/[`spawn_server`] instance listens on TCP and answers
//! single-request connections: each connection carries one request blob
//! (`dcuda_net::launch::write_blob` framing, the same codec the remote
//! launch plane uses) and gets one reply blob. Verbs:
//!
//! | request               | reply                                         |
//! |-----------------------|-----------------------------------------------|
//! | `submit <spec kv>`    | `ok id=<n>` or `err <reason>`                 |
//! | `status <id>`         | `ok state=queued position=<p>` / `running` / a full result line |
//! | `wait <id>`           | blocks; `ok <result kv>`                      |
//! | `cancel <id>`         | `ok cancel=requested` or `ok cancel=already-done:<end>` |
//! | `stats`               | `ok <stats kv>`                               |
//! | `drain`               | blocks until idle; `ok <stats kv>`            |
//! | `shutdown`            | `ok bye` (drains first, then stops accepting) |
//!
//! Replies are `key=value` text; the `error=` field, when present, is
//! always last and its value runs to the end of the line (runtime error
//! strings contain spaces). [`CtrlClient`] wraps the verbs with typed
//! parsing so `dcuda-launch submit` and the tcp-plane conformance tests
//! share one client.

use crate::jobstate::{CancelVerdict, JobEnd};
use crate::scheduler::{JobCounters, JobResult, JobStatus, Scheduler};
use crate::{JobSpec, SchedError, SchedStats};
use dcuda_net::launch::{ctrl_roundtrip, read_blob, write_blob};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Render a result as the control plane's reply line.
fn result_kv(r: &JobResult) -> String {
    let mut line = format!(
        "state=done id={} name={} end={} checksum={:016x} puts={} notifications={} matched={} \
         barriers={} wait_ms={:.3} run_ms={:.3}",
        r.id,
        r.name,
        r.end.name(),
        r.checksum,
        r.counters.puts,
        r.counters.notifications,
        r.counters.matched,
        r.counters.barriers,
        r.wait_ms,
        r.run_ms,
    );
    if let Some(e) = &r.error {
        // Always last: the error display contains spaces.
        line.push_str(&format!(" error={e}"));
    }
    line
}

/// Parse a `result_kv` line back into a [`JobResult`] (client side). The
/// typed `RtError` does not survive the wire; it comes back as
/// [`SchedError::Control`] text in the `error` display slot.
fn parse_result_kv(line: &str) -> Result<JobResult, String> {
    let mut r = JobResult {
        id: 0,
        name: String::new(),
        end: JobEnd::Failed,
        checksum: 0,
        counters: JobCounters::default(),
        error: None,
        wait_ms: 0.0,
        run_ms: 0.0,
    };
    let mut rest = line.trim();
    let mut err_text: Option<String> = None;
    if let Some(at) = rest.find(" error=") {
        err_text = Some(rest[at + " error=".len()..].to_string());
        rest = &rest[..at];
    }
    for tok in rest.split_whitespace() {
        let (k, v) = tok
            .split_once('=')
            .ok_or_else(|| format!("bad token {tok:?}"))?;
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("bad number {v:?} for {k}"))
        };
        let flt = |v: &str| {
            v.parse::<f64>()
                .map_err(|_| format!("bad float {v:?} for {k}"))
        };
        match k {
            "state" => {}
            "id" => r.id = num(v)?,
            "name" => r.name = v.to_string(),
            "end" => {
                r.end = match v {
                    "completed" => JobEnd::Completed,
                    "failed" => JobEnd::Failed,
                    "cancelled" => JobEnd::Cancelled,
                    other => return Err(format!("unknown end {other:?}")),
                }
            }
            "checksum" => {
                r.checksum =
                    u64::from_str_radix(v, 16).map_err(|_| format!("bad checksum {v:?}"))?
            }
            "puts" => r.counters.puts = num(v)?,
            "notifications" => r.counters.notifications = num(v)?,
            "matched" => r.counters.matched = num(v)?,
            "barriers" => r.counters.barriers = num(v)?,
            "wait_ms" => r.wait_ms = flt(v)?,
            "run_ms" => r.run_ms = flt(v)?,
            other => return Err(format!("unknown result key {other:?}")),
        }
    }
    if let Some(text) = err_text {
        // The wire flattens the typed error; keep its display for reports.
        r.error = Some(dcuda_rt::RtError::Transport { detail: text });
    }
    Ok(r)
}

/// Render aggregate stats as a reply line.
fn stats_kv(s: &SchedStats) -> String {
    format!(
        "submitted={} admitted={} completed={} failed={} cancelled={} rejected={} \
         queue_depth={} peak_queue_depth={} running={} slots_total={} slots_busy={} \
         peak_slots_busy={} busy_slot_nanos={} runners_started={}",
        s.submitted,
        s.admitted,
        s.completed,
        s.failed,
        s.cancelled,
        s.rejected,
        s.queue_depth,
        s.peak_queue_depth,
        s.running,
        s.slots_total,
        s.slots_busy,
        s.peak_slots_busy,
        s.busy_slot_nanos,
        s.runners_started,
    )
}

/// Parse a `stats_kv` line (client side).
fn parse_stats_kv(line: &str) -> Result<SchedStats, String> {
    let mut s = SchedStats::default();
    for tok in line.split_whitespace() {
        let (k, v) = tok
            .split_once('=')
            .ok_or_else(|| format!("bad token {tok:?}"))?;
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("bad number {v:?} for {k}"))
        };
        match k {
            "submitted" => s.submitted = num(v)?,
            "admitted" => s.admitted = num(v)?,
            "completed" => s.completed = num(v)?,
            "failed" => s.failed = num(v)?,
            "cancelled" => s.cancelled = num(v)?,
            "rejected" => s.rejected = num(v)?,
            "queue_depth" => s.queue_depth = num(v)?,
            "peak_queue_depth" => s.peak_queue_depth = num(v)?,
            "running" => s.running = num(v)?,
            "slots_total" => s.slots_total = num(v)?,
            "slots_busy" => s.slots_busy = num(v)?,
            "peak_slots_busy" => s.peak_slots_busy = num(v)?,
            "runners_started" => s.runners_started = num(v)?,
            "busy_slot_nanos" => {
                s.busy_slot_nanos = v
                    .parse::<u128>()
                    .map_err(|_| format!("bad number {v:?} for {k}"))?
            }
            other => return Err(format!("unknown stats key {other:?}")),
        }
    }
    Ok(s)
}

/// Answer one request line against the scheduler. `stop` is raised by
/// `shutdown`.
fn answer(sched: &Scheduler, request: &str, stop: &AtomicBool) -> String {
    let request = request.trim();
    let (verb, rest) = request.split_once(' ').unwrap_or((request, ""));
    let parse_id = |rest: &str| -> Result<u64, String> {
        rest.trim()
            .parse::<u64>()
            .map_err(|_| format!("bad job id {rest:?}"))
    };
    match verb {
        "submit" => match JobSpec::parse_kv(rest) {
            Ok(spec) => match sched.submit(spec) {
                Ok(id) => format!("ok id={id}"),
                Err(e) => format!("err {e}"),
            },
            Err(e) => format!("err invalid job spec: {e}"),
        },
        "status" => match parse_id(rest) {
            Ok(id) => match sched.status(id) {
                Ok(JobStatus::Queued { position }) => {
                    format!("ok state=queued position={position}")
                }
                Ok(JobStatus::Running) => "ok state=running".into(),
                Ok(JobStatus::Done(r)) => format!("ok {}", result_kv(&r)),
                Err(e) => format!("err {e}"),
            },
            Err(e) => format!("err {e}"),
        },
        "wait" => match parse_id(rest) {
            Ok(id) => match sched.wait(id) {
                Ok(r) => format!("ok {}", result_kv(&r)),
                Err(e) => format!("err {e}"),
            },
            Err(e) => format!("err {e}"),
        },
        "cancel" => match parse_id(rest) {
            Ok(id) => match sched.cancel(id) {
                Ok(CancelVerdict::Requested) => "ok cancel=requested".into(),
                Ok(CancelVerdict::AlreadyDone(end)) => {
                    format!("ok cancel=already-done:{}", end.name())
                }
                Err(e) => format!("err {e}"),
            },
            Err(e) => format!("err {e}"),
        },
        "stats" => format!("ok {}", stats_kv(&sched.stats())),
        "drain" => format!("ok {}", stats_kv(&sched.drain())),
        "shutdown" => {
            sched.drain();
            stop.store(true, Ordering::Release);
            "ok bye".into()
        }
        other => format!("err unknown verb {other:?}"),
    }
}

fn handle_conn(sched: &Scheduler, mut stream: TcpStream, stop: &AtomicBool) {
    if let Ok(request) = read_blob(&mut stream) {
        let reply = answer(sched, &request, stop);
        let _ = write_blob(&mut stream, &reply);
    }
}

/// A running control-plane server. Dropping the handle does not stop the
/// server; send `shutdown` (or call [`ServerHandle::shutdown`]).
pub struct ServerHandle {
    addr: String,
    join: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound `host:port` to hand to clients.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// A client for this server.
    pub fn client(&self) -> CtrlClient {
        CtrlClient::new(self.addr.clone())
    }

    /// Drain the scheduler, stop the accept loop and join it.
    pub fn shutdown(mut self) -> Result<(), SchedError> {
        self.client().shutdown()?;
        if let Some(join) = self.join.take() {
            join.join()
                .map_err(|_| SchedError::Control("server accept loop panicked".into()))?;
        }
        Ok(())
    }

    /// Block until the accept loop exits on its own (a client sent
    /// `shutdown`). The foreground `dcuda-launch sched serve` mode.
    pub fn join(mut self) -> Result<(), SchedError> {
        if let Some(join) = self.join.take() {
            join.join()
                .map_err(|_| SchedError::Control("server accept loop panicked".into()))?;
        }
        Ok(())
    }
}

/// Serve the scheduler's control plane on an already-bound listener,
/// blocking until a `shutdown` verb arrives. Each connection is answered on
/// its own thread so a blocking `wait`/`drain` never stalls the accept
/// loop.
pub fn serve(sched: Scheduler, listener: TcpListener) -> std::io::Result<()> {
    let stop = Arc::new(AtomicBool::new(false));
    let addr = listener.local_addr()?;
    for stream in listener.incoming() {
        if stop.load(Ordering::Acquire) {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        let sched = sched.clone();
        let stop = stop.clone();
        std::thread::Builder::new()
            .name("dcuda-sched-conn".into())
            .spawn(move || {
                handle_conn(&sched, stream, &stop);
                if stop.load(Ordering::Acquire) {
                    // Unblock the accept loop so it observes the stop flag.
                    let _ = TcpStream::connect(addr);
                }
            })?;
    }
    Ok(())
}

/// Bind `bind` (e.g. `127.0.0.1:0`) and serve on a background thread.
pub fn spawn_server(sched: Scheduler, bind: &str) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(bind)?;
    let addr = listener.local_addr()?.to_string();
    let join = std::thread::Builder::new()
        .name("dcuda-sched-accept".into())
        .spawn(move || {
            let _ = serve(sched, listener);
        })?;
    Ok(ServerHandle {
        addr,
        join: Some(join),
    })
}

/// Typed client over the control-plane verbs (one connection per request).
#[derive(Debug, Clone)]
pub struct CtrlClient {
    addr: String,
}

impl CtrlClient {
    /// A client for the server at `addr`.
    pub fn new(addr: impl Into<String>) -> CtrlClient {
        CtrlClient { addr: addr.into() }
    }

    /// The server address this client talks to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    fn call(&self, request: &str) -> Result<String, SchedError> {
        let reply = ctrl_roundtrip(&self.addr, request)
            .map_err(|e| SchedError::Control(format!("{request:.16}...: {e}")))?;
        if let Some(ok) = reply.strip_prefix("ok") {
            Ok(ok.trim_start().to_string())
        } else if let Some(err) = reply.strip_prefix("err ") {
            Err(SchedError::Control(err.to_string()))
        } else {
            Err(SchedError::Control(format!("malformed reply {reply:?}")))
        }
    }

    /// Submit a job; returns its id.
    pub fn submit(&self, spec: &JobSpec) -> Result<u64, SchedError> {
        let ok = self.call(&format!("submit {}", spec.to_kv()))?;
        ok.strip_prefix("id=")
            .and_then(|v| v.parse::<u64>().ok())
            .ok_or_else(|| SchedError::Control(format!("malformed submit reply {ok:?}")))
    }

    /// Block until the job is terminal; returns its report.
    pub fn wait(&self, id: u64) -> Result<JobResult, SchedError> {
        let ok = self.call(&format!("wait {id}"))?;
        parse_result_kv(&ok).map_err(SchedError::Control)
    }

    /// Where is the job?
    pub fn status(&self, id: u64) -> Result<JobStatus, SchedError> {
        let ok = self.call(&format!("status {id}"))?;
        if let Some(rest) = ok.strip_prefix("state=queued position=") {
            let position = rest
                .trim()
                .parse::<usize>()
                .map_err(|_| SchedError::Control(format!("bad position {rest:?}")))?;
            Ok(JobStatus::Queued { position })
        } else if ok.trim() == "state=running" {
            Ok(JobStatus::Running)
        } else {
            Ok(JobStatus::Done(
                parse_result_kv(&ok).map_err(SchedError::Control)?,
            ))
        }
    }

    /// Request cancellation of a job.
    pub fn cancel(&self, id: u64) -> Result<CancelVerdict, SchedError> {
        let ok = self.call(&format!("cancel {id}"))?;
        match ok.trim() {
            "cancel=requested" => Ok(CancelVerdict::Requested),
            "cancel=already-done:completed" => Ok(CancelVerdict::AlreadyDone(JobEnd::Completed)),
            "cancel=already-done:failed" => Ok(CancelVerdict::AlreadyDone(JobEnd::Failed)),
            "cancel=already-done:cancelled" => Ok(CancelVerdict::AlreadyDone(JobEnd::Cancelled)),
            other => Err(SchedError::Control(format!(
                "malformed cancel reply {other:?}"
            ))),
        }
    }

    /// Aggregate stats snapshot.
    pub fn stats(&self) -> Result<SchedStats, SchedError> {
        let ok = self.call("stats")?;
        parse_stats_kv(&ok).map_err(SchedError::Control)
    }

    /// Drain the scheduler; returns the final stats.
    pub fn drain(&self) -> Result<SchedStats, SchedError> {
        let ok = self.call("drain")?;
        parse_stats_kv(&ok).map_err(SchedError::Control)
    }

    /// Drain and stop the server.
    pub fn shutdown(&self) -> Result<(), SchedError> {
        let ok = self.call("shutdown")?;
        if ok.trim() == "bye" {
            Ok(())
        } else {
            Err(SchedError::Control(format!(
                "malformed shutdown reply {ok:?}"
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::JobProgram;

    #[test]
    fn result_kv_round_trips() {
        let r = JobResult {
            id: 7,
            name: "storm-7".into(),
            end: JobEnd::Completed,
            checksum: 0xDEAD_BEEF_0BAD_F00D,
            counters: JobCounters {
                puts: 1,
                notifications: 2,
                matched: 3,
                barriers: 4,
            },
            error: None,
            wait_ms: 1.5,
            run_ms: 2.25,
        };
        let parsed = parse_result_kv(&result_kv(&r)).expect("parses");
        assert_eq!(parsed.id, r.id);
        assert_eq!(parsed.end, r.end);
        assert_eq!(parsed.checksum, r.checksum);
        assert_eq!(parsed.counters, r.counters);
    }

    #[test]
    fn stats_kv_round_trips() {
        let s = SchedStats {
            submitted: 10,
            admitted: 9,
            completed: 7,
            failed: 1,
            cancelled: 1,
            rejected: 1,
            queue_depth: 0,
            peak_queue_depth: 5,
            running: 0,
            slots_total: 16,
            slots_busy: 0,
            peak_slots_busy: 16,
            busy_slot_nanos: 123_456_789_012,
            runners_started: 3,
        };
        assert_eq!(parse_stats_kv(&stats_kv(&s)), Ok(s));
    }

    #[test]
    fn unknown_verb_is_typed() {
        let sched = Scheduler::new(1, 2, crate::SchedLimits::default());
        let stop = AtomicBool::new(false);
        assert!(answer(&sched, "frobnicate 1", &stop).starts_with("err unknown verb"));
        let _ = JobProgram::parse("ring");
    }
}
