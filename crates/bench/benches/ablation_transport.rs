//! Ablation: transport-plane throughput and copy discipline.
//!
//! Grown from the old `ablation_codec` bench (its allocating vs
//! buffer-reusing encode cells survive at the bottom): with the zero-copy
//! fast path in place the interesting comparison is no longer how fast a
//! message *encodes* but how fast it *moves* — and how many times its
//! payload bytes are copied on the way.
//!
//! Cells: {mpsc, shm, tcp} × {eager-class 512 B, large-class ("rndz")
//! 16 KiB} one-way message streams between two endpoints of a real two-process-shaped
//! mesh (both endpoints live in this process; the tcp pair crosses a
//! loopback socket, the shm pair a mapped ring file, the mpsc pair the
//! in-process channel plane). Copy counters from [`NetStats`] are asserted
//! per cell — a large tcp message must be single-copy each direction
//! (vectored iovec write out, streamed read in), the shm plane single-copy
//! both paths — so the bench doubles as the acceptance gate for the fast
//! path.
//!
//! `--json PATH` writes a `{"transport": [{"row", "value"}...]}` document;
//! `xtask bench-diff` checks the rows named in `BENCH_baseline.json`
//! against `min_value`/`max_value` bounds (absolute floors on the shm
//! plane's messages per second, ceilings on copies per message; the shm/tcp
//! ratios are printed and recorded, not gated — a faster tcp lowers them).

use dcuda_bench::harness::bench;
use dcuda_bench::json::Json;
use dcuda_net::wire::{WireMsg, EAGER_MAX};
use dcuda_net::{shm_supported, InProcessPlane, NetConfig, NetEndpoint, SocketPlane, Transport};
use std::time::{Duration, Instant};

const EAGER_PAYLOAD: usize = 512;
const RNDZ_PAYLOAD: usize = 16 << 10;
const EAGER_MSGS: u64 = 1024;
const RNDZ_MSGS: u64 = 128;

fn deliver(payload: &[u8]) -> WireMsg {
    WireMsg::Deliver {
        dst_local: 0,
        win: 0,
        dst_off: 0,
        source: 1,
        tag: 7,
        notify: true,
        seq: 0,
        origin_device: 0,
        origin_local: 0,
        flush_id: 1,
        data: payload.to_vec(),
    }
}

/// One endpoint per side of a loopback mesh; `same_host` switches the pair
/// onto the shared-memory plane.
fn mesh_pair(same_host: Option<&std::path::Path>) -> (NetEndpoint, NetEndpoint) {
    let dir = same_host.map(std::path::Path::to_path_buf);
    let [mut a, mut b] = SocketPlane::loopback_pair(NetConfig::default(), dir).expect("mesh");
    (a.pop().expect("endpoint 0"), b.pop().expect("endpoint 1"))
}

/// Move `msgs` copies of `payload` from `a` (device 0) to `b` (device 1),
/// draining the receiver as we go, and wait until every one arrived.
/// Returns the number of payload bytes that landed.
fn stream<A: Transport, B: Transport>(a: &mut A, b: &mut B, payload: &[u8], msgs: u64) -> u64 {
    let template = deliver(payload);
    let mut got = 0u64;
    let mut bytes = 0u64;
    let deadline = Instant::now() + Duration::from_secs(60);
    for i in 0..msgs {
        a.send(1, template.clone()).expect("send");
        // Drain in windows so the receiver keeps pace with the sender (the
        // socket buffer or ring never fills) and the coalescing path still
        // gets multi-frame flushes.
        if i % 32 == 31 {
            a.pump().expect("pump sender");
            while let Some(m) = b.try_recv().expect("recv") {
                if let WireMsg::Deliver { data, .. } = m {
                    bytes += data.len() as u64;
                    got += 1;
                }
            }
        }
    }
    while got < msgs {
        a.pump().expect("pump sender");
        b.pump().expect("pump receiver");
        while let Some(m) = b.try_recv().expect("recv") {
            if let WireMsg::Deliver { data, .. } = m {
                bytes += data.len() as u64;
                got += 1;
            }
        }
        assert!(Instant::now() < deadline, "stream stalled");
    }
    assert_eq!(bytes, msgs * payload.len() as u64, "payload bytes lost");
    bytes
}

struct Cell {
    row_prefix: &'static str,
    msgs_per_sec: f64,
    copies_tx_per_msg: Option<f64>,
    copies_rx_per_msg: Option<f64>,
}

/// Run one plane × path cell through the harness and derive per-message
/// copy counts from the endpoint counters across all timed iterations.
fn run_cell<A: Transport, B: Transport>(
    name: &'static str,
    a: &mut A,
    b: &mut B,
    payload_len: usize,
    msgs: u64,
    counted: bool,
) -> Cell {
    let payload: Vec<u8> = (0..payload_len).map(|i| (i % 251) as u8).collect();
    let tx0 = a.stats();
    let rx0 = b.stats();
    let mut rounds = 0u64;
    let r = bench(name, || {
        rounds += 1;
        stream(a, b, &payload, msgs)
    });
    // `rounds` includes the harness's warmup call, so the counter deltas
    // divide out exactly.
    let total_msgs = rounds * msgs;
    let tx = a.stats();
    let rx = b.stats();
    let per = |delta: u64| delta as f64 / total_msgs as f64;
    Cell {
        row_prefix: name,
        msgs_per_sec: msgs as f64 / (r.mean_ns / 1e9),
        copies_tx_per_msg: counted.then(|| per(tx.copies_tx - tx0.copies_tx)),
        copies_rx_per_msg: counted.then(|| per(rx.copies_rx - rx0.copies_rx)),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let json_path = argv
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| argv.get(i + 1))
        .cloned();

    println!(
        "Ablation: transport planes, {EAGER_MSGS} x {EAGER_PAYLOAD} B eager / {RNDZ_MSGS} x {RNDZ_PAYLOAD} B large (rndz) per round"
    );
    let mut cells: Vec<Cell> = Vec::new();

    // mpsc: the in-process channel plane, the no-transport baseline.
    {
        let mut world = InProcessPlane::new_world(2);
        let mut b = world.pop().expect("endpoint 1");
        let mut a = world.pop().expect("endpoint 0");
        cells.push(run_cell(
            "transport/mpsc/eager",
            &mut a,
            &mut b,
            EAGER_PAYLOAD,
            EAGER_MSGS,
            false,
        ));
        cells.push(run_cell(
            "transport/mpsc/rndz",
            &mut a,
            &mut b,
            RNDZ_PAYLOAD,
            RNDZ_MSGS,
            false,
        ));
    }

    // tcp: loopback socket mesh, vectored writes + streaming reads.
    {
        let (mut a, mut b) = mesh_pair(None);
        cells.push(run_cell(
            "transport/tcp/eager",
            &mut a,
            &mut b,
            EAGER_PAYLOAD,
            EAGER_MSGS,
            true,
        ));
        cells.push(run_cell(
            "transport/tcp/rndz",
            &mut a,
            &mut b,
            RNDZ_PAYLOAD,
            RNDZ_MSGS,
            true,
        ));
    }

    // shm: same-host mapped rings (skipped where mmap rings are
    // unsupported — the baseline gate then fails loudly in CI, which only
    // runs on hosts that have them).
    if shm_supported() {
        let dir = std::env::temp_dir().join(format!("dcuda-ablation-shm-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("shm dir");
        let (mut a, mut b) = mesh_pair(Some(&dir));
        cells.push(run_cell(
            "transport/shm/eager",
            &mut a,
            &mut b,
            EAGER_PAYLOAD,
            EAGER_MSGS,
            true,
        ));
        cells.push(run_cell(
            "transport/shm/rndz",
            &mut a,
            &mut b,
            RNDZ_PAYLOAD,
            RNDZ_MSGS,
            true,
        ));
        drop((a, b));
        let _ = std::fs::remove_dir_all(&dir);
    } else {
        println!("  (shm plane unsupported on this host; cells skipped)");
    }

    // Copy-discipline gates: the whole point of the fast path. Cheap
    // coalesced eager frames still stage once (2 traversals out, 1 in);
    // everything at or past the vectored threshold must be 1/1.
    let cell = |prefix: &str| cells.iter().find(|c| c.row_prefix.ends_with(prefix));
    if let Some(c) = cell("tcp/rndz") {
        let (tx, rx) = (
            c.copies_tx_per_msg.unwrap_or(9.0),
            c.copies_rx_per_msg.unwrap_or(9.0),
        );
        assert!(tx <= 1.0, "large tcp message: {tx} payload copies out");
        assert!(rx <= 1.0, "large tcp message: {rx} payload copies in");
    }
    for prefix in ["shm/eager", "shm/rndz"] {
        if let Some(c) = cell(prefix) {
            let (tx, rx) = (
                c.copies_tx_per_msg.unwrap_or(9.0),
                c.copies_rx_per_msg.unwrap_or(9.0),
            );
            assert!(tx <= 1.0, "{prefix} takes {tx} payload copies out");
            assert!(rx <= 1.0, "{prefix} takes {rx} payload copies in");
        }
    }

    let ratio = |num: &str, den: &str| -> Option<f64> {
        Some(cell(num)?.msgs_per_sec / cell(den)?.msgs_per_sec)
    };
    let shm_over_tcp_eager = ratio("shm/eager", "tcp/eager");
    let shm_over_tcp_rndz = ratio("shm/rndz", "tcp/rndz");
    if let Some(r) = shm_over_tcp_eager {
        println!("  shm over tcp, eager 512 B: {r:.2}x");
    }
    if let Some(r) = shm_over_tcp_rndz {
        println!("  shm over tcp, rndz 16 KiB: {r:.2}x");
    }

    // The surviving codec cells: allocating vs reused-buffer encode at one
    // payload per path, correctness-gated like the original bench.
    let mut encode_rows: Vec<(String, f64)> = Vec::new();
    for payload in [EAGER_PAYLOAD, RNDZ_PAYLOAD] {
        let msg = deliver(&vec![(payload % 251) as u8; payload]);
        let fresh = msg.encode();
        let mut scratch = Vec::with_capacity(payload + 128);
        msg.encode_into(&mut scratch);
        assert_eq!(fresh, scratch, "encode paths diverge at payload {payload}");
        let back = WireMsg::decode(&fresh).expect("roundtrip decode");
        assert_eq!(back, msg, "roundtrip diverges at payload {payload}");

        let alloc = bench(&format!("codec/encode_alloc/payload_{payload}"), || {
            let mut bytes = 0u64;
            for _ in 0..64 {
                bytes += msg.encode().len() as u64;
            }
            bytes
        });
        let reuse = bench(&format!("codec/encode_reuse/payload_{payload}"), || {
            let mut bytes = 0u64;
            for _ in 0..64 {
                scratch.clear();
                msg.encode_into(&mut scratch);
                bytes += scratch.len() as u64;
            }
            bytes
        });
        let speedup = alloc.mean_ns / reuse.mean_ns;
        let side = if payload <= EAGER_MAX {
            "eager"
        } else {
            "rndz"
        };
        println!("  payload {payload:>6} ({side}): reuse speedup {speedup:>5.2}x");
        encode_rows.push((format!("encode_reuse_over_alloc_{payload}"), speedup));
    }

    if let Some(path) = json_path {
        let mut rows: Vec<Json> = Vec::new();
        let mut push = |row: String, value: f64| {
            rows.push(
                Json::obj()
                    .field("row", Json::str(row))
                    .field("value", Json::Num(value)),
            );
        };
        for c in &cells {
            let slug = c.row_prefix.replace("transport/", "").replace('/', "_");
            push(format!("{slug}_msgs_per_sec"), c.msgs_per_sec);
            if let Some(tx) = c.copies_tx_per_msg {
                push(format!("{slug}_copies_tx_per_msg"), tx);
            }
            if let Some(rx) = c.copies_rx_per_msg {
                push(format!("{slug}_copies_rx_per_msg"), rx);
            }
        }
        if let Some(r) = shm_over_tcp_eager {
            push("shm_over_tcp_eager".to_string(), r);
        }
        if let Some(r) = shm_over_tcp_rndz {
            push("shm_over_tcp_rndz".to_string(), r);
        }
        for (row, v) in encode_rows {
            push(row, v);
        }
        let doc = Json::obj().field("transport", Json::Arr(rows));
        std::fs::write(&path, doc.to_string()).expect("write --json output");
        println!("  wrote {path}");
    }
}
