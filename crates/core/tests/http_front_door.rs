//! End-to-end tests for the network front door (`lightrw::http`,
//! DESIGN.md §13) over real TCP sockets: job submission with streamed
//! NDJSON paths, exactly-once auditing, pipelined and keep-alive
//! connections, 429 shedding with `Retry-After`, malformed-request
//! rejection, live `/stats`, and graceful shutdown drains — plus the
//! shape of the write path: a frame per scheduler turn, no delayed-ACK
//! stall between keep-alive jobs, a blocking `accept` that shutdown still
//! breaks, and a scheduler that outlives a `Cancel` for a retired job.
//!
//! The shutdown latch (`lightrw_graph::sys::signal`) is process-global,
//! so every test that starts a server takes the [`SERIAL`] lock —
//! otherwise one test's `request_shutdown` would stop another's server.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use lightrw::graph::generators;
use lightrw::graph::sys::signal;
use lightrw::http::wire::{self, read_response, Response, MAX_BODY};
use lightrw::http::{AdmissionConfig, ServeConfig, ServeSummary};
use lightrw::json::{self, Value};
use lightrw::prelude::*;
use lightrw::service::ServiceConfig;

static SERIAL: Mutex<()> = Mutex::new(());

/// Start a front-door server on an ephemeral port over a small RMAT
/// graph with two CPU workers. Returns the bound address and the join
/// handle yielding the final [`ServeSummary`].
fn spawn_server(cfg: ServeConfig) -> (SocketAddr, std::thread::JoinHandle<ServeSummary>) {
    let (addr_tx, addr_rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let g = generators::rmat(8, 8, 7);
        let pool = Backend::parse("cpu")
            .unwrap()
            .with_threads(1)
            .unwrap()
            .build_pool(&g, &Uniform, 42, 2);
        // Clear before binding: once the listener exists the test may
        // request shutdown at any time, and that must stick.
        signal::clear_shutdown();
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        addr_tx.send(listener.local_addr().unwrap()).unwrap();
        lightrw::http::serve(
            listener,
            pool.iter().map(|e| e.as_ref()).collect(),
            &g,
            &cfg,
        )
        .unwrap()
    });
    (
        addr_rx.recv_timeout(Duration::from_secs(10)).unwrap(),
        handle,
    )
}

/// A config that admits everything and drains instantly.
fn open_config() -> ServeConfig {
    ServeConfig {
        service: ServiceConfig {
            quantum: 1024,
            tenant_pending_steps: u64::MAX,
        },
        admission: AdmissionConfig {
            rate_steps_per_s: 1e12,
            burst_steps: 1e12,
            queue_high_water: 1 << 20,
        },
        drain: Duration::ZERO,
        io_timeout: Duration::from_millis(20),
    }
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
}

fn post_job(stream: &mut TcpStream, body: &str, keep_alive: bool) {
    let conn = if keep_alive { "keep-alive" } else { "close" };
    stream
        .write_all(
            format!(
                "POST /jobs HTTP/1.1\r\nContent-Length: {}\r\nConnection: {conn}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .unwrap();
}

/// Audit one 200-streamed job response ([`wire::audit_stream`]): ascending
/// query ids, one `done` summary whose count matches. Returns `(status,
/// paths)`.
fn audit_stream(resp: &Response) -> (String, usize) {
    assert_eq!(resp.status, 200, "{resp:?}");
    assert!(resp
        .headers
        .iter()
        .any(|(n, v)| n == "transfer-encoding" && v == "chunked"));
    wire::audit_stream(&resp.body).unwrap()
}

fn shutdown_and_join(handle: std::thread::JoinHandle<ServeSummary>) -> ServeSummary {
    signal::request_shutdown();
    let summary = handle.join().unwrap();
    signal::clear_shutdown();
    summary
}

/// [`shutdown_and_join`] that fails instead of hanging when the server
/// does not come down within `limit` — what a listener still blocked in
/// `accept` would look like.
fn shutdown_within(
    handle: std::thread::JoinHandle<ServeSummary>,
    limit: Duration,
) -> (ServeSummary, Duration) {
    let (done_tx, done_rx) = mpsc::channel();
    let t0 = Instant::now();
    signal::request_shutdown();
    std::thread::spawn(move || done_tx.send(handle.join().unwrap()));
    let summary = done_rx.recv_timeout(limit);
    signal::clear_shutdown();
    (
        summary.expect("the server did not shut down in time"),
        t0.elapsed(),
    )
}

/// One `GET /stats` on a fresh connection; the JSON document.
fn get_stats(addr: SocketAddr) -> Value {
    let mut stream = connect(addr);
    stream
        .write_all(b"GET /stats HTTP/1.1\r\nConnection: close\r\n\r\n")
        .unwrap();
    stats_document(&read_response(&mut BufReader::new(stream)).unwrap())
}

/// The document a `200` answer to `GET /stats` carries.
fn stats_document(resp: &Response) -> Value {
    assert_eq!(resp.status, 200);
    json::parse(std::str::from_utf8(&resp.body).unwrap(), "the document").unwrap()
}

/// The unsigned value of `"key": N` in a `/stats` document or one of its
/// objects.
fn stat(stats: &Value, key: &str) -> u64 {
    let value = stats
        .get(key)
        .unwrap_or_else(|| panic!("no {key} in {stats:?}"));
    value.as_uint(1 << 53).unwrap()
}

/// Read one chunked response off the raw socket, keeping what the
/// decoder in `wire` throws away: how many chunk frames it came in (the
/// terminating zero-length one included).
fn read_chunk_frames(reader: &mut impl BufRead) -> (Response, usize) {
    let mut line = String::new();
    let mut read_line = |reader: &mut dyn BufRead| {
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.ends_with("\r\n"), "truncated response: {line:?}");
        line.trim_end().to_string()
    };
    let status_line = read_line(reader);
    let status = status_line.split(' ').nth(1).unwrap().parse().unwrap();
    let mut headers = Vec::new();
    loop {
        let header = read_line(reader);
        let Some((name, value)) = header.split_once(':') else {
            break;
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let (mut body, mut frames) = (Vec::new(), 0);
    loop {
        let size = usize::from_str_radix(&read_line(reader), 16).unwrap();
        frames += 1;
        let at = body.len();
        body.resize(at + size + 2, 0);
        reader.read_exact(&mut body[at..]).unwrap();
        assert_eq!(&body[at + size..], b"\r\n");
        body.truncate(at + size);
        if size == 0 {
            break;
        }
    }
    (
        Response {
            status,
            headers,
            body,
        },
        frames,
    )
}

#[test]
fn streams_jobs_exactly_once_with_keepalive_pipelining_and_stats() {
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let (addr, handle) = spawn_server(open_config());

    // Three concurrent single-job connections.
    let submitters: Vec<_> = (0..3)
        .map(|tenant| {
            std::thread::spawn(move || {
                let mut stream = connect(addr);
                post_job(
                    &mut stream,
                    &format!(
                        "{{\"tenant\": {tenant}, \"queries\": 16, \"length\": 8, \
                         \"seed\": {tenant}}}"
                    ),
                    false,
                );
                let resp = read_response(&mut BufReader::new(stream)).unwrap();
                audit_stream(&resp)
            })
        })
        .collect();
    for s in submitters {
        let (status, paths) = s.join().unwrap();
        assert_eq!(status, "completed");
        assert_eq!(paths, 16, "exactly one path per query");
    }

    // Two pipelined POSTs on one keep-alive connection: both bodies are
    // written before either response is read, and the responses come
    // back in order.
    let mut stream = connect(addr);
    post_job(
        &mut stream,
        "{\"tenant\": 7, \"queries\": 4, \"length\": 3}",
        true,
    );
    post_job(
        &mut stream,
        "{\"tenant\": 7, \"queries\": 5, \"length\": 3}",
        true,
    );
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let first = read_response(&mut reader).unwrap();
    assert_eq!(audit_stream(&first), ("completed".into(), 4));
    let second = read_response(&mut reader).unwrap();
    assert_eq!(audit_stream(&second), ("completed".into(), 5));

    // Same keep-alive connection serves /stats too.
    stream
        .write_all(b"GET /stats HTTP/1.1\r\nConnection: close\r\n\r\n")
        .unwrap();
    let stats = stats_document(&read_response(&mut reader).unwrap());
    assert_eq!(stat(stats.get("admission").unwrap(), "admitted"), 5);
    let Some(Value::Array(tenants)) = stats.get("tenants") else {
        panic!("no tenants in {stats:?}");
    };
    assert_eq!(tenants.len(), 4, "tenants 0, 1, 2 and 7");
    let present = |doc: &Value, key| matches!(doc.get(key), Some(Value::Number(_)));
    assert!(present(&tenants[0], "queue_wait_secs") && present(&tenants[0], "exec_secs"));
    assert!(present(&stats, "p99_queue_wait_s"));

    let summary = shutdown_and_join(handle);
    assert_eq!(summary.submitted, 5);
    assert_eq!(summary.admitted, 5);
    assert_eq!(summary.completed, 5);
    assert_eq!(summary.shed, 0);
    assert!(summary.drained_clean);
}

#[test]
fn sheds_with_429_and_retry_after_when_the_bucket_runs_dry() {
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let mut cfg = open_config();
    // One 16×8 = 128-step job fits the burst; the second does not.
    cfg.admission = AdmissionConfig {
        rate_steps_per_s: 1.0,
        burst_steps: 200.0,
        queue_high_water: 1 << 20,
    };
    let (addr, handle) = spawn_server(cfg);

    let mut stream = connect(addr);
    post_job(
        &mut stream,
        "{\"tenant\": 0, \"queries\": 16, \"length\": 8}",
        true,
    );
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let first = read_response(&mut reader).unwrap();
    assert_eq!(audit_stream(&first).0, "completed");

    post_job(
        &mut stream,
        "{\"tenant\": 0, \"queries\": 16, \"length\": 8}",
        true,
    );
    let second = read_response(&mut reader).unwrap();
    assert_eq!(second.status, 429, "{second:?}");
    let retry: u64 = second.header("retry-after").unwrap().parse().unwrap();
    assert!(retry >= 1, "Retry-After must be a positive back-off");
    let shed = json::parse(std::str::from_utf8(&second.body).unwrap(), "the body").unwrap();
    let reason = shed.get("reason").and_then(Value::as_str);
    assert_eq!(reason, Some("tenant_rate"), "{shed:?}");

    // An independent tenant still gets in.
    post_job(
        &mut stream,
        "{\"tenant\": 1, \"queries\": 16, \"length\": 8}",
        false,
    );
    let third = read_response(&mut reader).unwrap();
    assert_eq!(audit_stream(&third).0, "completed");

    let summary = shutdown_and_join(handle);
    assert_eq!(summary.submitted, 3);
    assert_eq!(summary.admitted, 2);
    assert_eq!(summary.shed, 1);
}

#[test]
fn malformed_requests_get_well_formed_4xx_responses() {
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let (addr, handle) = spawn_server(open_config());

    let check = |raw: &[u8], want_status: u16| {
        let mut stream = connect(addr);
        stream.write_all(raw).unwrap();
        let resp = read_response(&mut BufReader::new(stream)).unwrap();
        assert_eq!(
            resp.status,
            want_status,
            "for {:?}",
            String::from_utf8_lossy(raw)
        );
        let body = std::str::from_utf8(&resp.body).unwrap();
        assert!(body.starts_with("{\"error\": \""), "{body}");
        let error = json::parse(body, "the error body").unwrap();
        error
            .get("error")
            .and_then(Value::as_str)
            .unwrap()
            .to_string()
    };
    check(b"NOT A VALID LINE\r\n\r\n", 400);
    check(b"GET / HTTP/2\r\n\r\n", 505);
    check(b"POST /jobs HTTP/1.1\r\nContent-Length: nope\r\n\r\n", 400);
    check(
        b"POST /jobs HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
        501,
    );
    check(b"GET /nowhere HTTP/1.1\r\n\r\n", 404);
    check(b"DELETE /jobs HTTP/1.1\r\n\r\n", 405);
    // Valid HTTP, invalid jobspec body.
    check(b"POST /jobs HTTP/1.1\r\nContent-Length: 2\r\n\r\n[]", 400);
    check(
        b"POST /jobs HTTP/1.1\r\nContent-Length: 27\r\n\r\n{\"queries\": 4, \"length\": 0}",
        400,
    );
    // Valid HTTP, a body as large as the wire lets it be, nested as deep
    // as it is long: the reader's cap answers, not the stack's end.
    for unit in ["[", "{\"a\":"] {
        let body = unit.repeat(MAX_BODY / unit.len());
        let head = format!(
            "POST /jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        let error = check((head + &body).as_bytes(), 400);
        assert_eq!(error, "trace line 1: nesting deeper than 32 levels");
    }
    // Truncated body: the connection dies mid-request; the server must
    // not hang. (The 408 response races the close; just verify the
    // server keeps serving afterwards.)
    {
        let mut stream = connect(addr);
        stream
            .write_all(b"POST /jobs HTTP/1.1\r\nContent-Length: 100\r\n\r\nshort")
            .unwrap();
        drop(stream);
    }
    let mut stream = connect(addr);
    stream
        .write_all(b"GET /stats HTTP/1.1\r\nConnection: close\r\n\r\n")
        .unwrap();
    let resp = read_response(&mut BufReader::new(stream)).unwrap();
    assert_eq!(resp.status, 200, "server must survive malformed traffic");

    let summary = shutdown_and_join(handle);
    assert_eq!(summary.admitted, 0);
}

#[test]
fn shutdown_drains_inflight_jobs_and_streams_their_terminal_summary() {
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let mut cfg = open_config();
    cfg.service.quantum = 64; // slow the job down per turn
    let (addr, handle) = spawn_server(cfg);

    // A long job: 128 queries × 4096 steps. Request shutdown while it
    // streams; with a zero drain deadline the scheduler cancels it and
    // the client still receives a well-formed terminal summary.
    let client = std::thread::spawn(move || {
        let mut stream = connect(addr);
        post_job(
            &mut stream,
            "{\"tenant\": 0, \"queries\": 128, \"length\": 4096}",
            false,
        );
        let resp = read_response(&mut BufReader::new(stream)).unwrap();
        audit_stream(&resp)
    });
    // Wait until the job is admitted before pulling the plug.
    let mut admitted = false;
    for _ in 0..200 {
        if stat(get_stats(addr).get("admission").unwrap(), "admitted") == 1 {
            admitted = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(admitted, "job never reached the scheduler");

    let summary = shutdown_and_join(handle);
    let (status, paths) = client.join().unwrap();
    assert!(
        status == "cancelled" || status == "completed",
        "unexpected terminal status {status}"
    );
    assert!(paths <= 128);
    assert_eq!(summary.submitted, 1);
    assert_eq!(summary.admitted, 1);
    // Whichever way the race went, the server must account for the job.
    assert_eq!(summary.completed + summary.cancelled, 1);
}

#[test]
fn idle_keepalive_connections_do_not_block_shutdown() {
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let (addr, handle) = spawn_server(open_config());

    // Park an idle keep-alive connection (no request at all) and a
    // half-finished one, then shut down: the drain must not wait for
    // either.
    let idle = connect(addr);
    let mut half = connect(addr);
    half.write_all(b"GET /st").unwrap();

    let summary = shutdown_and_join(handle);
    assert_eq!(summary.submitted, 0);
    assert!(summary.drained_clean);
    drop(idle);
    drop(half);
}

#[test]
fn a_job_arrives_in_a_frame_per_scheduler_turn() {
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let (addr, handle) = spawn_server(open_config());
    let body = "{\"tenant\": 0, \"queries\": 512, \"length\": 16, \"seed\": 5}";
    let path_lines = |resp: &Response| -> Vec<String> {
        let text = std::str::from_utf8(&resp.body).unwrap();
        let paths = text
            .lines()
            .filter(|l| l.starts_with("{\"event\": \"path\""));
        paths.map(str::to_string).collect()
    };

    // Once through the decoder every other test trusts...
    let mut stream = connect(addr);
    post_job(&mut stream, body, true);
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let decoded = read_response(&mut reader).unwrap();
    assert_eq!(audit_stream(&decoded), ("completed".into(), 512));

    // ...and once off the raw socket, counting frames. Per-path chunks
    // made this 514 frames plus the terminator.
    let ticks_before = stat(&get_stats(addr), "ticks");
    post_job(&mut stream, body, true);
    let (raw, frames) = read_chunk_frames(&mut reader);
    let ticks = (stat(&get_stats(addr), "ticks") - ticks_before) as usize;
    assert_eq!(audit_stream(&raw), ("completed".into(), 512));
    assert!(
        ticks >= 2,
        "the job should span several turns, took {ticks}"
    );
    assert!(
        frames <= ticks + 3,
        "{frames} chunk frames for a job of {ticks} scheduler turns"
    );
    // Same job, same idle pool: the same lines in the same order,
    // however they were framed.
    assert_eq!(path_lines(&raw), path_lines(&decoded));
    assert_eq!(path_lines(&raw).len(), 512);

    let summary = shutdown_and_join(handle);
    assert_eq!(summary.completed, 2);
}

#[test]
fn sequential_keepalive_jobs_do_not_stall_on_delayed_acks() {
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let (addr, handle) = spawn_server(open_config());

    // Twenty jobs, one after the other, on one connection. A response
    // dribbled out in small writes without TCP_NODELAY parks its last
    // segment behind the client's delayed ACK — 40 ms or more, every
    // job — so the median tells the two write paths apart whatever the
    // machine's speed.
    let mut stream = connect(addr);
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut latencies = Vec::new();
    for seed in 0..20 {
        let t0 = Instant::now();
        post_job(
            &mut stream,
            &format!("{{\"tenant\": 0, \"queries\": 256, \"length\": 8, \"seed\": {seed}}}"),
            true,
        );
        let resp = read_response(&mut reader).unwrap();
        latencies.push(t0.elapsed());
        assert_eq!(audit_stream(&resp), ("completed".into(), 256));
    }
    latencies.sort();
    let median = latencies[latencies.len() / 2];
    assert!(
        median < Duration::from_millis(20),
        "median job latency {median:?}: {latencies:?}"
    );

    let stats = get_stats(addr);
    assert_eq!(stat(&stats, "completed_jobs"), 20);
    assert_eq!(stat(&stats, "tracked_jobs"), 0, "ended jobs are retired");
    let summary = shutdown_and_join(handle);
    assert_eq!(summary.completed, 20);
}

#[test]
fn a_cancel_arriving_after_its_job_was_retired_is_harmless() {
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let mut cfg = open_config();
    cfg.service.quantum = 1 << 16;
    let (addr, handle) = spawn_server(cfg);

    // A job whose output (~3 MB) is more than the socket buffers take
    // from a client that reads the status line and then nothing. The
    // scheduler does not wait for the handler: it finishes the job and
    // retires it while the handler is still blocked mid-stream.
    let mut stalled = connect(addr);
    post_job(
        &mut stalled,
        "{\"tenant\": 3, \"queries\": 4096, \"length\": 192}",
        true,
    );
    let mut status_line = [0u8; 15];
    stalled.read_exact(&mut status_line).unwrap();
    assert_eq!(&status_line, b"HTTP/1.1 200 OK");
    let mut retired = false;
    for _ in 0..2000 {
        let stats = get_stats(addr);
        if stat(&stats, "completed_jobs") == 1 && stat(&stats, "tracked_jobs") == 0 {
            retired = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(retired, "the job never completed");

    // Now the client goes away. The handler's write fails and its
    // `Cancel` names a job the service no longer has a record of.
    drop(stalled);
    for seed in 0..3 {
        let mut stream = connect(addr);
        post_job(
            &mut stream,
            &format!("{{\"tenant\": 4, \"queries\": 8, \"length\": 4, \"seed\": {seed}}}"),
            false,
        );
        let resp = read_response(&mut BufReader::new(stream)).unwrap();
        assert_eq!(audit_stream(&resp), ("completed".into(), 8));
        std::thread::sleep(Duration::from_millis(20));
    }

    let summary = shutdown_and_join(handle);
    assert_eq!((summary.completed, summary.cancelled), (4, 0));
}

#[test]
fn shutdown_breaks_a_blocking_accept_with_or_without_connections() {
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let limit = Duration::from_secs(10);

    // No connection ever made: nothing but the scheduler's own wake-up
    // connection can end the accept thread's wait.
    let (_addr, handle) = spawn_server(open_config());
    let (summary, took) = shutdown_within(handle, limit);
    assert_eq!(summary.submitted, 0);
    assert!(summary.drained_clean);
    assert!(took < Duration::from_secs(2), "shutdown took {took:?}");

    // Only idle keep-alive connections, one of which has served a job:
    // their handlers notice the latch at the next read timeout.
    let (addr, handle) = spawn_server(open_config());
    let idle = connect(addr);
    let mut used = connect(addr);
    post_job(
        &mut used,
        "{\"tenant\": 0, \"queries\": 4, \"length\": 3}",
        true,
    );
    let mut reader = BufReader::new(used.try_clone().unwrap());
    assert_eq!(
        audit_stream(&read_response(&mut reader).unwrap()),
        ("completed".into(), 4)
    );
    let (summary, took) = shutdown_within(handle, limit);
    assert_eq!((summary.submitted, summary.completed), (1, 1));
    assert!(summary.drained_clean);
    assert!(took < Duration::from_secs(2), "shutdown took {took:?}");
    drop((idle, used));
}
