//! The serving loop: accept → parse → admit → schedule → stream.
//!
//! Threading (DESIGN.md §13): [`lightrw_walker::service::WalkService`]
//! borrows its engines and is not `Send`, so everything runs under one
//! `std::thread::scope`:
//!
//! - The **scheduler** (the calling thread) owns the `WalkService` and
//!   the [`Admission`] controller. It drains an `mpsc` inbox of
//!   [`Msg`]s, ticks the service, and after each turn sends the paths
//!   that turn produced — one [`JobEvent`] per job per turn — down the
//!   per-job reply channels, retiring each job as it ends. Idle, it
//!   waits on the inbox, so a submission is served by the next `tick()`.
//! - The **accept thread** blocks in `accept` and spawns one **handler
//!   thread** per connection (walk jobs run for seconds —
//!   thread-per-connection is the right trade at this concurrency, and
//!   keeps the stack fully synchronous). Nothing polls: the scheduler,
//!   which watches the shutdown latch anyway, breaks the wait with one
//!   connection to the listener's own address.
//! - Handler threads parse requests ([`super::wire`]), forward
//!   submissions to the scheduler, and stream results back as NDJSON
//!   chunks while the job's `WalkSink` fills: one chunk, one socket
//!   write, per scheduler turn. Each emitted path crosses the channel
//!   exactly once, in query-id order — the session-layer contract
//!   survives the wire intact.
//!
//! Graceful shutdown rides `lightrw_graph::sys::signal`: the accept loop
//! stops on the first SIGINT/SIGTERM, handlers finish their current
//! response and close, and the scheduler keeps ticking until idle or
//! until [`ServeConfig::drain`] expires — then cancels what remains,
//! flushing partial paths to the clients still connected. Jobs
//! submitted mid-drain are shed with `503` + `Retry-After`.

use std::cell::RefCell;
use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::rc::Rc;
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::time::{Duration, Instant};

use lightrw_graph::sys::signal;
use lightrw_graph::{Graph, VertexId};
use lightrw_walker::service::ServiceStats;
use lightrw_walker::{JobId, JobReport, JobStatus, ServiceConfig, WalkEngine, WalkService};

use super::admission::{Admission, AdmissionConfig, ShedReason, Verdict};
use super::wire::{read_request, ChunkedWriter, ReadOutcome, Request};
use crate::jobspec::{self, TraceJob};
use crate::json;

/// Everything the serve loop needs to know.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Scheduler configuration (quantum, per-tenant pending-steps
    /// quota).
    pub service: ServiceConfig,
    /// Admission control (token buckets, queue high-water mark).
    pub admission: AdmissionConfig,
    /// How long the shutdown drain may run before in-flight jobs are
    /// cancelled with partial flushes.
    pub drain: Duration,
    /// Socket read/write timeout: the poll granularity at which idle
    /// handlers notice shutdown, and the bound on writes to stalled
    /// clients.
    pub io_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            service: ServiceConfig::default(),
            admission: AdmissionConfig::default(),
            drain: Duration::from_secs(5),
            io_timeout: Duration::from_millis(100),
        }
    }
}

/// What the serve loop did, reported once it returns (after shutdown).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeSummary {
    /// `POST /jobs` submissions received (admitted + shed).
    pub submitted: u64,
    /// Submissions admitted into the scheduler.
    pub admitted: u64,
    /// Submissions shed (429/503).
    pub shed: u64,
    /// Jobs that completed every path at full length.
    pub completed: usize,
    /// Jobs cancelled (client disconnect or drain-deadline cancel).
    pub cancelled: usize,
    /// Jobs expired by a deadline.
    pub expired: usize,
    /// True when the drain finished on its own before the deadline
    /// forced cancellations.
    pub drained_clean: bool,
}

/// Handler → scheduler messages.
enum Msg {
    /// A parsed `POST /jobs` body; the reply channel receives the
    /// admission verdict and then the job's whole event stream.
    Submit {
        job: TraceJob,
        reply: Sender<JobEvent>,
    },
    /// The client went away: stop spending compute on its job. May
    /// arrive after the job ended and was retired; the service ignores it
    /// then.
    Cancel { job: JobId },
    /// `GET /stats`: reply with the rendered JSON document.
    Stats { reply: Sender<String> },
}

/// Scheduler → handler events for one job.
enum JobEvent {
    /// The job was admitted and scheduled.
    Admitted { job: JobId },
    /// The job was shed; no further events follow.
    Shed {
        retry_after_s: f64,
        reason: ShedReason,
        /// True when shedding because the server is draining (maps to
        /// `503` rather than `429`).
        draining: bool,
    },
    /// The paths one scheduler turn finished (exactly once per query,
    /// ascending query id — the session contract), flat: `query, n,
    /// v0 … v(n-1)` per path. A turn that finishes more than
    /// [`BATCH_U32S`] of them sends that much at a time. `done` rides
    /// with the job's last batch: it reached a terminal state and no
    /// further events follow.
    Paths {
        flat: Vec<u32>,
        done: Option<JobReport>,
    },
}

/// The size at which a chunk is written out, in bytes of NDJSON. One
/// scheduler turn's paths are one chunk, with two exceptions this
/// constant rules: batches that are already queued when the handler gets
/// to them are folded into the chunk being built while it is below this
/// size (a handler that fell behind catches up in fewer writes), and a
/// turn that finishes more than this — walkers started together tend to
/// finish together, so one turn can carry a whole job — goes out in
/// pieces of this size. Kept small because every connection's frame
/// buffer, and the reader's at the other end, grow to it: with no bound
/// a job-sized frame cost the `serve-stream` workload 2 MB of peak RSS
/// (10.5–10.9 MB against 8.5), and of three runs each at 16, 32 and
/// 64 KiB only 64 KiB went past 9 MB.
const CHUNK_BYTES: usize = 32 << 10;

/// The most a [`JobEvent::Paths`] batch holds before its sink sends it
/// without waiting for the turn to end: as many bytes of vertex ids as a
/// chunk has bytes of text. It bounds what the scheduler allocates at
/// once — a whole job finishing in one turn would otherwise grow one
/// buffer to the job's size — and lets the handler start on a burst
/// while the turn is still producing it.
const BATCH_U32S: usize = CHUNK_BYTES / std::mem::size_of::<u32>();

/// Serve HTTP on `listener` over a pool of walk engines until a
/// shutdown is requested (SIGINT/SIGTERM via
/// `lightrw_graph::sys::signal`, or programmatically with
/// `signal::request_shutdown`). Blocks the calling thread for the
/// server's whole life; returns the traffic summary after the drain.
///
/// The caller is responsible for clearing a stale shutdown latch
/// (`signal::clear_shutdown`) *before* calling — this function
/// installs the handler but deliberately does not clear, so a signal
/// arriving between process start and serve start still stops the
/// server.
pub fn serve(
    listener: TcpListener,
    workers: Vec<&dyn WalkEngine>,
    graph: &Graph,
    cfg: &ServeConfig,
) -> Result<ServeSummary, String> {
    signal::install_shutdown_handler();
    // Where the scheduler connects to break the blocking `accept` at
    // shutdown: the listener's own address, or loopback when it is bound
    // to the unspecified one.
    let mut wake = listener
        .local_addr()
        .map_err(|e| format!("cannot read the listener's address: {e}"))?;
    if wake.ip().is_unspecified() {
        wake.set_ip(match wake.ip() {
            IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
            IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
        });
    }
    let (tx, rx) = std::sync::mpsc::channel::<Msg>();
    let listener = &listener;
    Ok(std::thread::scope(|scope| {
        let io_timeout = cfg.io_timeout;
        scope.spawn(move || {
            // Accept loop: hand every connection its own handler thread.
            // The latch is read after each return of `accept`, so the
            // connection that ends the wait at shutdown — the
            // scheduler's, or a client's that raced it — is dropped here
            // and never reaches a handler.
            loop {
                let accepted = listener.accept();
                if signal::shutdown_requested() {
                    break;
                }
                match accepted {
                    Ok((stream, _peer)) => {
                        let tx = tx.clone();
                        scope.spawn(move || handle_connection(stream, tx, io_timeout));
                    }
                    // Out of descriptors, say: back off, do not spin.
                    Err(_) => std::thread::sleep(Duration::from_millis(5)),
                }
            }
            // Dropping the accept loop's `tx` clone lets the scheduler
            // observe full disconnection once every handler exits too.
        });
        Scheduler {
            service: WalkService::new(workers, cfg.service),
            admission: Admission::new(cfg.admission),
            replies: HashMap::new(),
            graph,
            submitted: 0,
            shed_draining: 0,
            drain_started: None,
        }
        .run(rx, cfg.drain, wake)
    }))
}

/// What the scheduler keeps for an admitted job until it ends.
struct Reply {
    events: Sender<JobEvent>,
    /// Paths the job's sink took since the last send, in
    /// [`JobEvent::Paths`] layout. The service calls the sink on the
    /// scheduler's own thread, so the two share the buffer through an
    /// `Rc`.
    batch: Rc<RefCell<Vec<u32>>>,
}

impl Reply {
    /// Send whatever the sink has gathered — and `done`, for the last
    /// batch — as one event. A dropped receiver (client gone) is fine:
    /// the send is a no-op.
    fn send(&self, done: Option<JobReport>) {
        let flat = std::mem::take(&mut *self.batch.borrow_mut());
        if !flat.is_empty() || done.is_some() {
            let _ = self.events.send(JobEvent::Paths { flat, done });
        }
    }
}

/// The scheduler: owns the service, the admission controller, and the
/// per-job reply channels. Runs on the thread that called [`serve`].
struct Scheduler<'s> {
    service: WalkService<'s>,
    admission: Admission,
    replies: HashMap<JobId, Reply>,
    graph: &'s Graph,
    submitted: u64,
    shed_draining: u64,
    /// When the shutdown latch was first seen set; draining since.
    drain_started: Option<Instant>,
}

impl Scheduler<'_> {
    fn run(mut self, rx: Receiver<Msg>, drain: Duration, wake: SocketAddr) -> ServeSummary {
        let mut accept_released = false;
        let mut forced_cancels = false;
        let mut disconnected = false;
        let mut idle = false;

        loop {
            // Take what the inbox holds, then serve one turn. After a
            // turn that found nothing to run, wait for the first message
            // instead (briefly: the shutdown latch has no channel).
            loop {
                let msg = if std::mem::take(&mut idle) {
                    rx.recv_timeout(Duration::from_millis(2))
                        .map_err(|e| e == RecvTimeoutError::Disconnected)
                } else {
                    rx.try_recv().map_err(|e| e == TryRecvError::Disconnected)
                };
                match msg {
                    Ok(msg) => self.handle(msg),
                    Err(gone) => {
                        disconnected |= gone;
                        break;
                    }
                }
            }
            if signal::shutdown_requested() {
                let t0 = *self.drain_started.get_or_insert_with(Instant::now);
                if !accept_released {
                    // Retried next turn on the off chance it fails.
                    accept_released =
                        TcpStream::connect_timeout(&wake, Duration::from_secs(1)).is_ok();
                }
                if t0.elapsed() >= drain && !self.service.is_idle() {
                    // Drain deadline: cancel what remains. Partial paths
                    // flush through the per-job sinks, so clients still
                    // holding their connections receive everything
                    // emitted so far plus a terminal summary.
                    forced_cancels = true;
                    for id in self.service.active_jobs() {
                        self.service.cancel(id);
                    }
                }
            }
            let turn = self.service.tick();
            self.send_turn(turn.job);
            if turn.job.is_none() {
                if disconnected && self.service.is_idle() {
                    break;
                }
                idle = true;
            }
        }

        let stats = self.service.stats();
        ServeSummary {
            submitted: self.submitted,
            admitted: self.admission.admitted,
            shed: self.admission.shed() + self.shed_draining,
            completed: stats.completed_jobs,
            cancelled: stats.tenants.iter().map(|t| t.cancelled).sum(),
            expired: stats.tenants.iter().map(|t| t.expired).sum(),
            drained_clean: !forced_cancels,
        }
    }

    /// Send what the turn just taken produced: for every job that ended
    /// — in its own turn or outside it (waiting jobs wall-expire inside
    /// admission, clients and drains cancel) — its last paths with the
    /// terminal report, its record retired and its channel dropped; for
    /// the job `served`, if it is still running, its paths so far.
    fn send_turn(&mut self, served: Option<JobId>) {
        while let Some(id) = self.service.next_terminal() {
            let report = self.service.retire(id).expect("named as terminal");
            if let Some(reply) = self.replies.remove(&id) {
                reply.send(Some(report));
            }
        }
        if let Some(reply) = served.and_then(|id| self.replies.get(&id)) {
            reply.send(None);
        }
    }

    fn handle(&mut self, msg: Msg) {
        match msg {
            Msg::Submit { job, reply } => self.submit(job, reply),
            Msg::Cancel { job } => self.service.cancel(job),
            Msg::Stats { reply } => {
                let draining = self.drain_started.is_some();
                let json = stats_json(&self.service.stats(), &self.admission, draining);
                let _ = reply.send(json);
            }
        }
    }

    fn submit(&mut self, job: TraceJob, events: Sender<JobEvent>) {
        self.submitted += 1;
        let draining = self.drain_started.is_some();
        let shed = if draining {
            self.shed_draining += 1;
            Some((1.0, ShedReason::QueueDepth))
        } else {
            let cost = job.queries as u64 * job.length as u64;
            let waiting = self.service.waiting_len();
            match self
                .admission
                .check(job.tenant, cost, waiting, Instant::now())
            {
                Verdict::Shed {
                    retry_after_s,
                    reason,
                } => Some((retry_after_s, reason)),
                Verdict::Admit => None,
            }
        };
        if let Some((retry_after_s, reason)) = shed {
            let _ = events.send(JobEvent::Shed {
                retry_after_s,
                reason,
                draining,
            });
            return;
        }
        let (spec, queries) = job.submission(self.graph);
        let batch = Rc::new(RefCell::new(Vec::new()));
        let (sink_batch, sink_events) = (Rc::clone(&batch), events.clone());
        let sink = Box::new(move |query: u32, path: &[VertexId]| {
            let mut flat = sink_batch.borrow_mut();
            if flat.len() + 2 + path.len() > BATCH_U32S && !flat.is_empty() {
                let flat = std::mem::take(&mut *flat);
                let _ = sink_events.send(JobEvent::Paths { flat, done: None });
            }
            if flat.capacity() == 0 {
                // A batch's buffer is sized once, when its first path
                // arrives: jobs that are waiting, or walking with nothing
                // finished yet, hold none.
                flat.reserve_exact(BATCH_U32S);
            }
            flat.push(query);
            flat.push(u32::try_from(path.len()).expect("a path's vertices count in a u32"));
            flat.extend_from_slice(path);
        });
        let id = self.service.submit_streaming(spec, queries, sink);
        let _ = events.send(JobEvent::Admitted { job: id });
        self.replies.insert(id, Reply { events, batch });
    }
}

/// Render the `GET /stats` document: the full [`ServiceStats`] snapshot
/// plus the admission-control counters.
pub fn stats_json(stats: &ServiceStats, admission: &Admission, draining: bool) -> String {
    let mut out = String::from("{\n");
    out += &format!("  \"draining\": {draining},\n");
    out += &format!(
        "  \"admission\": {{\"admitted\": {}, \"shed_tenant_rate\": {}, \
         \"shed_queue_depth\": {}}},\n",
        admission.admitted, admission.shed_tenant_rate, admission.shed_queue_depth
    );
    out += &format!("  \"ticks\": {},\n", stats.ticks);
    out += &format!("  \"total_steps\": {},\n", stats.total_steps);
    out += &format!("  \"running_jobs\": {},\n", stats.running_jobs);
    out += &format!("  \"waiting_jobs\": {},\n", stats.waiting_jobs);
    out += &format!("  \"completed_jobs\": {},\n", stats.completed_jobs);
    out += &format!("  \"tracked_jobs\": {},\n", stats.tracked_jobs);
    out += &format!("  \"p50_latency_s\": {},\n", stats.p50_latency_s);
    out += &format!("  \"p99_latency_s\": {},\n", stats.p99_latency_s);
    out += &format!("  \"p50_queue_wait_s\": {},\n", stats.p50_queue_wait_s);
    out += &format!("  \"p99_queue_wait_s\": {},\n", stats.p99_queue_wait_s);
    out += &format!("  \"p50_exec_s\": {},\n", stats.p50_exec_s);
    out += &format!("  \"p99_exec_s\": {},\n", stats.p99_exec_s);
    out += "  \"tenants\": [\n";
    for (i, t) in stats.tenants.iter().enumerate() {
        let sep = if i + 1 < stats.tenants.len() { "," } else { "" };
        out += &format!(
            "    {{\"tenant\": {}, \"submitted\": {}, \"completed\": {}, \
             \"cancelled\": {}, \"expired\": {}, \"running\": {}, \"waiting\": {}, \
             \"pending_steps\": {}, \"steps\": {}, \"service_secs\": {}, \
             \"queue_wait_secs\": {}, \"exec_secs\": {}}}{sep}\n",
            t.tenant,
            t.submitted,
            t.completed,
            t.cancelled,
            t.expired,
            t.running,
            t.waiting,
            t.pending_steps,
            t.steps,
            t.service_secs,
            t.queue_wait_secs,
            t.exec_secs,
        );
    }
    out += "  ]\n}\n";
    out
}

/// One connection's life: read requests until the peer closes, a parse
/// error poisons the framing, shutdown is requested, or keep-alive is
/// off.
fn handle_connection(stream: TcpStream, tx: Sender<Msg>, io_timeout: Duration) {
    // Every response frame is one write (`super::wire`), so there is
    // nothing for Nagle to gather — it would only hold a frame back for
    // the client's delayed ACK.
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(io_timeout));
    let _ = stream.set_write_timeout(Some(io_timeout.max(Duration::from_secs(1))));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut stream = stream;
    loop {
        match read_request(&mut reader) {
            Ok(ReadOutcome::Closed) => return,
            Ok(ReadOutcome::TimedOut) => {
                if signal::shutdown_requested() {
                    return;
                }
            }
            Err(err) => {
                // Malformed input: answer with its well-formed 4xx and
                // close — after a framing error the byte stream cannot
                // be trusted to resynchronize.
                write_error(&mut stream, err.status, err.reason, &err.body(), false);
                return;
            }
            Ok(ReadOutcome::Request(req)) => {
                let keep = dispatch(&mut stream, &req, &tx);
                if !(keep && req.keep_alive && !signal::shutdown_requested()) {
                    return;
                }
            }
        }
    }
}

/// Write an error response around a JSON `body`; whether the write went
/// through.
fn write_error(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    body: &str,
    keep_alive: bool,
) -> bool {
    let (extra, json) = (&[], "application/json");
    let body = body.as_bytes();
    super::wire::write_response(stream, status, reason, extra, json, body, keep_alive).is_ok()
}

/// Route one request. Returns whether the connection may be kept alive
/// (false on write failures and streamed responses cut short).
fn dispatch(stream: &mut TcpStream, req: &Request, tx: &Sender<Msg>) -> bool {
    match (req.method.as_str(), req.target.as_str()) {
        ("POST", "/jobs") => post_job(stream, req, tx),
        ("GET", "/stats") => get_stats(stream, tx),
        (_, "/jobs") | (_, "/stats") => {
            let body = json::error_body("method not allowed");
            write_error(stream, 405, "Method Not Allowed", &body, true)
        }
        _ => {
            let body = json::error_body(&format!(
                "no such endpoint {}; use POST /jobs or GET /stats",
                req.target
            ));
            write_error(stream, 404, "Not Found", &body, true)
        }
    }
}

fn get_stats(stream: &mut TcpStream, tx: &Sender<Msg>) -> bool {
    let (reply, rx) = std::sync::mpsc::channel();
    if tx.send(Msg::Stats { reply }).is_err() {
        return service_unavailable(stream, "scheduler is gone");
    }
    match rx.recv_timeout(Duration::from_secs(5)) {
        Ok(json) => super::wire::write_response(
            stream,
            200,
            "OK",
            &[],
            "application/json",
            json.as_bytes(),
            true,
        )
        .is_ok(),
        Err(_) => service_unavailable(stream, "stats timed out"),
    }
}

fn service_unavailable(stream: &mut TcpStream, why: &str) -> bool {
    let body = json::error_body(why);
    let _ = super::wire::write_response(
        stream,
        503,
        "Service Unavailable",
        &[("Retry-After", "1".to_string())],
        "application/json",
        body.as_bytes(),
        false,
    );
    false
}

fn post_job(stream: &mut TcpStream, req: &Request, tx: &Sender<Msg>) -> bool {
    let job = std::str::from_utf8(&req.body)
        .map_err(|_| "body is not UTF-8".to_string())
        .and_then(jobspec::parse_job);
    let job = match job {
        Ok(job) => job,
        Err(e) => return write_error(stream, 400, "Bad Request", &json::error_body(&e), true),
    };
    let (reply, events) = std::sync::mpsc::channel();
    if tx.send(Msg::Submit { job, reply }).is_err() {
        return service_unavailable(stream, "scheduler is gone");
    }
    // The verdict arrives promptly (the scheduler checks admission
    // before anything slow); a generous timeout only guards against a
    // wedged scheduler.
    match events.recv_timeout(Duration::from_secs(30)) {
        Err(_) => service_unavailable(stream, "submission timed out"),
        Ok(JobEvent::Shed {
            retry_after_s,
            reason,
            draining,
        }) => {
            let retry = format!("{}", retry_after_s.ceil().max(1.0) as u64);
            let (status, phrase) = if draining {
                (503, "Service Unavailable")
            } else {
                (429, "Too Many Requests")
            };
            let body = format!(
                "{{\"error\": \"shed\", \"reason\": \"{}\", \"retry_after_s\": {:.3}}}\n",
                if draining { "draining" } else { reason.label() },
                retry_after_s,
            );
            super::wire::write_response(
                stream,
                status,
                phrase,
                &[("Retry-After", retry)],
                "application/json",
                body.as_bytes(),
                true,
            )
            .is_ok()
        }
        Ok(first) => stream_job(stream, first, &events, tx),
    }
}

/// Stream an admitted job's events as one chunked NDJSON response.
/// `first` is whatever event followed admission — almost always
/// `Admitted`, but a job that terminates during submission (e.g. an
/// already-expired wall deadline) can emit paths first; the stream
/// copes with any order and ends at the event carrying `done`.
fn stream_job(
    stream: &mut TcpStream,
    first: JobEvent,
    events: &Receiver<JobEvent>,
    tx: &Sender<Msg>,
) -> bool {
    let Ok(w) = ChunkedWriter::start(stream, 200, "OK", "application/x-ndjson", true) else {
        return false;
    };
    let mut job_id = None;
    let streamed = write_events(w, first, events, &mut job_id);
    if streamed.is_err() {
        // Client gone mid-stream (or the scheduler, and then this goes
        // nowhere): stop spending compute on the job. Dropping `events`
        // turns the scheduler's further sends into no-ops until it
        // retires the job.
        if let Some(job) = job_id {
            let _ = tx.send(Msg::Cancel { job });
        }
    }
    streamed.is_ok()
}

/// The body of [`stream_job`]: encode events into chunks until the one
/// carrying `done`, noting the job's id in `job_id` once it is known.
fn write_events<W: Write>(
    mut w: ChunkedWriter<'_, W>,
    first: JobEvent,
    events: &Receiver<JobEvent>,
    job_id: &mut Option<JobId>,
) -> std::io::Result<()> {
    let mut event = first;
    loop {
        match event {
            JobEvent::Admitted { job } => {
                *job_id = Some(job);
                let line = format!("{{\"event\": \"admitted\", \"job\": {}}}\n", job.as_u32());
                w.push(line.as_bytes());
            }
            JobEvent::Paths { flat, done } => {
                let mut rest = &flat[..];
                while let [query, n, tail @ ..] = rest {
                    let (path, next) = tail.split_at(*n as usize);
                    push_path(&mut w, *query, path);
                    rest = next;
                    if w.pending() >= CHUNK_BYTES {
                        w.send()?;
                    }
                }
                if let Some(report) = done {
                    push_done(&mut w, &report);
                    return w.finish();
                }
            }
            JobEvent::Shed { .. } => {} // cannot follow admission
        }
        if w.pending() < CHUNK_BYTES {
            if let Ok(queued) = events.try_recv() {
                event = queued;
                continue;
            }
        }
        w.send()?;
        // Scheduler gone or wedged: end the stream without the terminal
        // summary; the truncated chunked body tells the client the
        // stream is incomplete.
        event = events
            .recv_timeout(Duration::from_secs(60))
            .map_err(|_| std::io::ErrorKind::TimedOut)?;
    }
}

/// Append `v` in decimal. A path line is almost nothing but vertex ids,
/// so this runs once per step served and skips the `fmt` machinery.
fn push_u32<W: Write>(w: &mut ChunkedWriter<'_, W>, mut v: u32) {
    let mut digits = [0u8; 10];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    w.push(&digits[at..]);
}

/// Append one `path` line.
fn push_path<W: Write>(w: &mut ChunkedWriter<'_, W>, query: u32, path: &[VertexId]) {
    w.push(b"{\"event\": \"path\", \"query\": ");
    push_u32(w, query);
    w.push(b", \"path\": [");
    for (i, &v) in path.iter().enumerate() {
        if i > 0 {
            w.push(b",");
        }
        push_u32(w, v);
    }
    w.push(b"]}\n");
}

/// Append the `done` line.
fn push_done<W: Write>(w: &mut ChunkedWriter<'_, W>, report: &JobReport) {
    let status = match report.status {
        JobStatus::Completed => "completed",
        JobStatus::Cancelled => "cancelled",
        JobStatus::Expired => "expired",
        _ => "unknown",
    };
    let line = format!(
        "{{\"event\": \"done\", \"status\": \"{status}\", \"paths\": {}, \
         \"steps\": {}, \"latency_ms\": {:.3}, \"queue_wait_ms\": {:.3}, \
         \"exec_ms\": {:.3}}}\n",
        report.paths,
        report.steps,
        report.latency_s * 1e3,
        report.queue_wait_s * 1e3,
        report.exec_s * 1e3,
    );
    w.push(line.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::wire::{read_response, CountingWriter};
    use lightrw_graph::generators;
    use lightrw_walker::{JobSpec, QuerySet, ReferenceEngine, SamplerKind, Uniform};

    fn job(queries: usize, length: u32) -> TraceJob {
        TraceJob {
            tenant: 0,
            weight: 1,
            queries,
            length,
            seed: 11,
            deadline: None,
            deadline_ms: None,
            program: None,
        }
    }

    fn scheduler<'s>(engine: &'s dyn WalkEngine, graph: &'s Graph) -> Scheduler<'s> {
        Scheduler {
            service: WalkService::new(vec![engine], ServiceConfig::default()),
            admission: Admission::new(AdmissionConfig {
                rate_steps_per_s: 1e12,
                burst_steps: 1e12,
                queue_high_water: 1 << 20,
            }),
            replies: HashMap::new(),
            graph,
            submitted: 0,
            shed_draining: 0,
            drain_started: None,
        }
    }

    /// The response body `write_events` produces for `events`, and the
    /// number of writes it took (head included).
    fn stream(events: Vec<JobEvent>) -> (String, usize) {
        let (tx, rx) = std::sync::mpsc::channel();
        let mut events = events.into_iter();
        let first = events.next().expect("at least one event");
        events.for_each(|e| tx.send(e).unwrap());
        let mut out = CountingWriter::default();
        let w = ChunkedWriter::start(&mut out, 200, "OK", "application/x-ndjson", true).unwrap();
        write_events(w, first, &rx, &mut None).unwrap();
        let resp = read_response(&mut &out.bytes[..]).unwrap();
        (String::from_utf8(resp.body).unwrap(), out.writes)
    }

    #[test]
    fn ndjson_lines_are_byte_identical_to_the_formatted_ones() {
        // What the per-path `format!`/`to_string` encoder wrote, and what
        // `audit_stream`, the CLI client and the benchmark parse.
        let paths: [(u32, &[u32]); 4] = [
            (0, &[7]),
            (1, &[0, 10, 99, 100, 4_294_967_295]),
            (4_294_967_295, &[1_000_000_000, 999_999_999]),
            (12, &[]),
        ];
        let mut flat = Vec::new();
        let mut expect = String::from("{\"event\": \"admitted\", \"job\": 0}\n");
        for (query, path) in paths {
            flat.extend([query, path.len() as u32]);
            flat.extend_from_slice(path);
            let ids: Vec<String> = path.iter().map(u32::to_string).collect();
            expect += &format!(
                "{{\"event\": \"path\", \"query\": {query}, \"path\": [{}]}}\n",
                ids.join(",")
            );
        }
        expect += "{\"event\": \"done\", \"status\": \"cancelled\", \"paths\": 4, \"steps\": 5, \
                   \"latency_ms\": 1.235, \"queue_wait_ms\": 0.100, \"exec_ms\": 1.135}\n";
        // A `JobId` only comes out of a service.
        let g = generators::rmat(4, 4, 1);
        let engine = ReferenceEngine::new(&g, &Uniform, SamplerKind::InverseTransform, 1);
        let job = WalkService::new(vec![&engine], ServiceConfig::default())
            .submit(JobSpec::tenant(0), QuerySet::n_queries(&g, 1, 1, 0));
        let done = JobReport {
            status: JobStatus::Cancelled,
            paths: 4,
            steps: 5,
            latency_s: 0.0012346,
            queue_wait_s: 0.0001,
            exec_s: 0.0011346,
        };
        let (body, writes) = stream(vec![
            JobEvent::Admitted { job },
            JobEvent::Paths {
                flat,
                done: Some(done),
            },
        ]);
        assert_eq!(body, expect);
        assert_eq!(writes, 2, "head, then everything queued in one write");
        // The lines are `format!`ed, not built from a tree: the reader
        // is what shows they are JSON.
        let read = body.lines().map(|line| json::parse(line, "the line"));
        let read: Vec<json::Value> = read.collect::<Result<_, _>>().unwrap();
        let done = &read[5];
        assert_eq!(done.get("exec_ms"), Some(&json::Value::Number(1.135)));
    }

    #[test]
    fn a_job_costs_a_message_per_turn_and_a_write_per_chunk() {
        // The benchmark's job: 1 024 queries of 80 steps at the default
        // 4 096-step quantum. Per-path events made this 1 026 messages
        // and 4 117 writes.
        let g = generators::rmat(10, 8, 5);
        let engine = ReferenceEngine::new(&g, &Uniform, SamplerKind::InverseTransform, 9);
        let mut sched = scheduler(&engine, &g);
        let (tx, rx) = std::sync::mpsc::channel();
        sched.submit(job(1024, 80), tx);
        while !sched.service.is_idle() {
            let turn = sched.service.tick();
            sched.send_turn(turn.job);
        }
        let ticks = sched.service.stats().ticks as usize;
        assert_eq!(sched.service.tracked_len(), 0, "retired as it ended");
        assert!(sched.replies.is_empty());

        let events: Vec<JobEvent> = rx.try_iter().collect();
        // Paths leave while the job runs, so every turn has its message;
        // a turn that releases more than a batch holds (a long walk ends
        // and the finished ones behind it go out together) fills batches
        // first: a full batch has no room for one more 80-step path.
        let longest = 2 + 81;
        let full = |e: &&JobEvent| matches!(e, JobEvent::Paths { flat, .. } if flat.len() + longest > BATCH_U32S);
        let full = events.iter().filter(full).count();
        assert!(
            events.len() - full <= ticks + 2,
            "{} messages, {full} of them full batches, for {ticks} turns",
            events.len()
        );
        assert!(matches!(events[0], JobEvent::Admitted { .. }));
        let mut paths = 0;
        for (i, e) in events.iter().enumerate().skip(1) {
            let JobEvent::Paths { flat, done } = e else {
                panic!("unexpected event {i}");
            };
            assert!(flat.len() <= BATCH_U32S, "batches are bounded");
            assert_eq!(done.is_some(), i + 1 == events.len(), "done rides last");
            let mut rest = &flat[..];
            while let [query, n, tail @ ..] = rest {
                assert_eq!(*query, paths, "ascending query ids across batches");
                paths += 1;
                rest = &tail[*n as usize..];
            }
        }
        assert_eq!(paths, 1024);

        // Queued up like this the events fold into `CHUNK_BYTES` chunks;
        // live, the front-door tests count the frames off the socket.
        let (body, writes) = stream(events);
        assert_eq!(body.lines().count(), 1026);
        assert!(writes <= ticks + 4, "{writes} writes for {ticks} turns");
    }

    #[test]
    fn a_cancel_for_a_retired_job_is_ignored() {
        // A client that disconnects as its job ends: the handler's
        // `Cancel` reaches the scheduler after the record is gone.
        let g = generators::rmat(6, 4, 2);
        let engine = ReferenceEngine::new(&g, &Uniform, SamplerKind::InverseTransform, 3);
        let mut sched = scheduler(&engine, &g);
        let (tx, rx) = std::sync::mpsc::channel();
        sched.submit(job(8, 4), tx);
        let Ok(JobEvent::Admitted { job: id }) = rx.try_recv() else {
            panic!("admission comes first");
        };
        drop(rx);
        while !sched.service.is_idle() {
            let turn = sched.service.tick();
            sched.send_turn(turn.job);
        }
        assert_eq!(sched.service.status(id), JobStatus::Retired);
        sched.handle(Msg::Cancel { job: id });
        let (tx, rx) = std::sync::mpsc::channel();
        sched.handle(Msg::Stats { reply: tx });
        let stats = rx.try_recv().unwrap();
        assert!(stats.contains("\"completed_jobs\": 1,\n  \"tracked_jobs\": 0,"));
        // `/stats` is `format!`ed too; the reader shows it is JSON, here
        // and for a service that has no latency sample to report yet.
        let doc = json::parse(&stats, "the document").unwrap();
        let Some(json::Value::Array(tenants)) = doc.get("tenants") else {
            panic!("no tenants array in {doc:?}");
        };
        assert_eq!(tenants[0].get("completed").unwrap().as_uint(9), Ok(1));
        let idle = scheduler(&engine, &g);
        let stats = stats_json(&idle.service.stats(), &idle.admission, true);
        let doc = json::parse(&stats, "the document").unwrap();
        assert_eq!(doc.get("draining"), Some(&json::Value::Bool(true)));
        assert_eq!(doc.get("p99_latency_s"), Some(&json::Value::Number(0.0)));
        assert_eq!(doc.get("tenants"), Some(&json::Value::Array(Vec::new())));
    }
}
