//! The socket rung: an in-process `http::serve` and the closed-loop clients
//! that drive it. `serve-stream` measures through this; the traced run's
//! `core.http_*` rung uses the same code with a tracer attached.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Barrier, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lightrw::baseline::signal;
use lightrw::graph::{Graph, VertexId};
use lightrw::http::{serve, AdmissionConfig, ServeConfig, ServeSummary};
use lightrw::jobspec::{job_to_json, TraceJob};
use lightrw::walker::ServiceConfig;

use crate::check::{check_records, ByteDigest, CheckReport};
use crate::inputs::{Inputs, Workload};
use crate::json;
use crate::spec::{QUERY_SETS, SERVE_CLIENTS, WALK_LENGTH};
use crate::trace::Tracer;

/// A front door serving `graph` on a loopback port, on its own thread.
pub struct Server {
    addr: SocketAddr,
    thread: JoinHandle<Result<ServeSummary, String>>,
}

impl Server {
    /// Bind `127.0.0.1:0` and serve over one engine of `workload`'s backend.
    /// Admission is opened wide: the benchmark's load is closed-loop, so
    /// nothing should ever be shed, and a shed job counts as a failure.
    ///
    /// The shutdown latch `serve` watches is process-wide, so at most one
    /// `Server` may be alive at a time.
    pub fn start(graph: Arc<Graph>, workload: Workload, engine_seed: u64) -> Result<Self, String> {
        signal::clear_shutdown();
        let listener =
            TcpListener::bind("127.0.0.1:0").map_err(|e| format!("cannot bind loopback: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("no local address: {e}"))?;
        let cfg = ServeConfig {
            service: ServiceConfig::default(),
            admission: AdmissionConfig {
                rate_steps_per_s: 1e15,
                burst_steps: 1e15,
                queue_high_water: usize::MAX,
            },
            ..ServeConfig::default()
        };
        let thread = std::thread::Builder::new()
            .name("bench-serve".into())
            .spawn(move || {
                let engine = workload
                    .backend()
                    .build(&graph, workload.app(), engine_seed);
                serve(listener, vec![&*engine], &graph, &cfg)
            })
            .map_err(|e| format!("cannot spawn the server thread: {e}"))?;
        Ok(Self { addr, thread })
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Ask the server to drain, wait for it, and return its traffic summary.
    /// Close client connections first, or their handler threads linger
    /// until a read times out.
    pub fn stop(self) -> Result<ServeSummary, String> {
        signal::request_shutdown();
        let summary = self
            .thread
            .join()
            .map_err(|_| "the server thread panicked".to_string())?;
        signal::clear_shutdown();
        summary
    }
}

/// The request body for query set `set` of a run: the jobspec the front
/// door expands into exactly `inputs.sets[set]`.
pub fn job_body(workload: Workload, inputs: &Inputs, set: usize) -> String {
    job_to_json(&TraceJob {
        tenant: 0,
        weight: 1,
        queries: workload.queries_per_job(),
        length: WALK_LENGTH,
        seed: inputs.seeds.queries[set],
        deadline: None,
        deadline_ms: None,
        program: None,
    })
}

/// The bytes of a `POST /jobs` carrying `body`.
pub fn request_text(body: &str) -> String {
    format!(
        "POST /jobs HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
}

/// What one `POST /jobs` looked like from the client.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct JobOutcome {
    /// From the first request byte written to the `done` line parsed.
    pub latency_s: f64,
    /// From the first request byte written to the first `path` line read.
    pub first_path_s: f64,
    /// The `done` line's own `latency_ms` (submission to terminal state,
    /// measured inside the scheduler).
    pub server_latency_ms: f64,
    pub steps: u64,
    pub paths: u64,
    /// The job was admitted and its `done` line says `completed`.
    pub completed: bool,
    /// Response bytes read off the socket: head, chunk framing and body.
    pub bytes: u64,
    /// [`ByteDigest`] over the `path` lines.
    pub digest: u64,
}

/// One keep-alive connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    head: Vec<u8>,
    pending: Vec<u8>,
}

const PATH_PREFIX: &[u8] = b"{\"event\": \"path\"";
const DONE_PREFIX: &[u8] = b"{\"event\": \"done\"";

impl Client {
    pub fn connect(addr: SocketAddr) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        // A reply that never comes must fail the run, not hang it.
        let timeout = Some(Duration::from_secs(60));
        stream
            .set_read_timeout(timeout)
            .and_then(|_| stream.set_write_timeout(timeout))
            .and_then(|_| stream.set_nodelay(true))
            .map_err(|e| format!("socket options: {e}"))?;
        let writer = stream
            .try_clone()
            .map_err(|e| format!("clone socket: {e}"))?;
        Ok(Self {
            reader: BufReader::with_capacity(64 << 10, stream),
            writer,
            head: Vec::new(),
            pending: Vec::new(),
        })
    }

    fn read_line(&mut self) -> Result<usize, String> {
        self.head.clear();
        let n = self
            .reader
            .read_until(b'\n', &mut self.head)
            .map_err(|e| format!("read: {e}"))?;
        if n == 0 || !self.head.ends_with(b"\r\n") {
            return Err("connection closed mid-response".into());
        }
        self.head.truncate(n - 2);
        Ok(n)
    }

    /// Submit `body`, stream the reply to its end, and hand every `path`
    /// line (without its newline) to `on_path`. With a tracer, the job is
    /// one `http.job` span with `http.write`, `http.first_path` and
    /// `http.stream` children.
    pub fn run_job(
        &mut self,
        body: &str,
        job: u32,
        mut tracer: Option<&mut Tracer>,
        mut on_path: impl FnMut(&[u8]),
    ) -> Result<JobOutcome, String> {
        let mut out = JobOutcome::default();
        let mut digest = ByteDigest::new();
        let job_span = tracer.as_deref_mut().map(|t| t.enter("http.job", job));
        let phase = tracer.as_deref_mut().map(|t| t.enter("http.write", job));
        let start = Instant::now();
        self.writer
            .write_all(request_text(body).as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        if let (Some(t), Some(g)) = (tracer.as_deref_mut(), phase) {
            t.exit(g);
        }
        let mut phase = tracer
            .as_deref_mut()
            .map(|t| t.enter("http.first_path", job));

        // Head: status line, then headers up to the blank line.
        out.bytes += self.read_line()? as u64;
        let status = std::str::from_utf8(&self.head)
            .ok()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or("malformed status line")?;
        let mut chunked = false;
        let mut content_length = 0usize;
        loop {
            out.bytes += self.read_line()? as u64;
            if self.head.is_empty() {
                break;
            }
            let line = String::from_utf8_lossy(&self.head).to_ascii_lowercase();
            if let Some((name, value)) = line.split_once(':') {
                match name.trim() {
                    "transfer-encoding" => chunked = value.trim() == "chunked",
                    "content-length" => content_length = value.trim().parse().unwrap_or(0),
                    _ => {}
                }
            }
        }
        if status != 200 || !chunked {
            // Shed (429/503) or an error: a fixed-length JSON body. Read it
            // so the connection stays usable, and report the job as failed.
            let mut sink = vec![0u8; content_length.min(1 << 20)];
            self.reader
                .read_exact(&mut sink)
                .map_err(|e| format!("read: {e}"))?;
            out.bytes += sink.len() as u64;
            out.latency_s = start.elapsed().as_secs_f64();
            for g in [phase, job_span].into_iter().flatten() {
                tracer
                    .as_deref_mut()
                    .expect("guards imply a tracer")
                    .exit(g);
            }
            return Ok(out);
        }

        // Body: chunks of NDJSON lines until the zero-length chunk.
        self.pending.clear();
        let mut done = false;
        loop {
            out.bytes += self.read_line()? as u64;
            let size = std::str::from_utf8(&self.head)
                .ok()
                .and_then(|l| usize::from_str_radix(l.split(';').next()?.trim(), 16).ok())
                .filter(|&n| n <= 16 << 20)
                .ok_or("malformed chunk size")?;
            let at = self.pending.len();
            self.pending.resize(at + size + 2, 0);
            self.reader
                .read_exact(&mut self.pending[at..])
                .map_err(|e| format!("read: {e}"))?;
            out.bytes += size as u64 + 2;
            self.pending.truncate(at + size);
            if size == 0 {
                break;
            }
            let mut from = 0;
            while let Some(nl) = self.pending[from..].iter().position(|&b| b == b'\n') {
                let line = &self.pending[from..from + nl];
                from += nl + 1;
                if line.starts_with(PATH_PREFIX) {
                    if out.paths == 0 {
                        out.first_path_s = start.elapsed().as_secs_f64();
                        if let (Some(t), Some(g)) = (tracer.as_deref_mut(), phase.take()) {
                            t.exit(g);
                            phase = Some(t.enter("http.stream", job));
                        }
                    }
                    out.paths += 1;
                    digest.line(line);
                    on_path(line);
                } else if line.starts_with(DONE_PREFIX) {
                    let text = std::str::from_utf8(line).map_err(|_| "done line is not UTF-8")?;
                    let v = json::parse(text)?;
                    let num = |k: &str| v.get(k).and_then(json::Value::as_f64);
                    out.completed = v.get("status").and_then(json::Value::as_str)
                        == Some("completed")
                        && num("paths") == Some(out.paths as f64);
                    out.steps = num("steps").ok_or("done line without steps")? as u64;
                    out.server_latency_ms =
                        num("latency_ms").ok_or("done line without latency_ms")?;
                    out.latency_s = start.elapsed().as_secs_f64();
                    done = true;
                }
            }
            self.pending.drain(..from);
        }
        for g in [phase, job_span].into_iter().flatten() {
            tracer
                .as_deref_mut()
                .expect("guards imply a tracer")
                .exit(g);
        }
        if !done {
            return Err("stream ended without a done line".into());
        }
        out.digest = digest.finish();
        Ok(out)
    }
}

/// Parse one `path` line into its record.
pub fn parse_path_line(line: &[u8]) -> Result<(u32, Vec<VertexId>), String> {
    let text = std::str::from_utf8(line).map_err(|_| "path line is not UTF-8")?;
    let v = json::parse(text)?;
    let id = |v: &json::Value| {
        v.as_f64()
            .filter(|n| n.fract() == 0.0 && (0.0..=u32::MAX as f64).contains(n))
            .map(|n| n as u32)
    };
    let query = v
        .get("query")
        .and_then(id)
        .ok_or("path line without a query id")?;
    let path = v
        .get("path")
        .and_then(json::Value::as_array)
        .ok_or("path line without a path")?
        .iter()
        .map(|x| id(x).ok_or("path entry is not a vertex id"))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((query, path))
}

/// What a timed repetition of query set `i` must reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reference {
    pub digest: u64,
    pub steps: u64,
}

/// Run every query set once through the socket, parse and fully check what
/// comes back, and keep each set's digest for the timed window.
pub fn validate(
    workload: Workload,
    inputs: &Inputs,
    client: &mut Client,
) -> Result<(Vec<Reference>, CheckReport), String> {
    let mut refs = Vec::new();
    let mut total = CheckReport::default();
    for (set, queries) in inputs.sets.iter().enumerate() {
        let mut records: Vec<(u32, Vec<VertexId>)> = Vec::new();
        let mut bad_lines = 0u64;
        let outcome = client.run_job(&job_body(workload, inputs, set), set as u32, None, |l| {
            match parse_path_line(l) {
                Ok(r) => records.push(r),
                Err(_) => bad_lines += 1,
            }
        })?;
        let mut report = check_records(
            &inputs.graph,
            queries,
            records.iter().map(|(id, p)| (*id, p.as_slice())),
        );
        let walked: u64 = records
            .iter()
            .map(|(_, p)| (p.len() as u64).saturating_sub(1))
            .sum();
        if !outcome.completed || bad_lines > 0 || walked != outcome.steps {
            // The job as a whole is wrong: every query of it failed.
            report.failed = report.attempted;
        }
        total.attempted += report.attempted;
        total.failed += report.failed;
        total.examples.extend(report.examples);
        refs.push(Reference {
            digest: outcome.digest,
            steps: outcome.steps,
        });
    }
    Ok((refs, total))
}

/// Everything the closed-loop clients saw during one window.
pub struct WindowReport {
    /// Per job: the outcome and when it ended, in seconds into the window.
    pub jobs: Vec<(JobOutcome, f64)>,
    pub attempted: u64,
    pub failed: u64,
    /// From the barrier release to the last client's last `done`.
    pub elapsed_s: f64,
    /// One tracer per client, when the window was traced.
    pub tracers: Vec<Tracer>,
}

/// Drive `SERVE_CLIENTS` closed-loop clients for `seconds`: each holds one
/// connection, sends a job, reads it to `done`, sends the next. Client `c`
/// starts on query set `c` and strides by the client count, so every set is
/// used and two clients never ask for the same set at once.
pub fn drive_window(
    workload: Workload,
    inputs: &Inputs,
    addr: SocketAddr,
    refs: &[Reference],
    seconds: f64,
    trace_epoch: Option<Instant>,
) -> Result<WindowReport, String> {
    // The clients start together; the first one past the barrier starts the
    // window's clock.
    let barrier = Barrier::new(SERVE_CLIENTS);
    let window_start = OnceLock::new();
    let per_job = workload.queries_per_job() as u64;
    // "At least 10 repetitions" is shared between the clients.
    let min_jobs = 10usize.div_ceil(SERVE_CLIENTS);
    let bodies: Vec<String> = (0..QUERY_SETS)
        .map(|s| job_body(workload, inputs, s))
        .collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SERVE_CLIENTS)
            .map(|c| {
                let (barrier, bodies, window_start) = (&barrier, &bodies, &window_start);
                scope.spawn(move || -> Result<_, String> {
                    let client = Client::connect(addr);
                    barrier.wait();
                    let start = *window_start.get_or_init(Instant::now);
                    let mut client = client?;
                    let mut tracer = trace_epoch.map(Tracer::new);
                    let mut jobs = Vec::new();
                    let mut failed = 0u64;
                    while start.elapsed().as_secs_f64() < seconds || jobs.len() < min_jobs {
                        let set = (c + jobs.len() * SERVE_CLIENTS) % QUERY_SETS;
                        let id = (jobs.len() * SERVE_CLIENTS + c) as u32;
                        let out = client.run_job(&bodies[set], id, tracer.as_mut(), |_| ())?;
                        let good = out.completed
                            && out.digest == refs[set].digest
                            && out.steps == refs[set].steps;
                        failed += if good { 0 } else { per_job };
                        jobs.push((out, start.elapsed().as_secs_f64()));
                    }
                    Ok((jobs, failed, tracer))
                })
            })
            .collect();
        let mut report = WindowReport {
            jobs: Vec::new(),
            attempted: 0,
            failed: 0,
            elapsed_s: 0.0,
            tracers: Vec::new(),
        };
        for h in handles {
            let (jobs, failed, tracer) = h.join().map_err(|_| "a client thread panicked")??;
            report.attempted += jobs.len() as u64 * per_job;
            report.failed += failed;
            report.jobs.extend(jobs);
            report.tracers.extend(tracer);
        }
        report.elapsed_s = report.jobs.iter().map(|(_, end)| *end).fold(0.0, f64::max);
        Ok(report)
    })
}
