//! The untraced run (`--trace 0`): set up a workload the way a user would,
//! check its output, then measure the end-to-end metrics over a closed-loop
//! window. No tracer is anywhere near these loops.

use std::path::Path;
use std::time::Instant;

use lightrw::walker::{WalkEngine, WalkEngineExt};

use crate::check::{check_records, digest, CheckReport, RecordingSink};
use crate::host::{self, HostFacts};
use crate::inputs::{Inputs, Workload};
use crate::json::{obj, Value};
use crate::serve::{self, Client, Reference, Server};
use crate::spec::{MetricSpec, FIGURES};
use crate::stats::{median, quantile, sorted};

/// The command-line settings of one run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Self-test mode: rmat-14 for rmat-20, set-up measured once.
    pub smoke: bool,
    /// Where the packed graph, the detail file and the span file go.
    pub out: std::path::PathBuf,
}

/// What a run reports: the final JSON line's fields, plus the detail
/// document written beside it.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// The metrics of the result line.
    pub metrics: Vec<(MetricSpec, f64)>,
    /// Figures that are printed and kept in `detail.json` but not gated.
    pub reported: Vec<(MetricSpec, f64)>,
    pub detail: Value,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// `{"name": {"value": v, "unit": u}, ...}` in reporting order.
    pub fn metrics_json(&self) -> Value {
        Self::to_json(&self.metrics)
    }

    fn to_json(metrics: &[(MetricSpec, f64)]) -> Value {
        let entry = |m: &MetricSpec, v: f64| {
            obj(vec![
                ("value", Value::Num(v)),
                ("unit", Value::Str(m.unit.into())),
            ])
        };
        Value::Obj(
            metrics
                .iter()
                .map(|(m, v)| (m.name.to_string(), entry(m, *v)))
                .collect(),
        )
    }
}

/// Set-up is repeated until it has run this often and this long, and the
/// median is reported: a 15 ms set-up taken once, or a hundred times inside
/// one slow second of the host, reads up to 80% high (`results/aa.md`).
/// `corpus-large` and `--smoke` set up once (seconds each).
const SETUP_MIN_RUNS: usize = 3;
const SETUP_MIN_TOTAL_S: f64 = 4.0;

/// A workload that is ready to be measured.
struct Ready {
    inputs: Inputs,
    /// `serve-stream` only: the front door and a warm connection.
    door: Option<(Server, Client)>,
}

impl Ready {
    /// Everything a user does before the first job comes back: generate,
    /// build (or pack and map) the graph, make the query sets, construct
    /// the engine — on `serve-stream`, start the front door and connect —
    /// and run one warm job.
    fn set_up(opts: &RunOptions) -> Result<Self, String> {
        let w = opts.workload;
        let inputs = Inputs::generate(w, opts.seed, opts.smoke, &opts.out)?;
        if w != Workload::ServeStream {
            std::hint::black_box(inputs.engine(w).run_collected(&inputs.sets[0]));
            return Ok(Self { inputs, door: None });
        }
        let server = Server::start(inputs.graph.clone(), w, inputs.seeds.engine)?;
        let warm = Client::connect(server.addr()).and_then(|mut client| {
            let out = client.run_job(&serve::job_body(w, &inputs, 0), 0, None, |_| ())?;
            if out.completed {
                Ok(client)
            } else {
                Err("the warm job did not complete".to_string())
            }
        });
        match warm {
            Ok(client) => Ok(Self {
                inputs,
                door: Some((server, client)),
            }),
            Err(e) => {
                let _ = server.stop();
                Err(e)
            }
        }
    }

    fn tear_down(self) -> Result<(), String> {
        if let Some((server, client)) = self.door {
            drop(client);
            server.stop()?;
        }
        Ok(())
    }
}

/// Run one corpus job the way the end-to-end configuration does: one
/// session, advanced to the end, into a collecting `WalkResults`.
fn corpus_job(engine: &dyn WalkEngine, ready: &Ready, set: usize) -> (u64, u64, f64) {
    let t = Instant::now();
    let results = engine.run_collected(&ready.inputs.sets[set]);
    let secs = t.elapsed().as_secs_f64();
    (digest(&results), results.total_steps(), secs)
}

/// Fully check every query set once and keep what timed jobs must reproduce.
fn validate_corpus(engine: &dyn WalkEngine, inputs: &Inputs) -> (Vec<Reference>, CheckReport) {
    let mut refs = Vec::new();
    let mut total = CheckReport::default();
    for queries in &inputs.sets {
        let mut sink = RecordingSink::new();
        engine.stream_into(queries, u64::MAX, &mut sink);
        let report = check_records(&inputs.graph, queries, sink.records());
        total.attempted += report.attempted;
        total.failed += report.failed;
        total.examples.extend(report.examples);
        refs.push(Reference {
            digest: digest(&sink.paths),
            steps: sink.paths.total_steps(),
        });
    }
    (refs, total)
}

/// One completed job: how long it took and how many steps it walked.
#[derive(Debug, Clone, Copy)]
struct Job {
    latency_s: f64,
    steps: u64,
}

/// What the timed window saw.
struct Window {
    attempted: u64,
    failed: u64,
    /// Completed jobs only: one that was shed or cut short returns early,
    /// and its latency says nothing about the work.
    jobs: Vec<Job>,
    /// From the first job's start to the last job's end.
    elapsed_s: f64,
    /// Process CPU (user + system, every thread) spent meanwhile.
    cpu_s: f64,
}

fn cpu_now() -> Result<f64, String> {
    host::process_cpu_s().ok_or_else(|| "cannot read the process CPU clock".to_string())
}

fn corpus_window(
    w: Workload,
    ready: &Ready,
    refs: &[Reference],
    seconds: f64,
) -> Result<Window, String> {
    let inputs = &ready.inputs;
    let engine = inputs.engine(w);
    let per_job = w.queries_per_job() as u64;
    let (mut attempted, mut failed) = (0, 0);
    let mut jobs = Vec::new();
    let cpu0 = cpu_now()?;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds || jobs.len() < 10 {
        let set = jobs.len() % refs.len();
        let (dig, steps, secs) = corpus_job(&*engine, ready, set);
        attempted += per_job;
        if dig != refs[set].digest || steps != refs[set].steps {
            failed += per_job;
        }
        jobs.push(Job {
            latency_s: secs,
            steps,
        });
    }
    Ok(Window {
        attempted,
        failed,
        jobs,
        elapsed_s: start.elapsed().as_secs_f64(),
        cpu_s: cpu_now()? - cpu0,
    })
}

fn serve_window(
    w: Workload,
    ready: &Ready,
    server: &Server,
    refs: &[Reference],
    seconds: f64,
) -> Result<Window, String> {
    let cpu0 = cpu_now()?;
    let rep = serve::drive_window(w, &ready.inputs, server.addr(), refs, seconds, None)?;
    Ok(Window {
        attempted: rep.attempted,
        failed: rep.failed,
        jobs: rep
            .jobs
            .iter()
            .filter(|(j, _)| j.completed)
            .map(|(j, _)| Job {
                latency_s: j.latency_s,
                steps: j.steps,
            })
            .collect(),
        elapsed_s: rep.elapsed_s,
        cpu_s: cpu_now()? - cpu0,
    })
}

/// Run `opts.workload` end to end and report the end-to-end metrics.
pub fn run(opts: &RunOptions) -> Result<RunResult, String> {
    let w = opts.workload;
    let facts = HostFacts::read();
    let rss_reset = host::reset_peak_rss();

    // Set-up, repeated; the last instance is the one measured.
    let mut setup_s = Vec::new();
    let mut ready = loop {
        let t = Instant::now();
        let ready = Ready::set_up(opts)?;
        setup_s.push(t.elapsed().as_secs_f64());
        let once = opts.smoke || w.packed();
        if once
            || (setup_s.len() >= SETUP_MIN_RUNS && setup_s.iter().sum::<f64>() >= SETUP_MIN_TOTAL_S)
        {
            break ready;
        }
        ready.tear_down()?;
    };
    let graph_bytes = if ready.inputs.timings.file_bytes > 0 {
        ready.inputs.timings.file_bytes
    } else {
        ready.inputs.graph.csr_bytes() + 8 * ready.inputs.graph.num_edges() as u64
    };
    eprintln!("{}", facts.describe_bytes("graph", graph_bytes));

    // Validation, outside both set-up and the window.
    let (refs, checked) = match ready.door.as_mut() {
        Some((_, client)) => serve::validate(w, &ready.inputs, client)?,
        None => validate_corpus(&*ready.inputs.engine(w), &ready.inputs),
    };
    for (id, fault) in &checked.examples {
        eprintln!("check: query {id}: {fault:?}");
    }

    // The window.
    let canary_before = host::canary_ns_per_iter();
    let win = match ready.door.as_ref() {
        None => corpus_window(w, &ready, &refs, opts.seconds)?,
        Some((server, _)) => serve_window(w, &ready, server, &refs, opts.seconds)?,
    };
    let canary_after = host::canary_ns_per_iter();
    let peak_rss_mb = host::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    let served = ready.door.is_some();
    let shed = match ready.door.take() {
        Some((server, client)) => {
            drop(client);
            server.stop()?.shed
        }
        None => 0,
    };

    // Every figure as measured: no trimming, no best case. The gated ones
    // make up the result line; all of them go to the detail file.
    let steps = win.jobs.iter().map(|j| j.steps).sum::<u64>() as f64;
    let lat_ms = sorted(win.jobs.iter().map(|j| j.latency_s * 1e3).collect());
    let rates = sorted(
        win.jobs
            .iter()
            .map(|j| j.steps as f64 / j.latency_s)
            .collect(),
    );
    let window_steps_per_s = steps / win.elapsed_s;
    let measured = [
        ("setup_s", median(&setup_s)),
        ("peak_rss_mb", peak_rss_mb),
        // Corpus jobs run one after the other, so the median job is the
        // median repetition; served jobs overlap, so only the window counts.
        (
            "steps_per_s",
            if served {
                window_steps_per_s
            } else {
                median(&rates)
            },
        ),
        ("window_steps_per_s", window_steps_per_s),
        ("cpu_s_per_mstep", win.cpu_s / (steps / 1e6)),
        ("job_p50_ms", quantile(&lat_ms, 0.5)),
        ("job_p90_ms", quantile(&lat_ms, 0.9)),
        ("job_p99_ms", quantile(&lat_ms, 0.99)),
    ];
    let (mut metrics, mut reported) = (Vec::new(), Vec::new());
    for (figure, (name, value)) in FIGURES.iter().zip(measured) {
        assert_eq!(figure.name, name, "figures are measured in spec order");
        if figure.bound.is_some() {
            metrics.push((figure.metric(), value));
        } else {
            reported.push((figure.metric(), value));
        }
    }
    let attempted = checked.attempted + win.attempted;
    // A shed job never reaches a client as a completed one, so it is already
    // among the failures; the count is kept for the detail file.
    let failed = checked.failed + win.failed;

    let detail = vec![
        ("workload", Value::Str(w.name().into())),
        ("seed", Value::Num(opts.seed as f64)),
        ("seconds", Value::Num(opts.seconds)),
        ("smoke", Value::Bool(opts.smoke)),
        ("host", facts.to_json()),
        ("peak_rss_reset", Value::Bool(rss_reset)),
        ("graph_bytes", Value::Num(graph_bytes as f64)),
        ("graph_mapped", Value::Bool(ready.inputs.timings.mapped)),
        (
            "setup_runs_s",
            Value::Arr(setup_s.iter().map(|&s| Value::Num(s)).collect()),
        ),
        (
            "window",
            obj(vec![
                ("jobs", Value::Num(win.jobs.len() as f64)),
                ("seconds", Value::Num(win.elapsed_s)),
                ("steps", Value::Num(steps)),
                ("cpu_s", Value::Num(win.cpu_s)),
            ]),
        ),
        ("canary_before_ns", Value::Num(canary_before)),
        ("canary_after_ns", Value::Num(canary_after)),
        ("shed", Value::Num(shed as f64)),
    ];
    Ok(RunResult {
        attempted,
        failed,
        metrics,
        reported,
        detail: obj(detail),
    })
}

/// Write `detail.json` (and nothing else) under the run's output directory:
/// the verdict, every figure — gated or not — and the run's own facts.
/// `aa` and `compare` read these files.
pub fn write_detail(out: &Path, result: &RunResult) -> Result<(), String> {
    std::fs::create_dir_all(out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    let path = out.join("detail.json");
    let mut fields = vec![
        ("correct".to_string(), Value::Bool(result.correct())),
        ("attempted".to_string(), Value::Num(result.attempted as f64)),
        ("failed".to_string(), Value::Num(result.failed as f64)),
        ("metrics".to_string(), result.metrics_json()),
        ("reported".to_string(), RunResult::to_json(&result.reported)),
    ];
    if let Value::Obj(detail) = &result.detail {
        fields.extend(detail.iter().cloned());
    }
    std::fs::write(&path, Value::Obj(fields).render() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}
