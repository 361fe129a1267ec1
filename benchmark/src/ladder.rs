//! The traced run (`--trace 1`): one workload's inputs pushed through one
//! more layer per rung, with spans recorded around each call into a layer.
//!
//! ```text
//! sampler kernel -> HotStepper -> engine session -> quantum slices
//!   -> collecting sink -> WalkService -> http::serve
//! ```
//!
//! plus two side rungs (sharded executors, accelerator simulator) that
//! always run on `corpus-node2vec`'s inputs of the same seed. `--seconds` is
//! split evenly over the rungs and every rung repeats at least ten times.
//! Rates are taken on untraced repetitions; spans come from traced
//! repetitions interleaved with them, and the gap between the two on the
//! span-densest rung is reported as the tracing overhead.

use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

use lightrw::graph::{Graph, ShardStrategy, VertexId, ROW_ENTRY_BYTES};
use lightrw::http::read_request;
use lightrw::hwsim::{LightRwConfig, LightRwSim};
use lightrw::jobspec::parse_job;
use lightrw::rng::{Rng, SplitMix64, StreamBank};
use lightrw::sampling::rejection::{select_from_prefix, RejectionOutcome, MAX_REJECTION_ROUNDS};
use lightrw::sampling::ParallelWrs;
use lightrw::walker::app::{StepContext, FX_FRAC_BITS};
use lightrw::walker::{
    AnySampler, CountingSink, HotStepper, JobSpec, Node2Vec, QuerySet, ReferenceEngine,
    SamplerKind, ServiceConfig, WalkApp, WalkEngine, WalkEngineExt, WalkResults, WalkService,
    WalkSink, WeightProfile,
};
use lightrw::{Backend, ShardedEngine};

use crate::check::{check_records, digest, RecordingSink};
use crate::endtoend::{RunOptions, RunResult};
use crate::host::{self, HostFacts};
use crate::inputs::{build_in_memory, pack_and_load, Inputs, Seeds, Workload};
use crate::json::{obj, Value};
use crate::serve::{self, Client, Server};
use crate::spec::{PER_LAYER, QUANTUM, QUERY_SETS, WALK_LENGTH};
use crate::stats::{median, quantile, sorted};
use crate::trace::Tracer;

/// Rungs the window is split over (see `run`).
const RUNGS: f64 = 17.0;
const MIN_REPS: usize = 10;

/// Repeat `rep` until the rung's share of the window is used and it has run
/// `MIN_REPS` times. `rep` times itself, so it can leave checking out, and
/// returns `(units of work, seconds)`; the result is units/second per
/// repetition.
fn rates(budget_s: f64, mut rep: impl FnMut(usize) -> (f64, f64)) -> Vec<f64> {
    rates_interleaved(budget_s, 1, |_, i| rep(i)).remove(0)
}

/// Like [`rates`] for `variants` configurations taken turn about, so a slow
/// phase of the host lands on all of them alike.
fn rates_interleaved(
    budget_s: f64,
    variants: usize,
    mut rep: impl FnMut(usize, usize) -> (f64, f64),
) -> Vec<Vec<f64>> {
    let start = Instant::now();
    let mut out = vec![Vec::new(); variants];
    while out[variants - 1].len() < MIN_REPS || start.elapsed().as_secs_f64() < budget_s {
        for (v, rates) in out.iter_mut().enumerate() {
            let (units, secs) = rep(v, rates.len());
            rates.push(units / secs);
        }
    }
    out
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// A sink that wraps every emission in a span.
struct TracingSink<'t, S> {
    tracer: &'t RefCell<Tracer>,
    name: &'static str,
    job: u32,
    inner: S,
}

impl<S: WalkSink> WalkSink for TracingSink<'_, S> {
    fn emit(&mut self, query_id: u32, path: &[VertexId]) {
        let guard = self.tracer.borrow_mut().enter(self.name, self.job);
        self.inner.emit(query_id, path);
        self.tracer.borrow_mut().exit(guard);
    }
}

/// The steps of a walked query set, flattened: where each step was sampled
/// from, and where the walk had been just before.
struct StepTrace {
    /// `(previous vertex or u32::MAX, current vertex)` per step taken.
    steps: Vec<(VertexId, VertexId)>,
    /// `(a, c)` for consecutive `a -> b -> c`: the membership probe
    /// Node2Vec makes for the candidate it ends up accepting.
    probes: Vec<(VertexId, VertexId)>,
    /// The walks again as `(start, steps)` plus, per step, which neighbour
    /// was taken — enough to replay every walk through the graph alone.
    walks: Vec<(VertexId, u32)>,
    choices: Vec<u32>,
}

const NO_PREV: VertexId = VertexId::MAX;

impl StepTrace {
    /// `results` must have passed the checker: every hop is an edge.
    fn from_results(g: &Graph, results: &WalkResults) -> Self {
        let mut trace = Self {
            steps: Vec::new(),
            probes: Vec::new(),
            walks: Vec::new(),
            choices: Vec::new(),
        };
        for path in results {
            trace.walks.push((path[0], path.len() as u32 - 1));
            for (i, hop) in path.windows(2).enumerate() {
                let prev = if i == 0 { NO_PREV } else { path[i - 1] };
                trace.steps.push((prev, hop[0]));
                let choice = g.neighbors(hop[0]).binary_search(&hop[1]);
                trace
                    .choices
                    .push(choice.expect("a checked hop is an edge") as u32);
            }
            trace.probes.extend(path.windows(3).map(|t| (t[0], t[2])));
        }
        trace
    }
}

/// Collected metric values, looked up by name when the run is assembled.
#[derive(Default)]
struct Values(Vec<(&'static str, f64)>);

impl Values {
    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
        eprintln!("  {name} = {value}");
        self.0.push((name, value));
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// Drive one session in `QUANTUM`-step slices; returns `(steps, advances)`.
fn run_sliced(
    engine: &dyn WalkEngine,
    queries: &QuerySet,
    sink: &mut dyn WalkSink,
    mut around: impl FnMut(&mut dyn FnMut()),
) -> (u64, u64) {
    let mut session = engine.start_session(queries);
    let mut advances = 0;
    while !session.finished() {
        around(&mut || {
            session.advance(QUANTUM, sink);
        });
        advances += 1;
    }
    (session.steps_done(), advances)
}

/// Walk `queries` with a bare `HotStepper` loop: no program, no session, no
/// sink — the fused sampling step and nothing else.
fn hotpath_walk(g: &Graph, app: &dyn WalkApp, stepper: &mut HotStepper, queries: &QuerySet) -> u64 {
    let mut steps = 0u64;
    for q in queries.queries() {
        let (mut cur, mut prev) = (q.start, None);
        for step in 0..q.length {
            match stepper.step(g, app, StepContext { step, cur, prev }) {
                Some(next) => {
                    prev = Some(cur);
                    cur = next;
                    steps += 1;
                }
                None => break,
            }
        }
        std::hint::black_box(cur);
    }
    steps
}

/// Read every section of the graph once; on a freshly mapped file this is
/// what faults the pages in.
fn first_touch(g: &Graph) -> u64 {
    let mut acc = 0u64;
    for v in 0..g.num_vertices() as VertexId {
        let view = g.neighbor_view(v);
        for (&t, &w) in view.targets.iter().zip(view.weights) {
            acc = acc.wrapping_add(t as u64 ^ w as u64);
        }
        if let Some(&total) = g.static_prefix(v).and_then(|c| c.last()) {
            acc = acc.wrapping_add(total);
        }
        acc = acc.wrapping_add(g.vertex_label(v) as u64);
    }
    acc
}

/// The rungs below the session layer: rng, samplers, graph access.
fn kernel_rungs(vals: &mut Values, budget: f64, g: &Graph, seeds: &Seeds, trace: &StepTrace) {
    // rng
    let mut rng = SplitMix64::new(seeds.engine);
    let r = rates(budget / 2.0, |_| {
        const DRAWS: u64 = 1 << 20;
        let ((), s) = timed(|| {
            let mut acc = 0u64;
            for _ in 0..DRAWS {
                acc ^= rng.next_u64();
            }
            std::hint::black_box(acc);
        });
        (DRAWS as f64, s)
    });
    vals.set("rng.ns_per_draw", 1e9 / median(&r));
    let mut bank = StreamBank::new(seeds.engine, 16);
    let r = rates(budget / 2.0, |_| {
        const ROWS: u64 = 1 << 16;
        let mut row = [0u32; 16];
        let ((), s) = timed(|| {
            for _ in 0..ROWS {
                bank.next_row(&mut row);
                std::hint::black_box(&row);
            }
        });
        (ROWS as f64, s)
    });
    vals.set("rng.bank_ns_per_row", 1e9 / median(&r));

    // sampling: inverse transform over the prefix cache
    let mut sampler = AnySampler::new(SamplerKind::InverseTransform, seeds.engine);
    let r = rates(budget, |_| {
        let ((), s) = timed(|| {
            for &(_, cur) in &trace.steps {
                let cum = g
                    .static_prefix(cur)
                    .expect("workload graphs carry the prefix cache");
                std::hint::black_box(sampler.select_prefix(cum));
            }
        });
        (trace.steps.len() as f64, s)
    });
    vals.set("sampling.inverse_ns_per_select", 1e9 / median(&r));

    // sampling: Node2Vec envelope rejection at every second-order step
    let n2v = Node2Vec::paper_params();
    let WeightProfile::SecondOrderEnvelope { max_weight } = n2v.weight_profile() else {
        unreachable!("Node2Vec advertises an envelope");
    };
    let second_order: Vec<(VertexId, VertexId)> = trace
        .steps
        .iter()
        .copied()
        .filter(|&(prev, _)| prev != NO_PREV)
        .collect();
    let reject = |rng: &mut SplitMix64, prev: VertexId, cur: VertexId, rounds: &mut u64| {
        let view = g.neighbor_view(cur);
        let cum = g.static_prefix(cur).expect("prefix cache");
        let ctx = StepContext {
            step: 1,
            cur,
            prev: Some(prev),
        };
        let counter = std::cell::Cell::new(0u64);
        let outcome = select_from_prefix(rng, cum, max_weight, MAX_REJECTION_ROUNDS, |i| {
            counter.set(counter.get() + 1);
            let nbr = view.targets[i];
            n2v.weight(
                ctx,
                nbr,
                view.weights[i],
                view.relation(i),
                g.has_edge(prev, nbr),
            )
        });
        *rounds += counter.get();
        outcome
    };
    // One counting pass at a fixed seed gives the exact figures...
    let (mut rounds, mut accepted) = (0u64, 0u64);
    let mut rng = SplitMix64::new(seeds.engine);
    for &(prev, cur) in &second_order {
        if let RejectionOutcome::Accepted(_) = reject(&mut rng, prev, cur, &mut rounds) {
            accepted += 1;
        }
    }
    vals.set(
        "sampling.rejection_rounds_per_select",
        rounds as f64 / second_order.len() as f64,
    );
    vals.set(
        "sampling.rejection_accept_ratio",
        accepted as f64 / rounds as f64,
    );
    // ...and the timed repetitions the cost.
    let r = rates(budget, |_| {
        let mut sink = 0u64;
        let ((), s) = timed(|| {
            for &(prev, cur) in &second_order {
                std::hint::black_box(reject(&mut rng, prev, cur, &mut sink));
            }
        });
        (second_order.len() as f64, s)
    });
    vals.set("sampling.rejection_ns_per_select", 1e9 / median(&r));

    // sampling: the paper's parallel WRS streams every candidate, so its
    // cost is per item; a hub-heavy trace is cut to a bounded item count.
    const MAX_PWRS_ITEMS: u64 = 8 << 20;
    let mut items = 0u64;
    let pwrs_steps: Vec<VertexId> = trace
        .steps
        .iter()
        .map(|&(_, cur)| cur)
        .take_while(|&cur| {
            items += g.degree(cur) as u64;
            items <= MAX_PWRS_ITEMS
        })
        .collect();
    let items: u64 = pwrs_steps.iter().map(|&v| g.degree(v) as u64).sum();
    let mut pwrs = ParallelWrs::new(seeds.engine, 16);
    let r = rates(budget, |_| {
        let ((), s) = timed(|| {
            for &cur in &pwrs_steps {
                let w = g.neighbor_weights(cur);
                std::hint::black_box(pwrs.select_index_with(w.len(), |i| w[i] << FX_FRAC_BITS));
            }
        });
        (items as f64, s)
    });
    vals.set("sampling.pwrs_ns_per_item", 1e9 / median(&r));

    // graph: fetching a row the way a walk has to — the next vertex is only
    // known once the chosen neighbour has been loaded, so each walk is
    // replayed as a chain of dependent loads (two offsets, the prefix total,
    // the neighbour taken), with the sampling left out.
    let r = rates(budget, |_| {
        let ((), s) = timed(|| {
            let mut acc = 0u64;
            let mut choices = trace.choices.iter();
            for &(start, steps) in &trace.walks {
                let mut cur = start;
                for &choice in choices.by_ref().take(steps as usize) {
                    let view = g.neighbor_view(cur);
                    let cum = g.static_prefix(cur).expect("prefix cache");
                    acc = acc.wrapping_add(cum[cum.len() - 1]);
                    cur = view.targets[choice as usize];
                }
                acc = acc.wrapping_add(cur as u64);
            }
            std::hint::black_box(acc);
        });
        (trace.choices.len() as f64, s)
    });
    vals.set("graph.ns_per_row_fetch", 1e9 / median(&r));
    let r = rates(budget, |_| {
        let ((), s) = timed(|| {
            let mut hits = 0u64;
            for &(a, c) in &trace.probes {
                hits += g.has_edge(a, c) as u64;
            }
            std::hint::black_box(hits);
        });
        (trace.probes.len() as f64, s)
    });
    vals.set("graph.has_edge_ns", 1e9 / median(&r));
    // Computed, not measured: the bytes of a step's whole row (two offsets;
    // target, weight and prefix entry per neighbour), averaged over the trace.
    let row_bytes: u64 = trace
        .steps
        .iter()
        .map(|&(_, cur)| 2 * ROW_ENTRY_BYTES + g.degree(cur) as u64 * (4 + 4 + 8))
        .sum();
    vals.set(
        "graph.bytes_per_step_computed",
        row_bytes as f64 / trace.steps.len() as f64,
    );
}

/// The rungs from `HotStepper` up to `WalkService`; returns `(attempted,
/// failed)` of the collecting rung, whose every repetition is checked.
fn session_rungs(
    vals: &mut Values,
    budget: f64,
    w: Workload,
    inputs: &Inputs,
    reference: &[(u64, u64)],
    tracer: &RefCell<Tracer>,
) -> (u64, u64) {
    let g: &Graph = &inputs.graph;
    let (app, kind, seed) = (w.app(), w.sampler(), inputs.seeds.engine);
    let set = |i: usize| &inputs.sets[i % QUERY_SETS];
    let (mut attempted, mut failed) = (0u64, 0u64);

    let mut stepper = HotStepper::new(app, kind, seed);
    stepper.reserve(g.max_degree() as usize);
    let r = rates(budget, |i| {
        let (steps, s) = timed(|| hotpath_walk(g, app, &mut stepper, set(i)));
        (steps as f64, s)
    });
    vals.set("walker.hotpath_steps_per_s", median(&r));

    let reference_engine = ReferenceEngine::new(g, app, kind, seed);
    let r = rates(budget, |i| {
        let ((steps, _), s) =
            timed(|| reference_engine.stream_into(set(i), u64::MAX, &mut CountingSink::default()));
        (steps as f64, s)
    });
    vals.set("walker.reference_steps_per_s", median(&r));

    let engine = inputs.engine(w);
    let r = rates(budget, |i| {
        let ((steps, _), s) =
            timed(|| engine.stream_into(set(i), u64::MAX, &mut CountingSink::default()));
        (steps as f64, s)
    });
    vals.set("baseline.session_steps_per_s", median(&r));

    // Quantum slices, untraced and traced turn about. The traced turn wraps
    // every `advance` and every emission in a span: the densest tracing of
    // any rung, so its slowdown bounds the tracing overhead elsewhere.
    let mut traced_jobs = 0u64;
    let mut advance_calls = 0u64;
    let r = rates_interleaved(budget, 2, |variant, i| {
        let job = i as u32;
        if variant == 0 {
            let ((steps, advances), s) =
                timed(|| run_sliced(&*engine, set(i), &mut CountingSink::default(), |f| f()));
            if i == 0 {
                advance_calls = advances;
            }
            (steps as f64, s)
        } else {
            traced_jobs += 1;
            let mut sink = TracingSink {
                tracer,
                name: "baseline.emit",
                job,
                inner: CountingSink::default(),
            };
            let ((steps, _), s) = timed(|| {
                run_sliced(&*engine, set(i), &mut sink, |f| {
                    let guard = tracer.borrow_mut().enter("baseline.advance", job);
                    f();
                    tracer.borrow_mut().exit(guard);
                })
            });
            (steps as f64, s)
        }
    });
    let (quantum, traced) = (median(&r[0]), median(&r[1]));
    vals.set("baseline.quantum_steps_per_s", quantum);
    vals.set("baseline.advance_calls", advance_calls as f64);
    let t = tracer.borrow();
    vals.set(
        "baseline.advance_self_s",
        t.total("baseline.advance").self_s() / traced_jobs as f64,
    );
    vals.set(
        "baseline.emit_s",
        t.total("baseline.emit").total_s() / traced_jobs as f64,
    );
    drop(t);
    vals.set("bench.traced_steps_per_s", traced);
    vals.set("bench.trace_overhead_share", 1.0 - traced / quantum);

    // The corpus workloads' own configuration; every repetition must
    // reproduce the validated digest.
    let r = rates(budget, |i| {
        let (results, s) = timed(|| engine.run_collected(set(i)));
        let steps = results.total_steps();
        attempted += set(i).len() as u64;
        if (digest(&results), steps) != reference[i % QUERY_SETS] {
            failed += set(i).len() as u64;
        }
        (steps as f64, s)
    });
    vals.set("baseline.collect_steps_per_s", median(&r));

    // One lane against two, turn about.
    let lanes = |threads| {
        Backend::Cpu {
            threads,
            sampler: kind,
        }
        .build(g, app, seed)
    };
    let engines = [lanes(1), lanes(2)];
    let r = rates_interleaved(budget, 2, |variant, i| {
        let ((steps, _), s) =
            timed(|| engines[variant].stream_into(set(i), u64::MAX, &mut CountingSink::default()));
        (steps as f64, s)
    });
    vals.set("baseline.lane_speedup", median(&r[1]) / median(&r[0]));

    // The scheduler: one tenant, one streaming job at a time, ticked until
    // idle. Untraced turns give the rate and the queue/exec split.
    let mut traced_jobs = 0u64;
    let mut ticks = 0u64;
    let (mut queue_ms, mut exec_ms) = (Vec::new(), Vec::new());
    let r = rates_interleaved(budget, 2, |variant, i| {
        let job = i as u32;
        let mut service = WalkService::new(vec![&*engine], ServiceConfig::default());
        let queries = set(i).clone();
        let start = Instant::now();
        let id = if variant == 0 {
            let id = service.submit_streaming(
                JobSpec::tenant(0),
                queries,
                Box::new(|_: u32, path: &[VertexId]| {
                    std::hint::black_box(path.len());
                }),
            );
            service.run_until_idle();
            id
        } else {
            traced_jobs += 1;
            let sink = TracingSink {
                tracer,
                name: "service.emit",
                job,
                inner: CountingSink::default(),
            };
            let id = service.submit_streaming(JobSpec::tenant(0), queries, Box::new(sink));
            loop {
                let guard = tracer.borrow_mut().enter("service.tick", job);
                let turn = service.tick();
                tracer.borrow_mut().exit(guard);
                if turn.job.is_none() {
                    break id;
                }
            }
        };
        let secs = start.elapsed().as_secs_f64();
        if variant == 0 {
            if i == 0 {
                ticks = service.stats().ticks;
            }
            let (queue, exec) = service.job_split_s(id).unwrap_or((0.0, 0.0));
            queue_ms.push(queue * 1e3);
            exec_ms.push(exec * 1e3);
        }
        (service.job_steps(id) as f64, secs)
    });
    vals.set("walker.service_steps_per_s", median(&r[0]));
    vals.set("walker.service_ticks", ticks as f64);
    vals.set(
        "walker.service_tick_self_s",
        tracer.borrow().total("service.tick").self_s() / traced_jobs as f64,
    );
    vals.set("walker.service_queue_wait_p50_ms", median(&queue_ms));
    vals.set("walker.service_exec_p50_ms", median(&exec_ms));
    (attempted, failed)
}

/// The socket rung and the two parsers in front of it.
fn http_rungs(
    vals: &mut Values,
    budget: f64,
    w: Workload,
    inputs: &Inputs,
    tracer: &RefCell<Tracer>,
) -> Result<(u64, u64), String> {
    let body = serve::job_body(w, inputs, 0);
    let r = rates(budget / 2.0, |_| {
        const PARSES: u32 = 1000;
        let ((), s) = timed(|| {
            for _ in 0..PARSES {
                std::hint::black_box(parse_job(std::hint::black_box(&body)).is_ok());
            }
        });
        (PARSES as f64, s)
    });
    vals.set("core.jobspec_parse_ns", 1e9 / median(&r));
    let request = serve::request_text(&body);
    let r = rates(budget / 2.0, |_| {
        const PARSES: u32 = 1000;
        let ((), s) = timed(|| {
            for _ in 0..PARSES {
                let mut bytes = std::hint::black_box(request.as_bytes());
                std::hint::black_box(read_request(&mut bytes).is_ok());
            }
        });
        (PARSES as f64, s)
    });
    vals.set("core.http_request_parse_ns", 1e9 / median(&r));

    let server = Server::start(inputs.graph.clone(), w, inputs.seeds.engine)?;
    let window = Client::connect(server.addr()).and_then(|mut client| {
        let (refs, checked) = serve::validate(w, inputs, &mut client)?;
        drop(client);
        let epoch = tracer.borrow().epoch();
        let rep = serve::drive_window(w, inputs, server.addr(), &refs, budget, Some(epoch))?;
        Ok((checked, rep))
    });
    let summary = server.stop();
    let (checked, rep) = window?;
    let summary = summary?;
    // Completed jobs only: a shed or failed one returns early and would
    // pull the latencies down.
    let done: Vec<&serve::JobOutcome> = rep
        .jobs
        .iter()
        .map(|(j, _)| j)
        .filter(|j| j.completed)
        .collect();
    if done.is_empty() {
        return Err("no job completed on the socket rung".into());
    }
    let steps: u64 = done.iter().map(|j| j.steps).sum();
    let bytes: u64 = done.iter().map(|j| j.bytes).sum();
    let col = |f: fn(&serve::JobOutcome) -> f64| sorted(done.iter().map(|j| f(j)).collect());
    vals.set("core.http_steps_per_s", steps as f64 / rep.elapsed_s);
    vals.set("core.http_bytes_per_step", bytes as f64 / steps as f64);
    vals.set(
        "core.http_first_path_p50_ms",
        quantile(&col(|j| j.first_path_s * 1e3), 0.5),
    );
    vals.set(
        "core.http_wire_overhead_p50_ms",
        quantile(&col(|j| j.latency_s * 1e3 - j.server_latency_ms), 0.5),
    );
    let latency_ms = col(|j| j.latency_s * 1e3);
    for (name, q) in [
        ("core.http_job_p50_ms", 0.5),
        ("core.http_job_p90_ms", 0.9),
        ("core.http_job_p99_ms", 0.99),
    ] {
        vals.set(name, quantile(&latency_ms, q));
    }
    vals.set("core.http_shed", summary.shed as f64);
    for t in rep.tracers {
        tracer.borrow_mut().absorb(t);
    }
    Ok((
        checked.attempted + rep.attempted,
        checked.failed + rep.failed,
    ))
}

/// Side rungs on `corpus-node2vec`'s inputs: the sharded executors against
/// a plain session, and the accelerator simulator.
fn side_rungs(vals: &mut Values, budget: f64, g: &Graph, seeds: &Seeds) {
    let side = Workload::CorpusNode2vec;
    let (app, kind) = (side.app(), side.sampler());
    let queries = QuerySet::n_queries(g, side.queries_per_job(), WALK_LENGTH, seeds.queries[0]);

    let partition =
        || ShardedEngine::partition(g, 2, ShardStrategy::Range, app, kind, seeds.engine);
    let r = rates(budget / 4.0, |_| {
        let (engine, s) = timed(partition);
        std::hint::black_box(engine.sharded().k());
        (1.0, s)
    });
    vals.set("core.sharded_partition_s", 1.0 / median(&r));

    let plain = side.backend().build(g, app, seeds.engine);
    let seq = partition().with_shard_threads(1);
    let par = partition().with_shard_threads(2);
    let engines: [&dyn WalkEngine; 3] = [&*plain, &seq, &par];
    let r = rates_interleaved(budget * 0.75, 3, |variant, _| {
        let ((steps, _), s) = timed(|| {
            engines[variant].stream_into(&queries, u64::MAX, &mut CountingSink::default())
        });
        (steps as f64, s)
    });
    let (plain_rate, seq_rate, par_rate) = (median(&r[0]), median(&r[1]), median(&r[2]));
    vals.set("core.sharded_seq_steps_per_s", seq_rate);
    vals.set("core.sharded_steps_per_s", par_rate);
    eprintln!("  (side session on the same inputs: {plain_rate} steps/s)");
    vals.set(
        "ladder.loss_session_to_sharded_seq",
        1.0 - seq_rate / plain_rate,
    );

    // Counts, read off the paths of one sequential run. A crossing is a hop
    // whose ends have different owners; it costs a hand-off when the walk
    // goes on from there, which is every crossing except the last hop of a
    // walk that used up its budget. (The engine's own hand-off count is only
    // in a diagnostics string meant for people; the two agreed when this
    // was written.)
    let mut results = WalkResults::new();
    let mut session = seq.start_session(&queries);
    while !session.finished() {
        session.advance(u64::MAX, &mut results);
    }
    let steps = session.steps_done();
    let sharded = seq.sharded();
    let (mut crossings, mut hand_offs) = (0u64, 0u64);
    for path in results.iter() {
        let hops = path.len().saturating_sub(1);
        for (i, hop) in path.windows(2).enumerate() {
            if sharded.owner_of(hop[0]) != sharded.owner_of(hop[1]) {
                crossings += 1;
                hand_offs += (i + 1 < hops || hops < WALK_LENGTH as usize) as u64;
            }
        }
    }
    vals.set(
        "core.sharded_crossing_rate",
        crossings as f64 / steps as f64,
    );
    vals.set(
        "core.sharded_handoffs_per_kstep",
        hand_offs as f64 * 1e3 / steps as f64,
    );

    // The simulator: model figures repeat exactly; only host time is noisy.
    // A slice of the query set keeps ten repetitions inside the budget.
    let sim_queries = QuerySet::n_queries(g, 1024, WALK_LENGTH, seeds.queries[0]);
    let sim = LightRwSim::new(
        g,
        app,
        LightRwConfig {
            seed: seeds.engine,
            ..LightRwConfig::default()
        },
    );
    let mut report = None;
    let r = rates(budget, |_| {
        let (rep, s) = timed(|| sim.run(&sim_queries));
        let steps = rep.steps;
        report = Some(rep);
        (steps as f64, s)
    });
    let report = report.expect("at least one repetition ran");
    let dram = report.dram_total();
    vals.set("hwsim.model_steps_per_s", report.steps_per_sec());
    vals.set("hwsim.model_cycles", report.cycles as f64);
    vals.set("hwsim.cache_hit_ratio", report.cache_total().hit_ratio());
    vals.set(
        "hwsim.latency_p50_cycles",
        report.latency_quartiles().map_or(0.0, |q| q.2 as f64),
    );
    vals.set("memsim.dram_bursts", dram.requests as f64);
    vals.set(
        "memsim.dram_bytes_per_step",
        dram.bytes as f64 / report.steps as f64,
    );
    vals.set("hwsim.host_ns_per_step", 1e9 / median(&r));
}

/// Run `opts.workload`'s inputs up the ladder and report every per-layer
/// metric.
pub fn run(opts: &RunOptions) -> Result<RunResult, String> {
    let w = opts.workload;
    let facts = HostFacts::read();
    let tracer = RefCell::new(Tracer::new(Instant::now()));
    let mut vals = Values::default();
    let budget = opts.seconds / RUNGS;
    let seeds = Seeds::derive(opts.seed);
    let scale = w.scale(opts.smoke);

    // graph: every route, timed apart. The ladder then walks the graph the
    // workload's end-to-end run walks (heap, or the mapped file).
    eprintln!("graph:");
    let (heap, heap_t) = tracer
        .borrow_mut()
        .span("graph.build_in_memory", 0, |_| build_in_memory(scale));
    let (mapped, pack_t) = tracer.borrow_mut().span("graph.pack_and_load", 0, |_| {
        pack_and_load(scale, &opts.out)
    })?;
    let rss_before = host::current_rss_mb().unwrap_or(0.0);
    let (_, touch_s) = tracer.borrow_mut().span("graph.first_touch", 0, |_| {
        timed(|| std::hint::black_box(first_touch(&mapped)))
    });
    let rss_after = host::current_rss_mb().unwrap_or(0.0);
    vals.set("graph.gen_s", heap_t.gen_s);
    vals.set("graph.build_s", heap_t.build_s);
    vals.set("graph.pack_s", pack_t.pack_s);
    vals.set("graph.load_s", pack_t.load_s);
    vals.set("graph.first_touch_s", touch_s);
    vals.set("graph.file_mb", pack_t.file_bytes as f64 / 1e6);
    vals.set("graph.resident_mb", (rss_after - rss_before).max(0.0));
    eprintln!(
        "{}",
        facts.describe_bytes("packed graph", pack_t.file_bytes)
    );
    let graph = Arc::new(if w.packed() { mapped } else { heap });
    let sets: Vec<QuerySet> = seeds
        .queries
        .iter()
        .map(|&qs| QuerySet::n_queries(&graph, w.queries_per_job(), WALK_LENGTH, qs))
        .collect();
    let inputs = Inputs {
        graph,
        sets,
        seeds,
        timings: pack_t,
    };

    // Validate every query set on the workload's own engine; set 0's walks
    // become the step trace the kernel rungs replay.
    let engine = inputs.engine(w);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut steps, mut short) = (0u64, 0u64);
    let mut reference = Vec::new();
    let mut trace = None;
    for queries in &inputs.sets {
        let mut sink = RecordingSink::new();
        engine.stream_into(queries, u64::MAX, &mut sink);
        let report = check_records(&inputs.graph, queries, sink.records());
        attempted += report.attempted;
        failed += report.failed;
        steps += sink.paths.total_steps();
        short += sink
            .paths
            .iter()
            .filter(|p| p.len() <= WALK_LENGTH as usize)
            .count() as u64;
        reference.push((digest(&sink.paths), sink.paths.total_steps()));
        if report.failed == 0 {
            trace.get_or_insert_with(|| StepTrace::from_results(&inputs.graph, &sink.paths));
        }
    }
    drop(engine);
    let trace = trace.ok_or("no query set passed the checker; nothing to replay")?;
    let queries_total = (inputs.sets.len() * w.queries_per_job()) as f64;
    eprintln!("walker:");
    vals.set("walker.steps_per_query", steps as f64 / queries_total);
    vals.set("walker.dead_end_share", short as f64 / queries_total);

    let canary_before = host::canary_ns_per_iter();
    eprintln!("kernels:");
    kernel_rungs(&mut vals, budget, &inputs.graph, &inputs.seeds, &trace);
    eprintln!("sessions:");
    let (a, f) = session_rungs(&mut vals, budget, w, &inputs, &reference, &tracer);
    attempted += a;
    failed += f;
    eprintln!("socket:");
    let (a, f) = http_rungs(&mut vals, budget, w, &inputs, &tracer)?;
    attempted += a;
    failed += f;
    eprintln!("side rungs:");
    if w.packed() {
        let (small, _) = build_in_memory(Workload::CorpusNode2vec.scale(opts.smoke));
        side_rungs(&mut vals, budget, &small, &seeds);
    } else {
        side_rungs(&mut vals, budget, &inputs.graph, &seeds);
    }
    let canary_after = host::canary_ns_per_iter();
    vals.set(
        "bench.canary_ns_per_iter",
        (canary_before + canary_after) / 2.0,
    );

    // The ladder: 1 - upper rung / lower rung, with both bases.
    eprintln!("ladder:");
    let kernel = match w.sampler() {
        SamplerKind::Rejection => "sampling.rejection_ns_per_select",
        _ => "sampling.inverse_ns_per_select",
    };
    let rate = |vals: &Values, name: &str| {
        let v = vals.get(name).expect("rung was measured");
        if name.ends_with("_ns_per_select") {
            1e9 / v
        } else {
            v
        }
    };
    let mut bases = Vec::new();
    for (loss, lower, upper) in [
        (
            "ladder.loss_kernel_to_hotpath",
            kernel,
            "walker.hotpath_steps_per_s",
        ),
        (
            "ladder.loss_hotpath_to_session",
            "walker.hotpath_steps_per_s",
            "baseline.session_steps_per_s",
        ),
        (
            "ladder.loss_session_to_quantum",
            "baseline.session_steps_per_s",
            "baseline.quantum_steps_per_s",
        ),
        (
            "ladder.loss_quantum_to_collect",
            "baseline.quantum_steps_per_s",
            "baseline.collect_steps_per_s",
        ),
        (
            "ladder.loss_collect_to_service",
            "baseline.collect_steps_per_s",
            "walker.service_steps_per_s",
        ),
        (
            "ladder.loss_service_to_http",
            "walker.service_steps_per_s",
            "core.http_steps_per_s",
        ),
    ] {
        let (lo, up) = (rate(&vals, lower), rate(&vals, upper));
        eprintln!("  {loss}: upper {upper} = {up} steps/s, lower {lower} = {lo} steps/s");
        vals.set(loss, 1.0 - up / lo);
        bases.push((
            loss,
            obj(vec![
                ("lower", Value::Str(lower.into())),
                ("lower_steps_per_s", Value::Num(lo)),
                ("upper", Value::Str(upper.into())),
                ("upper_steps_per_s", Value::Num(up)),
            ]),
        ));
    }

    let tracer = tracer.into_inner();
    vals.set("bench.spans_recorded", tracer.recorded() as f64);
    std::fs::create_dir_all(&opts.out)
        .map_err(|e| format!("cannot create {}: {e}", opts.out.display()))?;
    let spans = opts.out.join("spans.tsv");
    std::fs::File::create(&spans)
        .map(std::io::BufWriter::new)
        .and_then(|mut f| {
            tracer.write_tsv(&mut f)?;
            std::io::Write::flush(&mut f)
        })
        .map_err(|e| format!("cannot write {}: {e}", spans.display()))?;

    let metrics = PER_LAYER
        .into_iter()
        .map(|m| {
            vals.get(m.name)
                .map(|v| (m, v))
                .ok_or_else(|| format!("metric {} was not measured", m.name))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(RunResult {
        attempted,
        failed,
        metrics,
        reported: Vec::new(),
        detail: obj(vec![
            ("workload", Value::Str(w.name().into())),
            ("seed", Value::Num(opts.seed as f64)),
            ("seconds", Value::Num(opts.seconds)),
            ("smoke", Value::Bool(opts.smoke)),
            ("host", facts.to_json()),
            ("graph_mapped", Value::Bool(inputs.timings.mapped)),
            ("canary_before_ns", Value::Num(canary_before)),
            ("canary_after_ns", Value::Num(canary_after)),
            ("ladder_bases", obj(bases)),
        ]),
    })
}
