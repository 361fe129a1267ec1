//! The engine-agnostic streaming execution layer: sessions and sinks.
//!
//! The paper's Query Controller keeps many walks in flight and emits
//! finished paths incrementally; this module is the host-side mirror of
//! that contract (DESIGN.md §6). A [`WalkEngine`] turns a [`QuerySet`]
//! into a [`WalkSession`]; the session executes in bounded batches
//! ([`WalkSession::advance`]) and pushes each completed path **exactly
//! once** into a [`WalkSink`], in query-id order. [`WalkResults`] is just
//! the default collecting sink — downstream consumers (SGNS training,
//! serving layers, the CLI) can process paths as they finish instead of
//! waiting for a fully materialized result set.
//!
//! All three engines implement the trait: the sequential
//! [`crate::ReferenceEngine`] and the ThunderRW-like [`CpuEngine`] (both
//! here, both a [`LaneSession`]) and the accelerator model
//! (`lightrw-hwsim`).
//! Batching never changes a sampled walk: on the software engines every
//! walker owns its RNG stream (DESIGN.md §5), and the accelerator model
//! replays its event order exactly, whatever `max_steps` schedule drives
//! the session (`tests/engine_agreement.rs` pins both).
//!
//! ```
//! use lightrw_graph::GraphBuilder;
//! use lightrw_walker::engine::{WalkEngine, WalkEngineExt};
//! use lightrw_walker::{QuerySet, ReferenceEngine, SamplerKind, Uniform, WalkResults};
//!
//! let g = GraphBuilder::directed()
//!     .num_vertices(3)
//!     .edges(vec![(0, 1), (1, 2), (2, 0)])
//!     .build();
//! let engine = ReferenceEngine::new(&g, &Uniform, SamplerKind::InverseTransform, 1);
//! let queries = QuerySet::from_starts(vec![0, 1], 4);
//!
//! // Streaming: advance in 3-step batches, collecting into the default sink.
//! let mut results = WalkResults::new();
//! let mut session = engine.start_session(&queries);
//! while !session.finished() {
//!     let batch = session.advance(3, &mut results);
//!     assert!(batch.steps <= 3);
//! }
//! assert_eq!(results, engine.run(&queries)); // batching is invisible
//! ```

use std::time::{Duration, Instant};

use crate::app::WalkApp;
use crate::lane::LaneSession;
use crate::path::WalkResults;
use crate::query::QuerySet;
use crate::reference::{ReferenceEngine, SamplerKind};
use lightrw_graph::{Graph, VertexId};

/// A consumer of completed walk paths.
///
/// Sessions call [`WalkSink::emit`] once per finished path, in ascending
/// `query_id` order (ids are dense, starting at 0 within a session's
/// [`QuerySet`]). A path is final when emitted: it either reached its
/// requested length or dead-ended early (see
/// [`crate::query::Query::length`]), or the session was cancelled with the
/// walk still in flight.
pub trait WalkSink {
    /// Receive the completed path of query `query_id`.
    fn emit(&mut self, query_id: u32, path: &[VertexId]);
}

/// [`WalkResults`] is the default collecting sink: paths are appended in
/// emission order, which sessions guarantee is query-id order, so
/// `results.path(id)` indexing stays correct.
impl WalkSink for WalkResults {
    fn emit(&mut self, _query_id: u32, path: &[VertexId]) {
        self.push_path(path);
    }
}

/// Any `FnMut(u32, &[VertexId])` closure is a sink.
impl<F: FnMut(u32, &[VertexId])> WalkSink for F {
    fn emit(&mut self, query_id: u32, path: &[VertexId]) {
        self(query_id, path)
    }
}

/// A sink that counts without storing — used to verify the
/// one-emission-per-path guarantee and to size downstream buffers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountingSink {
    /// Paths emitted.
    pub paths: usize,
    /// Steps across emitted paths (vertices minus one per path).
    pub steps: u64,
    /// Result bytes the emitted paths would occupy (the PCIe download
    /// accounting of `WalkResults::result_bytes`).
    pub bytes: u64,
}

impl WalkSink for CountingSink {
    fn emit(&mut self, _query_id: u32, path: &[VertexId]) {
        self.paths += 1;
        // Saturate rather than trust every emitter: in-repo sessions
        // always emit the start vertex, but the trait is a public seam.
        self.steps += (path.len() as u64).saturating_sub(1);
        self.bytes += std::mem::size_of_val(path) as u64;
    }
}

/// Progress of one [`WalkSession::advance`] or [`WalkSession::cancel`]
/// call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchProgress {
    /// Walk steps executed by this batch (successful samples; dead-end
    /// probes consume a visit but no step).
    pub steps: u64,
    /// Paths completed and emitted by this batch.
    pub paths_completed: usize,
    /// True when the session has emitted every path.
    pub finished: bool,
}

/// An in-flight execution of one [`QuerySet`] on one engine.
///
/// The batching contract (DESIGN.md §6):
///
/// - [`WalkSession::advance`] executes at most `max_steps` step attempts
///   *per internal worker lane* (the reference engine has one lane; the
///   CPU engine one per worker thread; the accelerator model counts
///   event-heap pops), then returns. `max_steps = 0` is clamped to 1 so
///   every call makes progress.
/// - Each completed path is emitted into the sink **exactly once**, in
///   query-id order; a path completed out of order is buffered until its
///   predecessors finish.
/// - [`WalkSession::cancel`] finalizes every unfinished walk at its
///   current position and emits it, preserving the one-emission
///   guarantee; the session is finished afterwards. This holds for the
///   **empty batch** too: cancelling before the first `advance` emits one
///   start-vertex-only path per query, with zero steps and (for modelled
///   engines) zero model time — identically on every backend
///   (`tests/engine_agreement.rs` pins the cross-engine equality).
/// - Batch boundaries never change sampled walks: every `max_steps`
///   schedule yields the paths of the engine's monolithic `run`. *Which*
///   walkers a partial budget reaches is not part of the contract.
pub trait WalkSession {
    /// Execute up to `max_steps` step attempts per worker lane, emitting
    /// completed paths into `sink`.
    fn advance(&mut self, max_steps: u64, sink: &mut dyn WalkSink) -> BatchProgress;

    /// Terminate every in-flight walk where it stands and emit the
    /// partial paths (each still exactly once). Finished and idempotent
    /// afterwards.
    fn cancel(&mut self, sink: &mut dyn WalkSink) -> BatchProgress;

    /// True once every path has been emitted (by completion or
    /// cancellation).
    fn finished(&self) -> bool;

    /// Cumulative steps executed so far.
    fn steps_done(&self) -> u64;

    /// Cumulative paths emitted so far.
    fn paths_completed(&self) -> usize;

    /// Simulated seconds consumed so far, for engines with a timing model
    /// (the accelerator simulator); `None` for wall-clock engines.
    fn model_seconds(&self) -> Option<f64> {
        None
    }

    /// A short engine-specific diagnostic for operators (e.g. the sim's
    /// row-cache hit ratio, the CPU engine's worker count); `None` when
    /// the backend has nothing beyond the generic progress counters.
    fn diagnostics(&self) -> Option<String> {
        None
    }
}

/// An engine that executes walk queries in batched streaming sessions.
///
/// Object-safe on purpose: consumers (`lightrw_cli`, the cluster layer,
/// SGNS training) dispatch over `&dyn WalkEngine` and never know which
/// backend runs the walks.
pub trait WalkEngine {
    /// Engine label for reports and CLI output.
    fn label(&self) -> String;

    /// Begin executing `queries`. Sessions are independent: two sessions
    /// of one engine may interleave arbitrarily (all mutable walk state
    /// is per-session).
    fn start_session<'s>(&'s self, queries: &QuerySet) -> Box<dyn WalkSession + 's>;

    /// How many graph images this engine's host pushes over one PCIe
    /// link when deployed on a board — 1 for software engines; the
    /// multi-instance accelerator keeps one replica per DRAM channel
    /// (paper §6.1.5). Used by the cluster layer's upload model.
    fn graph_images(&self) -> u64 {
        1
    }
}

/// Convenience drivers over any [`WalkEngine`] (blanket-implemented, also
/// for `dyn WalkEngine`).
pub trait WalkEngineExt: WalkEngine {
    /// Run `queries` to completion, collecting paths in query-id order.
    fn run_collected(&self, queries: &QuerySet) -> WalkResults {
        // Offsets are exact; vertices grow with what the walks produce.
        // Reserving every query's full length holds pages that dead-ended
        // walks never write (half of the reservation on the directed R-MAT
        // graphs), and whether those are resident depends on what the
        // allocator last used them for: 0.65 MB of a 7 MB process, run to
        // run, with nothing else different.
        let mut results = WalkResults::with_capacity(queries.len(), 0);
        self.stream_into(queries, u64::MAX, &mut results);
        results
    }

    /// Run `queries` to completion in `max_steps` batches, emitting into
    /// `sink`; returns (total steps, simulated seconds if modelled).
    fn stream_into(
        &self,
        queries: &QuerySet,
        max_steps: u64,
        sink: &mut dyn WalkSink,
    ) -> (u64, Option<f64>) {
        let mut session = self.start_session(queries);
        while !session.finished() {
            session.advance(max_steps, sink);
        }
        (session.steps_done(), session.model_seconds())
    }
}

impl<E: WalkEngine + ?Sized> WalkEngineExt for E {}

/// Drive a set of sessions as interleaved bounded batches — the
/// multi-tenant multiplexing loop shared by the cluster layer and the
/// CLI driver. Each turn gives every unfinished session one
/// `advance(max_steps)` into its paired sink;
/// `observe(index, elapsed_seconds, progress)` runs after each advance
/// so callers can account per-session wall clock and batch counts.
/// Returns once every session is finished.
pub fn multiplex_sessions<'s>(
    sessions: &mut [Box<dyn WalkSession + 's>],
    sinks: &mut [&mut dyn WalkSink],
    max_steps: u64,
    mut observe: impl FnMut(usize, f64, BatchProgress),
) {
    assert_eq!(sessions.len(), sinks.len(), "one sink per session required");
    loop {
        let mut any = false;
        for (idx, (session, sink)) in sessions.iter_mut().zip(sinks.iter_mut()).enumerate() {
            if session.finished() {
                continue;
            }
            any = true;
            let t = std::time::Instant::now();
            let progress = session.advance(max_steps, &mut **sink);
            observe(idx, t.elapsed().as_secs_f64(), progress);
        }
        if !any {
            break;
        }
    }
}

/// Exactly-once, id-ordered emission bookkeeping for sessions whose
/// walkers finish out of order (interleaved worker lanes, event heaps).
///
/// The emitter owns only the watermark: the next query id to emit. Each
/// [`InOrderEmitter::drain`] call repeatedly asks the session for the path
/// of that id (`take_ready` returns `None` while it is still walking and
/// the finished path once it is done — handed over, or lent from where
/// the walker wrote it) and pushes it into the sink. The emitter asks for
/// an id once it has emitted every id below it and never again after, so
/// a session cannot emit a path twice. Because the watermark only moves forward,
/// any interleaving of lane progress, batch boundaries and cancellation
/// yields each path exactly once, in ascending id order — the
/// [`WalkSink`] contract (DESIGN.md §6).
#[derive(Debug, Clone, Copy)]
pub struct InOrderEmitter {
    next: usize,
    total: usize,
}

impl InOrderEmitter {
    /// An emitter over query ids `0..total`.
    pub fn new(total: usize) -> Self {
        Self { next: 0, total }
    }

    /// Paths emitted so far (the watermark).
    pub fn emitted(&self) -> usize {
        self.next
    }

    /// True once every path has been emitted.
    pub fn finished(&self) -> bool {
        self.next >= self.total
    }

    /// Emit every ready path at the watermark: while `take_ready(id)`
    /// yields the finished path of the next id, hand it to `sink` and
    /// advance. Returns how many paths were emitted by this call.
    pub fn drain<P: std::ops::Deref<Target = [VertexId]>>(
        &mut self,
        sink: &mut dyn WalkSink,
        mut take_ready: impl FnMut(usize) -> Option<P>,
    ) -> usize {
        let mut emitted = 0;
        while self.next < self.total {
            let Some(path) = take_ready(self.next) else {
                break;
            };
            sink.emit(self.next as u32, &path);
            self.next += 1;
            emitted += 1;
        }
        emitted
    }
}

/// The reference engine's streaming form: one [`LaneSession`] lane over
/// the whole query set, sampling exactly the walks of
/// [`ReferenceEngine::run`].
impl WalkEngine for ReferenceEngine<'_> {
    fn label(&self) -> String {
        format!("reference({})", self.sampler().name())
    }

    fn start_session<'s>(&'s self, queries: &QuerySet) -> Box<dyn WalkSession + 's> {
        Box::new(LaneSession::new(
            self.graph(),
            self.app(),
            self.sampler(),
            self.seed(),
            queries,
            1,
        ))
    }
}

/// [`CpuEngine`] configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BaselineConfig {
    /// Worker threads; 0 = one per available core (the paper's 16-core
    /// Xeon runs ThunderRW with one thread per core).
    pub threads: usize,
    /// Per-step weighted sampling method. The paper configures ThunderRW
    /// with inverse transformation sampling (§6.1.4).
    pub sampler: SamplerKind,
    /// Engine RNG seed (each query derives its own stream from it).
    pub seed: u64,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        Self {
            threads: 0,
            sampler: SamplerKind::InverseTransform,
            seed: 0xC0FFEE,
        }
    }
}

impl BaselineConfig {
    /// The Fig. 14 "ThunderRW w/PWRS" variant: the paper's parallel WRS
    /// algorithm executed on the CPU (k lanes emulated sequentially).
    pub fn with_pwrs(k: usize) -> Self {
        Self {
            sampler: SamplerKind::ParallelWrs { k },
            ..Self::default()
        }
    }
}

/// Measured outcome of a [`CpuEngine::run`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaselineRunStats {
    /// Steps actually executed.
    pub steps: u64,
    /// Wall-clock execution time (excludes workload construction).
    pub elapsed: Duration,
}

impl BaselineRunStats {
    /// Steps per second of wall-clock time.
    pub fn steps_per_sec(&self) -> f64 {
        let s = self.elapsed.as_secs_f64();
        if s == 0.0 {
            0.0
        } else {
            self.steps as f64 / s
        }
    }
}

/// The ThunderRW-like CPU engine, the paper's comparator (Sun et al.,
/// VLDB 2021): a [`LaneSession`] over `threads` lanes.
///
/// It keeps the properties the comparison depends on. Each worker owns a
/// lane and advances a bounded window of its queries round-robin, one
/// step attempt per visit — ThunderRW's step-centric interleaving
/// (DESIGN.md §9) — on a core it pins itself to, best effort.
/// ThunderRW's software prefetch between the stages is not here: no form
/// of it won its paired runs (DESIGN.md §9). The sampler is a flag:
/// inverse transformation is the paper's configuration, and sequential
/// WRS, the parallel WRS of Fig. 14's "ThunderRW w/PWRS" bars and
/// KnightKing-style rejection are the others. Dynamic apps pay
/// Algorithm 2.1 exactly — stream the weights, build the sampler's
/// O(|N(v)|) table, draw — while static-profile apps take the same prefix fast paths as every other
/// engine, with bit-identical walks (DESIGN.md §5), so the comparison
/// floor is fair. Sessions are re-entrant: all mutable walk state lives
/// in the session, and its paths equal [`CpuEngine::run`]'s for every
/// batch schedule.
pub struct CpuEngine<'g> {
    graph: &'g Graph,
    app: &'g dyn WalkApp,
    cfg: BaselineConfig,
}

impl<'g> CpuEngine<'g> {
    /// Create an engine for `app` on `graph`.
    pub fn new(graph: &'g Graph, app: &'g dyn WalkApp, cfg: BaselineConfig) -> Self {
        Self { graph, app, cfg }
    }

    /// Start a batched streaming session (concrete type; the
    /// [`WalkEngine`] impl boxes the same thing).
    pub fn session(&self, queries: &QuerySet) -> LaneSession<'g> {
        let cfg = self.cfg;
        LaneSession::new(
            self.graph,
            self.app,
            cfg.sampler,
            cfg.seed,
            queries,
            cfg.threads,
        )
    }

    /// Execute all queries; returns paths in query order plus timing. One
    /// session driven to completion in full-budget batches, so worker
    /// threads are spawned once per round of the session.
    pub fn run(&self, queries: &QuerySet) -> (WalkResults, BaselineRunStats) {
        let start = Instant::now();
        let mut session = self.session(queries);
        let mut results = WalkResults::with_capacity(queries.len(), 8);
        while !session.finished() {
            session.advance(u64::MAX, &mut results);
        }
        let stats = BaselineRunStats {
            steps: session.steps_done(),
            elapsed: start.elapsed(),
        };
        (results, stats)
    }
}

impl WalkEngine for CpuEngine<'_> {
    fn label(&self) -> String {
        format!("cpu({})", self.cfg.sampler.name())
    }

    fn start_session<'s>(&'s self, queries: &QuerySet) -> Box<dyn WalkSession + 's> {
        Box::new(self.session(queries))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{MetaPath, Node2Vec, StaticWeighted, StepContext, Uniform, WalkApp, FX_ONE};
    use crate::path::validate_path;
    use crate::reference::SamplerKind;
    use lightrw_graph::{generators, GraphBuilder};
    use lightrw_rng::stats::{chi_square_counts, chi_square_crit_999};
    use lightrw_rng::{Rng, SplitMix64};

    const KINDS: [SamplerKind; 4] = [
        SamplerKind::InverseTransform,
        SamplerKind::SequentialWrs,
        SamplerKind::ParallelWrs { k: 4 },
        SamplerKind::ParallelWrs { k: 16 },
    ];

    #[test]
    fn randomized_batches_match_monolithic_run_for_all_apps_and_kinds() {
        let g = generators::rmat_dataset(8, 17);
        let mp = MetaPath::new(vec![0, 1, 0]);
        let nv = Node2Vec::paper_params();
        let apps: [&dyn WalkApp; 4] = [&Uniform, &StaticWeighted, &mp, &nv];
        let qs = QuerySet::per_nonisolated_vertex(&g, 7, 3);
        let mut batch_rng = SplitMix64::new(99);
        for app in apps {
            for kind in KINDS {
                let engine = ReferenceEngine::new(&g, app, kind, 11);
                let whole = engine.run(&qs);
                let mut batched = WalkResults::new();
                let mut session = engine.start_session(&qs);
                while !session.finished() {
                    session.advance(1 + batch_rng.gen_range(13), &mut batched);
                }
                assert_eq!(whole, batched, "{} {:?}", app.name(), kind);
            }
        }
    }

    #[test]
    fn run_collected_equals_run() {
        let g = generators::rmat_dataset(7, 5);
        let qs = QuerySet::per_nonisolated_vertex(&g, 5, 2);
        let engine = ReferenceEngine::new(&g, &Uniform, SamplerKind::SequentialWrs, 4);
        assert_eq!(engine.run(&qs), engine.run_collected(&qs));
        // Through the object too.
        let dynamic: &dyn WalkEngine = &engine;
        assert_eq!(engine.run(&qs), dynamic.run_collected(&qs));
        assert!(dynamic.label().starts_with("reference("));
    }

    #[test]
    fn each_path_emitted_exactly_once_in_id_order() {
        let g = generators::rmat_dataset(7, 9);
        let qs = QuerySet::per_nonisolated_vertex(&g, 4, 6);
        let engine = ReferenceEngine::new(&g, &StaticWeighted, SamplerKind::InverseTransform, 2);
        let mut session = engine.start_session(&qs);
        let mut seen = Vec::new();
        let mut sink = |id: u32, _path: &[VertexId]| seen.push(id);
        while !session.finished() {
            session.advance(5, &mut sink);
        }
        let expect: Vec<u32> = (0..qs.len() as u32).collect();
        assert_eq!(seen, expect);
        assert_eq!(session.paths_completed(), qs.len());
    }

    #[test]
    fn counting_sink_matches_results_accounting() {
        let g = generators::rmat_dataset(7, 4);
        let qs = QuerySet::per_nonisolated_vertex(&g, 6, 1);
        let engine = ReferenceEngine::new(&g, &Uniform, SamplerKind::SequentialWrs, 8);
        let results = engine.run_collected(&qs);
        let mut counter = CountingSink::default();
        engine.stream_into(&qs, 16, &mut counter);
        assert_eq!(counter.paths, results.len());
        assert_eq!(counter.steps, results.total_steps());
        assert_eq!(counter.bytes, results.result_bytes());
    }

    #[test]
    fn cancel_emits_partial_paths_once_and_finishes() {
        // 3-cycle: walks never dead-end, so cancellation is the only way
        // to stop early.
        let g = GraphBuilder::directed()
            .num_vertices(3)
            .edges(vec![(0, 1), (1, 2), (2, 0)])
            .build();
        let qs = QuerySet::from_starts(vec![0, 1, 2], 50);
        let engine = ReferenceEngine::new(&g, &Uniform, SamplerKind::InverseTransform, 1);
        let mut session = engine.start_session(&qs);
        let mut results = WalkResults::new();
        let batch = session.advance(10, &mut results);
        assert_eq!(batch.steps, 10);
        assert!(!session.finished());
        let progress = session.cancel(&mut results);
        assert!(progress.finished);
        assert!(session.finished());
        assert_eq!(results.len(), 3, "every query emitted exactly once");
        // Which walkers the 10 steps went to is the session's business;
        // that none is lost and every partial path is a walk is not.
        assert_eq!(results.total_steps(), 10, "partial paths kept their steps");
        for (q, p) in qs.queries().iter().zip(results.iter()) {
            assert_eq!(p[0], q.start);
            assert!(p.windows(2).all(|w| g.has_edge(w[0], w[1])));
        }
        // Idempotent: cancelling again emits nothing.
        let again = session.cancel(&mut results);
        assert_eq!(again.paths_completed, 0);
        assert_eq!(results.len(), 3);
    }

    #[test]
    fn cancel_before_first_advance_emits_start_only_paths() {
        // Empty-batch cancel (DESIGN.md §6): nothing has stepped, so the
        // partial flush is one start-vertex path per query, exactly once.
        let g = generators::rmat_dataset(7, 6);
        let qs = QuerySet::per_nonisolated_vertex(&g, 12, 5);
        let engine = ReferenceEngine::new(&g, &Uniform, SamplerKind::InverseTransform, 8);
        let mut session = engine.start_session(&qs);
        let mut results = WalkResults::new();
        let progress = session.cancel(&mut results);
        assert!(progress.finished);
        assert_eq!(progress.steps, 0);
        assert_eq!(progress.paths_completed, qs.len());
        assert_eq!(results.len(), qs.len());
        for (q, p) in qs.queries().iter().zip(results.iter()) {
            assert_eq!(p, &[q.start]);
        }
        assert_eq!(session.steps_done(), 0);
    }

    #[test]
    fn sessions_are_reentrant_on_one_engine() {
        let g = generators::rmat_dataset(7, 8);
        let qs = QuerySet::per_nonisolated_vertex(&g, 5, 4);
        let engine = ReferenceEngine::new(&g, &Uniform, SamplerKind::InverseTransform, 3);
        let mut a = WalkResults::new();
        let mut b = WalkResults::new();
        let mut sa = engine.start_session(&qs);
        let mut sb = engine.start_session(&qs);
        // Interleave the two sessions; both must match the monolithic run.
        while !sa.finished() || !sb.finished() {
            sa.advance(3, &mut a);
            sb.advance(7, &mut b);
        }
        let whole = engine.run(&qs);
        assert_eq!(a, whole);
        assert_eq!(b, whole);
    }

    #[test]
    fn zero_max_steps_still_progresses() {
        let g = GraphBuilder::directed().edge(0, 1).build();
        let qs = QuerySet::from_starts(vec![0], 1);
        let engine = ReferenceEngine::new(&g, &Uniform, SamplerKind::InverseTransform, 1);
        let mut session = engine.start_session(&qs);
        let mut results = WalkResults::new();
        let progress = session.advance(0, &mut results);
        assert_eq!(progress.steps, 1, "max_steps=0 clamps to one attempt");
        assert!(progress.finished);
    }

    fn one_thread() -> BaselineConfig {
        BaselineConfig {
            threads: 1,
            ..Default::default()
        }
    }

    #[test]
    fn produces_valid_paths_single_thread() {
        let g = generators::rmat_dataset(9, 1);
        let qs = QuerySet::per_nonisolated_vertex(&g, 8, 2);
        let (results, stats) = CpuEngine::new(&g, &Uniform, one_thread()).run(&qs);
        assert_eq!(results.len(), qs.len());
        assert_eq!(stats.steps, results.total_steps());
        for p in results.iter() {
            validate_path(&g, &Uniform, p).unwrap();
        }
    }

    #[test]
    fn produces_valid_paths_multi_thread() {
        let g = generators::rmat_dataset(9, 2);
        let nv = Node2Vec::paper_params();
        let qs = QuerySet::per_nonisolated_vertex(&g, 10, 3);
        let cfg = BaselineConfig {
            threads: 4,
            ..Default::default()
        };
        let (results, _) = CpuEngine::new(&g, &nv, cfg).run(&qs);
        assert_eq!(results.len(), qs.len());
        for p in results.iter() {
            validate_path(&g, &nv, p).unwrap();
        }
    }

    #[test]
    fn results_keep_query_order_across_threads() {
        let g = generators::rmat_dataset(8, 3);
        let qs = QuerySet::per_nonisolated_vertex(&g, 4, 5);
        let cfg = BaselineConfig {
            threads: 3,
            ..Default::default()
        };
        let (results, _) = CpuEngine::new(&g, &Uniform, cfg).run(&qs);
        for (i, q) in qs.queries().iter().enumerate() {
            assert_eq!(results.path(i)[0], q.start, "query {i} misplaced");
        }
    }

    #[test]
    fn spawn_gate_keeps_small_batches_inline_without_changing_walks() {
        let g = generators::rmat_dataset(8, 7);
        // Well under MIN_STEPS_PER_LANE per lane: the threaded config
        // must take the inline path (no workers pinned).
        let qs = QuerySet::per_nonisolated_vertex(&g, 6, 11);
        let threaded = BaselineConfig {
            threads: 2,
            ..Default::default()
        };
        let engine = CpuEngine::new(&g, &Uniform, threaded);
        let mut session = engine.session(&qs);
        let mut results = WalkResults::with_capacity(qs.len(), 8);
        while !session.finished() {
            session.advance(u64::MAX, &mut results);
        }
        assert_eq!(
            session.diagnostics().unwrap(),
            "2 worker lanes, 0 pinned",
            "small batch should not reach the spawn path"
        );
        // Lanes are scheduling only: the single-lane run samples the
        // same walks.
        let (single, _) = CpuEngine::new(&g, &Uniform, one_thread()).run(&qs);
        assert_eq!(results, single);
    }

    #[test]
    fn metapath_paths_respect_relations() {
        let g = generators::rmat_dataset(8, 4);
        let mp = MetaPath::new(vec![0, 1, 2, 3, 0]);
        let qs = QuerySet::per_nonisolated_vertex(&g, 5, 7);
        let (results, _) = CpuEngine::new(&g, &mp, one_thread()).run(&qs);
        for p in results.iter() {
            validate_path(&g, &mp, p).unwrap();
        }
    }

    #[test]
    fn pwrs_variant_samples_correctly() {
        // One vertex with weighted out-edges; Fig. 14's ThunderRW w/PWRS
        // must still sample the right distribution.
        let g = GraphBuilder::directed()
            .weighted_edges([(0, 1, 1), (0, 2, 2), (0, 3, 3)])
            .num_vertices(4)
            .build();
        let qs = QuerySet::from_starts(vec![0; 30_000], 1);
        let cfg = BaselineConfig {
            threads: 1,
            ..BaselineConfig::with_pwrs(8)
        };
        let (results, _) = CpuEngine::new(&g, &StaticWeighted, cfg).run(&qs);
        let mut counts = [0u64; 3];
        for p in results.iter() {
            counts[(p[1] - 1) as usize] += 1;
        }
        let chi2 = chi_square_counts(&counts, &[1.0, 2.0, 3.0]);
        assert!(chi2 < chi_square_crit_999(2) * 1.2, "chi2 {chi2}");
    }

    #[test]
    fn dead_ends_shorten_paths() {
        let g = GraphBuilder::directed().edges([(0, 1)]).build();
        let qs = QuerySet::from_starts(vec![0], 50);
        let (results, stats) = CpuEngine::new(&g, &Uniform, one_thread()).run(&qs);
        assert_eq!(results.path(0), &[0, 1]);
        assert_eq!(stats.steps, 1);
    }

    #[test]
    fn deterministic_per_seed_single_thread() {
        let g = generators::rmat_dataset(8, 5);
        let qs = QuerySet::per_nonisolated_vertex(&g, 6, 1);
        let run = |seed| {
            let cfg = BaselineConfig {
                threads: 1,
                seed,
                ..Default::default()
            };
            CpuEngine::new(&g, &Uniform, cfg).run(&qs).0
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn stats_report_throughput() {
        let g = generators::rmat_dataset(8, 6);
        let qs = QuerySet::per_nonisolated_vertex(&g, 5, 2);
        let (_, stats) = CpuEngine::new(&g, &Uniform, one_thread()).run(&qs);
        assert!(stats.steps > 0);
        assert!(stats.steps_per_sec() > 0.0);
    }

    #[test]
    fn batched_sessions_are_bit_identical_to_run() {
        // The session contract: any max_steps schedule reproduces the
        // monolithic run exactly, across thread counts and apps.
        let g = generators::rmat_dataset(8, 7);
        let nv = Node2Vec::paper_params();
        let apps: [&dyn WalkApp; 2] = [&Uniform, &nv];
        let mut batch_rng = SplitMix64::new(123);
        for app in apps {
            for threads in [1usize, 3, 8] {
                let cfg = BaselineConfig {
                    threads,
                    ..Default::default()
                };
                let engine = CpuEngine::new(&g, app, cfg);
                let qs = QuerySet::per_nonisolated_vertex(&g, 9, 2);
                let (whole, stats) = engine.run(&qs);
                let mut batched = WalkResults::new();
                let mut session = engine.session(&qs);
                while !session.finished() {
                    session.advance(1 + batch_rng.gen_range(17), &mut batched);
                }
                assert_eq!(whole, batched, "{} threads={threads}", app.name());
                assert_eq!(stats.steps, session.steps_done());
            }
        }
    }

    #[test]
    fn sessions_interleave_on_one_engine() {
        let g = generators::rmat_dataset(8, 9);
        let qs = QuerySet::per_nonisolated_vertex(&g, 6, 3);
        let cfg = BaselineConfig {
            threads: 2,
            ..Default::default()
        };
        let engine = CpuEngine::new(&g, &Uniform, cfg);
        let (whole, _) = engine.run(&qs);
        let mut a = WalkResults::new();
        let mut b = WalkResults::new();
        let mut sa = engine.session(&qs);
        let mut sb = engine.session(&qs);
        while !sa.finished() || !sb.finished() {
            sa.advance(5, &mut a);
            sb.advance(11, &mut b);
        }
        assert_eq!(a, whole);
        assert_eq!(b, whole);
    }

    #[test]
    fn multi_lane_jobs_cannot_outrun_the_weighted_share() {
        // The service fairness invariant on a *multi-lane* backend
        // (DESIGN.md §7): advance budgets are per worker chunk, so a job
        // spanning 8 chunks executes up to 8× its budget in one turn —
        // the scheduler must borrow that overshoot (credit goes
        // negative, turns are skipped) so equal-weight jobs still get
        // equal step shares, chunk counts notwithstanding.
        use crate::service::{JobSpec, ServiceConfig, WalkService};
        let g = GraphBuilder::directed()
            .num_vertices(4)
            .edges(vec![(0, 1), (1, 2), (2, 3), (3, 0)])
            .build();
        let cfg = BaselineConfig {
            threads: 8,
            ..Default::default()
        };
        let engine = CpuEngine::new(&g, &Uniform, cfg);
        let workers: Vec<&dyn WalkEngine> = vec![&engine];
        let mut service = WalkService::new(
            workers,
            ServiceConfig {
                quantum: 8,
                ..Default::default()
            },
        );
        // Same weight, wildly different lane counts: 1 chunk vs 8 chunks.
        let narrow = service.submit(JobSpec::tenant(0), QuerySet::from_starts(vec![0], 100_000));
        let wide = service.submit(
            JobSpec::tenant(1),
            QuerySet::from_starts(vec![1; 64], 10_000),
        );
        for _ in 0..400 {
            service.tick();
        }
        assert!(!service.status(narrow).is_terminal());
        assert!(!service.status(wide).is_terminal());
        let ratio = service.job_steps(wide) as f64 / service.job_steps(narrow) as f64;
        assert!(
            (0.5..2.0).contains(&ratio),
            "lane count leaked into the fair share: wide/narrow = {ratio:.2} \
             (wide {} vs narrow {})",
            service.job_steps(wide),
            service.job_steps(narrow)
        );
    }

    #[test]
    fn cancel_before_first_advance_emits_start_only_paths_on_every_lane_layout() {
        // Empty-batch cancel (DESIGN.md §6): no chunk has taken a step,
        // so every query flushes exactly once as its start vertex alone —
        // across all worker chunk layouts.
        let g = generators::rmat_dataset(8, 11);
        let qs = QuerySet::per_nonisolated_vertex(&g, 25, 6);
        for threads in [1usize, 3, 8] {
            let cfg = BaselineConfig {
                threads,
                ..Default::default()
            };
            let engine = CpuEngine::new(&g, &Uniform, cfg);
            let mut session = engine.session(&qs);
            let mut results = WalkResults::new();
            let progress = session.cancel(&mut results);
            assert!(progress.finished, "threads={threads}");
            assert_eq!(progress.steps, 0);
            assert_eq!(progress.paths_completed, qs.len());
            assert_eq!(results.len(), qs.len(), "threads={threads}");
            for (q, p) in qs.queries().iter().zip(results.iter()) {
                assert_eq!(p, &[q.start], "threads={threads}");
            }
            assert_eq!(session.steps_done(), 0);
            // Idempotent afterwards.
            let again = session.cancel(&mut results);
            assert_eq!(again.paths_completed, 0);
        }
    }

    #[test]
    fn cancel_flushes_every_path_exactly_once() {
        let g = generators::rmat_dataset(8, 10);
        let qs = QuerySet::per_nonisolated_vertex(&g, 40, 4);
        let cfg = BaselineConfig {
            threads: 2,
            ..Default::default()
        };
        let engine = CpuEngine::new(&g, &Uniform, cfg);
        let mut session = engine.session(&qs);
        let mut results = WalkResults::new();
        session.advance(3, &mut results);
        let progress = session.cancel(&mut results);
        assert!(progress.finished);
        assert_eq!(results.len(), qs.len());
        // Partial paths are still valid walks.
        for p in results.iter() {
            validate_path(&g, &Uniform, p).unwrap();
        }
    }

    #[test]
    fn a_worker_panic_reaches_the_caller_with_its_own_payload() {
        /// Uniform weights, except that stepping off vertex 7 panics.
        struct RefusesSeven;
        impl WalkApp for RefusesSeven {
            fn name(&self) -> &'static str {
                "RefusesSeven"
            }
            fn second_order(&self) -> bool {
                false
            }
            fn weight(&self, ctx: StepContext, _: VertexId, _: u32, _: u8, _: bool) -> u32 {
                if ctx.cur == 7 {
                    panic!("the weight rule refuses vertex 7");
                }
                FX_ONE
            }
        }
        // Two lanes of 64 walks × 300 steps: past the spawn gate, so the
        // walks reach vertex 7 on a worker thread.
        let g = generators::ring(64, 2);
        let qs = QuerySet::n_queries(&g, 128, 300, 1);
        const { assert!(64 * 300 >= crate::lane::MIN_STEPS_PER_LANE) };
        let cfg = BaselineConfig {
            threads: 2,
            ..Default::default()
        };
        let engine = CpuEngine::new(&g, &RefusesSeven, cfg);
        let run = std::panic::AssertUnwindSafe(|| engine.run(&qs));
        let payload = std::panic::catch_unwind(run).expect_err("the walk must panic");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"the weight rule refuses vertex 7")
        );
    }
}
