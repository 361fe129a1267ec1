//! The step-centric multi-threaded CPU engine.
//!
//! All mutable walk state — per-worker walker records, samplers, sweep
//! cursors — lives in the per-session [`LaneSession`] (DESIGN.md §6), so
//! sessions are re-entrant: two sessions over one [`CpuEngine`] (and one
//! graph) can interleave freely. What this crate adds to the shared lane
//! kernel is the [`LanePlan`] sizing policy and core pinning. The
//! monolithic [`CpuEngine::run`] is a thin convenience over one session
//! driven to completion.

use std::time::{Duration, Instant};

use lightrw_graph::Graph;
use lightrw_walker::engine::{WalkEngine, WalkSession};
use lightrw_walker::{LaneSession, QuerySet, SamplerKind, WalkApp, WalkResults};

use crate::affinity;
use crate::lanes::{resolve_workers, LanePlan};

/// CPU engine configuration.
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

    fn effective_threads(&self) -> usize {
        resolve_workers(self.threads)
    }
}

/// Measured outcome of a baseline run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaselineRunStats {
    /// Steps actually executed.
    pub steps: u64,
    /// Wall-clock execution time (excludes workload construction).
    pub elapsed: Duration,
    /// Threads used.
    pub threads: usize,
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

/// The ThunderRW-like engine.
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
    /// [`WalkEngine`] impl boxes the same thing): as many lanes as the
    /// [`LanePlan`] says, spawned workers pinned best-effort to a stable
    /// core each.
    pub fn session(&self, queries: &QuerySet) -> LaneSession<'g> {
        let plan = LanePlan::plan(self.cfg.threads, queries.len());
        LaneSession::new(
            self.graph,
            self.app,
            self.cfg.sampler,
            self.cfg.seed,
            queries,
            plan.lane_len,
        )
        .with_pinning(affinity::pin_current_thread)
    }

    /// Execute all queries; returns paths in query order plus timing.
    /// One session driven to completion in a single full-budget batch, so
    /// worker threads are spawned exactly once, as before the session
    /// refactor.
    pub fn run(&self, queries: &QuerySet) -> (WalkResults, BaselineRunStats) {
        let threads = self.cfg.effective_threads();
        let start = Instant::now();
        let mut session = self.session(queries);
        let mut results = WalkResults::with_capacity(queries.len(), 8);
        while !session.finished() {
            session.advance(u64::MAX, &mut results);
        }
        let elapsed = start.elapsed();
        (
            results,
            BaselineRunStats {
                steps: session.steps_done(),
                elapsed,
                threads,
            },
        )
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
    use lightrw_graph::{generators, GraphBuilder};
    use lightrw_rng::stats::{chi_square_counts, chi_square_crit_999};
    use lightrw_rng::{Rng, SplitMix64};
    use lightrw_walker::app::{MetaPath, Node2Vec, Uniform};
    use lightrw_walker::path::validate_path;

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
        let (results, stats) = CpuEngine::new(&g, &nv, cfg).run(&qs);
        assert_eq!(results.len(), qs.len());
        assert_eq!(stats.threads, 4);
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
        let (results, _) = CpuEngine::new(&g, &lightrw_walker::StaticWeighted, cfg).run(&qs);
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
        use lightrw_walker::service::{JobSpec, ServiceConfig, WalkService};
        let g = lightrw_graph::GraphBuilder::directed()
            .num_vertices(4)
            .edges(vec![(0, 1), (1, 2), (2, 3), (3, 0)])
            .build();
        let cfg = BaselineConfig {
            threads: 8,
            ..Default::default()
        };
        let engine = CpuEngine::new(&g, &Uniform, cfg);
        let workers: Vec<&dyn lightrw_walker::WalkEngine> = vec![&engine];
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
    fn cancel_before_first_advance_emits_start_only_paths() {
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
}
