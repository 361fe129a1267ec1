//! Multi-board scaling — the paper's §8 future work, modelled.
//!
//! The paper closes by noting that terabyte-scale graphs need multiple
//! FPGA boards and proposes a distributed LightRW. This module models the
//! simplest such deployment faithfully to the single-board architecture:
//! every board holds a full graph replica (the same strategy the paper
//! uses per DRAM channel, Fig. 9) and an even share of the queries; boards
//! never communicate during execution (random walk queries are
//! embarrassingly parallel under full replication), so scaling costs are
//! the per-board PCIe pushes and the straggler board.
//!
//! Since the session refactor (DESIGN.md §6) a board is *any*
//! [`WalkEngine`] — simulated accelerators, CPU engines and the reference
//! oracle can serve side by side in one cluster ([`LightRwCluster::from_engines`]),
//! and the cluster drives all boards as interleaved batched sessions, the
//! way a multiplexing host would. A board's kernel time is its simulated
//! clock when it has a timing model (`model_seconds`) and its measured
//! wall clock otherwise.

use crate::pcie::PcieBreakdown;
use crate::platform::{FpgaPlatform, U250_PLATFORM};
use lightrw_graph::Graph;
use lightrw_hwsim::{LightRwConfig, LightRwSim};
use lightrw_walker::{multiplex_sessions, QuerySet, WalkApp, WalkEngine, WalkResults, WalkSink};

/// Steps each board session executes per multiplexing turn.
const BOARD_BATCH: u64 = 8192;

/// A cluster of LightRW boards with full graph replication; each board is
/// an independent [`WalkEngine`].
pub struct LightRwCluster<'g> {
    graph: &'g Graph,
    boards: Vec<Box<dyn WalkEngine + 'g>>,
    platform: FpgaPlatform,
}

/// Outcome of one board's share of a cluster run.
#[derive(Debug)]
pub struct BoardReport {
    /// The board's engine label.
    pub engine: String,
    /// The board's walk outputs, in its partition's local query order.
    pub results: WalkResults,
    /// Steps the board executed.
    pub steps: u64,
    /// Kernel seconds: simulated clock for modelled engines, measured
    /// wall clock otherwise.
    pub kernel_s: f64,
    /// True when `kernel_s` comes from a timing model.
    pub modelled: bool,
}

/// Outcome of a cluster run.
#[derive(Debug)]
pub struct ClusterReport {
    /// Per-board outcomes, board-major.
    pub boards: Vec<BoardReport>,
    /// Kernel seconds = the straggler board.
    pub kernel_s: f64,
    /// End-to-end seconds including per-board uploads (hosts push over
    /// independent PCIe links in parallel) and the largest download.
    pub end_to_end_s: f64,
    /// Total steps executed across boards.
    pub steps: u64,
}

impl ClusterReport {
    /// Aggregate throughput in steps per second of kernel time.
    pub fn steps_per_sec(&self) -> f64 {
        if self.kernel_s == 0.0 {
            0.0
        } else {
            self.steps as f64 / self.kernel_s
        }
    }
}

impl<'g> LightRwCluster<'g> {
    /// Deploy `boards` simulated boards of configuration `cfg` each, with
    /// per-board derived seeds — the paper-faithful deployment.
    pub fn new(graph: &'g Graph, app: &'g dyn WalkApp, cfg: LightRwConfig, boards: usize) -> Self {
        assert!(boards >= 1, "cluster needs at least one board");
        let cfg = cfg.validated();
        let engines = (0..boards)
            .map(|b| {
                let board_cfg = LightRwConfig {
                    seed: cfg.seed ^ (b as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    ..cfg
                };
                Box::new(LightRwSim::new(graph, app, board_cfg)) as Box<dyn WalkEngine + 'g>
            })
            .collect();
        Self {
            graph,
            boards: engines,
            platform: U250_PLATFORM,
        }
    }

    /// Deploy an explicit set of boards — any mix of backends. Each
    /// board's PCIe upload is modelled from its own
    /// [`WalkEngine::graph_images`] (one image for software engines, one
    /// per DRAM channel for multi-instance simulated accelerators).
    pub fn from_engines(graph: &'g Graph, boards: Vec<Box<dyn WalkEngine + 'g>>) -> Self {
        assert!(!boards.is_empty(), "cluster needs at least one board");
        Self {
            graph,
            boards,
            platform: U250_PLATFORM,
        }
    }

    /// Number of boards.
    pub fn num_boards(&self) -> usize {
        self.boards.len()
    }

    /// The boards as a service worker pool: hand this to
    /// [`lightrw_walker::service::WalkService::new`] to serve concurrent
    /// multi-tenant jobs over the cluster instead of running one
    /// partitioned batch ([`LightRwCluster::run`]). Jobs land on boards
    /// least-loaded-first and advance as weighted-fair interleaved
    /// sessions (DESIGN.md §7).
    pub fn workers(&self) -> Vec<&dyn WalkEngine> {
        self.boards.iter().map(|b| b.as_ref()).collect()
    }

    /// Execute a workload across the cluster: every board runs its
    /// round-robin partition as a batched session, advanced in
    /// interleaved turns until all boards drain.
    pub fn run(&self, queries: &QuerySet) -> ClusterReport {
        let parts = queries.partition(self.boards.len());
        let mut sessions: Vec<_> = self
            .boards
            .iter()
            .zip(&parts)
            .map(|(engine, part)| engine.start_session(part))
            .collect();
        let mut results: Vec<WalkResults> = parts
            .iter()
            .map(|p| WalkResults::with_capacity(p.len(), 8))
            .collect();
        let mut wall = vec![0.0f64; sessions.len()];

        // Interleaved multiplexing: one bounded batch per board per turn,
        // so no board's session monopolizes the host thread.
        let mut sinks: Vec<&mut dyn WalkSink> =
            results.iter_mut().map(|r| r as &mut dyn WalkSink).collect();
        multiplex_sessions(&mut sessions, &mut sinks, BOARD_BATCH, |idx, secs, _| {
            wall[idx] += secs
        });

        let boards: Vec<BoardReport> = sessions
            .iter()
            .zip(results)
            .zip(&wall)
            .zip(&self.boards)
            .map(|(((session, results), &wall_s), engine)| {
                let model = session.model_seconds();
                BoardReport {
                    engine: engine.label(),
                    steps: session.steps_done(),
                    kernel_s: model.unwrap_or(wall_s),
                    modelled: model.is_some(),
                    results,
                }
            })
            .collect();

        let kernel_s = boards.iter().map(|b| b.kernel_s).fold(0.0, f64::max);
        let steps = boards.iter().map(|b| b.steps).sum();
        // Each board's host link moves its own replica + results; links are
        // independent, so the end-to-end critical path is the slowest board.
        let end_to_end_s = boards
            .iter()
            .zip(&self.boards)
            .map(|(b, engine)| {
                PcieBreakdown::model(
                    &self.platform,
                    self.graph.csr_bytes() * engine.graph_images(),
                    b.kernel_s,
                    b.results.result_bytes(),
                )
                .end_to_end_s()
            })
            .fold(0.0, f64::max);
        ClusterReport {
            boards,
            kernel_s,
            end_to_end_s,
            steps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightrw_graph::DatasetProfile;
    use lightrw_walker::path::validate_path;
    use lightrw_walker::{BaselineConfig, CpuEngine, ReferenceEngine, SamplerKind, Uniform};

    #[test]
    fn cluster_scales_kernel_time_down() {
        let g = DatasetProfile::livejournal().stand_in(11, 3);
        let qs = QuerySet::per_nonisolated_vertex(&g, 10, 5);
        let one = LightRwCluster::new(&g, &Uniform, LightRwConfig::default(), 1).run(&qs);
        let four = LightRwCluster::new(&g, &Uniform, LightRwConfig::default(), 4).run(&qs);
        assert!(
            four.kernel_s < 0.35 * one.kernel_s,
            "4 boards {} vs 1 board {}",
            four.kernel_s,
            one.kernel_s
        );
        assert!(one.steps > 0, "steps recorded");
        assert!(four.steps_per_sec() > one.steps_per_sec() * 2.5);
    }

    #[test]
    fn cluster_covers_all_queries_with_valid_walks() {
        let g = DatasetProfile::youtube().stand_in(9, 7);
        let qs = QuerySet::per_nonisolated_vertex(&g, 6, 2);
        let rep = LightRwCluster::new(&g, &Uniform, LightRwConfig::default(), 3).run(&qs);
        let total: usize = rep.boards.iter().map(|b| b.results.len()).sum();
        assert_eq!(total, qs.len());
        for board in &rep.boards {
            assert!(board.modelled, "simulated boards report model time");
            for p in board.results.iter() {
                validate_path(&g, &Uniform, p).unwrap();
            }
        }
        assert!(rep.end_to_end_s >= rep.kernel_s);
    }

    #[test]
    fn single_board_matches_plain_accelerator() {
        let g = DatasetProfile::us_patents().stand_in(9, 1);
        let qs = QuerySet::per_nonisolated_vertex(&g, 5, 9);
        let cluster = LightRwCluster::new(&g, &Uniform, LightRwConfig::default(), 1).run(&qs);
        let plain = LightRwSim::new(&g, &Uniform, LightRwConfig::default()).run(&qs);
        // Board 0 uses a derived seed, so walks differ, but cycle accounting
        // structure must agree in magnitude.
        assert_eq!(cluster.boards.len(), 1);
        let ratio = cluster.kernel_s / plain.seconds;
        assert!((0.5..2.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn cluster_boards_serve_multi_tenant_jobs() {
        use lightrw_walker::service::{JobSpec, ServiceConfig, WalkService};
        // The §7 serving story: the same boards that run partitioned
        // batches also serve as a WalkService pool — here one simulated
        // board and one CPU board share three tenants' jobs.
        let g = DatasetProfile::youtube().stand_in(9, 6);
        let cpu_cfg = BaselineConfig {
            threads: 2,
            ..Default::default()
        };
        let boards: Vec<Box<dyn WalkEngine + '_>> = vec![
            Box::new(LightRwSim::new(&g, &Uniform, LightRwConfig::default())),
            Box::new(CpuEngine::new(&g, &Uniform, cpu_cfg)),
        ];
        let cluster = LightRwCluster::from_engines(&g, boards);
        let mut service = WalkService::new(cluster.workers(), ServiceConfig::default());
        let qs = QuerySet::n_queries(&g, 60, 6, 3);
        let jobs: Vec<_> = (0..3)
            .map(|t| service.submit(JobSpec::tenant(t), qs.clone()))
            .collect();
        service.run_until_idle();
        let stats = service.stats();
        assert_eq!(stats.completed_jobs, 3);
        assert_eq!(stats.tenants.len(), 3);
        for job in jobs {
            let results = service.take_results(job).unwrap();
            assert_eq!(results.len(), qs.len());
            for p in results.iter() {
                validate_path(&g, &Uniform, p).unwrap();
            }
        }
    }

    #[test]
    fn sharded_boards_contribute_compute_to_straggler_accounting() {
        // Two disjoint 16-cliques with the range cut between them: no
        // walker ever crosses shards, so a transfer-only model would call
        // the board free and straggler accounting would ignore it. The
        // board must still report its lane compute time as kernel time.
        let mut b = lightrw_graph::GraphBuilder::undirected();
        for c in 0..2u32 {
            let base = c * 16;
            for i in 0..16u32 {
                for j in (i + 1)..16 {
                    b = b.edge(base + i, base + j);
                }
            }
        }
        let g = b.build();
        let qs = QuerySet::per_nonisolated_vertex(&g, 8, 4);
        let make_board = || {
            crate::sharded::ShardedEngine::partition(
                &g,
                2,
                lightrw_graph::ShardStrategy::Range,
                &Uniform,
                SamplerKind::InverseTransform,
                5,
            )
        };

        // Pin the scenario: this workload genuinely produces zero
        // hand-offs, yet the session's model clock must not read zero.
        let engine = make_board();
        let mut sink = WalkResults::with_capacity(qs.len(), 9);
        let mut session = engine.start_session(&qs);
        while !session.finished() {
            session.advance(4096, &mut sink);
        }
        let diag = session.diagnostics().unwrap();
        assert!(diag.contains("hand-offs=0"), "{diag}");
        let model = session.model_seconds().unwrap();
        assert!(
            model > 0.0,
            "zero-hand-off sharded board reports no kernel time ({diag})"
        );

        // And the cluster's straggler fold sees that time.
        let cluster = LightRwCluster::from_engines(&g, vec![Box::new(make_board())]);
        let rep = cluster.run(&qs);
        assert!(rep.boards[0].modelled, "sharded boards carry a model clock");
        assert!(
            rep.boards[0].kernel_s > 0.0,
            "sharded board is invisible to straggler accounting"
        );
        assert_eq!(rep.kernel_s, rep.boards[0].kernel_s);
        assert!(rep.end_to_end_s >= rep.kernel_s);
    }

    #[test]
    fn mixed_backend_cluster_serves_any_engine() {
        // The session layer's point: a cluster is no longer sim-only. One
        // simulated board, one CPU board and the reference oracle split a
        // workload three ways and every path still validates.
        let g = DatasetProfile::youtube().stand_in(9, 4);
        let qs = QuerySet::per_nonisolated_vertex(&g, 5, 8);
        let cpu_cfg = BaselineConfig {
            threads: 2,
            ..Default::default()
        };
        let boards: Vec<Box<dyn WalkEngine + '_>> = vec![
            Box::new(LightRwSim::new(&g, &Uniform, LightRwConfig::default())),
            Box::new(CpuEngine::new(&g, &Uniform, cpu_cfg)),
            Box::new(ReferenceEngine::new(
                &g,
                &Uniform,
                SamplerKind::InverseTransform,
                77,
            )),
        ];
        let cluster = LightRwCluster::from_engines(&g, boards);
        assert_eq!(cluster.num_boards(), 3);
        let rep = cluster.run(&qs);
        let total: usize = rep.boards.iter().map(|b| b.results.len()).sum();
        assert_eq!(total, qs.len());
        assert!(rep.boards[0].modelled, "sim board has a clock model");
        assert!(!rep.boards[1].modelled, "cpu board is wall-clock");
        assert!(!rep.boards[2].modelled, "reference board is wall-clock");
        assert!(rep.kernel_s > 0.0);
        assert!(rep.steps > 0);
        for board in &rep.boards {
            for p in board.results.iter() {
                validate_path(&g, &Uniform, p).unwrap();
            }
        }
        // Labels identify the backends for operators.
        assert!(rep.boards[0].engine.starts_with("sim"));
        assert!(rep.boards[1].engine.starts_with("cpu"));
        assert!(rep.boards[2].engine.starts_with("reference"));
    }
}
