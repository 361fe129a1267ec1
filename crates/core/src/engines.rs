//! Backend selection: construct any walk engine behind `&dyn WalkEngine`.
//!
//! The host layers (CLI, cluster, serving code) dispatch over the
//! engine-agnostic session trait of DESIGN.md §6; this module is the one
//! place that knows how to turn a backend name into a concrete engine —
//! the reference oracle, the ThunderRW-like CPU engine, or the simulated
//! accelerator.

use lightrw_graph::{Graph, ShardStrategy};
use lightrw_hwsim::{LightRwConfig, LightRwSim};
use lightrw_walker::{
    BaselineConfig, CpuEngine, ReferenceEngine, SamplerKind, WalkApp, WalkEngine,
};

use crate::sharded::ShardedEngine;

/// A walk execution backend, selectable by name (the CLI's `--engine`
/// flag) or constructed programmatically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Backend {
    /// The sequential reference oracle (`lightrw_walker::ReferenceEngine`).
    Reference {
        /// Per-step weighted sampling method.
        sampler: SamplerKind,
    },
    /// The multi-threaded CPU engine (`lightrw_walker::CpuEngine`).
    Cpu {
        /// Worker threads; 0 = one per core. Resolved by
        /// `LaneSession::new` (the DESIGN.md §9 double clamp), so the CLI
        /// and a service pool built from the same spec agree on worker
        /// counts.
        threads: usize,
        /// Per-step weighted sampling method.
        sampler: SamplerKind,
    },
    /// The simulated accelerator (`lightrw_hwsim::LightRwSim`).
    Sim {
        /// Board configuration (instances, k, cache, burst, ...).
        cfg: LightRwConfig,
    },
    /// The partitioned engine (`crate::sharded::ShardedEngine`): one
    /// step lane per shard, walker hand-offs at shard boundaries.
    Sharded {
        /// Shard count (`>= 1`; 1 has nothing to hand off and runs one
        /// `LaneSession` lane on the whole graph).
        shards: usize,
        /// How vertices are assigned to shards.
        strategy: ShardStrategy,
        /// Per-step weighted sampling method.
        sampler: SamplerKind,
    },
}

impl Backend {
    /// Parse a backend name: `sim`, `cpu`, `reference` or `sharded`.
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "sim" => Ok(Self::Sim {
                cfg: LightRwConfig::default(),
            }),
            "cpu" => Ok(Self::Cpu {
                threads: 0,
                sampler: SamplerKind::InverseTransform,
            }),
            "reference" => Ok(Self::Reference {
                sampler: SamplerKind::InverseTransform,
            }),
            "sharded" => Ok(Self::Sharded {
                shards: 2,
                strategy: ShardStrategy::Range,
                sampler: SamplerKind::InverseTransform,
            }),
            other => Err(format!(
                "unknown --engine {other:?} (expected sim, cpu, reference or sharded)"
            )),
        }
    }

    /// Parse a sampler name (the CLI's `--sampler` flag).
    pub fn parse_sampler(name: &str) -> Result<SamplerKind, String> {
        match name {
            "inverse-transform" | "it" => Ok(SamplerKind::InverseTransform),
            "sequential-wrs" => Ok(SamplerKind::SequentialWrs),
            "pwrs" | "parallel-wrs" => Ok(SamplerKind::ParallelWrs { k: 16 }),
            "rejection" => Ok(SamplerKind::Rejection),
            other => Err(format!(
                "unknown --sampler {other:?} (expected inverse-transform, \
                 sequential-wrs, pwrs or rejection)"
            )),
        }
    }

    /// Set the CPU worker thread count. Errors for backends that have no
    /// threads knob: the sim scales via `instances`, the reference engine
    /// is sequential by design.
    pub fn with_threads(self, threads: usize) -> Result<Self, String> {
        match self {
            Self::Cpu { sampler, .. } => Ok(Self::Cpu { threads, sampler }),
            Self::Reference { .. } => {
                Err("--threads only applies to --engine cpu (reference is sequential)".into())
            }
            Self::Sim { .. } => {
                Err("--threads only applies to --engine cpu (the sim scales via instances)".into())
            }
            Self::Sharded { .. } => {
                Err("--threads only applies to --engine cpu (sharded scales via --shards)".into())
            }
        }
    }

    /// Set the shard count and partition strategy of a sharded backend.
    /// Errors for every other backend so `--shards` on the wrong engine
    /// is loud.
    pub fn with_shards(self, shards: usize, strategy: ShardStrategy) -> Result<Self, String> {
        if shards == 0 {
            return Err("--shards must be at least 1".into());
        }
        match self {
            Self::Sharded { sampler, .. } => Ok(Self::Sharded {
                shards,
                strategy,
                sampler,
            }),
            _ => Err("--shards only applies to --engine sharded".into()),
        }
    }

    /// Swap the per-step sampling method. On the sim this is a
    /// *functional* override (the timing model still prices the WRS
    /// datapath — see `LightRwConfig::sampler`).
    pub fn with_sampler(self, sampler: SamplerKind) -> Self {
        match self {
            Self::Reference { .. } => Self::Reference { sampler },
            Self::Cpu { threads, .. } => Self::Cpu { threads, sampler },
            Self::Sim { cfg } => Self::Sim {
                cfg: LightRwConfig {
                    sampler: Some(sampler),
                    ..cfg
                },
            },
            Self::Sharded {
                shards, strategy, ..
            } => Self::Sharded {
                shards,
                strategy,
                sampler,
            },
        }
    }

    /// Build the engine for `app` on `graph`, seeding every backend from
    /// the same `seed` namespace.
    pub fn build<'g>(
        &self,
        graph: &'g Graph,
        app: &'g dyn WalkApp,
        seed: u64,
    ) -> Box<dyn WalkEngine + 'g> {
        match *self {
            Self::Reference { sampler } => {
                Box::new(ReferenceEngine::new(graph, app, sampler, seed))
            }
            Self::Cpu { threads, sampler } => Box::new(CpuEngine::new(
                graph,
                app,
                BaselineConfig {
                    threads,
                    sampler,
                    seed,
                },
            )),
            Self::Sim { cfg } => {
                Box::new(LightRwSim::new(graph, app, LightRwConfig { seed, ..cfg }))
            }
            Self::Sharded {
                shards,
                strategy,
                sampler,
            } => Box::new(ShardedEngine::partition(
                graph, shards, strategy, app, sampler, seed,
            )),
        }
    }

    /// Build a pool of `workers` independent engines of this backend —
    /// the worker set a `lightrw_walker::service::WalkService` schedules
    /// over. Each worker gets a seed derived from `seed` (the same
    /// derivation the multi-board cluster uses), so their walk streams
    /// are decorrelated while the pool as a whole stays reproducible.
    ///
    /// # Panics
    ///
    /// Panics when `workers` is zero.
    pub fn build_pool<'g>(
        &self,
        graph: &'g Graph,
        app: &'g dyn WalkApp,
        seed: u64,
        workers: usize,
    ) -> Vec<Box<dyn WalkEngine + 'g>> {
        assert!(workers >= 1, "a service pool needs at least one worker");
        (0..workers)
            .map(|w| {
                let worker_seed = seed ^ (w as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                self.build(graph, app, worker_seed)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightrw_graph::generators;
    use lightrw_walker::path::validate_path;
    use lightrw_walker::{QuerySet, Uniform, WalkEngineExt};

    #[test]
    fn parse_covers_all_backends_and_rejects_junk() {
        assert!(matches!(Backend::parse("sim"), Ok(Backend::Sim { .. })));
        assert!(matches!(
            Backend::parse("cpu"),
            Ok(Backend::Cpu { threads: 0, .. })
        ));
        assert!(matches!(
            Backend::parse("reference"),
            Ok(Backend::Reference { .. })
        ));
        assert!(matches!(
            Backend::parse("sharded"),
            Ok(Backend::Sharded { shards: 2, .. })
        ));
        assert!(Backend::parse("fpga").unwrap_err().contains("--engine"));
        // The shards knob reshapes sharded backends and rejects the rest.
        let b = Backend::parse("sharded")
            .unwrap()
            .with_shards(4, ShardStrategy::Fennel)
            .unwrap();
        assert!(matches!(
            b,
            Backend::Sharded {
                shards: 4,
                strategy: ShardStrategy::Fennel,
                ..
            }
        ));
        assert!(Backend::parse("cpu")
            .unwrap()
            .with_shards(2, ShardStrategy::Range)
            .unwrap_err()
            .contains("--shards"));
        assert!(Backend::parse("sharded")
            .unwrap()
            .with_shards(0, ShardStrategy::Range)
            .unwrap_err()
            .contains("--shards"));
    }

    #[test]
    fn parallel_sharded_backend_builds_working_engines() {
        // The sharded backend's lanes walk what the reference walks.
        let g = generators::rmat_dataset(7, 3);
        let qs = QuerySet::per_nonisolated_vertex(&g, 4, 1);
        let reference = Backend::parse("reference")
            .unwrap()
            .build(&g, &Uniform, 9)
            .run_collected(&qs);
        let sharded = Backend::parse("sharded")
            .unwrap()
            .build(&g, &Uniform, 9)
            .run_collected(&qs);
        assert_eq!(sharded, reference);
    }

    #[test]
    fn threads_knob_applies_to_cpu_only() {
        let cpu = Backend::parse("cpu").unwrap().with_threads(3).unwrap();
        assert!(matches!(cpu, Backend::Cpu { threads: 3, .. }));
        for name in ["sim", "reference", "sharded"] {
            let err = Backend::parse(name).unwrap().with_threads(3).unwrap_err();
            assert!(err.contains("--threads"), "{name}: {err}");
        }
    }

    #[test]
    fn sampler_knob_applies_to_every_backend() {
        let kind = Backend::parse_sampler("rejection").unwrap();
        assert_eq!(kind, SamplerKind::Rejection);
        // The deleted kinds' names are unknown like any other word.
        for name in ["dice", "alias", "a-expj", "aexpj"] {
            let err = Backend::parse_sampler(name).unwrap_err();
            assert!(err.contains("--sampler") && !err.contains('\n'), "{err}");
            assert!(
                err.ends_with("(expected inverse-transform, sequential-wrs, pwrs or rejection)"),
                "{err}"
            );
        }
        match Backend::parse("cpu").unwrap().with_sampler(kind) {
            Backend::Cpu { sampler, .. } => assert_eq!(sampler, SamplerKind::Rejection),
            other => panic!("{other:?}"),
        }
        match Backend::parse("reference").unwrap().with_sampler(kind) {
            Backend::Reference { sampler } => assert_eq!(sampler, SamplerKind::Rejection),
            other => panic!("{other:?}"),
        }
        match Backend::parse("sim").unwrap().with_sampler(kind) {
            Backend::Sim { cfg } => assert_eq!(cfg.sampler, Some(SamplerKind::Rejection)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rejection_backends_produce_valid_walks() {
        let g = generators::rmat_dataset(7, 6);
        let qs = QuerySet::per_nonisolated_vertex(&g, 4, 2);
        let nv = lightrw_walker::Node2Vec::paper_params();
        for name in ["sim", "cpu", "reference", "sharded"] {
            let backend = Backend::parse(name)
                .unwrap()
                .with_sampler(SamplerKind::Rejection);
            let results = backend.build(&g, &nv, 5).run_collected(&qs);
            assert_eq!(results.len(), qs.len(), "{name}");
            for p in results.iter() {
                validate_path(&g, &nv, p).unwrap();
            }
        }
    }

    #[test]
    fn pools_build_decorrelated_workers_for_every_backend() {
        let g = generators::rmat_dataset(7, 5);
        let qs = QuerySet::per_nonisolated_vertex(&g, 4, 2);
        for name in ["sim", "cpu", "reference", "sharded"] {
            let pool = Backend::parse(name).unwrap().build_pool(&g, &Uniform, 3, 3);
            assert_eq!(pool.len(), 3, "{name}");
            let runs: Vec<_> = pool.iter().map(|e| e.run_collected(&qs)).collect();
            for r in &runs {
                assert_eq!(r.len(), qs.len(), "{name}");
            }
            // Derived seeds: distinct workers sample distinct walks.
            assert_ne!(runs[0], runs[1], "{name}: workers share a seed");
        }
    }

    #[test]
    fn pool_workers_serve_a_walk_service() {
        use lightrw_walker::service::{JobSpec, ServiceConfig, WalkService};
        let g = generators::rmat_dataset(7, 8);
        let pool = Backend::parse("reference")
            .unwrap()
            .build_pool(&g, &Uniform, 11, 2);
        let workers: Vec<&dyn WalkEngine> = pool.iter().map(|e| e.as_ref()).collect();
        let mut service = WalkService::new(workers, ServiceConfig::default());
        let qs = QuerySet::per_nonisolated_vertex(&g, 5, 4);
        let a = service.submit(JobSpec::tenant(0), qs.clone());
        let b = service.submit(JobSpec::tenant(1), qs.clone());
        service.run_until_idle();
        for job in [a, b] {
            let results = service.take_results(job).unwrap();
            assert_eq!(results.len(), qs.len());
            for p in results.iter() {
                validate_path(&g, &Uniform, p).unwrap();
            }
        }
    }

    #[test]
    fn pool_workers_run_program_query_sets() {
        // Programs ride inside the QuerySet, so every pooled backend
        // executes them through the same object-safe seam: a PPR job must
        // respect its step cap and record teleports as start-vertex
        // reappearances; a completed fixed job stays exact.
        use lightrw_walker::service::{JobSpec, ServiceConfig, WalkService};
        use lightrw_walker::WalkProgram;
        let g = generators::rmat_dataset(7, 4);
        for name in ["sim", "cpu", "reference", "sharded"] {
            let pool = Backend::parse(name).unwrap().build_pool(&g, &Uniform, 5, 2);
            let workers: Vec<&dyn WalkEngine> = pool.iter().map(|e| e.as_ref()).collect();
            let mut service = WalkService::new(workers, ServiceConfig::default());
            let ppr = QuerySet::n_queries(&g, 24, 16, 3).with_program(WalkProgram::ppr(0.3, 16));
            let fixed = QuerySet::n_queries(&g, 24, 16, 3);
            let a = service.submit(JobSpec::tenant(0), ppr.clone());
            let b = service.submit(JobSpec::tenant(1), fixed);
            service.run_until_idle();
            let ppr_results = service.take_results(a).unwrap();
            assert_eq!(ppr_results.len(), ppr.len(), "{name}");
            for (q, p) in ppr.queries().iter().zip(ppr_results.iter()) {
                assert!(p.len() <= 17, "{name}: cap exceeded");
                assert_eq!(p[0], q.start, "{name}");
            }
            assert_eq!(service.take_results(b).unwrap().len(), 24, "{name}");
        }
    }

    #[test]
    fn every_backend_builds_a_working_engine() {
        let g = generators::rmat_dataset(7, 3);
        let qs = QuerySet::per_nonisolated_vertex(&g, 4, 1);
        for name in ["sim", "cpu", "reference", "sharded"] {
            let backend = Backend::parse(name).unwrap();
            let engine = backend.build(&g, &Uniform, 9);
            let results = engine.run_collected(&qs);
            assert_eq!(results.len(), qs.len(), "{name}");
            for p in results.iter() {
                validate_path(&g, &Uniform, p).unwrap();
            }
        }
    }
}
