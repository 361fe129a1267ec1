//! The hot-path RNG-identity contract (DESIGN.md §5), engine level: the
//! degree-indexed uniform fast path, the static-weight / per-relation
//! prefix-cache path and the generic streaming path must produce
//! bit-for-bit identical walks for every app × sampler kind, with or
//! without the prefix cache — so the profile hints change speed, never
//! results, and stay in lockstep with the `ReferenceEngine` oracle.

use lightrw::prelude::*;
use lightrw::walker::app::StepContext;
use lightrw_repro as _;

/// Delegating wrapper that hides an app's `weight_profile()` /
/// `static_relation()` hints, forcing every engine onto the generic
/// streaming path while computing exactly the same weights.
struct ForceDynamic<'a>(&'a dyn WalkApp);

impl WalkApp for ForceDynamic<'_> {
    fn name(&self) -> &'static str {
        "ForceDynamic"
    }
    fn second_order(&self) -> bool {
        self.0.second_order()
    }
    fn weight(
        &self,
        ctx: StepContext,
        nbr: lightrw::graph::VertexId,
        w_static: u32,
        relation: u8,
        prev_is_neighbor: bool,
    ) -> u32 {
        self.0
            .weight(ctx, nbr, w_static, relation, prev_is_neighbor)
    }
}

// Every kind whose fast paths draw exactly as its generic streaming
// pass does. Rejection is left out: on enveloped steps it draws its own
// stream by design, and the conformance suite checks it by goodness of
// fit instead (DESIGN.md §9).
const ALL_SAMPLERS: [SamplerKind; 4] = [
    SamplerKind::InverseTransform,
    SamplerKind::SequentialWrs,
    SamplerKind::ParallelWrs { k: 4 },
    SamplerKind::ParallelWrs { k: 16 },
];

fn fixtures(seed: u64) -> (Graph, Graph) {
    let g = generators::rmat_dataset(8, seed);
    assert!(g.has_prefix_cache(), "generators should build the cache");
    let mut bare = g.clone();
    bare.drop_prefix_cache();
    (g, bare)
}

fn apps() -> Vec<Box<dyn WalkApp>> {
    vec![
        Box::new(Uniform),
        Box::new(StaticWeighted),
        Box::new(MetaPath::new(vec![0, 1, 0, 1, 0])),
        Box::new(Node2Vec::paper_params()),
    ]
}

#[test]
fn reference_engine_paths_agree_across_all_strategies() {
    for seed in [3u64, 17] {
        let (g, bare) = fixtures(seed);
        let qs = QuerySet::per_nonisolated_vertex(&g, 8, seed);
        for app in apps() {
            let forced = ForceDynamic(app.as_ref());
            for sk in ALL_SAMPLERS {
                let fast = ReferenceEngine::new(&g, app.as_ref(), sk, 11).run(&qs);
                let generic = ReferenceEngine::new(&g, &forced, sk, 11).run(&qs);
                let uncached = ReferenceEngine::new(&bare, app.as_ref(), sk, 11).run(&qs);
                assert_eq!(
                    fast,
                    generic,
                    "{} {}: fast path diverged from generic streaming",
                    app.name(),
                    sk.name()
                );
                assert_eq!(
                    fast,
                    uncached,
                    "{} {}: cached diverged from uncached",
                    app.name(),
                    sk.name()
                );
            }
        }
    }
}

#[test]
fn cpu_engine_paths_agree_across_all_strategies() {
    let (g, bare) = fixtures(5);
    let qs = QuerySet::per_nonisolated_vertex(&g, 6, 9);
    for app in apps() {
        let forced = ForceDynamic(app.as_ref());
        for sk in ALL_SAMPLERS {
            for threads in [1usize, 3] {
                let cfg = BaselineConfig {
                    threads,
                    sampler: sk,
                    seed: 77,
                };
                let (fast, _) = CpuEngine::new(&g, app.as_ref(), cfg).run(&qs);
                let (generic, _) = CpuEngine::new(&g, &forced, cfg).run(&qs);
                let (uncached, _) = CpuEngine::new(&bare, app.as_ref(), cfg).run(&qs);
                assert_eq!(
                    fast,
                    generic,
                    "{} {} threads={threads}: fast path diverged",
                    app.name(),
                    sk.name()
                );
                assert_eq!(
                    fast,
                    uncached,
                    "{} {} threads={threads}: cache changed the walks",
                    app.name(),
                    sk.name()
                );
            }
        }
    }
}

#[test]
fn hwsim_paths_agree_across_all_strategies() {
    let (g, bare) = fixtures(13);
    let qs = QuerySet::per_nonisolated_vertex(&g, 6, 31);
    let cfg = LightRwConfig::default();
    for app in apps() {
        let forced = ForceDynamic(app.as_ref());
        let fast = LightRwSim::new(&g, app.as_ref(), cfg).run(&qs);
        let generic = LightRwSim::new(&g, &forced, cfg).run(&qs);
        let uncached = LightRwSim::new(&bare, app.as_ref(), cfg).run(&qs);
        assert_eq!(
            fast.results,
            generic.results,
            "{}: hwsim fast path diverged",
            app.name()
        );
        assert_eq!(
            fast.results,
            uncached.results,
            "{}: hwsim cache changed the walks",
            app.name()
        );
        // The timing model must be untouched by the functional strategy.
        assert_eq!(fast.cycles, generic.cycles, "{}", app.name());
        assert_eq!(fast.cycles, uncached.cycles, "{}", app.name());
    }
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(8))]

    /// Randomized sweep: graph seed, walk length and engine seed all vary;
    /// the three strategies must keep emitting identical paths.
    #[test]
    fn strategies_agree_on_random_workloads(
        gseed in 0u64..200,
        eseed in 0u64..1000,
        length in 1u32..10,
    ) {
        let (g, bare) = fixtures(gseed);
        let qs = QuerySet::n_queries(&g, 64, length, gseed ^ eseed);
        for app in apps() {
            let forced = ForceDynamic(app.as_ref());
            for sk in [SamplerKind::InverseTransform, SamplerKind::ParallelWrs { k: 8 }] {
                let fast = ReferenceEngine::new(&g, app.as_ref(), sk, eseed).run(&qs);
                let generic = ReferenceEngine::new(&g, &forced, sk, eseed).run(&qs);
                let uncached = ReferenceEngine::new(&bare, app.as_ref(), sk, eseed).run(&qs);
                proptest::prop_assert_eq!(&fast, &generic);
                proptest::prop_assert_eq!(&fast, &uncached);
            }
        }
    }
}
