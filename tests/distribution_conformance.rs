//! Statistical conformance: every engine samples the *specified*
//! transition distribution, not merely a valid one.
//!
//! The bit-equivalence suites (`engine_agreement.rs`,
//! `hotpath_equivalence.rs`) pin engines against each other; this suite
//! pins them against **closed-form probabilities** derived by hand from
//! the paper's weight rules on small fixed graphs — a chi-square
//! goodness-of-fit of empirical next-hop frequencies for the uniform,
//! static-weighted, and node2vec (p = 2, q = 0.5) samplers, run
//! identically against all three engines and every sampler kind.
//!
//! ## Significance threshold (why this is not flaky)
//!
//! Every run uses a fixed seed, so each statistic below is a
//! *deterministic number*, not a random variable: the assertions compare
//! that number against `chi_square_crit_999(dof) × 1.2` — the ~99.9%
//! critical value (Wilson–Hilferty approximation) with 20% headroom, the
//! same convention the sampler unit tests use. A conforming sampler lands
//! far below the bound with n = 30 000 draws; a systematically biased one
//! (wrong weights, a broken lane merge, a misrouted prefix cache) lands
//! orders of magnitude above it. Re-running can never flip the outcome;
//! changing a seed moves the statistic by O(dof), far less than the
//! headroom.

use lightrw::prelude::*;
use lightrw::rng::stats::{chi_square_counts, chi_square_crit_999};
use lightrw_repro as _;

const N_WALKS: usize = 30_000;

const ALL_SAMPLERS: [SamplerKind; 5] = [
    SamplerKind::InverseTransform,
    SamplerKind::SequentialWrs,
    SamplerKind::ParallelWrs { k: 4 },
    SamplerKind::ParallelWrs { k: 16 },
    SamplerKind::Rejection,
];

/// Every engine × sampler combination under test: the reference oracle
/// and the CPU engine with each sampler kind, plus the simulated
/// accelerator (parallel WRS by construction).
fn all_engines<'g>(g: &'g Graph, app: &'g dyn WalkApp) -> Vec<(String, Box<dyn WalkEngine + 'g>)> {
    let mut engines: Vec<(String, Box<dyn WalkEngine + 'g>)> = Vec::new();
    for (i, kind) in ALL_SAMPLERS.into_iter().enumerate() {
        let seed = 100 + i as u64;
        engines.push((
            format!("reference/{}", kind.name()),
            Box::new(ReferenceEngine::new(g, app, kind, seed)),
        ));
        let cfg = BaselineConfig {
            threads: 4,
            sampler: kind,
            seed: 200 + i as u64,
        };
        engines.push((
            format!("cpu/{}", kind.name()),
            Box::new(CpuEngine::new(g, app, cfg)),
        ));
    }
    engines.push((
        "sim/parallel-wrs".to_string(),
        Box::new(LightRwSim::new(
            g,
            app,
            LightRwConfig {
                seed: 300,
                ..LightRwConfig::default()
            },
        )),
    ));
    engines
}

/// Assert empirical `counts` fit `probs` at the documented threshold.
fn assert_fits(label: &str, what: &str, counts: &[u64], probs: &[f64]) {
    let dof = probs.iter().filter(|&&p| p > 0.0).count() - 1;
    let chi2 = chi_square_counts(counts, probs);
    let crit = chi_square_crit_999(dof) * 1.2;
    assert!(
        chi2 < crit,
        "{label} {what}: chi2 {chi2:.1} over threshold {crit:.1} (counts {counts:?})"
    );
}

/// One-step empirical next-hop histogram from vertex 0 over 5 targets.
fn one_step_counts(engine: &dyn WalkEngine) -> Vec<u64> {
    let qs = QuerySet::from_starts(vec![0; N_WALKS], 1);
    let results = engine.run_collected(&qs);
    let mut counts = vec![0u64; 5];
    for p in results.iter() {
        assert_eq!(p.len(), 2, "one-step walk");
        counts[p[1] as usize] += 1;
    }
    counts
}

/// A weighted fan: vertex 0 with out-edges of static weights 2, 3, 5, 10.
fn weighted_fan() -> Graph {
    GraphBuilder::directed()
        .weighted_edges([(0, 1, 2), (0, 2, 3), (0, 3, 5), (0, 4, 10)])
        .num_vertices(5)
        .build()
}

#[test]
fn uniform_sampler_conforms_on_every_engine() {
    // The Uniform app ignores static weights entirely: the closed-form
    // next-hop law on the weighted fan is uniform over the 4 targets.
    // (Running it on a *weighted* graph makes the test sharp: an engine
    // that wrongly consulted static weights would skew 2:3:5:10 and land
    // ~3 orders of magnitude over the threshold.)
    let g = weighted_fan();
    let probs = [0.0, 1.0, 1.0, 1.0, 1.0];
    for (label, engine) in all_engines(&g, &Uniform) {
        let counts = one_step_counts(engine.as_ref());
        assert_fits(&label, "uniform", &counts, &probs);
    }
}

#[test]
fn static_weighted_sampler_conforms_on_every_engine() {
    // StaticWeighted: next-hop probability proportional to the static
    // edge weight — 2 : 3 : 5 : 10 on the fan.
    let g = weighted_fan();
    let probs = [0.0, 2.0, 3.0, 5.0, 10.0];
    for (label, engine) in all_engines(&g, &StaticWeighted) {
        let counts = one_step_counts(engine.as_ref());
        assert_fits(&label, "static-weighted", &counts, &probs);
    }
}

#[test]
fn node2vec_sampler_conforms_on_every_engine() {
    // Node2Vec (p = 2, q = 0.5) on the "kite" graph, unit weights:
    //
    //      0 —— 1 —— 3
    //       \  /
    //        2
    //
    // Two-step walks from 0; the closed-form joint law of (v1, v2),
    // derived by hand from Eq. 2:
    //
    // - Step 1 has no previous vertex, so it is static-uniform over
    //   N(0) = {1, 2}: P(v1) = 1/2 each.
    // - From v1 = 1 (prev 0), N(1) = {0, 2, 3}:
    //     0 is the return edge        → w = 1/p = 1/2   (Eq. 2a)
    //     2 is a neighbour of prev 0  → w = 1           (Eq. 2b)
    //     3 is at distance 2 from 0   → w = 1/q = 2     (Eq. 2c)
    //   normalized: P(0|1) = 1/7, P(2|1) = 2/7, P(3|1) = 4/7.
    // - From v1 = 2 (prev 0), N(2) = {0, 1}:
    //     0 return → 1/2; 1 neighbour of 0 → 1
    //   normalized: P(0|2) = 1/3, P(1|2) = 2/3.
    //
    // Joint over the five reachable (v1, v2) pairs:
    //   (1,0) = 1/14, (1,2) = 1/7, (1,3) = 2/7, (2,0) = 1/6, (2,1) = 1/3.
    //
    // Both scalings (1/p = 1/2, 1/q = 2) are exact in the 16-bit
    // fixed-point weight representation, so the law above is exact, not
    // approximate.
    let g = GraphBuilder::undirected()
        .edges([(0, 1), (0, 2), (1, 2), (1, 3)])
        .build();
    let nv = Node2Vec::paper_params(); // p = 2, q = 0.5
    let pairs = [(1u32, 0u32), (1, 2), (1, 3), (2, 0), (2, 1)];
    let probs = [1.0 / 14.0, 1.0 / 7.0, 2.0 / 7.0, 1.0 / 6.0, 1.0 / 3.0];
    for (label, engine) in all_engines(&g, &nv) {
        let qs = QuerySet::from_starts(vec![0; N_WALKS], 2);
        let results = engine.run_collected(&qs);
        let mut counts = vec![0u64; pairs.len()];
        for p in results.iter() {
            assert_eq!(p.len(), 3, "{label}: two-step walk on the kite");
            let pair = (p[1], p[2]);
            let slot = pairs
                .iter()
                .position(|&x| x == pair)
                .unwrap_or_else(|| panic!("{label}: impossible transition {pair:?}"));
            counts[slot] += 1;
        }
        assert_fits(&label, "node2vec", &counts, &probs);
    }
}

#[test]
fn rejection_sampler_conforms_on_node2vec_for_all_three_engines() {
    // The KnightKing-style rejection fast path (DESIGN.md §9) draws a
    // *different* RNG stream than inverse transform on enveloped
    // second-order steps — bit-identity suites cannot pin it, so the
    // chi-square against the hand-derived kite law (see
    // `node2vec_sampler_conforms_on_every_engine` for the derivation) is
    // its correctness gate. All three backends run it explicitly: the
    // reference oracle, the CPU lanes (multi-threaded), and the hwsim via
    // its functional sampler override.
    let g = GraphBuilder::undirected()
        .edges([(0, 1), (0, 2), (1, 2), (1, 3)])
        .build();
    let nv = Node2Vec::paper_params(); // p = 2, q = 0.5
    let pairs = [(1u32, 0u32), (1, 2), (1, 3), (2, 0), (2, 1)];
    let probs = [1.0 / 14.0, 1.0 / 7.0, 2.0 / 7.0, 1.0 / 6.0, 1.0 / 3.0];

    let engines: Vec<(&str, Box<dyn WalkEngine + '_>)> = vec![
        (
            "reference/rejection",
            Box::new(ReferenceEngine::new(&g, &nv, SamplerKind::Rejection, 910)),
        ),
        (
            "cpu/rejection",
            Box::new(CpuEngine::new(
                &g,
                &nv,
                BaselineConfig {
                    threads: 4,
                    sampler: SamplerKind::Rejection,
                    seed: 920,
                },
            )),
        ),
        (
            "sim/rejection",
            Box::new(LightRwSim::new(
                &g,
                &nv,
                LightRwConfig {
                    seed: 930,
                    sampler: Some(SamplerKind::Rejection),
                    ..LightRwConfig::default()
                },
            )),
        ),
    ];
    for (label, engine) in engines {
        let qs = QuerySet::from_starts(vec![0; N_WALKS], 2);
        let results = engine.run_collected(&qs);
        let mut counts = vec![0u64; pairs.len()];
        for p in results.iter() {
            assert_eq!(p.len(), 3, "{label}: two-step walk on the kite");
            let pair = (p[1], p[2]);
            let slot = pairs
                .iter()
                .position(|&x| x == pair)
                .unwrap_or_else(|| panic!("{label}: impossible transition {pair:?}"));
            counts[slot] += 1;
        }
        assert_fits(label, "node2vec-rejection", &counts, &probs);
    }
}

/// Exact `t`-step law of the α-restart chain from `start`: one step is
/// "teleport to `start` w.p. α, else move to a uniform neighbor" —
/// precisely the per-attempt semantics of `WalkProgram::ppr` with the
/// `Uniform` app (DESIGN.md §8).
fn ppr_t_step_law(adj: &[&[usize]], start: usize, alpha: f64, t: usize) -> Vec<f64> {
    let n = adj.len();
    let mut dist = vec![0.0; n];
    dist[start] = 1.0;
    for _ in 0..t {
        let mut next = vec![0.0; n];
        next[start] += alpha;
        for v in 0..n {
            let share = (1.0 - alpha) * dist[v] / adj[v].len() as f64;
            for &u in adj[v] {
                next[u] += share;
            }
        }
        dist = next;
    }
    dist
}

#[test]
fn ppr_conforms_to_the_stationary_distribution_on_every_engine() {
    // Personalized PageRank on the kite graph (0-1, 0-2, 1-2, 1-3),
    // Uniform app, α = 0.2, start 0. The walk's position after t steps
    // follows the α-restart chain exactly; its stationary distribution π
    // solves π = α·e₀ + (1-α)·πP (the closed-form PPR vector). We:
    //
    //  1. compute the exact t-step law by iterating the chain (t = 24 —
    //     each emitted path has exactly t+1 vertices on this dead-end-free
    //     graph, so the *last* path vertex is an iid sample of that law);
    //  2. check it has mixed: ‖law − π‖∞ ≤ (1-α)^t ≈ 4.7e-3, i.e. the
    //     empirical visit distribution is the stationary one up to far
    //     below the chi-square headroom;
    //  3. chi-square the last-vertex histogram of N walks against the
    //     exact law, per engine × sampler combo — deterministic seeds,
    //     same crit_999 × 1.2 threshold as the rest of the suite.
    //
    // The α quantization (32 fractional bits, error < 2.4e-11) is orders
    // of magnitude below the statistical resolution.
    let g = GraphBuilder::undirected()
        .edges([(0, 1), (0, 2), (1, 2), (1, 3)])
        .build();
    let adj: [&[usize]; 4] = [&[1, 2], &[0, 2, 3], &[0, 1], &[1]];
    let (alpha, cap) = (0.2, 24u32);
    let law = ppr_t_step_law(&adj, 0, alpha, cap as usize);

    // Stationary fixed point, iterated to numerical convergence.
    let pi = ppr_t_step_law(&adj, 0, alpha, 2000);
    for (a, b) in law.iter().zip(&pi) {
        assert!(
            (a - b).abs() < (1.0 - alpha).powi(cap as i32) + 1e-9,
            "t-step law has not mixed: {law:?} vs stationary {pi:?}"
        );
    }

    let n_walks = 24_000;
    let program = WalkProgram::ppr(alpha, cap);
    for (label, engine) in all_engines(&g, &Uniform) {
        let qs = QuerySet::from_starts_with_program(vec![0; n_walks], program.clone());
        let results = engine.run_collected(&qs);
        let mut counts = vec![0u64; 4];
        for p in results.iter() {
            assert_eq!(
                p.len(),
                cap as usize + 1,
                "{label}: no dead ends, no targets — every walk runs to its cap"
            );
            counts[*p.last().unwrap() as usize] += 1;
        }
        assert_fits(&label, "ppr", &counts, &law);
    }
}

#[test]
fn sharded_execution_conforms_for_two_and_four_shards() {
    // Walker hand-off (DESIGN.md §11) must not perturb the transition
    // law: on these tiny fixed graphs a range partition puts vertex 0
    // and most of its targets in *different* shards, so nearly every
    // step migrates a walker — serialized RNG stream and all — yet the
    // empirical law must still match the closed
    // forms derived above.
    use lightrw::graph::ShardStrategy;

    // Static-weighted fan, 2 : 3 : 5 : 10 (see the unsharded test).
    let g = weighted_fan();
    let probs = [0.0, 2.0, 3.0, 5.0, 10.0];
    for k in [2usize, 4] {
        let engine = ShardedEngine::partition(
            &g,
            k,
            ShardStrategy::Range,
            &StaticWeighted,
            SamplerKind::InverseTransform,
            400 + k as u64,
        );
        let counts = one_step_counts(&engine);
        assert_fits(
            &format!("sharded-k{k}/inverse-transform"),
            "static-weighted",
            &counts,
            &probs,
        );
    }

    // Node2Vec (p = 2, q = 0.5) kite joint law (derivation in
    // `node2vec_sampler_conforms_on_every_engine`): second-order
    // hand-offs must carry the previous row across shards correctly.
    let g = GraphBuilder::undirected()
        .edges([(0, 1), (0, 2), (1, 2), (1, 3)])
        .build();
    let nv = Node2Vec::paper_params();
    let pairs = [(1u32, 0u32), (1, 2), (1, 3), (2, 0), (2, 1)];
    let probs = [1.0 / 14.0, 1.0 / 7.0, 2.0 / 7.0, 1.0 / 6.0, 1.0 / 3.0];
    for (k, strategy, kind) in [
        (2usize, ShardStrategy::Range, SamplerKind::InverseTransform),
        (2, ShardStrategy::Fennel, SamplerKind::Rejection),
        (4, ShardStrategy::Range, SamplerKind::ParallelWrs { k: 16 }),
    ] {
        let label = format!("sharded-k{k}-{}/{}", strategy.name(), kind.name());
        let engine = ShardedEngine::partition(&g, k, strategy, &nv, kind, 500 + k as u64);
        let qs = QuerySet::from_starts(vec![0; N_WALKS], 2);
        let results = engine.run_collected(&qs);
        let mut counts = vec![0u64; pairs.len()];
        for p in results.iter() {
            assert_eq!(p.len(), 3, "{label}: two-step walk on the kite");
            let pair = (p[1], p[2]);
            let slot = pairs
                .iter()
                .position(|&x| x == pair)
                .unwrap_or_else(|| panic!("{label}: impossible transition {pair:?}"));
            counts[slot] += 1;
        }
        assert_fits(&label, "node2vec-sharded", &counts, &probs);
    }
}

#[test]
fn conformance_holds_through_batched_service_scheduling() {
    // The serving layer must not perturb distributions either: the same
    // static-weighted fan, sampled through a WalkService with a tiny
    // quantum (maximal interleaving of two concurrent tenants), matches
    // the same closed-form law. (Scheduling never touches the RNG — this
    // is the statistical restatement of the bit-identity contract.)
    use lightrw::service::{JobSpec, ServiceConfig, WalkService};
    let g = weighted_fan();
    let probs = [0.0, 2.0, 3.0, 5.0, 10.0];
    let engine = ReferenceEngine::new(&g, &StaticWeighted, SamplerKind::InverseTransform, 77);
    let workers: Vec<&dyn WalkEngine> = vec![&engine];
    let mut service = WalkService::new(
        workers,
        ServiceConfig {
            quantum: 3,
            ..Default::default()
        },
    );
    let qs = QuerySet::from_starts(vec![0; N_WALKS / 2], 1);
    let a = service.submit(JobSpec::tenant(0), qs.clone());
    let b = service.submit(JobSpec::tenant(1), qs);
    service.run_until_idle();
    let mut counts = vec![0u64; 5];
    for job in [a, b] {
        for p in service.take_results(job).unwrap().iter() {
            counts[p[1] as usize] += 1;
        }
    }
    assert_fits("service/reference", "static-weighted", &counts, &probs);
}
