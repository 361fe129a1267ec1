//! Cross-engine agreement: the reference oracle, the ThunderRW-like CPU
//! baseline and the accelerator model must sample from the same
//! distribution and emit only valid walks — the property that makes the
//! paper's Fig. 14 comparison meaningful (same answers, different speed).
//!
//! All engines also implement `WalkEngine` (DESIGN.md §6), and the second
//! half of this suite pins the two identity contracts: every *software*
//! engine — reference, CPU at any lane count, sharded at any shard and
//! executor count — samples the oracle's walks bit for bit (the
//! RNG-stream contract of DESIGN.md §5), and for every engine a session
//! driven through `&dyn WalkEngine` with a *randomized* `max_steps`
//! schedule reproduces its monolithic `run`.

use lightrw::graph::ShardStrategy;
use lightrw::prelude::*;
use lightrw::rng::stats::{chi_square_counts, chi_square_crit_999};
use lightrw::rng::{Rng, SplitMix64};
use lightrw::walker::path::validate_path;
use lightrw_repro as _;

/// One-step empirical distribution from a weighted fan-out vertex, for an
/// arbitrary engine closure.
fn one_step_counts(n: usize, run: impl Fn(&QuerySet) -> WalkResults) -> Vec<u64> {
    let qs = QuerySet::from_starts(vec![0; n], 1);
    let res = run(&qs);
    let mut counts = vec![0u64; 5];
    for p in res.iter() {
        assert_eq!(p.len(), 2, "one-step walk must have two vertices");
        counts[p[1] as usize] += 1;
    }
    counts
}

fn weighted_fan() -> Graph {
    GraphBuilder::directed()
        .weighted_edges([(0, 1, 2), (0, 2, 3), (0, 3, 5), (0, 4, 10)])
        .num_vertices(5)
        .build()
}

#[test]
fn all_three_engines_sample_the_same_distribution() {
    let g = weighted_fan();
    let probs = [0.0, 2.0, 3.0, 5.0, 10.0];
    let n = 30_000;
    let crit = chi_square_crit_999(3) * 1.2;

    // Reference engine (oracle).
    let counts = one_step_counts(n, |qs| {
        ReferenceEngine::new(&g, &StaticWeighted, SamplerKind::InverseTransform, 1).run(qs)
    });
    let chi2 = chi_square_counts(&counts[..], &probs);
    assert!(chi2 < crit, "reference: chi2 {chi2:.1} {counts:?}");

    // CPU baseline (multi-threaded).
    let counts = one_step_counts(n, |qs| {
        CpuEngine::new(&g, &StaticWeighted, BaselineConfig::default())
            .run(qs)
            .0
    });
    let chi2 = chi_square_counts(&counts[..], &probs);
    assert!(chi2 < crit, "baseline: chi2 {chi2:.1} {counts:?}");

    // Accelerator model (4 instances, parallel WRS + integer test).
    let counts = one_step_counts(n, |qs| {
        LightRwSim::new(&g, &StaticWeighted, LightRwConfig::default())
            .run(qs)
            .results
    });
    let chi2 = chi_square_counts(&counts[..], &probs);
    assert!(chi2 < crit, "hwsim: chi2 {chi2:.1} {counts:?}");
}

#[test]
fn every_engine_emits_only_valid_node2vec_walks() {
    let g = DatasetProfile::orkut().stand_in(9, 3);
    let nv = Node2Vec::paper_params();
    let qs = QuerySet::n_queries(&g, 200, 15, 5);

    let reference = ReferenceEngine::new(&g, &nv, SamplerKind::ParallelWrs { k: 16 }, 7).run(&qs);
    let (baseline, _) = CpuEngine::new(&g, &nv, BaselineConfig::default()).run(&qs);
    let hwsim = LightRwSim::new(&g, &nv, LightRwConfig::default())
        .run(&qs)
        .results;

    for (name, results) in [
        ("reference", &reference),
        ("baseline", &baseline),
        ("hwsim", &hwsim),
    ] {
        assert_eq!(results.len(), qs.len(), "{name}");
        for p in results.iter() {
            validate_path(&g, &nv, p)
                .unwrap_or_else(|e| panic!("{name} produced invalid walk {p:?}: {e:?}"));
        }
    }
}

#[test]
fn every_engine_respects_metapath_relations() {
    let g = DatasetProfile::us_patents().stand_in(9, 11);
    let mp = MetaPath::new(vec![0, 1, 0, 1, 0]);
    let qs = QuerySet::n_queries(&g, 300, 5, 2);

    for (name, results) in [
        (
            "reference",
            ReferenceEngine::new(&g, &mp, SamplerKind::SequentialWrs, 3).run(&qs),
        ),
        (
            "baseline",
            CpuEngine::new(&g, &mp, BaselineConfig::default())
                .run(&qs)
                .0,
        ),
        (
            "hwsim",
            LightRwSim::new(&g, &mp, LightRwConfig::default())
                .run(&qs)
                .results,
        ),
    ] {
        for p in results.iter() {
            validate_path(&g, &mp, p)
                .unwrap_or_else(|e| panic!("{name} violated the metapath: {p:?}: {e:?}"));
        }
    }
}

/// Drive any engine through the object-safe session layer with a
/// pseudo-random batch schedule (batch sizes 1..=max_batch).
fn run_batched(
    engine: &dyn WalkEngine,
    qs: &QuerySet,
    rng: &mut SplitMix64,
    max_batch: u64,
) -> WalkResults {
    let mut results = WalkResults::new();
    let mut session = engine.start_session(qs);
    while !session.finished() {
        session.advance(1 + rng.gen_range(max_batch), &mut results);
    }
    results
}

const ALL_SAMPLERS: [SamplerKind; 5] = [
    SamplerKind::InverseTransform,
    SamplerKind::SequentialWrs,
    SamplerKind::ParallelWrs { k: 4 },
    SamplerKind::ParallelWrs { k: 16 },
    SamplerKind::Rejection,
];

#[test]
fn randomized_batches_replay_monolithic_walks_for_every_app_and_sampler() {
    // The acceptance property of the session refactor: for every
    // app × sampler kind and every engine, a batched session (any
    // max_steps schedule) is bit-identical to the seed's monolithic run.
    let g = generators::rmat_dataset(8, 14);
    let mp = MetaPath::new(vec![0, 1, 0, 1, 0]);
    let nv = Node2Vec::paper_params();
    let apps: [&dyn WalkApp; 4] = [&Uniform, &StaticWeighted, &mp, &nv];
    let qs = QuerySet::per_nonisolated_vertex(&g, 6, 4);
    let mut batch_rng = SplitMix64::new(0xBA7C);

    for app in apps {
        // Reference + CPU take every sampler kind...
        for kind in ALL_SAMPLERS {
            let reference = ReferenceEngine::new(&g, app, kind, 21);
            let whole = reference.run(&qs);
            let batched = run_batched(&reference, &qs, &mut batch_rng, 19);
            assert_eq!(whole, batched, "reference {} {:?}", app.name(), kind);

            let cfg = BaselineConfig {
                threads: 3,
                sampler: kind,
                ..Default::default()
            };
            let cpu = CpuEngine::new(&g, app, cfg);
            let (whole, _) = cpu.run(&qs);
            let batched = run_batched(&cpu, &qs, &mut batch_rng, 19);
            assert_eq!(whole, batched, "cpu {} {:?}", app.name(), kind);
        }
        // ...the accelerator is parallel-WRS by construction.
        let sim = LightRwSim::new(&g, app, LightRwConfig::default());
        let whole = sim.run(&qs).results;
        let batched = run_batched(&sim, &qs, &mut batch_rng, 19);
        assert_eq!(whole, batched, "sim {}", app.name());
    }
}

#[test]
fn every_software_engine_samples_the_reference_walks_bit_for_bit() {
    // The RNG-stream contract (DESIGN.md §5): a walk's draws are a pure
    // function of (engine seed, sampler kind, Query::id), so the
    // walker-at-a-time oracle, the reference session, the CPU engine at
    // any lane count and the sharded engine at any shard / executor count
    // all sample the same walks — for every app × sampler kind, fixed
    // and restarting programs, under any `advance` schedule.
    let g = generators::rmat_dataset(8, 14);
    assert!(g.has_prefix_cache(), "shards inherit the cache from here");
    let mp = MetaPath::new(vec![0, 1, 0, 1, 0]);
    let nv = Node2Vec::paper_params();
    let apps: [&dyn WalkApp; 4] = [&Uniform, &StaticWeighted, &mp, &nv];
    let fixed = QuerySet::per_nonisolated_vertex(&g, 6, 4);
    let ppr = fixed.clone().with_program(WalkProgram::ppr(0.2, 9));
    let seed = 21;
    let mut batch_rng = SplitMix64::new(0xBA7C);

    for qs in [&fixed, &ppr] {
        for app in apps {
            for kind in ALL_SAMPLERS {
                let reference = ReferenceEngine::new(&g, app, kind, seed);
                let oracle = reference.run(qs);
                let mut check = |engine: &dyn WalkEngine, what: &str| {
                    let got = run_batched(engine, qs, &mut batch_rng, 64);
                    assert_eq!(
                        got,
                        oracle,
                        "{what} diverged from the oracle: {} {} {kind:?}",
                        qs.program(),
                        app.name()
                    );
                };
                check(&reference, "reference session");
                for threads in [1, 2, 3, 8] {
                    let cfg = BaselineConfig {
                        threads,
                        sampler: kind,
                        seed,
                    };
                    check(
                        &CpuEngine::new(&g, app, cfg),
                        &format!("cpu threads={threads}"),
                    );
                }
                for k in [1, 2, 4] {
                    let engine =
                        ShardedEngine::partition(&g, k, ShardStrategy::Range, app, kind, seed);
                    check(&engine, &format!("sharded k={k}"));
                }
            }
        }
    }
}

#[test]
fn lanes_refill_their_windows_without_changing_a_walk() {
    // More queries than the lanes have slots for, many times over (a
    // window is 64 walkers; DESIGN.md §9): every lane admits, retires
    // and refills for the whole job, dealt interleaved blocks of ids.
    // Small budgets (threads 1 and 3) keep the rounds on the calling
    // thread, where finished walkers wait in their slots for the
    // emitter; a whole-job budget puts two lanes on worker threads
    // (24 000 steps each, above the spawn gate), where finished paths
    // leave through the outboxes, and leaves eight lanes inline.
    let g = generators::rmat_dataset(8, 14);
    let mp = MetaPath::new(vec![0, 1, 0, 1, 0]);
    let nv = Node2Vec::paper_params();
    let apps: [&dyn WalkApp; 4] = [&Uniform, &StaticWeighted, &mp, &nv];
    let qs = QuerySet::n_queries(&g, 1_200, 40, 6);
    let seed = 33;
    let mut batch_rng = SplitMix64::new(0x51D0);
    for app in apps {
        for kind in ALL_SAMPLERS {
            let oracle = ReferenceEngine::new(&g, app, kind, seed).run(&qs);
            for threads in [1, 2, 3, 8] {
                let cfg = BaselineConfig {
                    threads,
                    sampler: kind,
                    seed,
                };
                let engine = CpuEngine::new(&g, app, cfg);
                let what = format!("{} {kind:?} threads={threads}", app.name());
                let got = match threads {
                    2 | 8 => engine.run_collected(&qs),
                    _ => run_batched(&engine, &qs, &mut batch_rng, 2_048),
                };
                assert_eq!(got, oracle, "{what}");
            }
        }
    }
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

    /// Scheduling freedom, keyed by `Query::id`: visiting a lane's
    /// walkers in any order, and splitting a `QuerySet` with `partition`
    /// into separately executed parts, leave every path unchanged.
    #[test]
    fn visit_order_and_partitioning_never_change_a_walk(
        gseed in 0u64..100,
        eseed in 0u64..1000,
        perm_seed in 0u64..u64::MAX,
        parts in 1usize..5,
        kind in 0usize..ALL_SAMPLERS.len(),
        app in 0usize..4,
        budget in 1u64..40,
    ) {
        use lightrw::walker::{VisitEnv, WorkerLane};
        let g = generators::rmat_dataset(7, gseed);
        let mp = MetaPath::new(vec![0, 1, 0, 1, 0]);
        let nv = Node2Vec::paper_params();
        let apps: [&dyn WalkApp; 4] = [&Uniform, &StaticWeighted, &mp, &nv];
        let (app, kind) = (apps[app], ALL_SAMPLERS[kind]);
        let mut qs = QuerySet::n_queries(&g, 48, 8, gseed ^ eseed);
        if eseed % 2 == 1 {
            qs = qs.with_program(WalkProgram::ppr(0.25, 8));
        }
        let oracle = ReferenceEngine::new(&g, app, kind, eseed).run(&qs);

        // One lane over the queries in a shuffled order.
        let mut order = qs.queries().to_vec();
        SplitMix64::new(perm_seed).shuffle(&mut order);
        let mut lane = WorkerLane::new(order.clone(), app, kind, eseed, g.max_degree() as usize);
        let env = VisitEnv { graph: &g, app, program: qs.program() };
        let mut read = 0;
        while !lane.is_idle() {
            lane.advance(budget, env, false);
            while let Some(path) = lane.ready(read) {
                let q = order[read];
                proptest::prop_assert!(path == oracle.path(q.id as usize), "lane, query {}", q.id);
                read += 1;
            }
            lane.release(read);
        }
        proptest::prop_assert!(read == order.len(), "an idle lane has finished every walk");

        // The parts of a partition, each its own session; emission ids are
        // session-local, `Query::id` names the walk.
        let cfg = BaselineConfig { threads: 2, sampler: kind, seed: eseed };
        let engine = CpuEngine::new(&g, app, cfg);
        for part in qs.partition(parts) {
            let got = run_batched(&engine, &part, &mut SplitMix64::new(perm_seed), budget);
            for (q, path) in part.queries().iter().zip(got.iter()) {
                proptest::prop_assert!(path == oracle.path(q.id as usize), "part, query {}", q.id);
            }
        }
    }
}

#[test]
fn sessions_emit_each_path_exactly_once_across_backends() {
    let g = DatasetProfile::youtube().stand_in(8, 5);
    let qs = QuerySet::per_nonisolated_vertex(&g, 5, 3);
    let engines: Vec<Box<dyn WalkEngine + '_>> = vec![
        Box::new(ReferenceEngine::new(
            &g,
            &Uniform,
            SamplerKind::InverseTransform,
            1,
        )),
        Box::new(CpuEngine::new(&g, &Uniform, BaselineConfig::default())),
        Box::new(LightRwSim::new(&g, &Uniform, LightRwConfig::default())),
    ];
    for engine in &engines {
        // Ids must arrive dense and ascending, once each.
        let mut next_expected = 0u32;
        let mut sink = |id: u32, path: &[u32]| {
            assert_eq!(
                id,
                next_expected,
                "{}: out-of-order emission",
                engine.label()
            );
            assert!(!path.is_empty());
            next_expected += 1;
        };
        let mut session = engine.start_session(&qs);
        while !session.finished() {
            session.advance(37, &mut sink);
        }
        assert_eq!(next_expected as usize, qs.len(), "{}", engine.label());
        // Progress counters agree with the emission record.
        assert_eq!(session.paths_completed(), qs.len());
    }

    // The same three sessions interleaved through `multiplex_sessions`
    // (the cluster layer's and the CLI's driver): still dense ascending
    // ids per session, and a finished session is never advanced again.
    let mut emitted = vec![0u32; engines.len()];
    let mut checks: Vec<_> = emitted
        .iter_mut()
        .map(|next| {
            move |id: u32, path: &[u32]| {
                assert_eq!(id, *next, "out-of-order emission under multiplexing");
                assert!(!path.is_empty());
                *next += 1;
            }
        })
        .collect();
    let mut sinks: Vec<&mut dyn WalkSink> =
        checks.iter_mut().map(|c| c as &mut dyn WalkSink).collect();
    let mut sessions: Vec<_> = engines.iter().map(|e| e.start_session(&qs)).collect();
    // `observe` reported each session's last batch, and none after it.
    let mut done = vec![false; engines.len()];
    lightrw::walker::multiplex_sessions(&mut sessions, &mut sinks, 37, |idx, _, progress| {
        assert!(!done[idx], "session {idx} advanced after it finished");
        done[idx] = progress.finished;
    });
    for (idx, session) in sessions.iter().enumerate() {
        let label = engines[idx].label();
        assert!(done[idx] && session.finished(), "{label}");
        assert_eq!(session.paths_completed(), qs.len(), "{label}");
        assert_eq!(emitted[idx] as usize, qs.len(), "{label}");
    }
}

#[test]
fn cancellation_flushes_partial_walks_on_every_backend() {
    let g = DatasetProfile::youtube().stand_in(8, 9);
    let qs = QuerySet::per_nonisolated_vertex(&g, 60, 6);
    let engines: Vec<Box<dyn WalkEngine + '_>> = vec![
        Box::new(ReferenceEngine::new(
            &g,
            &Uniform,
            SamplerKind::InverseTransform,
            2,
        )),
        Box::new(CpuEngine::new(&g, &Uniform, BaselineConfig::default())),
        Box::new(LightRwSim::new(&g, &Uniform, LightRwConfig::default())),
    ];
    for engine in &engines {
        let mut results = WalkResults::new();
        let mut session = engine.start_session(&qs);
        session.advance(50, &mut results);
        let progress = session.cancel(&mut results);
        assert!(progress.finished, "{}", engine.label());
        assert_eq!(results.len(), qs.len(), "{}", engine.label());
        for p in results.iter() {
            validate_path(&g, &Uniform, p)
                .unwrap_or_else(|e| panic!("{}: invalid partial walk: {e:?}", engine.label()));
        }
        // Cancelled early: strictly fewer steps than the full workload.
        assert!(
            results.total_steps() < qs.total_steps(),
            "{}",
            engine.label()
        );
    }
}

#[test]
fn empty_batch_cancel_is_identical_across_backends() {
    // Regression pin for the cancel-before-first-`advance` contract
    // (DESIGN.md §6): with zero batches executed, cancel must flush one
    // start-vertex-only path per query — the *same* result set on every
    // backend, with identical BatchProgress, zero steps, and zero model
    // time where a timing model exists. The serving layer relies on this
    // when a queued job is cancelled before its first scheduler turn.
    let g = DatasetProfile::youtube().stand_in(8, 2);
    let qs = QuerySet::per_nonisolated_vertex(&g, 30, 7);
    let engines: Vec<Box<dyn WalkEngine + '_>> = vec![
        Box::new(ReferenceEngine::new(
            &g,
            &Uniform,
            SamplerKind::InverseTransform,
            4,
        )),
        Box::new(CpuEngine::new(&g, &Uniform, BaselineConfig::default())),
        Box::new(LightRwSim::new(&g, &Uniform, LightRwConfig::default())),
    ];
    let mut flushes: Vec<WalkResults> = Vec::new();
    for engine in &engines {
        let mut session = engine.start_session(&qs);
        let mut results = WalkResults::new();
        let progress = session.cancel(&mut results);
        let label = engine.label();
        assert!(progress.finished, "{label}");
        assert_eq!(progress.steps, 0, "{label}");
        assert_eq!(progress.paths_completed, qs.len(), "{label}");
        assert_eq!(session.steps_done(), 0, "{label}");
        assert_eq!(session.paths_completed(), qs.len(), "{label}");
        if let Some(model_s) = session.model_seconds() {
            assert_eq!(model_s, 0.0, "{label}: no work, no model time");
        }
        // Idempotent: a second cancel emits nothing more.
        let again = session.cancel(&mut results);
        assert_eq!(again.paths_completed, 0, "{label}");
        assert_eq!(results.len(), qs.len(), "{label}");
        flushes.push(results);
    }
    // The flush is bit-identical across backends: [start] per query.
    assert_eq!(flushes[0], flushes[1]);
    assert_eq!(flushes[1], flushes[2]);
    for (q, p) in qs.queries().iter().zip(flushes[0].iter()) {
        assert_eq!(p, &[q.start]);
    }
}

/// Validate a program walk: every hop is either a sampleable edge (the
/// plain `validate_path` rule) or a teleport back to the walk's start
/// vertex (restart draws and dead-end restarts re-enter there), and the
/// path respects the step cap.
fn validate_program_path(g: &Graph, app: &dyn WalkApp, path: &[u32], start: u32, cap: u32) {
    assert!(!path.is_empty() && path[0] == start);
    assert!(path.len() as u32 <= cap + 1, "cap exceeded: {path:?}");
    let mut seg_start = 0usize;
    for i in 1..path.len() {
        if path[i] == start && !g.has_edge(path[i - 1], path[i]) {
            // Teleport: the segment so far must itself be a valid walk.
            validate_path(g, app, &path[seg_start..i]).unwrap();
            seg_start = i;
        }
    }
    validate_path(g, app, &path[seg_start..]).unwrap();
}

#[test]
fn program_sessions_replay_monolithic_runs_on_every_engine() {
    // The batching contract extends to every program shape: restart
    // draws, dead-end restarts and target termination consume the RNG in
    // a fixed per-attempt order (DESIGN.md §8), so any max_steps schedule
    // reproduces the monolithic run bit for bit on all three backends.
    let g = generators::rmat_dataset(8, 14);
    let targets = std::sync::Arc::new(lightrw::walker::NeighborBitset::from_members(
        g.num_vertices(),
        (0..g.num_vertices()).step_by(17),
    ));
    let programs = [
        WalkProgram::ppr(0.2, 9),
        WalkProgram::ppr(1.0, 4),
        WalkProgram::fixed(9).with_dead_end(DeadEndPolicy::Restart),
        WalkProgram::ppr(0.3, 12).with_dead_end(DeadEndPolicy::Restart),
        WalkProgram::fixed(20).with_targets(std::sync::Arc::clone(&targets)),
        WalkProgram::ppr(0.15, 30).with_targets(targets),
    ];
    let nv = Node2Vec::paper_params();
    let apps: [&dyn WalkApp; 2] = [&Uniform, &nv];
    let mut batch_rng = SplitMix64::new(0x5150);
    for program in &programs {
        let qs = QuerySet::per_nonisolated_vertex(&g, 1, 4).with_program(program.clone());
        for app in apps {
            for kind in [
                SamplerKind::InverseTransform,
                SamplerKind::ParallelWrs { k: 8 },
            ] {
                let reference = ReferenceEngine::new(&g, app, kind, 21);
                let whole = reference.run(&qs);
                let batched = run_batched(&reference, &qs, &mut batch_rng, 7);
                assert_eq!(whole, batched, "reference {program} {}", app.name());
                for (q, p) in qs.queries().iter().zip(whole.iter()) {
                    validate_program_path(&g, app, p, q.start, q.length);
                }

                let cfg = BaselineConfig {
                    threads: 3,
                    sampler: kind,
                    ..Default::default()
                };
                let cpu = CpuEngine::new(&g, app, cfg);
                let (whole, _) = cpu.run(&qs);
                let batched = run_batched(&cpu, &qs, &mut batch_rng, 7);
                assert_eq!(whole, batched, "cpu {program} {}", app.name());
            }
            let sim = LightRwSim::new(&g, app, LightRwConfig::default());
            let whole = sim.run(&qs).results;
            let batched = run_batched(&sim, &qs, &mut batch_rng, 7);
            assert_eq!(whole, batched, "sim {program} {}", app.name());
            for (q, p) in qs.queries().iter().zip(whole.iter()) {
                validate_program_path(&g, app, p, q.start, q.length);
            }
        }
    }
}

#[test]
fn fixed_program_query_sets_are_the_pre_program_workload() {
    // The acceptance pin for the redesign: a QuerySet built by the
    // length-based constructors carries WalkProgram::fixed and produces
    // byte-identical results to any explicitly-attached fixed program —
    // there is no hidden behavioral fork between the two spellings.
    let g = generators::rmat_dataset(8, 3);
    let implicit = QuerySet::per_nonisolated_vertex(&g, 6, 4);
    let explicit = implicit.clone().with_program(WalkProgram::fixed(6));
    assert!(implicit.program().is_fixed_length());
    for engine in [
        Box::new(ReferenceEngine::new(
            &g,
            &Uniform,
            SamplerKind::InverseTransform,
            9,
        )) as Box<dyn WalkEngine + '_>,
        Box::new(CpuEngine::new(&g, &Uniform, BaselineConfig::default())),
        Box::new(LightRwSim::new(&g, &Uniform, LightRwConfig::default())),
    ] {
        assert_eq!(
            engine.run_collected(&implicit),
            engine.run_collected(&explicit),
            "{}",
            engine.label()
        );
    }
}

#[test]
fn ppr_walks_respect_the_cap_and_teleport_home_on_every_engine() {
    let g = DatasetProfile::youtube().stand_in(8, 4);
    let program = WalkProgram::ppr(0.25, 14);
    let qs = QuerySet::n_queries(&g, 200, 1, 6).with_program(program);
    let nv = Node2Vec::paper_params();
    let engines: Vec<Box<dyn WalkEngine + '_>> = vec![
        Box::new(ReferenceEngine::new(
            &g,
            &nv,
            SamplerKind::ParallelWrs { k: 8 },
            3,
        )),
        Box::new(CpuEngine::new(&g, &nv, BaselineConfig::default())),
        Box::new(LightRwSim::new(&g, &nv, LightRwConfig::default())),
    ];
    for engine in &engines {
        let results = engine.run_collected(&qs);
        assert_eq!(results.len(), qs.len(), "{}", engine.label());
        let mut teleports = 0usize;
        for (q, p) in qs.queries().iter().zip(results.iter()) {
            validate_program_path(&g, &nv, p, q.start, q.length);
            teleports += (1..p.len())
                .filter(|&i| p[i] == q.start && !g.has_edge(p[i - 1], p[i]))
                .count();
        }
        // With α = 0.25 over 200 capped walks, restarts are plentiful.
        assert!(
            teleports > 50,
            "{}: only {teleports} teleports",
            engine.label()
        );
    }
}

#[test]
fn packed_graph_walks_are_bit_identical_to_in_memory_for_every_combo() {
    // The out-of-core acceptance pin (DESIGN.md §10): a graph streamed
    // through the external-sort pack pipeline and loaded back — mmap'd
    // *and* via the heap fallback — must drive every engine to walks
    // bit-identical to the same recipe built in memory, for every
    // app × sampler kind. The chunk size is tiny so the pack spills and
    // merges runs even at this scale; a divergence anywhere in the
    // record codec, merge order, prefix reconstruction or the
    // borrowed-section adjacency views would break some combination.
    use lightrw::graph::pack::{pack_rmat_dataset, PackOptions};
    use lightrw::graph::packed::load_packed;
    use lightrw::graph::LoadMode;

    let (scale, seed) = (8u32, 14u64);
    let mem = generators::rmat_dataset(scale, seed);
    let path = std::env::temp_dir().join(format!(
        "lightrw_agreement_{}_{scale}_{seed}.lrwpak",
        std::process::id()
    ));
    let opts = PackOptions {
        chunk_records: 512,
        ..Default::default()
    };
    let stats = pack_rmat_dataset(scale, seed, &path, &opts).expect("pack rmat");
    assert!(stats.runs > 1, "chunk 512 must force spilled runs");

    let auto = load_packed(&path, LoadMode::Auto).expect("mmap load");
    let heap = load_packed(&path, LoadMode::Heap).expect("heap load");
    std::fs::remove_file(&path).expect("remove temp pack file");
    #[cfg(target_os = "linux")]
    assert!(auto.mapped, "Auto must map on Linux");
    assert!(!heap.mapped);
    assert!(
        auto.graph.has_prefix_cache() && heap.graph.has_prefix_cache(),
        "the packed prefix sections must load as a live cache"
    );

    let mp = MetaPath::new(vec![0, 1, 0, 1, 0]);
    let nv = Node2Vec::paper_params();
    let apps: [&dyn WalkApp; 4] = [&Uniform, &StaticWeighted, &mp, &nv];
    let qs = QuerySet::per_nonisolated_vertex(&mem, 6, 4);
    for app in apps {
        for kind in ALL_SAMPLERS {
            let expected = ReferenceEngine::new(&mem, app, kind, 21).run(&qs);
            for (label, g) in [("mmap", &auto.graph), ("heap", &heap.graph)] {
                let got = ReferenceEngine::new(g, app, kind, 21).run(&qs);
                assert_eq!(expected, got, "reference/{label} {} {:?}", app.name(), kind);
            }

            let cfg = BaselineConfig {
                threads: 3,
                sampler: kind,
                ..Default::default()
            };
            let (expected, _) = CpuEngine::new(&mem, app, cfg).run(&qs);
            for (label, g) in [("mmap", &auto.graph), ("heap", &heap.graph)] {
                let (got, _) = CpuEngine::new(g, app, cfg).run(&qs);
                assert_eq!(expected, got, "cpu/{label} {} {:?}", app.name(), kind);
            }
        }
        let expected = LightRwSim::new(&mem, app, LightRwConfig::default())
            .run(&qs)
            .results;
        for (label, g) in [("mmap", &auto.graph), ("heap", &heap.graph)] {
            let got = LightRwSim::new(g, app, LightRwConfig::default())
                .run(&qs)
                .results;
            assert_eq!(expected, got, "sim/{label} {}", app.name());
        }
    }
}

#[test]
fn step_counts_agree_between_results_and_reports() {
    let g = DatasetProfile::youtube().stand_in(9, 1);
    let qs = QuerySet::per_nonisolated_vertex(&g, 6, 4);

    let sim = LightRwSim::new(&g, &Uniform, LightRwConfig::default()).run(&qs);
    assert_eq!(sim.steps, sim.results.total_steps());

    let (res, stats) = CpuEngine::new(&g, &Uniform, BaselineConfig::default()).run(&qs);
    assert_eq!(stats.steps, res.total_steps());
}
