//! Integration pins for the sharded execution path (DESIGN.md §11).
//!
//! The unit suite in `lightrw::sharded` pins the engine's internal
//! invariants; this suite pins the *cross-layer* contracts:
//!
//! - **k = 1 bit-identity**: a single-shard `ShardedEngine` reproduces
//!   the `ReferenceEngine` walk for walk, for every app × sampler kind —
//!   the sharded path adds no sampling of its own.
//! - **Partition independence**: shard count, partition strategy and
//!   flush budget never change sampled walks, because every walker owns
//!   a private RNG stream that travels with it across hand-offs.
//! - **Schedule independence**: the executor loop, which interleaves
//!   three shard lanes, reproduces the walker-at-a-time
//!   `ReferenceEngine::run` oracle bit for bit for every app × sampler
//!   kind.
//! - **Packed round-trip**: a partition loaded from an `LRWPAK01` file
//!   (range cuts, or a walk-aware owner table with compacted shard
//!   lanes) drives the engine to the same walks as an in-memory
//!   partition of the same graph.

use lightrw::graph::pack::pack_graph_with;
use lightrw::graph::packed::{load_packed_sharded, LoadMode};
use lightrw::graph::{generators, partition_graph, ShardStrategy};
use lightrw::prelude::*;
use lightrw_repro as _;

const ALL_SAMPLERS: [SamplerKind; 7] = [
    SamplerKind::InverseTransform,
    SamplerKind::Alias,
    SamplerKind::SequentialWrs,
    SamplerKind::ParallelWrs { k: 4 },
    SamplerKind::ParallelWrs { k: 16 },
    SamplerKind::Rejection,
    SamplerKind::AExpJ,
];

#[test]
fn single_shard_is_bit_identical_to_the_reference_for_every_app_and_sampler() {
    // Rejection needs the prefix cache on both sides for its envelope to
    // draw the same stream; build it once on the source graph so the
    // shard sub-CSRs inherit it.
    let mut g = generators::rmat_dataset(8, 14);
    g.build_prefix_cache();
    let mp = MetaPath::new(vec![0, 1, 0, 1, 0]);
    let nv = Node2Vec::paper_params();
    let apps: [&dyn WalkApp; 4] = [&Uniform, &StaticWeighted, &mp, &nv];
    let qs = QuerySet::per_nonisolated_vertex(&g, 6, 4);

    for app in apps {
        for kind in ALL_SAMPLERS {
            let expected = ReferenceEngine::new(&g, app, kind, 21).run(&qs);
            let engine = ShardedEngine::partition(&g, 1, ShardStrategy::Range, app, kind, 21);
            let got = engine.run_collected(&qs);
            assert_eq!(
                got,
                expected,
                "k=1 sharded diverged from reference: {} / {}",
                app.name(),
                kind.name()
            );
        }
    }
}

#[test]
fn partition_strategy_shard_count_and_flush_budget_never_change_walks() {
    // Per-walker RNG streams make the sampled walks independent of
    // *where* each vertex lives and *when* migrants flush — pin it
    // across both partition strategies, several shard counts and flush
    // budgets, for a second-order app (hand-offs carry prev-row
    // payloads). The baseline is the reference oracle, which shares
    // nothing with the lanes but the step kernel.
    let mut g = generators::rmat_dataset(8, 14);
    g.build_prefix_cache();
    let nv = Node2Vec::paper_params();
    let qs = QuerySet::n_queries(&g, 48, 12, 5);
    let baseline = ReferenceEngine::new(&g, &nv, SamplerKind::Alias, 13).run(&qs);
    for strategy in [
        ShardStrategy::Range,
        ShardStrategy::Fennel,
        ShardStrategy::Walk,
    ] {
        for (k, flush) in [(2, 1), (3, 16), (4, 64), (7, 5)] {
            let engine = ShardedEngine::partition(&g, k, strategy, &nv, SamplerKind::Alias, 13)
                .with_flush_budget(flush);
            let got = engine.run_collected(&qs);
            assert_eq!(
                got,
                baseline,
                "walks changed under {} k={k} flush={flush}",
                strategy.name()
            );
        }
    }
}

#[test]
fn parallel_executors_are_bit_identical_to_the_reference_engine() {
    // The executor loop retires walkers and delivers hand-off batches in
    // lane order, not query order, yet the sampled walks must equal the
    // walker-at-a-time oracle exactly — for every app × sampler kind,
    // because each walker's RNG stream is a pure function of its query,
    // not of the schedule.
    let mut g = generators::rmat_dataset(8, 14);
    g.build_prefix_cache();
    let mp = MetaPath::new(vec![0, 1, 0, 1, 0]);
    let nv = Node2Vec::paper_params();
    let apps: [&dyn WalkApp; 4] = [&Uniform, &StaticWeighted, &mp, &nv];
    let qs = QuerySet::per_nonisolated_vertex(&g, 6, 4);

    for app in apps {
        for kind in ALL_SAMPLERS {
            let reference = ReferenceEngine::new(&g, app, kind, 21).run(&qs);
            let engine = ShardedEngine::partition(&g, 3, ShardStrategy::Range, app, kind, 21);
            let got = engine.run_collected(&qs);
            assert_eq!(
                got,
                reference,
                "executor schedule changed walks: {} / {}",
                app.name(),
                kind.name()
            );
        }
    }
}

#[test]
fn packed_shard_partitions_reproduce_in_memory_partitions() {
    // Pack → load → walk must equal partition-in-memory → walk, for both
    // the range cuts and a walk-aware owner table (whose shards carry
    // their own compacted lanes), so the CLI's "partition from file" fast
    // path is exactly the in-memory engine.
    let mut g = generators::rmat_dataset(8, 14);
    g.build_prefix_cache();
    let qs = QuerySet::n_queries(&g, 48, 12, 5);
    let expected = ShardedEngine::new(
        partition_graph(&g, 2, ShardStrategy::Range),
        &StaticWeighted,
        SamplerKind::InverseTransform,
        9,
    )
    .run_collected(&qs);

    for strategy in [ShardStrategy::Range, ShardStrategy::Walk] {
        let path = std::env::temp_dir().join(format!(
            "lightrw_sharded_execution_{}_{}.lrwpak",
            std::process::id(),
            strategy.name()
        ));
        pack_graph_with(&g, false, 2, strategy, &path).expect("pack sharded graph");
        let loaded = load_packed_sharded(&path, LoadMode::Heap).expect("load sharded graph");
        let _ = std::fs::remove_file(&path);
        assert_eq!(loaded.sharded.k(), 2);
        assert!(
            loaded.relabeling.is_none(),
            "packed without --relabel keeps vertex ids"
        );
        let got = ShardedEngine::new(
            loaded.sharded,
            &StaticWeighted,
            SamplerKind::InverseTransform,
            9,
        )
        .run_collected(&qs);
        assert_eq!(got, expected, "strategy={}", strategy.name());
    }
}
