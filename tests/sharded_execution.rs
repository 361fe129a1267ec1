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
//!   (range cuts, or a walk-aware owner table) drives the engine to the
//!   same walks as an in-memory partition of the same graph, and a file
//!   with section blocks the loader does not read walks the same.

use lightrw::graph::pack::pack_graph_with;
use lightrw::graph::packed::{load_packed, LoadMode};
use lightrw::graph::{generators, partition_graph, ShardStrategy};
use lightrw::prelude::*;
use lightrw_repro as _;

const ALL_SAMPLERS: [SamplerKind; 5] = [
    SamplerKind::InverseTransform,
    SamplerKind::SequentialWrs,
    SamplerKind::ParallelWrs { k: 4 },
    SamplerKind::ParallelWrs { k: 16 },
    SamplerKind::Rejection,
];

#[test]
fn single_shard_is_bit_identical_to_the_reference_for_every_app_and_sampler() {
    // Rejection needs the prefix cache on both sides for its envelope to
    // draw the same stream; build it once on the graph both walk.
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
    // budgets, for a second-order app (its records are priced with the
    // prev row). The baseline is the reference oracle, which shares
    // nothing with the lanes but the step kernel.
    let mut g = generators::rmat_dataset(8, 14);
    g.build_prefix_cache();
    let nv = Node2Vec::paper_params();
    let qs = QuerySet::n_queries(&g, 48, 12, 5);
    let baseline = ReferenceEngine::new(&g, &nv, SamplerKind::InverseTransform, 13).run(&qs);
    for strategy in [
        ShardStrategy::Range,
        ShardStrategy::Fennel,
        ShardStrategy::Walk,
    ] {
        for (k, flush) in [(2, 1), (3, 16), (4, 64), (7, 5)] {
            let kind = SamplerKind::InverseTransform;
            let engine =
                ShardedEngine::partition(&g, k, strategy, &nv, kind, 13).with_flush_budget(flush);
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
    // the range cuts and a walk-aware owner table, so the CLI's
    // "partition from file" path is exactly the in-memory engine.
    let mut g = generators::rmat_dataset(8, 14);
    g.build_prefix_cache();
    let qs = QuerySet::n_queries(&g, 48, 12, 5);
    let expected = ShardedEngine::new(
        &g,
        partition_graph(&g, 2, ShardStrategy::Range),
        &StaticWeighted,
        SamplerKind::InverseTransform,
        9,
    )
    .run_collected(&qs);

    for strategy in [ShardStrategy::Range, ShardStrategy::Walk] {
        let path = temp_pack(strategy.name());
        pack_graph_with(&g, false, 2, strategy, &path).expect("pack sharded graph");
        let loaded = load_packed(&path, LoadMode::Heap).expect("load sharded graph");
        let _ = std::fs::remove_file(&path);
        let sharded = loaded.partition.expect("the file carries its partition");
        assert_eq!(sharded.k(), 2);
        assert!(
            loaded.relabeling.is_none(),
            "packed without --relabel keeps vertex ids"
        );
        let got = ShardedEngine::new(
            &loaded.graph,
            sharded,
            &StaticWeighted,
            SamplerKind::InverseTransform,
            9,
        )
        .run_collected(&qs);
        assert_eq!(got, expected, "strategy={}", strategy.name());
    }
}

/// Files written before partitions became owner tables carried a block
/// of per-shard sections at ids 1024 and up. The loader skips ids it does
/// not read, so such a file loads to the same graph and partition and
/// walks the same. Here one such entry per shard, each naming a payload
/// appended to the file, is spliced into a fresh pack.
#[test]
fn section_blocks_the_loader_does_not_read_leave_the_walks_alone() {
    let g = generators::rmat_dataset(8, 14);
    let qs = QuerySet::n_queries(&g, 48, 12, 5);
    let nv = Node2Vec::paper_params();
    let path = temp_pack("old_blocks");
    pack_graph_with(&g, false, 3, ShardStrategy::Fennel, &path).expect("pack sharded graph");
    let fresh = std::fs::read(&path).unwrap();

    let word = |at: usize| u64::from_le_bytes(fresh[at..at + 8].try_into().unwrap());
    let count = word(40) as usize;
    let table_end = 48 + 24 * count;
    let payload = (g.num_vertices() as u64 + 1) * 8;
    let extra = [1024u64, 1040, 1056];
    let grown = 24 * extra.len() as u64;
    let mut old = fresh[..40].to_vec();
    old.extend_from_slice(&((count + extra.len()) as u64).to_le_bytes());
    for e in (48..table_end).step_by(24) {
        old.extend_from_slice(&fresh[e..e + 8]);
        old.extend_from_slice(&(word(e + 8) + grown).to_le_bytes());
        old.extend_from_slice(&fresh[e + 16..e + 24]);
    }
    for (i, id) in extra.iter().enumerate() {
        let offset = fresh.len() as u64 + grown + i as u64 * payload;
        for w in [*id, offset, payload] {
            old.extend_from_slice(&w.to_le_bytes());
        }
    }
    old.extend_from_slice(&fresh[table_end..]);
    old.resize(old.len() + extra.len() * payload as usize, 0xA5);
    std::fs::write(&path, &old).unwrap();

    let loaded = load_packed(&path, LoadMode::Heap);
    let _ = std::fs::remove_file(&path);
    let loaded = loaded.expect("extra section ids are skipped");
    assert_eq!(loaded.sections.len(), count + extra.len());
    assert_eq!(loaded.graph, g);
    let sharded = loaded.partition.expect("the file carries its partition");
    assert_eq!(sharded, partition_graph(&g, 3, ShardStrategy::Fennel));
    let kind = SamplerKind::InverseTransform;
    let expected = ReferenceEngine::new(&g, &nv, kind, 9).run(&qs);
    let got = ShardedEngine::new(&loaded.graph, sharded, &nv, kind, 9).run_collected(&qs);
    assert_eq!(got, expected);
}

fn temp_pack(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "lightrw_sharded_execution_{}_{name}.lrwpak",
        std::process::id()
    ))
}
