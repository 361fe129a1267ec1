//! Whole-stack integration: graph I/O → accelerator → embeddings →
//! link prediction, plus determinism of the full pipeline.

use lightrw::prelude::*;
use lightrw_embed::{auc, holdout_split, SgnsConfig, SgnsTrainer};
use lightrw_repro as _;

#[test]
fn binary_graph_roundtrip_preserves_walk_behaviour() {
    use lightrw::graph::{pack::pack_graph, packed::load_packed};

    let g = DatasetProfile::youtube().stand_in(9, 77);
    let path = std::env::temp_dir().join(format!("lightrw_e2e_{}.lrwpak", std::process::id()));
    pack_graph(&g, false, &path).unwrap();
    let g2 = load_packed(&path, lightrw::graph::LoadMode::Auto)
        .unwrap()
        .graph;
    assert_eq!(g, g2);

    // Same seed + same graph image ⇒ identical simulated walks.
    let qs = QuerySet::per_nonisolated_vertex(&g, 8, 5);
    let a = LightRwSim::new(&g, &Uniform, LightRwConfig::default()).run(&qs);
    let b = LightRwSim::new(&g2, &Uniform, LightRwConfig::default()).run(&qs);
    assert_eq!(a.results, b.results);
    assert_eq!(a.cycles, b.cycles);
    std::fs::remove_file(&path).ok();
}

#[test]
fn full_pipeline_is_deterministic() {
    let g = DatasetProfile::orkut().stand_in(9, 5);
    let nv = Node2Vec::paper_params();
    let qs = QuerySet::per_nonisolated_vertex(&g, 12, 9);
    let run = || {
        let sim = LightRwSim::new(&g, &nv, LightRwConfig::default()).run(&qs);
        let emb = SgnsTrainer::new(SgnsConfig {
            dim: 8,
            epochs: 1,
            ..Default::default()
        })
        .train(&sim.results, g.num_vertices());
        (sim.cycles, sim.results, emb.cosine(0, 1))
    };
    let (c1, r1, s1) = run();
    let (c2, r2, s2) = run();
    assert_eq!(c1, c2);
    assert_eq!(r1, r2);
    assert_eq!(s1, s2);
}

#[test]
fn accelerated_walks_power_link_prediction() {
    // End to end on a structured graph: hold out edges, walk on the
    // simulated accelerator, train, and beat chance clearly.
    let g = {
        use lightrw::rng::{Rng, SplitMix64};
        let mut rng = SplitMix64::new(31);
        let (communities, size) = (12usize, 28usize);
        let mut b = GraphBuilder::undirected().num_vertices(communities * size);
        for c in 0..communities {
            let base = (c * size) as u32;
            for i in 0..size as u32 {
                for j in (i + 1)..size as u32 {
                    if rng.gen_bool(0.35) {
                        b = b.edge(base + i, base + j);
                    }
                }
            }
            let next = (((c + 1) % communities) * size) as u32;
            b = b.edge(base, next);
        }
        b.build()
    };
    let split = holdout_split(&g, 0.15, 3);
    let nv = Node2Vec::paper_params();
    let qs = QuerySet::per_nonisolated_vertex(&split.train, 20, 1);
    let sim = LightRwSim::new(&split.train, &nv, LightRwConfig::default()).run(&qs);
    let emb = SgnsTrainer::new(SgnsConfig {
        dim: 24,
        window: 4,
        epochs: 2,
        ..Default::default()
    })
    .train(&sim.results, split.train.num_vertices());
    let pos: Vec<f32> = split
        .test_pos
        .iter()
        .map(|&(u, v)| emb.cosine(u, v))
        .collect();
    let neg: Vec<f32> = split
        .test_neg
        .iter()
        .map(|&(u, v)| emb.cosine(u, v))
        .collect();
    let score = auc(&pos, &neg);
    assert!(score > 0.7, "AUC {score:.3} too close to chance");
}

#[test]
fn edge_list_file_to_accelerator() {
    // Text ingestion path: write an edge list, load it, walk it.
    let text = "# toy graph\n0 1 3\n1 2 1\n2 0 2\n2 3 5\n3 0 1\n";
    let g = lightrw::graph::io::read_edge_list(text.as_bytes(), true).unwrap();
    let qs = QuerySet::from_starts(vec![0, 1, 2, 3], 10);
    let report = LightRw::new(&g, &StaticWeighted, LightRwConfig::single_instance()).run(&qs);
    assert_eq!(report.sim.results.len(), 4);
    for p in report.sim.results.iter() {
        lightrw::walker::path::validate_path(&g, &StaticWeighted, p).unwrap();
    }
    assert!(report.sim.steps > 0);
}
