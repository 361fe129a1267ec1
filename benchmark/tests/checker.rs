//! The checker is live: fed corrupted results, it flags each corruption.

use lightrw::graph::generators;
use lightrw::graph::{Graph, VertexId};
use lightrw::walker::{QuerySet, ReferenceEngine, SamplerKind, StaticWeighted, WalkEngineExt};
use lightrw_benchmark::check::{check_records, digest, Fault, RecordingSink};

type Records = Vec<(u32, Vec<VertexId>)>;

fn genuine() -> (Graph, QuerySet, Records) {
    let g = generators::rmat_dataset(9, 11);
    let qs = QuerySet::n_queries(&g, 128, 30, 5);
    let engine = ReferenceEngine::new(&g, &StaticWeighted, SamplerKind::InverseTransform, 3);
    let mut sink = RecordingSink::new();
    engine.stream_into(&qs, u64::MAX, &mut sink);
    let records = sink.records().map(|(id, p)| (id, p.to_vec())).collect();
    (g, qs, records)
}

fn check(g: &Graph, qs: &QuerySet, records: &Records) -> (u64, Vec<(u32, Fault)>) {
    let report = check_records(g, qs, records.iter().map(|(id, p)| (*id, p.as_slice())));
    assert_eq!(report.attempted, qs.len() as u64);
    (report.failed, report.examples)
}

/// A record whose walk took at least `steps` steps.
fn long_walk(records: &Records, steps: usize) -> usize {
    records
        .iter()
        .position(|(_, p)| p.len() > steps)
        .expect("some walk is long enough")
}

#[test]
fn genuine_results_pass() {
    let (g, qs, records) = genuine();
    assert_eq!(check(&g, &qs, &records), (0, vec![]));
}

#[test]
fn a_dropped_path_is_missing() {
    let (g, qs, mut records) = genuine();
    records.remove(40);
    assert_eq!(check(&g, &qs, &records), (1, vec![(40, Fault::Missing)]));
}

#[test]
fn a_duplicated_path_is_flagged_once() {
    let (g, qs, mut records) = genuine();
    let dup = records[17].clone();
    records.insert(18, dup);
    assert_eq!(check(&g, &qs, &records), (1, vec![(17, Fault::Duplicated)]));
}

#[test]
fn a_reordered_path_is_out_of_order() {
    let (g, qs, mut records) = genuine();
    records.swap(60, 61);
    // 61 now arrives before 60; 60 is the one that arrived late.
    assert_eq!(check(&g, &qs, &records), (1, vec![(60, Fault::OutOfOrder)]));
}

#[test]
fn a_hop_that_is_not_an_edge_is_flagged() {
    let (g, qs, mut records) = genuine();
    let i = long_walk(&records, 3);
    let path = &mut records[i].1;
    let stranger = (0..g.num_vertices() as VertexId)
        .find(|&v| !g.has_edge(path[1], v))
        .expect("no vertex is adjacent to everything");
    path[2] = stranger;
    let (failed, examples) = check(&g, &qs, &records);
    assert_eq!(failed, 1);
    assert_eq!(examples, vec![(records[i].0, Fault::NonEdge)]);
}

#[test]
fn a_vertex_the_graph_does_not_have_is_not_an_edge() {
    let (g, qs, mut records) = genuine();
    let i = long_walk(&records, 1);
    records[i].1[1] = g.num_vertices() as VertexId + 7;
    assert_eq!(
        check(&g, &qs, &records).1,
        vec![(records[i].0, Fault::NonEdge)]
    );
}

#[test]
fn a_wrong_start_and_a_cut_walk_are_flagged() {
    let (g, qs, mut records) = genuine();
    let i = long_walk(&records, 5);
    records[i].1.truncate(3); // stops at a vertex that has out-edges
    let j = (i + 1) % records.len();
    records[j].1[0] = records[j].1[0].wrapping_add(1);
    let (failed, examples) = check(&g, &qs, &records);
    assert_eq!(failed, 2);
    assert!(examples.contains(&(records[i].0, Fault::ShortWithoutDeadEnd)));
    assert!(examples.contains(&(records[j].0, Fault::WrongStart)));
}

#[test]
fn a_walk_past_its_budget_and_a_stray_id_are_flagged() {
    let (g, qs, mut records) = genuine();
    let i = long_walk(&records, 30);
    let (last, before) = (records[i].1[30], records[i].1[29]);
    // Bounce along the final edge if it runs both ways; otherwise the extra
    // hop is a non-edge, which is just as much a failure.
    records[i].1.extend([before, last]);
    records.push((9999, vec![0]));
    let (failed, examples) = check(&g, &qs, &records);
    assert_eq!(failed, 2);
    assert!(examples.iter().any(|&(id, _)| id == records[i].0));
    assert!(examples.contains(&(9999, Fault::UnknownId)));
}

#[test]
fn the_digest_changes_with_any_of_these() {
    let (_, _, records) = genuine();
    let collect = |records: &Records| {
        let mut sink = RecordingSink::new();
        for (id, p) in records {
            lightrw::walker::WalkSink::emit(&mut sink, *id, p);
        }
        digest(&sink.paths)
    };
    let reference = collect(&records);
    let mut dropped = records.clone();
    dropped.remove(3);
    let mut swapped = records.clone();
    swapped.swap(8, 9);
    let mut edited = records.clone();
    let i = long_walk(&edited, 2);
    edited[i].1[1] ^= 1;
    for corrupted in [dropped, swapped, edited] {
        assert_ne!(collect(&corrupted), reference);
    }
}
