//! Graph construction from edge lists.

use crate::csr::{Graph, VertexId};
use crate::draws::{for_each_pair_draw, PairDraw, Tier};
use lightrw_rng::{Rng, SplitMix64};

/// Builder for [`Graph`].
///
/// Collects edges (with optional per-edge weight and relation label),
/// then sorts, deduplicates and packs them into CSR. Undirected builders
/// mirror every edge with identical weight/label, matching the paper's
/// representation of undirected graphs as two directed edges (§2.1).
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    directed: bool,
    min_vertices: usize,
    edges: Vec<Record>,
    vertex_labels: Vec<u8>,
    prefix_cache: bool,
}

impl GraphBuilder {
    /// Start a directed graph.
    pub fn directed() -> Self {
        Self {
            directed: true,
            min_vertices: 0,
            edges: Vec::new(),
            vertex_labels: Vec::new(),
            prefix_cache: true,
        }
    }

    /// Start an undirected graph (every edge stored in both directions).
    pub fn undirected() -> Self {
        Self {
            directed: false,
            ..Self::directed()
        }
    }

    /// Ensure the graph has at least `n` vertices even if some are isolated.
    pub fn num_vertices(mut self, n: usize) -> Self {
        self.min_vertices = self.min_vertices.max(n);
        self
    }

    /// Control whether [`GraphBuilder::build`] computes the static-weight
    /// prefix cache (on by default; see [`Graph::build_prefix_cache`] and
    /// DESIGN.md §5). Disable to save the 8 bytes/edge when no engine will
    /// run static-weight or metapath walks on the graph.
    pub fn prefix_cache(mut self, enabled: bool) -> Self {
        self.prefix_cache = enabled;
        self
    }

    /// Add one edge with unit weight and no relation label.
    pub fn edge(mut self, u: VertexId, v: VertexId) -> Self {
        self.push_edge(u, v, 1, 0);
        self
    }

    /// Add many unit-weight edges.
    pub fn edges<I: IntoIterator<Item = (VertexId, VertexId)>>(mut self, it: I) -> Self {
        let it = it.into_iter();
        self.reserve(it.size_hint().0);
        for (u, v) in it {
            self.push_edge(u, v, 1, 0);
        }
        self
    }

    /// Add one weighted edge.
    pub fn weighted_edge(mut self, u: VertexId, v: VertexId, w: u32) -> Self {
        self.push_edge(u, v, w, 0);
        self
    }

    /// Add many weighted edges.
    pub fn weighted_edges<I: IntoIterator<Item = (VertexId, VertexId, u32)>>(
        mut self,
        it: I,
    ) -> Self {
        let it = it.into_iter();
        self.reserve(it.size_hint().0);
        for (u, v, w) in it {
            self.push_edge(u, v, w, 0);
        }
        self
    }

    /// Add one fully attributed edge (weight + relation label).
    pub fn labeled_edge(mut self, u: VertexId, v: VertexId, w: u32, rel: u8) -> Self {
        self.push_edge(u, v, w, rel);
        self
    }

    /// Room for `edges` more input edges (twice the records when mirrored).
    fn reserve(&mut self, edges: usize) {
        let records = if self.directed { edges } else { 2 * edges };
        self.edges.reserve(records);
    }

    /// In-place edge insertion (non-consuming; useful in loops).
    pub fn push_edge(&mut self, u: VertexId, v: VertexId, w: u32, rel: u8) {
        self.edges.push((u, v, w, rel));
        if !self.directed {
            self.edges.push((v, u, w, rel));
        }
    }

    /// Attach explicit vertex labels (`labels[v]` is `v`'s type).
    pub fn vertex_labels(mut self, labels: Vec<u8>) -> Self {
        self.vertex_labels = labels;
        self
    }

    /// Assign uniform-random edge weights in `[1, max_weight]` to all edges
    /// added *so far*, overriding their current weights. Mirrored halves of
    /// an undirected edge receive the same weight. This matches the paper's
    /// setup: "graph datasets are initialized with random edge weights"
    /// (§6.1.4).
    pub fn randomize_weights(mut self, max_weight: u32, seed: u64) -> Self {
        // Deterministic per undirected pair: keyed on (min, max), so
        // mirrored entries agree regardless of insertion order.
        let draw = PairDraw::new(seed, max_weight);
        for_each_pair_draw(Tier::best(), &mut self.edges, draw, ends, |e, w| {
            e.2 = 1 + w
        });
        self
    }

    /// Assign uniform-random relation labels in `[0, num_relations)` to all
    /// edges added so far (mirrored halves agree), for MetaPath workloads.
    pub fn randomize_edge_labels(mut self, num_relations: u8, seed: u64) -> Self {
        let draw = PairDraw::new(seed ^ 0xA5A5, num_relations as u32);
        for_each_pair_draw(Tier::best(), &mut self.edges, draw, ends, |e, r| {
            e.3 = r as u8
        });
        self
    }

    /// Assign uniform-random vertex labels in `[0, num_labels)`.
    pub fn randomize_vertex_labels(mut self, num_labels: u8, seed: u64) -> Self {
        assert!(num_labels >= 1);
        let n = self.vertex_count();
        let mut rng = SplitMix64::new(seed);
        self.vertex_labels = (0..n)
            .map(|_| rng.gen_range(num_labels as u64) as u8)
            .collect();
        self
    }

    fn vertex_count(&self) -> usize {
        let from_edges = self
            .edges
            .iter()
            .map(|&(u, v, _, _)| u.max(v) as usize + 1)
            .max()
            .unwrap_or(0);
        from_edges
            .max(self.min_vertices)
            .max(self.vertex_labels.len())
    }

    /// Pack into CSR. Duplicate `(u,v)` edges are collapsed (first
    /// occurrence wins); self-loops are kept if present in the input.
    ///
    /// Linear in edges and vertices (DESIGN.md §5, *Heap CSR assembly*):
    /// two stable counting passes order the records by target, then by
    /// source, so equal `(u, v)` sit in arrival order and the survivor of
    /// a duplicate is the input's first occurrence, as in the streamed
    /// pack (`crate::pack`). The records are freed before the prefix
    /// cache is built.
    pub fn build(self) -> Graph {
        let n = self.vertex_count();
        let has_edge_labels = self.edges.iter().any(|e| e.3 != 0);
        let mut edges = self.edges;
        let mut scratch = vec![(0, 0, 0, 0); edges.len()];
        counting_pass(&edges, &mut scratch, n, |e| e.1);
        counting_pass(&scratch, &mut edges, n, |e| e.0);
        drop(scratch);
        edges.dedup_by_key(|&mut (u, v, _, _)| (u, v));

        let mut row_index = vec![0u64; n + 1];
        for &(u, _, _, _) in &edges {
            row_index[u as usize + 1] += 1;
        }
        for i in 0..n {
            row_index[i + 1] += row_index[i];
        }
        let col_index: Vec<VertexId> = edges.iter().map(|e| e.1).collect();
        let weights: Vec<u32> = edges.iter().map(|e| e.2).collect();
        let edge_labels: Vec<u8> = if has_edge_labels {
            edges.iter().map(|e| e.3).collect()
        } else {
            Vec::new()
        };
        drop(edges);

        let mut vertex_labels = self.vertex_labels;
        if !vertex_labels.is_empty() {
            vertex_labels.reserve_exact(n - vertex_labels.len());
            vertex_labels.resize(n, 0);
        }

        let mut g = Graph {
            row_index: row_index.into(),
            col_index: col_index.into(),
            weights: weights.into(),
            vertex_labels: vertex_labels.into(),
            edge_labels: edge_labels.into(),
            directed: self.directed,
            prefix: None,
            max_degree: Default::default(),
        };
        if self.prefix_cache {
            g.build_prefix_cache();
        }
        debug_assert!(crate::validate::validate(&g).is_ok());
        g
    }
}

/// An input edge record: source, target, weight, relation.
type Record = (VertexId, VertexId, u32, u8);

/// One stable counting-sort pass: `from`'s records into `to` in order of
/// `key` (below `n`), records of equal key in their order in `from`.
fn counting_pass(from: &[Record], to: &mut [Record], n: usize, key: impl Fn(&Record) -> VertexId) {
    let mut next = vec![0usize; n];
    for r in from {
        next[key(r) as usize] += 1;
    }
    let mut start = 0;
    for slot in &mut next {
        (*slot, start) = (start, start + *slot);
    }
    for r in from {
        let slot = &mut next[key(r) as usize];
        to[*slot] = *r;
        *slot += 1;
    }
}

/// An edge record's endpoints.
fn ends(&(u, v, _, _): &Record) -> (u32, u32) {
    (u, v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::{MAX_CACHED_RELATIONS, MAX_PREFIX_STATIC_WEIGHT};
    use crate::validate::validate;
    use proptest::prop_assert_eq;
    use std::collections::BTreeMap;

    /// Inclusive running sums of one row's terms.
    fn running(terms: impl Iterator<Item = u64>) -> Vec<u64> {
        terms
            .scan(0, |acc, t| {
                *acc += t;
                Some(*acc)
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(512))]

        /// Random edge multisets against a first-occurrence oracle. Ids
        /// come from a small range, so duplicates with other weights and
        /// relations, self-loops and mirrored pairs are common; the vertex
        /// count may lie past the largest id and the vertex labels may be
        /// shorter than it; `spread` takes the relation alphabet from
        /// none to more labels than the cache holds; and one record may
        /// carry a weight past the cache's limit.
        #[test]
        fn build_matches_a_first_occurrence_oracle(
            undirected in 0u8..2,
            records in proptest::collection::vec((0u32..20, 0u32..20, 1u32..6, 0u8..=255), 0..160),
            spread in 1u8..12,
            extra in 0usize..28,
            labels in proptest::collection::vec(0u8..4, 0..24),
            heavy in 0usize..320,
        ) {
            let undirected = undirected == 1;
            let mut b = if undirected {
                GraphBuilder::undirected()
            } else {
                GraphBuilder::directed()
            };
            let mut first = BTreeMap::new();
            let mut labeled = false;
            for (i, &(u, v, w, rel)) in records.iter().enumerate() {
                let w = if i == heavy { MAX_PREFIX_STATIC_WEIGHT + 1 } else { w };
                let rel = rel % spread;
                b.push_edge(u, v, w, rel);
                first.entry((u, v)).or_insert((w, rel));
                if undirected {
                    first.entry((v, u)).or_insert((w, rel));
                }
                labeled |= rel != 0;
            }
            let g = b.num_vertices(extra).vertex_labels(labels.clone()).build();

            let ids = records.iter().map(|&(u, v, ..)| u.max(v) as usize + 1).max();
            let n = ids.unwrap_or(0).max(extra).max(labels.len());
            prop_assert_eq!(g.num_vertices(), n);
            prop_assert_eq!(g.num_edges(), first.len());
            prop_assert_eq!(g.is_directed(), !undirected);
            prop_assert_eq!(g.has_edge_labels(), labeled);
            prop_assert_eq!(g.has_vertex_labels(), !labels.is_empty());
            let mut used = [false; 256];
            first.values().for_each(|&(_, rel)| used[rel as usize] = true);
            let distinct = used.iter().filter(|&&u| u).count();
            let cached = first.values().all(|&(w, _)| w <= MAX_PREFIX_STATIC_WEIGHT);
            prop_assert_eq!(g.has_prefix_cache(), cached);
            for u in 0..n as u32 {
                let row: Vec<_> = first.range((u, 0)..=(u, u32::MAX)).collect();
                let targets: Vec<u32> = row.iter().map(|(&(_, v), _)| v).collect();
                let weights: Vec<u32> = row.iter().map(|(_, &(w, _))| w).collect();
                let relations: Vec<u8> = row.iter().map(|(_, &(_, r))| r).collect();
                prop_assert_eq!(g.neighbors(u), &targets[..]);
                prop_assert_eq!(g.neighbor_weights(u), &weights[..]);
                let want: &[u8] = if labeled { &relations } else { &[] };
                prop_assert_eq!(g.neighbor_relations(u), want);
                let label = labels.get(u as usize).copied().unwrap_or(0);
                prop_assert_eq!(g.vertex_label(u), label);
                if !cached {
                    continue;
                }
                let all = running(weights.iter().map(|&w| w as u64));
                prop_assert_eq!(g.static_prefix(u), Some(&all[..]));
                for r in 0..12u8 {
                    let masked = running(
                        row.iter()
                            .map(|(_, &(w, rel))| if rel == r { w as u64 } else { 0 }),
                    );
                    let want = match labeled {
                        false => (r == 0).then_some(&all[..]),
                        true if used[r as usize] && distinct <= MAX_CACHED_RELATIONS => {
                            Some(&masked[..])
                        }
                        true => None,
                    };
                    prop_assert_eq!(g.relation_prefix(u, r), want);
                }
            }
            prop_assert_eq!(validate(&g), Ok(()));
        }
    }

    #[test]
    fn duplicate_edges_collapse() {
        let g = GraphBuilder::directed()
            .edges([(0, 1), (0, 1), (0, 2)])
            .build();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(0), &[1, 2]);
    }

    #[test]
    fn duplicate_edges_keep_the_first_occurrence() {
        // Enough records that the sort is not the short-slice insertion
        // sort, with the duplicates' attributes differing.
        let mut b = GraphBuilder::undirected();
        for i in 0..500u32 {
            b.push_edge(i % 7, (i * 3) % 11, i + 1, (i % 5) as u8);
        }
        let g = b.build();
        let mut first = std::collections::HashMap::new();
        for i in 0..500u32 {
            let (u, v, attrs) = (i % 7, (i * 3) % 11, (i + 1, (i % 5) as u8));
            first.entry((u, v)).or_insert(attrs);
            first.entry((v, u)).or_insert(attrs);
        }
        assert_eq!(g.num_edges(), first.len());
        for u in 0..g.num_vertices() as u32 {
            for (i, &v) in g.neighbors(u).iter().enumerate() {
                let got = (g.neighbor_weights(u)[i], g.neighbor_relations(u)[i]);
                assert_eq!(got, first[&(u, v)], "edge ({u},{v})");
            }
        }
    }

    #[test]
    fn adjacency_is_sorted() {
        let g = GraphBuilder::directed()
            .edges([(0, 5), (0, 1), (0, 3), (0, 2)])
            .build();
        assert_eq!(g.neighbors(0), &[1, 2, 3, 5]);
    }

    #[test]
    fn undirected_mirrors_weights() {
        let g = GraphBuilder::undirected()
            .weighted_edge(0, 1, 9)
            .weighted_edge(1, 2, 4)
            .build();
        assert_eq!(g.neighbor_weights(0), &[9]);
        assert_eq!(g.neighbor_weights(2), &[4]);
        // mirror of (0,1) at vertex 1
        let i = g.neighbors(1).iter().position(|&x| x == 0).unwrap();
        assert_eq!(g.neighbor_weights(1)[i], 9);
    }

    #[test]
    fn random_weights_mirror_consistently() {
        let g = GraphBuilder::undirected()
            .edges([(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)])
            .randomize_weights(100, 42)
            .build();
        for u in 0..4u32 {
            for (i, &v) in g.neighbors(u).iter().enumerate() {
                let wu = g.neighbor_weights(u)[i];
                let j = g.neighbors(v).iter().position(|&x| x == u).unwrap();
                let wv = g.neighbor_weights(v)[j];
                assert_eq!(wu, wv, "edge ({u},{v}) weight mismatch");
            }
        }
        // Weights in range and not all equal.
        let all: Vec<u32> = g.iter_edges().map(|(_, _, w)| w).collect();
        assert!(all.iter().all(|&w| (1..=100).contains(&w)));
        assert!(all.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn random_edge_labels_mirror_consistently() {
        let g = GraphBuilder::undirected()
            .edges([(0, 1), (1, 2), (0, 2)])
            .randomize_edge_labels(3, 7)
            .build();
        assert!(g.has_edge_labels());
        for u in 0..3u32 {
            for (i, &v) in g.neighbors(u).iter().enumerate() {
                let ru = g.neighbor_relations(u)[i];
                let j = g.neighbors(v).iter().position(|&x| x == u).unwrap();
                assert_eq!(ru, g.neighbor_relations(v)[j]);
            }
        }
    }

    #[test]
    fn vertex_labels_padded_to_vertex_count() {
        let g = GraphBuilder::directed()
            .num_vertices(10)
            .edge(0, 1)
            .vertex_labels(vec![1, 2])
            .build();
        assert!(g.has_vertex_labels());
        assert_eq!(g.vertex_label(1), 2);
        assert_eq!(g.vertex_label(9), 0);
    }

    #[test]
    fn randomize_vertex_labels_in_range() {
        let g = GraphBuilder::directed()
            .num_vertices(100)
            .edge(0, 1)
            .randomize_vertex_labels(4, 3)
            .build();
        for v in 0..100u32 {
            assert!(g.vertex_label(v) < 4);
        }
    }

    #[test]
    fn empty_graph_is_valid() {
        let g = GraphBuilder::directed().build();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert!(validate(&g).is_ok());
    }

    #[test]
    fn self_loops_are_kept() {
        let g = GraphBuilder::directed().edges([(1, 1), (1, 2)]).build();
        assert_eq!(g.neighbors(1), &[1, 2]);
    }

    #[test]
    fn a_relation_only_a_dropped_duplicate_carries_has_no_prefix_lane() {
        // The second (0, 1) is dropped. Its relation 5 was seen before
        // dedup, so the edge-label lane exists; the prefix cache is decided
        // on what survived, so relation 5 gets no lane. Its weight, past
        // the cache's limit, does not cost the graph its cache either.
        let g = GraphBuilder::directed()
            .labeled_edge(0, 1, 2, 0)
            .labeled_edge(0, 1, MAX_PREFIX_STATIC_WEIGHT + 1, 5)
            .build();
        assert!(g.has_edge_labels());
        assert_eq!(g.neighbor_relations(0), &[0]);
        assert_eq!(g.neighbor_weights(0), &[2]);
        assert_eq!(g.relation_prefix(0, 0).unwrap(), &[2]);
        assert!(g.relation_prefix(0, 5).is_none());
    }

    #[test]
    fn built_graphs_validate() {
        let g = GraphBuilder::undirected()
            .edges([(0, 1), (4, 2), (3, 3), (1, 4)])
            .randomize_weights(10, 1)
            .randomize_edge_labels(2, 2)
            .randomize_vertex_labels(3, 3)
            .build();
        assert!(validate(&g).is_ok());
    }
}
