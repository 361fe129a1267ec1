//! Compressed sparse row graph storage.
//!
//! Every array lives in a [`Section`](crate::store::Section): owned heap
//! memory when built in process, or a borrowed window of a memory-mapped
//! packed file (see `crate::packed` and DESIGN.md §10). Accessors return
//! plain slices either way.

use std::sync::OnceLock;

use crate::store::Section;

/// Vertex identifier. 32 bits, as in the paper's hardware (vertex ids and
/// edge targets travel over 32-bit lanes of the 512-bit memory bus).
pub type VertexId = u32;

/// Bytes per `row_index` entry as laid out in accelerator DRAM.
///
/// The Neighbor Info Loader fetches `{address, degree}` per vertex
/// (paper Fig. 5): a 32-bit offset plus a 32-bit degree.
pub const ROW_ENTRY_BYTES: u64 = 8;

/// Bytes per `col_index` entry as laid out in accelerator DRAM: a 32-bit
/// destination vertex plus a 32-bit packed attribute word (static weight
/// and relation label), which is what the Weight Updater consumes.
pub const COL_ENTRY_BYTES: u64 = 8;

/// Largest static weight the prefix cache accepts.
///
/// Engines promote static weights to fixed point by shifting left 16 bits
/// (`FX_FRAC_BITS` in `lightrw-walker`); the cached cumulative sums are
/// over *raw* statics and must stay exact under that promotion, so the
/// cache is only built when every weight fits in 16 bits (`w << 16` never
/// wraps the `u32` dynamic weight).
pub const MAX_PREFIX_STATIC_WEIGHT: u32 = (1 << 16) - 1;

/// Most *distinct* edge-relation labels the per-relation prefix cache
/// will materialize (one cumulative array per used label, each |E|
/// entries). The paper's metapaths use ≤ 5 relations; graphs with more
/// distinct labels fall back to the streaming path.
pub const MAX_CACHED_RELATIONS: usize = 8;

/// Precomputed per-vertex inclusive cumulative static weights — the
/// static-weight prefix cache of DESIGN.md §5.
///
/// `all[e]` is the running sum of `weights` over the owning vertex's
/// adjacency list (restarting at each vertex), so static-weight inverse
/// transform sampling is a binary search instead of a per-step O(d)
/// accumulation. `per_relation[r]` holds the same layout with weights of
/// edges whose relation ≠ `r` zeroed — the MetaPath fast path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PrefixCache {
    pub(crate) all: Section<u64>,
    pub(crate) per_relation: Vec<Section<u64>>,
}

/// All per-neighbor CSR lanes of one vertex, fetched with a single
/// `row_index` read — the software analogue of the 512-bit `{dst, weight,
/// relation}` words the accelerator's Neighbor Loader streams (Fig. 5).
#[derive(Debug, Clone, Copy)]
pub struct NeighborView<'g> {
    /// Destination vertices, sorted ascending.
    pub targets: &'g [VertexId],
    /// Static weights aligned with `targets`.
    pub weights: &'g [u32],
    /// Edge relations aligned with `targets`; empty when the graph is
    /// untyped (use [`NeighborView::relation`] for the 0-default).
    pub relations: &'g [u8],
}

impl<'g> NeighborView<'g> {
    /// Number of candidates (the vertex's out-degree).
    #[inline]
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// True when the vertex has no out-edges (dead end).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// Relation label of candidate `i`; 0 when the graph is untyped.
    #[inline]
    pub fn relation(&self, i: usize) -> u8 {
        if self.relations.is_empty() {
            0
        } else {
            self.relations[i]
        }
    }
}

/// An immutable CSR graph with optional vertex labels (MetaPath node
/// types) and edge relations (MetaPath edge types).
///
/// Invariants (checked by [`crate::validate::validate`], established by
/// [`crate::builder::GraphBuilder`]):
/// - `row_index.len() == num_vertices + 1`, monotone non-decreasing,
///   `row_index[0] == 0`, `row_index[V] == col_index.len()`;
/// - every destination in `col_index` is `< num_vertices`;
/// - each adjacency list is sorted by destination and duplicate-free;
/// - `weights.len() == col_index.len()`; label arrays, when present, are
///   aligned the same way.
#[derive(Debug, Clone)]
pub struct Graph {
    pub(crate) row_index: Section<u64>,
    pub(crate) col_index: Section<VertexId>,
    /// Static edge weight w* (paper §2.1); 1 for unweighted graphs.
    pub(crate) weights: Section<u32>,
    /// Vertex label L(v) for heterogeneous graphs (MetaPath). Empty if the
    /// graph is homogeneous.
    pub(crate) vertex_labels: Section<u8>,
    /// Edge relation R(u,v) aligned with `col_index`. Empty if untyped.
    pub(crate) edge_labels: Section<u8>,
    pub(crate) directed: bool,
    /// Optional static-weight prefix cache (derived data; excluded from
    /// equality — see the manual `PartialEq` below).
    pub(crate) prefix: Option<PrefixCache>,
    /// [`Graph::max_degree`], computed on first use (derived data like
    /// the prefix cache: excluded from equality, carried by clones).
    pub(crate) max_degree: OnceLock<u32>,
}

/// Structural equality only: the prefix cache and the cached maximum
/// degree are derived data, so two graphs with identical CSR content
/// compare equal whether or not either carries them.
impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        self.row_index == other.row_index
            && self.col_index == other.col_index
            && self.weights == other.weights
            && self.vertex_labels == other.vertex_labels
            && self.edge_labels == other.edge_labels
            && self.directed == other.directed
    }
}

impl Eq for Graph {}

impl Graph {
    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.row_index.len() - 1
    }

    /// Number of *stored* directed edges (an undirected input edge counts
    /// twice, as in the paper's representation).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.col_index.len()
    }

    /// Whether the graph was built as directed.
    #[inline]
    pub fn is_directed(&self) -> bool {
        self.directed
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> u32 {
        let v = v as usize;
        (self.row_index[v + 1] - self.row_index[v]) as u32
    }

    /// Start offset of `v`'s adjacency list in `col_index`.
    #[inline]
    pub fn neighbor_offset(&self, v: VertexId) -> u64 {
        self.row_index[v as usize]
    }

    /// Neighbors of `v`, sorted ascending.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        &self.col_index[self.row_index[v] as usize..self.row_index[v + 1] as usize]
    }

    /// Static weights aligned with [`Graph::neighbors`].
    #[inline]
    pub fn neighbor_weights(&self, v: VertexId) -> &[u32] {
        let v = v as usize;
        &self.weights[self.row_index[v] as usize..self.row_index[v + 1] as usize]
    }

    /// Edge relations aligned with [`Graph::neighbors`]; empty slice if the
    /// graph has no edge labels.
    #[inline]
    pub fn neighbor_relations(&self, v: VertexId) -> &[u8] {
        if self.edge_labels.is_empty() {
            return &[];
        }
        let v = v as usize;
        &self.edge_labels[self.row_index[v] as usize..self.row_index[v + 1] as usize]
    }

    /// Label of vertex `v`; 0 when the graph is unlabeled.
    #[inline]
    pub fn vertex_label(&self, v: VertexId) -> u8 {
        if self.vertex_labels.is_empty() {
            0
        } else {
            self.vertex_labels[v as usize]
        }
    }

    /// Whether the graph carries vertex labels.
    #[inline]
    pub fn has_vertex_labels(&self) -> bool {
        !self.vertex_labels.is_empty()
    }

    /// Whether the graph carries edge relations.
    #[inline]
    pub fn has_edge_labels(&self) -> bool {
        !self.edge_labels.is_empty()
    }

    /// All CSR lanes of `v`'s adjacency with one `row_index` read.
    #[inline]
    pub fn neighbor_view(&self, v: VertexId) -> NeighborView<'_> {
        let v = v as usize;
        let lo = self.row_index[v] as usize;
        let hi = self.row_index[v + 1] as usize;
        NeighborView {
            targets: &self.col_index[lo..hi],
            weights: &self.weights[lo..hi],
            relations: if self.edge_labels.is_empty() {
                &[]
            } else {
                &self.edge_labels[lo..hi]
            },
        }
    }

    // ------------------------------------------------------------------
    // Static-weight prefix cache (DESIGN.md §5)
    // ------------------------------------------------------------------

    /// Whether the static-weight prefix cache is present.
    #[inline]
    pub fn has_prefix_cache(&self) -> bool {
        self.prefix.is_some()
    }

    /// Inclusive cumulative static weights over `v`'s adjacency list, for
    /// binary-search (inverse-transform) sampling of static-weight walks.
    /// `None` when the cache was not built (see
    /// [`Graph::build_prefix_cache`]).
    #[inline]
    pub fn static_prefix(&self, v: VertexId) -> Option<&[u64]> {
        let cache = self.prefix.as_ref()?;
        let v = v as usize;
        Some(&cache.all[self.row_index[v] as usize..self.row_index[v + 1] as usize])
    }

    /// Like [`Graph::static_prefix`], but with weights of edges whose
    /// relation ≠ `rel` zeroed — the MetaPath per-relation cumulative.
    /// `None` when unavailable (no cache, label set too large, or `rel`
    /// absent from the graph); callers fall back to the streaming path,
    /// which yields the same selection.
    #[inline]
    pub fn relation_prefix(&self, v: VertexId, rel: u8) -> Option<&[u64]> {
        let cache = self.prefix.as_ref()?;
        if self.edge_labels.is_empty() {
            // Untyped graphs carry the implicit relation 0 on every edge.
            return if rel == 0 {
                self.static_prefix(v)
            } else {
                None
            };
        }
        let cum = cache.per_relation.get(rel as usize)?;
        if cum.is_empty() {
            return None; // label unused by the graph, or label set too large
        }
        let v = v as usize;
        Some(&cum[self.row_index[v] as usize..self.row_index[v + 1] as usize])
    }

    /// Build the static-weight prefix cache: one O(|E|) pass, typically
    /// done right after construction. No-op when the cache is already
    /// present — in particular, packed graphs (`crate::packed`) arrive
    /// with the cumulative arrays precomputed into the file, so loading
    /// them never re-materializes the cache on the heap. Also a no-op
    /// (cache stays absent) when any weight exceeds
    /// [`MAX_PREFIX_STATIC_WEIGHT`], because the engines' 16-bit
    /// fixed-point promotion would wrap and the cached sums would no
    /// longer match the streaming path bit for bit.
    pub fn build_prefix_cache(&mut self) {
        if self.prefix.is_some() {
            return;
        }
        if self.weights.iter().any(|&w| w > MAX_PREFIX_STATIC_WEIGHT) {
            self.prefix = None;
            return;
        }
        // Per-relation copies: only for labels the graph actually uses, and
        // only when there are few enough *distinct* labels (dense |E|-entry
        // arrays per label are the cost being bounded). Unused label slots
        // stay empty so `relation_prefix` can reject them cheaply.
        let mut label_used = [false; 256];
        for &r in self.edge_labels.iter() {
            label_used[r as usize] = true;
        }
        let used: Vec<u8> = (0..=u8::MAX).filter(|&r| label_used[r as usize]).collect();
        let cached = if used.len() <= MAX_CACHED_RELATIONS {
            &used[..]
        } else {
            &[]
        };
        // One pass over the rows fills every cumulative; each restarts at
        // every row.
        let m = self.num_edges();
        let mut all = Vec::with_capacity(m);
        let mut masked: Vec<Vec<u64>> = cached.iter().map(|_| Vec::with_capacity(m)).collect();
        for row in self.row_index.windows(2) {
            let (lo, hi) = (row[0] as usize, row[1] as usize);
            let weights = &self.weights[lo..hi];
            all.extend(running_sums(weights.iter().map(|&w| w as u64)));
            for (cum, &r) in masked.iter_mut().zip(cached) {
                let labels = &self.edge_labels[lo..hi];
                let terms = weights
                    .iter()
                    .zip(labels)
                    .map(|(&w, &l)| u64::from(l == r) * w as u64);
                cum.extend(running_sums(terms));
            }
        }
        let slots = cached.last().map_or(0, |&r| r as usize + 1);
        let mut per_relation = vec![Section::default(); slots];
        for (&r, cum) in cached.iter().zip(masked) {
            per_relation[r as usize] = cum.into();
        }
        self.prefix = Some(PrefixCache {
            all: all.into(),
            per_relation,
        });
    }

    /// Whether any CSR section borrows a mapped (or heap-fallback) file
    /// region instead of owning its memory — true for graphs loaded via
    /// `crate::packed`.
    pub fn is_out_of_core(&self) -> bool {
        self.row_index.is_borrowed() || self.col_index.is_borrowed()
    }

    /// Drop the prefix cache (memory back, engines take the streaming
    /// path; sampled walks are unchanged — see DESIGN.md §5).
    pub fn drop_prefix_cache(&mut self) {
        self.prefix = None;
    }

    /// Edge-existence test via binary search over the sorted adjacency of
    /// `u`. This is the membership probe Node2Vec's weight update needs
    /// (`(a_{t-1}, b) ∈ E`, paper Eq. 2b).
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Average degree |E|/|V|.
    pub fn avg_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            self.num_edges() as f64 / self.num_vertices() as f64
        }
    }

    /// Maximum out-degree. One O(V) scan of `row_index` on first use,
    /// cached for the graph's lifetime (every engine session sizes its
    /// scratch from this).
    pub fn max_degree(&self) -> u32 {
        *self.max_degree.get_or_init(|| {
            (0..self.num_vertices() as VertexId)
                .map(|v| self.degree(v))
                .max()
                .unwrap_or(0)
        })
    }

    /// Vertices with non-zero out-degree, in id order. The paper's query
    /// sets use one query per such vertex (§6.1.4).
    pub fn non_isolated_vertices(&self) -> Vec<VertexId> {
        (0..self.num_vertices() as VertexId)
            .filter(|&v| self.degree(v) > 0)
            .collect()
    }

    /// Iterate all stored directed edges as `(src, dst, weight)`.
    pub fn iter_edges(&self) -> impl Iterator<Item = (VertexId, VertexId, u32)> + '_ {
        (0..self.num_vertices() as VertexId).flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .zip(self.neighbor_weights(u))
                .map(move |(&v, &w)| (u, v, w))
        })
    }

    // ------------------------------------------------------------------
    // Accelerator address model (consumed by lightrw-memsim / hwsim)
    // ------------------------------------------------------------------

    /// Byte address of `v`'s `row_index` entry in accelerator DRAM.
    ///
    /// The CSR arrays are laid out back to back starting at address 0:
    /// `row_index` first, then `col_index`.
    #[inline]
    pub fn row_entry_addr(&self, v: VertexId) -> u64 {
        v as u64 * ROW_ENTRY_BYTES
    }

    /// Byte address where the `col_index` region starts.
    #[inline]
    pub fn col_region_base(&self) -> u64 {
        (self.num_vertices() as u64 + 1) * ROW_ENTRY_BYTES
    }

    /// Byte address of `v`'s adjacency list in accelerator DRAM.
    #[inline]
    pub fn col_entry_addr(&self, v: VertexId) -> u64 {
        self.col_region_base() + self.neighbor_offset(v) * COL_ENTRY_BYTES
    }

    /// Bytes occupied by `v`'s adjacency list in accelerator DRAM — the `c`
    /// of the dynamic burst split (paper §5.2).
    #[inline]
    pub fn neighbor_bytes(&self, v: VertexId) -> u64 {
        self.degree(v) as u64 * COL_ENTRY_BYTES
    }

    /// Total bytes of the CSR image (what the host pushes over PCIe before
    /// invoking the accelerator — Table 4's transfer volume).
    pub fn csr_bytes(&self) -> u64 {
        self.col_region_base() + self.num_edges() as u64 * COL_ENTRY_BYTES
    }

    /// Direct access to the raw offsets array (read-only).
    #[inline]
    pub fn row_index(&self) -> &[u64] {
        &self.row_index
    }

    /// Direct access to the raw adjacency array (read-only).
    #[inline]
    pub fn col_index(&self) -> &[VertexId] {
        &self.col_index
    }
}

/// The inclusive running sums of `terms`.
fn running_sums(terms: impl Iterator<Item = u64>) -> impl Iterator<Item = u64> {
    terms.scan(0, |acc, t| {
        *acc += t;
        Some(*acc)
    })
}

#[cfg(test)]
mod tests {
    use crate::GraphBuilder;

    fn triangle() -> crate::Graph {
        // 0-1, 1-2, 0-2 undirected.
        GraphBuilder::undirected()
            .edges([(0, 1), (1, 2), (0, 2)])
            .build()
    }

    #[test]
    fn basic_accessors() {
        let g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 6); // doubled
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert!(!g.is_directed());
        assert_eq!(g.avg_degree(), 2.0);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn has_edge_both_ways_in_undirected() {
        let g = triangle();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 0));
    }

    #[test]
    fn directed_edges_are_one_way() {
        let g = GraphBuilder::directed().edges([(0, 1), (1, 2)]).build();
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 0));
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.degree(2), 0);
    }

    #[test]
    fn address_model_layout() {
        let g = triangle();
        assert_eq!(g.row_entry_addr(0), 0);
        assert_eq!(g.row_entry_addr(2), 16);
        // 4 row entries (V+1) of 8 bytes before col region.
        assert_eq!(g.col_region_base(), 32);
        assert_eq!(g.col_entry_addr(0), 32);
        assert_eq!(g.col_entry_addr(1), 32 + 2 * 8);
        assert_eq!(g.neighbor_bytes(0), 16);
        assert_eq!(g.csr_bytes(), 32 + 6 * 8);
    }

    #[test]
    fn non_isolated_skips_zero_degree() {
        let g = GraphBuilder::directed()
            .num_vertices(5)
            .edges([(0, 1), (3, 4)])
            .build();
        assert_eq!(g.non_isolated_vertices(), vec![0, 3]);
    }

    #[test]
    fn iter_edges_yields_all() {
        let g = triangle();
        let edges: Vec<_> = g.iter_edges().collect();
        assert_eq!(edges.len(), 6);
        assert!(edges.contains(&(0, 1, 1)));
        assert!(edges.contains(&(2, 0, 1)));
    }

    #[test]
    fn neighbor_view_matches_lane_accessors() {
        let g = crate::GraphBuilder::undirected()
            .labeled_edge(0, 1, 3, 1)
            .labeled_edge(0, 2, 5, 2)
            .labeled_edge(1, 2, 7, 1)
            .build();
        for v in 0..3u32 {
            let view = g.neighbor_view(v);
            assert_eq!(view.targets, g.neighbors(v));
            assert_eq!(view.weights, g.neighbor_weights(v));
            assert_eq!(view.relations, g.neighbor_relations(v));
            assert_eq!(view.len(), g.degree(v) as usize);
        }
        // Untyped graphs report relation 0 through the view.
        let u = triangle();
        assert!(u.neighbor_view(0).relations.is_empty());
        assert_eq!(u.neighbor_view(0).relation(1), 0);
    }

    #[test]
    fn static_prefix_is_per_vertex_cumulative() {
        let g = crate::GraphBuilder::directed()
            .weighted_edges([(0, 1, 2), (0, 2, 3), (1, 2, 5)])
            .num_vertices(3)
            .build();
        assert!(g.has_prefix_cache());
        assert_eq!(g.static_prefix(0).unwrap(), &[2, 5]);
        assert_eq!(g.static_prefix(1).unwrap(), &[5]); // restarts per vertex
        assert_eq!(g.static_prefix(2).unwrap(), &[] as &[u64]);
    }

    #[test]
    fn relation_prefix_masks_other_relations() {
        let g = crate::GraphBuilder::directed()
            .labeled_edge(0, 1, 2, 0)
            .labeled_edge(0, 2, 3, 1)
            .labeled_edge(0, 3, 5, 0)
            .num_vertices(4)
            .build();
        assert_eq!(g.relation_prefix(0, 0).unwrap(), &[2, 2, 7]);
        assert_eq!(g.relation_prefix(0, 1).unwrap(), &[0, 3, 3]);
        // A relation the graph never uses is not cached.
        assert!(g.relation_prefix(0, 9).is_none());
    }

    #[test]
    fn sparse_label_values_are_cached_by_distinct_count() {
        // Labels {0, 9}: only two distinct relations, so both are cached
        // even though the max label value exceeds MAX_CACHED_RELATIONS;
        // the 8 unused slots in between stay empty.
        let g = crate::GraphBuilder::directed()
            .labeled_edge(0, 1, 2, 0)
            .labeled_edge(0, 2, 3, 9)
            .num_vertices(3)
            .build();
        assert_eq!(g.relation_prefix(0, 0).unwrap(), &[2, 2]);
        assert_eq!(g.relation_prefix(0, 9).unwrap(), &[0, 3]);
        assert!(g.relation_prefix(0, 4).is_none());
        assert!(crate::validate::validate(&g).is_ok());
    }

    #[test]
    fn too_many_distinct_labels_skip_per_relation_cache() {
        let mut b = crate::GraphBuilder::directed().num_vertices(12);
        for r in 0..9u8 {
            b = b.labeled_edge(0, r as u32 + 1, 1, r);
        }
        let g = b.build();
        assert!(g.has_prefix_cache()); // the all-weights cumulative still exists
        assert!(g.static_prefix(0).is_some());
        assert!(g.relation_prefix(0, 0).is_none()); // 9 distinct > MAX (8)
    }

    #[test]
    fn untyped_graph_relation_zero_aliases_static_prefix() {
        let g = triangle();
        assert_eq!(g.relation_prefix(0, 0), g.static_prefix(0));
        assert!(g.relation_prefix(0, 1).is_none());
    }

    #[test]
    fn oversized_weights_skip_the_cache() {
        let g = crate::GraphBuilder::directed()
            .weighted_edge(0, 1, 1 << 16) // would wrap under the fixed-point promote
            .build();
        assert!(!g.has_prefix_cache());
        assert!(g.static_prefix(0).is_none());
        assert!(g.relation_prefix(0, 0).is_none());
    }

    #[test]
    fn cache_can_be_dropped_and_rebuilt() {
        let mut g = triangle();
        assert!(g.has_prefix_cache());
        g.drop_prefix_cache();
        assert!(g.static_prefix(0).is_none());
        g.build_prefix_cache();
        assert_eq!(g.static_prefix(0).unwrap(), &[1, 2]);
    }

    #[test]
    fn equality_ignores_the_cache() {
        let with = triangle();
        let mut without = triangle();
        without.drop_prefix_cache();
        assert_eq!(with, without);
        // Likewise the cached maximum degree: computed on one side only.
        assert_eq!(with.max_degree(), 2);
        assert_eq!(with, without);
        assert_eq!(with.clone().max_degree.get(), Some(&2));
    }

    #[test]
    fn unlabeled_graph_reports_zero_labels() {
        let g = triangle();
        assert!(!g.has_vertex_labels());
        assert!(!g.has_edge_labels());
        assert_eq!(g.vertex_label(1), 0);
        assert!(g.neighbor_relations(0).is_empty());
    }
}
