//! Degree-based vertex reordering — the preprocessing alternative the
//! degree-aware cache competes with.
//!
//! §5.1's related-work discussion: prior systems make hot vertices cheap
//! by *preprocessing* — Balaji & Lucia sort vertices by degree and
//! reindex the whole graph so that high-degree vertices share a small,
//! cacheable id range; Zhao et al. build hash tables during partitioning.
//! LightRW's point is that the DAC achieves the effect at runtime with
//! zero preprocessing. To make that an executable comparison, this
//! module implements the preprocessing approach (`graph pack --relabel`
//! applies it): [`by_degree_descending`] relabels vertices so id order is
//! degree order, after which even a plain direct-mapped cache keeps hubs
//! resident (they occupy the low index range).

use crate::builder::GraphBuilder;
use crate::csr::{Graph, VertexId};

/// A vertex relabeling: `old_to_new[v]` is `v`'s new id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Relabeling {
    old_to_new: Vec<VertexId>,
    new_to_old: Vec<VertexId>,
}

impl Relabeling {
    /// Rebuild a relabeling from its `new_to_old` permutation (how packed
    /// files persist it — see `crate::packed`). Panics if `new_to_old` is
    /// not a permutation of `0..n`.
    pub fn from_new_to_old(new_to_old: Vec<VertexId>) -> Self {
        let n = new_to_old.len();
        Self::try_from_new_to_old(new_to_old)
            .unwrap_or_else(|| panic!("new_to_old is not a permutation of 0..{n}"))
    }

    /// [`Relabeling::from_new_to_old`], or `None` when `new_to_old` is not
    /// a permutation of `0..n` (a damaged file).
    pub(crate) fn try_from_new_to_old(new_to_old: Vec<VertexId>) -> Option<Self> {
        let mut old_to_new = vec![VertexId::MAX; new_to_old.len()];
        for (new, &old) in new_to_old.iter().enumerate() {
            let slot = old_to_new.get_mut(old as usize)?;
            if *slot != VertexId::MAX {
                return None;
            }
            *slot = new as VertexId;
        }
        Some(Self {
            old_to_new,
            new_to_old,
        })
    }

    /// The `new_to_old` permutation (what packed files persist).
    #[inline]
    pub fn new_to_old(&self) -> &[VertexId] {
        &self.new_to_old
    }

    /// New id of an old vertex.
    #[inline]
    pub fn new_id(&self, old: VertexId) -> VertexId {
        self.old_to_new[old as usize]
    }

    /// Old id of a new vertex (for translating results back).
    #[inline]
    pub fn old_id(&self, new: VertexId) -> VertexId {
        self.new_to_old[new as usize]
    }

    /// Translate a path of new ids back to original ids.
    pub fn path_to_original(&self, path: &[VertexId]) -> Vec<VertexId> {
        path.iter().map(|&v| self.old_id(v)).collect()
    }
}

/// Rebuild `g` with vertices relabeled in descending degree order
/// (ties broken by original id, so the result is deterministic).
/// Returns the reordered graph and the relabeling.
pub fn by_degree_descending(g: &Graph) -> (Graph, Relabeling) {
    let n = g.num_vertices();
    let mut order: Vec<VertexId> = (0..n as VertexId).collect();
    order.sort_by_key(|&v| (std::cmp::Reverse(g.degree(v)), v));

    let mut old_to_new = vec![0 as VertexId; n];
    for (new, &old) in order.iter().enumerate() {
        old_to_new[old as usize] = new as VertexId;
    }

    // Rebuild edges under the new labels; directed build preserves the
    // already-mirrored stored edges, whatever the original orientation.
    let mut b = GraphBuilder::directed().num_vertices(n);
    let labeled = g.has_edge_labels();
    for u in 0..n as VertexId {
        let rels = g.neighbor_relations(u);
        for (i, (&v, &w)) in g.neighbors(u).iter().zip(g.neighbor_weights(u)).enumerate() {
            let rel = if labeled { rels[i] } else { 0 };
            b.push_edge(old_to_new[u as usize], old_to_new[v as usize], w, rel);
        }
    }
    if g.has_vertex_labels() {
        let vlabels: Vec<u8> = order.iter().map(|&old| g.vertex_label(old)).collect();
        b = b.vertex_labels(vlabels);
    }
    (
        b.build(),
        Relabeling {
            old_to_new,
            new_to_old: order,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::validate::validate;

    #[test]
    fn degrees_are_descending_after_reorder() {
        let g = generators::rmat_dataset(10, 3);
        let (r, _) = by_degree_descending(&g);
        for v in 1..r.num_vertices() as VertexId {
            assert!(r.degree(v - 1) >= r.degree(v), "order broken at {v}");
        }
        assert!(validate(&r).is_ok());
    }

    #[test]
    fn reorder_preserves_structure() {
        let g = generators::rmat_dataset(9, 7);
        let (r, map) = by_degree_descending(&g);
        assert_eq!(g.num_vertices(), r.num_vertices());
        assert_eq!(g.num_edges(), r.num_edges());
        // Every original edge exists under the new labels with the same
        // weight and relation.
        for u in 0..g.num_vertices() as VertexId {
            let rels = g.neighbor_relations(u);
            for (i, (&v, &w)) in g.neighbors(u).iter().zip(g.neighbor_weights(u)).enumerate() {
                let (nu, nv) = (map.new_id(u), map.new_id(v));
                let pos = r
                    .neighbors(nu)
                    .binary_search(&nv)
                    .unwrap_or_else(|_| panic!("edge ({u},{v}) lost"));
                assert_eq!(r.neighbor_weights(nu)[pos], w);
                if g.has_edge_labels() {
                    assert_eq!(r.neighbor_relations(nu)[pos], rels[i]);
                }
                assert_eq!(r.vertex_label(nu), g.vertex_label(u));
            }
        }
    }

    #[test]
    fn relabeling_roundtrips() {
        let g = generators::rmat(8, 4, 2);
        let (_, map) = by_degree_descending(&g);
        for v in 0..g.num_vertices() as VertexId {
            assert_eq!(map.old_id(map.new_id(v)), v);
        }
        let path = vec![3, 1, 4, 1];
        let new_path: Vec<u32> = path.iter().map(|&v| map.new_id(v)).collect();
        assert_eq!(map.path_to_original(&new_path), path);
    }

    #[test]
    fn hub_gets_id_zero() {
        let g = generators::star(50);
        let (r, map) = by_degree_descending(&g);
        assert_eq!(map.new_id(0), 0); // the hub stays hottest
        assert_eq!(r.degree(0), 49);
    }

    #[test]
    fn deterministic_tie_breaking() {
        let g = generators::ring(16, 2); // all degrees equal
        let (_, a) = by_degree_descending(&g);
        let (_, b) = by_degree_descending(&g);
        assert_eq!(a, b);
        // Equal degrees ⇒ identity order.
        for v in 0..16u32 {
            assert_eq!(a.new_id(v), v);
        }
    }
}
