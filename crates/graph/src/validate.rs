//! Structural integrity checks for CSR graphs.
//!
//! `GraphBuilder::build` runs [`validate`] in debug builds; the
//! edge-list reader runs it unconditionally, and so does `lightrw_cli
//! info` on a packed file, whose loader checks header, section table and
//! CSR endpoints only (`crate::packed`).

use crate::csr::{Graph, VertexId};

/// A structural violation found in a [`Graph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// `row_index` is empty or does not start at 0.
    BadOffsetsHeader,
    /// `row_index` decreases at the given vertex.
    NonMonotoneOffsets { vertex: usize },
    /// Final offset does not equal `col_index.len()`.
    OffsetsEdgeMismatch { last: u64, edges: usize },
    /// A destination id is out of range.
    DanglingEdge { src: VertexId, dst: VertexId },
    /// An adjacency list is unsorted or has duplicates.
    UnsortedAdjacency { vertex: VertexId },
    /// `weights` is not aligned with `col_index`.
    WeightsMisaligned { weights: usize, edges: usize },
    /// Vertex label array has wrong length.
    VertexLabelsMisaligned { labels: usize, vertices: usize },
    /// Edge label array has wrong length.
    EdgeLabelsMisaligned { labels: usize, edges: usize },
    /// The static-weight prefix cache is not aligned with `col_index`.
    PrefixCacheMisaligned { entries: usize, edges: usize },
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadOffsetsHeader => write!(f, "row_index missing or does not start at 0"),
            Self::NonMonotoneOffsets { vertex } => {
                write!(f, "row_index decreases at vertex {vertex}")
            }
            Self::OffsetsEdgeMismatch { last, edges } => {
                write!(
                    f,
                    "row_index ends at {last} but col_index has {edges} entries"
                )
            }
            Self::DanglingEdge { src, dst } => {
                write!(f, "edge ({src},{dst}) points outside the vertex set")
            }
            Self::UnsortedAdjacency { vertex } => {
                write!(f, "adjacency of vertex {vertex} unsorted or duplicated")
            }
            Self::WeightsMisaligned { weights, edges } => {
                write!(f, "{weights} weights for {edges} edges")
            }
            Self::VertexLabelsMisaligned { labels, vertices } => {
                write!(f, "{labels} vertex labels for {vertices} vertices")
            }
            Self::EdgeLabelsMisaligned { labels, edges } => {
                write!(f, "{labels} edge labels for {edges} edges")
            }
            Self::PrefixCacheMisaligned { entries, edges } => {
                write!(f, "{entries} prefix-cache entries for {edges} edges")
            }
        }
    }
}

impl std::error::Error for ValidationError {}

/// Check all CSR invariants listed on [`Graph`].
pub fn validate(g: &Graph) -> Result<(), ValidationError> {
    let row = &g.row_index;
    if row.is_empty() || row[0] != 0 {
        return Err(ValidationError::BadOffsetsHeader);
    }
    let n = row.len() - 1;
    for v in 0..n {
        if row[v + 1] < row[v] {
            return Err(ValidationError::NonMonotoneOffsets { vertex: v });
        }
    }
    if row[n] != g.col_index.len() as u64 {
        return Err(ValidationError::OffsetsEdgeMismatch {
            last: row[n],
            edges: g.col_index.len(),
        });
    }
    if g.weights.len() != g.col_index.len() {
        return Err(ValidationError::WeightsMisaligned {
            weights: g.weights.len(),
            edges: g.col_index.len(),
        });
    }
    if !g.vertex_labels.is_empty() && g.vertex_labels.len() != n {
        return Err(ValidationError::VertexLabelsMisaligned {
            labels: g.vertex_labels.len(),
            vertices: n,
        });
    }
    if !g.edge_labels.is_empty() && g.edge_labels.len() != g.col_index.len() {
        return Err(ValidationError::EdgeLabelsMisaligned {
            labels: g.edge_labels.len(),
            edges: g.col_index.len(),
        });
    }
    if let Some(cache) = &g.prefix {
        // Per-relation slots for labels the graph never uses stay empty.
        let filled = cache
            .per_relation
            .iter()
            .filter(|cum| !cum.is_empty())
            .chain(std::iter::once(&cache.all));
        for cum in filled {
            if cum.len() != g.col_index.len() {
                return Err(ValidationError::PrefixCacheMisaligned {
                    entries: cum.len(),
                    edges: g.col_index.len(),
                });
            }
        }
    }
    for v in 0..n as VertexId {
        let adj = g.neighbors(v);
        for w in adj.windows(2) {
            if w[0] >= w[1] {
                return Err(ValidationError::UnsortedAdjacency { vertex: v });
            }
        }
        if let Some(&dst) = adj.last() {
            if dst as usize >= n {
                return Err(ValidationError::DanglingEdge { src: v, dst });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn good() -> Graph {
        GraphBuilder::undirected().edges([(0, 1), (1, 2)]).build()
    }

    #[test]
    fn valid_graph_passes() {
        assert!(validate(&good()).is_ok());
    }

    #[test]
    fn detects_bad_header() {
        let mut g = good();
        g.row_index.to_mut()[0] = 1;
        assert_eq!(validate(&g), Err(ValidationError::BadOffsetsHeader));
    }

    #[test]
    fn detects_non_monotone_offsets() {
        let mut g = good();
        g.row_index.to_mut()[2] = 0;
        assert!(matches!(
            validate(&g),
            Err(ValidationError::NonMonotoneOffsets { .. })
        ));
    }

    #[test]
    fn detects_offset_edge_mismatch() {
        let mut g = good();
        let last = g.row_index.len() - 1;
        g.row_index.to_mut()[last] += 1;
        // also bump the one before so monotonicity holds
        assert!(matches!(
            validate(&g),
            Err(ValidationError::OffsetsEdgeMismatch { .. })
        ));
    }

    #[test]
    fn detects_dangling_edge() {
        let mut g = good();
        let n = g.col_index.len();
        g.col_index.to_mut()[n - 1] = 99;
        assert!(matches!(
            validate(&g),
            Err(ValidationError::DanglingEdge { .. })
        ));
    }

    #[test]
    fn detects_unsorted_adjacency() {
        let mut g = GraphBuilder::directed().edges([(0, 1), (0, 2)]).build();
        g.col_index.to_mut().swap(0, 1);
        assert_eq!(
            validate(&g),
            Err(ValidationError::UnsortedAdjacency { vertex: 0 })
        );
    }

    #[test]
    fn detects_duplicate_adjacency() {
        let mut g = GraphBuilder::directed().edges([(0, 1), (0, 2)]).build();
        g.col_index.to_mut()[1] = 1;
        assert_eq!(
            validate(&g),
            Err(ValidationError::UnsortedAdjacency { vertex: 0 })
        );
    }

    #[test]
    fn detects_weight_misalignment() {
        let mut g = good();
        g.weights.to_mut().pop();
        assert!(matches!(
            validate(&g),
            Err(ValidationError::WeightsMisaligned { .. })
        ));
    }

    #[test]
    fn detects_label_misalignment() {
        let mut g = good();
        g.vertex_labels = vec![0; 1].into();
        assert!(matches!(
            validate(&g),
            Err(ValidationError::VertexLabelsMisaligned { .. })
        ));
        let mut g2 = good();
        g2.edge_labels = vec![0; 1].into();
        assert!(matches!(
            validate(&g2),
            Err(ValidationError::EdgeLabelsMisaligned { .. })
        ));
    }

    #[test]
    fn errors_display_cleanly() {
        let e = ValidationError::DanglingEdge { src: 1, dst: 9 };
        assert!(e.to_string().contains("(1,9)"));
    }
}
