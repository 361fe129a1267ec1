//! Sorted-adjacency intersection for second-order walks.
//!
//! Node2Vec's Eq. 2b needs `(a_{t-1}, b) ∈ E` for every candidate neighbor
//! `b ∈ N(a_t)`. Because CSR adjacency lists are sorted, a single
//! merge-join over `N(a_t)` and `N(a_{t-1})` answers all candidates in
//! `O(|N(a_t)| + |N(a_{t-1})|)` — this is also how the accelerator's
//! Weight Updater consumes the two neighbor streams, and why Node2Vec
//! issues extra `row_index`/`col_index` traffic in the memory model.

use lightrw_graph::{Graph, VertexId};

/// Fill `mask[i] = (prev, N(cur)[i]) ∈ E` by merge-joining the two sorted
/// adjacency lists. `mask` is resized to `deg(cur)`.
///
/// This is the simple byte-per-candidate variant kept as the test oracle;
/// the engines' hot path uses [`NeighborBitset`] +
/// [`common_neighbor_bitset`], which packs the mask 64 candidates per word
/// and switches to galloping probes on lopsided degree pairs.
pub fn common_neighbor_mask(g: &Graph, cur: VertexId, prev: VertexId, mask: &mut Vec<bool>) {
    let cand = g.neighbors(cur);
    let prev_adj = g.neighbors(prev);
    mask.clear();
    mask.resize(cand.len(), false);
    let mut j = 0usize;
    for (i, &b) in cand.iter().enumerate() {
        while j < prev_adj.len() && prev_adj[j] < b {
            j += 1;
        }
        if j < prev_adj.len() && prev_adj[j] == b {
            mask[i] = true;
        }
    }
}

/// Word-packed candidate mask: one bit per element of `N(cur)`, reused
/// across steps so the second-order hot path does no per-step allocation
/// once the word buffer has grown to the largest degree seen.
///
/// Doubles as the target-set representation of
/// [`crate::program::WalkProgram`]: a bitset over vertex ids built with
/// [`NeighborBitset::from_members`], probed once per step by the control
/// rule (equality compares the held bits, so two sets with the same
/// members are equal whatever buffer capacity each grew to).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NeighborBitset {
    words: Vec<u64>,
    len: usize,
}

impl NeighborBitset {
    /// Empty bitset.
    pub fn new() -> Self {
        Self::default()
    }

    /// A bitset of `len` bits with exactly the `members` set — the
    /// vertex-set constructor walk programs use for target termination.
    ///
    /// # Panics
    ///
    /// Panics when a member index is `>= len`.
    pub fn from_members(len: usize, members: impl IntoIterator<Item = usize>) -> Self {
        let mut bits = Self::new();
        bits.clear_resize(len);
        for m in members {
            assert!(m < len, "bitset member {m} out of range 0..{len}");
            bits.set(m);
        }
        bits
    }

    /// Pre-size for candidate sets up to `bits` (worker setup).
    pub fn reserve(&mut self, bits: usize) {
        self.words
            .reserve(bits.div_ceil(64).saturating_sub(self.words.len()));
    }

    /// Reset to `len` cleared bits.
    pub fn clear_resize(&mut self, len: usize) {
        self.len = len;
        let words = len.div_ceil(64);
        self.words.clear();
        self.words.resize(words, 0);
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no bits are held.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Set bit `i`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i >> 6] |= 1u64 << (i & 63);
    }

    /// Read bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        (self.words[i >> 6] >> (i & 63)) & 1 != 0
    }
}

/// When one adjacency list is this many times longer than the other, probe
/// the longer list by binary search instead of merge-joining — the
/// galloping cutover for hub/leaf degree pairs.
const GALLOP_RATIO: usize = 8;

/// Fill `bits[i] = (prev, N(cur)[i]) ∈ E`; the bitset is resized to
/// `deg(cur)`. Chooses merge-join or galloping by degree ratio; all
/// strategies produce identical bits (see the proptest below).
pub fn common_neighbor_bitset(g: &Graph, cur: VertexId, prev: VertexId, bits: &mut NeighborBitset) {
    common_neighbor_bitset_slices(g.neighbors(cur), g.neighbors(prev), bits);
}

/// Slice-level core of [`common_neighbor_bitset`]: intersect a candidate
/// list against an explicit sorted adjacency row.
pub fn common_neighbor_bitset_slices(cand: &[u32], prev_adj: &[u32], bits: &mut NeighborBitset) {
    bits.clear_resize(cand.len());
    if cand.is_empty() || prev_adj.is_empty() {
        return;
    }
    if prev_adj.len() > GALLOP_RATIO * cand.len() {
        // Few candidates, huge prev list: probe prev's adjacency.
        for (i, &b) in cand.iter().enumerate() {
            if prev_adj.binary_search(&b).is_ok() {
                bits.set(i);
            }
        }
    } else if cand.len() > GALLOP_RATIO * prev_adj.len() {
        // Huge candidate list, few prev neighbors: locate each prev
        // neighbor inside the candidates, narrowing the window as we go.
        let mut lo = 0usize;
        for &p in prev_adj {
            match cand[lo..].binary_search(&p) {
                Ok(off) => {
                    bits.set(lo + off);
                    lo += off + 1;
                }
                Err(off) => lo += off,
            }
            if lo >= cand.len() {
                break;
            }
        }
    } else {
        // Comparable sizes: linear merge-join, one pass over both lists.
        let mut j = 0usize;
        for (i, &b) in cand.iter().enumerate() {
            while j < prev_adj.len() && prev_adj[j] < b {
                j += 1;
            }
            if j == prev_adj.len() {
                break;
            }
            if prev_adj[j] == b {
                bits.set(i);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightrw_graph::GraphBuilder;

    fn fixture() -> Graph {
        // 0-1, 0-2, 0-3, 1-2, 3-4 undirected.
        GraphBuilder::undirected()
            .edges([(0, 1), (0, 2), (0, 3), (1, 2), (3, 4)])
            .build()
    }

    #[test]
    fn mask_matches_binary_search() {
        let g = fixture();
        let mut mask = Vec::new();
        for cur in 0..5u32 {
            for prev in 0..5u32 {
                common_neighbor_mask(&g, cur, prev, &mut mask);
                let cand = g.neighbors(cur);
                assert_eq!(mask.len(), cand.len());
                for (i, &b) in cand.iter().enumerate() {
                    assert_eq!(mask[i], g.has_edge(prev, b), "cur={cur} prev={prev} b={b}");
                }
            }
        }
    }

    #[test]
    fn empty_candidate_list() {
        let g = GraphBuilder::directed().num_vertices(3).edge(0, 1).build();
        let mut mask = vec![true; 4];
        common_neighbor_mask(&g, 2, 0, &mut mask);
        assert!(mask.is_empty());
    }

    #[test]
    fn prev_with_no_neighbors() {
        let g = GraphBuilder::directed().num_vertices(3).edge(0, 1).build();
        let mut mask = Vec::new();
        common_neighbor_mask(&g, 0, 2, &mut mask);
        assert_eq!(mask, vec![false]);
    }

    #[test]
    fn bitset_basics() {
        let mut b = NeighborBitset::new();
        b.clear_resize(130); // spans three words
        assert_eq!(b.len(), 130);
        assert!(!b.is_empty());
        b.set(0);
        b.set(63);
        b.set(64);
        b.set(129);
        for i in 0..130 {
            assert_eq!(b.get(i), matches!(i, 0 | 63 | 64 | 129), "bit {i}");
        }
        // Reuse clears old bits.
        b.clear_resize(10);
        assert!((0..10).all(|i| !b.get(i)));
    }

    #[test]
    fn bitset_gallops_into_hub_from_leaf() {
        // Star graph: vertex 0 is a hub, leaves have degree 1 — both
        // galloping branches fire and must match the oracle.
        let g = lightrw_graph::generators::star(600);
        let mut bits = NeighborBitset::new();
        let mut mask = Vec::new();
        for (cur, prev) in [(1u32, 0u32), (0, 1), (0, 0), (1, 2)] {
            common_neighbor_bitset(&g, cur, prev, &mut bits);
            common_neighbor_mask(&g, cur, prev, &mut mask);
            assert_eq!(bits.len(), mask.len());
            for (i, &m) in mask.iter().enumerate() {
                assert_eq!(bits.get(i), m, "cur={cur} prev={prev} i={i}");
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn bitset_equals_bool_mask(seed in 0u64..40) {
            let g = lightrw_graph::generators::rmat(7, 6, seed);
            let mut bits = NeighborBitset::new();
            let mut mask = Vec::new();
            for cur in (0..g.num_vertices() as u32).step_by(13) {
                let prev = (cur * 29 + 3) % g.num_vertices() as u32;
                common_neighbor_bitset(&g, cur, prev, &mut bits);
                common_neighbor_mask(&g, cur, prev, &mut mask);
                proptest::prop_assert_eq!(bits.len(), mask.len());
                for (i, &m) in mask.iter().enumerate() {
                    proptest::prop_assert_eq!(bits.get(i), m);
                }
            }
        }

        #[test]
        fn merge_join_equals_has_edge(seed in 0u64..50) {
            let g = lightrw_graph::generators::rmat(7, 4, seed);
            let mut mask = Vec::new();
            // Sample a handful of (cur, prev) pairs per case.
            for cur in (0..g.num_vertices() as u32).step_by(17) {
                let prev = (cur * 31 + 7) % g.num_vertices() as u32;
                common_neighbor_mask(&g, cur, prev, &mut mask);
                for (i, &b) in g.neighbors(cur).iter().enumerate() {
                    proptest::prop_assert_eq!(mask[i], g.has_edge(prev, b));
                }
            }
        }
    }
}
