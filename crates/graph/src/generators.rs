//! Synthetic graph generators and dataset stand-ins.
//!
//! The paper evaluates on five real-world graphs (Table 2) plus RMAT
//! synthetics (rmat-12…22, Kronecker/R-MAT model). We implement:
//!
//! - [`rmat`] — the R-MAT recursive generator (Chakrabarti et al., SDM'04)
//!   with Graph500 partition probabilities by default, which produces the
//!   power-law degree skew all of LightRW's memory optimizations target;
//! - [`erdos_renyi_gnm`] — uniform random graphs (a no-skew control for
//!   ablation benches);
//! - deterministic fixtures ([`ring`], [`star`], [`path`], [`complete`])
//!   used heavily by unit tests;
//! - [`DatasetProfile`] — scaled stand-ins for youtube / us-patents /
//!   liveJournal / orkut / uk2002. We cannot redistribute the real files,
//!   so each profile records the real |V|, |E|, directedness and average
//!   degree from Table 2 and generates an RMAT graph with matching average
//!   degree at a caller-chosen scale. DESIGN.md documents why this
//!   preserves the evaluated effects; `lightrw-graph::io` can load the real
//!   SNAP files when available.

use crate::builder::GraphBuilder;
use crate::csr::{Graph, VertexId};
use crate::draws::RmatLanes;
use lightrw_rng::{Rng, SplitMix64};

/// Graph500 R-MAT partition probabilities (a, b, c; d is the remainder).
pub const RMAT_A: f64 = 0.57;
pub const RMAT_B: f64 = 0.19;
pub const RMAT_C: f64 = 0.19;

/// Generate an R-MAT edge list: `2^scale` vertices, `edge_factor * 2^scale`
/// undirected-intent edge samples (duplicates collapse in the builder, as
/// in the reference R-MAT generator).
pub fn rmat_edges(
    scale: u32,
    edge_factor: usize,
    skew: (f64, f64, f64),
    seed: u64,
) -> Vec<(VertexId, VertexId)> {
    let mut edges = Vec::with_capacity(edge_factor << scale);
    edges.extend(rmat_edge_stream(scale, edge_factor, skew, seed));
    edges
}

/// Streaming form of [`rmat_edges`]: yields the identical edge sequence
/// (same RNG draws, same order) without materializing the list. The
/// out-of-core pack pipeline (`crate::pack`) consumes this so an rmat-22+
/// dataset can be packed in bounded memory.
///
/// Each level picks its quadrant by comparing the draw's 53 random bits
/// against integer thresholds and sets both id bits without a branch.
/// The stream is draw for draw the float generator's (`next_f64() < t`
/// chained through a three-way `if`, kept as the test oracle below):
/// `next_f64()` is `x · 2^-53` for the integer `x = next_u64() >> 11`,
/// and scaling by a power of two is exact, so
/// `x · 2^-53 < t  ⇔  x < ⌈t · 2^53⌉`. Edge `k` takes draws
/// `k·scale ..` of one SplitMix64 stream, a counter, so edges are drawn
/// eight at a time, one per vector lane (`crate::draws`).
pub fn rmat_edge_stream(
    scale: u32,
    edge_factor: usize,
    skew: (f64, f64, f64),
    seed: u64,
) -> impl Iterator<Item = (VertexId, VertexId)> {
    let lanes = RmatLanes::new(scale, skew, seed);
    lanes
        .stream(edge_factor << scale, [])
        .map(|(edge, [])| edge)
}

/// R-MAT graph with Graph500 parameters, built directed (each sampled edge
/// stored one way), `2^scale` vertices. The paper's rmat-N datasets use
/// average degree 8 (Table 2: |E| = 2^{N+3}), i.e. `edge_factor = 8`.
pub fn rmat(scale: u32, edge_factor: usize, seed: u64) -> Graph {
    GraphBuilder::directed()
        .num_vertices(1 << scale)
        .edges(rmat_edges(
            scale,
            edge_factor,
            (RMAT_A, RMAT_B, RMAT_C),
            seed,
        ))
        .build()
}

/// Erdős–Rényi G(n, m): `m` edges sampled uniformly (without self-loops).
pub fn erdos_renyi_gnm(n: usize, m: usize, seed: u64) -> Graph {
    assert!(n >= 2, "G(n,m) needs at least two vertices");
    let mut rng = SplitMix64::new(seed);
    let mut edges = Vec::with_capacity(m);
    for _ in 0..m {
        let u = rng.gen_range(n as u64) as VertexId;
        let mut v = rng.gen_range(n as u64 - 1) as VertexId;
        if v >= u {
            v += 1; // skip self-loop
        }
        edges.push((u, v));
    }
    GraphBuilder::undirected()
        .num_vertices(n)
        .edges(edges)
        .build()
}

/// Ring lattice: each vertex connected to its `k` clockwise successors
/// (undirected). Deterministic; every vertex has degree `2k`.
pub fn ring(n: usize, k: usize) -> Graph {
    assert!(n > 2 * k, "ring needs n > 2k");
    let mut b = GraphBuilder::undirected().num_vertices(n);
    for u in 0..n {
        for j in 1..=k {
            b = b.edge(u as VertexId, ((u + j) % n) as VertexId);
        }
    }
    b.build()
}

/// Star: vertex 0 connected to all others (undirected). The max-skew
/// fixture for cache tests.
pub fn star(n: usize) -> Graph {
    assert!(n >= 2);
    GraphBuilder::undirected()
        .num_vertices(n)
        .edges((1..n as VertexId).map(|v| (0, v)))
        .build()
}

/// Simple path 0-1-2-…-(n-1), undirected.
pub fn path(n: usize) -> Graph {
    assert!(n >= 2);
    GraphBuilder::undirected()
        .num_vertices(n)
        .edges((0..n as VertexId - 1).map(|v| (v, v + 1)))
        .build()
}

/// Complete graph K_n, undirected.
pub fn complete(n: usize) -> Graph {
    assert!(n >= 2);
    let mut b = GraphBuilder::undirected().num_vertices(n);
    for u in 0..n as VertexId {
        for v in u + 1..n as VertexId {
            b = b.edge(u, v);
        }
    }
    b.build()
}

/// One of the paper's evaluation datasets (Table 2), with the metadata
/// needed to build a scaled synthetic stand-in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetProfile {
    /// Short name used in the paper's figures (YT, UP, LJ, OR, UK, RMAT-n).
    pub name: &'static str,
    /// Full vertex count of the real dataset.
    pub real_vertices: u64,
    /// Full edge count of the real dataset.
    pub real_edges: u64,
    /// Whether the real dataset is directed.
    pub directed: bool,
    /// Default R-MAT skew used for the stand-in (Graph500 unless noted).
    pub skew: (f64, f64, f64),
}

impl DatasetProfile {
    /// Average degree of the real dataset.
    pub fn avg_degree(&self) -> f64 {
        self.real_edges as f64 / self.real_vertices as f64
    }

    /// youtube (YT): 1.14M vertices, 2.99M edges, undirected.
    pub fn youtube() -> Self {
        Self {
            name: "youtube",
            real_vertices: 1_140_000,
            real_edges: 2_990_000,
            directed: false,
            skew: (RMAT_A, RMAT_B, RMAT_C),
        }
    }

    /// us-patents (UP): 3.78M vertices, 16.52M edges, directed.
    pub fn us_patents() -> Self {
        Self {
            name: "us-patents",
            real_vertices: 3_780_000,
            real_edges: 16_520_000,
            directed: true,
            // Citation networks are mildly skewed; soften the recursion.
            skew: (0.45, 0.22, 0.22),
        }
    }

    /// liveJournal (LJ): 4.8M vertices, 68.9M edges, undirected.
    pub fn livejournal() -> Self {
        Self {
            name: "liveJournal",
            real_vertices: 4_800_000,
            real_edges: 68_900_000,
            directed: false,
            skew: (RMAT_A, RMAT_B, RMAT_C),
        }
    }

    /// orkut (OR): 3.1M vertices, 117.2M edges, undirected.
    pub fn orkut() -> Self {
        Self {
            name: "orkut",
            real_vertices: 3_100_000,
            real_edges: 117_200_000,
            directed: false,
            skew: (RMAT_A, RMAT_B, RMAT_C),
        }
    }

    /// uk2002 (UK): 18.52M vertices, 298.11M edges, directed web graph.
    pub fn uk2002() -> Self {
        Self {
            name: "uk2002",
            real_vertices: 18_520_000,
            real_edges: 298_110_000,
            directed: true,
            // Web graphs are the most skewed of the set.
            skew: (0.62, 0.17, 0.17),
        }
    }

    /// The paper's five real-world datasets in Table 2 order.
    pub fn all_real() -> Vec<Self> {
        vec![
            Self::youtube(),
            Self::us_patents(),
            Self::livejournal(),
            Self::orkut(),
            Self::uk2002(),
        ]
    }

    /// Build the scaled stand-in: an R-MAT graph with `2^scale` vertices
    /// whose average degree matches the real dataset's, with random weights
    /// and labels initialized the way the paper does (§6.1.4).
    ///
    /// `scale` trades fidelity for runtime; experiment harnesses default to
    /// 14–16 and accept `--scale` to raise it.
    pub fn stand_in(&self, scale: u32, seed: u64) -> Graph {
        // For undirected datasets the builder doubles edges, so sample half
        // as many input pairs to hit the target stored-edge count.
        let target_avg = self.avg_degree();
        let per_vertex = if self.directed {
            target_avg
        } else {
            target_avg / 2.0
        };
        // Duplicate collapse loses some sampled edges; oversample ~12%.
        let edge_factor = ((per_vertex * 1.12).round() as usize).max(1);
        let edges = rmat_edges(scale, edge_factor, self.skew, seed);
        let mut b = if self.directed {
            GraphBuilder::directed()
        } else {
            GraphBuilder::undirected()
        };
        b = b.num_vertices(1 << scale).edges(edges);
        b.randomize_weights(64, seed ^ 0x5EED_0001)
            .randomize_edge_labels(2, seed ^ 0x5EED_0002)
            .randomize_vertex_labels(4, seed ^ 0x5EED_0003)
            .build()
    }
}

/// Build the rmat-N synthetic of Table 2 (avg degree 8, directed), with
/// weights/labels initialized like the stand-ins.
pub fn rmat_dataset(scale: u32, seed: u64) -> Graph {
    GraphBuilder::directed()
        .num_vertices(1 << scale)
        .edges(rmat_edges(scale, 8, (RMAT_A, RMAT_B, RMAT_C), seed))
        .randomize_weights(64, seed ^ 0x5EED_0001)
        .randomize_edge_labels(2, seed ^ 0x5EED_0002)
        .randomize_vertex_labels(4, seed ^ 0x5EED_0003)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::draws::supported_tiers;
    use crate::stats::degree_histogram;
    use crate::validate::validate;

    /// The float generator `rmat_edge_stream` replaced: one `next_f64`
    /// per level, quadrant by a three-way `if`. The oracle for the
    /// integer-threshold version.
    fn rmat_edge_stream_float(
        scale: u32,
        edge_factor: usize,
        (a, b, c): (f64, f64, f64),
        seed: u64,
    ) -> impl Iterator<Item = (VertexId, VertexId)> {
        let mut rng = SplitMix64::new(seed);
        (0..edge_factor << scale).map(move |_| {
            let (mut u, mut v) = (0u32, 0u32);
            for _ in 0..scale {
                u <<= 1;
                v <<= 1;
                let r = rng.next_f64();
                if r < a {
                    // top-left quadrant: no bits set
                } else if r < a + b {
                    v |= 1;
                } else if r < a + b + c {
                    u |= 1;
                } else {
                    u |= 1;
                    v |= 1;
                }
            }
            (u, v)
        })
    }

    fn assert_streams_equal(scale: u32, skew: (f64, f64, f64), seed: u64) {
        let got = rmat_edge_stream(scale, 8, skew, seed).take(100_000);
        let want = rmat_edge_stream_float(scale, 8, skew, seed).take(100_000);
        assert!(
            got.eq(want),
            "scale {scale} skew {skew:?} seed {seed}: streams differ"
        );
    }

    #[test]
    fn rmat_stream_is_draw_for_draw_the_float_generator() {
        let graph500 = (RMAT_A, RMAT_B, RMAT_C);
        let patents = DatasetProfile::us_patents().skew;
        for scale in [1, 7, 20, 31] {
            for seed in [0, 1, 7, 0xDEAD_BEEF, u64::MAX] {
                assert_streams_equal(scale, graph500, seed);
                assert_streams_equal(scale, patents, seed);
            }
        }
        assert_eq!(rmat_edge_stream(0, 8, graph500, 3).count(), 8);
    }

    /// Whole streams and their prefixes, on every vector tier this CPU
    /// has — the portable body among them — and dispatched. No length
    /// here but the last is a multiple of the block, and most are not one
    /// of the lane count either.
    #[test]
    fn every_tier_draws_the_float_generators_stream() {
        let skews = [(RMAT_A, RMAT_B, RMAT_C), DatasetProfile::us_patents().skew];
        let shapes = (0..=5).flat_map(|scale| [(scale, 1), (scale, 3)]);
        for (scale, edge_factor) in shapes.chain([(7, 3), (7, 11), (8, 1)]) {
            for (skew, seed) in skews.into_iter().zip([0, u64::MAX]) {
                let float = rmat_edge_stream_float(scale, edge_factor, skew, seed);
                let want: Vec<_> = float.collect();
                let n = want.len();
                let what = format!("scale {scale} edge factor {edge_factor} seed {seed}");
                for tier in supported_tiers() {
                    let lanes = RmatLanes::new(scale, skew, seed).on(tier);
                    let got: Vec<_> = lanes.stream(n, []).map(|(e, [])| e).collect();
                    assert_eq!(got, want, "{tier:?}, {what}");
                }
                assert_eq!(rmat_edges(scale, edge_factor, skew, seed), want, "{what}");
                for take in [0, 1, 7, 9, 255, 257, 263, n - 1] {
                    let prefix = rmat_edge_stream(scale, edge_factor, skew, seed).take(take);
                    assert!(prefix.eq(want[..take.min(n)].iter().copied()), "{what}");
                }
            }
        }
    }

    #[test]
    fn rmat_thresholds_hold_at_the_edges() {
        // b = 0 empties the "v only" quadrant (a + b == a).
        assert_streams_equal(12, (0.5, 0.0, 0.25), 5);
        assert!(rmat_edge_stream(12, 8, (0.5, 0.0, 0.0), 5).all(|(u, v)| u == v));
        // a + b + c one ulp below 1: the last quadrant is a single draw
        // value wide and the top threshold is 2^53 - 1.
        let c = 0.25;
        let a = f64::from_bits(1.0f64.to_bits() - 1) - 0.25 - c;
        assert_eq!((a + 0.25 + c).to_bits(), 1.0f64.to_bits() - 1);
        assert_streams_equal(12, (a, 0.25, c), 9);
        // Thresholds that are not multiples of 2^-53 round up, not down.
        assert_streams_equal(12, (1e-17, 1e-17, 1e-17), 11);
        assert_streams_equal(3, (f64::MIN_POSITIVE, 0.0, 0.0), 13);
    }

    #[test]
    fn rmat_vertex_count_and_validity() {
        let g = rmat(10, 8, 1);
        assert_eq!(g.num_vertices(), 1024);
        assert!(g.num_edges() > 0);
        assert!(validate(&g).is_ok());
    }

    #[test]
    fn rmat_is_skewed() {
        let g = rmat(12, 8, 2);
        // Power-law: max degree far above average.
        assert!(
            (g.max_degree() as f64) > 10.0 * g.avg_degree(),
            "max {} avg {}",
            g.max_degree(),
            g.avg_degree()
        );
    }

    #[test]
    fn rmat_deterministic() {
        assert_eq!(rmat(8, 4, 7), rmat(8, 4, 7));
        assert_ne!(rmat(8, 4, 7), rmat(8, 4, 8));
    }

    #[test]
    fn erdos_renyi_is_flat() {
        let g = erdos_renyi_gnm(2048, 8192, 3);
        assert!(validate(&g).is_ok());
        // ER max degree stays within a small factor of the average.
        assert!((g.max_degree() as f64) < 6.0 * g.avg_degree().max(1.0));
    }

    #[test]
    fn erdos_renyi_has_no_self_loops() {
        let g = erdos_renyi_gnm(100, 1000, 4);
        for (u, v, _) in g.iter_edges() {
            assert_ne!(u, v);
        }
    }

    #[test]
    fn ring_degrees_uniform() {
        let g = ring(10, 2);
        for v in 0..10u32 {
            assert_eq!(g.degree(v), 4);
        }
        assert!(validate(&g).is_ok());
    }

    #[test]
    fn star_hub_degree() {
        let g = star(64);
        assert_eq!(g.degree(0), 63);
        for v in 1..64u32 {
            assert_eq!(g.degree(v), 1);
        }
    }

    #[test]
    fn path_endpoints() {
        let g = path(5);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(2), 2);
        assert_eq!(g.degree(4), 1);
    }

    #[test]
    fn complete_graph_edges() {
        let g = complete(6);
        assert_eq!(g.num_edges(), 6 * 5);
        for v in 0..6u32 {
            assert_eq!(g.degree(v), 5);
        }
    }

    #[test]
    fn stand_in_matches_profile_shape() {
        for p in DatasetProfile::all_real() {
            let g = p.stand_in(10, 42);
            assert_eq!(g.num_vertices(), 1024, "{}", p.name);
            assert_eq!(g.is_directed(), p.directed, "{}", p.name);
            // Average degree within 2x of the real profile (duplicate
            // collapse + small scale make it inexact).
            let ratio = g.avg_degree() / p.avg_degree();
            assert!(
                (0.4..=1.6).contains(&ratio),
                "{}: avg degree ratio {ratio} (got {} want {})",
                p.name,
                g.avg_degree(),
                p.avg_degree()
            );
            assert!(g.has_vertex_labels() && g.has_edge_labels(), "{}", p.name);
            assert!(validate(&g).is_ok(), "{}", p.name);
        }
    }

    #[test]
    fn rmat_dataset_has_attributes() {
        let g = rmat_dataset(8, 5);
        assert!(g.has_vertex_labels());
        assert!(g.has_edge_labels());
        assert!(g.iter_edges().all(|(_, _, w)| (1..=64).contains(&w)));
    }

    #[test]
    fn degree_histogram_covers_all_vertices() {
        let g = rmat(10, 8, 9);
        let h = degree_histogram(&g);
        let total: u64 = h.iter().map(|b| b.count).sum();
        assert_eq!(total, g.num_vertices() as u64);
    }
}
